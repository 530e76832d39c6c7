"""Output checks for the benchmark workloads.

Two kinds of check, both written to survive the refactors the roadmap plans
(batched transfer matrices, blocked QR, vectorised inertia, a new algebra
core):

* invariants that hold for every seed: Lyapunov exponents sorted and paired
  symplectically, the IDS nondecreasing and made of whole eigenvalue counts,
  full bracket closure and no critical energies for the tridiagonal
  witness, the shooting count equal to every inertia count;
* for the default seed, stored reference outputs under ``reference/``:
  integer-derived values must match exactly, eigenvalues to rounding, and
  Lyapunov exponents within three combined standard errors.

Only the files named here are read; ``summary.txt``, ``plot_results.py`` and
any file a later version adds are ignored.  Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
import os

# |gamma_i + gamma_(2N+1-i)| per unit length.  The QR recursion pairs the
# exponents up to a start-up transient that decays like 1/(n_steps * ell):
# up to 2e-6 at 1000 steps, 7e-8 at 80000.  A broken recursion misses the
# pairing by the size of the exponents (0.1 to 5 here).
PAIR_TOL = 1e-4
# eigenvalues and other floats that only rounding may move
ROUND_RTOL = 1e-8
# a count divided by a float normaliser is a whole number to this tolerance
COUNT_TOL = 1e-6


def read_csv(path: str) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        return list(reader.fieldnames or []), rows


def _close(a: float, b: float, rtol: float = ROUND_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _finite(*xs: float) -> bool:
    return all(math.isfinite(x) for x in xs)


def check_lyapunov(path: str, n: int, rows_expected: int, ref: str | None) -> list[str]:
    header, rows = read_csv(path)
    two_n = 2 * n
    want = (["E"] + [f"gamma_{i}" for i in range(1, two_n + 1)]
            + [f"stderr_{i}" for i in range(1, two_n + 1)] + ["n_steps", "n_replicas", "seed"])
    if header != want:
        return [f"lyapunov.csv header {header} != {want}"]
    if len(rows) != rows_expected:
        return [f"lyapunov.csv has {len(rows)} rows, expected {rows_expected}"]
    problems = []
    for k, row in enumerate(rows):
        g = [float(row[f"gamma_{i}"]) for i in range(1, two_n + 1)]
        se = [float(row[f"stderr_{i}"]) for i in range(1, two_n + 1)]
        if not _finite(*g, *se) or min(se) < 0:
            problems.append(f"lyapunov row {k}: non-finite exponent or bad stderr")
            continue
        if any(g[i] < g[i + 1] for i in range(two_n - 1)):
            problems.append(f"lyapunov row {k}: exponents not sorted")
        pair = max(abs(g[i] + g[two_n - 1 - i]) for i in range(n))
        if pair > PAIR_TOL:
            problems.append(f"lyapunov row {k}: symplectic pairing off by {pair:.3g}")
    if ref is not None:
        _, ref_rows = read_csv(ref)
        if len(ref_rows) != len(rows):
            return problems + [f"lyapunov.csv has {len(rows)} rows, reference {len(ref_rows)}"]
        for k, (row, old) in enumerate(zip(rows, ref_rows)):
            if not _close(float(row["E"]), float(old["E"])):
                problems.append(f"lyapunov row {k}: energy {row['E']} != reference {old['E']}")
            for key in ("n_steps", "n_replicas", "seed"):
                if int(row[key]) != int(old[key]):
                    problems.append(f"lyapunov row {k}: {key} {row[key]} != reference {old[key]}")
            for i in range(1, two_n + 1):
                g, g0 = float(row[f"gamma_{i}"]), float(old[f"gamma_{i}"])
                se, se0 = float(row[f"stderr_{i}"]), float(old[f"stderr_{i}"])
                if abs(g - g0) > 3.0 * math.hypot(se, se0) + 1e-12:
                    problems.append(f"lyapunov row {k}: gamma_{i} {g} vs reference {g0} "
                                    f"beyond 3 combined stderr")
    return problems


def _ids_counts(rows: list[dict[str, str]], ell: float) -> list[float]:
    """Summed eigenvalue counts behind each N_hat (whole numbers when correct)."""
    return [float(r["N_hat"]) * 2.0 * ell * int(r["L"]) * int(r["n_samples"]) for r in rows]


def check_ids(path: str, ell: float, rows_expected: int, ref: str | None) -> list[str]:
    header, rows = read_csv(path)
    want = ["E", "N_hat", "stderr", "L", "h", "n_samples", "boundary"]
    if header != want:
        return [f"ids.csv header {header} != {want}"]
    if len(rows) != rows_expected:
        return [f"ids.csv has {len(rows)} rows, expected {rows_expected}"]
    problems = []
    e = [float(r["E"]) for r in rows]
    v = [float(r["N_hat"]) for r in rows]
    if not _finite(*e, *v) or any(x < 0 for x in v):
        return ["ids.csv: non-finite or negative values"]
    if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
        problems.append("ids.csv: energies not increasing")
    if any(v[i] > v[i + 1] for i in range(len(v) - 1)):
        problems.append("ids.csv: IDS decreases")
    counts = _ids_counts(rows, ell)
    if any(abs(c - round(c)) > COUNT_TOL for c in counts):
        problems.append("ids.csv: N_hat is not a whole number of eigenvalues")
    if ref is not None:
        _, ref_rows = read_csv(ref)
        old = _ids_counts(ref_rows, ell)
        if [round(c) for c in counts] != [round(c) for c in old]:
            problems.append("ids.csv: eigenvalue counts differ from the reference")
        for r, o in zip(rows, ref_rows):
            if not (_close(float(r["E"]), float(o["E"]))
                    and _close(float(r["stderr"]), float(o["stderr"]))):
                problems.append(f"ids.csv: row at E={r['E']} differs from the reference")
                break
    return problems


def check_certificates(path: str, n: int, rows_expected: int, ref: str | None) -> list[str]:
    header, rows = read_csv(path)
    want = ["E", "norm_ok", "closure_dim", "target_dim", "certified"]
    if header != want:
        return [f"certificates.csv header {header} != {want}"]
    if len(rows) != rows_expected:
        return [f"certificates.csv has {len(rows)} rows, expected {rows_expected}"]
    problems = []
    target = 2 * n * n + n
    for r in rows:
        if int(r["target_dim"]) != target or int(r["closure_dim"]) != target:
            problems.append(f"certificates.csv: closure {r['closure_dim']}/{r['target_dim']} "
                            f"at E={r['E']}, witness must reach {target}")
        if r["certified"] != r["norm_ok"]:
            problems.append(f"certificates.csv: certified != norm_ok at E={r['E']}")
    if ref is not None:
        _, ref_rows = read_csv(ref)
        for r, o in zip(rows, ref_rows):
            same_ints = all(r[k] == o[k] for k in want[1:])
            if not (same_ints and _close(float(r["E"]), float(o["E"]))):
                problems.append(f"certificates.csv: row at E={r['E']} differs from the reference")
    return problems


def check_critical(path: str, ref: str | None) -> list[str]:
    header, rows = read_csv(path)
    want = ["E_lo", "E_hi", "E_mid", "dim_reached", "target_dim", "tol"]
    if header != want:
        return [f"critical.csv header {header} != {want}"]
    # The witness generates the full algebra at every energy: no brackets,
    # so the reference (also empty) adds nothing to check.
    return [f"critical.csv: {len(rows)} critical brackets for the witness"] if rows else []


def check_decay(path: str, window: tuple[float, float], ref: str | None) -> list[str]:
    header, rows = read_csv(path)
    want = ["eigenvalue", "center", "fitted_rate", "residual", "L", "h"]
    if header != want:
        return [f"decay.csv header {header} != {want}"]
    if not rows:
        return ["decay.csv: no states in the window"]
    problems = []
    for r in rows:
        lam, rate, res = float(r["eigenvalue"]), float(r["fitted_rate"]), float(r["residual"])
        if not _finite(lam, rate, res) or res < 0:
            problems.append(f"decay.csv: non-finite fit at eigenvalue {r['eigenvalue']}")
        elif not window[0] <= lam <= window[1]:
            problems.append(f"decay.csv: eigenvalue {lam} outside the window {window}")
    if ref is not None:
        _, ref_rows = read_csv(ref)
        new = [float(r["eigenvalue"]) for r in rows]
        old = [float(r["eigenvalue"]) for r in ref_rows]
        if len(new) != len(old) or not all(_close(a, b) for a, b in zip(new, old)):
            problems.append("decay.csv: eigenvalues differ from the reference")
    return problems


def check_shooting(path: str, ref: str | None) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    shoot, inertia = doc["shooting_count"], doc["inertia_counts"]
    problems = []
    if shoot < 1 or len(inertia) != 3 or any(c != shoot for c in inertia):
        problems.append(f"shooting count {shoot} != inertia counts {inertia}")
    if ref is not None:
        with open(ref, encoding="utf-8") as fh:
            old = json.load(fh)
        if (shoot, inertia) != (old["shooting_count"], old["inertia_counts"]) or not all(
                _close(a, b) for a, b in zip(doc["edges"], old["edges"])):
            problems.append(f"shooting result {doc} differs from the reference {old}")
    return problems


def run_checks(checks: list[tuple], out_dir: str, ref_dir: str | None) -> list[str]:
    """Apply (file name, check function, extra args) to the files in ``out_dir``.

    With ``ref_dir`` every file is also compared with its stored reference,
    which must exist.  A file that is missing or unreadable is a problem,
    never an exception.
    """
    problems = []
    for name, fn, extra in checks:
        path = os.path.join(out_dir, name)
        ref = os.path.join(ref_dir, name) if ref_dir else None
        try:
            problems += fn(path, ref=ref, **extra)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"{name}: unreadable ({type(exc).__name__}: {exc})")
    return problems
