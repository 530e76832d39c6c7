"""Command-line driver: subcommand dispatch, seeding, CSV emission.

Subcommands
-----------
interval   print the spectral bounds and the certified energy window
certify    density certificates over an energy grid          -> certificates.csv
critical   genericity check: is V's coupling graph connected -> critical.csv
lyapunov   Lyapunov spectra over an energy grid              -> lyapunov.csv
ids        integrated density of states curve                -> ids.csv
localize   eigenfunction decay diagnostic                    -> decay.csv
report     all of the above plus a cross-referencing summary

Exit status: 0 success; 2 configuration error; 3 non-generic interaction
detected by ``critical``; 4 numeric failure (overflow, factorization
breakdown).

Each subcommand is a function ``(cfg, seed) -> CommandResult`` that
computes its tables, its stdout text and its exit status without touching
the disk; ``main`` writes every result the same way, and ``report`` is the
composition of the five table-producing subcommands plus a summary.

Determinism: every stochastic task draws from a stream derived as a
64-bit mix of (master seed, command id, task index), so identical
configuration and seed reproduce byte-identical CSVs, and ``report``
produces exactly the numbers of the individual subcommands.  Output
files are written atomically (temp file, then rename).  CSV headers are
fixed; columns never reorder.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from .config import RunConfig, load_config, resolve_h
from .errors import (
    AnderlocError,
    ConfigError,
    GridError,
    ScanRangeError,
    SizeGuardError,
)
from .furstenberg import density_certificate, model_closure
from .lyapunov import EstimatorConfig, lyapunov_spectrum, separability_scan
from .model import energy_interval, spectral_bounds
from .seeding import as_seed, derive_seed, stream
from .spectrum import eigen_decay, estimate_ids, sample_restriction
from . import __version__

# command ids entering seed derivation (stable across releases)
CMD_LYAPUNOV = 3
CMD_IDS = 4
CMD_LOCALIZE = 5

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NON_GENERIC = 3
EXIT_NUMERIC = 4


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV atomically with the fixed documented header."""
    lines = [",".join(header)] + [",".join(_fmt(x) for x in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path: str, text: str) -> None:
    """Write a text file atomically: temp file in the same directory, then rename."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class Table:
    """One CSV artifact: file name in the output directory, fixed header, rows."""

    name: str
    header: Sequence[str]
    rows: list


@dataclass
class CommandResult:
    """Everything a subcommand produced; ``main`` writes it out.

    ``tables`` and ``texts`` (file name -> contents) go to the output
    directory, ``stdout`` and ``stderr`` to the standard streams, ``status``
    becomes the exit status, and ``data`` holds the domain objects
    ``report`` summarizes.
    """

    stdout: str
    tables: list[Table] = field(default_factory=list)
    texts: dict[str, str] = field(default_factory=dict)
    status: int = EXIT_OK
    data: Any = None
    stderr: str = ""


def _interval_text(cfg: RunConfig) -> str:
    bounds = spectral_bounds(cfg.model)
    window = energy_interval(cfg.model)
    lines = [
        f"lambda_min = {bounds.lambda_min:.12g}",
        f"lambda_max = {bounds.lambda_max:.12g}",
        f"delta = {bounds.delta:.12g}",
        f"ell_C = {bounds.ell_c:.12g}",
    ]
    if window.is_empty:
        lines.append("I = empty (ell >= ell_C)")
    else:
        lines.append(f"I = [{window.lo:.12g}, {window.hi:.12g}]")
    return "\n".join(lines) + "\n"


def cmd_interval(cfg: RunConfig, seed: int) -> CommandResult:
    return CommandResult(stdout=_interval_text(cfg))


def cmd_certify(cfg: RunConfig, seed: int) -> CommandResult:
    grid = cfg.certify.grid.resolve(cfg.model)
    closure = model_closure(cfg.model)
    bounds = spectral_bounds(cfg.model)
    certs = [density_certificate(cfg.model, e, closure, bounds) for e in grid]
    n_cert = sum(c.certified for c in certs)
    table = Table(
        "certificates.csv",
        ["E", "norm_ok", "closure_dim", "target_dim", "certified"],
        [(c.energy, c.norm_condition, c.closure.dim_reached, c.closure.target_dim, c.certified)
         for c in certs],
    )
    return CommandResult(
        stdout=f"certified {n_cert}/{len(certs)} energies (rho = {cfg.model.rho:.12g})\n",
        tables=[table],
        data=certs,
    )


def cmd_critical(cfg: RunConfig, seed: int) -> CommandResult:
    window = energy_interval(cfg.model)
    if window.is_empty:
        raise ScanRangeError("certified energy window is empty; decrease ell below ell_c")
    closure = model_closure(cfg.model)
    # the closure is deficient everywhere or nowhere, so there is no bracket to list
    table = Table("critical.csv", ["E_lo", "E_hi", "E_mid", "dim_reached", "target_dim", "tol"], [])
    if not closure.full:
        groups = ", ".join("{" + ", ".join(map(str, k)) + "}" for k in closure.components)
        note = f"non-generic interaction: closure deficient at every energy (uncoupled channel groups {groups})\n"
        return CommandResult(stdout="", tables=[table], status=EXIT_NON_GENERIC, data=closure, stderr=note)
    return CommandResult(
        stdout=f"0 critical energies in [{window.lo:.6g}, {window.hi:.6g}]\n",
        tables=[table],
        data=closure,
    )


def _lyapunov_header(n: int) -> list[str]:
    two_n = 2 * n
    return (
        ["E"]
        + [f"gamma_{i}" for i in range(1, two_n + 1)]
        + [f"stderr_{i}" for i in range(1, two_n + 1)]
        + ["n_steps", "n_replicas", "seed"]
    )


def cmd_lyapunov(cfg: RunConfig, seed: int) -> CommandResult:
    est = EstimatorConfig(
        n_steps=cfg.lyapunov.n_steps,
        n_replicas=cfg.lyapunov.n_replicas,
        burn_in=cfg.lyapunov.burn_in,
        master_seed=derive_seed(seed, CMD_LYAPUNOV),
    )
    scan = separability_scan(cfg.model, cfg.lyapunov.grid.resolve(cfg.model), est)
    rows = [
        (r.spectrum.energy, *r.spectrum.gammas, *r.spectrum.stderrs,
         est.n_steps, est.n_replicas, r.spectrum.config.master_seed)
        for r in scan
    ]
    return CommandResult(
        stdout=f"estimated spectra at {len(rows)} energies\n",
        tables=[Table("lyapunov.csv", _lyapunov_header(cfg.model.n), rows)],
        data=scan,
    )


def cmd_ids(cfg: RunConfig, seed: int) -> CommandResult:
    curve = estimate_ids(
        cfg.model,
        cfg.ids.grid.resolve(cfg.model),
        length_cells=cfg.ids.length_cells,
        h=resolve_h(cfg.ids.h, cfg.model),
        n_samples=cfg.ids.n_samples,
        master_seed=derive_seed(seed, CMD_IDS),
        boundary=cfg.ids.boundary,
    )
    table = Table(
        "ids.csv",
        ["E", "N_hat", "stderr", "L", "h", "n_samples", "boundary"],
        [
            (e, v, s, curve.length_cells, curve.h, curve.n_samples, curve.boundary)
            for e, v, s in zip(curve.energies, curve.values, curve.stderrs)
        ],
    )
    return CommandResult(
        stdout=f"IDS sampled at {len(curve.energies)} energies, {curve.n_samples} disorder paths\n",
        tables=[table],
    )


def cmd_localize(cfg: RunConfig, seed: int) -> CommandResult:
    loc = cfg.localize
    window = loc.resolve_window(cfg.model)
    h = resolve_h(loc.h, cfg.model)
    center = 0.5 * (window.lo + window.hi)
    ref = lyapunov_spectrum(
        cfg.model,
        center,
        EstimatorConfig(n_steps=loc.ref_steps, master_seed=derive_seed(seed, CMD_LOCALIZE, 0)),
    )
    gamma_ref = float(ref.gammas[cfg.model.n - 1])
    reports = []
    for path_idx in range(loc.n_paths):
        rng = stream(derive_seed(seed, CMD_LOCALIZE, 1 + path_idx))
        restriction = sample_restriction(cfg.model, loc.length_cells, h, loc.boundary, rng)
        reports.extend(eigen_decay(cfg.model, restriction, window, gamma_ref=gamma_ref))
    table = Table(
        "decay.csv",
        ["eigenvalue", "center", "fitted_rate", "residual", "L", "h"],
        [
            (r.eigenvalue, r.localization_center, r.fitted_rate, r.fit_residual,
             loc.length_cells, h)
            for r in reports
        ],
    )
    return CommandResult(
        stdout=f"{len(reports)} states in [{window.lo:.6g}, {window.hi:.6g}]; "
        f"reference exponent {gamma_ref:.6g}\n",
        tables=[table],
        data=(reports, window, gamma_ref),
    )


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Companion plotting script for anderloc report output.
# Run from the output directory: python plot_results.py
import csv
import matplotlib.pyplot as plt


def read(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return rows


fig, axes = plt.subplots(2, 2, figsize=(11, 8))

rows = read("lyapunov.csv")
energies = [float(r["E"]) for r in rows]
n_exp = sum(1 for k in rows[0] if k.startswith("gamma_"))
for i in range(1, n_exp // 2 + 1):
    axes[0, 0].plot(energies, [float(r[f"gamma_{i}"]) for r in rows], label=f"gamma_{i}")
axes[0, 0].axhline(0.0, color="k", lw=0.5)
axes[0, 0].set_title("Lyapunov exponents")
axes[0, 0].set_xlabel("E")
axes[0, 0].legend()

rows = read("ids.csv")
axes[0, 1].plot([float(r["E"]) for r in rows], [float(r["N_hat"]) for r in rows])
axes[0, 1].set_title("Integrated density of states")
axes[0, 1].set_xlabel("E")

rows = read("certificates.csv")
axes[1, 0].step([float(r["E"]) for r in rows], [int(r["certified"]) for r in rows], where="mid")
axes[1, 0].set_title("Density certificate (1 = certified)")
axes[1, 0].set_xlabel("E")
axes[1, 0].set_ylim(-0.1, 1.1)

rows = read("decay.csv")
if rows:
    axes[1, 1].scatter([float(r["eigenvalue"]) for r in rows],
                       [float(r["fitted_rate"]) for r in rows])
axes[1, 1].set_title("Fitted decay rates")
axes[1, 1].set_xlabel("eigenvalue")

fig.tight_layout()
fig.savefig("report.png", dpi=150)
print("wrote report.png")
"""


def cmd_report(cfg: RunConfig, seed: int) -> CommandResult:
    interval_text = _interval_text(cfg)
    commands = (cmd_certify, cmd_critical, cmd_lyapunov, cmd_ids, cmd_localize)
    parts = [command(cfg, seed) for command in commands]
    certify, critical, lyapunov, _, localize = parts
    reports, window, gamma_ref = localize.data

    n = cfg.model.n
    lines = ["run summary", "===========", "", interval_text.rstrip(), ""]
    lines.append("critical energies: " + (
        "none detected" if critical.data.full
        else "non-generic interaction (deficient everywhere)"
    ))
    lines.append("")
    lines.append(f"{'E':>14}  {'certified':>9}  {'gamma_1':>12}  {'gap_min':>12}  {'separated':>9}")
    cert_by_e = {c.energy: c for c in certify.data}
    for result in lyapunov.data:
        g = result.spectrum.gammas
        gaps = [g[k] - g[k + 1] for k in range(n - 1)] or [float("nan")]
        cert = cert_by_e.get(result.energy)
        cert_str = ("yes" if cert.certified else "no") if cert is not None else "-"
        lines.append(
            f"{result.energy:>14.6g}  {cert_str:>9}  {g[0]:>12.6g}  "
            f"{min(gaps):>12.6g}  {('yes' if result.separated else 'no'):>9}"
        )
    lines.append("")
    if reports:
        rates = sorted(r.fitted_rate for r in reports)
        median = rates[len(rates) // 2]
        lines.append(
            f"decay: {len(reports)} states in [{window.lo:.6g}, {window.hi:.6g}], "
            f"median fitted rate {median:.6g}, reference exponent {gamma_ref:.6g}, "
            f"ratio {median / gamma_ref if gamma_ref else float('nan'):.3g}"
        )
    else:
        lines.append(f"decay: no states found in [{window.lo:.6g}, {window.hi:.6g}]")
    lines.append("")
    return CommandResult(
        stdout=interval_text,
        tables=[table for part in parts for table in part.tables],
        texts={"summary.txt": "\n".join(lines), "plot_results.py": _PLOT_SCRIPT},
        status=critical.status,
        stderr=critical.stderr,
    )


_COMMANDS = {
    "interval": (cmd_interval, "print the spectral constants and the certified energy window"),
    "certify": (cmd_certify, "density certificates over an energy grid -> certificates.csv"),
    "critical": (cmd_critical, "genericity check: is V's coupling graph connected -> critical.csv"),
    "lyapunov": (cmd_lyapunov, "Lyapunov spectra over an energy grid -> lyapunov.csv"),
    "ids": (cmd_ids, "integrated density of states curve -> ids.csv"),
    "localize": (cmd_localize, "eigenfunction decay diagnostic -> decay.csv"),
    "report": (cmd_report, "run everything and write a cross-referencing summary"),
}


def _seed(text: str) -> int:
    """``--seed`` value: an unsigned 64-bit integer, like the configured ``seed``."""
    try:
        return as_seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an unsigned 64-bit integer, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anderloc",
        description="Localization diagnostics for quasi-1D random operators with matrix interaction.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, blurb) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default="out", help="output directory for CSV artifacts")
        p.add_argument("--seed", type=_seed, default=None, help="override the configured master seed")
    return parser


def exit_code_for(exc: AnderlocError) -> int:
    """Map package errors onto the documented exit statuses."""
    if isinstance(exc, (ConfigError, GridError, ScanRangeError, SizeGuardError)):
        return EXIT_CONFIG
    return EXIT_NUMERIC


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print("configuration error:", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    seed = args.seed if args.seed is not None else cfg.seed
    try:
        result = _COMMANDS[args.command][0](cfg, seed)
    except AnderlocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    for table in result.tables:
        write_csv(os.path.join(args.out, table.name), table.header, table.rows)
    for name, text in result.texts.items():
        _write_text(os.path.join(args.out, name), text)
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    return result.status


if __name__ == "__main__":
    sys.exit(main())
