"""Run configuration: JSON schema, validation, defaults.

A run configuration is a single JSON document.  Model block (top level):

    {
      "N": 2,
      "V": [[0.0, 1.0], [1.0, 0.0]],        # N x N, symmetric
      "c": [1.0, 1.0],                       # length N, all non-zero
      "ell": 0.1,
      "rho": 0.6931471805599453,             # optional, default log 2
      "disorder": {"atoms": [[0.0, 0.5], [1.0, 0.5]]},
      "seed": 12345,                         # optional, default 0
      ...per-command blocks...
    }

Each subcommand reads an optional block of the same name ("certify",
"critical", "lyapunov", "ids", "localize").  Energy grids are given
either as an explicit list ``"energies": [...]`` or as
``"grid": {"lo":, "hi":, "count":}``; when absent they default to 21
evenly spaced points across the certified energy window.  Unknown keys
are ignored, among them ``critical.grid_step`` and
``critical.refine_iters``: they are accepted but have no effect, since
the genericity check that ``critical`` runs needs no energy grid.

Validation is all-at-once: every violation found is reported, not just
the first.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import AnderlocError, ConfigError
from .model import DEFAULT_RHO, DisorderSpec, EnergyInterval, ModelParams, energy_interval

__all__ = [
    "GridSpec",
    "CertifySettings",
    "CriticalSettings",
    "LyapunovSettings",
    "IdsSettings",
    "LocalizeSettings",
    "RunConfig",
    "parse_config",
    "load_config",
]

DEFAULT_GRID_COUNT = 21


@dataclass(frozen=True)
class GridSpec:
    """Energy grid: explicit points, an (lo, hi, count) range, or the default window."""

    energies: tuple[float, ...] | None = None
    lo: float | None = None
    hi: float | None = None
    count: int = DEFAULT_GRID_COUNT

    def resolve(self, params: ModelParams) -> np.ndarray:
        if self.energies is not None:
            return np.asarray(self.energies, dtype=float)
        if self.lo is not None and self.hi is not None:
            return np.linspace(self.lo, self.hi, self.count)
        window = energy_interval(params)
        if window.is_empty:
            raise ConfigError(
                ["no energies given and the certified window is empty (ell >= ell_c); "
                 "supply an explicit grid or decrease ell"]
            )
        return window.grid(self.count)


@dataclass(frozen=True)
class CertifySettings:
    grid: GridSpec = field(default_factory=GridSpec)
    tol: float = 1e-8


@dataclass(frozen=True)
class CriticalSettings:
    tol: float = 1e-8


@dataclass(frozen=True)
class LyapunovSettings:
    grid: GridSpec = field(default_factory=GridSpec)
    n_steps: int = 20000
    n_replicas: int = 8
    burn_in: int = 100


@dataclass(frozen=True)
class IdsSettings:
    grid: GridSpec = field(default_factory=GridSpec)
    length_cells: int = 50
    h: float | None = None  # default ell / 8
    n_samples: int = 4
    boundary: str = "dirichlet"


@dataclass(frozen=True)
class LocalizeSettings:
    window: tuple[float, float] | None = None  # default: middle quarter of the window
    length_cells: int = 200
    h: float | None = None  # default ell / 8
    boundary: str = "dirichlet"
    n_paths: int = 1
    ref_steps: int = 20000  # estimator length for the reference exponent

    def resolve_window(self, params: ModelParams) -> EnergyInterval:
        if self.window is not None:
            return EnergyInterval(*self.window)
        full = energy_interval(params)
        if full.is_empty:
            raise ConfigError(
                ["no localize window given and the certified window is empty; "
                 "supply \"localize\": {\"window\": [lo, hi]}"]
            )
        center = 0.5 * (full.lo + full.hi)
        half = full.length / 8.0
        return EnergyInterval(center - half, center + half)


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams
    seed: int
    certify: CertifySettings
    critical: CriticalSettings
    lyapunov: LyapunovSettings
    ids: IdsSettings
    localize: LocalizeSettings


def _is_number(x: Any) -> bool:
    """A JSON number that is a finite float.

    ``json`` also reads NaN, Infinity and integers beyond the float range;
    the comparison is false for all three.
    """
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _parse_grid(block: dict, where: str, violations: list[str]) -> GridSpec:
    if "energies" in block:
        energies = block["energies"]
        if not isinstance(energies, list) or not energies or not all(_is_number(e) for e in energies):
            violations.append(f"{where}.energies must be a non-empty list of finite numbers")
            return GridSpec()
        return GridSpec(energies=tuple(float(e) for e in energies))
    if "grid" in block:
        g = block["grid"]
        if not isinstance(g, dict) or not all(_is_number(g.get(k)) for k in ("lo", "hi")):
            violations.append(f"{where}.grid must carry finite numeric 'lo' and 'hi'")
            return GridSpec()
        count = g.get("count", DEFAULT_GRID_COUNT)
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            violations.append(f"{where}.grid.count must be a positive integer")
            return GridSpec()
        if g["lo"] > g["hi"]:
            violations.append(f"{where}.grid needs lo <= hi")
            return GridSpec()
        return GridSpec(lo=float(g["lo"]), hi=float(g["hi"]), count=count)
    return GridSpec()


def _positive_int(block: dict, key: str, default: int, where: str, violations: list[str], minimum: int = 1) -> int:
    val = block.get(key, default)
    if not isinstance(val, int) or isinstance(val, bool) or val < minimum:
        violations.append(f"{where}.{key} must be an integer >= {minimum}")
        return default
    return val


def _positive_float(block: dict, key: str, default: float | None, where: str, violations: list[str]) -> float | None:
    val = block.get(key, default)
    if val is None:
        return None
    if not _is_number(val) or val <= 0:
        violations.append(f"{where}.{key} must be a positive finite number")
        return default
    return float(val)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Raises ``ConfigError`` carrying every violation found; on success all
    model invariants hold in the returned ``RunConfig``.
    """
    violations: list[str] = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["top-level JSON value must be an object"])

    n = doc.get("N")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        violations.append("N must be a positive integer")
        n = 1

    v_raw = doc.get("V")
    v = np.zeros((n, n))
    if v_raw is None:
        violations.append("V is required (N x N array)")
    else:
        try:
            v_arr = np.asarray(v_raw, dtype=float)
        except (TypeError, ValueError, OverflowError):
            violations.append("V must be a numeric N x N array")
            v_arr = None
        if v_arr is not None:
            if v_arr.shape != (n, n):
                violations.append(f"V must be {n}x{n}, got shape {list(v_arr.shape)}")
            elif not all(_is_number(x) for row in v_raw for x in row):
                # asarray also converts strings, booleans and null
                violations.append("V entries must be finite numbers")
            else:
                scale = max(float(np.linalg.norm(v_arr)), 1e-300)
                asym = np.abs(v_arr - v_arr.T)
                i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
                if asym[i, j] > 1e-10 * scale:
                    violations.append(
                        f"V is not symmetric: entries ({i},{j}) and ({j},{i}) differ by {asym[i, j]:g} "
                        f"(relative {asym[i, j] / scale:g} > 1e-10)"
                    )
                else:
                    v = 0.5 * (v_arr + v_arr.T)

    c_raw = doc.get("c")
    c = np.ones(n)
    if c_raw is None:
        violations.append("c is required (length-N array of non-zero couplings)")
    elif (
        not isinstance(c_raw, list)
        or len(c_raw) != n
        or not all(_is_number(x) for x in c_raw)
    ):
        violations.append(f"c must be a list of N = {n} finite numbers")
    else:
        c_arr = np.asarray(c_raw, dtype=float)
        zeros = np.nonzero(c_arr == 0.0)[0]
        if zeros.size:
            violations.append(
                f"c[{int(zeros[0])}] is zero; the model requires non-zero real coupling constants"
            )
        else:
            c = c_arr

    ell = doc.get("ell")
    if not _is_number(ell) or ell <= 0:
        violations.append("ell must be a positive finite number")
        ell = 1.0

    rho = doc.get("rho", DEFAULT_RHO)
    if not _is_number(rho) or not 0 < rho <= 1:
        violations.append("rho must lie in (0, 1]")
        rho = DEFAULT_RHO

    disorder = DisorderSpec.bernoulli()
    d_raw = doc.get("disorder")
    if d_raw is not None:
        atoms_raw = d_raw.get("atoms") if isinstance(d_raw, dict) else None
        if (
            not isinstance(atoms_raw, list)
            or not atoms_raw
            or not all(isinstance(a, list) and len(a) == 2 and all(_is_number(x) for x in a) for a in atoms_raw)
        ):
            violations.append("disorder.atoms must be a non-empty list of [value, probability] pairs")
        else:
            try:
                disorder = DisorderSpec(tuple((float(a[0]), float(a[1])) for a in atoms_raw))
            except ValueError as exc:
                violations.append(f"disorder.atoms invalid: {exc}")
            else:
                if not disorder.has_binary_support:
                    violations.append(
                        "disorder.atoms must include both 0 and 1: the model requires "
                        "{0, 1} inside the support of the disorder law"
                    )

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0 or seed >= 1 << 64:
        violations.append("seed must be an unsigned 64-bit integer")
        seed = 0

    cert_block = doc.get("certify", {})
    crit_block = doc.get("critical", {})
    lyap_block = doc.get("lyapunov", {})
    ids_block = doc.get("ids", {})
    loc_block = doc.get("localize", {})
    for name, block in (("certify", cert_block), ("critical", crit_block),
                        ("lyapunov", lyap_block), ("ids", ids_block), ("localize", loc_block)):
        if not isinstance(block, dict):
            violations.append(f"'{name}' block must be a JSON object")

    cert_block = cert_block if isinstance(cert_block, dict) else {}
    crit_block = crit_block if isinstance(crit_block, dict) else {}
    lyap_block = lyap_block if isinstance(lyap_block, dict) else {}
    ids_block = ids_block if isinstance(ids_block, dict) else {}
    loc_block = loc_block if isinstance(loc_block, dict) else {}

    certify = CertifySettings(
        grid=_parse_grid(cert_block, "certify", violations),
        tol=_positive_float(cert_block, "tol", 1e-8, "certify", violations) or 1e-8,
    )
    critical = CriticalSettings(
        tol=_positive_float(crit_block, "tol", 1e-8, "critical", violations) or 1e-8,
    )
    lyap = LyapunovSettings(
        grid=_parse_grid(lyap_block, "lyapunov", violations),
        n_steps=_positive_int(lyap_block, "n_steps", 20000, "lyapunov", violations),
        n_replicas=_positive_int(lyap_block, "n_replicas", 8, "lyapunov", violations),
        burn_in=_positive_int(lyap_block, "burn_in", 100, "lyapunov", violations, minimum=0),
    )
    ids_boundary = ids_block.get("boundary", "dirichlet")
    if ids_boundary not in ("dirichlet", "neumann"):
        violations.append("ids.boundary must be 'dirichlet' or 'neumann'")
        ids_boundary = "dirichlet"
    ids = IdsSettings(
        grid=_parse_grid(ids_block, "ids", violations),
        length_cells=_positive_int(ids_block, "L", 50, "ids", violations),
        h=_positive_float(ids_block, "h", None, "ids", violations),
        n_samples=_positive_int(ids_block, "n_samples", 4, "ids", violations),
        boundary=ids_boundary,
    )
    loc_boundary = loc_block.get("boundary", "dirichlet")
    if loc_boundary not in ("dirichlet", "neumann"):
        violations.append("localize.boundary must be 'dirichlet' or 'neumann'")
        loc_boundary = "dirichlet"
    window = loc_block.get("window")
    if window is not None:
        if (
            not isinstance(window, list)
            or len(window) != 2
            or not all(_is_number(x) for x in window)
            or window[0] >= window[1]
        ):
            violations.append("localize.window must be [lo, hi] with finite lo < hi")
            window = None
        else:
            window = (float(window[0]), float(window[1]))
    localize = LocalizeSettings(
        window=window,
        length_cells=_positive_int(loc_block, "L", 200, "localize", violations),
        h=_positive_float(loc_block, "h", None, "localize", violations),
        boundary=loc_boundary,
        n_paths=_positive_int(loc_block, "n_paths", 1, "localize", violations),
        ref_steps=_positive_int(loc_block, "ref_steps", 20000, "localize", violations),
    )

    model = None
    if not violations:
        try:
            model = ModelParams(n=n, v=v, c=c, ell=float(ell), rho=float(rho), disorder=disorder)
        except (ValueError, AnderlocError) as exc:
            violations.append(str(exc))
    if violations:
        raise ConfigError(violations)
    return RunConfig(
        model=model,
        seed=seed,
        certify=certify,
        critical=critical,
        lyapunov=lyap,
        ids=ids,
        localize=localize,
    )


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
