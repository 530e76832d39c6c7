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
"critical", "lyapunov", "ids", "localize"), whose keys ``_BLOCKS`` lists;
a key left out takes the default of its ``*Settings`` field.  Energy
grids ("certify", "lyapunov", "ids") are given either as an explicit
list ``"energies": [...]`` or as ``"grid": {"lo":, "hi":, "count":}``,
not both; when absent they default to 21 evenly spaced points across the
certified energy window.  Unknown keys are rejected at every level,
except ``critical.grid_step`` and ``critical.refine_iters``: they are
accepted but have no effect, since the genericity check that
``critical`` runs needs no energy grid.  Neither ``certify`` nor
``critical`` takes a tolerance: both read the exact verdict of
``furstenberg.model_closure``, so ``tol`` is an unknown key there.
``null`` is rejected wherever a value belongs.

Validation is all-at-once: every violation found is reported, not just
the first.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import AnderlocError, ConfigError, DimensionError
from .linalg import as_symmetric
from .model import DEFAULT_RHO, DisorderSpec, EnergyInterval, ModelParams, couplings, energy_interval
from .seeding import as_seed
from .spectrum import BOUNDARIES

__all__ = [
    "GridSpec",
    "CertifySettings",
    "CriticalSettings",
    "LyapunovSettings",
    "IdsSettings",
    "LocalizeSettings",
    "resolve_h",
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


@dataclass(frozen=True)
class CriticalSettings:
    """No settings: the genericity verdict is exact and needs no tolerance or grid."""


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
    h: float | None = None  # default ell / 8, see resolve_h
    n_samples: int = 4
    boundary: str = "dirichlet"


@dataclass(frozen=True)
class LocalizeSettings:
    window: tuple[float, float] | None = None  # default: middle quarter of the window
    length_cells: int = 200
    h: float | None = None  # default ell / 8, see resolve_h
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


def resolve_h(h: float | None, params: ModelParams) -> float:
    """Grid step of the ``ids`` and ``localize`` blocks: ``h`` when given, else ell / 8."""
    return params.ell / 8.0 if h is None else h


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
    """The grid of a block that holds "energies" or "grid"."""
    if "energies" in block and "grid" in block:
        violations.append(f"{where} takes 'energies' or 'grid', not both")
        return GridSpec()
    if "energies" in block:
        energies = block["energies"]
        if not isinstance(energies, list) or not energies or not all(_is_number(e) for e in energies):
            violations.append(f"{where}.energies must be a non-empty list of finite numbers")
            return GridSpec()
        return GridSpec(energies=tuple(float(e) for e in energies))
    g = block["grid"]
    if not isinstance(g, dict) or not all(_is_number(g.get(k)) for k in ("lo", "hi")):
        violations.append(f"{where}.grid must carry finite numeric 'lo' and 'hi'")
        return GridSpec()
    violations.extend(f"{where}.grid.{key} is not a known key" for key in sorted(g.keys() - {"lo", "hi", "count"}))
    count = g.get("count", DEFAULT_GRID_COUNT)
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        violations.append(f"{where}.grid.count must be a positive integer")
        return GridSpec()
    if g["lo"] > g["hi"]:
        violations.append(f"{where}.grid needs lo <= hi")
        return GridSpec()
    return GridSpec(lo=float(g["lo"]), hi=float(g["hi"]), count=count)


def _count(minimum: int) -> Callable[[Any], int]:
    def check(val: Any) -> int:
        if not isinstance(val, int) or isinstance(val, bool) or val < minimum:
            raise ValueError(f"must be an integer >= {minimum}")
        return val
    return check


def _positive(val: Any) -> float:
    if not _is_number(val) or val <= 0:
        raise ValueError("must be a positive finite number")
    return float(val)


def _boundary(val: Any) -> str:
    if val not in BOUNDARIES:
        raise ValueError("must be " + " or ".join(f"'{b}'" for b in BOUNDARIES))
    return val


def _window(val: Any) -> tuple[float, float]:
    if not isinstance(val, list) or len(val) != 2 or not all(_is_number(x) for x in val) or val[0] >= val[1]:
        raise ValueError("must be [lo, hi] with finite lo < hi")
    return (float(val[0]), float(val[1]))


# Per command block: its settings type and, for each config key, the settings
# field and a check that returns the parsed value or raises ValueError with the
# tail of the violation message; None marks a key accepted without effect.
# Blocks whose settings have a ``grid`` field also take "energies" or "grid".
_BLOCKS: dict[str, tuple[type, dict[str, tuple[str, Callable[[Any], Any]] | None]]] = {
    "certify": (CertifySettings, {}),
    "critical": (CriticalSettings, {"grid_step": None, "refine_iters": None}),
    "lyapunov": (LyapunovSettings, {"n_steps": ("n_steps", _count(1)), "n_replicas": ("n_replicas", _count(1)),
                                    "burn_in": ("burn_in", _count(0))}),
    "ids": (IdsSettings, {"boundary": ("boundary", _boundary), "L": ("length_cells", _count(1)),
                          "h": ("h", _positive), "n_samples": ("n_samples", _count(1))}),
    "localize": (LocalizeSettings, {"boundary": ("boundary", _boundary), "window": ("window", _window),
                                    "L": ("length_cells", _count(1)), "h": ("h", _positive),
                                    "n_paths": ("n_paths", _count(1)), "ref_steps": ("ref_steps", _count(1))}),
}
_GRID_KEYS = {"energies", "grid"}
_MODEL_KEYS = {"N", "V", "c", "ell", "rho", "disorder", "seed"}


def _block_keys(name: str) -> set[str]:
    """Every key that the command block ``name`` accepts."""
    settings, table = _BLOCKS[name]
    return table.keys() | (_GRID_KEYS if "grid" in settings.__dataclass_fields__ else set())


def _parse_block(name: str, block: dict, violations: list[str]) -> Any:
    """Settings of one command block; every key left out keeps its dataclass default."""
    settings, table = _BLOCKS[name]
    known = _block_keys(name)
    violations.extend(f"{name}.{key} is not a known key" for key in sorted(block.keys() - known))
    values = {}
    if known & block.keys() & _GRID_KEYS:
        values["grid"] = _parse_grid(block, name, violations)
    for key, entry in table.items():
        if entry is not None and key in block:
            attr, check = entry
            try:
                values[attr] = check(block[key])
            except ValueError as exc:
                violations.append(f"{name}.{key} {exc}")
    return settings(**values)


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
    violations.extend(f"{key} is not a known key" for key in sorted(doc.keys() - _MODEL_KEYS - _BLOCKS.keys()))

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
                try:
                    v = as_symmetric(v_arr)
                except DimensionError as exc:
                    violations.append(f"V: {exc}")

    c_raw = doc.get("c")
    c = np.ones(n)
    if c_raw is None:
        violations.append("c is required (length-N array of non-zero couplings)")
    elif not isinstance(c_raw, list) or not all(_is_number(x) for x in c_raw):
        violations.append("c must be a list of finite numbers")
    else:
        try:
            c = couplings(c_raw, n)
        except (ValueError, DimensionError) as exc:
            violations.append(str(exc))

    ell = doc.get("ell")
    if not _is_number(ell) or ell <= 0:
        violations.append("ell must be a positive finite number")
        ell = 1.0

    rho = doc.get("rho", DEFAULT_RHO)
    if not _is_number(rho) or not 0 < rho <= 1:
        violations.append("rho must lie in (0, 1]")
        rho = DEFAULT_RHO

    disorder = DisorderSpec.bernoulli()
    if "disorder" in doc:
        d_raw = doc["disorder"]
        atoms_raw = d_raw.get("atoms") if isinstance(d_raw, dict) else None
        if isinstance(d_raw, dict):
            violations.extend(f"disorder.{key} is not a known key" for key in sorted(d_raw.keys() - {"atoms"}))
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

    try:
        seed = as_seed(doc.get("seed", 0))
    except ValueError as exc:
        violations.append(str(exc))
        seed = 0

    blocks = {name: doc.get(name, {}) for name in _BLOCKS}
    for name, block in blocks.items():
        if not isinstance(block, dict):
            violations.append(f"'{name}' block must be a JSON object")
    settings = {name: _parse_block(name, block if isinstance(block, dict) else {}, violations)
                for name, block in blocks.items()}

    model = None
    if not violations:
        try:
            model = ModelParams(n=n, v=v, c=c, ell=float(ell), rho=float(rho), disorder=disorder)
        except (ValueError, AnderlocError) as exc:
            violations.append(str(exc))
    if violations:
        raise ConfigError(violations)
    return RunConfig(model=model, seed=seed, **settings)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
