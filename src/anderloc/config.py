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
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

from .errors import AnderlocError, ConfigError
from .lyapunov import EstimatorConfig
from .model import DEFAULT_RHO, DisorderSpec, EnergyInterval, ModelParams, couplings, energy_interval
from .model import count, interaction, positive, radius, real, reals
from .seeding import as_seed
from .spectrum import DEFAULT_BOUNDARY, boundary_name

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
    n_replicas: int = EstimatorConfig.n_replicas
    burn_in: int = EstimatorConfig.burn_in


@dataclass(frozen=True)
class IdsSettings:
    grid: GridSpec = field(default_factory=GridSpec)
    length_cells: int = 50
    h: float | None = None  # default ell / 8, see resolve_h
    n_samples: int = 4
    boundary: str = DEFAULT_BOUNDARY


@dataclass(frozen=True)
class LocalizeSettings:
    window: tuple[float, float] | None = None  # default: middle quarter of the window
    length_cells: int = 200
    h: float | None = None  # default ell / 8, see resolve_h
    boundary: str = DEFAULT_BOUNDARY
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


def _checked(violations: list[str], check: Callable[..., Any], *args: Any) -> Any:
    """``check(*args)``, or None after adding the message of its ``ValueError`` or package error."""
    try:
        return check(*args)
    except (ValueError, AnderlocError) as exc:
        violations.append(str(exc))
        return None


def _parse_grid(block: dict, where: str, violations: list[str]) -> GridSpec:
    """The grid of a block that holds "energies" or "grid"."""
    if "energies" in block and "grid" in block:
        violations.append(f"{where} takes 'energies' or 'grid', not both")
        return GridSpec()
    if "energies" in block:
        energies = _checked(violations, _energies, block["energies"], f"{where}.energies")
        return GridSpec() if energies is None else GridSpec(energies=energies)
    g = block["grid"]
    if not isinstance(g, dict):
        violations.append(f"{where}.grid must carry finite numeric 'lo' and 'hi'")
        return GridSpec()
    violations.extend(f"{where}.grid.{key} is not a known key" for key in sorted(g.keys() - {"lo", "hi", "count"}))
    lo = _checked(violations, real, g.get("lo"), f"{where}.grid.lo")
    hi = _checked(violations, real, g.get("hi"), f"{where}.grid.hi")
    n_points = _checked(violations, count, g.get("count", DEFAULT_GRID_COUNT), f"{where}.grid.count")
    if None in (lo, hi, n_points):
        return GridSpec()
    if lo > hi:
        violations.append(f"{where}.grid needs lo <= hi")
        return GridSpec()
    return GridSpec(lo=lo, hi=hi, count=n_points)


def _energies(val: Any, name: str) -> tuple[float, ...]:
    energies = reals(val, name)
    if energies.ndim != 1 or not energies.size:
        raise ValueError(f"{name} must be a non-empty list of finite numbers")
    return tuple(energies.tolist())


def _window(val: Any, name: str) -> tuple[float, float]:
    window = reals(val, name)
    if window.shape != (2,) or window[0] >= window[1]:
        raise ValueError(f"{name} must be [lo, hi] with finite lo < hi")
    return tuple(window.tolist())


def _atoms(val: Any, name: str) -> DisorderSpec:
    try:
        return DisorderSpec(val)
    except ValueError as exc:
        raise ValueError(f"{name} invalid: {exc}") from None


# Per command block: its settings type and, for each config key, the settings
# field and a check ``(value, name)`` that returns the parsed value or raises
# ValueError with the violation message for ``name``, the dotted key; None
# marks a key accepted without effect.  Blocks whose settings have a ``grid``
# field also take "energies" or "grid".
_BLOCKS: dict[str, tuple[type, dict[str, tuple[str, Callable[[Any, str], Any]] | None]]] = {
    "certify": (CertifySettings, {}),
    "critical": (CriticalSettings, {"grid_step": None, "refine_iters": None}),
    "lyapunov": (LyapunovSettings, {"n_steps": ("n_steps", count), "n_replicas": ("n_replicas", count),
                                    "burn_in": ("burn_in", partial(count, minimum=0))}),
    "ids": (IdsSettings, {"boundary": ("boundary", boundary_name), "L": ("length_cells", count),
                          "h": ("h", positive), "n_samples": ("n_samples", count)}),
    "localize": (LocalizeSettings, {"boundary": ("boundary", boundary_name), "window": ("window", _window),
                                    "L": ("length_cells", count), "h": ("h", positive),
                                    "n_paths": ("n_paths", count), "ref_steps": ("ref_steps", count)}),
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
            values[attr] = _checked(violations, check, block[key], f"{name}.{key}")
    return settings(**values)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Raises ``ConfigError`` carrying every violation found; on success all
    model invariants hold in the returned ``RunConfig``.
    """
    violations: list[str] = []
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # json's decode errors, over-long integers, too deep nesting
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["top-level JSON value must be an object"])
    violations.extend(f"{key} is not a known key" for key in sorted(doc.keys() - _MODEL_KEYS - _BLOCKS.keys()))

    # V's shape and c's length are checked against N only when N itself is valid
    n = _checked(violations, count, doc.get("N"), "N")

    v_raw = doc.get("V")
    if v_raw is None:
        violations.append("V is required (N x N array)")
    elif n is None:
        _checked(violations, reals, v_raw, "V")
    else:
        v = _checked(violations, interaction, v_raw, n)

    c_raw = doc.get("c")
    if c_raw is None:
        violations.append("c is required (length-N array of non-zero couplings)")
    elif n is None:
        _checked(violations, reals, c_raw, "c")
    else:
        c = _checked(violations, couplings, c_raw, n)

    ell = _checked(violations, positive, doc.get("ell"), "ell")
    rho = _checked(violations, radius, doc.get("rho", DEFAULT_RHO))

    disorder = DisorderSpec.bernoulli()
    if "disorder" in doc:
        d_raw = doc["disorder"] if isinstance(doc["disorder"], dict) else {}
        violations.extend(f"disorder.{key} is not a known key" for key in sorted(d_raw.keys() - {"atoms"}))
        disorder = _checked(violations, _atoms, d_raw.get("atoms"), "disorder.atoms")
        if disorder is not None and not disorder.has_binary_support:
            violations.append(
                "disorder.atoms must include both 0 and 1: the model requires "
                "{0, 1} inside the support of the disorder law"
            )

    seed = _checked(violations, as_seed, doc.get("seed", 0))

    blocks = {name: doc.get(name, {}) for name in _BLOCKS}
    for name, block in blocks.items():
        if not isinstance(block, dict):
            violations.append(f"'{name}' block must be a JSON object")
    settings = {name: _parse_block(name, block if isinstance(block, dict) else {}, violations)
                for name, block in blocks.items()}

    if not violations:
        model = _checked(violations, ModelParams, n, v, c, ell, rho, disorder)
    if violations:
        raise ConfigError(violations)
    return RunConfig(model=model, seed=seed, **settings)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
