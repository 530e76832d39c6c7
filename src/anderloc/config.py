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
"critical", "lyapunov", "ids", "localize"), whose keys ``_BLOCKS``
lists; a key left out takes the default of its ``*Settings`` field.
Energy grids ("certify", "lyapunov", "ids") are given either as an
explicit list ``"energies": [...]`` or as ``"grid": {"lo":, "hi":,
"count":}``, not both; a range becomes its ``count`` energies at parse
time, so ``GridSpec`` holds explicit energies or none.  When absent they
default to 21 evenly spaced points across the certified energy window,
from end to end, and ``localize.window`` to its middle quarter.  Both
defaults read ``model.certified_window``, which refuses an empty window,
so they stay lazy: a command that needs neither runs on an empty window.
A grid ``count`` whose energies would outgrow physical memory
(``_GRID_ENERGY_BYTES`` each; for ``lyapunov``, once N is valid,
``_LYAPUNOV_FIELD_BYTES`` per field of its 4 N + 4 field rows when that
is more) is refused through ``model._guard_memory``, naming
``<block>.grid.count``, before any energy is made.  Each command
block, "disorder" and each "grid" must be a JSON object (``_object``):
any other value gives one violation, "'<name>' block must be a JSON
object", and none about its keys; a null "disorder" or block is refused
the same way, and a "disorder" without "atoms" reads "disorder.atoms is
required (list of [value, probability] pairs)".  Unknown keys are
rejected at every level, except ``critical.grid_step`` and
``critical.refine_iters``: they are accepted but have no effect, since
the genericity check that ``critical`` runs needs no energy grid.
Neither ``certify`` nor ``critical`` takes a tolerance: both read the
exact verdict of ``furstenberg.model_closure``, so ``tol`` is an unknown
key there.  ``null`` is rejected wherever a value belongs.  Once the
model is valid, a given ``ids.h`` or ``localize.h`` that spectrum refuses,
one too small for its kinetic term 2 / h^2 to be a finite float
(``_grid_step``) or one that does not divide ``ell`` (``_steps_per_cell``),
is a violation naming the key, so every command refuses it before running;
``RunConfig`` sets a missing one to ell / 8, however it is built, and
only ``ids`` and ``localize``, when they make a restriction, test that
default against ``_grid_step``.

Validation is all-at-once: every violation found is reported, not just
the first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable

import numpy as np

from .errors import AnderlocError, ConfigError, GridError
from .lyapunov import EstimatorConfig
from .model import DEFAULT_RHO, DisorderSpec, EnergyInterval, ModelParams, _guard_memory, certified_window, couplings
from .model import count, interaction, positive, radius, real, reals
from .seeding import as_seed
from .spectrum import DEFAULT_BOUNDARY, _grid_step, _steps_per_cell, boundary_name

__all__ = [
    "RunConfig",
    "parse_config",
    "load_config",
]

DEFAULT_GRID_COUNT = 21
# Bytes per grid energy that a command and its CSV text hold, rounded up from
# the largest measured peak (tracemalloc, 6000 to 10^5 energies, the write
# included): about 340 for certify, 410 for ids.
_GRID_ENERGY_BYTES = 2000
# lyapunov's rows have 4 N + 4 fields.  Per field, its measured peak per grid
# energy (tracemalloc, 30 000 energies, the write included) is 105 B at N = 2
# (1264 B a row), 91 at N = 4 (1817) and 80 at N = 8 (2884); the scan's energy
# chunk adds a constant of about 16 MB (lyapunov._HELD_BYTES).
_LYAPUNOV_FIELD_BYTES = 112


@dataclass(frozen=True)
class GridSpec:
    """Energy grid: explicit points, or ``DEFAULT_GRID_COUNT`` points across the certified window."""

    energies: tuple[float, ...] | None = None

    def resolve(self, params: ModelParams) -> np.ndarray:
        if self.energies is not None:
            return np.asarray(self.energies, dtype=float)
        window = certified_window(params)
        return np.linspace(window.lo, window.hi, DEFAULT_GRID_COUNT)


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
    h: float | None = None  # default ell / 8, set by RunConfig
    n_samples: int = 4
    boundary: str = DEFAULT_BOUNDARY


@dataclass(frozen=True)
class LocalizeSettings:
    window: tuple[float, float] | None = None  # default: middle quarter of the window
    length_cells: int = 200
    h: float | None = None  # default ell / 8, set by RunConfig
    boundary: str = DEFAULT_BOUNDARY
    n_paths: int = 1
    ref_steps: int = 20000  # estimator length for the reference exponent

    def resolve_window(self, params: ModelParams) -> EnergyInterval:
        if self.window is not None:
            return EnergyInterval(*self.window)
        full = certified_window(params)
        half = full.length / 8.0
        return EnergyInterval(full.midpoint - half, full.midpoint + half)


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams
    seed: int
    certify: CertifySettings
    critical: CriticalSettings
    lyapunov: LyapunovSettings
    ids: IdsSettings
    localize: LocalizeSettings

    def __post_init__(self) -> None:
        """Set a missing ``ids.h`` or ``localize.h`` to ell / 8."""
        for name in ("ids", "localize"):
            if getattr(self, name).h is None:
                object.__setattr__(self, name, replace(getattr(self, name), h=self.model.ell / 8.0))


def _checked(violations: list[str], check: Callable[..., Any], *args: Any) -> Any:
    """``check(*args)``, or None after adding the message of its ``ValueError`` or package error."""
    try:
        return check(*args)
    except (ValueError, AnderlocError) as exc:
        violations.append(str(exc))
        return None


def _object(violations: list[str], value: Any, where: str, keys: set[str]) -> dict | None:
    """``value`` when it is a JSON object, after adding a violation for each key outside ``keys``; else None.

    ``where`` is the dotted name of the object, empty for the document; a
    value that is not an object adds "'<where>' block must be a JSON object".
    """
    if not isinstance(value, dict):
        violations.append(f"'{where}' block must be a JSON object")
        return None
    dotted = f"{where}." if where else ""
    violations.extend(f"{dotted}{key} is not a known key" for key in sorted(value.keys() - keys))
    return value


def _parse_grid(block: dict, where: str, violations: list[str], energy_bytes: int) -> GridSpec:
    """The grid of a block that holds "energies" or "grid"; a count costs ``energy_bytes`` per energy."""
    if "energies" in block and "grid" in block:
        violations.append(f"{where} takes 'energies' or 'grid', not both")
        return GridSpec()
    if "energies" in block:
        energies = _checked(violations, _energies, block["energies"], f"{where}.energies")
        return GridSpec() if energies is None else GridSpec(energies=energies)
    g = _object(violations, block["grid"], f"{where}.grid", {"lo", "hi", "count"})
    if g is None:
        return GridSpec()
    lo = _checked(violations, real, g.get("lo"), f"{where}.grid.lo")
    hi = _checked(violations, real, g.get("hi"), f"{where}.grid.hi")
    n_points = _checked(violations, _grid_count, g.get("count", DEFAULT_GRID_COUNT), f"{where}.grid.count",
                        energy_bytes)
    if None in (lo, hi, n_points):
        return GridSpec()
    if lo > hi:
        violations.append(f"{where}.grid needs lo <= hi")
        return GridSpec()
    return GridSpec(energies=tuple(np.linspace(lo, hi, n_points).tolist()))


def _grid_count(val: Any, name: str, energy_bytes: int) -> int:
    """A grid count by the count rule, refused by ``model._guard_memory`` when its energies outgrow memory."""
    n_points = count(val, name)
    _guard_memory(energy_bytes * n_points, f"{name} = {n_points}", f"decrease {name}")
    return n_points


def _grid_energy_bytes(name: str, n: int | None) -> int:
    """Bytes per grid energy of the command block ``name``; lyapunov's grow with N once N is valid."""
    if name == "lyapunov" and n is not None:
        return max(_GRID_ENERGY_BYTES, _LYAPUNOV_FIELD_BYTES * (4 * n + 4))
    return _GRID_ENERGY_BYTES


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


def _usable_step(params: ModelParams, h: float, name: str) -> None:
    """Refuse a grid step that spectrum's ``_grid_step`` or ``_steps_per_cell`` refuses, naming the key."""
    try:
        _steps_per_cell(params, _grid_step(h))
    except GridError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _atoms(val: Any, name: str) -> DisorderSpec:
    if val is None:
        raise ValueError(f"{name} is required (list of [value, probability] pairs)")
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


def _parse_block(name: str, block: Any, violations: list[str], n: int | None) -> Any:
    """Settings of one command block; every key left out keeps its dataclass default.

    ``n`` is the channel count, or None when it is not valid.
    """
    settings, table = _BLOCKS[name]
    known = _block_keys(name)
    block = _object(violations, block, name, known) or {}
    values = {}
    if known & block.keys() & _GRID_KEYS:
        values["grid"] = _parse_grid(block, name, violations, _grid_energy_bytes(name, n))
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
    _object(violations, doc, "", _MODEL_KEYS | _BLOCKS.keys())

    # V's shape and c's length are checked against N only when N itself is valid
    n = _checked(violations, count, doc.get("N"), "N")
    arrays = {}
    for key, rule, form in (("V", interaction, "N x N array"),
                            ("c", couplings, "length-N array of non-zero couplings")):
        if doc.get(key) is None:
            violations.append(f"{key} is required ({form})")
        elif n is None:
            _checked(violations, reals, doc[key], key)
        else:
            arrays[key] = _checked(violations, rule, doc[key], n)

    ell = _checked(violations, positive, doc.get("ell"), "ell")
    rho = _checked(violations, radius, doc.get("rho", DEFAULT_RHO))

    disorder = DisorderSpec.bernoulli()
    if "disorder" in doc:
        law = _object(violations, doc["disorder"], "disorder", {"atoms"})
        disorder = None if law is None else _checked(violations, _atoms, law.get("atoms"), "disorder.atoms")
        if disorder is not None and not disorder.has_binary_support:
            violations.append(
                "disorder.atoms must include both 0 and 1: the model requires "
                "{0, 1} inside the support of the disorder law"
            )

    seed = _checked(violations, as_seed, doc.get("seed", 0))
    settings = {name: _parse_block(name, doc.get(name, {}), violations, n) for name in _BLOCKS}

    if not violations:
        model = _checked(violations, ModelParams, n, arrays["V"], arrays["c"], ell, rho, disorder)
    if not violations:
        for name in ("ids", "localize"):
            # a given step only: the default ell / 8 divides ell, and only ids and localize need its 2/h^2 finite
            if settings[name].h is not None:
                _checked(violations, _usable_step, model, settings[name].h, f"{name}.h")
    if violations:
        raise ConfigError(violations)
    return RunConfig(model=model, seed=seed, **settings)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
