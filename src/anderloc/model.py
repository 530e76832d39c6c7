"""The random operator family and its per-cell objects.

The model is a quasi one-dimensional Schroedinger operator acting on
vector-valued functions of one real variable: N coupled channels with a
fixed symmetric interaction matrix V and, on each cell [l n, l (n+1)) of
length ``ell``, an i.i.d. random diagonal potential diag(c_i omega_i).
At energy E the Cauchy data (u, u') propagates across one cell by the
transfer matrix

    T = exp(ell * X),    X = [[0, I], [M, 0]],    M = V + diag(c omega) - E I,

which is symplectic because X is Hamiltonian.  This module provides M, X,
T, the spectral constants (lambda_min, lambda_max, delta, ell_C), and the
certified energy window derived from them.  The two bounds are read off
the two extreme binary cells, omega = [c < 0] and omega = [c > 0], so no
caller lists the 2^N cells (``binary_cells`` does, for library and test
use, up to N = 20).  Every decision about that
window is made here: ``energy_interval`` is its one formula, which the
density certificates read, and ``certified_window`` is the one refusal
of an empty window where a command needs energies inside it.  A disorder
path becomes transfer matrices here too: ``path_table`` finds the path's
distinct cells with one row sort (``_distinct_rows``, which codes the
Lyapunov recursion's atom indices by radix instead when their codes fit
in their count), transfers each once and indexes every cell into that
table.  Only kappa = mu - E depends on the energy, so it
remembers one path, the last float64 array it coded, with its read-only
index and its cells' eigendecomposition (``_coded_path``); at each further
energy on it only the closed form (``_transfers``) runs.  Every number the
module takes, paths included, passes one rule: ``real`` for a scalar,
``reals`` for an array, except a remembered path's bytes when they come
again, which passed it before.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InstabilityError, ScanRangeError, SizeGuardError
from .linalg import as_symmetric, is_symplectic

__all__ = [
    "DEFAULT_RHO",
    "DisorderSpec",
    "ModelParams",
    "SpectralBounds",
    "EnergyInterval",
    "cell_matrix",
    "generator",
    "transfer",
    "transfer_table",
    "path_table",
    "generator_norm",
    "spectral_bounds",
    "energy_interval",
    "certified_window",
    "sample_cell",
    "sample_indices",
    "sample_path",
    "binary_cells",
]

# Largest radius for which the principal matrix logarithm of exp(ell*X) is
# guaranteed to be defined and equal to ell*X when ell*||X|| stays below it.
DEFAULT_RHO = math.log(2.0)

_BINARY_GUARD = 20

_GROWTH_ADVICE = (
    "the per-cell growth exceeds double precision; decrease ell, "
    "or move E closer to [lambda_min, lambda_max]"
)

# (key, coded) of the last float64 ndarray path that ``_coded_path`` coded; one assignment replaces it whole
_remembered: tuple | None = None


@dataclass(frozen=True)
class DisorderSpec:
    """Finite discrete law for the per-channel disorder variables.

    ``atoms`` is a tuple of (value, probability) pairs; any nested
    sequence or (k, 2) array of them whose entries pass ``reals`` is read
    into that form.  Degenerate single-atom laws are allowed at the library
    level (they are what the deterministic closed-form tests use); the
    configuration parser is the place that insists on {0, 1} being in the
    support.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        table = reals(self.atoms, "disorder atom")
        if table.ndim != 2 or table.shape[1] != 2 or not len(table):
            raise ValueError("disorder law needs a non-empty list of (value, probability) pairs")
        atoms = tuple(map(tuple, table.tolist()))
        values = [v for v, _ in atoms]
        probs = [p for _, p in atoms]
        if len(set(values)) != len(values):
            raise ValueError("disorder atoms must have distinct values")
        if any(p <= 0 for p in probs):
            raise ValueError("disorder probabilities must be positive")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("disorder probabilities must sum to 1")
        object.__setattr__(self, "atoms", atoms)

    @property
    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.atoms])

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.atoms])

    @property
    def has_binary_support(self) -> bool:
        vals = {v for v, _ in self.atoms}
        return 0.0 in vals and 1.0 in vals

    @classmethod
    def bernoulli(cls, p: float = 0.5) -> "DisorderSpec":
        return cls(((0.0, 1.0 - p), (1.0, p)))

    @classmethod
    def point(cls, value: float) -> "DisorderSpec":
        """Degenerate law concentrated on one value."""
        return cls(((value, 1.0),))


@dataclass(frozen=True)
class ModelParams:
    """Immutable description of one operator family.

    ``v`` is the N x N symmetric interaction, ``c`` the per-channel
    coupling constants (all non-zero), ``ell`` the cell length and ``rho``
    the radius of the ball certified to lie inside the log of the density
    criterion's identity neighborhood.  ``rho`` defaults to log 2, the
    computable radius on which log(exp(ell X)) = ell X is guaranteed; it
    is configuration so users can tighten it.  An ``ell`` so small that
    2 rho / ell, which bounds the width of the certified window that the
    default energy grids span, is not a finite float raises ``ValueError``
    naming ell.
    """

    n: int
    v: np.ndarray
    c: np.ndarray
    ell: float
    rho: float = DEFAULT_RHO
    disorder: DisorderSpec = field(default_factory=DisorderSpec.bernoulli)

    def __post_init__(self):
        object.__setattr__(self, "n", count(self.n, "n"))
        v = interaction(self.v, self.n)
        c = couplings(self.c, self.n)
        object.__setattr__(self, "ell", positive(self.ell, "ell"))
        object.__setattr__(self, "rho", radius(self.rho))
        if not math.isfinite(2.0 * self.rho / self.ell):
            raise ValueError(f"ell = {self.ell!r} is too small: the certified window's width bound 2 rho / ell "
                             f"overflows (rho = {self.rho:.12g})")
        if not isinstance(self.disorder, DisorderSpec):
            raise ValueError(f"disorder must be a DisorderSpec, got {self.disorder!r}")
        v.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "c", c)


def interaction(v: object, n: int) -> np.ndarray:
    """The interaction V as a symmetric float n x n matrix.

    Its entries pass ``reals``, its shape must be (n, n), and ``as_symmetric``
    then accepts and symmetrizes it.  Raises ``ValueError`` for a bad entry
    and ``DimensionError`` for a wrong shape or an asymmetric V; each
    message names V.
    """
    v = reals(v, "V")
    if v.shape != (n, n):
        raise DimensionError(f"V must be {n}x{n}, got shape {list(v.shape)}")
    try:
        return as_symmetric(v)
    except DimensionError as exc:
        raise DimensionError(f"V: {exc}") from None


def couplings(c: object, n: int) -> np.ndarray:
    """The coupling constants as a float vector of length n, each finite and non-zero.

    Raises ``DimensionError`` for a wrong length and ``ValueError`` naming
    the first bad entry otherwise.
    """
    c = reals(c, "c")
    if c.shape != (n,):
        raise DimensionError(f"c must have length {n}, got shape {c.shape}")
    bad = np.flatnonzero(c == 0.0)
    if bad.size:
        raise ValueError(f"c[{bad[0]}] is {c[bad[0]]:g}; the model requires finite non-zero coupling constants")
    return c


def _is_real(value: object) -> bool:
    """The number rule: a finite real number, not a bool; numpy integers and floats pass."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def real(value: object, name: str) -> float:
    """``value`` as a float when it passes the number rule; else ``ValueError`` naming ``name`` and the value."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def reals(values: object, name: str) -> np.ndarray:
    """``values`` as a float array when every entry passes the number rule; else ``ValueError`` naming the entry.

    Bools, strings, None and complex numbers are rejected, as lists and as
    numpy arrays alike; so is ragged nesting, whose rows become the entries.
    A float or integer array is converted at once and passes when
    ``np.isfinite`` holds everywhere; otherwise the entry walk names the bad
    entry.  The result is a copy either way.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        out = values.astype(float)
        if np.isfinite(out).all():
            return out
    entries = np.asarray(values, dtype=object)
    for entry in entries.flat:
        if not _is_real(entry):
            raise ValueError(f"{name} entries must be finite real numbers, got {entry!r}")
    return entries.astype(float)


def count(value: object, name: str, minimum: int = 1) -> int:
    """``value`` as an int >= ``minimum``; else ``ValueError`` naming ``name`` and the value.

    Python and numpy integers pass; bools and floats, even integral ones, do not.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _guard_memory(need: int, what: str, advice: str, detail: str = "") -> None:
    """Refuse an estimate of ``need`` bytes above physical memory, the ceiling of every size guard.

    Raises ``SizeGuardError`` reading "<what> needs about <need> GB<detail>,
    more than the <memory> GB of physical memory; <advice>".
    """
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise SizeGuardError(f"{what} needs about {need / 1e9:.3g} GB{detail}, more than the {have / 1e9:.3g} GB "
                             f"of physical memory; {advice}")


def positive(value: object, name: str) -> float:
    """``value`` as a float when it passes the number rule and exceeds 0; else ``ValueError`` naming ``name``."""
    if not (_is_real(value) and float(value) > 0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def radius(value: object) -> float:
    """The density criterion's radius ``rho`` as a float in (0, 1] that passes the number rule; else ``ValueError``."""
    if not (_is_real(value) and 0 < value <= 1):
        raise ValueError(f"rho must lie in (0, 1], got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SpectralBounds:
    """Extreme eigenvalues over the binary disorder family and derived constants.

    ``lambda_min`` and ``lambda_max`` are the smallest and largest
    eigenvalues of V + diag(c omega) over omega in {0, 1}^N; ``delta`` is
    half their gap and ``ell_c`` the critical cell length (see
    ``spectral_bounds``).
    """

    lambda_min: float
    lambda_max: float
    delta: float
    ell_c: float


@dataclass(frozen=True)
class EnergyInterval:
    """Closed interval [lo, hi]; lo > hi encodes the empty interval.

    ``length`` reads 0 for the empty interval; ``midpoint`` is NaN there.
    """

    lo: float
    hi: float

    @classmethod
    def empty(cls) -> "EnergyInterval":
        return cls(math.inf, -math.inf)

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    @property
    def length(self) -> float:
        return 0.0 if self.is_empty else self.hi - self.lo

    @property
    def midpoint(self) -> float:
        """(lo + hi) / 2, halved before the sum so that it stays finite wherever lo and hi are."""
        return 0.5 * self.lo + 0.5 * self.hi

    def contains(self, energy: float) -> bool:
        return not self.is_empty and self.lo <= energy <= self.hi


def cell_matrix(params: ModelParams, omega: np.ndarray, energy: float) -> np.ndarray:
    """Symmetric channel matrix V + diag(c_i omega_i) - E I of a cell, or of each cell of a stack (..., N)."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if omega.shape[-1] != params.n:
        raise DimensionError(f"cell configuration must have length {params.n}")
    eye = np.eye(params.n)
    return params.v + (params.c * omega)[..., None] * eye - energy * eye


def generator(params: ModelParams, omega: np.ndarray, energy: float) -> np.ndarray:
    """Hamiltonian generator [[0, I], [M, 0]] of the cell's transfer matrix; ``energy`` passes ``real``."""
    n = params.n
    energy = real(energy, "energy")
    x = np.zeros((2 * n, 2 * n))
    x[:n, n:] = np.eye(n)
    x[n:, :n] = cell_matrix(params, omega, energy)
    return x


def transfer(params: ModelParams, omega: np.ndarray, energy: float) -> np.ndarray:
    """Transfer matrix exp(ell * X) across one disorder cell."""
    return transfer_table(params, np.atleast_2d(omega), energy)[0]


def transfer_table(params: ModelParams, configs: np.ndarray, energy: float) -> np.ndarray:
    """Transfer matrices exp(ell * X) for each cell configuration (rows of ``configs``).

    Closed form: with U diag(mu) t(U) the eigendecomposition of the cell
    matrix at energy zero and kappa = mu - E, X^2 = diag(M, M) gives

        T = [[U C t(U), U S t(U)], [U kappa S t(U), U C t(U)]],

    where, channel by channel with x = ell sqrt|kappa|, C is cosh x or
    cos x and S is ell sinh(x)/x or ell sin(x)/x as kappa is positive or
    not.  Returns shape (K, 2N, 2N) for K rows.  The eigendecomposition is
    the only step that does not depend on E; ``_transfers`` takes it from
    there.

    Raises
    ------
    ValueError
        If ``energy`` fails the number rule of ``real``.
    InstabilityError
        If a matrix overflows or fails the symplecticity check.
    """
    mu, u = np.linalg.eigh(cell_matrix(params, configs, 0.0))
    return _transfers(params, mu, u, energy)


def _transfers(params: ModelParams, mu: np.ndarray, u: np.ndarray, energy: float) -> np.ndarray:
    """``transfer_table`` from the cells' eigendecomposition U diag(mu) t(U) at energy zero; same errors."""
    n = params.n
    energy = real(energy, "energy")
    kappa = mu - energy
    x = params.ell * np.sqrt(np.abs(kappa))
    grow = kappa > 0
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.where(grow, np.cosh(x), np.cos(x))
        x_safe = np.where(x == 0, 1.0, x)
        s = params.ell * np.where(x == 0, 1.0, np.where(grow, np.sinh(x), np.sin(x)) / x_safe)
        ut = np.swapaxes(u, 1, 2)
        t = np.empty((len(mu), 2 * n, 2 * n))
        t[:, :n, :n] = t[:, n:, n:] = (u * c[:, None, :]) @ ut
        t[:, :n, n:] = (u * s[:, None, :]) @ ut
        t[:, n:, :n] = (u * (kappa * s)[:, None, :]) @ ut
    if not (np.all(np.isfinite(t)) and is_symplectic(t, 1e-12 * np.linalg.norm(t, axis=(1, 2)) ** 2)):
        raise InstabilityError(f"transfer matrix at E={energy:g} is not finite or not symplectic: {_GROWTH_ADVICE}")
    return t


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a (..., N) stack, and each row's place among them: ``distinct[index]`` is ``rows``.

    ``distinct`` holds the rows in lexicographic order, first column most
    significant, and ``index`` (shape ``rows.shape[:-1]``, the smallest
    unsigned dtype that holds it) numbers each row by its place there.  Rows
    of an unsigned integer dtype whose code space (max + 1)^N is no larger
    than their count, as the Lyapunov recursion's atom indices, are coded
    by radix: each row's base-(max + 1) code, first column most
    significant, and a presence mask over the code space with its running
    count give ``distinct`` and ``index`` without a sort.  Every other
    stack, float paths among them, takes one stable lexicographic sort that
    puts equal rows side by side; there rows are compared by value, so -0.0
    and 0.0 are one value and the first row of a run in stack order is the
    one kept.  Neither way forms a code that could overflow, so any N and
    any number of distinct values work.
    """
    flat = rows.reshape(-1, rows.shape[-1])
    base = int(flat.max()) + 1 if flat.dtype.kind == "u" and flat.size else 0
    space = base ** flat.shape[1]
    if base and space <= len(flat):
        code = flat[:, 0].astype(np.min_scalar_type(space - 1))
        for column in flat.T[1:]:
            code *= base
            code += column
        present = np.zeros(space, dtype=bool)
        present[code] = True
        distinct = np.stack(np.unravel_index(np.flatnonzero(present), (base,) * flat.shape[1]), axis=-1)
        runs = np.cumsum(present) - 1
        index = runs.astype(np.min_scalar_type(runs[-1]))[code]
        return distinct.astype(flat.dtype), index.reshape(rows.shape[:-1])
    order = np.lexsort(flat.T[::-1])
    flat = flat[order]
    new = np.ones(len(flat), dtype=bool)
    new[1:] = np.any(flat[1:] != flat[:-1], axis=1)
    runs = np.cumsum(new) - 1
    index = np.empty(len(flat), dtype=np.min_scalar_type(runs[-1] if len(runs) else 0))
    index[order] = runs
    return flat[new], index.reshape(rows.shape[:-1])


def _coded_path(params: ModelParams, path: object) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What ``path_table`` needs of a path at every energy: its index, and mu and U of its distinct cells.

    ``_distinct_rows`` finds the path's distinct cells with one row sort,
    and U diag(mu) t(U) is the eigendecomposition of their cell matrices
    at energy zero, which ``_transfers`` turns into the table at any
    energy.  The three arrays are read-only.  The last float64 ndarray
    path is remembered, keyed by its shape and bytes and by n and the
    bytes of V and c (not ell: mu and U do not depend on it), so a run of
    calls on one path codes it once.  On a hit the number rule is skipped:
    identical bytes passed it before, and a path that fails it is never
    remembered.  Any other path (a list, an integer array) is coded at
    every call and not remembered.
    """
    global _remembered
    key = None
    if type(path) is np.ndarray and path.dtype == np.float64:
        key = (path.shape, path.tobytes(), params.n, params.v.tobytes(), params.c.tobytes())
        entry = _remembered  # read once: another thread may replace it
        if entry is not None and entry[0] == key:
            return entry[1]
    cells, index = _distinct_rows(np.atleast_2d(reals(path, "path")))
    mu, u = np.linalg.eigh(cell_matrix(params, cells, 0.0))
    coded = (index, mu, u)
    for array in coded:
        array.setflags(write=False)
    if key is not None:
        _remembered = (key, coded)
    return coded


def path_table(params: ModelParams, path: object, energy: float) -> tuple[np.ndarray, np.ndarray]:
    """Transfer matrices of a path's distinct cells, and each cell's row of the table: ``table[index]``.

    ``path`` is a (..., N) stack of cell configurations whose entries pass
    ``reals``.  ``_distinct_rows`` finds its distinct cells with one row
    sort; the table transfers each of them once, in that order, and
    ``index`` (read-only) has shape ``path.shape[:-1]``.  The coding and
    the cells' eigendecomposition are remembered for the last float64
    array path (``_coded_path``; the number rule is skipped when its bytes
    come again), so only ``_transfers`` runs at each further energy.
    """
    index, mu, u = _coded_path(params, path)
    return _transfers(params, mu, u, energy), index


def generator_norm(params: ModelParams, omega: np.ndarray, energy: float) -> float:
    """Induced 2-norm of the generator via its closed form.

    The eigenvalues of t(X) X are 1 and (lambda_i - E)^2 where lambda_i
    are the eigenvalues of the cell matrix at energy zero, so the norm is
    max(1, max_i |lambda_i - E|).  ``energy`` passes ``real``.
    """
    energy = real(energy, "energy")
    spectrum = np.linalg.eigvalsh(cell_matrix(params, omega, 0.0))
    return float(np.maximum(1.0, np.max(np.abs(spectrum - energy))))


def spectral_bounds(params: ModelParams) -> SpectralBounds:
    """Eigenvalue extremes over all binary cells, read off the two extreme cells, and the critical cell length.

    Setting omega_i = 1 adds c_i e_i t(e_i) to the cell matrix, which moves
    every eigenvalue in the direction of sign(c_i) (Weyl's monotonicity
    theorem).  So lambda_min is the smallest eigenvalue of the cell
    omega = [c < 0] and lambda_max the largest of omega = [c > 0]: two
    N x N eigensolves for any N, with no list of the 2^N cells.
    ``ell_c = min(1, rho / delta)`` with the convention ell_c = 1 when
    delta = 0 (all binary cells sharing one eigenvalue set).
    """
    low, high = np.linalg.eigvalsh(cell_matrix(params, np.array([params.c < 0, params.c > 0]), 0.0))
    lo, hi = float(low[0]), float(high[-1])
    delta = 0.5 * (hi - lo)
    ell_c = 1.0 if delta == 0.0 else min(1.0, params.rho / delta)
    return SpectralBounds(lo, hi, delta, ell_c)


def energy_interval(params: ModelParams) -> EnergyInterval:
    """Certified energy window [lambda_max - rho/ell, lambda_min + rho/ell].

    Nonempty exactly when ell < ell_c; its length 2(rho/ell - delta) grows
    without bound as ell tends to 0.  The one formula of the window: the
    density certificates test their energies against these two floats.
    An empty window is returned, not refused (``certified_window`` refuses).
    """
    bounds = spectral_bounds(params)
    if params.ell >= bounds.ell_c:
        return EnergyInterval.empty()
    r = params.rho / params.ell
    return EnergyInterval(bounds.lambda_max - r, bounds.lambda_min + r)


def certified_window(params: ModelParams) -> EnergyInterval:
    """``energy_interval``, refused when empty: the default energies of every command lie in it.

    Raises ``ScanRangeError`` (exit 2 in the CLI) naming ell and ell_C.
    """
    window = energy_interval(params)
    if window.is_empty:
        raise ScanRangeError(
            f"certified energy window is empty (ell = {params.ell:.12g} >= ell_C = "
            f"{spectral_bounds(params).ell_c:.12g}); decrease ell, or give explicit "
            "energies or localize.window"
        )
    return window


def sample_cell(params: ModelParams, rng: np.random.Generator) -> np.ndarray:
    """One cell configuration: N independent draws from the disorder law."""
    return sample_path(params, 1, rng)[0]


def sample_indices(params: ModelParams, n_cells: int, rng: np.random.Generator) -> np.ndarray:
    """Atom indices of ``n_cells`` independent cell configurations, shape (n_cells, N).

    One ``rng.random`` draw u per entry; its index counts the edges of the
    normalised cumulative law (all but the last) that u reaches, one
    comparison per atom.  That is how ``rng.choice(n_atoms, size, p=p)``
    maps the same draw (numpy's ``searchsorted``, side "right"), so the
    indices and the stream's state after the draw are the same as its.  The
    indices come in the smallest unsigned dtype that holds them (``uint8``
    up to 256 atoms).
    """
    n_atoms = len(params.disorder.atoms)
    cdf = params.disorder.probabilities.cumsum()
    cdf /= cdf[-1]
    u = rng.random((n_cells, params.n))
    idx = np.zeros(u.shape, dtype=np.min_scalar_type(n_atoms - 1))
    for edge in cdf[:-1]:
        idx += u >= edge
    return idx


def sample_path(params: ModelParams, n_cells: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of ``n_cells`` independent cell configurations, shape (n_cells, N): the atoms of ``sample_indices``."""
    return params.disorder.values[sample_indices(params, n_cells, rng)]


def binary_cells(n: int) -> np.ndarray:
    """All 2^n cell configurations over {0, 1}, lexicographic, shape (2^n, n)."""
    if count(n, "n") > _BINARY_GUARD:
        raise SizeGuardError(f"2^{n} binary cells exceed the guard (n <= {_BINARY_GUARD})")
    return np.array(list(itertools.product((0.0, 1.0), repeat=n)))
