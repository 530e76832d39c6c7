"""Finite-volume restrictions: eigenvalue counting, IDS, decay diagnostics.

The operator is restricted to [-ell*L, ell*L] with Dirichlet or Neumann
boundary conditions and discretized by second-order central differences
on a grid of step h dividing ell, the piecewise-constant potential taking
cell n's value on [ell*n, ell*(n+1)).  Grid points are ordered point-major
(the N channels of one point are contiguous), which gives a symmetric
banded matrix of half-bandwidth N.

Eigenvalues below E are counted exactly through the inertia of the
shifted matrix (negative pivots of an LDL^t factorization, Sylvester's
law).  One column-by-column pass over a rolling window of the band does
the counting: a few energies (fewer than ``_SCALAR_SHIFTS``) one at a time
on Python floats, a few ms each at order 2558, and more together as float
arrays over the energies, which costs about 3 to 5 float passes at N = 1-2
and 5 to 8 at N = 3-6 for up to a few hundred energies.  Both regimes run
the same statements, so they give the same pivots bit for bit.  The
integrated density of states is the disorder average of that count over
2*ell*L, a mean over independent paths with the standard error of
``seeding._mean_stderr`` (0 for a single path).  A shooting oracle built
from exact transfer-matrix products provides an independent count for
cross-checks, and a
cell-resolved mass profile of eigenvectors yields exponential-decay
fits for the localization diagnostic.  Those eigenpairs never form the
solver's dense order x order Q: the eigenvalues in the window come from
LAPACK dsbevx without vectors, their number is audited against the
inertia counts at both window ends, and each eigenvector comes from a few
steps of inverse iteration with banded solves, so a decay solve holds
O(order * bandwidth) numbers.  Those LAPACK routines (dsbevx, dgbsv,
dgtsv) are called straight from scipy's extension module ``_flapack``,
which ``_lapack`` loads from its file the first time a decay solve runs,
without running any code of the scipy package: no command puts ``scipy``
or a ``scipy.*`` module in ``sys.modules``, and only ``localize`` (alone
or inside ``report``) loads the extension.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FactorizationError, GridError, InstabilityError, ScanRangeError
from .model import (EnergyInterval, ModelParams, _guard_memory, cell_matrix, count, path_table, positive, real,
                    reals, sample_path)
from .seeding import _mean_stderr, as_seed, derive_seed, stream

__all__ = [
    "FiniteRestriction",
    "BandedSymmetric",
    "IDSCurve",
    "DecayReport",
    "sample_restriction",
    "discretize",
    "count_below",
    "boundary_block",
    "estimate_ids",
    "eigen_decay",
]

BOUNDARIES = ("dirichlet", "neumann")
DEFAULT_BOUNDARY = "dirichlet"

_OVERFLOW_ENTRY = 1e300
_MASS_FLOOR = 1e-24
# _inertia counts many shifts in chunks of _BAND_BYTES // (8 * ab.size): a chunk's pivots then take at most
# _BAND_BYTES / (N + 1), and the rolling window holds about (N + 1)^2 arrays of the chunk's length.
_BAND_BYTES = 8 * 2**20
# _inertia counts fewer shifts than this one at a time on Python floats, more as arrays.  Best of 5, two
# runs on a 2-vCPU sandbox at orders 1598 and 2558: one array pass of 4 to 8 shifts (5-62 ms) cost 2.6 to
# 5.1 float passes (2-8 ms each) at bandwidths 1 and 2, 4.7 to 5.9 at 3, and 5.4 to 7.7 at 4 and 6.
_SCALAR_SHIFTS = 4
_NUDGES = (0, 1, -1, 2, -2, 3, -3)  # a shift that meets a zero pivot is retried moved by these multiples of 1e-12 * scale
_INVERSE_STEPS = 3
_CLUSTER_GAP = 1e-7  # eigenvalues closer than this times the scale are re-orthogonalised against each other
_RESIDUAL_LIMIT = 1e-10  # largest accepted |(A - lambda I) x| / scale of a unit eigenvector; measured about 5e-15


def boundary_name(value: object, name: str) -> str:
    """``value`` when it is one of ``BOUNDARIES``; else ``ValueError`` naming ``name`` and the value."""
    if value not in BOUNDARIES:
        raise ValueError(f"{name} must be " + " or ".join(f"'{b}'" for b in BOUNDARIES) + f", got {value!r}")
    return value


@dataclass(frozen=True)
class FiniteRestriction:
    """Restriction to [-ell*L, ell*L]: L cells on each side plus one disorder path.

    ``omega_path`` has shape (2L, N); row k holds the configuration of
    cell k - L.  The grid step h must divide ell so cell boundaries land
    on grid points (checked against the model at discretization time).
    """

    length_cells: int
    boundary: str
    h: float
    omega_path: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "length_cells", count(self.length_cells, "length_cells"))
        boundary_name(self.boundary, "boundary")
        object.__setattr__(self, "h", _grid_step(self.h))
        path = np.atleast_2d(reals(self.omega_path, "omega_path"))
        if path.shape[0] != 2 * self.length_cells:
            raise ValueError(f"omega_path must have 2L = {2 * self.length_cells} rows")
        path.setflags(write=False)
        object.__setattr__(self, "omega_path", path)


@dataclass(frozen=True)
class BandedSymmetric:
    """Symmetric banded matrix in lower band storage: ab[r, j] = A[j+r, j].

    ``ab`` is read through ``reals``, so a NaN or infinite entry raises
    ``ValueError`` here rather than a pivot breakdown in ``count_below``;
    ``order`` (at least 1) and ``bandwidth`` (at least 0) are read through
    ``count``.
    """

    ab: np.ndarray
    order: int
    bandwidth: int

    def __post_init__(self):
        object.__setattr__(self, "ab", reals(self.ab, "ab"))
        object.__setattr__(self, "order", count(self.order, "order"))
        object.__setattr__(self, "bandwidth", count(self.bandwidth, "bandwidth", minimum=0))
        if self.ab.shape != (self.bandwidth + 1, self.order):
            raise DimensionError(f"band storage of order {self.order} and bandwidth {self.bandwidth} must have "
                                 f"shape ({self.bandwidth + 1}, {self.order}), got {self.ab.shape}")

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.order, self.order))
        for r in range(self.bandwidth + 1):
            idx = np.arange(self.order - r)
            a[idx + r, idx] = self.ab[r, : self.order - r]
            a[idx, idx + r] = self.ab[r, : self.order - r]
        return a

    @property
    def scale(self) -> float:
        """max(1, largest entry magnitude): the unit of the shift nudges and residuals."""
        return max(float(np.max(np.abs(self.ab))), 1.0)


@dataclass
class IDSCurve:
    """Sampled eigenvalue-counting function per unit length, nondecreasing in E.

    ``values`` and ``stderrs`` are the mean over disorder paths at each of
    the sorted ``energies`` and its standard error; the restriction's
    settings stay with the caller.
    """

    energies: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray


@dataclass
class DecayReport:
    """Exponential-decay fit of one eigenfunction's cell-mass profile.

    ``fitted_rate`` is the amplitude decay rate per unit length (half the
    mass rate); ``gamma_ref`` echoes the caller's reference exponent when
    one was supplied.
    """

    eigenvalue: float
    fitted_rate: float
    fit_residual: float
    localization_center: float
    gamma_ref: float | None = None


def sample_restriction(
    params: ModelParams,
    length_cells: int,
    h: float,
    boundary: str,
    rng: np.random.Generator,
) -> FiniteRestriction:
    """Draw one disorder path and wrap it as a finite restriction; the arguments and ``_guard_size`` come first."""
    length_cells, h = count(length_cells, "length_cells"), _grid_step(h)
    boundary_name(boundary, "boundary")
    _guard_size(params, length_cells, h, boundary)
    return FiniteRestriction(length_cells, boundary, h, sample_path(params, 2 * length_cells, rng))


def _grid_step(h: object) -> float:
    """``h`` as a float when it is positive and the kinetic term 2 / h^2 is a finite float; else ``GridError``.

    h * h is tested before it divides, so a step whose square underflows to
    0 (below about 1.5e-162) is refused like one whose 2 / h^2 overflows
    (below about 1.06e-154).
    """
    try:
        h = positive(h, "h")
    except ValueError as exc:
        raise GridError(f"grid step {exc}") from None
    if not (h * h > 0.0 and math.isfinite(2.0 / (h * h))):
        raise GridError(f"grid step h = {h!r} is too small: the kinetic term 2/h^2 is not a finite float")
    return h


def _steps_per_cell(params: ModelParams, h: float) -> int:
    m = round(params.ell / h)
    if m < 1 or abs(m * h - params.ell) > 1e-9 * params.ell:
        raise GridError(f"grid step h = {h} does not divide the cell length ell = {params.ell}")
    return m


def _grid_points(params: ModelParams, length_cells: int, h: float, boundary: str) -> range:
    """Steps k from the left edge to each kept grid point: Dirichlet drops both ends, Neumann keeps them."""
    steps = 2 * length_cells * _steps_per_cell(params, h)
    return range(1, steps) if boundary == "dirichlet" else range(steps + 1)


def _guard_size(params: ModelParams, length_cells: int, h: float, boundary: str) -> None:
    """Refuse, before anything is allocated, a restriction whose largest consumer would not fit in memory.

    The order is counted as ``_grid_points`` counts it, in O(1) at any size.
    The estimate, 8 * order * (6 (N + 1) + 16) bytes, is the measured peak of
    the decay solve (tracemalloc, N = 1-4: under 6 band copies plus 16
    vectors of order floats), which bounds the inertia counts of ``ids`` as
    well.  ``model._guard_memory`` raises ``SizeGuardError`` naming L, h, the
    estimate, the order and the physical memory.
    """
    order = params.n * len(_grid_points(params, length_cells, h, boundary))
    _guard_memory(8 * order * (6 * (params.n + 1) + 16), f"the finite restriction at L = {length_cells}, h = {h:g}",
                  "decrease L or increase h", f" (matrix order {order})")


def _point_cells(params: ModelParams, restriction: FiniteRestriction) -> np.ndarray:
    """Cell of every grid point: k steps from the left edge lie in cell k // (ell/h).

    The right edge stays in the last cell; integer arithmetic is exact at boundaries.
    """
    m = _steps_per_cell(params, restriction.h)
    k = _grid_points(params, restriction.length_cells, restriction.h, restriction.boundary)
    return np.clip(np.arange(k.start, k.stop) // m, 0, 2 * restriction.length_cells - 1)


def discretize(params: ModelParams, restriction: FiniteRestriction) -> BandedSymmetric:
    """Central-difference matrix of the restriction, half-bandwidth N.

    Dirichlet drops the boundary points; Neumann keeps them with mirrored
    ghost points (reflection across the half grid step), which preserves
    symmetry.  Grid points map to cells as in ``_point_cells``.  A matrix
    too large for physical memory raises ``SizeGuardError`` first
    (``_guard_size``).
    """
    n = params.n
    if restriction.omega_path.shape[1] != n:
        raise GridError(f"omega_path has {restriction.omega_path.shape[1]} channels, model has {n}")
    _guard_size(params, restriction.length_cells, restriction.h, restriction.boundary)
    cell = _point_cells(params, restriction)
    n_pts = len(cell)
    h2 = restriction.h * restriction.h
    blocks = cell_matrix(params, restriction.omega_path, 0.0)

    kinetic = np.full(n_pts, 2.0 / h2)
    if restriction.boundary != "dirichlet":
        kinetic[0] = kinetic[-1] = 1.0 / h2

    order = n * n_pts
    ab = np.zeros((n + 1, order))
    cols = np.arange(n_pts) * n
    for a in range(n):
        for b in range(a + 1):
            ab[a - b, cols + b] = blocks[cell, a, b]
    for a in range(n):
        ab[0, cols + a] += kinetic
    if n_pts > 1:
        ab[n, : n * (n_pts - 1)] = -1.0 / h2
    return BandedSymmetric(ab=ab, order=order, bandwidth=n)


def _inertia(ab: np.ndarray, shifts: np.ndarray, pivot_floor: float) -> np.ndarray:
    """Negative-pivot count of the LDL^t factorization of A - shift*I for every shift.

    Fewer than ``_SCALAR_SHIFTS`` shifts are counted one at a time by
    ``_ldlt_count`` on Python floats; more are counted together by the same
    pass on float arrays, in chunks of ``_BAND_BYTES // (8 * ab.size)``
    shifts.  The two regimes run
    the same statements, so their pivots agree bit for bit.  A shift whose
    pivots include one at or below ``pivot_floor`` in magnitude (or a NaN
    after one) reads -1, so the caller can retry it.
    """
    if len(shifts) < _SCALAR_SHIFTS:
        return np.array([_ldlt_count(ab, float(shift), pivot_floor) for shift in shifts], dtype=int)
    step = max(1, _BAND_BYTES // (8 * ab.size))
    return np.concatenate([_ldlt_count(ab, shifts[lo : lo + step], pivot_floor)
                           for lo in range(0, len(shifts), step)])


def _ldlt_count(ab: np.ndarray, shift: float | np.ndarray, pivot_floor: float) -> int | np.ndarray:
    """``_inertia`` at a Python float ``shift``, or at each entry of a float array of shifts.

    A rolling window holds the bandwidth + 1 columns that the next pivot
    touches, as lists whose entries are Python floats or arrays over the
    shifts, so no band copy is made.  The pivots go into one array and are
    tested once at the end; a Python-float pivot of exactly 0 that a division
    meets ends the pass as -1.
    """
    bandwidth, order = ab.shape[0] - 1, ab.shape[1]
    pivots = np.empty((order, *np.shape(shift)))
    window: list[list] = []  # the shifted columns that pivot j touches, column j first
    arrivals = itertools.chain(map(np.ndarray.tolist, ab.T), [None] * bandwidth)  # column j + bandwidth, if any
    with np.errstate(all="ignore"):
        try:
            for j, fresh in enumerate(arrivals, -bandwidth):
                if fresh is not None:
                    fresh[0] -= shift
                    window.append(fresh)
                if j < 0:
                    continue
                column = window.pop(0)
                pivots[j] = pivot = column[0]
                l = [x / pivot for x in column[1 : 1 + len(window)]]
                for kk, target in enumerate(window):
                    c = column[kk + 1]
                    for r in range(len(window) - kk):
                        target[r] -= l[kk + r] * c
        except ZeroDivisionError:
            return -1
        live = np.all((pivots > pivot_floor) | (pivots < -pivot_floor), axis=0)
    return np.where(live, np.sum(pivots < 0, axis=0), -1)


def count_below(matrix: BandedSymmetric, energy: float | np.ndarray) -> int | np.ndarray:
    """Number of eigenvalues <= energy, exact by Sylvester's law.

    ``energy`` is a finite real (the count is an int) or an array of them
    (an int array of its shape).  One factorization pass serves all
    energies; those that met a zero pivot are retried with the shift perturbed
    by multiples of 1e-12 times the matrix scale (alternating sides), and
    persistent breakdown raises ``FactorizationError`` naming the first.
    """
    energies = reals(energy, "energy")
    scale = matrix.scale
    counts = np.full(energies.shape, -1)
    for k in _NUDGES:
        todo = counts < 0
        if not todo.any():
            break
        counts[todo] = _inertia(matrix.ab, energies[todo] + k * 1e-12 * scale, 1e-20 * scale)
    if np.any(counts < 0):
        raise FactorizationError(
            f"persistent pivot breakdown in inertia count at E={energies[counts < 0][0]:g}: the matrix of order "
            f"{matrix.order} hit a zero pivot at all {len(_NUDGES)} shifts within {max(_NUDGES) * 1e-12 * scale:.3g} "
            "of E; move E by more than that (edit the energy grid), or change h or L"
        )
    return int(counts) if counts.ndim == 0 else counts


def boundary_block(params: ModelParams, omega_path: np.ndarray, energy: float) -> np.ndarray:
    """Top-right N x N block of the full transfer product over the path.

    For Cauchy data starting as (0, u') at the left edge, this block maps
    u' to the value at the right edge, so the energy is a Dirichlet
    eigenvalue of the continuum restriction exactly when it is singular.

    The finished product is tested once: an entry above ``_OVERFLOW_ENTRY``
    in magnitude, an inf or a NaN raises ``InstabilityError``.  An entry that
    overflowed the float range on the way stays inf or NaN through every
    later product, so it always raises; a partial product whose entries
    passed 1e300 but that later cells shrank back below it does not.
    """
    n = params.n
    table, index = path_table(params, omega_path, energy)
    prod = np.eye(2 * n)
    with np.errstate(over="ignore", invalid="ignore"):
        for cell in table[index]:
            prod = cell @ prod
    if not np.max(np.abs(prod)) <= _OVERFLOW_ENTRY:
        raise InstabilityError(
            "transfer product overflow; use a shorter restriction or shift the energy"
        )
    return prod[:n, n:]


def estimate_ids(
    params: ModelParams,
    energy_grid: np.ndarray,
    length_cells: int,
    h: float,
    n_samples: int,
    master_seed: int = 0,
    boundary: str = DEFAULT_BOUNDARY,
) -> IDSCurve:
    """Disorder-averaged counting function over 2*ell*L at each grid energy.

    Sample s draws one path from the stream (master_seed, s), builds the
    restriction once and counts the whole grid in one ``count_below``
    call, so the curve is nondecreasing sample by sample and each sample
    is independent of the others.  The curve holds the sorted grid, the
    means and their standard errors, not the arguments.
    """
    count(n_samples, "n_samples")
    master_seed = as_seed(master_seed)
    grid = np.sort(reals(energy_grid, "energy_grid"))
    paths = (sample_restriction(params, length_cells, h, boundary, stream(derive_seed(master_seed, s)))
             for s in range(n_samples))
    counts = [count_below(discretize(params, restriction), grid) for restriction in paths]
    mean, stderr = _mean_stderr(np.array(counts, dtype=float) / (2.0 * params.ell * length_cells))
    return IDSCurve(
        energies=grid,
        values=mean,
        stderrs=stderr,
    )


@functools.cache
def _lapack():
    """scipy's LAPACK extension module ``linalg/_flapack``, loaded once from its file.

    The scipy package directory comes from ``importlib.util.find_spec``,
    which does not import scipy, and the extension is loaded with an
    ``ExtensionFileLoader`` under the name ``anderloc._flapack``, so neither
    ``scipy`` nor any ``scipy.*`` module enters ``sys.modules``.  Raises
    ``ImportError`` when scipy is not installed or the file is missing,
    naming the path looked for.  The OpenBLAS library that the extension
    links reads ``OPENBLAS_NUM_THREADS`` when it loads, so it runs on the
    one thread that importing ``anderloc`` sets unless the variable is set.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed; localize needs its LAPACK extension module linalg/_flapack")
    stem = os.path.join(spec.submodule_search_locations[0], "linalg", "_flapack")
    path = next((stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES if os.path.isfile(stem + suffix)),
                None)
    if path is None:
        raise ImportError(f"scipy's LAPACK extension module was not found at {stem}"
                          f"{{{','.join(importlib.machinery.EXTENSION_SUFFIXES)}}}")
    loader = importlib.machinery.ExtensionFileLoader(f"{__package__}._flapack", path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module


def _lapack_failed(routine: str, info: int, order: int) -> FactorizationError:
    return FactorizationError(f"LAPACK {routine} failed with info = {info} on the matrix of order {order}; "
                              "change h or L")


def _eigenpairs(matrix: BandedSymmetric, window: EnergyInterval):
    """Eigenpairs with eigenvalues in (lo, hi], ascending, one unit eigenvector at a time.

    The eigenvalues come from LAPACK dsbevx without vectors, called as
    scipy's ``eigvals_banded(select="v")`` calls it (same arguments, same
    bits), so its dense order x order Q is never formed.  Their number must
    equal the inertia count of (lo, hi] (Sylvester's law: ``count_below``
    at hi minus at lo).  Each vector takes ``_INVERSE_STEPS`` banded
    solves with A - lambda I from a seeded start, dispatched as scipy's
    ``solve_banded`` does (dgtsv at bandwidth 1, else dgbsv on the LU band
    storage), re-orthogonalised after each step against the earlier vectors
    whose eigenvalues lie within ``_CLUSTER_GAP`` * scale and then
    normalised; a shift whose LU is exactly singular is nudged as in
    ``count_below``.  Only that cluster of vectors is kept.  A count
    mismatch, a vector whose relative residual exceeds ``_RESIDUAL_LIMIT``,
    a nonzero dsbevx ``info`` or a negative dgbsv/dgtsv ``info`` raises
    ``FactorizationError``.
    """
    lapack = _lapack()
    n, order, scale = matrix.bandwidth, matrix.order, matrix.scale
    w, _, found, _, info = lapack.dsbevx(matrix.ab, window.lo, window.hi, 1, 1, compute_v=0, mmax=1, range=1,
                                         lower=1, abstol=2 * np.finfo(float).tiny, overwrite_ab=0)
    if info != 0:
        raise _lapack_failed("dsbevx", info, order)
    w = w[:found]
    below, upto = count_below(matrix, np.array([window.lo, window.hi]))
    if len(w) != upto - below:
        raise FactorizationError(
            f"the banded eigensolver found {len(w)} eigenvalues in ({window.lo:g}, {window.hi:g}], but the inertia "
            f"counts give {upto} at or below {window.hi:g} and {below} at or below {window.lo:g}, i.e. "
            f"{upto - below}, on the matrix of order {order}; an eigenvalue may sit on a window end: move the "
            "window ends slightly, or change h or L"
        )
    if n == 1:
        off = matrix.ab[1, : order - 1]

        def solve(diagonal: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, int]:
            return lapack.dgtsv(off, diagonal, off, x)[3:]
    else:
        band = np.zeros((3 * n + 1, order))  # dgbsv's storage: band[2n + i - j, j] = A[i, j], n rows of LU fill on top
        for r in range(1, n + 1):
            band[2 * n + r, : order - r] = band[2 * n - r, r:] = matrix.ab[r, : order - r]

        def solve(diagonal: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, int]:
            band[2 * n] = diagonal
            return lapack.dgbsv(n, n, band, x)[2:]

    def inverse_step(lam: float, x: np.ndarray) -> np.ndarray:
        for k in _NUDGES:
            y, info = solve(matrix.ab[0] - (lam + k * 1e-12 * scale), x)
            if info == 0:
                return y
            if info < 0:
                raise _lapack_failed("dgtsv" if n == 1 else "dgbsv", info, order)
        raise FactorizationError(
            f"A - lambda I is singular at all {len(_NUDGES)} shifts within {max(_NUDGES) * 1e-12 * scale:.3g} of the "
            f"eigenvalue {lam:g} (order {order}); change h or L"
        )

    rng = stream(0)
    cluster: list[tuple[float, np.ndarray]] = []
    for lam in w:
        cluster = [(mu, y) for mu, y in cluster if lam - mu <= _CLUSTER_GAP * scale]
        x = rng.standard_normal(order)
        for _ in range(_INVERSE_STEPS):
            x = inverse_step(lam, x)
            for _, y in cluster:
                x -= (y @ x) * y
            x /= np.linalg.norm(x)
        ax = matrix.ab[0] * x
        for r in range(1, n + 1):
            ax[r:] += matrix.ab[r, : order - r] * x[: order - r]
            ax[: order - r] += matrix.ab[r, : order - r] * x[r:]
        residual = np.linalg.norm(ax - lam * x) / scale
        if not residual <= _RESIDUAL_LIMIT:
            raise FactorizationError(
                f"inverse iteration left the eigenvector of {lam:g} with relative residual {residual:.3g}, above "
                f"{_RESIDUAL_LIMIT:g} (order {order}); change h or L"
            )
        cluster.append((lam, x))
        yield float(lam), x


def eigen_decay(
    params: ModelParams,
    restriction: FiniteRestriction,
    window: EnergyInterval,
    gamma_ref: float | None = None,
) -> list[DecayReport]:
    """Decay fits for all eigenfunctions with eigenvalues in the window.

    The eigenvalues in (lo, hi] come from LAPACK dsbevx without its dense
    Q, called from scipy's LAPACK extension module (``_lapack``; the scipy
    package is never imported), and their number is audited against the
    inertia counts at both window ends; each eigenvector comes from three
    steps of banded inverse iteration (``_eigenpairs``).  For each
    eigenvector the cell-wise mass p_n (the windowed L2 norm squared) is
    computed, the maximal-mass cell taken as the localization center, and
    a line fitted to log p_n against distance from the center over cells
    with p_n above 1e-24.
    The amplitude rate is half the mass rate.  An empty window yields an
    empty list; the ends of any other window must pass ``real``, a
    zero-width window raises ``ScanRangeError``, a restriction too large for
    physical memory raises ``SizeGuardError`` (from ``discretize``), and a
    failed count audit, an inaccurate eigenvector or a LAPACK routine that
    reports failure raises ``FactorizationError``.
    """
    if window.is_empty:
        return []
    if real(window.lo, "decay window lo") == real(window.hi, "decay window hi"):
        raise ScanRangeError(f"decay window [{window.lo:g}, {window.hi:g}] has zero width")
    n = params.n
    mat = discretize(params, restriction)
    big_l = restriction.length_cells
    cell = _point_cells(params, restriction)
    n_pts = len(cell)
    centers_x = -params.ell * big_l + (np.arange(2 * big_l) + 0.5) * params.ell

    reports: list[DecayReport] = []
    for lam, vec in _eigenpairs(mat, window):
        psi = vec.reshape(n_pts, n)
        point_mass = restriction.h * np.sum(psi * psi, axis=1)
        p = np.bincount(cell, weights=point_mass, minlength=2 * big_l)
        center = int(np.argmax(p))
        mask = p > _MASS_FLOOR
        if np.count_nonzero(mask) < 3:
            continue
        dist = np.abs(np.arange(2 * big_l) - center) * params.ell
        logp = np.log(p[mask])
        slope, intercept = np.polyfit(dist[mask], logp, 1)
        residual = float(np.sqrt(np.mean((logp - (slope * dist[mask] + intercept)) ** 2)))
        reports.append(
            DecayReport(
                eigenvalue=lam,
                fitted_rate=float(-slope / 2.0),
                fit_residual=residual,
                localization_center=float(centers_x[center]),
                gamma_ref=gamma_ref,
            )
        )
    return reports
