"""Finite-volume restrictions: eigenvalue counting, IDS, decay diagnostics.

The operator is restricted to [-ell*L, ell*L] with Dirichlet or Neumann
boundary conditions and discretized by second-order central differences
on a grid of step h dividing ell, the piecewise-constant potential taking
cell n's value on [ell*n, ell*(n+1)).  Grid points are ordered point-major
(the N channels of one point are contiguous), which gives a symmetric
banded matrix of half-bandwidth N.

Eigenvalues below E are counted exactly through the inertia of the
shifted matrix (negative pivots of an LDL^t factorization, Sylvester's
law).  The count is one factorization pass for all energies: they ride
as a vector axis of the band, so a grid costs about one scalar count.
The integrated density of states is the disorder average of that count
over 2*ell*L.  A shooting oracle built from exact transfer-matrix
products provides an independent count for cross-checks, and a
cell-resolved mass profile of eigenvectors yields exponential-decay
fits for the localization diagnostic.  Those eigenpairs come from
scipy's banded solver, which ``eigen_decay`` imports when called.  It is
the only scipy routine the commands use, so only ``localize`` (alone or
inside ``report``) loads scipy.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FactorizationError, GridError, InstabilityError, ScanRangeError, SizeGuardError
from .model import EnergyInterval, ModelParams, cell_matrix, count, path_table, positive, reals, sample_path
from .seeding import derive_seed, stream

__all__ = [
    "BOUNDARIES",
    "DEFAULT_BOUNDARY",
    "boundary_name",
    "FiniteRestriction",
    "BandedSymmetric",
    "IDSCurve",
    "DecayReport",
    "sample_restriction",
    "discretize",
    "count_below",
    "boundary_block",
    "shooting_singularity",
    "estimate_ids",
    "eigen_decay",
]

BOUNDARIES = ("dirichlet", "neumann")
DEFAULT_BOUNDARY = "dirichlet"

_OVERFLOW_ENTRY = 1e300
_MASS_FLOOR = 1e-24
_BAND_BYTES = 8 * 2**20  # largest band copy _inertia makes: it cuts the energies into chunks of this size


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
        try:
            object.__setattr__(self, "h", positive(self.h, "h"))
        except ValueError as exc:
            raise GridError(f"grid step {exc}") from None
        path = np.atleast_2d(np.asarray(self.omega_path, dtype=float))
        if path.shape[0] != 2 * self.length_cells:
            raise ValueError(f"omega_path must have 2L = {2 * self.length_cells} rows")
        path.setflags(write=False)
        object.__setattr__(self, "omega_path", path)


@dataclass(frozen=True)
class BandedSymmetric:
    """Symmetric banded matrix in lower band storage: ab[r, j] = A[j+r, j]."""

    ab: np.ndarray
    order: int
    bandwidth: int

    def __post_init__(self):
        if np.shape(self.ab) != (self.bandwidth + 1, self.order):
            raise DimensionError(f"band storage of order {self.order} and bandwidth {self.bandwidth} must have "
                                 f"shape ({self.bandwidth + 1}, {self.order}), got {np.shape(self.ab)}")

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.order, self.order))
        for r in range(self.bandwidth + 1):
            idx = np.arange(self.order - r)
            a[idx + r, idx] = self.ab[r, : self.order - r]
            a[idx, idx + r] = self.ab[r, : self.order - r]
        return a


@dataclass
class IDSCurve:
    """Sampled eigenvalue-counting function per unit length, nondecreasing in E."""

    energies: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray
    length_cells: int
    h: float
    n_samples: int
    boundary: str


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
    """Draw one disorder path and wrap it as a finite restriction."""
    path = sample_path(params, 2 * count(length_cells, "length_cells"), rng)
    return FiniteRestriction(length_cells, boundary, h, path)


def _steps_per_cell(params: ModelParams, h: float) -> int:
    m = round(params.ell / h)
    if m < 1 or abs(m * h - params.ell) > 1e-9 * params.ell:
        raise GridError(f"grid step h = {h} does not divide the cell length ell = {params.ell}")
    return m


def _grid_points(params: ModelParams, restriction: FiniteRestriction) -> range:
    """Steps k from the left edge to each kept grid point: Dirichlet drops both ends, Neumann keeps them."""
    steps = 2 * restriction.length_cells * _steps_per_cell(params, restriction.h)
    return range(1, steps) if restriction.boundary == "dirichlet" else range(steps + 1)


def _point_cells(params: ModelParams, restriction: FiniteRestriction) -> np.ndarray:
    """Cell of every grid point: k steps from the left edge lie in cell k // (ell/h).

    The right edge stays in the last cell; integer arithmetic is exact at boundaries.
    """
    m = _steps_per_cell(params, restriction.h)
    k = _grid_points(params, restriction)
    return np.clip(np.arange(k.start, k.stop) // m, 0, 2 * restriction.length_cells - 1)


def discretize(params: ModelParams, restriction: FiniteRestriction) -> BandedSymmetric:
    """Central-difference matrix of the restriction, half-bandwidth N.

    Dirichlet drops the boundary points; Neumann keeps them with mirrored
    ghost points (reflection across the half grid step), which preserves
    symmetry.  Grid points map to cells as in ``_point_cells``.
    """
    n = params.n
    if restriction.omega_path.shape[1] != n:
        raise GridError(f"omega_path has {restriction.omega_path.shape[1]} channels, model has {n}")
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

    The band is copied column-major, band[j, r] = A[j+r, j], with the
    shifts as a trailing axis, in chunks of at most ``_BAND_BYTES``; every
    operation is elementwise along that axis.  A shift whose pivots include
    one at or below ``pivot_floor`` in magnitude (or a NaN after one) reads
    -1, so the caller can retry it.
    """
    bandwidth, order = ab.shape[0] - 1, ab.shape[1]
    step = max(1, _BAND_BYTES // (8 * ab.size))
    counts = np.empty(len(shifts), dtype=int)
    whole = np.empty((order, bandwidth + 1, min(step, len(shifts))))
    for lo in range(0, len(shifts), step):
        band = whole[:, :, : len(shifts) - lo]  # the last chunk may be narrower
        band[:] = ab.T[:, :, None]
        band[:, 0] -= shifts[lo : lo + step]
        columns = list(band)  # per-column views: a list index costs less than slicing the 3-D band
        with np.errstate(all="ignore"):
            for j in range(order):
                w = min(bandwidth, order - 1 - j)
                col = columns[j][1 : 1 + w]
                l = col / columns[j][0]
                for kk in range(1, w + 1):
                    columns[j + kk][: w - kk + 1] -= l[kk - 1 : w] * col[kk - 1]
        pivots = band[:, 0]
        live = np.all((pivots > pivot_floor) | (pivots < -pivot_floor), axis=0)
        counts[lo : lo + step] = np.where(live, np.sum(pivots < 0, axis=0), -1)
    return counts


def count_below(matrix: BandedSymmetric, energy: float | np.ndarray) -> int | np.ndarray:
    """Number of eigenvalues <= energy, exact by Sylvester's law.

    ``energy`` is a finite real (the count is an int) or an array of them
    (an int array of its shape).  One factorization pass serves all
    energies; those that met a zero pivot are retried with the shift perturbed
    by multiples of 1e-12 times the matrix scale (alternating sides), and
    persistent breakdown raises ``FactorizationError`` naming the first.
    """
    energies = reals(energy, "energy")
    scale = max(float(np.max(np.abs(matrix.ab))), 1.0)
    counts = np.full(energies.shape, -1)
    for k in (0, 1, -1, 2, -2, 3, -3):
        todo = counts < 0
        counts[todo] = _inertia(matrix.ab, energies[todo] + k * 1e-12 * scale, 1e-20 * scale)
    if np.any(counts < 0):
        raise FactorizationError(
            f"persistent pivot breakdown in inertia count at E={energies[counts < 0][0]:g}: the matrix of order "
            f"{matrix.order} hit a zero pivot at all 7 shifts within {3e-12 * scale:.3g} of E; move E by more than "
            "that (edit the energy grid), or change h or L"
        )
    return int(counts) if counts.ndim == 0 else counts


def boundary_block(params: ModelParams, omega_path: np.ndarray, energy: float) -> np.ndarray:
    """Top-right N x N block of the full transfer product over the path.

    For Cauchy data starting as (0, u') at the left edge, this block maps
    u' to the value at the right edge, so the energy is a Dirichlet
    eigenvalue of the continuum restriction exactly when it is singular.
    """
    n = params.n
    table, index = path_table(params, omega_path, energy)
    prod = np.eye(2 * n)
    for k in index:
        prod = table[k] @ prod
        if np.max(np.abs(prod)) > _OVERFLOW_ENTRY:
            raise InstabilityError(
                "transfer product overflow; use a shorter restriction or shift the energy"
            )
    return prod[:n, n:]


def shooting_singularity(params: ModelParams, omega_path: np.ndarray, energy: float) -> float:
    """Smallest singular value of the boundary block; zero at Dirichlet eigenvalues."""
    b = boundary_block(params, omega_path, energy)
    return float(np.linalg.svd(b, compute_uv=False)[-1])


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
    is independent of the others.
    """
    count(n_samples, "n_samples")
    grid = np.sort(reals(energy_grid, "energy_grid"))
    paths = (sample_restriction(params, length_cells, h, boundary, stream(derive_seed(master_seed, s)))
             for s in range(n_samples))
    counts = [count_below(discretize(params, restriction), grid) for restriction in paths]
    values = np.array(counts, dtype=float) / (2.0 * params.ell * length_cells)
    mean = values.mean(axis=0)
    stderr = (
        values.std(axis=0, ddof=1) / math.sqrt(n_samples)
        if n_samples > 1
        else np.zeros_like(mean)
    )
    return IDSCurve(
        energies=grid,
        values=mean,
        stderrs=stderr,
        length_cells=length_cells,
        h=h,
        n_samples=n_samples,
        boundary=boundary,
    )


def eigen_decay(
    params: ModelParams,
    restriction: FiniteRestriction,
    window: EnergyInterval,
    gamma_ref: float | None = None,
) -> list[DecayReport]:
    """Decay fits for all eigenfunctions with eigenvalues in the window.

    Eigenpairs come from the banded symmetric solver restricted to the
    window.  For each eigenvector the cell-wise mass p_n (the windowed L2
    norm squared) is computed, the maximal-mass cell taken as the
    localization center, and a line fitted to log p_n against distance
    from the center over cells with p_n above 1e-24.  The amplitude rate
    is half the mass rate.  An empty window yields an empty list; a
    zero-width window raises ``ScanRangeError``, and a restriction whose
    solve would not fit in physical memory raises ``SizeGuardError``.
    """
    if window.is_empty:
        return []
    if window.lo == window.hi:
        raise ScanRangeError(f"decay window [{window.lo:g}, {window.hi:g}] has zero width")
    order = params.n * len(_grid_points(params, restriction))
    # the solver builds a dense order x order Q; measured peak RSS is about 16 bytes per entry
    need, have = 16 * order * order, os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise SizeGuardError(
            f"localize at L = {restriction.length_cells}, h = {restriction.h:g} needs about {need / 1e9:.3g} GB "
            f"for the banded eigensolver (order {order}), more than the {have / 1e9:.3g} GB of physical "
            "memory; decrease L or increase h"
        )
    from scipy.linalg import eig_banded

    mat = discretize(params, restriction)
    w, vecs = eig_banded(mat.ab, lower=True, select="v", select_range=(window.lo, window.hi))
    n = params.n
    big_l = restriction.length_cells
    cell = _point_cells(params, restriction)
    n_pts = len(cell)
    centers_x = -params.ell * big_l + (np.arange(2 * big_l) + 0.5) * params.ell

    reports: list[DecayReport] = []
    for i in range(len(w)):
        psi = vecs[:, i].reshape(n_pts, n)
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
                eigenvalue=float(w[i]),
                fitted_rate=float(-slope / 2.0),
                fit_residual=residual,
                localization_center=float(centers_x[center]),
                gamma_ref=gamma_ref,
            )
        )
    return reports
