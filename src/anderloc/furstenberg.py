"""Bracket-closure rank tests and density certificates.

The closed group generated by the 2^N binary transfer matrices at energy
E is dense in the full symplectic group when (i) every generator stays
inside a certified identity neighborhood, ell * ||X|| <= rho, and (ii)
the Hamiltonian logarithms {X_omega(E)} generate the whole Lie algebra,
i.e. the span of their iterated brackets reaches dimension 2N^2 + N.
Condition (ii) fails only on an algebraic set of energies: for fixed
(V, c) the deficiency locus is the zero set of a polynomial in E, hence
either everything (a non-generic interaction) or a finite set of
critical energies.  This module implements the rank test, the resulting
per-energy certificate, a grid scan with bisection refinement for the
critical set, and the tridiagonal interaction that witnesses genericity
at every energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ScanRangeError
from .linalg import bracket, is_hamiltonian, sp_dim, vectorize_sp
from .model import EnergyInterval, ModelParams, binary_cells, energy_interval, generator, generator_norm

__all__ = [
    "ClosureReport",
    "DensityCertificate",
    "CriticalBracket",
    "CriticalEnergySet",
    "lie_closure",
    "density_certificate",
    "scan_critical_energies",
    "tridiagonal_witness",
]


@dataclass
class ClosureReport:
    """Outcome of a bracket-closure sweep.

    ``basis`` holds orthonormal coordinate vectors spanning the closure
    reached; ``smallest_retained_norm`` is the smallest relative residual
    among retained candidates (the rank-gap margin); ``depth_exceeded``
    flags a sweep stopped by the depth guard while still growing.
    """

    dim_reached: int
    target_dim: int
    basis: np.ndarray
    depth_used: int
    smallest_retained_norm: float
    depth_exceeded: bool = False

    @property
    def full(self) -> bool:
        return self.dim_reached == self.target_dim


@dataclass
class DensityCertificate:
    """Checked pair of density conditions at one energy.

    A true certificate asserts density of the binary-generator group in
    the symplectic group, conditional on the configured ``rho`` being a
    valid radius for the identity neighborhood of the density criterion;
    ``rho`` is echoed so consumers can re-audit that premise.
    ``smallest_retained_norm`` and ``depth_exceeded`` are the closure
    sweep's rank-gap margin and depth-guard flag (see ``ClosureReport``),
    which say how close the closure decision came to flipping.
    """

    energy: float
    norm_condition: bool
    closure_full: bool
    certified: bool
    per_config_norms: tuple[float, ...]
    closure_dim: int
    target_dim: int
    rho: float
    smallest_retained_norm: float
    depth_exceeded: bool


@dataclass(frozen=True)
class CriticalBracket:
    """One refined deficiency bracket [e_lo, e_hi] around a critical energy."""

    e_lo: float
    e_hi: float
    e_mid: float
    dim_reached: int


@dataclass
class CriticalEnergySet:
    """Result of a critical-energy scan over the certified window."""

    energies: tuple[float, ...]
    scan_range: EnergyInterval
    grid_step: float
    tolerance: float
    non_generic_flag: bool
    brackets: tuple[CriticalBracket, ...]
    target_dim: int


def lie_closure(
    generators: list[np.ndarray],
    tol: float = 1e-8,
    max_depth: int | None = None,
) -> ClosureReport:
    """Span of all iterated brackets of Hamiltonian generators, by numerical rank.

    Breadth-first: the span is seeded with the generators, then every
    basis representative is bracketed against the newest frontier; a
    candidate is kept when, after orthogonalization against the current
    basis, its residual exceeds ``tol`` times its own coordinate norm.
    Stops at full dimension 2N^2 + N, on a sweep that adds nothing, or at
    ``max_depth`` sweeps (default 2 * (2N^2 + N), never binding for a
    generating set since the dimension grows along productive sweeps).

    The reached dimension is independent of generator order and scaling;
    the basis itself is not.  Generators must be Hamiltonian matrices of
    one even order, within 1e-10 * max(1, ||x||_F), else ``DimensionError``.
    """
    if len(generators) == 0:
        raise ValueError("need at least one generator")
    if tol <= 0:
        raise ValueError("tol must be positive")
    for g in generators:  # is_hamiltonian itself rejects non-square and odd orders
        if not is_hamiltonian(g, 1e-10 * max(1.0, float(np.linalg.norm(g)))):
            raise DimensionError("generator is not Hamiltonian within tolerance")
    two_n = np.shape(generators[0])[0]
    if any(np.shape(g) != (two_n, two_n) for g in generators):
        raise DimensionError("generators must share one order")
    target = sp_dim(two_n // 2)
    if max_depth is None:
        max_depth = 2 * target

    # rows [:dim] hold the orthonormal coordinates and unit-norm representatives
    basis = np.empty((target, target))
    reps = np.empty((target, two_n, two_n))
    dim = 0
    smallest_retained = np.inf

    # Brackets of unit-norm representatives that cancel to roundoff scale are
    # numerical zeros, not directions; without this floor a commuting pair
    # perturbed at 1e-16 would contribute pure noise as a "new" basis vector.
    zero_floor = 1e-12

    def try_add(elem: np.ndarray, vec: np.ndarray, floor: float = 0.0) -> bool:
        nonlocal dim, smallest_retained
        own = float(np.linalg.norm(vec))
        if dim == target or own <= floor or not np.isfinite(own):
            return False
        b = basis[:dim]
        r = vec - (b @ vec) @ b  # two Gram-Schmidt passes for orthogonality to ~1e-15
        r -= (b @ r) @ b
        res = float(np.linalg.norm(r))
        if res <= tol * own:
            return False
        basis[dim] = r / res
        reps[dim] = elem / own
        dim += 1
        smallest_retained = min(smallest_retained, res / own)
        return True

    frontier: list[int] = []  # indices into reps
    for g in generators:
        if try_add(g, vectorize_sp(g)):
            frontier.append(dim - 1)

    depth = 0
    while frontier and dim < target and depth < max_depth:
        depth += 1
        snapshot = reps[:dim]
        new_frontier: list[int] = []
        for k in frontier:
            if dim == target:
                break
            candidates = bracket(snapshot, reps[k])  # [x, y] for every x in the snapshot
            for elem, vec in zip(candidates, vectorize_sp(candidates)):
                if try_add(elem, vec, floor=zero_floor):
                    new_frontier.append(dim - 1)
        frontier = new_frontier

    return ClosureReport(
        dim_reached=dim,
        target_dim=target,
        basis=basis[:dim].copy(),
        depth_used=depth,
        smallest_retained_norm=float(smallest_retained),
        depth_exceeded=bool(frontier) and dim < target and depth >= max_depth,
    )


def _binary_generators(params: ModelParams, energy: float) -> list[np.ndarray]:
    """Hamiltonian generators X_omega(E) of all 2^N binary cells."""
    return [generator(params, omega, energy) for omega in binary_cells(params.n)]


def density_certificate(params: ModelParams, energy: float, tol: float = 1e-8) -> DensityCertificate:
    """Check both density conditions for the binary family at one energy.

    ``norm_condition`` is ell * ||X_omega|| <= rho for all 2^N binary
    cells; ``closure_full`` is the bracket closure reaching 2N^2 + N.  A
    false norm condition is indeterminate (the criterion simply does not
    apply), not a refutation of density.
    """
    norms = tuple(generator_norm(params, omega, energy) for omega in binary_cells(params.n))
    norm_ok = all(params.ell * nu <= params.rho for nu in norms)
    closure = lie_closure(_binary_generators(params, energy), tol=tol)
    return DensityCertificate(
        energy=float(energy),
        norm_condition=norm_ok,
        closure_full=closure.full,
        certified=norm_ok and closure.full,
        per_config_norms=norms,
        closure_dim=closure.dim_reached,
        target_dim=closure.target_dim,
        rho=params.rho,
        smallest_retained_norm=closure.smallest_retained_norm,
        depth_exceeded=closure.depth_exceeded,
    )


def _refine_edge(
    deficient: "callable",
    inside: float,
    outside: float,
    iters: int,
) -> float:
    """Bisect the deficiency indicator between a deficient point and a full one.

    Returns the boundary estimate on the deficient side of the final
    bracket, so that [left_edge, right_edge] always contains the
    deficiency region.
    """
    for _ in range(iters):
        mid = 0.5 * (inside + outside)
        if mid == inside or mid == outside:
            break
        if deficient(mid):
            inside = mid
        else:
            outside = mid
    return inside


def scan_critical_energies(
    params: ModelParams,
    grid_step: float,
    tol: float = 1e-8,
    refine_iters: int = 40,
) -> CriticalEnergySet:
    """Locate closure-deficient energies inside the certified window.

    The deficiency indicator is evaluated on a regular grid; each run of
    deficient grid points is bracketed by bisecting the indicator against
    the adjacent full points (``refine_iters`` halvings per edge) and
    reported through its midpoint.  When every grid point is deficient
    the interaction itself is non-generic and the scan reports the flag
    instead of energies.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    interval = energy_interval(params)
    if interval.is_empty:
        raise ScanRangeError("certified energy window is empty; decrease ell below ell_c")

    target = sp_dim(params.n)
    dims: dict[float, int] = {}

    def closure_dim(e: float) -> int:
        if e not in dims:
            dims[e] = lie_closure(_binary_generators(params, e), tol=tol).dim_reached
        return dims[e]

    def deficient(e: float) -> bool:
        return closure_dim(e) < target

    n_pts = max(2, int(np.floor(interval.length / grid_step)) + 1)
    grid = interval.lo + grid_step * np.arange(n_pts)
    grid = np.unique(np.append(grid[grid <= interval.hi], interval.hi))
    flags = np.array([deficient(e) for e in grid])
    non_generic = bool(flags.all())  # no full point to bisect against

    brackets: list[CriticalBracket] = []
    i = 0
    while i < len(grid) and not non_generic:
        if not flags[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(grid) and flags[j + 1]:
            j += 1
        # edges of the deficiency run, bisected against the adjacent full points
        if i > 0:
            lo = _refine_edge(deficient, float(grid[i]), float(grid[i - 1]), refine_iters)
        else:
            lo = float(grid[i])
        if j + 1 < len(grid):
            hi = _refine_edge(deficient, float(grid[j]), float(grid[j + 1]), refine_iters)
        else:
            hi = float(grid[j])
        run_dim = min(closure_dim(float(e)) for e in grid[i : j + 1])
        brackets.append(CriticalBracket(lo, hi, 0.5 * (lo + hi), run_dim))
        i = j + 1

    brackets.sort(key=lambda b: b.e_mid)
    return CriticalEnergySet(
        energies=tuple(b.e_mid for b in brackets),
        scan_range=interval,
        grid_step=grid_step,
        tolerance=tol,
        non_generic_flag=non_generic,
        brackets=tuple(brackets),
        target_dim=target,
    )


def tridiagonal_witness(n: int) -> np.ndarray:
    """Tridiagonal interaction with zero diagonal and unit off-diagonals.

    This matrix generates the full Lie algebra at every energy, which is
    what makes full closure the generic situation among symmetric
    interactions.
    """
    if n < 1:
        raise ValueError("n must be positive")
    v = np.zeros((n, n))
    idx = np.arange(n - 1)
    v[idx, idx + 1] = 1.0
    v[idx + 1, idx] = 1.0
    return v
