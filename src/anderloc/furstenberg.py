"""Bracket-closure rank tests, the exact genericity criterion, density certificates.

The closed group generated by the 2^N binary transfer matrices at energy
E is dense in the full symplectic group when (i) every generator stays
inside a certified identity neighborhood, ell * ||X|| <= rho, and (ii)
the Hamiltonian logarithms {X_omega(E)} generate the whole Lie algebra,
i.e. the span of their iterated brackets reaches dimension 2N^2 + N.

Condition (ii), as implemented here, does not depend on E.  Write D_i
for the Hamiltonian matrix whose only non-zero entry is c_i at row N+i,
column i.  Then X_omega(E) = X_0(0) + sum_i (omega_i - E/c_i) D_i, and
the binary cells include 0 and every unit vector e_i, so the span of
{X_omega(E)} is span{X_0(0), D_1, ..., D_N} at every E.  The generated
algebra is one per model, and its deficiency locus is either every
energy (a non-generic interaction) or none.

``model_closure`` decides that algebra exactly, from V's coupling graph:
the graph on the N channels with an edge i-j wherever V_ij != 0 (i != j).
This code's result is that the algebra is the direct sum of sp(n_k) over
the graph's connected components, of sizes n_k, so its dimension is
sum_k (2 n_k^2 + n_k) and it is full exactly when the graph is connected.
The diagonal of V, the values of c and the energy do not enter.  Sketch:

- [D_i, X_0(0)] = c_i H_i with H_i = diag(-E_ii, E_ii) and c_i != 0, so
  the algebra holds the diagonal (Cartan) subalgebra spanned by
  H_1, ..., H_N.
- Under ad(H_1), ..., ad(H_N), the upper-right I block of X_0(0) has
  weights -2e_i, and the lower-left V block has weights 2e_i (diagonal
  entries) and e_i + e_j (entry V_ij).  These weights are distinct, so
  polynomials in the ad(H_i) project X_0(0) onto each of them: the
  algebra holds the root vectors of +-2e_i and, for every edge i-j, the
  root vector of e_i + e_j.
- Bracketing the edge vector with the -2e_j vector gives the root vector
  of e_i - e_j.  Along the edges of a component these generate every root
  of C_{n_k}, hence sp(n_k) on that component's channels.  Every
  generator, and so every bracket, is block-diagonal over the components,
  so nothing outside their sum is reached.

``lie_closure`` is the numerical rank test on arbitrary Hamiltonian
generators, at the fixed relative tolerance 1e-8, kept as library code
and as the reference the tests compare the criterion with.  This module
also implements the per-energy certificate and the tridiagonal
interaction that witnesses genericity.

Condition (i) is the certificate's only energy dependence, and the
certificate does not evaluate it from a formula of its own.  By the
closed form of ``model.generator_norm`` the largest binary generator norm
is max(1, lambda_max - E, E - lambda_min), so (i) holds exactly where
ell <= rho and E lies in the certified window [lambda_max - rho/ell,
lambda_min + rho/ell] of ``model.energy_interval``.  The certificate
reads that window, so the energies it certifies are the window's own
floats, ends included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import bracket, is_hamiltonian, sp_dim, vectorize_sp
from .model import EnergyInterval, ModelParams, count, real

__all__ = [
    "ClosureReport",
    "CouplingClosure",
    "DensityCertificate",
    "lie_closure",
    "model_closure",
    "density_certificate",
    "tridiagonal_witness",
]


@dataclass
class ClosureReport:
    """Outcome of a bracket-closure sweep.

    ``basis`` holds orthonormal coordinate vectors spanning the closure
    reached, ``dim_reached`` of the ``target_dim`` = 2N^2 + N directions.
    """

    dim_reached: int
    target_dim: int
    basis: np.ndarray

    @property
    def full(self) -> bool:
        return self.dim_reached == self.target_dim


@dataclass(frozen=True)
class CouplingClosure:
    """The energy-free closure of a model, decided by ``model_closure``.

    ``components`` are the connected components of V's coupling graph, as
    sorted tuples of channel indices (rows of V), ordered by first index;
    ``dim_reached`` is sum_k (2 n_k^2 + n_k) over their sizes n_k, and
    ``target_dim`` is 2N^2 + N.
    """

    components: tuple[tuple[int, ...], ...]
    dim_reached: int
    target_dim: int

    @property
    def full(self) -> bool:
        return self.dim_reached == self.target_dim


@dataclass
class DensityCertificate:
    """Checked pair of density conditions at one energy.

    Only the norm condition depends on the energy; ``closure`` is the
    model's energy-free ``CouplingClosure``, an exact verdict with no
    margin to report.
    A true certificate asserts density of the binary-generator group in
    the symplectic group, conditional on the configured ``rho`` being a
    valid radius for the identity neighborhood of the density criterion;
    ``rho`` is echoed so consumers can re-audit that premise.
    """

    energy: float
    norm_condition: bool
    certified: bool
    closure: CouplingClosure
    rho: float


def lie_closure(generators: list[np.ndarray]) -> ClosureReport:
    """Span of all iterated brackets of Hamiltonian generators, by numerical rank.

    Breadth-first: the span is seeded with the generators, then every
    basis representative is bracketed against the newest frontier; a
    candidate is kept when, after orthogonalization against the current
    basis, its residual exceeds 1e-8 times its own coordinate norm.
    Stops at full dimension 2N^2 + N or on a sweep that adds nothing, so
    after at most 2N^2 + N sweeps.

    The reached dimension is independent of generator order and scaling;
    the basis itself is not.  Generators must be Hamiltonian matrices of
    one even order, within 1e-10 * max(1, ||x||_F), else ``DimensionError``.
    """
    if len(generators) == 0:
        raise ValueError("need at least one generator")
    for g in generators:  # is_hamiltonian itself rejects non-square and odd orders
        if not is_hamiltonian(g, 1e-10 * max(1.0, float(np.linalg.norm(g)))):
            raise DimensionError("generator is not Hamiltonian within tolerance")
    two_n = np.shape(generators[0])[0]
    if any(np.shape(g) != (two_n, two_n) for g in generators):
        raise DimensionError("generators must share one order")
    target = sp_dim(two_n // 2)

    # rows [:dim] hold the orthonormal coordinates and unit-norm representatives
    basis = np.empty((target, target))
    reps = np.empty((target, two_n, two_n))
    dim = 0

    # Brackets of unit-norm representatives that cancel to roundoff scale are
    # numerical zeros, not directions; without this floor a commuting pair
    # perturbed at 1e-16 would contribute pure noise as a "new" basis vector.
    zero_floor = 1e-12

    def try_add(elem: np.ndarray, vec: np.ndarray, floor: float = 0.0) -> bool:
        nonlocal dim
        own = float(np.linalg.norm(vec))
        if dim == target or own <= floor or not np.isfinite(own):
            return False
        b = basis[:dim]
        r = vec - (b @ vec) @ b  # two Gram-Schmidt passes for orthogonality to ~1e-15
        r -= (b @ r) @ b
        res = float(np.linalg.norm(r))
        if res <= 1e-8 * own:
            return False
        basis[dim] = r / res
        reps[dim] = elem / own
        dim += 1
        return True

    frontier: list[int] = []  # indices into reps
    for g in generators:
        if try_add(g, vectorize_sp(g)):
            frontier.append(dim - 1)

    while frontier and dim < target:
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

    return ClosureReport(dim_reached=dim, target_dim=target, basis=basis[:dim].copy())


def model_closure(params: ModelParams) -> CouplingClosure:
    """Closure of the binary family, the same at every energy, from V's coupling graph.

    Exact: a float entry of V is either zero or not.  The components are
    read off the boolean reachability matrix, squared until every path of
    up to N - 1 edges is in it (see the module docstring for the criterion).
    """
    reach = np.eye(params.n, dtype=int) + (params.v != 0)
    for _ in range(int(params.n).bit_length()):
        reach = np.minimum(reach @ reach, 1)
    components = tuple(sorted({tuple(np.flatnonzero(row).tolist()) for row in reach}))
    return CouplingClosure(components, sum(sp_dim(len(k)) for k in components), sp_dim(params.n))


def density_certificate(
    params: ModelParams, energy: float, closure: CouplingClosure, window: EnergyInterval
) -> DensityCertificate:
    """Check both density conditions for the binary family at one energy.

    ``norm_condition`` is ell * ||X_omega|| <= rho for all 2^N binary
    cells, decided as ell <= rho and ``window.contains(energy)`` on the
    model's ``energy_interval``: the same set in exact arithmetic, and so
    the window's own floats, ends included, are what certify.  The closure
    condition is ``closure.full``, the closure of ``model_closure``
    reaching 2N^2 + N at every energy.  A false norm condition is
    indeterminate (the criterion simply does not apply), not a refutation
    of density.  ``energy`` passes ``real``.
    """
    energy = real(energy, "energy")
    norm_ok = params.ell <= params.rho and window.contains(energy)
    return DensityCertificate(
        energy=energy,
        norm_condition=norm_ok,
        certified=norm_ok and closure.full,
        closure=closure,
        rho=params.rho,
    )


def tridiagonal_witness(n: int) -> np.ndarray:
    """Tridiagonal interaction with zero diagonal and unit off-diagonals.

    This matrix generates the full Lie algebra at every energy, which is
    what makes full closure the generic situation among symmetric
    interactions.
    """
    n = count(n, "n")
    v = np.zeros((n, n))
    idx = np.arange(n - 1)
    v[idx, idx + 1] = 1.0
    v[idx + 1, idx] = 1.0
    return v
