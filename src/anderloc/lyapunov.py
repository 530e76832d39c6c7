"""Lyapunov spectrum estimation for products of random transfer matrices.

The 2N exponents are growth rates of random products T_(n-1) ... T_0 of
i.i.d. cell transfer matrices: the sum of the top p exponents is the
limit of (1/n) E log ||wedge^p (T_(n-1) ... T_0)|| where wedge^p is the
exterior power.  The production estimator is the blocked discrete QR
recursion (Benettin; Geist, Parlitz & Lauterborn 1990): propagate an
orthogonal frame through k cells, re-orthogonalize it and accumulate the
logs of the R diagonal, with k bounded by the conditioning of the block
product; the exterior power only survives here as a direct small-scale
oracle built from compound matrices.

Exponents are reported per unit length (the accumulated logs are divided
by n * ell), so they are directly comparable with eigenfunction decay
rates and independent of the cell-length bookkeeping; multiply by ``ell``
to recover per-cell rates.  Symplecticity forces the symmetric spectrum
gamma, -gamma, so only the first N exponents carry information.  Each
exponent is the mean over independent replicas, with the standard error
of ``seeding._mean_stderr``, which reads 0 for a single replica.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InstabilityError, OracleRangeError, SingularMatrixError
from .linalg import qr_pos
from .model import _GROWTH_ADVICE, ModelParams, _guard_memory, count, path_table, reals, sample_path
from .seeding import _mean_stderr, as_seed, derive_seed, stream

__all__ = [
    "EstimatorConfig",
    "LyapunovSpectrum",
    "SeparabilityResult",
    "lyapunov_spectrum",
    "qr_log_diag_sums",
    "exterior_log_norm",
    "separability_scan",
]

_UNDERFLOW = 1e-290
_ORACLE_LOG_GUARD = 300.0

# Log of the largest condition number a renormalisation block may reach.
# A symplectic T has singular values in reciprocal pairs, so
# ||T^-1||_2 = ||T||_2 and cond_2(T) = ||T||_2^2.  For a block
# P = T_k ... T_1 with every log ||T_i||_2 <= g this gives
# cond_2(P) <= exp(2 k g), and the frame P Q (Q orthogonal) has the same
# condition number.  Each diagonal entry of its R is at least the smallest
# singular value, while forming the product and factoring it perturb R by
# about u ||P|| (u = 1.1e-16, times small constants in k and 2N), so the
# relative error of every log diag(R) entry of a block is at most about
# u exp(2 k g) <= u e^13 ~ 5e-11.  The block length is the largest k that
# keeps 2 k g within this spread; k = 1 is the per-cell recursion.
_LOG_SPREAD = 13.0
# Nearly orthogonal cells (g ~ 0) would allow any k; this cap keeps the
# factor k in the product's rounding small and bounds the per-block gather
# to _MAX_BLOCK matrices per replica.
_MAX_BLOCK = 256


@dataclass(frozen=True)
class EstimatorConfig:
    """Monte Carlo truncation of the infinite product limit.

    The expectation is estimated by averaging ``n_replicas`` independent
    sequences; the spread across replicas quantifies both truncation and
    sampling error.  ``burn_in`` discards the transient alignment of the
    orthogonal frame, which converges exponentially fast once the
    exponents separate.
    """

    n_steps: int
    n_replicas: int = 8
    burn_in: int = 100
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_steps", count(self.n_steps, "n_steps"))
        object.__setattr__(self, "n_replicas", count(self.n_replicas, "n_replicas"))
        object.__setattr__(self, "burn_in", count(self.burn_in, "burn_in", minimum=0))
        object.__setattr__(self, "master_seed", as_seed(self.master_seed))


@dataclass
class LyapunovSpectrum:
    """Estimated exponents (per unit length), nonincreasing, with replica standard errors.

    Only what the estimate produced: the energy and the estimator settings
    stay with the caller (``SeparabilityResult`` holds a scan's energy and
    seed).
    """

    gammas: np.ndarray
    stderrs: np.ndarray


@dataclass
class SeparabilityResult:
    """Statistical verdict on gamma_1 > ... > gamma_N > 0 at one energy.

    ``seed`` is the master seed that ``separability_scan`` derived for this
    energy and passed to ``lyapunov_spectrum``.
    """

    energy: float
    seed: int
    spectrum: LyapunovSpectrum
    separated: bool


def _renormalise(z: np.ndarray, where: str = "") -> tuple[np.ndarray, np.ndarray]:
    """One QR renormalisation step of a frame or a stack of frames: Q and log diag(R) from ``qr_pos``.

    A singular frame or an R diagonal entry at or below 1e-290 raises
    ``InstabilityError``; ``where`` is appended to the message.
    """
    # degenerate frames are an accumulation failure here, not a caller bug
    try:
        q, r = qr_pos(z)
    except SingularMatrixError as exc:
        raise InstabilityError(
            f"propagated frame became numerically singular{where}: {_GROWTH_ADVICE}"
        ) from exc
    d = np.diagonal(r, axis1=-2, axis2=-1)
    if np.min(d) <= _UNDERFLOW:
        raise InstabilityError(f"R diagonal underflow during QR accumulation{where}: {_GROWTH_ADVICE}")
    return q, np.log(d)


def _block_length(table: np.ndarray) -> int:
    """Cells per renormalisation block for this table (see ``_LOG_SPREAD``)."""
    g = float(np.log(np.max(np.linalg.norm(table, 2, axis=(1, 2)))))
    if 2.0 * g * _MAX_BLOCK <= _LOG_SPREAD:
        return _MAX_BLOCK
    return max(1, int(_LOG_SPREAD / (2.0 * g)))


def lyapunov_spectrum(params: ModelParams, energy: float, config: EstimatorConfig) -> LyapunovSpectrum:
    """Estimate all 2N exponents at one energy by the blocked QR recursion.

    Each replica propagates an orthogonal frame: sample cells, multiply by
    the transfer matrices of a block of k cells, re-factor with ``qr_pos``
    and accumulate log diag(R) after the burn-in.  The factorisation of
    the block product gives the same log-diagonal sums as k per-cell
    steps, up to rounding; k is the largest length, at most 256, whose
    worst-case condition number stays within ``exp(_LOG_SPREAD)``, and
    block boundaries fall on the burn-in.  Replica r draws from the stream
    derived from (master_seed, r), so runs are reproducible and replicas
    independent.  Partial sums of the sorted estimates approximate the
    exterior-power limits.

    Before anything is drawn, an estimate of 8 (3N + 5) bytes per cell and
    replica (the measured tracemalloc peak, N = 1-4: 57 to 129 bytes) above
    the physical memory raises ``SizeGuardError`` (``model._guard_memory``)
    naming ``n_steps``, ``burn_in``, ``n_replicas``, the estimate and the
    memory.
    """
    two_n = 2 * params.n
    total = config.burn_in + config.n_steps
    _guard_memory(8 * (3 * params.n + 5) * total * config.n_replicas,
                  f"the Lyapunov estimate at n_steps = {config.n_steps}, burn_in = {config.burn_in}, "
                  f"n_replicas = {config.n_replicas}", "decrease n_steps, burn_in or n_replicas")
    streams = (stream(derive_seed(config.master_seed, r)) for r in range(config.n_replicas))
    paths = np.stack([sample_path(params, total, rng) for rng in streams], axis=1)  # (total, n_replicas, N)
    table, inverse = path_table(params, paths, energy)
    k = _block_length(table)
    where = f" at E={energy:g} (blocks of {k} cells)"
    starts = [*range(0, config.burn_in, k), *range(config.burn_in, total, k)]

    q = np.broadcast_to(np.eye(two_n), (config.n_replicas, two_n, two_n)).copy()
    acc = np.zeros((config.n_replicas, two_n))
    for start, stop in zip(starts, [*starts[1:], total]):
        for cells in table[inverse[start:stop]]:
            q = cells @ q
        q, log_d = _renormalise(q, where)
        if start >= config.burn_in:
            acc += log_d

    means, stderrs = _mean_stderr(acc / (config.n_steps * params.ell))
    order = np.argsort(-means, kind="stable")
    return LyapunovSpectrum(gammas=means[order], stderrs=stderrs[order])


def qr_log_diag_sums(matrices: list[np.ndarray]) -> np.ndarray:
    """Accumulated log diag(R) of the QR recursion over an explicit matrix list.

    The i-th partial sum equals the log volume of the image of the span
    of the first i coordinate vectors under the full product (first list
    element applied first), which is what the production estimator
    accumulates; it bounds the corresponding exterior-power norm from
    below.
    """
    if not matrices:
        raise ValueError("need at least one matrix")
    n = matrices[0].shape[0]
    q = np.eye(n)
    acc = np.zeros(n)
    for m in matrices:
        q, log_d = _renormalise(np.asarray(m, dtype=float) @ q)
        acc += log_d
    return acc


def exterior_log_norm(matrices: list[np.ndarray], p: int) -> float:
    """log ||wedge^p (M_(n-1) ... M_0)|| via the explicit compound matrix.

    Builds the full product (first element applied first), forms the
    matrix of all p x p minors and returns the log of its induced 2-norm.
    Exact but exponentially expensive in p, so guarded to short products:
    the summed log norms of the factors must stay below 300.
    """
    if not matrices:
        raise ValueError("need at least one matrix")
    n = matrices[0].shape[0]
    if not 1 <= p <= n:
        raise ValueError(f"p must be in [1, {n}], got {p}")
    log_guard = 0.0
    prod = np.eye(n)
    for m in matrices:
        m = np.asarray(m, dtype=float)
        log_guard += math.log(np.linalg.norm(m, 2))
        if log_guard > _ORACLE_LOG_GUARD:
            raise OracleRangeError("product grows beyond the oracle's safe range (log norm > 300)")
        prod = m @ prod
    if p == 1:
        comp = prod
    else:
        sets = list(itertools.combinations(range(n), p))
        comp = np.empty((len(sets), len(sets)))
        for a, rows in enumerate(sets):
            sub = prod[np.ix_(rows, range(n))]
            for b, cols in enumerate(sets):
                comp[a, b] = np.linalg.det(sub[:, cols])
    return float(math.log(np.linalg.norm(comp, 2)))


def separability_scan(
    params: ModelParams,
    energy_grid: np.ndarray,
    config: EstimatorConfig,
) -> list[SeparabilityResult]:
    """Spectrum plus a separation verdict at each grid energy.

    The verdict is ``separated`` when every consecutive gap among the
    first N exponents exceeds three combined standard errors and the N-th
    exponent itself clears three of its own.  With 8 replicas, three
    standard errors of the replica spread make a one-sided test at about
    1.0% per comparison (Student t with 7 degrees of freedom:
    P(T > 3) = 0.0100), not the 0.13% of a normal law.  A compared
    standard error of 0 means there is no spread to measure, so the verdict
    is False (inconclusive): ``seeding._mean_stderr`` gives 0 for a single
    replica, and replicas that do not spread give 0 too.  These are
    statistical verdicts about strict inequalities, never proofs.  Grid
    energies are independent tasks: grid index i runs at the master seed
    derive_seed(master_seed, i), which its result holds as ``seed``.
    """
    n = params.n
    results = []
    for i, energy in enumerate(reals(energy_grid, "energy_grid")):
        seed = derive_seed(config.master_seed, i)
        spec = lyapunov_spectrum(params, energy, replace(config, master_seed=seed))
        g, se = spec.gammas, spec.stderrs
        ok = bool(np.all(se[:n] > 0)) and g[n - 1] > 3.0 * se[n - 1]  # one replica reads se = 0
        for k in range(n - 1):
            ok = ok and (g[k] - g[k + 1] > 3.0 * (se[k] + se[k + 1]))
        results.append(SeparabilityResult(energy=float(energy), seed=seed, spectrum=spec, separated=bool(ok)))
    return results
