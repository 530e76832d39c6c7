"""Lyapunov spectrum estimation for products of random transfer matrices.

The 2N exponents are growth rates of random products T_(n-1) ... T_0 of
i.i.d. cell transfer matrices: the sum of the top p exponents is the
limit of (1/n) E log ||wedge^p (T_(n-1) ... T_0)|| where wedge^p is the
exterior power.  The production estimator is the blocked discrete QR
recursion (Benettin; Geist, Parlitz & Lauterborn 1990): propagate an
orthogonal frame through k cells, re-orthogonalize it and accumulate the
logs of the R diagonal, with k bounded by the conditioning of the block
product; the exterior power only survives here as a direct small-scale
oracle built from compound matrices, and ``qr_log_diag_sums`` is the
per-cell recursion, the oracle of the blocked one.

``_spectra`` is the one recursion.  It runs a chunk of energies in
lockstep: each energy's disorder is drawn as atom indices and coded by one
row sort, each block product is a pairwise tree over its cells, and round
r renormalises block r of every energy and replica with one stacked QR.
``lyapunov_spectrum`` calls it at one energy and ``separability_scan``
once per chunk of energies, so an energy's result is the same alone, in
any chunk and at any place in the grid.

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
from .model import (_GROWTH_ADVICE, ModelParams, _distinct_rows, _guard_memory, count, reals, sample_indices,
                    transfer_table)
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
# A chunk of rounds holds at most _ROUND_BYTES of block products and of one
# energy's gathered cells (at least one round), as spectrum._inertia chunks its
# energies under _BAND_BYTES.  Larger chunks call numpy less often but raise the
# peak RSS: perfbench report-desk read 44.3 MB at 1 MB, 43.0 at 256 KB.
_ROUND_BYTES = 2**18
# separability_scan runs its energies in chunks whose row indices, transfer
# tables and frames (``_energy_bytes``) take at most _HELD_BYTES together (at
# least one energy): criterion 07's 20 energies of 80 100 cells fit in one.
_HELD_BYTES = 16 * 2**20


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


def _energy_bytes(params: ModelParams, n_replicas: int, cells: int) -> int:
    """Bytes that ``_spectra`` holds per energy of ``cells`` drawn cells until its recursion ends.

    That is the row index of every cell, in the smallest unsigned dtype that
    numbers the distinct ones (at most len(atoms)^N), their transfer table,
    and eight frames per replica: the frame, its block product and the
    stacked QR's temporaries.
    """
    distinct = min(len(params.disorder.atoms) ** params.n, cells)
    return (np.min_scalar_type(distinct - 1).itemsize * cells
            + 8 * (2 * params.n) ** 2 * (distinct + 8 * n_replicas))


def _block_products(table: np.ndarray, index: np.ndarray, k: int, starts: np.ndarray,
                    stops: np.ndarray) -> np.ndarray:
    """Products T_(stop-1) ... T_start of each block [start, stop) of at most k cells and each replica.

    ``index`` (cells, replicas) numbers each cell's row of ``table``.  Each
    block is gathered as k matrices, a short one padded at its end with
    identities, which multiply exactly; a pairwise tree then multiplies
    neighbouring pairs of every block and replica at once, level by level,
    and carries an odd last entry up a level, so a block's product does not
    depend on the blocks gathered with it.  Returns (blocks, replicas, 2N, 2N).
    """
    pos = starts[:, None] + np.arange(k)
    x = table[index[np.minimum(pos, stops[:, None] - 1)]]
    x[pos >= stops[:, None]] = np.eye(table.shape[-1])
    while x.shape[1] > 1:
        pairs = x.shape[1] // 2
        y = x[:, 1:2 * pairs:2] @ x[:, 0:2 * pairs:2]
        x = np.concatenate([y, x[:, 2 * pairs:]], axis=1) if x.shape[1] % 2 else y
    return x[:, 0]


def _spectra(params: ModelParams, energies: np.ndarray, configs: list[EstimatorConfig]) -> list[LyapunovSpectrum]:
    """The blocked QR recursion at each energy, all energies in lockstep.

    Every energy keeps its own seed (``configs``, which share ``n_steps``,
    ``n_replicas`` and ``burn_in``), path, transfer table, block length k
    and block bounds, so its result does not depend on the other energies.
    Replica r draws the atom indices of its cells from the stream derived
    from (master_seed, r) (``model.sample_indices``); one row sort over
    all replicas (``model._distinct_rows``) finds the distinct cells, and
    only those are mapped to atom values and transferred.  Round r
    multiplies block r of every energy and replica into its frame and
    renormalises all frames with one stacked ``qr_pos``; an energy whose
    blocks are done gets the identity and adds nothing to its sums.  The
    block products of a chunk of rounds are built at once, within
    ``_ROUND_BYTES`` of gathered transfer matrices.  A stacked
    renormalisation that fails is repeated energy by energy in grid order,
    so its ``InstabilityError`` names the first energy whose frames fail in
    that round, "at E=... (blocks of k cells)".
    """
    config = configs[0]
    n_replicas, burn_in = config.n_replicas, config.burn_in
    two_n = 2 * params.n
    total = burn_in + config.n_steps
    cells = total * n_replicas
    widest = min(_MAX_BLOCK, max(burn_in, config.n_steps))  # k beyond it would only pad every block
    # the measured peak: 25 + 2 N bytes per cell and replica to draw and sort one energy's rows; the index
    # and table of every energy, and transfer_table's temporaries at one energy (three tables); a chunk
    # of rounds and its tree (twice the budget, or twice a round at the longest block)
    _guard_memory((25 + 2 * params.n) * cells + (len(energies) + 3) * _energy_bytes(params, n_replicas, cells)
                  + 2 * max(_ROUND_BYTES, 8 * two_n * two_n * n_replicas * (len(energies) + widest)),
                  f"the Lyapunov estimate at n_steps = {config.n_steps}, burn_in = {burn_in}, "
                  f"n_replicas = {n_replicas}", "decrease n_steps, burn_in or n_replicas")
    values = params.disorder.values
    runs = []  # per energy: its table, each cell's row of it, k, and the block starts and stops
    for energy, cfg in zip(energies, configs):
        streams = (stream(derive_seed(cfg.master_seed, r)) for r in range(n_replicas))
        distinct, index = _distinct_rows(np.stack([sample_indices(params, total, rng) for rng in streams], axis=1))
        table = transfer_table(params, values[distinct], energy)
        k = min(_block_length(table), widest)
        starts = np.array([*range(0, burn_in, k), *range(burn_in, total, k)])
        runs.append((table, index, k, starts, np.append(starts[1:], total)))
    ks = [k for _, _, k, _, _ in runs]
    rounds = np.array([len(starts) for _, _, _, starts, _ in runs])
    first = np.array([-(-burn_in // k) for k in ks])  # the first round after the burn-in
    n_rounds = int(rounds.max())

    eye = np.eye(two_n)
    q = np.broadcast_to(eye, (len(energies), n_replicas, two_n, two_n)).copy()
    acc = np.zeros((len(energies), n_replicas, two_n))
    # a round holds the products of every energy and one energy's k gathered cells
    step = max(1, _ROUND_BYTES // (8 * two_n * two_n * n_replicas * (len(energies) + max(ks))))
    for r0 in range(0, n_rounds, step):
        products = np.broadcast_to(eye, (min(step, n_rounds - r0), *q.shape)).copy()
        for e, (table, index, k, starts, stops) in enumerate(runs):
            if r0 < rounds[e]:
                products[:rounds[e] - r0, e] = _block_products(table, index, k, starts[r0:r0 + step],
                                                               stops[r0:r0 + step])
        for r, product in enumerate(products, r0):
            z = product @ q
            try:
                q, log_d = _renormalise(z)
            except InstabilityError:
                for e, (energy, k) in enumerate(zip(energies, ks)):  # name the first failing energy in grid order
                    _renormalise(z[e], f" at E={energy:g} (blocks of {k} cells)")
                raise
            live = (r >= first) & (r < rounds)
            acc[live] += log_d[live]

    spectra = []
    for sums in acc:
        means, stderrs = _mean_stderr(sums / (config.n_steps * params.ell))
        order = np.argsort(-means, kind="stable")
        spectra.append(LyapunovSpectrum(gammas=means[order], stderrs=stderrs[order]))
    return spectra


def lyapunov_spectrum(params: ModelParams, energy: float, config: EstimatorConfig) -> LyapunovSpectrum:
    """Estimate all 2N exponents at one energy by the blocked QR recursion (``_spectra`` at one energy).

    Each replica propagates an orthogonal frame: sample cells, multiply by
    the product of a block of k cells, re-factor with ``qr_pos`` and
    accumulate log diag(R) after the burn-in.  The factorisation of the
    block product gives the same log-diagonal sums as k per-cell steps, up
    to rounding; k is the largest length, at most 256, whose worst-case
    condition number stays within ``exp(_LOG_SPREAD)``, block boundaries
    fall on the burn-in, and each block's product is a pairwise tree over
    its cells.  Replica r draws from the stream derived from
    (master_seed, r), so runs are reproducible and replicas independent.
    Partial sums of the sorted estimates approximate the exterior-power
    limits.

    Before anything is drawn, ``_spectra`` refuses an estimate of its peak
    above the physical memory with ``SizeGuardError``
    (``model._guard_memory``), naming ``n_steps``, ``burn_in``,
    ``n_replicas``, the estimate and the memory.  Per cell and replica it
    counts 25 + 2 N bytes to draw and sort the rows plus the index of every
    energy of the chunk: the measured tracemalloc peak at one energy is 27,
    29, 31 and 33 bytes at N = 1-4 (41 at N = 8), where the estimate reads 31
    to 37.  It adds the transfer tables, the frames and one chunk of rounds.
    """
    return _spectra(params, [energy], [config])[0]


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
    energies = reals(energy_grid, "energy_grid")
    seeds = [derive_seed(config.master_seed, i) for i in range(len(energies))]
    size = max(1, _HELD_BYTES // _energy_bytes(params, config.n_replicas,
                                                (config.burn_in + config.n_steps) * config.n_replicas))
    results = []
    for c0 in range(0, len(energies), size):
        chunk = slice(c0, c0 + size)
        spectra = _spectra(params, energies[chunk], [replace(config, master_seed=seed) for seed in seeds[chunk]])
        for energy, seed, spec in zip(energies[chunk], seeds[chunk], spectra):
            g, se = spec.gammas, spec.stderrs
            ok = bool(np.all(se[:n] > 0)) and g[n - 1] > 3.0 * se[n - 1]  # one replica reads se = 0
            for k in range(n - 1):
                ok = ok and (g[k] - g[k + 1] > 3.0 * (se[k] + se[k + 1]))
            results.append(SeparabilityResult(energy=float(energy), seed=seed, spectrum=spec, separated=bool(ok)))
    return results
