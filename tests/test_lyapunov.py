"""Lyapunov estimator checks: closed forms, symmetry, exterior-power oracle."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import anderloc.lyapunov
from anderloc.errors import InstabilityError, OracleRangeError, SingularMatrixError, SizeGuardError
from anderloc.furstenberg import model_closure, tridiagonal_witness
from anderloc.linalg import qr_pos
from anderloc.lyapunov import (
    EstimatorConfig,
    exterior_log_norm,
    lyapunov_spectrum,
    qr_log_diag_sums,
    separability_scan,
)
import anderloc.model
from anderloc.model import (
    DisorderSpec,
    ModelParams,
    path_table,
    sample_cell,
    sample_path,
    transfer,
    transfer_table,
)
from anderloc.seeding import _mean_stderr, derive_seed, stream


def make_params(n=1, v=None, c=None, ell=0.1, disorder=None):
    v = np.zeros((n, n)) if v is None else v
    c = np.ones(n) if c is None else c
    disorder = DisorderSpec.bernoulli() if disorder is None else disorder
    return ModelParams(n=n, v=v, c=c, ell=ell, disorder=disorder)


def sampled_transfers(params, energy, count, seed):
    rng = stream(seed)
    return [transfer(params, sample_cell(params, rng), energy) for _ in range(count)]


def replica_draws(params, cfg, replica):
    """Atom indices of one replica, drawn exactly as ``lyapunov_spectrum`` draws them."""
    total = cfg.burn_in + cfg.n_steps
    rng = stream(derive_seed(cfg.master_seed, replica))
    return rng.choice(len(params.disorder.atoms), size=(total, params.n), p=params.disorder.probabilities)


class TestClosedForms:
    @pytest.mark.parametrize("ell", [1.0, 0.5])
    def test_deterministic_hyperbolic_exponent_is_one(self, ell):
        # constant cell matrix m = 1: eigenvalues exp(+-ell), unit rate per length
        params = make_params(v=np.array([[1.0]]), ell=ell, disorder=DisorderSpec.point(0.0))
        spec = lyapunov_spectrum(params, 0.0, EstimatorConfig(n_steps=5000, n_replicas=2))
        assert abs(spec.gammas[0] - 1.0) <= 1e-6
        assert abs(spec.gammas[1] + 1.0) <= 1e-6
        assert np.all(spec.stderrs <= 1e-12)

    def test_free_elliptic_exponent_vanishes(self):
        # pure rotation cells keep every product bounded
        params = make_params(ell=0.3, disorder=DisorderSpec.point(0.0))
        spec = lyapunov_spectrum(params, 1.0, EstimatorConfig(n_steps=20000, n_replicas=2))
        assert abs(spec.gammas[0]) <= 5e-3

    def test_disordered_single_channel_is_positive(self):
        params = make_params()
        spec = lyapunov_spectrum(params, 0.3, EstimatorConfig(n_steps=20000, master_seed=1))
        assert spec.gammas[0] > 10 * spec.stderrs[0]
        assert abs(spec.gammas[0] - 0.43) < 0.05  # magnitude from longer reference runs


class TestSpectrumStructure:
    def test_sorted_and_symmetric(self):
        rng = np.random.default_rng(41)
        for n in (1, 2):
            v = rng.standard_normal((n, n))
            params = make_params(n=n, v=v + v.T, c=rng.uniform(0.5, 2.0, n))
            spec = lyapunov_spectrum(params, 0.4, EstimatorConfig(n_steps=8000, master_seed=2))
            g, se = spec.gammas, spec.stderrs
            assert np.all(np.diff(g) <= 1e-15)
            for i in range(2 * n):
                j = 2 * n - 1 - i
                assert abs(g[i] + g[j]) <= 3.0 * (se[i] + se[j]) + 1e-9

    def test_bit_identical_reproduction(self):
        params = make_params(n=2, v=np.array([[0.0, 1.0], [1.0, 0.0]]), c=np.ones(2))
        cfg = EstimatorConfig(n_steps=2000, master_seed=99)
        a = lyapunov_spectrum(params, 0.8, cfg)
        b = lyapunov_spectrum(params, 0.8, cfg)
        assert np.array_equal(a.gammas, b.gammas)
        assert np.array_equal(a.stderrs, b.stderrs)

    def test_doubling_steps_is_consistent(self):
        # statistical self-consistency of the truncated limit, fixed seeds
        params = make_params()
        passes = 0
        for seed in range(12):
            short = lyapunov_spectrum(params, 0.3, EstimatorConfig(2000, 4, master_seed=seed))
            long = lyapunov_spectrum(params, 0.3, EstimatorConfig(4000, 4, master_seed=seed))
            tol = 5.0 * max(long.stderrs[0], 1e-12)
            passes += abs(short.gammas[0] - long.gammas[0]) <= tol
        assert passes >= 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(n_steps=0)
        with pytest.raises(ValueError):
            EstimatorConfig(n_steps=10, n_replicas=0)
        with pytest.raises(ValueError):
            EstimatorConfig(n_steps=10, burn_in=-1)

    @pytest.mark.parametrize("n_steps, n_replicas", [(10**12, 8), (400, 10**12)])
    def test_a_draw_beyond_physical_memory_is_refused_before_drawing(self, monkeypatch, n_steps, n_replicas):
        # numpy used to fail allocating 10^12 steps (14.6 TiB); 10^12 replicas ran on for minutes
        drawn = []
        monkeypatch.setattr(anderloc.lyapunov, "sample_indices", lambda *args: drawn.append(args))
        cfg = EstimatorConfig(n_steps=n_steps, n_replicas=n_replicas)
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuardError, match="^" + re.escape(
                    f"the Lyapunov estimate at n_steps = {n_steps}, burn_in = 100, n_replicas = {n_replicas} "
                    "needs about ") + r"[0-9.e+]+ GB, more than the [0-9.]+ GB of physical memory; "
                    "decrease n_steps, burn_in or n_replicas$"):
                lyapunov_spectrum(make_params(n=2, v=tridiagonal_witness(2)), 0.5, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6 and drawn == []


class TestExteriorOracle:
    def test_single_power_is_two_norm(self):
        m = np.array([[math.cosh(1), math.sinh(1)], [math.sinh(1), math.cosh(1)]])
        assert abs(exterior_log_norm([m], 1) - 1.0) <= 1e-12

    def test_top_power_is_log_determinant(self):
        params = make_params(n=2, v=np.array([[0.0, 1.0], [1.0, 0.0]]), c=np.ones(2))
        mats = sampled_transfers(params, 0.5, 12, seed=5)
        assert abs(exterior_log_norm(mats, 4)) <= 1e-10

    def test_overflow_guard(self):
        big = np.diag([math.exp(200.0), math.exp(-200.0)])
        with pytest.raises(OracleRangeError):
            exterior_log_norm([big, big], 1)

    def test_invalid_power_rejected(self):
        with pytest.raises(ValueError):
            exterior_log_norm([np.eye(2)], 3)


class TestQrVersusOracle:
    def test_exact_on_orthogonal_products(self):
        # elliptic model cells are rotations: every exterior norm is zero
        params = make_params(n=2, ell=0.35, disorder=DisorderSpec.point(0.0))
        mats = sampled_transfers(params, 1.0, 10, seed=6)
        acc = qr_log_diag_sums(mats)
        for p in range(1, 5):
            assert abs(acc[:p].sum() - exterior_log_norm(mats, p)) <= 1e-10

    def test_exact_on_graded_diagonal_products(self):
        rng = stream(7)
        mats = []
        for _ in range(10):
            u1, u2 = rng.uniform(1.5, 2.0), rng.uniform(0.5, 1.0)
            mats.append(np.diag([math.exp(u1), math.exp(u2), math.exp(-u1), math.exp(-u2)]))
        acc = qr_log_diag_sums(mats)
        # positions stay sorted only down to the reciprocal pairs, so p in {1, 2, 4}
        for p in (1, 2, 4):
            value = exterior_log_norm(mats, p)
            assert abs(acc[:p].sum() - value) <= 1e-9 * max(1.0, abs(value))

    def test_partial_sums_bound_the_oracle(self):
        params = make_params(n=2, v=np.array([[0.0, 1.0], [1.0, 0.0]]), c=np.ones(2))
        mats = sampled_transfers(params, 0.5, 10, seed=8)
        acc = qr_log_diag_sums(mats)
        for p in range(1, 5):
            assert acc[:p].sum() <= exterior_log_norm(mats, p) + 1e-9

    def test_growth_rates_converge(self):
        params = make_params(n=2, v=np.array([[0.0, 1.0], [1.0, 0.0]]), c=np.ones(2))
        mats = sampled_transfers(params, -1.0, 400, seed=9)
        acc = qr_log_diag_sums(mats)
        for p in (1, 2):
            rate_qr = acc[:p].sum() / len(mats)
            rate_oracle = exterior_log_norm(mats, p) / len(mats)
            assert abs(rate_qr - rate_oracle) <= 0.05 * max(1.0, abs(rate_oracle))

    def test_underflow_guard(self):
        tiny = np.diag([1e-295, 1e295])
        with pytest.raises(InstabilityError):
            qr_log_diag_sums([tiny])

    def test_r_diagonal_underflow_guard(self):
        # a well-conditioned frame, so qr_pos accepts it, whose R diagonal lies below 1e-290
        with pytest.raises(InstabilityError, match="^R diagonal underflow during QR accumulation: "):
            qr_log_diag_sums([1e-300 * np.eye(2)])

    @pytest.mark.parametrize("oracle", [qr_log_diag_sums, lambda matrices: exterior_log_norm(matrices, 1)])
    def test_empty_product_rejected(self, oracle):
        with pytest.raises(ValueError, match="^need at least one matrix$"):
            oracle([])

    def test_singular_frame_names_energy_and_block(self, monkeypatch):
        def singular(z):
            raise SingularMatrixError("matrix is numerically singular in qr_pos")

        monkeypatch.setattr(anderloc.lyapunov, "qr_pos", singular)
        with pytest.raises(InstabilityError, match=r"at E=0\.3 \(blocks of \d+ cells\).*decrease ell"):
            lyapunov_spectrum(make_params(), 0.3, EstimatorConfig(n_steps=10, n_replicas=2))

    def test_instability_advice_names_ell(self):
        # far below the spectrum the per-cell growth exp(ell * 1000) swamps the frame
        params = make_params(n=2, v=tridiagonal_witness(2), c=np.ones(2))
        with pytest.raises(InstabilityError, match="decrease ell"):
            lyapunov_spectrum(params, -1e6, EstimatorConfig(n_steps=10, n_replicas=2))


class TestBlockedRecursion:
    """The blocked driver against the per-cell recursion on the same draws."""

    WITNESS = dict(n=2, v=tridiagonal_witness(2), c=np.ones(2))

    @pytest.mark.parametrize(
        "ell, energy, burn_in, n_steps, blocks",
        [
            (0.1, -1.0, 100, 2000, None),
            # k = 17 here, so one block ends exactly at the burn-in and one holds all 13 steps
            (0.1, -4.5, 7, 13, 2),
            (0.1, 0.3, 0, 500, None),
            # 2 ell sqrt(kappa) > 13: one cell per block
            (1.0, -30.0, 5, 200, 205),
        ],
    )
    def test_matches_per_cell_recursion(self, monkeypatch, ell, energy, burn_in, n_steps, blocks):
        params = make_params(ell=ell, **self.WITNESS)
        cfg = EstimatorConfig(n_steps=n_steps, n_replicas=1, burn_in=burn_in, master_seed=31)
        calls = []

        def counted(z):
            calls.append(z)
            return qr_pos(z)

        monkeypatch.setattr(anderloc.lyapunov, "qr_pos", counted)
        spec = lyapunov_spectrum(params, energy, cfg)
        if blocks is None:
            assert len(calls) < (burn_in + n_steps) / 10
        else:
            assert len(calls) == blocks

        values = params.disorder.values
        mats = [transfer(params, values[row], energy) for row in replica_draws(params, cfg, 0)]
        acc = qr_log_diag_sums(mats)
        if burn_in:
            acc = acc - qr_log_diag_sums(mats[:burn_in])
        oracle = np.sort(acc / (n_steps * ell))[::-1]
        assert np.all(np.abs(spec.gammas - oracle) <= 1e-10 * np.maximum(1.0, np.abs(oracle)))

    def test_path_table_beyond_int64_codes(self, monkeypatch):
        # 3**41 > 2**63: a positional code over all channels would overflow; the row sort needs none
        params = make_params(n=41, disorder=DisorderSpec(((0.0, 0.3), (1.0, 0.3), (2.0, 0.4))))
        cfg = EstimatorConfig(n_steps=3, n_replicas=3, burn_in=2, master_seed=8)
        idx = np.stack([replica_draws(params, cfg, r) for r in range(cfg.n_replicas)], axis=1)
        uniq, inverse = np.unique(idx.reshape(-1, params.n), axis=0, return_inverse=True)
        values = params.disorder.values
        table, index = path_table(params, values[idx], 0.5)
        assert np.array_equal(table, transfer_table(params, values[uniq], 0.5))
        assert np.array_equal(index, inverse.reshape(idx.shape[:-1]))

        seen = []

        def recorded(p, configs, energy):
            seen.append(configs)
            return transfer_table(p, configs, energy)

        monkeypatch.setattr(anderloc.lyapunov, "transfer_table", recorded)
        lyapunov_spectrum(params, 0.5, cfg)
        assert len(seen) == 1 and np.array_equal(seen[0], values[uniq])

    @pytest.mark.parametrize("n, rows", [(1, 400), (38, 400), (39, 400), (40, 400), (41, 400), (80, 400), (2, 0)])
    def test_path_table_sorts_cells_as_unique_rows(self, monkeypatch, n, rows):
        # distinct cells sorted first channel first, as np.unique(axis=0) sorts them; repeated rows, and an empty path
        rng = stream(derive_seed(41, n))
        idx = rng.integers(0, 3, size=(60, n))[rng.integers(0, 60, size=rows)]
        want_uniq, want_inverse = np.unique(idx, axis=0, return_inverse=True)
        monkeypatch.setattr(anderloc.model, "transfer_table", lambda p, configs, energy: configs)
        got_uniq, got_index = path_table(make_params(n=n), idx.astype(float), 0.5)
        assert np.array_equal(got_uniq, want_uniq)
        assert got_index.shape == (rows,) and np.array_equal(got_index, want_inverse.ravel())

    def test_replicas_draw_sample_paths(self, monkeypatch):
        three_atoms = DisorderSpec(((0.0, 0.3), (1.0, 0.3), (2.0, 0.4)))
        params = make_params(n=2, v=tridiagonal_witness(2), disorder=three_atoms)
        cfg = EstimatorConfig(n_steps=40, n_replicas=3, burn_in=5, master_seed=12)
        original = anderloc.lyapunov._distinct_rows
        seen = []

        def recorded(rows):
            seen.append(rows)
            return original(rows)

        monkeypatch.setattr(anderloc.lyapunov, "_distinct_rows", recorded)
        lyapunov_spectrum(params, 0.5, cfg)
        total = cfg.burn_in + cfg.n_steps
        assert len(seen) == 1 and seen[0].dtype == np.uint8
        for r in range(cfg.n_replicas):
            drawn = params.disorder.values[replica_draws(params, cfg, r)]
            assert np.array_equal(params.disorder.values[seen[0][:, r]], drawn)
            assert np.array_equal(sample_path(params, total, stream(derive_seed(cfg.master_seed, r))), drawn)


class TestLockstep:
    """``_spectra`` runs every energy in lockstep; each energy's result must not depend on the others."""

    DESK = dict(n=2, v=tridiagonal_witness(2), c=np.ones(2))

    def test_every_energy_alone_batched_and_reversed_is_bit_identical(self, monkeypatch):
        params = make_params(**self.DESK)
        energies = np.array([-4.5, 0.0, -2.0])
        configs = [EstimatorConfig(600, 4, burn_in=30, master_seed=derive_seed(9, i)) for i in range(3)]
        ks = []
        original = anderloc.lyapunov._block_length
        monkeypatch.setattr(anderloc.lyapunov, "_block_length", lambda table: ks.append(original(table)) or ks[-1])
        batched = anderloc.lyapunov._spectra(params, energies, configs)
        assert ks == [17, 43, 26]
        reversed_ = anderloc.lyapunov._spectra(params, energies[::-1], configs[::-1])[::-1]
        for energy, config, a, b in zip(energies, configs, batched, reversed_):
            alone = lyapunov_spectrum(params, energy, config)
            for spec in (a, b):
                assert np.array_equal(spec.gammas, alone.gammas) and np.array_equal(spec.stderrs, alone.stderrs)

    def test_energy_chunks_leave_every_energy_unchanged(self, monkeypatch):
        params = make_params(**self.DESK)
        grid = [-4.5, 0.0, -2.0, -1.0, -3.0]
        cfg = EstimatorConfig(400, 4, burn_in=20, master_seed=13)
        whole = separability_scan(params, grid, cfg)
        chunks = []
        original = anderloc.lyapunov._spectra
        monkeypatch.setattr(anderloc.lyapunov, "_spectra", lambda p, e, c: chunks.append(len(e)) or original(p, e, c))
        held = anderloc.lyapunov._energy_bytes(params, cfg.n_replicas, (cfg.burn_in + cfg.n_steps) * cfg.n_replicas)
        monkeypatch.setattr(anderloc.lyapunov, "_HELD_BYTES", 2 * held + 1)
        chunked = separability_scan(params, grid, cfg)
        assert chunks == [2, 2, 1]
        for a, b in zip(whole, chunked):
            assert (a.energy, a.seed, a.separated) == (b.energy, b.seed, b.separated)
            assert np.array_equal(a.spectrum.gammas, b.spectrum.gammas)
            assert np.array_equal(a.spectrum.stderrs, b.spectrum.stderrs)

    def test_the_first_failing_energy_in_grid_order_is_named(self, monkeypatch):
        # tables scaled by 1e-300 make every block product underflow to the zero matrix
        def scaled(p, configs, energy):
            table = transfer_table(p, configs, energy)
            return table * 1e-300 if energy in (2.0, 3.0) else table

        monkeypatch.setattr(anderloc.lyapunov, "transfer_table", scaled)
        params = make_params()
        cfg = EstimatorConfig(n_steps=10, n_replicas=2, burn_in=0)
        for grid, named in (([0.3, 2.0], "2"), ([0.3, 3.0, 2.0], "3"), ([2.0, 0.3, 3.0], "2")):
            with pytest.raises(InstabilityError, match=rf"^propagated frame became numerically singular at "
                                                        rf"E={named} \(blocks of 10 cells\): .*decrease ell"):
                separability_scan(params, grid, cfg)
        assert separability_scan(params, [0.3], cfg)[0].spectrum.gammas[0] > 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("atoms", [2, 3])
    def test_matches_the_per_cell_recursion_on_the_same_draws(self, n, atoms):
        law = DisorderSpec.bernoulli() if atoms == 2 else DisorderSpec(((0.0, 0.3), (1.0, 0.3), (2.0, 0.4)))
        params = make_params(n=n, v=tridiagonal_witness(n), c=np.linspace(1.0, 1.5, n), disorder=law)
        cfg = EstimatorConfig(n_steps=1000, n_replicas=2, burn_in=40, master_seed=17)
        spec = lyapunov_spectrum(params, 0.3, cfg)
        sums = []
        for r in range(cfg.n_replicas):
            mats = [transfer(params, params.disorder.values[row], 0.3) for row in replica_draws(params, cfg, r)]
            sums.append(qr_log_diag_sums(mats) - qr_log_diag_sums(mats[:cfg.burn_in]))
        means, stderrs = _mean_stderr(np.array(sums) / (cfg.n_steps * params.ell))
        order = np.argsort(-means, kind="stable")
        assert np.max(np.abs(spec.gammas - means[order])) <= 1e-12
        assert np.max(np.abs(spec.stderrs - stderrs[order])) <= 1e-12


class TestComponentUnion:
    """Cross-layer oracle: a disconnected coupling graph splits the spectrum.

    V is block-diagonal over the components of its coupling graph, so each
    transfer matrix is, up to a permutation of the Cauchy data, the direct
    sum of the component sub-models' ones.  An identity frame stays split
    under the QR recursion, so on the same draws every replica's exponents
    are the union of the components' and the estimate is their sorted union.
    """

    def test_spectrum_is_the_union_over_components(self, monkeypatch):
        v = np.array([[0.4, -1.0, 0.0], [-1.0, 0.2, 0.0], [0.0, 0.0, -0.3]])
        params = make_params(n=3, v=v, c=np.array([1.0, -1.5, 2.0]))
        components = [list(k) for k in model_closure(params).components]
        assert components == [[0, 1], [2]]
        cfg = EstimatorConfig(n_steps=2000, n_replicas=4, burn_in=50, master_seed=5)
        original = anderloc.lyapunov.sample_indices
        for energy in (-2.0, 0.7, 3.0):
            draws = []

            def recorded(p, n_cells, rng):
                draws.append(original(p, n_cells, rng))
                return draws[-1]

            monkeypatch.setattr(anderloc.lyapunov, "sample_indices", recorded)
            full = lyapunov_spectrum(params, energy, cfg)
            assert len(draws) == cfg.n_replicas
            parts = []
            for ix in components:
                replay = iter(draws)
                monkeypatch.setattr(anderloc.lyapunov, "sample_indices", lambda p, n_cells, rng: next(replay)[:, ix])
                sub = make_params(n=len(ix), v=v[np.ix_(ix, ix)], c=params.c[ix])
                spec = lyapunov_spectrum(sub, energy, cfg)
                parts.extend(zip(spec.gammas, spec.stderrs))
            gammas, stderrs = np.array(sorted(parts, key=lambda pair: -pair[0])).T
            assert np.max(np.abs(full.gammas - gammas)) <= 1e-12, energy
            assert np.max(np.abs(full.stderrs - stderrs)) <= 1e-12, energy


class TestSeparabilityScan:
    def test_single_channel_verdicts(self):
        params = make_params()
        results = separability_scan(params, [0.3, 0.5], EstimatorConfig(10000, master_seed=3))
        assert [r.energy for r in results] == [0.3, 0.5]
        assert all(r.separated for r in results)

    def test_noise_dominated_run_is_inconclusive(self):
        # a short run at a weakly localized energy cannot clear the 3 sigma bar
        params = make_params()
        results = separability_scan(params, [2.0], EstimatorConfig(200, 4, master_seed=4))
        assert not results[0].separated

    def test_single_replica_is_inconclusive(self):
        # one replica has no spread to measure, so a positive estimate proves nothing
        params = make_params()
        results = separability_scan(params, [2.0], EstimatorConfig(200, 1, master_seed=4))
        assert results[0].spectrum.gammas[0] > 0
        assert not results[0].separated

    def test_replicas_without_spread_are_inconclusive(self):
        # a point law makes every replica the same free operator (exact gamma 0): the finite-n estimate is
        # positive and its replica spread exactly 0
        params = make_params(disorder=DisorderSpec.point(0.0))
        results = separability_scan(params, [3.0, 5.0], EstimatorConfig(2000))
        for r in results:
            assert r.spectrum.gammas[0] > 0 and r.spectrum.stderrs[0] == 0.0
            assert not r.separated

    def test_grid_neighbours_leave_an_energy_unchanged(self):
        params = make_params(n=2, v=tridiagonal_witness(2), c=np.ones(2))
        cfg = EstimatorConfig(1000, master_seed=6)
        alone = separability_scan(params, [0.3], cfg)[0].spectrum
        paired = separability_scan(params, [0.3, 0.5], cfg)[0].spectrum
        assert np.array_equal(alone.gammas, paired.gammas)
        assert np.array_equal(alone.stderrs, paired.stderrs)

    # [True] used to run at E = 1
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), True, "0.5"])
    def test_grid_passes_the_number_rule(self, bad):
        with pytest.raises(ValueError, match="^energy_grid entries must be finite real numbers"):
            separability_scan(make_params(), [0.3, bad], EstimatorConfig(10))

    def test_each_result_holds_the_seed_of_its_spectrum(self):
        params = make_params()
        cfg = EstimatorConfig(500, master_seed=5)
        for i, r in enumerate(separability_scan(params, [0.3, 0.5], cfg)):
            assert r.seed == derive_seed(5, i)
            alone = lyapunov_spectrum(params, r.energy, replace(cfg, master_seed=r.seed))
            assert np.array_equal(alone.gammas, r.spectrum.gammas)
            assert np.array_equal(alone.stderrs, r.spectrum.stderrs)

    def test_energies_use_independent_streams(self):
        params = make_params()
        r1 = separability_scan(params, [0.3], EstimatorConfig(2000, master_seed=5))
        r2 = separability_scan(params, [0.5, 0.3], EstimatorConfig(2000, master_seed=5))
        # same energy lands at a different grid index, hence a different stream
        assert r1[0].spectrum.gammas[0] != r2[1].spectrum.gammas[0]


class TestMeanStderr:
    def test_scaling_by_a_power_of_two_is_exact(self):
        x = stream(11).normal(size=(8, 3))
        mean, err = _mean_stderr(x)
        assert np.array_equal(err, x.std(axis=0, ddof=1) / math.sqrt(8))
        # at 2^900 the unscaled squares overflow to inf
        big_mean, big_err = _mean_stderr(x * 2.0**900)
        assert np.array_equal(big_mean, mean * 2.0**900)
        assert np.array_equal(big_err, err * 2.0**900)

    def test_columns_without_spread_read_zero(self):
        x = np.array([[0.0, 1e300, 2.0], [0.0, 1e300, 2.0]])
        assert np.array_equal(_mean_stderr(x)[1], np.zeros(3))
        assert np.array_equal(_mean_stderr(x[:1])[1], np.zeros(3))
