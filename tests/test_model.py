"""Model-level checks: cell objects, spectral constants, the certified window."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from anderloc.errors import DimensionError, InstabilityError, SizeGuardError
from anderloc.linalg import is_hamiltonian, is_symplectic
from anderloc.model import (
    DEFAULT_RHO,
    DisorderSpec,
    EnergyInterval,
    ModelParams,
    binary_cells,
    cell_matrix,
    energy_interval,
    generator,
    generator_norm,
    radius,
    real,
    reals,
    path_table,
    sample_cell,
    sample_path,
    spectral_bounds,
    transfer,
    transfer_table,
)
from anderloc.seeding import stream


def make_params(n=1, v=None, c=None, ell=0.1, rho=DEFAULT_RHO, disorder=None):
    v = np.zeros((n, n)) if v is None else v
    c = np.ones(n) if c is None else c
    disorder = DisorderSpec.bernoulli() if disorder is None else disorder
    return ModelParams(n=n, v=v, c=c, ell=ell, rho=rho, disorder=disorder)


V0_2 = np.array([[0.0, 1.0], [1.0, 0.0]])
THREE_ATOMS = DisorderSpec(((0.0, 0.3), (1.0, 0.3), (2.5, 0.4)))


def assert_matches_expm(params, configs, energy):
    table = transfer_table(params, configs, energy)
    assert table.shape == (len(configs), 2 * params.n, 2 * params.n)
    for t, omega in zip(table, configs):
        want = expm(params.ell * generator(params, omega, energy))
        assert np.linalg.norm(t - want) <= 1e-12 * max(1.0, np.linalg.norm(want))
        assert np.array_equal(transfer(params, omega, energy), t)


class TestDisorderSpec:
    def test_bernoulli_support(self):
        d = DisorderSpec.bernoulli(0.5)
        assert d.has_binary_support
        assert np.allclose(d.probabilities.sum(), 1.0)

    def test_degenerate_point_law_allowed(self):
        d = DisorderSpec.point(0.0)
        assert not d.has_binary_support

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            DisorderSpec(((0.0, 0.5), (1.0, 0.4)))
        with pytest.raises(ValueError):
            DisorderSpec(((0.0, -0.5), (1.0, 1.5)))


class TestModelParams:
    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            make_params(c=np.array([0.0]))

    # V - t(V) overflows for the second V; it must not pass as symmetric (and become V = 0)
    @pytest.mark.parametrize("v", [[[0.0, 1.0], [1.1, 0.0]], [[0, 1e308], [-1e308, 0]]])
    def test_asymmetric_v_rejected(self, v):
        with pytest.raises(DimensionError, match=r"V: matrix is not symmetric"):
            make_params(n=2, v=v, c=np.ones(2))

    def test_v_near_the_float_limit_is_kept_exactly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = ModelParams(n=2, v=[[1e308, 0], [0, 0]], c=[1, 1], ell=0.1)
        assert params.v.tolist() == [[1e308, 0.0], [0.0, 0.0]]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_v_rejected(self, bad):
        with pytest.raises(ValueError):
            make_params(n=2, v=np.array([[0.0, bad], [bad, 0.0]]), c=np.ones(2))

    def test_rho_range(self):
        with pytest.raises(ValueError):
            make_params(rho=1.5)
        with pytest.raises(ValueError):
            make_params(rho=0.0)


class TestNumberRule:
    @pytest.mark.parametrize(
        "values",
        [[1.0, True], np.array([1, 0], dtype=bool), ["1"], [None], [1j], np.array([1.0 + 0j]),
         [[1.0, 2.0], [3.0]], [[1.0, 2.0], [3.0, [4.0]]], [math.nan], [-math.inf], [10**400], "1.0", None],
    )
    def test_array_form_rejects_what_is_not_a_finite_real(self, values):
        with pytest.raises(ValueError, match=r"^x entries must be finite real numbers, got "):
            reals(values, "x")

    @pytest.mark.parametrize("value", [True, np.True_, "1.0", None, 1j, math.nan, math.inf, 10**400, [1.0]])
    def test_scalar_form_rejects_what_is_not_a_finite_real(self, value):
        with pytest.raises(ValueError, match=r"^x must be a finite real number, got "):
            real(value, "x")

    def test_numpy_integers_and_floats_pass(self):
        for values in ([1, 2.5], np.arange(3, dtype=np.int8), np.ones((2, 2), dtype=np.float32), [np.uint64(7)]):
            got = reals(values, "x")
            assert got.dtype == float and np.array_equal(got, np.asarray(values, dtype=float))
        assert real(np.int64(3), "x") == 3.0 and real(np.float32(0.5), "x") == 0.5

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_float_arrays_are_checked_at_once_with_the_walk_s_message(self, bad, dtype):
        values = np.array([[1.0, 2.0], [bad, 3.0]], dtype=dtype)
        with pytest.raises(ValueError) as at_once:
            reals(values, "x")
        with pytest.raises(ValueError) as walked:
            reals(values.astype(object), "x")
        assert str(at_once.value) == str(walked.value) == f"x entries must be finite real numbers, got {bad!r}"

    def test_arrays_come_back_as_copies(self):
        for values in (np.arange(4.0), np.arange(4), np.arange(4, dtype=np.uint8), np.arange(4.0).astype(object)):
            got = reals(values, "x")
            assert got.dtype == float and not np.shares_memory(got, values)

    def test_radius_message_names_the_value(self):
        for value in (1.5, 0.0, True, "0.5"):
            with pytest.raises(ValueError, match=re.escape(f"rho must lie in (0, 1], got {value!r}")):
                radius(value)


class TestCellMatrix:
    def test_all_terms_vanish(self):
        p = make_params()
        assert np.allclose(cell_matrix(p, [0.0], 0.0), [[0.0]], atol=0)

    def test_two_channel_example(self):
        p = make_params(n=2, v=V0_2, c=np.ones(2))
        got = cell_matrix(p, [1.0, 0.0], 2.0)
        assert np.allclose(got, [[-1.0, 1.0], [1.0, -2.0]], atol=0)

    def test_always_symmetric(self):
        rng = np.random.default_rng(21)
        v = rng.standard_normal((3, 3))
        p = make_params(n=3, v=v + v.T, c=rng.uniform(0.5, 2.0, 3))
        for _ in range(100):
            omega = sample_cell(p, rng)
            m = cell_matrix(p, omega, rng.uniform(-3, 3))
            assert np.array_equal(m, m.T)

    def test_stack_equals_rows_bit_for_bit(self):
        rng = np.random.default_rng(22)
        v = rng.standard_normal((3, 3))
        p = make_params(n=3, v=v + v.T, c=rng.uniform(-2.0, 2.0, 3), disorder=THREE_ATOMS)
        paths = sample_path(p, 24, rng).reshape(4, 6, 3)
        for e in (0.0, -1.7, 2.3):
            got = cell_matrix(p, paths, e)
            assert got.shape == (4, 6, 3, 3)
            for i, j in np.ndindex(4, 6):
                assert np.array_equal(got[i, j], p.v + np.diag(p.c * paths[i, j]) - e * np.eye(3))


class TestGenerator:
    def test_order_one_block_layout(self):
        p = make_params()
        x = generator(p, [0.0], 0.0)
        assert np.allclose(x, [[0.0, 1.0], [0.0, 0.0]], atol=0)

    def test_block_structure(self):
        p = make_params(n=2, v=V0_2, c=np.ones(2))
        x = generator(p, [1.0, 1.0], 0.3)
        assert x.shape == (4, 4)
        assert np.all(x[:2, :2] == 0.0) and np.all(x[2:, 2:] == 0.0)
        assert np.array_equal(x[:2, 2:], np.eye(2))
        assert np.array_equal(x[2:, :2], cell_matrix(p, [1.0, 1.0], 0.3))
        assert is_hamiltonian(x, 0.0)


class TestTransfer:
    def test_small_cell_near_identity(self):
        p = make_params(ell=1e-4)
        x = generator(p, [1.0], 0.0)
        t = transfer(p, [1.0], 0.0)
        assert np.linalg.norm(t - np.eye(2)) <= 2 * p.ell * np.linalg.norm(x, 2)

    def test_hyperbolic_closed_form(self):
        # one channel, cell matrix m > 0: blocks cosh, sinh/sqrt(m), sqrt(m)*sinh
        p = make_params(v=np.array([[1.0]]), ell=1.0, disorder=DisorderSpec.point(0.0))
        t = transfer(p, [0.0], 0.0)
        want = [[math.cosh(1), math.sinh(1)], [math.sinh(1), math.cosh(1)]]
        assert np.allclose(t, want, rtol=1e-12)

    def test_oscillatory_closed_form(self):
        k, ell = 1.7, 0.4
        p = make_params(ell=ell)
        t = transfer(p, [0.0], k * k)
        want = [
            [math.cos(k * ell), math.sin(k * ell) / k],
            [-k * math.sin(k * ell), math.cos(k * ell)],
        ]
        assert np.allclose(t, want, rtol=1e-12, atol=1e-14)

    def test_symplectic_for_random_inputs(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            v = rng.standard_normal((n, n))
            p = make_params(n=n, v=v + v.T, c=rng.uniform(0.5, 2.0, n), ell=rng.uniform(0.05, 1.0))
            t = transfer(p, rng.integers(0, 2, n).astype(float), rng.uniform(-3, 3))
            assert is_symplectic(t, 1e-10 * np.linalg.norm(t) ** 2)


class TestTransferTable:
    """The closed-form kernel against the Pade exponential of the generator."""

    def test_random_models_against_expm(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            v = rng.standard_normal((n, n))
            law = THREE_ATOMS if rng.random() < 0.5 else DisorderSpec.bernoulli()
            p = make_params(n=n, v=v + v.T, c=rng.uniform(0.5, 2.0, n), ell=rng.uniform(0.05, 1.0),
                            disorder=law)
            assert_matches_expm(p, sample_path(p, 5, rng), rng.uniform(-4, 4))

    def test_zero_kappa_is_a_shear(self):
        p = make_params(ell=0.7, disorder=DisorderSpec.point(0.0))
        assert np.array_equal(transfer(p, [0.0], 0.0), [[1.0, 0.7], [0.0, 1.0]])
        assert_matches_expm(p, np.zeros((1, 1)), 0.0)

    def test_kappa_next_to_zero(self):
        # |kappa| ell^2 = 1e-20 on either side: x = 1e-10 in cosh/cos and sinh(x)/x
        ell = 0.5
        p = make_params(ell=ell, disorder=DisorderSpec.point(0.0))
        for energy in (1e-20 / ell**2, -1e-20 / ell**2):
            assert_matches_expm(p, np.zeros((1, 1)), energy)

    def test_mixed_sign_kappa(self):
        # kappa = (-2, 0 up to rounding, 3) in a rotated basis
        q, _ = np.linalg.qr(np.random.default_rng(27).standard_normal((3, 3)))
        p = make_params(n=3, v=q @ np.diag([-2.0, 0.0, 3.0]) @ q.T, ell=0.8)
        assert_matches_expm(p, np.zeros((1, 3)), 0.0)
        assert_matches_expm(p, binary_cells(3), 0.5)

    def test_overflow_raises_instead_of_returning_inf(self):
        p = ModelParams(n=1, v=[[0.0]], c=[1.0], ell=1.0)
        with pytest.raises(InstabilityError):
            transfer(p, [0.0], -1e6)

    def test_wrong_cell_length_rejected(self):
        with pytest.raises(DimensionError):
            transfer_table(make_params(n=2, v=V0_2, c=np.ones(2)), np.zeros((3, 3)), 0.0)


class TestPathTable:
    def test_gathers_every_cell_of_a_stacked_path(self):
        p = make_params(n=2, v=V0_2, c=np.array([1.0, 1.5]), disorder=THREE_ATOMS)
        path = sample_path(p, 30, stream(5)).reshape(10, 3, 2)
        table, index = path_table(p, path, 0.7)
        assert index.shape == (10, 3)
        assert len(table) == len(np.unique(path.reshape(-1, 2), axis=0))
        want = transfer_table(p, path.reshape(-1, 2), 0.7).reshape(10, 3, 4, 4)
        assert np.array_equal(table[index], want)

    def test_signed_zeros_are_one_cell(self):
        p = make_params(n=2, v=V0_2, c=np.array([1.0, 1.5]))
        table, index = path_table(p, [[-0.0, 1.0], [0.0, 1.0], [1.0, -0.0]], 0.7)
        assert np.array_equal(index, [0, 0, 1])
        assert np.array_equal(table, transfer_table(p, [[-0.0, 1.0], [1.0, -0.0]], 0.7))


class TestGeneratorNorm:
    def test_unit_floor(self):
        p = make_params(v=np.array([[0.3]]))
        assert generator_norm(p, [0.0], 0.5) == 1.0

    def test_single_channel_value(self):
        p = make_params()
        assert generator_norm(p, [1.0], 0.0) == 1.0
        assert generator_norm(p, [1.0], -2.0) == 3.0

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            v = rng.standard_normal((n, n))
            p = make_params(n=n, v=v + v.T, c=rng.uniform(0.5, 2.0, n))
            omega = rng.integers(0, 2, n).astype(float)
            e = rng.uniform(-4, 4)
            x = generator(p, omega, e)
            oracle = np.linalg.svd(x, compute_uv=False)[0]
            assert abs(generator_norm(p, omega, e) - oracle) <= 1e-10 * max(1.0, oracle)

    def test_reads_the_cell_spectrum_as_spectral_bounds_does(self):
        # couplings of -0.0 with c_i < 0 give the cell matrix -0.0 and +0.0 on the two sides of the
        # diagonal; symmetrizing it again moved the eigenvalues by an ulp on some of these cells
        rng = np.random.default_rng(0)
        for n in (2, 3, 4):
            for _ in range(300):
                v = rng.uniform(-1, 1, (n, n))
                zero = np.triu(rng.random((n, n)) < 0.5, 1)
                v = np.where(zero | zero.T, -0.0, v + v.T)
                c = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
                p = make_params(n=n, v=v, c=c)
                b = spectral_bounds(p)
                above, below = b.lambda_max + 10.0, b.lambda_min - 10.0
                assert generator_norm(p, (c < 0).astype(float), above) == above - b.lambda_min
                assert generator_norm(p, (c > 0).astype(float), below) == b.lambda_max - below


class TestSpectralBounds:
    def test_single_channel(self):
        b = spectral_bounds(make_params())
        assert (b.lambda_min, b.lambda_max, b.delta) == (0.0, 1.0, 0.5)
        assert b.ell_c == min(1.0, DEFAULT_RHO / 0.5)

    def test_two_channel_tridiagonal(self):
        b = spectral_bounds(make_params(n=2, v=V0_2, c=np.ones(2)))
        assert abs(b.lambda_min + 1.0) <= 1e-12
        assert abs(b.lambda_max - 2.0) <= 1e-12
        assert abs(b.delta - 1.5) <= 1e-12

    def test_bounds_are_the_extremes_of_the_binary_spectra(self):
        # oracle: diagonalise every one of the 2^N binary cells
        rng = np.random.default_rng(5)
        for kind in ("dense", "sparse", "integer"):
            for n in range(1, 9):
                for _ in range(12):
                    signs = rng.permutation(np.resize([-1.0, 1.0], n))
                    if kind == "dense":
                        v = rng.standard_normal((n, n))
                        c = signs * rng.uniform(0.5, 2.0, n)
                    elif kind == "sparse":
                        v = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
                        c = signs * rng.uniform(0.5, 2.0, n)
                    else:
                        v = rng.integers(-2, 3, (n, n)).astype(float)
                        c = signs * rng.integers(1, 3, n)
                    p = make_params(n=n, v=v + v.T, c=c)
                    spectra = np.linalg.eigvalsh(cell_matrix(p, binary_cells(n), 0.0))
                    want = (float(spectra[:, 0].min()), float(spectra[:, -1].max()))
                    b = spectral_bounds(p)
                    if kind == "dense":  # no ties: the same eigensolve of the same matrix
                        assert (b.lambda_min, b.lambda_max) == want
                    else:
                        for got, lam in zip((b.lambda_min, b.lambda_max), want):
                            assert abs(got - lam) <= 1e-12 * max(1.0, abs(lam))

    def test_scalar_shift_structure(self):
        lam = -0.7
        p = make_params(n=3, v=lam * np.eye(3), c=np.ones(3))
        b = spectral_bounds(p)
        assert abs(b.lambda_min - lam) <= 1e-12
        assert abs(b.lambda_max - (lam + 1.0)) <= 1e-12
        assert abs(b.delta - 0.5) <= 1e-12

    def test_channel_relabeling_invariance(self):
        rng = np.random.default_rng(24)
        v = rng.standard_normal((3, 3))
        v = v + v.T
        c = np.array([0.5, 1.0, 2.0])
        perm = np.array([2, 0, 1])
        pmat = np.eye(3)[perm]
        p1 = make_params(n=3, v=v, c=c)
        p2 = make_params(n=3, v=pmat @ v @ pmat.T, c=c[perm])
        b1, b2 = spectral_bounds(p1), spectral_bounds(p2)
        assert abs(b1.lambda_min - b2.lambda_min) <= 1e-12
        assert abs(b1.lambda_max - b2.lambda_max) <= 1e-12


class TestEnergyInterval:
    def test_plugged_values(self):
        p = make_params(rho=0.69)
        window = energy_interval(p)
        assert abs(window.lo - (1.0 - 6.9)) <= 1e-12
        assert abs(window.hi - 6.9) <= 1e-12

    def test_empty_iff_ell_at_least_ell_c(self):
        # delta = 1 here, so ell_c = rho < 1
        for ell, expect_empty in ((0.69, False), (0.6932, True), (1.2, True)):
            p = make_params(c=np.array([2.0]), ell=ell)
            assert energy_interval(p).is_empty == expect_empty
            assert (ell < spectral_bounds(p).ell_c) == (not expect_empty)

    def test_length_formula(self):
        p = make_params(c=np.array([2.0]), ell=0.3)
        b = spectral_bounds(p)
        window = energy_interval(p)
        assert abs(window.length - 2 * (p.rho / p.ell - b.delta)) <= 1e-12

    def test_length_grows_without_bound(self):
        lengths = [energy_interval(make_params(ell=ell)).length for ell in (0.1, 0.01, 0.001)]
        assert lengths[0] < lengths[1] < lengths[2]
        assert lengths[2] > 1000

    @pytest.mark.parametrize("rho", [DEFAULT_RHO, 1.0, 1e-3])
    def test_smallest_accepted_ell_gives_a_finite_window(self, rho):
        # the float just below the first ell with a finite 2 rho / ell is refused, naming ell
        ell = float(np.nextafter(2.0 * rho / np.finfo(float).max, 0.0))
        while not math.isfinite(2.0 * rho / ell):
            ell = float(np.nextafter(ell, 1.0))
        with pytest.raises(ValueError, match=r"^ell = .* is too small"):
            make_params(ell=float(np.nextafter(ell, 0.0)), rho=rho)
        window = energy_interval(make_params(ell=ell, rho=rho))
        assert not window.is_empty
        assert math.isfinite(window.lo) and math.isfinite(window.hi) and math.isfinite(window.hi - window.lo)

    def test_norm_condition_inside_window(self):
        # with ell <= rho, every binary cell satisfies ell * norm <= rho on the window
        rng = np.random.default_rng(25)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            v = rng.standard_normal((n, n))
            rho = rng.uniform(0.3, 1.0)
            ell = rng.uniform(0.05, rho)
            p = make_params(n=n, v=v + v.T, c=rng.uniform(0.5, 2.0, n), ell=ell, rho=rho)
            window = energy_interval(p)
            if window.is_empty:
                continue
            for e in np.linspace(window.lo, window.hi, 7):
                for omega in binary_cells(n):
                    assert p.ell * generator_norm(p, omega, e) <= p.rho + 1e-12


class TestSampling:
    def test_degenerate_law_is_constant(self):
        p = make_params(disorder=DisorderSpec(((1.0, 1.0),)))
        rng = stream(0)
        for _ in range(10):
            assert np.all(sample_cell(p, rng) == 1.0)

    def test_bernoulli_mean(self):
        p = make_params()
        rng = stream(42)
        draws = sample_path(p, 100_000, rng)
        assert abs(draws.mean() - 0.5) <= 0.01

    def test_fixed_seed_reproduces(self):
        p = make_params(n=2, v=V0_2, c=np.ones(2))
        a = sample_path(p, 50, stream(7))
        b = sample_path(p, 50, stream(7))
        assert np.array_equal(a, b)

    def test_cell_is_the_first_row_of_a_path(self):
        p = make_params(n=3, v=np.eye(3), c=np.ones(3), disorder=THREE_ATOMS)
        for seed in range(20):
            want = p.disorder.values[stream(seed).choice(3, size=(1, 3), p=p.disorder.probabilities)]
            assert np.array_equal(sample_path(p, 1, stream(seed)), want)
            assert np.array_equal(sample_cell(p, stream(seed)), want[0])


class TestBinaryCells:
    def test_order_one(self):
        assert np.array_equal(binary_cells(1), [[0.0], [1.0]])

    def test_lexicographic_order_two(self):
        assert np.array_equal(binary_cells(2), [[0, 0], [0, 1], [1, 0], [1, 1]])

    def test_cardinality(self):
        assert binary_cells(4).shape == (16, 4)

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            binary_cells(21)


class TestEnergyIntervalType:
    def test_empty_representation(self):
        e = EnergyInterval.empty()
        assert e.is_empty
        assert e.length == 0.0
        assert not e.contains(0.0)

    def test_midpoint_is_finite_wherever_the_ends_are(self):
        assert EnergyInterval(-1.0, 2.0).midpoint == 0.5
        assert EnergyInterval(1e308, 1.7e308).midpoint == 1.35e308
        assert EnergyInterval(-1.7e308, 1.7e308).midpoint == 0.0

    def test_contains(self):
        e = EnergyInterval(-1.0, 2.0)
        assert e.contains(-1.0) and e.contains(2.0) and e.contains(0.5)
        assert not e.contains(2.1)
