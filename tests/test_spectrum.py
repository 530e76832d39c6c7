"""Finite-volume checks: discretization, inertia counting, shooting, IDS, decay."""

import importlib.machinery
import importlib.util
import math
import re
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import eig_banded, expm

import anderloc.model
from anderloc import spectrum
from anderloc.cli import exit_code_for, main
from anderloc.errors import (
    DimensionError,
    FactorizationError,
    GridError,
    InstabilityError,
    ScanRangeError,
    SizeGuardError,
)
from anderloc.furstenberg import model_closure, tridiagonal_witness
from anderloc.lyapunov import EstimatorConfig, lyapunov_spectrum
from anderloc.model import (
    DisorderSpec,
    EnergyInterval,
    ModelParams,
    generator,
    generator_norm,
    sample_path,
    transfer,
)
from anderloc.spectrum import (
    BandedSymmetric,
    FiniteRestriction,
    boundary_block,
    count_below,
    discretize,
    eigen_decay,
    estimate_ids,
    sample_restriction,
)
from anderloc.seeding import derive_seed, stream

LAPACK = spectrum._lapack  # the real loader, for stand-ins that wrap its routines


def make_params(n=1, v=None, c=None, ell=1.0, disorder=None):
    v = np.zeros((n, n)) if v is None else v
    c = np.ones(n) if c is None else c
    disorder = DisorderSpec.point(0.0) if disorder is None else disorder
    return ModelParams(n=n, v=v, c=c, ell=ell, disorder=disorder)


def explicit_chain(params, path, energy):
    """Top-right block of the product of ``transfer`` over the path's cells, one ``@`` per cell."""
    prod = np.eye(2 * params.n)
    for omega in np.atleast_2d(np.asarray(path, dtype=float)):
        prod = transfer(params, omega, energy) @ prod
    return prod[: params.n, params.n :]


THREE_ATOMS = DisorderSpec(((0.0, 0.3), (1.0, 0.3), (2.5, 0.4)))


def criterion_09():
    """The model and 40-cell path of acceptance criterion 09."""
    params = make_params(n=2, v=tridiagonal_witness(2), c=np.array([1.0, 1.5]), ell=0.5,
                         disorder=DisorderSpec.bernoulli())
    return params, params.disorder.values[stream(424242).integers(0, 2, size=(40, 2))]


def free_restriction(length_cells, h, boundary="dirichlet", n=1):
    path = np.zeros((2 * length_cells, n))
    return FiniteRestriction(length_cells, boundary, h, path)


def dirichlet_laplacian_eigs(domain, n_interior):
    # closed form for the discrete Dirichlet Laplacian on an interval
    h = domain / (n_interior + 1)
    k = np.arange(1, n_interior + 1)
    return (4.0 / h**2) * np.sin(k * math.pi * h / (2.0 * domain)) ** 2


class TestDiscretize:
    def test_a_step_too_small_for_the_kinetic_term_is_refused(self):
        # 2/h^2 overflows below about h = 1.06e-154, and h^2 underflows to 0 below about 1.5e-162
        path = np.zeros((2, 1))
        assert FiniteRestriction(1, "dirichlet", 1.06e-154, path).h == 1.06e-154
        for h in (1.05e-154, 1e-200, 5e-324):
            with pytest.raises(GridError, match=rf"^grid step h = {h!r} is too small: the kinetic term 2/h\^2 is not"):
                FiniteRestriction(1, "dirichlet", h, path)

    def test_free_dirichlet_closed_form(self):
        # domain [-2, 2], ell = 1, 4 cells of 8 points
        params = make_params(ell=1.0)
        mat = discretize(params, free_restriction(2, 1.0 / 8))
        assert mat.order == 2 * 2 * 8 - 1
        got = np.linalg.eigvalsh(mat.to_dense())
        want = dirichlet_laplacian_eigs(4.0, mat.order)
        assert np.allclose(np.sort(got), np.sort(want), rtol=1e-10, atol=1e-10)

    def test_convergence_rate_is_second_order(self):
        # domain of length pi: continuum eigenvalues k^2
        params = make_params(ell=math.pi / 4)
        errs = []
        for m in (4, 8):
            mat = discretize(params, free_restriction(2, params.ell / m))
            got = np.sort(np.linalg.eigvalsh(mat.to_dense()))[:5]
            want = np.arange(1, 6) ** 2
            errs.append(np.abs(got - want))
        ratio = errs[0] / errs[1]
        assert np.all(ratio >= 3.5) and np.all(ratio <= 4.5)

    def test_order_formula(self):
        params = make_params(n=2, v=np.zeros((2, 2)), c=np.ones(2), ell=0.5)
        mat = discretize(params, free_restriction(3, 0.125, n=2))
        assert mat.order == 2 * (2 * 3 * 4 - 1)
        assert mat.bandwidth == 2

    def test_symmetric_exactly(self):
        rng = stream(61)
        v = rng.standard_normal((2, 2))
        params = make_params(n=2, v=v + v.T, c=np.array([1.0, -2.0]), ell=0.5,
                             disorder=DisorderSpec.bernoulli())
        restriction = sample_restriction(params, 3, 0.125, "dirichlet", rng)
        dense = discretize(params, restriction).to_dense()
        assert np.array_equal(dense, dense.T)

    def test_potential_lands_on_half_open_cells(self):
        # L = 1, two points per cell: interior points at cells 0, 1, 1
        params = make_params(ell=1.0)
        path = np.array([[2.0], [5.0]])  # disorder values enter via c * omega
        mat = discretize(params, FiniteRestriction(1, "dirichlet", 0.5, path))
        diag = mat.ab[0]
        kin = 2.0 / 0.25
        assert np.allclose(diag, [kin + 2.0, kin + 5.0, kin + 5.0], atol=0)

    def test_neumann_constant_nullvector(self):
        params = make_params(ell=1.0)
        mat = discretize(params, free_restriction(2, 0.25, boundary="neumann"))
        assert mat.order == 2 * 2 * 4 + 1
        dense = mat.to_dense()
        assert np.allclose(dense @ np.ones(mat.order), 0.0, atol=1e-12)

    def test_grid_step_must_divide_cell(self):
        params = make_params(ell=1.0)
        with pytest.raises(GridError):
            discretize(params, free_restriction(2, 0.3))

    # a NaN entry used to reach count_below as a pivot breakdown, and "1" and True passed as 1
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), True, "1"])
    def test_path_entries_pass_the_number_rule(self, bad):
        path = np.zeros((2, 1), dtype=object)
        path[1, 0] = bad
        with pytest.raises(ValueError, match="^omega_path entries must be finite real numbers"):
            FiniteRestriction(1, "dirichlet", 0.25, path)

    def test_channel_mismatch_rejected(self):
        params = make_params(n=2, v=np.zeros((2, 2)), c=np.ones(2))
        with pytest.raises(GridError):
            discretize(params, free_restriction(2, 0.25, n=1))


class TestCountBelow:
    def random_banded(self, rng, order, bw):
        ab = rng.standard_normal((bw + 1, order))
        for r in range(1, bw + 1):
            ab[r, order - r:] = 0.0
        return BandedSymmetric(ab=ab, order=order, bandwidth=bw)

    def test_matches_dense_eigensolver_exactly(self):
        rng = stream(62)
        mat = self.random_banded(rng, 50, 2)
        eigs = np.linalg.eigvalsh(mat.to_dense())
        probes = list(0.5 * (eigs[:-1] + eigs[1:])[::3]) + list(rng.uniform(-4, 4, 10))
        for e in probes:
            assert count_below(mat, float(e)) == int(np.sum(eigs <= e))

    def test_below_gershgorin_bound_is_zero(self):
        rng = stream(63)
        mat = self.random_banded(rng, 30, 1)
        dense = mat.to_dense()
        bound = np.min(np.diag(dense) - np.sum(np.abs(dense - np.diag(np.diag(dense))), axis=1))
        assert count_below(mat, bound - 1e-9) == 0

    def test_free_laplacian_between_eigenvalues(self):
        params = make_params(ell=1.0)
        mat = discretize(params, free_restriction(2, 0.125))
        eigs = np.sort(dirichlet_laplacian_eigs(4.0, mat.order))
        for k in (1, 3, 7):
            e = 0.5 * (eigs[k - 1] + eigs[k])
            assert count_below(mat, e) == k

    def test_everything_counted_eventually(self):
        rng = stream(64)
        mat = self.random_banded(rng, 40, 3)
        assert count_below(mat, 1e6) == 40

    def test_monotone_in_energy(self):
        rng = stream(65)
        mat = self.random_banded(rng, 40, 2)
        counts = [count_below(mat, e) for e in np.linspace(-5, 5, 40)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize("order, bandwidth", [(30, 1), (25, 2), (31, 3)])
    def test_order_or_bandwidth_disagreeing_with_the_band_is_rejected(self, order, bandwidth):
        ab = self.random_banded(stream(66), 30, 2).ab
        with pytest.raises(DimensionError, match=r"must have shape \(\d+, \d+\), got \(3, 30\)"):
            BandedSymmetric(ab=ab, order=order, bandwidth=bandwidth)

    @pytest.mark.parametrize("shape, order, bandwidth, message", [
        ((1, 0), 0, 0, "order must be an integer >= 1, got 0"),  # count_below used to fail inside numpy's max
        ((2, 3), 3.0, 1, "order must be an integer >= 1, got 3.0"),
        ((2, 3), 3, True, "bandwidth must be an integer >= 0, got True"),
        ((0, 3), 3, -1, "bandwidth must be an integer >= 0, got -1"),
    ])
    def test_order_and_bandwidth_must_be_counts(self, shape, order, bandwidth, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            BandedSymmetric(ab=np.ones(shape), order=order, bandwidth=bandwidth)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_band_is_rejected_at_construction(self, bad):
        # such a band used to reach count_below as a persistent pivot breakdown "within inf of E"
        ab = np.array([[1.0, bad], [0.5, 0.0]])
        with pytest.raises(ValueError, match=f"^ab entries must be finite real numbers, got {bad!r}$"):
            BandedSymmetric(ab=ab, order=2, bandwidth=1)

    @pytest.mark.parametrize("energy, want", [(0.0, 1), ([-2.0, 0.0, 0.5, 0.0, 3.0], [0, 1, 1, 1, 2])])
    def test_zero_pivot_retries(self, energy, want):
        # leading pivot is exactly zero at E = 0; the retry must recover count 1 (eigenvalues -1 and 1),
        # also when E = 0 shares one pass with energies that need no retry
        ab = np.array([[0.0, 0.0], [1.0, 0.0]])
        mat = BandedSymmetric(ab=ab, order=2, bandwidth=1)
        assert np.array_equal(count_below(mat, energy), want)

    def test_persistent_zero_pivot_names_energy_order_and_remedy(self):
        # each of the 7 shifts 0, +-1e-12, +-2e-12, +-3e-12 meets a zero pivot on this diagonal
        ab = np.array([[0.0, 1e-12, -1e-12, 2e-12, -2e-12, 3e-12, -3e-12]])
        mat = BandedSymmetric(ab=ab, order=7, bandwidth=0)
        with pytest.raises(FactorizationError, match=r"at E=0: the matrix of order 7 .* within 3e-12 of E; "
                           r"move E by more than that \(edit the energy grid\), or change h or L") as exc:
            count_below(mat, 0.0)
        assert exit_code_for(exc.value) == 4

    def test_persistent_zero_pivot_in_an_array_names_the_first_failing_energy(self):
        # the diagonal holds each of the 7 shifts of E = 0 and of E = 0.5 (scale 1), so both break down
        shifts = [e + (1 if a % 2 else -1) * ((a + 1) // 2) * 1e-12 for e in (0.0, 0.5) for a in range(7)]
        mat = BandedSymmetric(ab=np.array([shifts]), order=14, bandwidth=0)
        assert count_below(mat, [2.0, -1.0]).tolist() == [14, 0]
        with pytest.raises(FactorizationError, match=r"at E=0.5: the matrix of order 14 .* within 3e-12 of E; "):
            count_below(mat, [2.0, 0.5, 1.0, 0.0])

    @staticmethod
    def criterion_09_bands():
        rng = stream(909)
        for order, bw in ((50, 2), (120, 1), (200, 3)):
            ab = rng.standard_normal((bw + 1, order))
            for r in range(1, bw + 1):
                ab[r, order - r:] = 0.0
            mat = BandedSymmetric(ab=ab, order=order, bandwidth=bw)
            eigs = np.linalg.eigvalsh(mat.to_dense())
            yield mat, np.concatenate([0.5 * (eigs[:-1] + eigs[1:])[::7], rng.uniform(-4, 4, 8), eigs[::9]])

    @staticmethod
    def desk_restriction(length_cells=50):
        # the perfbench DESK model and ids grid: N = 2 witness, ell 0.1, h 0.0125
        params = make_params(2, np.array([[0.0, 1.0], [1.0, 0.0]]), ell=0.1, disorder=DisorderSpec.bernoulli())
        restriction = sample_restriction(params, length_cells, 0.0125, "dirichlet", stream(derive_seed(12345, 0)))
        return discretize(params, restriction), np.linspace(0.0, 8.0, 17)

    @pytest.mark.parametrize("case", ["criterion-09", "desk"])
    def test_array_call_equals_the_scalar_loop(self, case):
        cases = list(self.criterion_09_bands()) if case == "criterion-09" else [self.desk_restriction()]
        for mat, energies in cases:
            counts = count_below(mat, energies)
            assert counts.dtype.kind == "i" and counts.shape == energies.shape
            assert counts.tolist() == [count_below(mat, float(e)) for e in energies]
            assert count_below(mat, energies.reshape(-1, 1)).shape == (len(energies), 1)
            assert isinstance(count_below(mat, energies[0]), int)

    def test_grid_longer_than_one_chunk_gives_the_same_counts(self, monkeypatch):
        mat, _ = self.desk_restriction(10)
        energies = np.linspace(-1.0, 9.0, 40)
        whole = count_below(mat, energies)
        for per_chunk in (1, 3, 7):
            monkeypatch.setattr(spectrum, "_BAND_BYTES", 8 * mat.ab.size * per_chunk)
            assert np.array_equal(count_below(mat, energies), whole), per_chunk
        assert whole[0] == 0 and np.all(np.diff(whole) >= 0) and whole[-1] > 0

    def test_band_copies_stay_within_the_budget(self, monkeypatch):
        mat, _ = self.desk_restriction(10)
        monkeypatch.setattr(spectrum, "_BAND_BYTES", 256 << 10)
        per_chunk = (256 << 10) // (8 * mat.ab.size)
        peaks = []
        for size in (per_chunk, 1000):
            tracemalloc.start()
            try:
                count_below(mat, np.linspace(0.0, 8.0, size))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 1000 energies in one band copy would add 7.3 MB to the one-chunk peak; the grid itself adds about 70 kB
        assert 8 * mat.ab.size * (1000 - per_chunk) > 7 << 20
        assert peaks[1] < peaks[0] + (128 << 10), peaks

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_energies_are_rejected(self, bad):
        mat = BandedSymmetric(ab=np.array([[1.0, 2.0], [0.5, 0.0]]), order=2, bandwidth=1)
        for energy in (bad, [1.0, bad]):
            with pytest.raises(ValueError, match=r"energy entries must be finite real numbers, got"):
                count_below(mat, energy)
        with pytest.raises(ValueError, match=r"energy_grid entries must be finite real numbers, got"):
            estimate_ids(make_params(disorder=DisorderSpec.bernoulli()), [bad, 1.0], 4, 0.25, n_samples=1)


    def test_retries_stop_once_every_energy_is_counted(self, monkeypatch):
        # eigenvalues -1 and 1; only E = 0 meets a zero pivot, so one retry of one energy follows the first pass
        original, calls = spectrum._inertia, []

        def recorded(ab, shifts, pivot_floor):
            calls.append(len(shifts))
            return original(ab, shifts, pivot_floor)

        monkeypatch.setattr(spectrum, "_inertia", recorded)
        mat = BandedSymmetric(ab=np.array([[0.0, 0.0], [1.0, 0.0]]), order=2, bandwidth=1)
        assert count_below(mat, [-2.0, 3.0]).tolist() == [0, 2] and calls == [2]
        calls.clear()
        assert count_below(mat, [-2.0, 0.0, 3.0]).tolist() == [0, 1, 2] and calls == [3, 1]


class TestInertiaRegimes:
    """``_inertia`` counts fewer than ``_SCALAR_SHIFTS`` shifts on Python floats and more in one vector pass."""

    @staticmethod
    def band(rng, order, bw):
        ab = rng.standard_normal((bw + 1, order))
        for r in range(1, bw + 1):
            ab[r, max(order - r, 0):] = 0.0
        return ab

    @staticmethod
    def both_passes(monkeypatch, ab, shifts, pivot_floor=1e-20):
        """Counts of the scalar pass, then of the vector pass, over the same shifts."""
        counts = []
        for crossover in (len(shifts) + 1, 0):
            monkeypatch.setattr(spectrum, "_SCALAR_SHIFTS", crossover)
            counts.append(spectrum._inertia(ab, np.asarray(shifts, dtype=float), pivot_floor).tolist())
        return counts

    @pytest.mark.parametrize("bw", [0, 1, 2, 3, 4, 6])
    @pytest.mark.parametrize("order", [1, 2, 203])
    def test_both_passes_count_alike_on_either_side_of_the_crossover(self, monkeypatch, bw, order):
        rng = stream(derive_seed(2200, 10 * bw + order))
        ab = self.band(rng, order, bw)
        dense = np.zeros((order, order))
        for r in range(min(bw, order - 1) + 1):
            dense[np.arange(r, order), np.arange(order - r)] = ab[r, : order - r]
        eigs = np.linalg.eigvalsh(dense)
        for k in range(1, 9):
            shifts = rng.uniform(-4.0, 4.0, k)
            default = spectrum._inertia(ab, shifts, 1e-20).tolist()
            scalar, vector = self.both_passes(monkeypatch, ab, shifts)
            assert scalar == vector == default == [int(np.sum(eigs < s)) for s in shifts], (k, scalar, vector)

    @pytest.mark.parametrize("bw", [0, 1, 2, 3, 4, 6])
    def test_both_passes_mark_a_zero_pivot_alike(self, monkeypatch, bw):
        ab = self.band(stream(2211), 40, bw)
        lead = ab[0, 0]
        scalar, vector = self.both_passes(monkeypatch, ab, [lead, lead + 0.25, lead])
        assert scalar == vector and scalar[0] == scalar[2] == -1 and scalar[1] >= 1
        # a pivot exactly at the floor is a breakdown too
        scalar, vector = self.both_passes(monkeypatch, ab, [lead - 0.5], pivot_floor=0.5)
        assert scalar == vector == [-1]
        # a zero pivot in the last column: no division follows it, so only the final pivot test marks it
        for r in range(1, bw + 1):
            ab[r, -1 - r] = 0.0  # the last column is uncoupled, so its pivot is A[-1, -1] - shift exactly
        last = ab[0, -1]
        scalar, vector = self.both_passes(monkeypatch, ab, [last, last + 0.25, last])
        assert scalar == vector and scalar[0] == scalar[2] == -1 and scalar[1] >= 0

    @pytest.mark.parametrize("bw", [0, 1, 2, 3, 4, 6])
    @pytest.mark.parametrize("row", [0, 1])
    def test_both_passes_mark_a_nan_entry_alike(self, monkeypatch, bw, row):
        ab = self.band(stream(2212), 60, bw)
        ab[min(row, bw), 30] = math.nan
        scalar, vector = self.both_passes(monkeypatch, ab, [-1.0, 0.0, 2.5])
        assert scalar == vector == [-1, -1, -1]

    def test_scalar_pass_allocates_no_more_than_the_vector_pass(self, monkeypatch):
        # order and bandwidth of the finest criterion-09 restriction (40 cells, N = 2, m = 32)
        ab = self.band(stream(2213), 2558, 2)

        def peak():
            tracemalloc.start()
            try:
                spectrum._inertia(ab, np.array([0.3]), 1e-20)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peaks = []
        for crossover in (2, 0):
            monkeypatch.setattr(spectrum, "_SCALAR_SHIFTS", crossover)
            peaks.append(min(peak() for _ in range(3)))  # an allocation outside _inertia only raises a peak
        assert peaks[0] <= peaks[1], peaks


class TestComponentSplitting:
    """Cross-layer oracle: a disconnected coupling graph splits the operator.

    When ``model_closure`` reports more than one component, V is
    block-diagonal over them and the restriction is, up to a permutation
    of its unknowns, the direct sum of the component sub-models' ones; so
    its inertia counts are exactly the sums of theirs.
    """

    def test_counts_add_over_components(self):
        v = np.array([[0.4, -1.0, 0.0], [-1.0, 0.2, 0.0], [0.0, 0.0, -0.3]])
        params = make_params(3, v, c=np.array([1.0, -1.5, 2.0]), ell=0.1, disorder=DisorderSpec.bernoulli())
        components = model_closure(params).components
        assert components == ((0, 1), (2,))
        length, h = 12, 0.0125
        for seed, boundary in enumerate(("dirichlet", "neumann")):
            restriction = sample_restriction(params, length, h, boundary, stream(derive_seed(61, seed)))
            full = discretize(params, restriction)
            parts = []
            for k in components:
                ix = list(k)
                sub = make_params(len(ix), v[np.ix_(ix, ix)], c=params.c[ix], ell=params.ell, disorder=params.disorder)
                parts.append(discretize(sub, FiniteRestriction(length, boundary, h, restriction.omega_path[:, ix])))
            assert sum(p.order for p in parts) == full.order
            counts = []
            for e in np.linspace(-3.0, 150.0, 9):
                counts.append(count_below(full, e))
                assert counts[-1] == sum(count_below(p, e) for p in parts), (boundary, e)
            assert counts[0] < counts[-1]


class TestShooting:
    def test_free_boundary_block_closed_form(self):
        # domain [-pi/2, pi/2]: B(E) = sin(sqrt(E) pi) / sqrt(E)
        params = make_params(ell=math.pi / 8)
        path = np.zeros((8, 1))
        for e in (0.5, 2.3, 6.7):
            b = boundary_block(params, path, e)
            want = math.sin(math.sqrt(e) * math.pi) / math.sqrt(e)
            assert abs(b[0, 0] - want) <= 1e-10

    def test_singular_exactly_at_eigenvalues(self):
        # the smallest singular value of the boundary block vanishes at Dirichlet eigenvalues
        params = make_params(ell=math.pi / 8)
        path = np.zeros((8, 1))
        for k in (1, 2, 3):
            assert np.linalg.svd(boundary_block(params, path, float(k * k)), compute_uv=False)[-1] <= 1e-12
        for e in (0.5, 2.5, 6.5):
            assert np.linalg.svd(boundary_block(params, path, e), compute_uv=False)[-1] > 0.05

    def test_no_zeros_below_the_spectrum(self):
        params = make_params(ell=math.pi / 8)
        path = np.zeros((8, 1))
        for e in (-3.0, -1.0, -0.25):
            assert np.linalg.svd(boundary_block(params, path, e), compute_uv=False)[-1] > 0.5

    def test_empty_path_is_the_identity_product(self):
        params = make_params(n=2, v=np.array([[0.0, 1.0], [1.0, 0.0]]), disorder=DisorderSpec.bernoulli())
        assert np.array_equal(boundary_block(params, np.zeros((0, 2)), 0.5), np.zeros((2, 2)))

    def test_overflow_guard(self):
        params = make_params(v=np.array([[400.0]]), ell=1.0)
        path = np.zeros((60, 1))
        with pytest.raises(InstabilityError):
            boundary_block(params, path, 0.0)

    def test_a_finite_product_above_the_overflow_entry_raises(self):
        # each cell multiplies the largest entry by about e^20: 35 cells end near 1e305, 34 near 1e296
        params = make_params(v=np.array([[400.0]]), ell=1.0)
        path = np.zeros((35, 1))
        prod = np.eye(2)
        for omega in path:
            prod = transfer(params, omega, 0.0) @ prod
        assert np.all(np.isfinite(prod)) and np.max(np.abs(prod)) > 1e300
        with pytest.raises(InstabilityError, match="transfer product overflow"):
            boundary_block(params, path, 0.0)
        assert np.max(np.abs(boundary_block(params, path[:34], 0.0))) < 1e300

    def test_product_is_the_explicit_transfer_chain_bit_for_bit(self):
        # the criterion-09 path, and three-atom paths at N = 1 and N = 3
        models = [criterion_09()]
        for n, c in ((1, [1.5]), (3, [1.0, 1.5, 2.0])):
            params = make_params(n=n, v=tridiagonal_witness(n), c=np.array(c), ell=0.5, disorder=THREE_ATOMS)
            models.append((params, sample_path(params, 40, stream(derive_seed(69, n)))))
        for params, path in models:
            for e in np.linspace(0.4, 1.9, 50):
                assert np.array_equal(boundary_block(params, path, float(e)), explicit_chain(params, path, float(e))), \
                    (params.n, e)

    def test_a_path_is_coded_once_for_all_its_energies(self, monkeypatch):
        params, path = criterion_09()
        calls = []

        def counted(name, fn):
            def call(*args):
                calls.append(name)
                return fn(*args)
            return call

        monkeypatch.setattr(anderloc.model, "_remembered", None, raising=False)
        monkeypatch.setattr(anderloc.model, "_distinct_rows", counted("rows", anderloc.model._distinct_rows))
        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        for e in np.linspace(0.4, 1.9, 50):
            boundary_block(params, path, float(e))
        assert calls == ["rows", "eigh"]

    def test_a_remembered_path_gives_the_explicit_chain(self):
        params = make_params(n=2, v=tridiagonal_witness(2), c=np.array([1.0, 1.5]), ell=0.5, disorder=THREE_ATOMS)
        a, b = (sample_path(params, 30, stream(seed)) for seed in (70, 71))  # one shape, two paths
        one_cell = a.copy()
        one_cell[7, 0] = 2.5 if a[7, 0] != 2.5 else 0.0
        signed = np.where(a == 0.0, -0.0, a)  # other bytes, the same cells
        assert np.any(np.signbit(signed)) and not np.any(np.signbit(a))
        cases = [(params, a), (params, b), (params, a), (params, one_cell), (params, a), (params, signed),
                 (params, a), (replace(params, v=np.array([[0.5, 1.0], [1.0, 0.0]])), a),
                 (replace(params, c=np.array([1.0, -1.5])), a), (replace(params, ell=0.25), a), (params, a.tolist())]
        for k, (p, path) in enumerate(cases):
            for e in (0.4, 1.15, 1.9):
                assert np.array_equal(boundary_block(p, path, e), explicit_chain(p, path, e)), (k, e)

    @pytest.mark.parametrize("channels", [1, 3, 4])
    def test_path_with_the_wrong_channel_count_is_a_dimension_error(self, channels):
        params = make_params(n=2, v=np.array([[0.0, 1.0], [1.0, 0.0]]), disorder=DisorderSpec.bernoulli())
        path = stream(68).integers(0, 2, size=(40, channels)).astype(float)
        with pytest.raises(DimensionError, match="cell configuration must have length 2"):
            boundary_block(params, path, 0.5)

    def test_a_stack_of_paths_is_a_dimension_error(self):
        params = make_params(n=2, v=np.array([[0.0, 1.0], [1.0, 0.0]]), disorder=DisorderSpec.bernoulli())
        with pytest.raises(DimensionError, match=re.escape("the path must have shape (cells, 2), got (3, 4, 2)")):
            boundary_block(params, np.zeros((3, 4, 2)), 0.5)
        assert np.array_equal(boundary_block(params, np.zeros(2), 0.5), explicit_chain(params, np.zeros((1, 2)), 0.5))

    # a NaN entry used to raise InstabilityError advising a smaller ell, and True and "1" passed as 1
    @pytest.mark.parametrize("form", [list, np.array])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, True, "1"])
    def test_path_entries_pass_the_number_rule(self, bad, form):
        params = make_params(n=2, v=np.array([[0.0, 1.0], [1.0, 0.0]]), disorder=DisorderSpec.bernoulli())
        with pytest.raises(ValueError, match=f"^path entries must be finite real numbers, got {re.escape(repr(bad))}$"):
            boundary_block(params, form([[bad, bad]] * 3), 0.5)

    @pytest.mark.parametrize("call", ["transfer", "boundary_block", "lyapunov_spectrum", "generator", "generator_norm"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, 1j])
    def test_non_real_energies_are_rejected(self, bad, call):
        # the transfer layer and the generator read E by the number rule: no InstabilityError, no E = 1 for True
        params = make_params(n=2, v=np.array([[0.0, 1.0], [1.0, 0.0]]), ell=0.5, disorder=DisorderSpec.bernoulli())
        calls = {
            "generator": lambda: generator(params, np.zeros(2), bad),
            "generator_norm": lambda: generator_norm(params, np.zeros(2), bad),
            "transfer": lambda: transfer(params, np.zeros(2), bad),
            "boundary_block": lambda: boundary_block(params, np.zeros((40, 2)), bad),
            "lyapunov_spectrum": lambda: lyapunov_spectrum(params, bad, EstimatorConfig(n_steps=10, n_replicas=2)),
        }
        with pytest.raises(ValueError, match=r"energy must be a finite real number, got"):
            calls[call]()

    def test_product_matches_expm_transfers(self):
        law = DisorderSpec(((0.0, 0.3), (1.0, 0.3), (2.5, 0.4)))
        params = make_params(n=2, v=np.array([[0.0, 1.0], [1.0, 0.0]]), c=np.array([1.0, 1.5]),
                             ell=0.5, disorder=law)
        path = sample_path(params, 20, stream(67))
        for e in (-2.0, 0.0, 0.9, 4.0):
            prod = np.eye(4)
            for omega in path:
                prod = expm(params.ell * generator(params, omega, e)) @ prod
            np.testing.assert_allclose(boundary_block(params, path, e), prod[:2, 2:], rtol=1e-10)

    def test_zero_count_matches_inertia_after_refinement(self):
        # disordered two-channel instance on a short box
        rng = stream(66)
        v = np.array([[0.0, 1.0], [1.0, 0.0]])
        params = make_params(n=2, v=v, c=np.array([1.0, 1.5]), ell=0.5,
                             disorder=DisorderSpec.bernoulli())
        path = params.disorder.values[rng.integers(0, 2, size=(12, 2))]
        window = (0.4, 1.9)
        dets = []
        energies = np.linspace(*window, 1200)
        for e in energies:
            dets.append(np.linalg.det(boundary_block(params, path, e)))
        zero_count = int(np.sum(np.sign(dets[:-1]) != np.sign(dets[1:])))
        restriction = FiniteRestriction(6, "dirichlet", params.ell / 32, path)
        mat = discretize(params, restriction)
        inertia_count = count_below(mat, window[1]) - count_below(mat, window[0])
        assert zero_count == inertia_count


class TestEstimateIds:
    def test_zero_below_the_operator_bound(self):
        params = make_params(disorder=DisorderSpec.bernoulli())
        curve = estimate_ids(params, [-0.5, -0.1], 10, 0.25, n_samples=2, master_seed=1)
        assert np.all(curve.values == 0.0)

    def test_monotone_and_deterministic(self):
        params = make_params(disorder=DisorderSpec.bernoulli())
        grid = np.linspace(0.5, 8.0, 9)
        a = estimate_ids(params, grid, 12, 0.25, n_samples=3, master_seed=9)
        b = estimate_ids(params, grid, 12, 0.25, n_samples=3, master_seed=9)
        assert np.array_equal(a.values, b.values)
        assert np.all(np.diff(a.values) >= 0)
        assert a.stderrs.shape == a.values.shape

    def test_each_sample_draws_from_its_own_stream(self):
        # sample s is the path drawn from stream(derive_seed(master_seed, s))
        params = make_params(disorder=DisorderSpec.bernoulli())
        grid = np.linspace(0.5, 6.0, 5)
        curve = estimate_ids(params, grid, 8, 0.25, n_samples=4, master_seed=3)
        counts = []
        for s in range(4):
            path = sample_path(params, 16, stream(derive_seed(3, s)))
            mat = discretize(params, FiniteRestriction(8, "dirichlet", 0.25, path))
            counts.append([count_below(mat, e) for e in grid])
        per_sample = np.array(counts, dtype=float) / (2.0 * params.ell * 8)
        assert np.array_equal(curve.values, per_sample.mean(axis=0))

    def test_boundary_conditions_agree_at_scale(self):
        # Dirichlet and Neumann counts differ by a bounded interface term
        params = make_params()
        grid = np.linspace(1.0, 9.0, 5)
        d = estimate_ids(params, grid, 40, 0.25, n_samples=1, master_seed=0, boundary="dirichlet")
        n = estimate_ids(params, grid, 40, 0.25, n_samples=1, master_seed=0, boundary="neumann")
        norm = 2.0 * params.ell * 40
        assert np.all(np.abs(d.values - n.values) <= 4.0 / norm)


class TestEigenDecay:
    def test_free_states_have_flat_envelopes(self):
        params = make_params(ell=1.0)
        reports = eigen_decay(params, free_restriction(20, 0.25), EnergyInterval(0.05, 0.6))
        assert reports
        for r in reports:
            assert abs(r.fitted_rate) <= 0.05

    def test_empty_window_yields_empty_list(self):
        params = make_params(ell=1.0)
        assert eigen_decay(params, free_restriction(5, 0.25), EnergyInterval(-5.0, -4.0)) == []
        assert eigen_decay(params, free_restriction(5, 0.25), EnergyInterval.empty()) == []

    def test_states_on_fewer_than_three_cells_are_not_fitted(self):
        # L = 1 leaves two cells, too few for a line through log p_n: all 6 states in the window are skipped
        params, restriction = make_params(ell=1.0), free_restriction(1, 0.25)
        mat = discretize(params, restriction)
        assert count_below(mat, 60.0) - count_below(mat, 0.05) == 6
        assert eigen_decay(params, restriction, EnergyInterval(0.05, 60.0)) == []

    def test_zero_width_window_rejected(self):
        params = make_params(ell=1.0)
        with pytest.raises(ScanRangeError):
            eigen_decay(params, free_restriction(5, 0.25), EnergyInterval(0.5, 0.5))

    # a NaN end used to raise scipy's LinAlgError from the banded eigensolver
    @pytest.mark.parametrize("lo, hi", [(math.nan, 0.6), (0.05, math.nan), (-math.inf, 0.6), (0.05, True)])
    def test_window_ends_pass_the_number_rule(self, lo, hi):
        with pytest.raises(ValueError, match="^decay window (lo|hi) must be a finite real number"):
            eigen_decay(make_params(ell=1.0), free_restriction(5, 0.25), EnergyInterval(lo, hi))

    def test_size_guard_fails_before_allocating(self):
        # 2^51 - 1 grid points: about 5e17 bytes of band storage and vectors
        restriction = free_restriction(1, 2.0**-50)
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuardError, match=r"L = 1, h = 8.88178e-16 needs about 5.04e\+08 GB"):
                eigen_decay(make_params(ell=1.0), restriction, EnergyInterval(0.5, 0.9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_size_guard_admits_the_readme_localize_block_in_4_mb(self, monkeypatch):
        # N = 2, L = 400, h = 0.0125: order 12798, about 3.5 MB
        params = make_params(n=2, v=np.array([[0.0, 1.0], [1.0, 0.0]]), ell=0.1)
        sysconf = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 4 * 2**20 // 4096}
        monkeypatch.setattr(spectrum.os, "sysconf", sysconf.__getitem__)
        restriction = sample_restriction(params, 400, 0.0125, "dirichlet", stream(0))
        assert discretize(params, restriction).order == 12798
        sysconf["SC_PHYS_PAGES"] = 3 * 2**20 // 4096
        for guarded in (lambda: sample_restriction(params, 400, 0.0125, "dirichlet", stream(0)),
                        lambda: discretize(params, restriction)):
            with pytest.raises(SizeGuardError, match="L = 400, h = 0.0125 needs about 0.00348 GB"):
                guarded()

    def test_boundary_name_is_checked_before_the_guard_and_the_draw(self, monkeypatch):
        # a bad name used to be found only after the draw, and at L = 10^13 the size guard raised first
        drawn = []
        monkeypatch.setattr(spectrum, "sample_path", lambda *args: drawn.append(args))
        rng = stream(0)
        state = rng.bit_generator.state
        for length_cells in (10, 10**13):
            with pytest.raises(ValueError, match="^boundary must be 'dirichlet' or 'neumann', got 'bogus'$"):
                sample_restriction(make_params(), length_cells, 0.25, "bogus", rng)
        assert drawn == [] and rng.bit_generator.state == state

    @staticmethod
    def with_eig_banded_pairs(monkeypatch):
        """Make ``eigen_decay`` take its eigenpairs from scipy's ``eig_banded``: the oracle."""
        def pairs(matrix, window):
            w, v = eig_banded(matrix.ab, lower=True, select="v", select_range=(window.lo, window.hi))
            return zip(w.tolist(), v.T)

        monkeypatch.setattr(spectrum, "_eigenpairs", pairs)

    def test_degenerate_pairs_match_the_dense_q_oracle(self, monkeypatch):
        # V = 0 and one Bernoulli column in both channels: every eigenvalue is double, and the
        # point mass of any unit vector in a pair's eigenspace is the same
        params = make_params(n=2, c=np.ones(2), ell=0.1, disorder=DisorderSpec.bernoulli())
        column = stream(70).integers(0, 2, size=(120, 1)).astype(float)
        restriction = FiniteRestriction(60, "dirichlet", 0.0125, np.hstack([column, column]))
        window = EnergyInterval(-1.0, 3.0)
        pairs = list(spectrum._eigenpairs(discretize(params, restriction), window))
        vecs = np.array([x for _, x in pairs])
        assert np.abs(vecs @ vecs.T - np.eye(len(pairs))).max() <= 1e-10  # each pair re-orthogonalised
        got = eigen_decay(params, restriction, window)
        self.with_eig_banded_pairs(monkeypatch)
        want = eigen_decay(params, restriction, window)
        assert len(got) == len(want) == 12
        assert np.allclose([r.eigenvalue for r in got[::2]], [r.eigenvalue for r in got[1::2]], rtol=0, atol=1e-9)
        for g, o in zip(got, want):
            assert g.eigenvalue == o.eigenvalue
            assert g.localization_center == o.localization_center
            assert abs(g.fitted_rate - o.fitted_rate) <= 1e-10
            assert abs(g.fit_residual - o.fit_residual) <= 1e-10

    def test_disordered_pairs_match_the_dense_q_oracle(self, monkeypatch):
        params = make_params(n=2, v=np.array([[0.0, 1.0], [1.0, 0.0]]), ell=0.1, disorder=DisorderSpec.bernoulli())
        restriction = sample_restriction(params, 40, 0.0125, "dirichlet", stream(71))
        window = EnergyInterval(-1.0, 3.0)
        got = eigen_decay(params, restriction, window)
        self.with_eig_banded_pairs(monkeypatch)
        want = eigen_decay(params, restriction, window)
        assert len(got) == len(want) > 3
        for g, o in zip(got, want):
            assert g.eigenvalue == o.eigenvalue
            assert g.localization_center == o.localization_center
            assert abs(g.fitted_rate - o.fitted_rate) <= 1e-8
            assert abs(g.fit_residual - o.fit_residual) <= 1e-8

    @staticmethod
    def with_lapack(monkeypatch, **routines):
        """Make ``_eigenpairs`` call the given stand-ins for LAPACK routines; the others stay real."""
        real = LAPACK()
        stub = types.SimpleNamespace(**{name: getattr(real, name) for name in ("dsbevx", "dgbsv", "dgtsv")} | routines)
        monkeypatch.setattr(spectrum, "_lapack", lambda: stub)
        return real

    @staticmethod
    def eigenvalues(values, info=0):
        """A dsbevx stand-in that finds ``values``."""
        return lambda *args, **kwargs: (np.array(values, dtype=float), None, len(values), None, info)

    def test_an_exactly_singular_shift_is_nudged(self, monkeypatch):
        # exact eigenvalues of a diagonal matrix make A - lambda I exactly singular
        mat = BandedSymmetric(ab=np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]), order=3, bandwidth=1)
        self.with_lapack(monkeypatch, dsbevx=self.eigenvalues([2.0, 3.0]))
        pairs = list(spectrum._eigenpairs(mat, EnergyInterval(1.5, 3.5)))
        assert [lam for lam, _ in pairs] == [2.0, 3.0]
        assert np.allclose(np.abs([x for _, x in pairs]), [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], atol=1e-12)
        # each of the 7 shifts 0, +-1e-12, +-2e-12, +-3e-12 of lambda = 0 is a diagonal entry
        mat = BandedSymmetric(ab=np.array([[0.0, 1e-12, -1e-12, 2e-12, -2e-12, 3e-12, -3e-12]]), order=7, bandwidth=0)
        self.with_lapack(monkeypatch, dsbevx=self.eigenvalues(np.zeros(7)))
        with pytest.raises(FactorizationError, match=r"singular at all 7 shifts within 3e-12 of the eigenvalue 0 "):
            next(spectrum._eigenpairs(mat, EnergyInterval(-0.5, 0.5)))

    def test_a_dropped_eigenvalue_fails_the_count_audit(self, monkeypatch, tmp_path, capsys):
        def dropped(*args, **kwargs):
            w, z, m, ifail, info = real.dsbevx(*args, **kwargs)
            return w[1:], z, m - 1, ifail, info

        real = self.with_lapack(monkeypatch, dsbevx=dropped)
        params = make_params(ell=1.0)
        with pytest.raises(FactorizationError, match=r"found 6 eigenvalues in \(0.05, 0.6\], but the inertia counts "
                           r"give 9 at or below 0.6 and 2 at or below 0.05, i.e. 7") as exc:
            eigen_decay(params, free_restriction(20, 0.25), EnergyInterval(0.05, 0.6))
        assert exit_code_for(exc.value) == 4
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"N": 1, "V": [[0.0]], "c": [1.0], "ell": 0.1, "disorder": {"atoms": [[0.0, 0.5], [1.0, 0.5]]}, '
                       '"localize": {"window": [-1.0, 3.0], "L": 20, "n_paths": 2, "ref_steps": 10}}')
        assert main(["localize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert "error: localize path 1 of 2: the banded eigensolver found" in capsys.readouterr().err

    def test_an_inaccurate_vector_fails_the_residual_check(self, monkeypatch):
        self.with_lapack(monkeypatch, dgtsv=lambda dl, d, du, b, **kwargs: (dl, d, du, np.ones_like(b), 0),
                         dgbsv=lambda kl, ku, ab, b, **kwargs: (ab, None, np.ones_like(b), 0))
        with pytest.raises(FactorizationError, match=r"eigenvector of 0.0\d+ with relative residual .* above 1e-10"):
            eigen_decay(make_params(ell=1.0), free_restriction(20, 0.25), EnergyInterval(0.05, 0.6))

    def test_a_lapack_failure_is_a_factorization_error(self, monkeypatch, tmp_path, capsys):
        # order 159 = 2 * 20 * 4 - 1 Dirichlet points of one channel
        params, window = make_params(ell=1.0), EnergyInterval(0.05, 0.6)
        self.with_lapack(monkeypatch, dsbevx=self.eigenvalues([0.1], info=3))
        with pytest.raises(FactorizationError, match=r"^LAPACK dsbevx failed with info = 3 on the matrix of order 159;"):
            eigen_decay(params, free_restriction(20, 0.25), window)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"N": 1, "V": [[0.0]], "c": [1.0], "ell": 0.1, "disorder": {"atoms": [[0.0, 0.5], [1.0, 0.5]]}, '
                       '"localize": {"window": [-1.0, 3.0], "L": 20, "n_paths": 2, "ref_steps": 10}}')
        assert main(["localize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == ("error: localize path 1 of 2: LAPACK dsbevx failed with info = 3 on the "
                                           "matrix of order 319; change h or L\n")
        # an illegal argument of the banded solve is not a singular shift: no nudge retries it
        self.with_lapack(monkeypatch, dgtsv=lambda dl, d, du, b, **kwargs: (dl, d, du, b, -4))
        with pytest.raises(FactorizationError, match=r"^LAPACK dgtsv failed with info = -4 on the matrix of order 159;"):
            eigen_decay(params, free_restriction(20, 0.25), window)
        self.with_lapack(monkeypatch, dgbsv=lambda kl, ku, ab, b, **kwargs: (ab, None, b, -3))
        with pytest.raises(FactorizationError, match=r"^LAPACK dgbsv failed with info = -3 on the matrix of order 318;"):
            eigen_decay(make_params(n=2, ell=1.0), free_restriction(20, 0.25, n=2), window)

    def test_a_missing_scipy_or_extension_module_is_an_import_error(self, monkeypatch, tmp_path):
        # the undecorated loader leaves the cached real module in place for the other tests
        load = spectrum._lapack.__wrapped__
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError) as exc:
            load()
        assert str(exc.value) == "scipy is not installed; localize needs its LAPACK extension module linalg/_flapack"
        empty = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        empty.submodule_search_locations.append(str(tmp_path))
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: empty)
        with pytest.raises(ImportError) as exc:
            load()
        suffixes = ",".join(importlib.machinery.EXTENSION_SUFFIXES)
        assert str(exc.value) == (f"scipy's LAPACK extension module was not found at "
                                  f"{tmp_path / 'linalg' / '_flapack'}{{{suffixes}}}")

    @staticmethod
    def public_scipy_pairs(matrix, window):
        """The eigenpairs of ``_eigenpairs``, built with scipy's public ``eigvals_banded`` and ``solve_banded``."""
        w = scipy.linalg.eigvals_banded(matrix.ab, lower=True, select="v", select_range=(window.lo, window.hi))
        n, order, scale = matrix.bandwidth, matrix.order, matrix.scale
        general = np.zeros((2 * n + 1, order))  # solve_banded's storage: general[n + i - j, j] = A[i, j]
        general[n:] = matrix.ab
        for r in range(1, n + 1):
            general[n - r, r:] = matrix.ab[r, : order - r]
        rng = stream(0)
        pairs = []
        for lam in w:
            x = rng.standard_normal(order)
            for _ in range(spectrum._INVERSE_STEPS):
                for k in spectrum._NUDGES:
                    general[n] = matrix.ab[0] - (lam + k * 1e-12 * scale)
                    try:
                        x = scipy.linalg.solve_banded((n, n), general, x, check_finite=False)
                        break
                    except scipy.linalg.LinAlgError:
                        pass
                for mu, y in pairs:
                    if lam - mu <= spectrum._CLUSTER_GAP * scale:
                        x -= (y @ x) * y
                x /= np.linalg.norm(x)
            pairs.append((float(lam), x))
        return pairs

    @pytest.mark.parametrize("n, v, c, boundary", [
        (1, [[0.0]], [2.0], "dirichlet"),  # the dgtsv path
        (2, [[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0], "dirichlet"),
        (2, [[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0], "neumann"),  # repeated eigenvalues: the re-orthogonalised path
        (3, [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], [1.0, -1.5, 2.0], "neumann"),
    ])
    def test_pairs_match_scipys_public_banded_routines_bit_for_bit(self, n, v, c, boundary):
        params = make_params(n=n, v=np.array(v), c=np.array(c), ell=0.1, disorder=DisorderSpec.bernoulli())
        path = np.repeat(stream(72).integers(0, 2, size=(40, 1)).astype(float), n, axis=1)
        matrix = discretize(params, FiniteRestriction(20, boundary, 0.0125, path))
        window = EnergyInterval(0.5, 6.0)
        got = list(spectrum._eigenpairs(matrix, window))
        want = self.public_scipy_pairs(matrix, window)
        assert len(got) == len(want) >= 2
        for (lam, x), (mu, y) in zip(got, want):
            assert lam == mu and np.array_equal(x, y)

    def test_bandwidth_zero_pairs_match_scipys_public_banded_routines(self):
        # a diagonal matrix: every shift is exactly singular, so every first solve is nudged
        mat = BandedSymmetric(ab=np.array([[0.3, 1.2, 0.7, 2.5, 0.9]]), order=5, bandwidth=0)
        window = EnergyInterval(0.5, 2.0)
        got = list(spectrum._eigenpairs(mat, window))
        want = self.public_scipy_pairs(mat, window)
        assert [lam for lam, _ in got] == [lam for lam, _ in want] == [0.7, 0.9, 1.2]
        for (_, x), (_, y) in zip(got, want):
            assert np.array_equal(x, y)

    def test_disordered_states_decay(self):
        params = make_params(ell=0.1, c=np.array([2.0]), disorder=DisorderSpec.bernoulli())
        rng = stream(67)
        restriction = sample_restriction(params, 150, 0.0125, "dirichlet", rng)
        reports = eigen_decay(params, restriction, EnergyInterval(0.6, 1.0), gamma_ref=0.36)
        assert reports
        assert all(r.fitted_rate > 0 for r in reports)
        assert all(r.gamma_ref == 0.36 for r in reports)
        assert all(r.fit_residual >= 0 for r in reports)
        for r in reports:
            assert -15.0 <= r.localization_center <= 15.0
