"""Closure rank tests, the energy-free model closure, certificates, the critical command."""

import csv
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

import anderloc.cli
from anderloc.cli import EXIT_CONFIG, EXIT_NON_GENERIC, EXIT_OK, cmd_critical, exit_code_for, main
from anderloc.config import (
    CertifySettings,
    CriticalSettings,
    IdsSettings,
    LocalizeSettings,
    LyapunovSettings,
    RunConfig,
)
from anderloc.errors import DimensionError, ScanRangeError
from anderloc.furstenberg import (
    density_certificate,
    lie_closure,
    model_closure,
    tridiagonal_witness,
)
from anderloc.linalg import exp_matrix, sp_dim
from anderloc.model import (
    ModelParams,
    binary_cells,
    energy_interval,
    generator,
    generator_norm,
    spectral_bounds,
)


def make_params(n, v, c=None, ell=0.1):
    c = np.ones(n) if c is None else c
    return ModelParams(n=n, v=v, c=c, ell=ell)


def binary_generators(params, energy):
    return [generator(params, omega, energy) for omega in binary_cells(params.n)]


def hamiltonian(a, b, c):
    """[[a, b], [c, -t(a)]]; b and c must be symmetric."""
    return np.block([[a, b], [c, -a.T]])


def order_one_pair(a, b):
    return [np.array([[0.0, 1.0], [a, 0.0]]), np.array([[0.0, 1.0], [b, 0.0]])]


class TestLieClosure:
    def test_single_generator_spans_itself(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 3):
            a = rng.standard_normal((n, n))
            s = rng.standard_normal((n, n))
            report = lie_closure([hamiltonian(a, s + s.T, np.eye(n))])
            assert report.dim_reached == 1

    def test_order_one_pair_fills_the_algebra(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            a, b = rng.uniform(-3, 3, 2)
            if abs(a - b) < 1e-3:
                continue
            report = lie_closure(order_one_pair(a, b))
            assert report.dim_reached == 3 == report.target_dim

    @pytest.mark.parametrize("n", [2, 3])
    def test_tridiagonal_witness_full_at_any_energy(self, n):
        params = make_params(n, tridiagonal_witness(n))
        for e in (-3.0, -0.5, 0.0, 1.7, 4.2):
            report = lie_closure(binary_generators(params, e))
            assert report.dim_reached == sp_dim(n)

    def test_decoupled_interaction_stalls_at_six(self):
        params = make_params(2, np.zeros((2, 2)))
        for e in (-1.0, 0.0, 0.5, 2.0):
            report = lie_closure(binary_generators(params, e))
            assert report.dim_reached == 6 < report.target_dim

    def test_basis_is_orthonormal(self):
        params = make_params(2, tridiagonal_witness(2))
        report = lie_closure(binary_generators(params, 0.3))
        gram = report.basis @ report.basis.T
        assert np.linalg.norm(gram - np.eye(report.dim_reached)) <= 1e-10

    def test_dimension_monotone_in_generators(self):
        params = make_params(2, tridiagonal_witness(2))
        gens = binary_generators(params, 0.4)
        dims = [lie_closure(gens[: k + 1]).dim_reached for k in range(len(gens))]
        assert all(d1 <= d2 for d1, d2 in zip(dims, dims[1:]))

    def test_invariance_under_permutation_and_scaling(self):
        rng = np.random.default_rng(33)
        params = make_params(2, tridiagonal_witness(2))
        gens = binary_generators(params, 0.9)
        base = lie_closure(gens).dim_reached
        perm = [gens[i] for i in rng.permutation(len(gens))]
        assert lie_closure(perm).dim_reached == base
        scaled = [s * g for g, s in zip(gens, rng.choice([-3.0, 0.25, 7.0], len(gens)))]
        assert lie_closure(scaled).dim_reached == base

    def test_invariance_under_symplectic_conjugation(self):
        rng = np.random.default_rng(34)
        params = make_params(2, np.zeros((2, 2)))  # deficient case, dimension 6
        gens = binary_generators(params, 0.3)
        w = rng.standard_normal((2, 2))
        a = rng.standard_normal((2, 2))
        conj = exp_matrix(hamiltonian(a, w + w.T, np.eye(2)), 0.3)
        conj_inv = np.linalg.inv(conj)
        conjugated = [conj @ g @ conj_inv for g in gens]
        assert lie_closure(conjugated).dim_reached == lie_closure(gens).dim_reached

    def test_mixed_orders_rejected(self):
        with pytest.raises(DimensionError):
            lie_closure([np.zeros((2, 2)), np.zeros((4, 4))])

    @pytest.mark.parametrize("shape", [(2, 3), (3, 3), (4,)])
    def test_non_square_or_odd_order_rejected(self, shape):
        with pytest.raises(DimensionError):
            lie_closure([np.zeros(shape)])

    def test_non_hamiltonian_generator_rejected(self):
        params = make_params(2, tridiagonal_witness(2))
        gens = binary_generators(params, 0.3)
        with pytest.raises(DimensionError):
            lie_closure(gens + [np.eye(4)])
        bent = gens[1].copy()
        bent[2, 3] += 1e-6  # c block no longer symmetric
        with pytest.raises(DimensionError):
            lie_closure([gens[0], bent])

    def test_empty_generator_list_rejected(self):
        with pytest.raises(ValueError):
            lie_closure([])


def exact_binary_generators(v, c, energy):
    """Binary generators [[0, I], [M, 0]] over Q, in ``binary_cells`` order."""
    n = len(v)
    gens = []
    for omega in itertools.product((0, 1), repeat=n):
        x = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            x[i][n + i] = Fraction(1)
            for j in range(n):
                x[n + i][j] = v[i][j] + (c[i] * omega[i] - energy if i == j else 0)
        gens.append(x)
    return gens


def exact_energy_free_generators(v, c):
    """X_0(0) = [[0, I], [V, 0]] and each D_i (c_i at row N+i, column i), over Q."""
    n = len(v)
    x0 = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        x0[i][n + i] = Fraction(1)
        x0[n + i][:n] = v[i]
    gens = [x0]
    for i in range(n):
        d = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
        d[n + i][i] = c[i]
        gens.append(d)
    return gens


def exact_bracket(x, y):
    cols = list(zip(*y))
    xy = [[sum(p * q for p, q in zip(row, col) if p and q) for col in cols] for row in x]
    cols = list(zip(*x))
    yx = [[sum(p * q for p, q in zip(row, col) if p and q) for col in cols] for row in y]
    return [[p - q for p, q in zip(r, s)] for r, s in zip(xy, yx)]


def exact_extend(rows, x):
    """Reduce the flattened Fraction matrix x against ``rows``; append it if independent.

    ``rows`` holds (pivot, reduced row) pairs, each zero at every earlier
    pivot.  Returns whether x was independent of them over Q.
    """
    vec = [e for row in x for e in row]
    for pivot, row in rows:
        if vec[pivot]:
            f = vec[pivot] / row[pivot]
            vec = [p - f * q for p, q in zip(vec, row)]
    pivot = next((k for k, e in enumerate(vec) if e), None)
    if pivot is None:
        return False
    rows.append((pivot, vec))
    return True


def exact_rank(matrices):
    """Rank over Q of the span of the Fraction matrices."""
    rows = []
    return sum(exact_extend(rows, x) for x in matrices)


def exact_closure_dim(generators):
    """Dimension over Q of the Lie algebra the Fraction matrices generate.

    The same breadth-first sweep as ``lie_closure``, with the rank decided
    by exact Gaussian elimination on the flattened matrices.
    """
    target = sp_dim(len(generators[0]) // 2)
    rows = []
    reps = []

    def add(x):
        if not exact_extend(rows, x):
            return False
        reps.append(x)
        return True

    frontier = [g for g in generators if add(g)]
    while frontier and len(reps) < target:
        snapshot = list(reps)
        new_frontier = []
        for y in frontier:
            for x in snapshot:
                z = exact_bracket(x, y)
                if add(z):
                    new_frontier.append(z)
        frontier = new_frontier
    return len(reps)


class TestExactClosureOracle:
    """``lie_closure`` at tol 1e-8 against exact rank over Q.

    Every input is a dyadic rational, so the float generators equal the
    exact ones and the two closures see the same matrices.  Each model is
    also checked against the energy-free generators {X_0(0), D_i}: at
    every energy they span the same space over Q as the binary generators,
    and they generate the same algebra, whose dimension ``model_closure``
    reports.
    """

    @staticmethod
    def params(v, c):
        n = len(v)
        return ModelParams(n=n, v=np.array(v, dtype=float), c=np.array(c, dtype=float), ell=0.1)

    def numeric_dim(self, v, c, energy):
        return lie_closure(binary_generators(self.params(v, c), float(energy))).dim_reached

    def check_model(self, v, c, energies, closure_energies):
        """Exact closure dimension of the model, after checking that it is energy-free.

        The span identity is checked at every energy in ``energies``; the
        exact and numeric binary closures at those in ``closure_energies``.
        """
        free = exact_energy_free_generators(v, c)
        assert exact_rank(free) == len(v) + 1
        for energy in energies:
            binary = exact_binary_generators(v, c, energy)
            assert exact_rank(binary) == exact_rank(binary + free) == len(v) + 1
        exact = exact_closure_dim(free)
        assert model_closure(self.params(v, c)).dim_reached == exact
        for energy in closure_energies:
            assert exact_closure_dim(exact_binary_generators(v, c, energy)) == exact
            assert self.numeric_dim(v, c, energy) == exact
        return exact

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_witness(self, n):
        v = [[Fraction(int(abs(i - j) == 1)) for j in range(n)] for i in range(n)]
        c = [Fraction(1)] * n
        energies = (Fraction(-3, 2), Fraction(5, 8))
        assert self.check_model(v, c, energies + (Fraction(0), Fraction(1000001, 4)), energies) == sp_dim(n)

    def test_decoupled_interaction(self):
        v = [[Fraction(0)] * 2 for _ in range(2)]
        c = [Fraction(1)] * 2
        energies = (Fraction(-1), Fraction(3, 4))
        assert self.check_model(v, c, energies + (Fraction(7, 3),), energies) == 6

    def test_order_one_pairs(self):
        rng = np.random.default_rng(36)
        pairs = [(Fraction(1, 2), Fraction(1, 2))]
        pairs += [(Fraction(int(a), 8), Fraction(int(b), 8)) for a, b in rng.integers(-24, 25, (20, 2))]
        for a, b in pairs:
            exact_gens = [[[Fraction(0), Fraction(1)], [x, Fraction(0)]] for x in (a, b)]
            exact = exact_closure_dim(exact_gens)
            assert exact == (1 if a == b else 3)
            assert lie_closure(order_one_pair(float(a), float(b))).dim_reached == exact

    def test_random_rational_models(self):
        # coupled interactions fill the algebra; diagonal ones stall at 3N
        rng = np.random.default_rng(37)
        for n, diagonal in ((2, False), (2, False), (2, False), (3, False), (3, False), (2, True), (3, True)):
            upper = rng.integers(-4, 5, (n, n))
            if diagonal:
                upper = np.diag(np.diag(upper))
            v = [[Fraction(int(upper[min(i, j), max(i, j)]), 4) for j in range(n)] for i in range(n)]
            c = [Fraction(int(k) * int(sign), 2) for k, sign in zip(rng.integers(1, 5, n), rng.choice([-1, 1], n))]
            energy = Fraction(int(rng.integers(-24, 25)), 8)
            energies = (energy, Fraction(-5, 3), Fraction(11, 7))
            assert self.check_model(v, c, energies, (energy,)) == (3 * n if diagonal else sp_dim(n))

    def test_model_closure_matches_binary_closures(self):
        # seeded sweep over coupled, diagonal and partly decoupled interactions
        rng = np.random.default_rng(38)
        for n in range(1, 7):
            for kind in ("coupled", "diagonal", "two blocks"):
                v = rng.uniform(-1, 1, (n, n))
                v = v + v.T
                if kind == "diagonal":
                    v = np.diag(np.diag(v))
                elif kind == "two blocks":
                    v[: n // 2, n // 2 :] = v[n // 2 :, : n // 2] = 0.0
                c = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
                params = ModelParams(n=n, v=v, c=c, ell=0.1)
                dim = model_closure(params).dim_reached
                for e in rng.uniform(-5.0, 5.0, 2):
                    assert lie_closure(binary_generators(params, e)).dim_reached == dim


def energy_free_generators(params):
    """X_0(0) and each D_i (c_i at row N+i, column i), as floats."""
    n = params.n
    gens = [generator(params, np.zeros(n), 0.0)]
    for i, c in enumerate(params.c):
        d = np.zeros((2 * n, 2 * n))
        d[n + i, i] = c
        gens.append(d)
    return gens


def random_interaction(rng, n, edges, scale=1.0):
    """Symmetric V with a random diagonal and weight on ``edges`` only, and signed c."""
    v = np.diag(rng.uniform(-2.0, 2.0, n))
    for i, j in edges:
        v[i, j] = v[j, i] = scale * rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    return v, rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)


class TestCouplingGraphCriterion:
    """``model_closure`` is the component formula sum_k (2 n_k^2 + n_k) of V's coupling graph.

    Checked against the exact closure over Q on every edge pattern up to
    N = 3 and a seeded N = 4 subset, and against ``lie_closure`` on the
    energy-free generators over a seeded sweep up to N = 8.
    """

    @staticmethod
    def dyadic_model(rng, n, edges):
        """Fraction V and c: dyadic weights on ``edges``, random diagonal (zero allowed), signed c."""
        v = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            v[i][i] = Fraction(int(rng.integers(-4, 5)), 4)
        for i, j in edges:
            v[i][j] = v[j][i] = Fraction(int(rng.integers(1, 5)) * int(rng.choice([-1, 1])), 4)
        c = [Fraction(int(rng.integers(1, 5)) * int(rng.choice([-1, 1])), 2) for _ in range(n)]
        return v, c

    def check_exact(self, v, c):
        params = ModelParams(n=len(v), v=np.array(v, dtype=float), c=np.array(c, dtype=float), ell=0.1)
        closure = model_closure(params)
        exact = exact_closure_dim(exact_energy_free_generators(v, c))
        assert closure.dim_reached == exact
        assert closure.target_dim == sp_dim(len(v))
        assert closure.full == (exact == sp_dim(len(v))) == (len(closure.components) == 1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_edge_pattern_against_the_exact_closure(self, n):
        rng = np.random.default_rng(50 + n)
        pairs = list(itertools.combinations(range(n), 2))
        for k in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, k):
                self.check_exact(*self.dyadic_model(rng, n, edges))

    def test_seeded_four_channel_patterns_against_the_exact_closure(self):
        rng = np.random.default_rng(54)
        pairs = list(itertools.combinations(range(4), 2))
        patterns = [(), ((0, 1), (2, 3)), ((0, 1), (1, 2), (2, 3))]  # none, two blocks, the path
        patterns += [tuple(p for p in pairs if rng.random() < 0.4) for _ in range(2)]
        for edges in patterns:
            self.check_exact(*self.dyadic_model(rng, 4, edges))

    def test_seeded_sweep_against_lie_closure(self):
        rng = np.random.default_rng(55)
        for n in range(1, 9):
            pairs = list(itertools.combinations(range(n), 2))
            for _ in range(3):
                if n < 6:
                    edges = [p for p in pairs if rng.random() < 0.5]
                else:  # sparse: about n - 1 random edges, so components of every size occur
                    edges = [pairs[k] for k in rng.choice(len(pairs), n - 1, replace=False)]
                v, c = random_interaction(rng, n, edges)
                params = ModelParams(n=n, v=v, c=c, ell=0.1)
                assert model_closure(params).dim_reached == lie_closure(energy_free_generators(params)).dim_reached
        # a random spanning tree at N = 8 reaches the whole algebra
        v, c = random_interaction(rng, 8, [(int(rng.integers(0, k)), k) for k in range(1, 8)])
        params = ModelParams(n=8, v=v, c=c, ell=0.1)
        assert model_closure(params).full and lie_closure(energy_free_generators(params)).dim_reached == sp_dim(8)

    def test_components_are_the_coupling_graph_components(self):
        v = np.zeros((5, 5))
        v[0, 3] = v[3, 0] = 0.5
        v[1, 4] = v[4, 1] = -2.0
        v[3, 4] = v[4, 3] = 1e-300
        np.fill_diagonal(v, 7.0)  # the diagonal couples nothing
        closure = model_closure(make_params(5, v))
        assert closure.components == ((0, 1, 3, 4), (2,))
        assert (closure.dim_reached, closure.target_dim, closure.full) == (sp_dim(4) + sp_dim(1), sp_dim(5), False)

    def test_one_tiny_edge_still_connects_the_path(self):
        # the numerical rank test drops brackets below its zero floor 1e-12: it reported 24 or 20
        for i in range(3):
            path = tridiagonal_witness(4)
            path[i, i + 1] = path[i + 1, i] = 1e-300
            assert model_closure(make_params(4, path)).dim_reached == 36

    @pytest.mark.parametrize("eps", [1e-12, 1e-13, 1e-200])
    def test_tiny_couplings_are_couplings(self, tmp_path, capsys, eps):
        # the numerical rank test reported 6 of 10 and exit 3 below its zero floor 1e-12
        cfg = tmp_path / "eps.json"
        cfg.write_text(json.dumps({
            "N": 2, "V": [[0.0, eps], [eps, 0.0]], "c": [1.0, 1.0], "ell": 0.1,
            "certify": {"grid": {"lo": -1.0, "hi": 1.0, "count": 3}},
        }))
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        with open(out / "certificates.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["closure_dim"], r["target_dim"]) for r in rows] == [("10", "10")] * 3
        assert main(["critical", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""


def certificate(params, energy):
    return density_certificate(params, energy, model_closure(params), spectral_bounds(params))


class TestDensityCertificate:
    def test_single_channel_certified(self):
        params = make_params(1, np.zeros((1, 1)), ell=0.1)
        cert = certificate(params, 0.0)
        assert cert.norm_condition and cert.closure.full and cert.certified
        assert cert.closure.dim_reached == 3

    def test_norm_failure_is_indeterminate(self):
        params = make_params(1, np.zeros((1, 1)), ell=0.1)
        cert = certificate(params, 50.0)
        assert not cert.norm_condition
        assert cert.closure.full  # the algebra is still full there
        assert not cert.certified

    def test_decoupled_interaction_never_certifies(self):
        params = make_params(2, np.zeros((2, 2)))
        cert = certificate(params, 0.7)
        assert not cert.closure.full
        assert cert.closure.dim_reached == 6
        assert not cert.certified

    def test_closure_margin_matches_lie_closure(self):
        for params, e in ((make_params(2, tridiagonal_witness(2)), 0.4), (make_params(2, np.zeros((2, 2))), 0.7)):
            report = model_closure(params)
            cert = density_certificate(params, e, report, spectral_bounds(params))
            assert cert.closure is report
            assert report.dim_reached == lie_closure(binary_generators(params, e)).dim_reached

    def test_verdict_stable_under_small_energy_shift(self):
        params = make_params(2, tridiagonal_witness(2))
        for e in (-2.0, 0.4, 3.1):
            verdicts = {certificate(params, e + d).certified for d in (-1e-4, 0.0, 1e-4)}
            assert len(verdicts) == 1

    def test_norm_condition_equals_the_per_cell_oracle(self):
        # the oracle takes every binary cell's generator norm; the certificate reads only the bounds
        rng = np.random.default_rng(41)
        verdicts = set()
        for n in (1, 2, 3, 4):
            for _ in range(6):
                v = rng.uniform(-1, 1, (n, n))
                c = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
                ell_c = spectral_bounds(make_params(n, v + v.T, c=c)).ell_c
                params = make_params(n, v + v.T, c=c, ell=rng.uniform(0.05, 0.95) * ell_c)
                closure, bounds, window = model_closure(params), spectral_bounds(params), energy_interval(params)
                ends = [window.lo, window.hi]
                energies = list(np.linspace(window.lo - 3.0, window.hi + 3.0, 25)) + ends
                energies += [np.nextafter(e, side) for e in ends for side in (-np.inf, np.inf)]
                for e in energies:
                    cert = density_certificate(params, e, closure, bounds)
                    oracle = all(params.ell * generator_norm(params, omega, e) <= params.rho
                                 for omega in binary_cells(n))
                    assert cert.norm_condition == oracle, (n, e)
                    verdicts.add(oracle)
        assert verdicts == {False, True}

    def test_closure_does_not_collapse_at_large_energy(self):
        # a closure of the binary generators at |E| = 1e6 loses every bracket
        # to rounding and reports dimension 2; the algebra does not depend on E
        params = make_params(2, tridiagonal_witness(2))
        for e in (-1e6, 1e6):
            cert = certificate(params, e)
            assert cert.closure.dim_reached == 10 and cert.closure.full
            assert not cert.norm_condition


def critical(params):
    """``cmd_critical`` on a run configuration holding ``params``."""
    cfg = RunConfig(
        model=params,
        seed=0,
        certify=CertifySettings(),
        critical=CriticalSettings(),
        lyapunov=LyapunovSettings(),
        ids=IdsSettings(),
        localize=LocalizeSettings(),
    )
    return cmd_critical(cfg, cfg.seed)


class TestCriticalScan:
    """``critical`` is one ``model_closure``: full means no critical energy."""

    def test_single_channel_has_no_critical_energies(self):
        params = make_params(1, np.array([[0.3]]))
        result = critical(params)
        window = energy_interval(params)
        assert result.status == EXIT_OK
        assert result.data.full and result.data.target_dim == 3
        assert [t.rows for t in result.tables] == [[]]
        assert result.stdout == f"0 critical energies in [{window.lo:.6g}, {window.hi:.6g}]\n"

    def test_tridiagonal_witness_clean(self, monkeypatch):
        calls = []

        def recorded(params):
            calls.append(params)
            return model_closure(params)

        monkeypatch.setattr(anderloc.cli, "model_closure", recorded)
        params = make_params(2, tridiagonal_witness(2))
        result = critical(params)
        assert result.status == EXIT_OK and result.data.full
        assert len(calls) == 1 and calls[0] is params

    def test_decoupled_interaction_sets_flag(self):
        result = critical(make_params(2, np.zeros((2, 2))))
        assert result.status == EXIT_NON_GENERIC
        assert not result.data.full and result.data.dim_reached == 6
        assert [t.rows for t in result.tables] == [[]]
        assert result.stdout == ""

    def test_empty_window_rejected(self):
        params = make_params(1, np.zeros((1, 1)), c=np.array([2.0]), ell=0.9)
        with pytest.raises(ScanRangeError, match="certified energy window is empty") as exc:
            critical(params)
        assert exit_code_for(exc.value) == EXIT_CONFIG

    def test_random_interactions_are_generic(self):
        rng = np.random.default_rng(35)
        for n in (2, 3):
            v = rng.uniform(-1, 1, (n, n))
            params = make_params(n, v + v.T)
            result = critical(params)
            assert result.status == EXIT_OK and result.data.full


class TestWitness:
    def test_order_one_is_zero(self):
        assert np.array_equal(tridiagonal_witness(1), [[0.0]])

    def test_order_two(self):
        assert np.array_equal(tridiagonal_witness(2), [[0.0, 1.0], [1.0, 0.0]])

    def test_order_four_structure(self):
        v = tridiagonal_witness(4)
        assert np.array_equal(np.diag(v), np.zeros(4))
        assert np.array_equal(np.diag(v, 1), np.ones(3))
        assert np.array_equal(v, v.T)
        assert np.count_nonzero(v) == 6
