"""Kernel-level checks: exponential, symplectic/Hamiltonian predicates, QR, vectorization."""

import math
import warnings

import numpy as np
import pytest

from anderloc.errors import DimensionError, SingularMatrixError
from anderloc.linalg import (
    as_symmetric,
    bracket,
    exp_matrix,
    is_hamiltonian,
    is_symplectic,
    qr_pos,
    sp_dim,
    standard_form,
    sym_eigenvalues,
    vectorize_sp,
)


def hamiltonian(a, b, c):
    """[[a, b], [c, -t(a)]]; b and c must be symmetric."""
    return np.block([[a, b], [c, -a.T]])


def random_hamiltonian(rng, n):
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    c = rng.standard_normal((n, n))
    return hamiltonian(a, b + b.T, c + c.T)


class TestExpMatrix:
    def test_zero_gives_identity(self):
        for n in (1, 2, 5):
            assert np.allclose(exp_matrix(np.zeros((n, n))), np.eye(n), atol=0)

    def test_nilpotent_series_terminates(self):
        x = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(exp_matrix(x), [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_hyperbolic_closed_form(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        want = [[math.cosh(1), math.sinh(1)], [math.sinh(1), math.cosh(1)]]
        assert np.allclose(exp_matrix(x), want, rtol=1e-12)

    def test_scale_folds_in(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(exp_matrix(x, 0.7), exp_matrix(0.7 * x), atol=0)

    def test_against_eigendecomposition_oracle(self):
        # symmetric exponents up to norm 10, relative accuracy 1e-12
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            s = rng.standard_normal((n, n))
            s = s + s.T
            s *= rng.uniform(0.1, 10.0) / max(np.linalg.norm(s, 2), 1e-30)
            w, q = np.linalg.eigh(s)
            oracle = (q * np.exp(w)) @ q.T
            got = exp_matrix(s)
            assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            exp_matrix(np.zeros((2, 3)))

    def test_hamiltonian_exponential_is_symplectic(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            x = random_hamiltonian(rng, n)
            ell = rng.uniform(1e-3, 10.0)
            t = exp_matrix(x, ell)
            assert is_symplectic(t, 1e-10 * np.linalg.norm(t) ** 2)

    def test_small_exponents_pass_the_absolute_check(self):
        # inside the certified regime ||ell * X|| <= 1 the product stays of
        # unit scale and the plain 1e-10 tolerance applies
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            x = random_hamiltonian(rng, n)
            ell = rng.uniform(1e-3, 1.0) / max(np.linalg.norm(x, 2), 1.0)
            assert is_symplectic(exp_matrix(x, ell), 1e-10)


class TestSymplecticPredicate:
    def test_identity(self):
        assert is_symplectic(np.eye(4), 1e-14)

    def test_standard_form_is_symplectic(self):
        assert is_symplectic(standard_form(3), 1e-14)

    def test_odd_order_rejected(self):
        with pytest.raises(DimensionError):
            is_symplectic(np.eye(3))

    def test_perturbed_identity_fails(self):
        m = np.eye(4)
        m[0, 1] = 1e-3
        assert not is_symplectic(m, 1e-8)

    def test_stack_passes_only_when_every_matrix_does(self):
        bad = np.eye(4)
        bad[0, 1] = 1e-3
        good = np.stack([np.eye(4), standard_form(2)])
        assert is_symplectic(good, 1e-14)
        assert is_symplectic(good[None], 1e-14)
        assert not is_symplectic(np.stack([np.eye(4), bad, standard_form(2)]), 1e-8)

    def test_stack_broadcasts_per_matrix_tolerances(self):
        bad = np.eye(4)
        bad[0, 1] = 1e-3
        err = np.linalg.norm(bad.T @ standard_form(2) @ bad - standard_form(2))
        stack = np.stack([bad, np.eye(4)])
        assert is_symplectic(stack, np.array([2 * err, 1e-14]))
        assert not is_symplectic(stack, np.array([1e-14, 2 * err]))

    @pytest.mark.parametrize("shape", [(2, 3, 3), (2, 4, 2), (4,)])
    def test_bad_stacks_rejected(self, shape):
        with pytest.raises(DimensionError):
            is_symplectic(np.zeros(shape))


class TestHamiltonianPredicate:
    def test_block_form(self):
        m = np.array([[1.0, 2.0], [2.0, -1.0]])
        x = np.zeros((4, 4))
        x[:2, 2:] = np.eye(2)
        x[2:, :2] = m
        assert is_hamiltonian(x, 1e-14)

    def test_identity_is_not(self):
        assert not is_hamiltonian(np.eye(4), 1e-8)

    def test_bracket_stays_hamiltonian(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            z = bracket(random_hamiltonian(rng, n), random_hamiltonian(rng, n))
            assert is_hamiltonian(z, 1e-10 * max(1.0, np.linalg.norm(z)))

    def test_odd_order_rejected(self):
        with pytest.raises(DimensionError):
            is_hamiltonian(np.zeros((3, 3)))


class TestBracket:
    def test_self_bracket_vanishes(self):
        rng = np.random.default_rng(7)
        x = random_hamiltonian(rng, 3)
        assert np.allclose(bracket(x, x), 0.0, atol=1e-12)

    def test_antisymmetry(self):
        rng = np.random.default_rng(8)
        x, y = random_hamiltonian(rng, 2), random_hamiltonian(rng, 2)
        assert np.allclose(bracket(x, y), -bracket(y, x), atol=1e-12)

    def test_hand_computed_example(self):
        # order 1: [[0,1],[a,0]] against [[0,1],[b,0]] gives diag(b-a, a-b)
        a, b = 0.7, -1.3
        xa = np.array([[0.0, 1.0], [a, 0.0]])
        xb = np.array([[0.0, 1.0], [b, 0.0]])
        assert np.allclose(bracket(xa, xb), [[b - a, 0.0], [0.0, a - b]], atol=1e-15)

    def test_jacobi_identity(self):
        rng = np.random.default_rng(9)
        x, y, z = (random_hamiltonian(rng, 2) for _ in range(3))
        total = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
        assert np.allclose(total, 0.0, atol=1e-10)

    def test_stack_brackets_each_matrix(self):
        rng = np.random.default_rng(16)
        xs = np.array([random_hamiltonian(rng, 3) for _ in range(5)])
        y = random_hamiltonian(rng, 3)
        batch = bracket(xs, y)
        assert batch.shape == xs.shape
        for x, z in zip(xs, batch):
            assert np.array_equal(z, bracket(x, y))

    def test_order_mismatch(self):
        with pytest.raises(DimensionError):
            bracket(np.zeros((2, 2)), np.zeros((4, 4)))


class TestVectorize:
    def test_zero_element(self):
        v = vectorize_sp(np.zeros((6, 6)))
        assert v.shape == (sp_dim(3),)
        assert np.all(v == 0.0)

    def test_dimension_count(self):
        assert sp_dim(2) == 10
        assert vectorize_sp(np.zeros((4, 4))).shape == (10,)

    def test_canonical_basis_is_orthonormal(self):
        # basis elements map to unit vectors; Gram rank is full
        n = 2
        zero = np.zeros((n, n))
        vecs = []
        for i in range(n):
            for j in range(n):
                a = np.zeros((n, n))
                a[i, j] = 1.0
                vecs.append(vectorize_sp(hamiltonian(a, zero, zero)))
        for block in ("b", "c"):
            for i in range(n):
                for j in range(i, n):
                    s = np.zeros((n, n))
                    s[i, j] = s[j, i] = 1.0
                    elem = hamiltonian(zero, s, zero) if block == "b" else hamiltonian(zero, zero, s)
                    vecs.append(vectorize_sp(elem))
        gram = np.array(vecs)
        assert gram.shape == (sp_dim(n), sp_dim(n))
        assert np.linalg.matrix_rank(gram) == sp_dim(n)
        assert all(np.count_nonzero(v) == 1 for v in gram)

    def test_coordinate_order(self):
        # a row-major, then the upper triangles of b and of c
        rng = np.random.default_rng(17)
        n = 3
        x = random_hamiltonian(rng, n)
        iu = np.triu_indices(n)
        want = np.concatenate([x[:n, :n].ravel(), x[:n, n:][iu], x[n:, :n][iu]])
        assert np.array_equal(vectorize_sp(x), want)

    def test_linearity(self):
        rng = np.random.default_rng(10)
        x, y = random_hamiltonian(rng, 3), random_hamiltonian(rng, 3)
        a, b = rng.standard_normal(2)
        assert np.allclose(
            vectorize_sp(a * x + b * y), a * vectorize_sp(x) + b * vectorize_sp(y), atol=1e-12
        )

    def test_roundtrip_through_matrix(self):
        # coordinates determine the Hamiltonian matrix: rebuild it from them
        rng = np.random.default_rng(12)
        n = 3
        x = random_hamiltonian(rng, n)
        v = vectorize_sp(x)
        iu = np.triu_indices(n)
        a = v[: n * n].reshape(n, n)
        b = np.zeros((n, n))
        c = np.zeros((n, n))
        b[iu] = v[n * n : n * n + len(iu[0])]
        c[iu] = v[n * n + len(iu[0]) :]
        assert np.array_equal(hamiltonian(a, b + np.triu(b, 1).T, c + np.triu(c, 1).T), x)

    def test_stack_gives_rowwise_coordinates(self):
        rng = np.random.default_rng(18)
        xs = np.array([[random_hamiltonian(rng, 2) for _ in range(3)] for _ in range(2)])
        vs = vectorize_sp(xs)
        assert vs.shape == (2, 3, sp_dim(2))
        for x_row, v_row in zip(xs, vs):
            for x, v in zip(x_row, v_row):
                assert np.array_equal(v, vectorize_sp(x))

    def test_odd_order_rejected(self):
        with pytest.raises(DimensionError):
            vectorize_sp(np.zeros((3, 3)))


class TestSymEigenvalues:
    def test_diagonal(self):
        assert np.allclose(sym_eigenvalues(np.diag([3.0, -1.0])), [-1.0, 3.0])

    def test_offdiagonal_pair(self):
        assert np.allclose(sym_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1.0, 1.0])

    def test_tridiagonal_order3(self):
        v = np.zeros((3, 3))
        v[0, 1] = v[1, 0] = v[1, 2] = v[2, 1] = 1.0
        assert np.allclose(sym_eigenvalues(v), [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)

    def test_trace_identity(self):
        rng = np.random.default_rng(13)
        s = rng.standard_normal((6, 6))
        s = s + s.T
        w = sym_eigenvalues(s)
        assert np.all(np.diff(w) >= 0)
        assert abs(w.sum() - np.trace(s)) <= 1e-10 * np.linalg.norm(s)

    # in the second matrix m - t(m) overflows, and a NaN relative asymmetry must not pass as small
    @pytest.mark.parametrize("m", [[[0.0, 1.0], [1.1, 0.0]], [[0.0, 1e308], [-1e308, 0.0]]])
    def test_asymmetric_rejected(self, m):
        with pytest.raises(DimensionError, match=r"entries \(0,1\) and \(1,0\) differ"):
            as_symmetric(np.array(m))

    def test_entries_near_the_float_limit_do_not_overflow(self):
        m = np.array([[1e308, -1.7e308], [-1.7e308, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(as_symmetric(m), m)


class TestQrPos:
    def test_identity(self):
        q, r = qr_pos(np.eye(3))
        assert np.allclose(q, np.eye(3), atol=0)
        assert np.allclose(r, np.eye(3), atol=0)

    def test_sign_normalization_forced(self):
        q, r = qr_pos(np.diag([-2.0, 3.0]))
        assert np.allclose(q, np.diag([-1.0, 1.0]), atol=0)
        assert np.allclose(r, np.diag([2.0, 3.0]), atol=0)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            m = rng.standard_normal((4, 4))
            q, r = qr_pos(m)
            assert np.all(np.diag(r) > 0)
            assert np.linalg.norm(q @ r - m) <= 1e-12 * np.linalg.norm(m)
            assert np.linalg.norm(q.T @ q - np.eye(4)) <= 1e-12

    def test_stacked_input(self):
        rng = np.random.default_rng(15)
        m = rng.standard_normal((5, 3, 3))
        q, r = qr_pos(m)
        assert q.shape == m.shape
        d = np.diagonal(r, axis1=-2, axis2=-1)
        assert np.all(d > 0)
        assert np.allclose(q @ r, m, atol=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            qr_pos(np.array([[1.0, 2.0], [2.0, 4.0]]))
