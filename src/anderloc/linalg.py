"""Dense kernels for small real symplectic/Hamiltonian matrices.

All matrices are plain float ndarrays of modest order (the package never
needs more than a few dozen rows), so every kernel here is a direct dense
algorithm.  The standard symplectic form is J = [[0, -I], [I, 0]]; a
matrix M of order 2N is symplectic when t(M) J M = J and a matrix X is
Hamiltonian when J X is symmetric, i.e. X = [[A, B], [C, -t(A)]] with B
and C symmetric.  The space of Hamiltonian matrices of order 2N has
dimension 2N^2 + N.

``exp_matrix`` is the general Pade exponential.  No production path calls
it: transfer matrices come from the closed form in ``model.transfer_table``,
and ``exp_matrix`` is the independent oracle the tests compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm as _expm

from .errors import DimensionError, SingularMatrixError

__all__ = [
    "sp_dim",
    "standard_form",
    "exp_matrix",
    "is_symplectic",
    "is_hamiltonian",
    "as_symmetric",
    "sym_eigenvalues",
    "qr_pos",
    "SpElement",
    "bracket",
    "vectorize_sp",
]


def sp_dim(n: int) -> int:
    """Dimension 2n^2 + n of the Hamiltonian matrices of order 2n."""
    return 2 * n * n + n


def standard_form(n: int) -> np.ndarray:
    """The symplectic form J = [[0, -I_n], [I_n, 0]] of order 2n."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


def _square(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {m.shape}")
    return m


def _even_order(m: np.ndarray, what: str) -> int:
    m = _square(m, what)
    if m.shape[0] % 2 != 0:
        raise DimensionError(f"{what} must have even order, got {m.shape[0]}")
    return m.shape[0] // 2


def exp_matrix(x: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Matrix exponential exp(scale * x) via scaling-and-squaring Pade.

    Test oracle for ``model.transfer_table``; no production path calls it.
    """
    x = _square(x, "exponent")
    if not np.isfinite(scale):
        raise ValueError("scale must be finite")
    return _expm(scale * x)


def is_symplectic(m: np.ndarray, tol: float = 1e-10) -> bool:
    """True when ||t(m) J m - J||_F <= tol."""
    n = _even_order(m, "symplectic candidate")
    j = standard_form(n)
    return bool(np.linalg.norm(m.T @ j @ m - j) <= tol)


def is_hamiltonian(x: np.ndarray, tol: float = 1e-10) -> bool:
    """True when ||J x + t(x) J||_F <= tol, i.e. J x is symmetric."""
    n = _even_order(x, "Hamiltonian candidate")
    j = standard_form(n)
    return bool(np.linalg.norm(j @ x + x.T @ j) <= tol)


def as_symmetric(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Symmetrize m, rejecting asymmetry beyond ``tol`` relative to ||m||.

    Guards against rounding noise from configuration files without hiding
    genuinely asymmetric input.
    """
    m = _square(m, "symmetric matrix")
    scale = np.linalg.norm(m)
    if np.linalg.norm(m - m.T) > tol * max(scale, 1e-300):
        raise DimensionError("matrix is not symmetric within tolerance")
    return 0.5 * (m + m.T)


def sym_eigenvalues(s: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending."""
    return np.linalg.eigvalsh(as_symmetric(s))


def qr_pos(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR factorization normalized to a strictly positive diagonal of R.

    Accepts a single square matrix or a stack of them (shape (..., n, n)).
    The sign normalization makes the factorization unique, which keeps
    Lyapunov accumulations well defined.

    Raises
    ------
    SingularMatrixError
        If any input matrix is singular within working precision.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"need square matrices, got shape {m.shape}")
    q, r = np.linalg.qr(m)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    ad = np.abs(d)
    tiny = m.shape[-1] * np.finfo(float).eps * np.max(ad, axis=-1, keepdims=True)
    if not np.all(ad > tiny):
        raise SingularMatrixError("matrix is numerically singular in qr_pos")
    s = np.where(d < 0, -1.0, 1.0)
    return q * s[..., None, :], r * s[..., :, None]


@dataclass(frozen=True, eq=False)
class SpElement:
    """Hamiltonian matrix [[a, b], [c, -t(a)]] with b, c symmetric.

    The blocks are stored explicitly so that membership in the Lie algebra
    is exact by construction; ``b`` and ``c`` are symmetrized on entry.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = _square(self.a, "block a")
        n = a.shape[0]
        b = _square(self.b, "block b")
        c = _square(self.c, "block c")
        if b.shape[0] != n or c.shape[0] != n:
            raise DimensionError("blocks a, b, c must share one order")
        b = 0.5 * (b + b.T)
        c = 0.5 * (c + c.T)
        for arr, name in ((a, "a"), (b, "b"), (c, "c")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def order(self) -> int:
        return self.a.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        n = self.order
        x = np.zeros((2 * n, 2 * n))
        x[:n, :n] = self.a
        x[:n, n:] = self.b
        x[n:, :n] = self.c
        x[n:, n:] = -self.a.T
        return x

    @property
    def coords(self) -> np.ndarray:
        return vectorize_sp(self)

    @classmethod
    def zero(cls, n: int) -> "SpElement":
        z = np.zeros((n, n))
        return cls(z, z, z)

    @classmethod
    def from_matrix(cls, x: np.ndarray, tol: float = 1e-10) -> "SpElement":
        """Split a 2N x 2N Hamiltonian matrix into blocks.

        The Hamiltonian residual is checked relative to max(1, ||x||_F);
        small rounding asymmetry in the b, c blocks is absorbed by the
        constructor's symmetrization.
        """
        n = _even_order(x, "Hamiltonian matrix")
        scale = max(1.0, float(np.linalg.norm(x)))
        if not is_hamiltonian(x, tol * scale):
            raise DimensionError("matrix is not Hamiltonian within tolerance")
        return cls(x[:n, :n], x[:n, n:], x[n:, :n])


def bracket(x: SpElement, y: SpElement) -> SpElement:
    """Commutator [x, y] = xy - yx, re-expressed in block form."""
    if x.order != y.order:
        raise DimensionError(f"order mismatch: {x.order} vs {y.order}")
    xm, ym = x.matrix, y.matrix
    z = xm @ ym - ym @ xm
    n = x.order
    return SpElement(z[:n, :n], z[:n, n:], z[n:, :n])


def vectorize_sp(x: SpElement) -> np.ndarray:
    """Coordinates of x in the canonical basis, length 2N^2 + N.

    The basis is: all entries of the a block (row-major), then the upper
    triangles (i <= j) of b and of c.  The map is linear and injective on
    the Hamiltonian matrices, and sends the canonical basis elements to
    standard unit vectors.
    """
    n = x.order
    iu = np.triu_indices(n)
    return np.concatenate([x.a.ravel(), x.b[iu], x.c[iu]])
