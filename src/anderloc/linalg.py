"""Dense kernels for small real symplectic/Hamiltonian matrices.

All matrices are plain float ndarrays of modest order (the package never
needs more than a few dozen rows), so every kernel here is a direct dense
algorithm.  The standard symplectic form is J = [[0, -I], [I, 0]]; a
matrix M of order 2N is symplectic when t(M) J M = J and a matrix X is
Hamiltonian when J X is symmetric, i.e. X = [[A, B], [C, -t(A)]] with B
and C symmetric.  The space of Hamiltonian matrices of order 2N has
dimension 2N^2 + N.

There is no general matrix exponential here: transfer matrices come from
the closed form in ``model.transfer_table``, and the tests compare it
against scipy's ``expm``.  This module loads numpy only.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionError, SingularMatrixError

__all__ = [
    "sp_dim",
    "standard_form",
    "is_symplectic",
    "is_hamiltonian",
    "as_symmetric",
    "qr_pos",
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


@functools.cache
def _form(n: int) -> np.ndarray:
    """``standard_form(n)``, read-only: the one J of each order that the symplectic and Hamiltonian tests reuse."""
    j = standard_form(n)
    j.setflags(write=False)
    return j


def _square(m: np.ndarray, what: str, stack: bool = False, even: bool = False) -> np.ndarray:
    """``m`` as a float square matrix, or a stack (..., k, k) of them when ``stack``, of even order k when ``even``.

    Raises ``DimensionError`` naming ``what`` and the shape otherwise.
    """
    m = np.asarray(m, dtype=float)
    if (m.ndim < 2 if stack else m.ndim != 2) or m.shape[-1] != m.shape[-2] or (even and m.shape[-1] % 2):
        form = ("square matrices" if stack else "a square matrix") + (" of even order" if even else "")
        raise DimensionError(f"{what} must be {form}, got shape {m.shape}")
    return m


def is_symplectic(m: np.ndarray, tol: float | np.ndarray = 1e-10) -> bool:
    """True when ||t(m) J m - J||_F <= tol for every matrix of a stack (..., 2n, 2n); ``tol`` broadcasts."""
    m = _square(m, "symplectic candidate", stack=True, even=True)
    j = _form(m.shape[-1] // 2)
    return bool(np.all(np.linalg.norm(np.swapaxes(m, -1, -2) @ j @ m - j, axis=(-2, -1)) <= tol))


def is_hamiltonian(x: np.ndarray, tol: float = 1e-10) -> bool:
    """True when ||J x + t(x) J||_F <= tol, i.e. J x is symmetric."""
    x = _square(x, "Hamiltonian candidate", even=True)
    j = _form(x.shape[0] // 2)
    return bool(np.linalg.norm(j @ x + x.T @ j) <= tol)


def as_symmetric(m: np.ndarray) -> np.ndarray:
    """Symmetrize m, rejecting unless ||m - t(m)||_F <= 1e-10 * ||m||_F.

    Guards against rounding noise from configuration files without hiding
    genuinely asymmetric input; the error names the most asymmetric entry pair.
    The test runs on m over its largest entry, and the symmetric part halves
    each term before adding, so entries near the float limit neither overflow
    nor pass the test as NaN.
    """
    m = _square(m, "symmetric matrix")
    unit = m / max(float(np.max(np.abs(m), initial=0.0)), 1e-300)
    asym = np.abs(unit - unit.T)
    rel = float(np.linalg.norm(asym)) / max(float(np.linalg.norm(unit)), 1e-300)
    if not rel <= 1e-10:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        raise DimensionError(
            f"matrix is not symmetric: entries ({i},{j}) and ({j},{i}) differ by "
            f"{abs(float(m[i, j]) - float(m[j, i])):g} (relative Frobenius asymmetry {rel:g} > 1e-10)"
        )
    return 0.5 * m + 0.5 * m.T


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
    m = _square(m, "QR input", stack=True)
    q, r = np.linalg.qr(m)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    ad = np.abs(d)
    tiny = m.shape[-1] * np.finfo(float).eps * np.max(ad, axis=-1, keepdims=True)
    if not np.all(ad > tiny):
        raise SingularMatrixError("matrix is numerically singular in qr_pos")
    s = np.where(d < 0, -1.0, 1.0)
    return q * s[..., None, :], r * s[..., :, None]


def bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Commutator [x, y] = xy - yx; broadcasts over stacks of matrices."""
    if np.shape(x)[-1] != np.shape(y)[-1]:
        raise DimensionError(f"order mismatch: {np.shape(x)[-1]} vs {np.shape(y)[-1]}")
    return x @ y - y @ x


def vectorize_sp(x: np.ndarray) -> np.ndarray:
    """Coordinates of a Hamiltonian matrix (or stack) in the canonical basis.

    The basis is: all entries of the a block (row-major), then the upper
    triangles (i <= j) of b and of c, for x = [[a, b], [c, -t(a)]].  The
    map is linear and injective on the Hamiltonian matrices, sends the
    canonical basis elements to standard unit vectors, and returns shape
    (..., 2N^2 + N).
    """
    x = _square(x, "Hamiltonian matrix", stack=True, even=True)
    two_n = x.shape[-1]
    n = two_n // 2
    i, j = np.triu_indices(n)
    a = np.arange(n)[:, None] * two_n + np.arange(n)
    idx = np.concatenate([a.ravel(), i * two_n + n + j, (n + i) * two_n + j])
    return x.reshape(*x.shape[:-2], two_n * two_n)[..., idx]
