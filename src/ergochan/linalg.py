"""Dense linear-algebra primitives, real or complex.

Everything downstream (channels, superoperators, ergodic decompositions)
is built on the handful of routines in this module.  Matrices are
float64 when their input is real and complex128 otherwise.  Three
conventions are fixed here once and inherited everywhere:

* Vectorization is **column stacking**: ``vec(M)`` stacks the columns of
  ``M`` top to bottom, so the matrix of ``X -> V X W^dag`` is
  ``conj(W) kron V``.
* The **Hermitian basis** of the d x d matrices is orthonormal and
  consists of Hermitian matrices: ``E_kk``, ``(E_jk + E_kj)/sqrt(2)`` and
  ``i (E_jk - E_kj)/sqrt(2)`` for j < k, stored at the column-stacking
  positions of ``E_kk``, ``E_jk`` and ``E_kj``.  A superoperator that
  preserves Hermiticity is a real matrix in this basis
  (:func:`to_hermitian_basis`); results are always reported in the
  column-stacking basis.
* Eigenvalues are always reported sorted by descending modulus, ties
  broken by descending real part, then descending imaginary part, so
  that reports are deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, NumericError

#: Default tolerance; callers scale by dimension where needed.
DEFAULT_TOL = 1e-10

#: Relative resolution of :func:`eig_sort_order`: sort keys closer than
#: this (times max(1, largest modulus)) compare as ties.
EIG_TIE_TOL = 1e-12

#: Largest entry of ``M - mirror(M)``, relative to the largest entry of
#: M, that :func:`is_hermiticity_preserving` still counts as round-off:
#: about the backward error of one eigendecomposition at d = 16.
HERMITICITY_TOL = 1e-13


def as_matrix(M) -> np.ndarray:
    """Coerce to a 2-d float64 (real input) or complex128 ndarray and
    reject non-finite entries."""
    M = np.asarray(M)
    M = np.asarray(M, dtype=complex if np.iscomplexobj(M) else float)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise DimensionError(f"expected a 2-d matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DimensionError("matrix contains NaN or Inf entries")
    return M


def _require_square(M: np.ndarray, what: str = "matrix") -> np.ndarray:
    if M.shape[0] != M.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {M.shape}")
    return M


def eig_sort_order(eigenvalues: np.ndarray) -> np.ndarray:
    """Index order: descending |lambda|, then Re, then Im (all descending).

    Keys are quantized at :data:`EIG_TIE_TOL` (relative) so that moduli
    equal up to round-off compare as ties and fall through to the real
    part.
    """
    lam = np.asarray(eigenvalues)
    if lam.size == 0:
        return np.arange(0)
    q = EIG_TIE_TOL * max(1.0, float(np.max(np.abs(lam))))
    key_abs = np.round(np.abs(lam) / q)
    key_re = np.round(lam.real / q)
    key_im = np.round(lam.imag / q)
    # lexsort uses the last key as primary
    return np.lexsort((-key_im, -key_re, -key_abs))


def eig_general(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and right eigenvectors of a general square matrix.

    Returns ``(lam, W)`` with ``M @ W[:, k] = lam[k] * W[:, k]`` and the
    deterministic sort order above.  Residuals are those of LAPACK's
    QR/Hessenberg driver, bounded by ~1e2 * machine epsilon * ||M||.
    """
    M = _require_square(as_matrix(M))
    try:
        lam, W = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NumericError(f"eigendecomposition did not converge: {exc}") from exc
    order = eig_sort_order(lam)
    return lam[order], W[:, order]


def eigvals(M) -> np.ndarray:
    """Sorted eigenvalues only."""
    M = _require_square(as_matrix(M))
    lam = np.linalg.eigvals(M)
    return lam[eig_sort_order(lam)]


def svd(M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD ``M = U diag(s) Vh`` with descending nonnegative s."""
    M = as_matrix(M)
    try:
        return np.linalg.svd(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"SVD did not converge: {exc}") from exc


def singular_values(M) -> np.ndarray:
    return np.linalg.svd(as_matrix(M), compute_uv=False)


def kron(A, B) -> np.ndarray:
    return np.kron(as_matrix(A), as_matrix(B))


def vec(M) -> np.ndarray:
    """Column-stacking vectorization: vec([[1,3],[2,4]]) = (1,2,3,4)."""
    M = as_matrix(M)
    return M.reshape(-1, order="F")


def unvec(v, d: int) -> np.ndarray:
    """Inverse of :func:`vec` for a d x d matrix."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != d * d:
        raise DimensionError(f"vector of length {v.size} cannot unvec to {d}x{d}")
    return v.reshape((d, d), order="F")


def trace_norm(M) -> float:
    """Sum of singular values (Schatten 1-norm)."""
    return float(np.sum(singular_values(M)))


def operator_norm(M) -> float:
    """Largest singular value (spectral norm)."""
    s = singular_values(M)
    return float(s[0]) if s.size else 0.0


def hs_norm(M) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(as_matrix(M)))


def hs_inner(A, B) -> complex:
    """Hilbert-Schmidt inner product Tr{A^dag B}, conjugate-linear in A."""
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape != B.shape:
        raise DimensionError(f"shape mismatch {A.shape} vs {B.shape}")
    return complex(np.vdot(A, B))


def _numerical_rank(s: np.ndarray, tol: float) -> int:
    """Number of singular values ``s`` (descending) at or above the cut
    ``tol * max(1, sigma_max)``.

    The cut is absolute below unit scale: the matrices whose rank the
    package needs, such as I - L for a channel L, are differences of
    O(1) matrices, so their round-off is about 1e-16 even when sigma_max
    is tiny (a channel near the identity), and a cut relative to
    sigma_max would count that round-off as rank.
    """
    return int(np.sum(s >= tol * max(1.0, float(s[0]))))


def null_space(M, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of M.

    M may be square or tall (or wide).  Singular values below
    ``tol * max(1, sigma_max)`` count as zero (:func:`_numerical_rank`),
    so the zero matrix has the whole space as its kernel.  The result
    has a row per column of M and a column per kernel vector (possibly
    none).
    """
    _, s, Vh = svd(M)
    return Vh[_numerical_rank(s, tol):].conj().T


def column_space(M, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical range of M, with the
    rank cut of :func:`null_space`."""
    U, s, _ = svd(M)
    return U[:, :_numerical_rank(s, tol)]


def hermitize(M) -> np.ndarray:
    """(M + M^dag)/2, suppressing round-off asymmetry before eigvalsh."""
    M = _require_square(as_matrix(M))
    return (M + M.conj().T) / 2.0


def spectral_radius(M) -> float:
    lam = eigvals(M)
    return float(np.abs(lam[0])) if lam.size else 0.0


def diagonal_blocks(M) -> list:
    """Index sets of the exact diagonal blocks of a square matrix.

    The blocks are the connected components of the graph with an edge
    i -- j wherever ``M[i, j] != 0`` or ``M[j, i] != 0`` (the structural
    support of ``M + M^H``, so entries that would cancel in the sum
    still couple).  Every entry outside the blocks is exactly zero, so
    ``M`` is block diagonal under the permutation that concatenates
    them, and so is every power of ``M``.  Blocks are ordered by their
    smallest index, each sorted ascending; a dense matrix is one block.
    """
    M = _require_square(as_matrix(M))
    coupled = M != 0
    coupled |= coupled.T
    n = M.shape[0]
    seen = np.zeros(n, dtype=bool)
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        members = np.zeros(n, dtype=bool)
        members[start] = True
        frontier = members.copy()
        while frontier.any():  # breadth-first, one frontier per step
            frontier = coupled[frontier].any(axis=0) & ~members
            members |= frontier
        seen |= members
        blocks.append(np.flatnonzero(members))
    return blocks


_SQRT_HALF = 1.0 / math.sqrt(2.0)


def _hermitian_pairs(n: int) -> tuple:
    """Column-stacking positions ``(up, lo)`` of ``E_jk`` and ``E_kj``,
    j < k, for the d x d matrices, n = d^2; None if n is not a square."""
    d = math.isqrt(n)
    if d * d != n:
        return None
    position = np.arange(n).reshape(d, d, order="F")  # position[a, b] of E_ab
    j, k = np.triu_indices(d, 1)
    return position[j, k], position[k, j]


def _mix_pairs(X: np.ndarray, up, lo, w: complex, v: complex) -> None:
    """Rows up, lo of X become ``(X[up] + w X[lo]) / sqrt 2`` and
    ``v (X[up] - w X[lo]) / sqrt 2``, in place (pass ``X.T`` for the
    columns)."""
    top, bottom = X[up], X[lo]
    top *= _SQRT_HALF
    bottom *= w * _SQRT_HALF
    X[up] = top + bottom
    top -= bottom
    if v != 1:
        top *= v
    X[lo] = top


def _superoperator_pairs(M) -> tuple:
    """(M, (up, lo)) for a d^2 x d^2 matrix M; other shapes raise."""
    M = _require_square(as_matrix(M))
    pairs = _hermitian_pairs(M.shape[0])
    if pairs is None:
        raise DimensionError(f"matrix size {M.shape[0]} is not a perfect square")
    return M, pairs


def _mirror(M: np.ndarray, up, lo) -> np.ndarray:
    """Pi conj(M) Pi, Pi the permutation vec(X) -> vec(X^T)."""
    perm = np.arange(M.shape[0])
    perm[up], perm[lo] = lo, up
    out = M[np.ix_(perm, perm)]
    return np.conjugate(out, out=out)


def is_hermiticity_preserving(M) -> bool:
    """Whether the superoperator matrix M satisfies phi(X^dag) = phi(X)^dag.

    In column stacking that is ``M = Pi conj(M) Pi`` with Pi the
    permutation vec(X) -> vec(X^T); it is accepted when the largest
    entry of the difference is at most :data:`HERMITICITY_TOL` times the
    largest entry of M.  A matrix that is not d^2 x d^2 is not a
    superoperator and gives False.
    """
    M = as_matrix(M)
    pairs = _hermitian_pairs(M.shape[0])
    if M.shape[0] != M.shape[1] or pairs is None:
        return False
    gap = _mirror(M, *pairs)
    gap -= M
    return bool(np.max(np.abs(gap)) <= HERMITICITY_TOL * np.max(np.abs(M)))


def to_hermitian_basis(M) -> np.ndarray:
    """``B^H M B``: the d^2 x d^2 matrix M in the Hermitian basis.

    B is the unitary whose columns are the vectorized Hermitian basis
    (module docstring); it acts on each pair of positions of E_jk, E_kj
    and fixes the E_kk, so the change costs O(d^4), not a product.  The
    result is complex; it is real (up to round-off) exactly when M
    preserves Hermiticity.
    """
    M, (up, lo) = _superoperator_pairs(M)
    X = np.array(M, dtype=complex)
    _mix_pairs(X, up, lo, 1, -1j)  # B^H on the left
    _mix_pairs(X.T, up, lo, 1, 1j)  # B on the right
    return X


def from_hermitian_basis(R) -> np.ndarray:
    """``B R B^H``: back from the Hermitian basis to column stacking.

    The inverse of :func:`to_hermitian_basis`.  A real R is the matrix
    of a Hermiticity-preserving map, and the result is then symmetrised,
    ``(X + Pi conj(X) Pi) / 2``, so that it preserves Hermiticity
    exactly, not only up to round-off.
    """
    R, (up, lo) = _superoperator_pairs(R)
    X = np.array(R, dtype=complex)
    _mix_pairs(X, up, lo, 1j, 1)  # B on the left
    _mix_pairs(X.T, up, lo, -1j, 1)  # B^H on the right
    if not np.iscomplexobj(R):
        X += _mirror(X, up, lo)
        X *= 0.5
    return X
