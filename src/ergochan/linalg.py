"""Dense complex linear-algebra primitives.

Everything downstream (channels, superoperators, ergodic decompositions)
is built on the handful of routines in this module.  Two conventions are
fixed here once and inherited everywhere:

* Vectorization is **column stacking**: ``vec(M)`` stacks the columns of
  ``M`` top to bottom, so the matrix of ``X -> V X W^dag`` is
  ``conj(W) kron V``.
* Eigenvalues are always reported sorted by descending modulus, ties
  broken by descending real part, then descending imaginary part, so
  that reports are deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericError

#: Default relative tolerance; callers scale by dimension where needed.
DEFAULT_TOL = 1e-10


def as_matrix(M) -> np.ndarray:
    """Coerce to a 2-d complex ndarray and reject non-finite entries."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise DimensionError(f"expected a 2-d matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DimensionError("matrix contains NaN or Inf entries")
    return M


def _require_square(M: np.ndarray, what: str = "matrix") -> np.ndarray:
    if M.shape[0] != M.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {M.shape}")
    return M


def eig_sort_order(eigenvalues: np.ndarray, tie_tol: float = 1e-12) -> np.ndarray:
    """Index order: descending |lambda|, then Re, then Im (all descending).

    Keys are quantized at ``tie_tol`` (relative) so that moduli equal up
    to round-off compare as ties and fall through to the real part.
    """
    lam = np.asarray(eigenvalues)
    if lam.size == 0:
        return np.arange(0)
    q = tie_tol * max(1.0, float(np.max(np.abs(lam))))
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


def null_space(M, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of a square matrix.

    Kernel dimension is the number of singular values below
    ``tol * sigma_max``; ``sigma_max == 0`` yields the full space.
    Returns a matrix whose columns are the basis vectors (possibly zero
    columns wide).
    """
    M = _require_square(as_matrix(M))
    _, s, Vh = svd(M)
    if s[0] == 0.0:
        return np.eye(M.shape[0], dtype=complex)
    rank = int(np.sum(s >= tol * s[0]))
    return Vh[rank:].conj().T


def column_space(M, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical range of M."""
    M = as_matrix(M)
    U, s, _ = svd(M)
    if s.size == 0 or s[0] == 0.0:
        return U[:, :0]
    rank = int(np.sum(s >= tol * s[0]))
    return U[:, :rank]


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
