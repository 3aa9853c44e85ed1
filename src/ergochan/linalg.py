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
  preserves Hermiticity, as every quantum operation does, is a real
  matrix in this basis (:func:`to_hermitian_basis`), and the analysis
  runs on that real matrix only; results are always reported in the
  column-stacking basis.  One entry rule (:func:`by_entries`) serves
  every input: where a matrix has few entries that may be nonzero, only
  those and their partners under the change of basis are computed, and
  otherwise the whole matrix is.  A matrix held by those entries has one
  form, ``(p, q, values)``: the rows and columns of distinct positions
  and per matrix the values there, every other entry +0.  Three
  producers emit it: the products of pairs of nonzero Kraus entries,
  with no d^2 x d^2 matrix formed (:func:`kraus_entries`); a matrix's
  entries that are not +0 (:func:`entry_support`); and the entries of a
  form held as blocks (:func:`from_hermitian_blocks`).  One quad stage
  consumes it, changing only the 2 x 2 quads of positions that the
  change of basis mixes (:func:`form_entries`).  Whole, the form of a
  Kraus family comes from the Kronecker sum (:func:`kraus_hermitian_form`)
  and that of a matrix from :func:`to_hermitian_basis`, and the way back
  is :func:`from_hermitian_basis`; coordinates
  (:func:`to_hermitian_coordinates`) go back to d x d matrices only by
  :func:`matrices_from_hermitian_columns`.  The superoperator itself is
  placed from its entries or summed from Kronecker products
  (:func:`kraus_superoperator`).  Every route gives the whole route's
  values bit for bit, signs of zeros included.
* Eigenvalues are always reported sorted by descending modulus, ties
  broken by descending real part, then descending imaginary part, so
  that reports are deterministic.
* A **stack** ``(m, k, k)`` of square matrices stands for the block
  diagonal matrix of its members: :func:`eigvals`,
  :func:`singular_values`, :func:`operator_norm` and
  :func:`spectral_radius` report that matrix's values, :func:`svd`
  factorises each member, and :func:`top_singular_values` gives each
  member's largest singular value (of any stack ``(..., k, l)``).  A
  real 1 x 1 member is its own factorisation, and these four make no
  LAPACK call on it (:func:`_own_factorisation`), bit for bit LAPACK's
  output; a complex member keeps LAPACK.
  :class:`BlockLayout` holds a matrix as the stacks of its exact
  diagonal blocks, the connected components (:func:`components`) of
  its support, given as a list of entries or as a matrix
  (:func:`support_components`);
  :func:`block_svd` and :func:`null_space` cut the singular values of
  such stacks at the rank cut of the whole matrix.  A kernel has one
  form, block coordinates (:func:`kernel_groups`), which
  :func:`scatter_kernel` makes the columns of a matrix; a single matrix
  is the one stack of a one-block layout.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .errors import DimensionError, DomainError, NumericError

#: Default tolerance; callers scale by dimension where needed.
DEFAULT_TOL = 1e-10

#: Relative resolution of :func:`eig_sort_order`: sort keys closer than
#: this (times max(1, largest modulus)) compare as ties.
EIG_TIE_TOL = 1e-12

#: Largest imaginary part of the Hermitian form of a superoperator,
#: relative to the form's largest entry, that still counts as the
#: round-off of a Hermiticity-preserving map: about the backward error of
#: one eigendecomposition at d = 16.
HERMITICITY_TOL = 1e-13


def as_stack(M) -> np.ndarray:
    """Coerce a matrix, or a stack ``(..., k, l)`` of them, to float64
    (real input) or complex128 and reject non-finite entries."""
    M = np.asarray(M)
    M = np.asarray(M, dtype=complex if np.iscomplexobj(M) else float)
    if M.ndim < 2 or M.shape[-2] < 1 or M.shape[-1] < 1:
        raise DimensionError(f"expected a matrix or a stack, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DimensionError("matrix contains NaN or Inf entries")
    return M


def as_matrix(M) -> np.ndarray:
    """:func:`as_stack` of exactly one 2-d matrix."""
    if np.ndim(M) != 2:
        raise DimensionError(f"expected a 2-d matrix, got shape {np.shape(M)}")
    return as_stack(M)


def as_operand(X, d: int) -> np.ndarray:
    """:func:`as_matrix` of an input of a map on the d x d matrices; any
    other shape raises :class:`DimensionError`."""
    X = as_matrix(X)
    if X.shape != (d, d):
        raise DimensionError(f"expected {d}x{d} input, got {X.shape}")
    return X


def _require_square(M: np.ndarray, what: str = "matrix") -> np.ndarray:
    if M.shape[-2] != M.shape[-1]:
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


def _own_factorisation(M: np.ndarray) -> bool:
    """Whether each member of M, a float64 matrix or stack, is 1 x 1 and
    so its own factorisation, a = copysign(1, a) |a| 1, which is LAPACK's
    output bit for bit, signs of zeros included.  LAPACK's SVD and
    eigenvalue drivers scale a matrix whose largest entry is nonzero and
    outside [2^-459, 2^459] (sqrt(safmin) / eps and its inverse) and
    scale the result back, which may round, so every entry must be 0 or
    in that range.  A complex member keeps LAPACK."""
    if M.shape[-2:] != (1, 1) or M.dtype != np.float64:
        return False
    a = np.abs(M)
    return bool(np.all((a == 0) | ((a >= 2.0**-459) & (a <= 2.0**459))))


def eigvals(M) -> np.ndarray:
    """Sorted eigenvalues only; of a stack, those of all its members.  A
    real 1 x 1 member's eigenvalue is its entry (:func:`_own_factorisation`)."""
    M = _require_square(as_stack(M))
    lam = (M if _own_factorisation(M) else np.linalg.eigvals(M)).reshape(-1)
    return lam[eig_sort_order(lam)]


def svd(M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD ``M = U diag(s) Vh`` with descending nonnegative s, of a
    matrix or of each member of a stack.  A real 1 x 1 member a gives
    ``(copysign(1, a), |a|, 1)`` with no LAPACK call, bit for bit LAPACK's
    output (:func:`_own_factorisation`): U = -1 at a = -0.0."""
    M = as_stack(M)
    if _own_factorisation(M):
        return np.copysign(1.0, M), np.abs(M[..., 0]), np.ones_like(M)
    try:
        return np.linalg.svd(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"SVD did not converge: {exc}") from exc


def singular_values(M) -> np.ndarray:
    """Descending singular values; of a stack, those of all its members.
    A real 1 x 1 member's is the modulus of its entry
    (:func:`_own_factorisation`)."""
    M = as_stack(M)
    s = np.abs(M[..., 0]) if _own_factorisation(M) else np.linalg.svd(M, compute_uv=False)
    return s if s.ndim == 1 else np.sort(s.reshape(-1))[::-1]


def top_singular_values(M) -> np.ndarray:
    """The largest singular value of each member of a stack ``(..., k, l)``,
    an array of shape ``M.shape[:-2]`` (0-d for one matrix).

    Each member X is scaled by its largest entry, so that its Gram matrix
    neither overflows nor underflows, and sigma_max(X)^2 is the largest
    eigenvalue of ``G = X^H X`` (``X X^H`` for a wide member, the smaller
    of the two), from one ``eigvalsh`` of the whole stack of G.  The top
    eigenvalue of a symmetric matrix has absolute error about machine
    epsilon times ``||G|| = sigma_max^2``, so the result carries a
    relative error of a few machine epsilons, whatever the spread of the
    smaller singular values; forming G and the eigenvalues alone costs
    about two thirds of a values-only SVD.  A real 1 x 1 member a scales
    to +-1, whose Gram matrix is 1, so the result is |a| at any scale:
    of a real stack of 1 x 1 members it is taken with no LAPACK call.
    """
    X = as_stack(M)
    if X.shape[-2:] == (1, 1) and X.dtype == np.float64:
        return np.abs(X[..., 0, 0])
    scale = np.max(np.abs(X), axis=(-2, -1), keepdims=True)
    scale[scale == 0] = 1.0  # a zero member has a zero Gram matrix
    X = X / scale
    Xh = X.conj().swapaxes(-1, -2)
    G = Xh @ X if X.shape[-2] >= X.shape[-1] else X @ Xh
    top = np.linalg.eigvalsh(G)[..., -1]
    return scale[..., 0, 0] * np.sqrt(np.maximum(top, 0.0))


#: One rule picks the route for every input: a d^2 x d^2 matrix is built
#: or changed from its entries that may be nonzero when ENTRY_COST times
#: their number, plus ENTRY_OVERHEAD, is below the d^4 entries of the
#: whole matrix (:func:`by_entries`), else whole.  The entries, in the one
#: form of :func:`kraus_entries`, are the pairs of nonzero entries of one
#: Kraus operator (:func:`kraus_pairs`) for a Kraus family's superoperator
#: (:func:`kraus_superoperator`) and form, a matrix's entries that are not
#: +0 (:func:`entry_support`) for its form, and the block entries that are
#: not +0 for the way back (:func:`from_hermitian_blocks`); the forms go
#: through :func:`form_entries`.  Per pair the Kraus form takes 300-500
#: ns (shift, d = 32-128) and the superoperator 150-190 ns at d = 16; per
#: entry a matrix's form takes 1.3-1.7 us and the way back 0.6-0.9 us at
#: d = 16 (shift, parity-fock), fixed costs and the passes over the whole
#: matrix included (its finiteness check and its support).  Whole, the
#: form and the way back take 16-28 ns per entry and the np.kron sum 7 ns
#: (random, d = 12-24), one core.  The overhead is the entry routes' fixed
#: cost.  On the shift, parity-fock and ladder channels (about 2 d^2 pairs
#: or entries) the routes tie near d = 8 for a Kraus family and near
#: d = 10 for a matrix, whose entries the rule takes from d = 9 on, up to
#: 0.1 ms slower at d = 9-10; below that the whole is faster.  A matrix
#: without zeros (a random channel's L or S) always goes whole.
ENTRY_COST = 16
ENTRY_OVERHEAD = 256


def by_entries(count: int, n: int) -> bool:
    """Whether an n x n matrix with ``count`` entries that may be nonzero
    (or pairs of Kraus entries) is cheaper to build or change entry by
    entry than whole (:data:`ENTRY_COST`)."""
    return ENTRY_COST * (count + ENTRY_OVERHEAD) < n * n


def kraus_superoperator(kraus) -> np.ndarray:
    """``sum_i conj(V_i) kron V_i``, complex: the matrix of
    ``X -> sum_i V_i X V_i^dag`` under column stacking, the Kronecker
    products added up in the order of the V_i, from +0.  Where the pairs
    of nonzero entries of one V_i are few (:func:`by_entries`), the
    entries they give (:func:`kraus_entries`) are placed into the zero
    matrix instead, bit for bit the same."""
    d = kraus[0].shape[0]
    L = np.zeros((d * d, d * d), dtype=complex)
    if by_entries(kraus_pairs([kraus]), d * d):
        p, q, values = kraus_entries([kraus])
        L[p, q] = values[0]
    else:
        for V in kraus:
            L += np.kron(V.conj(), V)
    return L


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


def operator_norm(M) -> float:
    """Largest singular value (spectral norm)."""
    s = singular_values(M)
    return float(s[0]) if s.size else 0.0


def hs_norm(M) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(as_matrix(M)))


def _check_real(value, name: str) -> None:
    """Refuse a bool (Python or numpy) or a non-real ``value``, naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")


def check_tol(tol: float, name: str = "tol") -> None:
    """Refuse a tolerance that is not a real number, finite and > 0,
    naming it: a cut at or below zero counts round-off as rank, and a cut
    at inf or NaN counts every singular value as zero.  Every rank cut
    (:func:`_rank_cut`) is checked by this before its matrix is factorised."""
    _check_real(tol, name)
    if not 0 < tol < math.inf:
        raise DomainError(f"{name} must be finite and > 0, got {tol}")


def check_phase(value, name: str) -> None:
    """Refuse a bool, a value that is not a complex number, or one off the
    unit circle by more than 1e-12 (NaN too), naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Complex):
        raise DomainError(f"{name} must be a complex number, got {value!r}")
    if not abs(abs(value) - 1.0) <= 1e-12:
        raise DomainError(f"{name} must have unit modulus, got |{value}| = {abs(value)}")


def check_count(value, name: str, least: int) -> None:
    """Refuse a count or dimension that is a bool or not an integer >=
    ``least``, naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")


def check_probability(value, name: str, closed: bool = False) -> None:
    """Refuse a probability not in (0, 1) ([0, 1] if ``closed``), naming it."""
    _check_real(value, name)
    if not (0 <= value <= 1 if closed else 0 < value < 1):
        raise DomainError(f"{name} must lie in {'[0, 1]' if closed else '(0, 1)'}, got {value}")


def _rank_cut(sigma_max: float, tol: float) -> float:
    """The numerical-rank cut ``tol * max(1, sigma_max)``: singular values
    below it count as zero; ``tol`` has passed :func:`check_tol`.

    The cut is absolute below unit scale: the matrices whose rank the
    package needs, such as I - L for a channel L, are differences of
    O(1) matrices, so their round-off is about 1e-16 even when sigma_max
    is tiny (a channel near the identity), and a cut relative to
    sigma_max would count that round-off as rank.
    """
    return tol * max(1.0, sigma_max)


def block_svd(stacks, tol: float) -> tuple:
    """``(svds, cut, ranks)`` of the block diagonal matrix whose blocks
    are the members of ``stacks`` (arrays (m, r, k)): the SVD of each
    stack (:func:`svd`), the rank cut (:func:`_rank_cut`) with sigma_max
    the largest singular value over all blocks, so that it is the cut of
    the whole matrix, and per stack the (m,) numerical ranks of its
    members.  A member of rank r has its range spanned by the leading r
    columns of its U and its kernel by the trailing k - r rows of its
    Vh.  A ``tol`` that fails :func:`check_tol` raises
    :class:`DomainError` before any SVD."""
    check_tol(tol)
    svds = [svd(X) for X in stacks]
    cut = _rank_cut(max(float(s.max()) for _, s, _ in svds), tol)
    return svds, cut, [np.sum(s >= cut, axis=-1) for _, s, _ in svds]


def kernel_groups(index, svds, ranks) -> list:
    """The kernel vectors of :func:`block_svd`'s ``svds`` and ``ranks`` in
    block coordinates: a list of ``(rows, V)``, V (m, k, c) the c kernel
    vectors of m blocks of size k, and rows (m, k) the rows those blocks
    take.  ``index`` holds, per stack, the (m, k) array of the rows its
    blocks take (``BlockLayout.index``).  Per stack, the blocks of one
    kernel dimension c are taken together, in order of c and then of the
    blocks, which :func:`scatter_kernel` keeps."""
    groups = []
    for idx, (_, _, Vh), r in zip(index, svds, ranks):
        k = Vh.shape[-1]
        dims = k - r
        for c in np.unique(dims[dims > 0]):
            sel = np.flatnonzero(dims == c)
            V = Vh[sel][..., k - c :, :].conj().swapaxes(-1, -2)
            groups.append((idx[sel], np.ascontiguousarray(V)))  # not a view of all of Vh
    return groups


def scatter_kernel(n: int, groups) -> np.ndarray:
    """The n x c matrix whose columns are the kernel vectors of
    :func:`kernel_groups`' ``groups``, in their order; each is zero
    outside the rows of its block.  It is real when every group is."""
    width = sum(V.shape[0] * V.shape[2] for _, V in groups)
    K = np.zeros((n, width), dtype=np.result_type(float, *(V for _, V in groups)))
    col = 0
    for rows, V in groups:
        m, _, c = V.shape
        cols = col + np.arange(m * c).reshape(m, c)
        K[rows[:, :, np.newaxis], cols[:, np.newaxis, :]] = V
        col += m * c
    return K


def null_space(stacks, layout, tol: float = DEFAULT_TOL) -> list:
    """Orthonormal basis of the numerical kernel of the block diagonal
    matrix held as ``stacks`` in ``layout`` (a :class:`BlockLayout`),
    whose blocks take the layout's columns: one array (m, r, k) per (m,
    k) array of ``layout.index``, square as ``layout.split`` gives them
    or taller.  Singular values below ``tol * max(1, sigma_max)`` count
    as zero, sigma_max the largest over all blocks (:func:`block_svd`),
    so the zero matrix has the whole space as its kernel and the kernel
    is that of the whole matrix, though no SVD is larger than a block.
    The basis is in block coordinates (:func:`kernel_groups`), which
    :func:`scatter_kernel` makes columns.  One k-column matrix M is the
    stack ``[M[np.newaxis]]`` of ``BlockLayout(np.arange(k), np.array([k]))``.
    """
    svds, _, ranks = block_svd(stacks, tol)
    return kernel_groups(layout.index, svds, ranks)


def column_space(M, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical range of M, with the
    rank cut of :func:`block_svd`."""
    check_tol(tol)
    U, s, _ = svd(M)
    return U[:, : int(np.sum(s >= _rank_cut(float(s[0]), tol)))]


def hermitize(M) -> np.ndarray:
    """(M + M^dag)/2, suppressing round-off asymmetry before eigvalsh."""
    M = _require_square(as_matrix(M))
    return (M + M.conj().T) / 2.0


def spectral_radius(M) -> float:
    lam = eigvals(M)
    return float(np.abs(lam[0])) if lam.size else 0.0


def components(n: int, i, j) -> tuple:
    """``(order, sizes)``: the connected components of the graph on the
    indices 0..n-1 with an edge ``i[e] -- j[e]`` for each e (loops and
    repeated edges allowed).  ``order`` concatenates the components,
    each sorted ascending and the components in order of their smallest
    index, and ``sizes`` holds their sizes.

    The components come from min-label propagation over the edge list:
    every index starts as its own label, each round gives both ends of
    every edge the smaller of their labels and then replaces each label
    by its label's label (pointer jumping), until nothing changes.  A
    label is always an index of the same component and never grows, so
    the fixed point labels each component by its smallest index.
    """
    off = i != j
    i, j = i[off], j[off]
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, i, label[j])
        np.minimum.at(new, j, label[i])
        new = new[new]
        if (new == label).all():
            break
        label = new
    order = np.argsort(label, kind="stable")  # ascending within a component
    label = label[order]
    bounds = np.flatnonzero(np.concatenate(([True], label[1:] != label[:-1], [True])))
    return order, np.diff(bounds)


def support_components(M) -> tuple:
    """:func:`components` of the structural support of the square matrix
    M: an edge i -- j wherever ``M[i, j] != 0`` (so entries of M + M^H
    that would cancel still couple).  A matrix with no zero entry is one
    component, found without propagation."""
    M = _require_square(as_matrix(M))
    if M.all():
        return np.arange(len(M)), np.array([len(M)])
    return components(len(M), *np.nonzero(M))


class BlockLayout:
    """Where the exact diagonal blocks of an n x n matrix lie, grouped by
    size.

    A matrix with these blocks is held as its *stacks*: one array
    (m, k, k) per block size k, in order of the size's first block,
    holding the m blocks of that size in order of their smallest index;
    a matrix that is one block is one (1, n, n) stack.  ``index`` holds
    the matching (m, k) arrays of row and column indices.  Rows of an
    (n, ...) array split the same way into parts (m, k, ...).

    The layout is built from the index sets that ``order`` concatenates,
    of sizes ``sizes``, as :func:`components` gives them; that of the
    blocks of a square matrix M is ``BlockLayout(*support_components(M))``.
    Every entry outside the blocks is zero, so every power of M has the
    same blocks.
    """

    def __init__(self, order, sizes):
        self.n = order.size
        size_set, first, size_of = np.unique(sizes, return_index=True, return_inverse=True)
        by_first = np.argsort(first)
        rank = np.empty_like(by_first)
        rank[by_first] = np.arange(by_first.size)
        group = rank[size_of]  # of each block: its size's rank by first block
        blocks = np.argsort(group, kind="stable")  # in layout order
        k = sizes[blocks]
        skip = np.cumsum(sizes)[blocks] - np.cumsum(k)  # block start - layout start
        nodes = order[np.repeat(skip, k) + np.arange(self.n)]
        self.index, start = [], 0
        for m, k in zip(np.bincount(group).tolist(), size_set[by_first].tolist()):
            self.index.append(nodes[start : start + m * k].reshape(m, k))
            start += m * k
        self.index = tuple(self.index)

    def split(self, M) -> list:
        """The stacks of the n x n matrix M."""
        return [M[idx[:, :, np.newaxis], idx[:, np.newaxis, :]] for idx in self.index]

    def split_entries(self, p, q, *values) -> list:
        """Per array of ``values``, the stacks of the n x n matrix with
        those values at rows p and columns q (each position at most once)
        and zeros elsewhere: the values inside the blocks are placed in
        one zero array, and the stacks are views of it."""
        m = np.array([idx.shape[0] for idx in self.index])
        k = np.array([idx.shape[1] for idx in self.index])
        area = np.cumsum(m * k * k)
        nodes = np.concatenate([idx.reshape(-1) for idx in self.index])
        t = np.arange(self.n) - np.repeat(np.cumsum(m * k) - m * k, m * k)  # in its stack
        size = np.repeat(k, m * k)
        block, row_at, col_at = np.empty((3, self.n), dtype=np.intp)
        block[nodes] = np.repeat(np.cumsum(m) - m, m * k) + t // size
        row_at[nodes] = np.repeat(area - m * k * k, m * k) + t * size
        col_at[nodes] = t % size
        inside = block[p] == block[q]
        at = row_at[p[inside]] + col_at[q[inside]]
        bounds = zip(area - m * k * k, area, m, k)
        shapes = [(start, stop, (m, k, k)) for start, stop, m, k in bounds]
        out = []
        for x in values:
            flat = np.zeros(area[-1], dtype=x.dtype)
            flat[at] = x[inside]
            out.append([flat[start:stop].reshape(shape) for start, stop, shape in shapes])
        return out

    def join(self, stacks) -> np.ndarray:
        """The n x n matrix whose stacks are ``stacks``."""
        out = np.zeros((self.n, self.n), dtype=np.result_type(*stacks))
        for idx, X in zip(self.index, stacks):
            out[idx[:, :, np.newaxis], idx[:, np.newaxis, :]] = X
        return out

    def split_rows(self, v) -> list:
        """The parts (m, k, ...) of an (n, ...) array."""
        return [v[idx] for idx in self.index]

    def join_rows(self, parts) -> np.ndarray:
        """The (n, ...) array whose parts are ``parts``."""
        out = np.zeros((self.n,) + parts[0].shape[2:], dtype=np.result_type(*parts))
        for idx, x in zip(self.index, parts):
            out[idx] = x
        return out


_SQRT_HALF = 1.0 / math.sqrt(2.0)


@functools.lru_cache(maxsize=32)  # at small d they cost more than the change
def _hermitian_pairs(n: int) -> tuple:
    """Column-stacking positions ``(up, lo)`` of ``E_jk`` and ``E_kj``,
    j < k, for the d x d matrices, n = d^2 (:func:`_side`).  Cached, so
    the arrays are read-only."""
    d = _side(n)
    position = np.arange(n).reshape(d, d, order="F")  # position[a, b] of E_ab
    j, k = np.triu_indices(d, 1)
    up, lo = position[j, k], position[k, j]
    up.flags.writeable = lo.flags.writeable = False
    return up, lo


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


def _side(n: int) -> int:
    """The one size check: d >= 1 for vectors of length n = d^2 or maps on
    the d x d matrices; any other n raises :class:`DimensionError`."""
    d = math.isqrt(n)
    if d * d != n or not d:
        raise DimensionError(f"size {n} is not a perfect square d^2, d >= 1")
    return d


def _mirror(M: np.ndarray, up, lo) -> np.ndarray:
    """Pi conj(M) Pi, Pi the permutation vec(X) -> vec(X^T)."""
    perm = np.arange(M.shape[0])
    perm[up], perm[lo] = lo, up
    out = M[np.ix_(perm, perm)]
    return np.conjugate(out, out=out)


def to_hermitian_basis(M) -> np.ndarray:
    """``B^H M B``: the d^2 x d^2 matrix M in the Hermitian basis.

    B is the unitary whose columns are the vectorized Hermitian basis
    (module docstring); it acts on each pair of positions of E_jk, E_kj
    and fixes the E_kk, so the change costs O(d^4), not a product.  The
    result is complex; it is real (up to round-off) exactly when M
    preserves Hermiticity.
    """
    M = _require_square(as_matrix(M))
    X = np.array(M, dtype=complex)
    _form_in_place(X, _hermitian_pairs(len(M)))
    return X


def _form_in_place(X: np.ndarray, pairs) -> None:
    """X becomes ``B^H X B``, X a complex d^2 x d^2 matrix and ``pairs``
    its ``_hermitian_pairs``."""
    _mix_pairs(X, *pairs, 1, -1j)  # B^H on the left
    _mix_pairs(X.T, *pairs, 1, 1j)  # B on the right


def from_hermitian_basis(R) -> np.ndarray:
    """``B R B^H``: back from the Hermitian basis to column stacking.

    The inverse of :func:`to_hermitian_basis`.  A real R is the matrix
    of a Hermiticity-preserving map, and the result is then symmetrised,
    ``(X + Pi conj(X) Pi) / 2``, so that it preserves Hermiticity
    exactly, not only up to round-off.
    """
    R = _require_square(as_matrix(R))
    up, lo = _hermitian_pairs(len(R))
    X = np.array(R, dtype=complex)
    _mix_pairs(X, up, lo, 1j, 1)  # B on the left
    _mix_pairs(X.T, up, lo, -1j, 1)  # B^H on the right
    if not np.iscomplexobj(R):
        X += _mirror(X, up, lo)
        X *= 0.5
    return X


def kraus_entries(families) -> tuple:
    """The entries of the superoperators ``L = sum_i conj(V_i) kron V_i``
    of the Kraus families ``families`` that may be nonzero, with no
    d^2 x d^2 matrix formed: ``(p, q, values)``, the rows and columns of
    distinct positions, ascending, and per family (first axis) the
    complex values there; every other entry of each L is +0.  The work
    is linear in the number of pairs of nonzero entries of one V_i
    (:func:`kraus_pairs`), up to a sort.

    The entry of L at the column-stacking positions p of E_{a_p b_p} and
    q of E_{a_q b_q} is ``sum_i conj(V_i[b_p, b_q]) V_i[a_p, a_q]``, so
    each pair of nonzero entries of one V_i gives one product of the
    Kronecker products.  The products are added into their positions in
    the order of the V_i, from +0, as the np.kron sum adds them up, so
    every value is that sum's, bit for bit: skipping the products that
    are zero changes no bit, as a sum started at +0 never holds -0.
    Each side of a product is gathered into a contiguous array, as
    np.kron's are broadcast ones (numpy may round a product of two
    broadcast scalars by another loop).
    """
    ops = np.array([V for kraus in families for V in kraus])
    family = np.repeat(np.arange(len(families)), [len(kraus) for kraus in families])
    d = ops.shape[-1]
    o, a, b = np.nonzero(ops)
    count = np.bincount(o, minlength=len(ops))
    # the pairs (f, e) of nonzero entries of one operator, f-major
    partners = count[o]
    f = np.repeat(np.arange(o.size), partners)
    firsts = np.cumsum(partners) - partners
    e = (np.cumsum(count) - count)[o[f]] + np.arange(f.size) - np.repeat(firsts, partners)
    keys, at = np.unique((a[e] + d * a[f]) * d * d + b[e] + d * b[f], return_inverse=True)
    values = np.zeros((len(families), keys.size), dtype=complex)
    v = ops[o, a, b]
    np.add.at(values, (family[o[f]], at), v[f].conj() * v[e])
    p, q = np.divmod(keys, d * d)
    return p, q, values


def form_entries(n: int, p, q, values, inverse=False, symmetric=False) -> tuple:
    """The entries of ``B^H M B`` (``B M B^H`` with ``inverse``) that may
    be nonzero, for n x n matrices M (n = d^2) given as the entries
    ``(p, q, values)`` of :func:`kraus_entries`: distinct positions that
    hold every entry of any M that is not +0, and per matrix (first
    axis) the values there.  The result has the same form.

    The change of basis mixes rows p and p' of E_ab and E_ba, then
    columns q and q' alike (:func:`_mix_pairs`), so the entries taken are
    those of the 2 x 2 (or smaller) quads (p, p') x (q, q') that meet the
    positions; the rest of the result is +0.  The float operations on
    each quad are those of :func:`to_hermitian_basis` on the whole
    matrix (of :func:`from_hermitian_basis` with ``inverse``, and with
    ``symmetric`` its mirror symmetrisation of a real matrix, which maps
    each quad to itself), so every value is theirs, bit for bit, signs
    of zeros included.  The work is linear in the number of entries, up
    to a sort.
    """
    d = _side(n)
    # the quads (p, p') x (q, q') of E_ab and E_ba, E_ab with a < b first
    # (a diagonal E_aa is its own quad row or column, and the second is
    # zero and never used)
    node = np.arange(n)
    mirror = node.reshape(d, d).T.reshape(-1)  # E_ab -> E_ba
    second = (node % d > node // d).astype(np.intp)  # the quad row of E_ab
    first = np.where(second, mirror, node)
    quads, at = np.unique(first[p] * n + first[q], return_inverse=True)
    X = np.zeros((len(values), 2, 2, quads.size), dtype=complex)
    X[:, second[p], second[q], at] = values
    p, q = np.divmod(quads, n)
    keys = np.array([p, mirror[p]])[:, np.newaxis, :] * n + np.array([q, mirror[q]])
    row_pair, col_pair = p != mirror[p], q != mirror[q]
    whole = slice(None)
    rows = (whole, 0, whole, row_pair), (whole, 1, whole, row_pair)
    cols = (whole, whole, 0, col_pair), (whole, whole, 1, col_pair)
    if inverse:
        _mix_pairs(X, *rows, 1j, 1)  # B on the left
        _mix_pairs(X, *cols, -1j, 1)  # B^H on the right
        if symmetric:  # (X + Pi conj(X) Pi) / 2, Pi swapping the pairs
            swap = np.arange(2)[:, np.newaxis]
            r, c = swap ^ row_pair, swap ^ col_pair
            X += np.conjugate(X[:, r[:, np.newaxis], c[np.newaxis], np.arange(quads.size)])
            X *= 0.5
    else:
        _mix_pairs(X, *rows, 1, -1j)  # B^H on the left
        _mix_pairs(X, *cols, 1, 1j)  # B on the right
    used = np.ones(keys.shape, dtype=bool)
    used[1] = row_pair
    used[:, 1] &= col_pair
    p, q = np.divmod(keys[used], n)
    return p, q, X[:, used]


def kraus_pairs(families) -> int:
    """The number of pairs of nonzero entries of one Kraus operator, over
    all operators of the families: the nonzero products of the Kronecker
    products of their superoperators."""
    return sum(int(np.count_nonzero(V)) ** 2 for kraus in families for V in kraus)


def entry_support(arrays) -> np.ndarray:
    """The mask of the entries of the float64 or complex128 ``arrays``,
    all of one shape, where any of them is not +0: nonzero, or a zero
    with its sign bit set, which a change of basis may carry into its
    result."""
    support = False
    for M in arrays:
        mask = np.ascontiguousarray(M).view(np.uint64) != 0  # +0 has no bit set
        if np.iscomplexobj(M):  # a mask per part: as one 2-byte word per entry
            mask = mask.view(np.uint16) != 0
        support = support | mask
    return support


def from_hermitian_blocks(layout: BlockLayout, stacks) -> np.ndarray:
    """``from_hermitian_basis(layout.join(stacks))``, bit for bit: the
    matrix in the Hermitian basis whose stacks in ``layout`` are
    ``stacks``, back in column stacking, and symmetrised when the stacks
    are real.  Where the entries of the blocks that are not +0
    (:func:`entry_support`) are fewer than the whole matrix pays for
    (:func:`by_entries`), only the quads that meet them are changed
    (:func:`form_entries`) and placed into the zero matrix, with no
    n x n matrix but the result formed."""
    support = [entry_support([X]) for X in stacks]
    if not by_entries(sum(int(np.count_nonzero(s)) for s in support), layout.n):
        return from_hermitian_basis(layout.join(stacks))
    blocks = list(zip(layout.index, stacks, support))
    p = np.concatenate([np.broadcast_to(idx[:, :, None], X.shape)[s] for idx, X, s in blocks])
    q = np.concatenate([np.broadcast_to(idx[:, None, :], X.shape)[s] for idx, X, s in blocks])
    values = np.concatenate([X[s] for _, X, s in blocks])[np.newaxis]
    p, q, x = form_entries(layout.n, p, q, values, True, not np.iscomplexobj(values))
    out = np.zeros((layout.n, layout.n), dtype=complex)
    out[p, q] = x[0]
    return out


def kraus_hermitian_form(kraus) -> np.ndarray:
    """The complex Hermitian form ``B^H L B`` of ``L =``
    :func:`kraus_superoperator` ``(kraus)``, as :func:`to_hermitian_basis`
    builds it, changed in place, without a copy or that function's
    checks."""
    X = kraus_superoperator(kraus)
    _form_in_place(X, _hermitian_pairs(len(X)))
    return X


def to_hermitian_coordinates(v) -> np.ndarray:
    """``B^H v``: vec(X) in the Hermitian basis, in O(d^2).

    The coordinates are complex; they are real exactly when X is
    Hermitian.  A Hermiticity-preserving map acts on them by the real
    matrix :func:`to_hermitian_basis` gives.  The way back is
    :func:`matrices_from_hermitian_columns` of the column ``w[:, None]``.
    """
    w = np.array(v, dtype=complex)
    if w.ndim != 1:
        raise DimensionError(f"expected a vector of length d^2, got shape {w.shape}")
    _mix_pairs(w, *_hermitian_pairs(len(w)), 1, -1j)
    return w


def matrices_from_hermitian_columns(K) -> np.ndarray:
    """The d x d matrices ``unvec(B k)`` of the columns k of the d^2 x m
    matrix K, as one C-contiguous (m, d, d) array: the one way back from
    :func:`to_hermitian_coordinates`.  The change of basis is made on d
    columns at a time, so its temporaries hold O(d^3) entries however
    large m is (m is up to d^2)."""
    K = np.asarray(K)
    if K.ndim != 2:
        raise DimensionError(f"expected a d^2 x m matrix, got shape {K.shape}")
    pairs, d = _hermitian_pairs(len(K)), math.isqrt(len(K))
    out = np.empty((K.shape[1], d, d), dtype=complex)
    for k in range(0, K.shape[1], d):
        V = np.array(K[:, k : k + d], dtype=complex)
        _mix_pairs(V, *pairs, 1j, 1)
        out[k : k + d] = V.T.reshape(-1, d, d).transpose(0, 2, 1)
    return out
