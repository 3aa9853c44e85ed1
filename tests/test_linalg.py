import numpy as np
import pytest

from ergochan import ergodic, linalg
from ergochan.errors import DimensionError, DomainError
from helpers import count_linalg_calls, mirror, on_side


def random_complex(rng, rows, cols):
    return rng.uniform(-1, 1, (rows, cols)) + 1j * rng.uniform(-1, 1, (rows, cols))


class TestEig:
    def test_identity(self):
        lam, _ = linalg.eig_general(np.eye(2))
        assert np.allclose(lam, [1.0, 1.0])

    def test_diagonal_sorted_by_modulus(self):
        lam, _ = linalg.eig_general(np.diag([2.0, -1.0]))
        assert np.allclose(lam, [2.0, -1.0])

    def test_sigma_x_by_hand(self):
        # characteristic polynomial of [[0,1],[1,0]] is lambda^2 - 1
        lam, W = linalg.eig_general(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(lam, [1.0, -1.0])
        for k in range(2):
            v = W[:, k]
            assert np.linalg.norm(np.array([[0, 1], [1, 0]]) @ v - lam[k] * v) < 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            linalg.eig_general(np.ones((2, 3)))

    @pytest.mark.parametrize("d", [2, 8, 32, 64])
    def test_residuals_random(self, d):
        rng = np.random.default_rng(d)
        M = random_complex(rng, d, d)
        lam, W = linalg.eig_general(M)
        resid = np.linalg.norm(M @ W - W * lam, ord=2)
        assert resid <= 1e-10 * linalg.operator_norm(M) * d

    def test_sort_ties_broken_by_real_then_imag(self):
        lam = np.array([1j, -1j, -1.0, 1.0])
        order = linalg.eig_sort_order(lam)
        assert np.allclose(lam[order], [1.0, 1j, -1j, -1.0])
        # no eigenvalues: the empty index array
        empty = linalg.eig_sort_order(np.array([]))
        assert empty.dtype == np.intp and empty.shape == (0,)


class TestSvd:
    def test_identity(self):
        _, s, _ = linalg.svd(np.eye(3))
        assert np.allclose(s, [1, 1, 1])

    def test_diag_abs_sorted(self):
        _, s, _ = linalg.svd(np.diag([3.0, -4.0]))
        assert np.allclose(s, [4.0, 3.0])

    def test_nilpotent_by_hand(self):
        # M^dag M = diag(0, 4), so singular values are (2, 0)
        _, s, _ = linalg.svd(np.array([[0.0, 2.0], [0.0, 0.0]]))
        assert np.allclose(s, [2.0, 0.0])

    @pytest.mark.parametrize("d", [2, 16, 64])
    def test_reconstruction_random(self, d):
        rng = np.random.default_rng(d + 100)
        M = random_complex(rng, d, d)
        U, s, Vh = linalg.svd(M)
        assert np.linalg.norm(M - (U * s) @ Vh, 2) <= 1e-10 * linalg.operator_norm(M) * d


def hard_matrix(kind, n, rng):
    """An n x n matrix (n + 3 rows or columns for tall and wide) of one
    kind whose largest singular value is hard for some method."""
    g = rng.normal(size=(n, n))
    if kind == "orthogonal":  # every singular value is 1
        return np.linalg.qr(g)[0]
    if kind == "graded":  # columns from 1 down to 1e-12
        return g * np.logspace(0, -12, n)
    if kind in ("tiny", "huge"):  # the Gram matrix under- or overflows unscaled
        return g * (1e-200 if kind == "tiny" else 1e200)
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "complex":
        return g + 1j * rng.normal(size=(n, n))
    if kind == "tall":
        return rng.normal(size=(n + 3, n))
    if kind == "wide":
        return rng.normal(size=(n, n + 3))
    return g


def top_by_svd(M):
    return np.linalg.svd(M, compute_uv=False)[..., 0]


TOP_KINDS = ["gaussian", "orthogonal", "graded", "tiny", "huge", "zero", "complex", "tall", "wide"]


class TestTopSingularValues:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 64, 256])
    @pytest.mark.parametrize("kind", TOP_KINDS)
    def test_matches_svd(self, kind, n):
        M = hard_matrix(kind, n, np.random.default_rng([n, TOP_KINDS.index(kind)]))
        got, want = linalg.top_singular_values(M), top_by_svd(M)
        assert got.shape == ()
        assert abs(got - want) <= 1e-13 * want

    def test_stack_of_powers(self):
        # a (c, m, k, k) stack, one member zero and one scaled far down,
        # gives each member's own largest singular value
        rng = np.random.default_rng(5)
        M = rng.normal(size=(3, 4, 6, 6)) + 1j * rng.normal(size=(3, 4, 6, 6))
        M[1, 2] = 0.0
        M[2, 0] *= 1e-150
        got, want = linalg.top_singular_values(M), top_by_svd(M)
        assert got.shape == (3, 4)
        assert np.all(np.abs(got - want) <= 1e-13 * want)
        assert got[1, 2] == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(DimensionError):
            linalg.top_singular_values(np.array([[np.inf]]))


def bits(x):
    """The bit patterns of a float or complex array, signs of zeros included."""
    return np.ascontiguousarray(x).view(np.uint64)


def top_by_gram(M):
    """The Gram route of top_singular_values, with numpy.linalg.eigvalsh."""
    scale = np.max(np.abs(M), axis=(-2, -1), keepdims=True)
    scale[scale == 0] = 1.0
    X = M / scale
    G = X.conj().swapaxes(-1, -2) @ X
    return scale[..., 0, 0] * np.sqrt(np.maximum(np.linalg.eigvalsh(G)[..., -1], 0.0))


# Entries that LAPACK factorises as they are: zeros of both signs, the
# edges 2^-459 and 2^459 of its unscaled range, and seeded normals; and
# entries beyond those edges, where it scales the matrix and rounds
UNSCALED = np.concatenate(
    [[0.0, -0.0, 1.0, -1.0, 2.0**-459, -(2.0**-459), 2.0**459, -(2.0**459)],
     np.random.default_rng(28).standard_normal(24)]
)
SCALED = np.array([5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300])


class TestOneByOneIsItsOwnFactorisation:
    """A real 1 x 1 member a is its own factorisation, copysign(1, a) |a| 1:
    the stack wrappers give numpy.linalg's bits, and call it only where
    LAPACK would scale the entry."""

    @staticmethod
    def inputs(entries):
        c = np.random.default_rng(3).permutation(np.resize(entries, 2 * entries.size))
        return [entries[:, None, None], c.reshape(2, -1, 1, 1)] + [
            np.array([[a]]) for a in entries
        ]

    @pytest.mark.parametrize("entries, lapack", [(UNSCALED, False), (SCALED, True)],
                             ids=["unscaled", "scaled"])
    def test_bits_match_numpy(self, monkeypatch, entries, lapack):
        for M in self.inputs(entries):
            want_svd = np.linalg.svd(M)
            want_s = np.linalg.svd(M, compute_uv=False)
            want_s = want_s if want_s.ndim == 1 else np.sort(want_s.reshape(-1))[::-1]
            want_lam = np.linalg.eigvals(M).reshape(-1)
            want_lam = want_lam[linalg.eig_sort_order(want_lam)]
            want_top = top_by_gram(M)
            calls = count_linalg_calls(monkeypatch, ("svd", "eigvals", "eigvalsh"))
            got_svd = linalg.svd(M)
            got = [linalg.singular_values(M), linalg.eigvals(M), linalg.top_singular_values(M)]
            monkeypatch.undo()
            for x, y in zip([*got_svd, *got], [*want_svd, want_s, want_lam, want_top]):
                assert x.shape == y.shape and x.dtype == y.dtype == np.float64
                assert np.array_equal(bits(x), bits(y))
            assert np.array_equal(bits(got[2]), bits(np.abs(M[..., 0, 0])))
            assert len(calls) == (3 if lapack else 0)  # never the Gram matrix's eigvalsh

    def test_svd_of_minus_zero(self):
        U, s, Vh = linalg.svd(np.array([[-0.0]]))
        assert U[0, 0] == -1.0 and Vh[0, 0] == 1.0
        assert s[0] == 0.0 and not np.signbit(s[0])

    def test_complex_stack_reaches_lapack(self, monkeypatch):
        zeros = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
        M = np.array(zeros + [1 + 2j, -3j, -0.5])[:, None, None]
        want = [np.linalg.svd(M), np.linalg.svd(M, compute_uv=False), np.linalg.eigvals(M)]
        calls = count_linalg_calls(monkeypatch, ("svd", "eigvals", "eigvalsh"))
        U, s, Vh = linalg.svd(M)
        got_s, got_lam = linalg.singular_values(M), linalg.eigvals(M)
        linalg.top_singular_values(M)
        assert [name for name, _ in calls] == ["svd", "svd", "eigvals", "eigvalsh"]
        for x, y in zip((U, s, Vh), want[0]):
            assert np.array_equal(bits(x), bits(y))
        assert np.array_equal(bits(got_s), bits(np.sort(want[1].reshape(-1))[::-1]))
        lam = want[2].reshape(-1)
        assert np.array_equal(bits(got_lam), bits(lam[linalg.eig_sort_order(lam)]))


class TestKronVec:
    def test_kron_identity(self):
        assert np.allclose(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_kron_diag(self):
        out = np.kron(np.diag([2.0, 3.0]), np.eye(2))
        assert np.allclose(out, np.diag([2.0, 2.0, 3.0, 3.0]))

    def test_kron_expand_definition(self):
        out = np.kron(np.array([[0, 1], [1, 0]]), np.array([[2.0]]))
        assert np.allclose(out, [[0, 2], [2, 0]])

    def test_vec_convention(self):
        # the convention-defining case: columns stacked top to bottom
        assert np.allclose(linalg.vec([[1, 3], [2, 4]]), [1, 2, 3, 4])

    def test_unvec_round_trip(self):
        rng = np.random.default_rng(0)
        M = random_complex(rng, 5, 5)
        assert np.allclose(linalg.unvec(linalg.vec(M), 5), M)

    def test_unvec_length_mismatch(self):
        with pytest.raises(DimensionError):
            linalg.unvec(np.arange(5), 2)

    def test_vec_of_sandwich(self):
        # vec(A X B) = (B^T kron A) vec(X)
        rng = np.random.default_rng(7)
        for _ in range(5):
            A, X, B = (random_complex(rng, 4, 4) for _ in range(3))
            lhs = linalg.vec(A @ X @ B)
            rhs = np.kron(B.T, A) @ linalg.vec(X)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)


class TestNorms:
    def test_identity_norms(self):
        for d in (2, 5):
            assert linalg.operator_norm(np.eye(d)) == pytest.approx(1.0)

    def test_norm_ordering(self):
        rng = np.random.default_rng(11)
        for d in (2, 6, 12):
            M = random_complex(rng, d, d)
            op = linalg.operator_norm(M)
            hs = linalg.hs_norm(M)
            tr = np.linalg.norm(M, "nuc")
            assert op <= hs * (1 + 1e-12) <= tr * (1 + 1e-12)


def one_block_kernel(M, tol=linalg.DEFAULT_TOL):
    """The kernel of the matrix M as columns: M is the one stack of a
    one-block layout, and null_space gives its kernel in block
    coordinates."""
    k = M.shape[1]
    layout = linalg.BlockLayout(np.arange(k), np.array([k]))
    groups = linalg.null_space([np.asarray(M)[np.newaxis]], layout, tol)
    assert len(groups) <= 1
    for rows, V in groups:  # one block, of all k columns
        assert rows.shape == (1, k) and V.shape[:2] == (1, k)
    return linalg.scatter_kernel(k, groups)


class TestNullSpace:
    def test_zero_matrix_full_space(self):
        basis = one_block_kernel(np.eye(3) - np.eye(3))
        assert basis.shape == (3, 3)
        assert np.allclose(basis.conj().T @ basis, np.eye(3))

    def test_identity_empty(self):
        assert one_block_kernel(np.eye(3)).shape == (3, 0)

    def test_diag_by_inspection(self):
        basis = one_block_kernel(np.diag([0.0, 1.0, 2.0]), tol=1e-10)
        assert basis.shape[1] == 1
        assert abs(abs(basis[0, 0]) - 1.0) < 1e-12

    def test_orthonormal_output(self):
        rng = np.random.default_rng(5)
        M = random_complex(rng, 6, 3)
        # rank-3 6x6 matrix has a 3-dimensional kernel
        basis = one_block_kernel(M @ M.conj().T, tol=1e-10)
        assert basis.shape == (6, 3)
        gram = basis.conj().T @ basis
        assert np.linalg.norm(gram - np.eye(basis.shape[1]), 2) < 1e-12

    def test_cut_is_absolute_below_unit_scale(self):
        # round-off-sized singular values are zero whatever sigma_max is
        tiny = 1e-12 * np.diag([1.0, 0.5, 0.0])
        assert one_block_kernel(tiny).shape == (3, 3)
        assert linalg.column_space(tiny).shape == (3, 0)
        big = 1e3 * np.diag([1.0, 1e-14, 0.0])
        assert one_block_kernel(big).shape == (3, 2)
        assert linalg.column_space(big).shape == (3, 1)

    def test_tall_matrix(self):
        stacked = np.vstack([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])])
        basis = one_block_kernel(stacked)
        assert basis.shape == (3, 1)
        assert abs(abs(basis[2, 0]) - 1.0) < 1e-12

    def test_kernel_vectors_annihilated(self):
        rng = np.random.default_rng(6)
        M = random_complex(rng, 5, 2)
        A = M @ M.conj().T
        basis = one_block_kernel(A, tol=1e-10)
        assert basis.shape == (5, 3)
        norm = linalg.operator_norm(A)
        for k in range(basis.shape[1]):
            assert np.linalg.norm(A @ basis[:, k]) <= 1e-10 * max(1.0, norm)


def permuted_block_diagonal(rng, sizes):
    """Random block-diagonal matrix with dense nonzero blocks, then a
    random symmetric permutation."""
    n = sum(sizes)
    B = np.zeros((n, n), dtype=complex)
    start = 0
    for k in sizes:
        B[start : start + k, start : start + k] = random_complex(rng, k, k) + 2.0
        start += k
    perm = rng.permutation(n)
    return B[np.ix_(perm, perm)]


class TestDiagonalBlocks:
    def test_permutation_rebuilds_block_diagonal(self):
        rng = np.random.default_rng(11)
        sizes = [3, 1, 4, 2]
        M = permuted_block_diagonal(rng, sizes)
        blocks = diagonal_blocks(M)
        assert sorted(b.size for b in blocks) == sorted(sizes)
        order = np.concatenate(blocks)
        assert sorted(order) == list(range(M.shape[0]))
        rebuilt = M[np.ix_(order, order)]
        inside = np.zeros(M.shape, dtype=bool)
        start = 0
        for b in blocks:
            inside[start : start + b.size, start : start + b.size] = True
            start += b.size
        assert np.all(rebuilt[~inside] == 0)
        assert np.all(rebuilt[inside] != 0)

    def test_dense_matrix_is_one_block(self):
        M = random_complex(np.random.default_rng(12), 6, 6)
        blocks = diagonal_blocks(M)
        assert len(blocks) == 1
        assert np.array_equal(blocks[0], np.arange(6))

    def test_zero_matrix_gives_singletons(self):
        blocks = diagonal_blocks(np.zeros((4, 4)))
        assert [b.tolist() for b in blocks] == [[0], [1], [2], [3]]

    def test_directed_coupling_merges(self):
        M = np.diag([1.0, 2.0, 3.0]).astype(complex)
        M[0, 2] = 5.0  # M[2, 0] == 0
        blocks = diagonal_blocks(M)
        assert [b.tolist() for b in blocks] == [[0, 2], [1]]

    def test_cancelling_pair_still_couples(self):
        # M + M^H is exactly zero here; the structural support is not
        M = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert [b.tolist() for b in diagonal_blocks(M)] == [[0, 1]]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_breadth_first_search_on_sparse_patterns(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        density = rng.choice([0.0, 0.01, 0.03, 0.08, 0.3])
        M = np.where(rng.random((n, n)) < density, rng.normal(size=(n, n)), 0.0)
        assert_same_blocks(diagonal_blocks(M), bfs_blocks(M))

    def test_matches_breadth_first_search_on_catalog_forms(self):
        from ergochan import catalog, channel

        channels = [catalog.pauli_xy_channel(0.3)] + [
            build(p, d)
            for build, p in [
                (catalog.parity_fock_channel, 0.3),
                (catalog.shift_channel, 0.4),
                (catalog.ladder_channel, 0.6),
            ]
            for d in (2, 5, 8, 16)
        ]
        for ch in channels:
            for side in ("forward", "adjoint"):
                L = channel.superoperator(on_side(ch, side))
                for M in (L, linalg.to_hermitian_basis(L).real):
                    assert_same_blocks(diagonal_blocks(M), bfs_blocks(M))


def diagonal_blocks(M):
    """Index sets of the exact diagonal blocks of a square matrix, the
    components of its support (:func:`linalg.support_components`), in
    order of their smallest index, each sorted ascending."""
    order, sizes = linalg.support_components(M)
    return np.split(order, np.cumsum(sizes[:-1]))


def bfs_blocks(M):
    """Connected components of the support of M + M^H, one breadth-first
    search per component: the reference for :func:`diagonal_blocks`."""
    coupled = np.asarray(M) != 0
    coupled |= coupled.T
    n = len(coupled)
    seen = np.zeros(n, dtype=bool)
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        members = np.zeros(n, dtype=bool)
        members[start] = True
        frontier = members.copy()
        while frontier.any():
            frontier = coupled[frontier].any(axis=0) & ~members
            members |= frontier
        seen |= members
        blocks.append(np.flatnonzero(members))
    return blocks


def assert_same_blocks(got, want):
    assert [b.tolist() for b in got] == [b.tolist() for b in want]


class TestBlockLayout:
    def test_split_and_join_round_trip(self):
        rng = np.random.default_rng(21)
        M = permuted_block_diagonal(rng, [2, 3, 1, 2, 3])
        layout = linalg.BlockLayout(*linalg.support_components(M))
        stacks = layout.split(M)
        assert [X.shape for X in stacks] == [(2, 2, 2), (2, 3, 3), (1, 1, 1)]
        assert np.array_equal(layout.join(stacks), M)
        v = random_complex(rng, M.shape[0], 2)
        parts = layout.split_rows(v)
        assert np.array_equal(layout.join_rows(parts), v)
        product = layout.join_rows([X @ w for X, w in zip(stacks, parts)])
        assert np.allclose(product, M @ v, rtol=0, atol=1e-14)

    def test_blocks_of_one_size_keep_their_order(self):
        M = permuted_block_diagonal(np.random.default_rng(22), [2, 2, 2])
        layout = linalg.BlockLayout(*linalg.support_components(M))
        (idx,) = layout.index
        assert [b.tolist() for b in idx] == [
            b.tolist() for b in diagonal_blocks(M)
        ]

    def test_one_block_is_the_matrix_itself(self):
        # the one stack of a one-block matrix holds the matrix unchanged
        rng = np.random.default_rng(23)
        M = random_complex(rng, 5, 5)
        layout = linalg.BlockLayout(*linalg.support_components(M))
        (stack,) = layout.split(M)
        assert stack.shape == (1, 5, 5)
        assert np.array_equal(stack[0], M)
        assert np.array_equal(layout.join([stack]), M)
        assert np.array_equal(layout.index[0], np.arange(5)[np.newaxis])
        v = random_complex(rng, 5, 2)
        (part,) = layout.split_rows(v)
        assert part.shape == (1, 5, 2)
        assert np.array_equal(layout.join_rows([stack @ part]), M @ v)

    def test_stack_stands_for_its_block_diagonal_matrix(self):
        rng = np.random.default_rng(25)
        M = permuted_block_diagonal(rng, [3, 3, 1])
        layout = linalg.BlockLayout(*linalg.support_components(M))
        want_eig = linalg.eigvals(M)
        got_eig = np.concatenate([linalg.eigvals(X) for X in layout.split(M)])
        assert np.allclose(
            np.sort_complex(got_eig), np.sort_complex(want_eig), atol=1e-13
        )
        stack3, stack1 = layout.split(M)
        full = np.linalg.svd(
            layout.join([stack3, np.zeros_like(stack1)]), compute_uv=False
        )
        assert np.allclose(linalg.singular_values(stack3), full[:6], atol=1e-13)
        assert linalg.operator_norm(stack3) == pytest.approx(full[0], rel=1e-13)
        assert linalg.spectral_radius(stack3) == pytest.approx(
            np.max(np.abs(np.linalg.eigvals(stack3))), rel=1e-15
        )
        U, s, Vh = linalg.svd(stack3)
        assert np.allclose(U * s[:, np.newaxis, :] @ Vh, stack3, atol=1e-13)


def hermitian_basis_matrix(d):
    """Dense unitary B whose column at the column-stacking position of
    E_kk, E_jk, E_kj (j < k) is vec of E_kk, (E_jk + E_kj)/sqrt 2,
    i (E_jk - E_kj)/sqrt 2, built entry by entry from the definition."""
    n = d * d
    B = np.zeros((n, n), dtype=complex)
    for j in range(d):
        for k in range(d):
            E = np.zeros((d, d), dtype=complex)
            E[j, k] = 1.0
            if j == k:
                H = E
            elif j < k:
                H = (E + E.T) / np.sqrt(2)
            else:  # the position of E_kj holds the antisymmetric element
                H = 1j * (E.T - E) / np.sqrt(2)
            assert np.array_equal(H, H.conj().T)
            B[:, j + k * d] = H.reshape(-1, order="F")
    return B


def kraus_superoperator(rng, d, count=2):
    Vs = [random_complex(rng, d, d) for _ in range(count)]
    return sum(np.kron(V.conj(), V) for V in Vs)


class TestHermitianBasis:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_pair_equals_dense_basis_matrix(self, d):
        B = hermitian_basis_matrix(d)
        assert np.allclose(B.conj().T @ B, np.eye(d * d), atol=1e-15)
        rng = np.random.default_rng(d)
        M = random_complex(rng, d * d, d * d)
        to, back = linalg.to_hermitian_basis(M), linalg.from_hermitian_basis(M)
        assert np.allclose(to, B.conj().T @ M @ B, atol=1e-14)
        assert np.allclose(back, B @ M @ B.conj().T, atol=1e-14)
        back = linalg.from_hermitian_basis(linalg.to_hermitian_basis(M))
        assert np.allclose(back, M, atol=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_real_back_transform_preserves_hermiticity_exactly(self, d):
        rng = np.random.default_rng(10 + d)
        R = rng.uniform(-1, 1, (d * d, d * d))
        X = linalg.from_hermitian_basis(R)
        assert np.array_equal(X, mirror(X))
        B = hermitian_basis_matrix(d)
        assert np.allclose(X, B @ R @ B.conj().T, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_kraus_superoperator_is_real_in_the_basis(self, d):
        L = kraus_superoperator(np.random.default_rng(20 + d), d)
        # exact in exact arithmetic; a fused multiply-add leaves round-off
        assert np.max(np.abs(L - mirror(L))) <= 1e-15 * np.max(np.abs(L))
        R = linalg.to_hermitian_basis(L)
        assert np.max(np.abs(R.imag)) <= 1e-14 * np.max(np.abs(R))

    # ergodic._sectors is the one place a superoperator's Hermitian form
    # is taken for analysis, and refused when it is not real

    def test_not_hermiticity_preserving(self):
        rng = np.random.default_rng(30)
        A = random_complex(rng, 3, 3)
        with pytest.raises(DomainError):
            ergodic._sectors(np.kron(np.eye(3), A))  # X -> A X
        with pytest.raises(DomainError):
            ergodic._sectors(random_complex(rng, 9, 9))
        with pytest.raises(DimensionError):
            ergodic._sectors(np.eye(2))  # 2 is no d^2
        with pytest.raises(DimensionError):
            ergodic._sectors(np.ones((4, 9)))

    def test_round_off_bound(self):
        # E moves i * eps into two entries of the form, each of modulus
        # eps / sqrt 2, so 0.5x reads 0.35 of the threshold and 4x 2.8
        L = kraus_superoperator(np.random.default_rng(31), 3)
        scale = np.max(np.abs(L))
        E = np.zeros(L.shape, dtype=complex)
        E[0, 1] = 1j
        small = L + 0.5 * linalg.HERMITICITY_TOL * scale * E
        large = L + 4 * linalg.HERMITICITY_TOL * scale * E
        H = linalg.to_hermitian_basis(small)
        ratio = np.max(np.abs(H.imag)) / np.max(np.abs(H)) / linalg.HERMITICITY_TOL
        assert 0.3 < ratio < 0.4
        _, _, (A,) = ergodic._sectors(small)
        assert A.dtype == np.float64
        with pytest.raises(DomainError, match=r"is 2\.8e-13 times its largest entry"):
            ergodic._sectors(large)

    def test_transpose_map_and_zero_preserve_hermiticity(self):
        d = 3
        perm = np.arange(d * d).reshape(d, d).T.reshape(-1)
        for M in (np.eye(d * d)[perm], np.zeros((d * d, d * d))):
            _, _, stacks = ergodic._sectors(M)
            assert all(X.dtype == np.float64 for X in stacks)

    def test_size_must_be_a_square(self):
        with pytest.raises(DimensionError):
            linalg.to_hermitian_basis(np.eye(3))
        with pytest.raises(DimensionError):
            linalg.to_hermitian_coordinates(np.ones(3))
        with pytest.raises(DimensionError, match=r"vector of length d\^2, got shape \(4, 1\)"):
            linalg.to_hermitian_coordinates(np.ones((4, 1)))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_coordinates_equal_dense_basis_matrix(self, d):
        B = hermitian_basis_matrix(d)
        rng = np.random.default_rng(40 + d)
        v = random_complex(rng, d, d).reshape(-1, order="F")
        w = linalg.to_hermitian_coordinates(v)
        assert np.allclose(w, B.conj().T @ v, atol=1e-15)
        back = linalg.matrices_from_hermitian_columns(np.column_stack([w, v]))
        assert np.allclose(back[0], linalg.unvec(v, d), atol=1e-15)
        assert np.allclose(back[1], linalg.unvec(B @ v, d), atol=1e-15)

    @pytest.mark.parametrize("d, m", [(1, 1), (3, 4), (4, 0), (5, 7)])
    def test_columns_to_matrices_equal_each_column_bitwise(self, d, m):
        # d columns are changed at a time; each matrix is bit for bit that
        # of its column alone, and equals the dense unvec(B k)
        rng = np.random.default_rng(50 + d)
        K = rng.normal(size=(d * d, m))
        mats = linalg.matrices_from_hermitian_columns(K)
        assert mats.shape == (m, d, d) and mats.flags.c_contiguous
        dense = hermitian_basis_matrix(d) @ K
        for B, w, v in zip(mats, K.T, dense.T):
            (ref,) = linalg.matrices_from_hermitian_columns(w[:, np.newaxis])
            assert np.array_equal(B.view(np.int64), ref.view(np.int64))
            assert np.allclose(B, linalg.unvec(v, d), atol=1e-15)

    def test_columns_must_have_square_length(self):
        for shape in [(3, 2), (0, 2)]:
            with pytest.raises(DimensionError):
                linalg.matrices_from_hermitian_columns(np.ones(shape))
        with pytest.raises(DimensionError):
            linalg.matrices_from_hermitian_columns(np.ones(4))

    def test_coordinates_of_a_hermitian_matrix_are_real(self):
        rng = np.random.default_rng(45)
        G = random_complex(rng, 4, 4)
        w = linalg.to_hermitian_coordinates(linalg.vec(G + G.conj().T))
        assert np.max(np.abs(w.imag)) <= 1e-15


class TestAsMatrixDtype:
    def test_real_input_stays_float64(self):
        assert linalg.as_matrix(np.eye(2)).dtype == np.float64
        assert linalg.as_matrix([[1, 2], [3, 4]]).dtype == np.float64
        assert linalg.as_matrix(np.eye(2, dtype=np.float32)).dtype == np.float64

    def test_a_vector_is_not_a_stack(self):
        with pytest.raises(DimensionError, match=r"a matrix or a stack, got shape \(3,\)"):
            linalg.as_stack(np.ones(3))

    def test_a_stack_is_not_a_matrix(self):
        with pytest.raises(DimensionError, match=r"expected a 2-d matrix, got shape \(2, 2, 2\)"):
            linalg.as_matrix(np.ones((2, 2, 2)))

    def test_complex_input_stays_complex(self):
        assert linalg.as_matrix([[1j, 0], [0, 1]]).dtype == np.complex128
