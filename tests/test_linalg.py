import numpy as np
import pytest

from ergochan import linalg
from ergochan.errors import DimensionError


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


class TestKronVec:
    def test_kron_identity(self):
        assert np.allclose(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_kron_diag(self):
        out = linalg.kron(np.diag([2.0, 3.0]), np.eye(2))
        assert np.allclose(out, np.diag([2.0, 2.0, 3.0, 3.0]))

    def test_kron_expand_definition(self):
        out = linalg.kron(np.array([[0, 1], [1, 0]]), np.array([[2.0]]))
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
            rhs = linalg.kron(B.T, A) @ linalg.vec(X)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)


class TestNorms:
    def test_identity_norms(self):
        for d in (2, 5):
            assert linalg.trace_norm(np.eye(d)) == pytest.approx(d)
            assert linalg.operator_norm(np.eye(d)) == pytest.approx(1.0)

    def test_hs_inner_sigma_x(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        assert linalg.hs_inner(sx, sx) == pytest.approx(2.0)

    def test_rank_one_trace_norm(self):
        rng = np.random.default_rng(3)
        u = random_complex(rng, 3, 1)[:, 0]
        v = random_complex(rng, 3, 1)[:, 0]
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        assert linalg.trace_norm(np.outer(u, v.conj())) == pytest.approx(1.0)

    def test_norm_ordering(self):
        rng = np.random.default_rng(11)
        for d in (2, 6, 12):
            M = random_complex(rng, d, d)
            op = linalg.operator_norm(M)
            hs = linalg.hs_norm(M)
            tr = linalg.trace_norm(M)
            assert op <= hs * (1 + 1e-12) <= tr * (1 + 1e-12)

    def test_hs_inner_dim_mismatch(self):
        with pytest.raises(DimensionError):
            linalg.hs_inner(np.eye(2), np.eye(3))


class TestNullSpace:
    def test_zero_matrix_full_space(self):
        basis = linalg.null_space(np.eye(3) - np.eye(3))
        assert basis.shape == (3, 3)
        assert np.allclose(basis.conj().T @ basis, np.eye(3))

    def test_identity_empty(self):
        assert linalg.null_space(np.eye(3)).shape[1] == 0

    def test_diag_by_inspection(self):
        basis = linalg.null_space(np.diag([0.0, 1.0, 2.0]), tol=1e-10)
        assert basis.shape[1] == 1
        assert abs(abs(basis[0, 0]) - 1.0) < 1e-12

    def test_orthonormal_output(self):
        rng = np.random.default_rng(5)
        M = random_complex(rng, 6, 3)
        # rank-3 6x6 matrix has a 3-dimensional kernel
        basis = linalg.null_space(M @ M.conj().T, tol=1e-10)
        gram = basis.conj().T @ basis
        assert np.linalg.norm(gram - np.eye(basis.shape[1]), 2) < 1e-12

    def test_kernel_vectors_annihilated(self):
        rng = np.random.default_rng(6)
        M = random_complex(rng, 5, 2)
        A = M @ M.conj().T
        basis = linalg.null_space(A, tol=1e-10)
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
        blocks = linalg.diagonal_blocks(M)
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
        blocks = linalg.diagonal_blocks(M)
        assert len(blocks) == 1
        assert np.array_equal(blocks[0], np.arange(6))

    def test_zero_matrix_gives_singletons(self):
        blocks = linalg.diagonal_blocks(np.zeros((4, 4)))
        assert [b.tolist() for b in blocks] == [[0], [1], [2], [3]]

    def test_directed_coupling_merges(self):
        M = np.diag([1.0, 2.0, 3.0]).astype(complex)
        M[0, 2] = 5.0  # M[2, 0] == 0
        blocks = linalg.diagonal_blocks(M)
        assert [b.tolist() for b in blocks] == [[0, 2], [1]]

    def test_cancelling_pair_still_couples(self):
        # M + M^H is exactly zero here; the structural support is not
        M = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert [b.tolist() for b in linalg.diagonal_blocks(M)] == [[0, 1]]
