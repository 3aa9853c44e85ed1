import numpy as np
import pytest

from ergochan import (
    KrausChannel,
    apply,
    apply_adjoint,
    apply_n,
    choi,
    choi_from_superoperator,
    kraus_sum,
    parity_fock_channel,
    pauli_xy_channel,
    shift_channel,
    superoperator,
    transpose_superoperator,
    verify,
)
from ergochan import linalg
from ergochan.channel import ADJOINT, min_choi_eigenvalue
from ergochan.errors import DimensionError, DomainError
from helpers import on_side, stinespring_channel


def random_state_like(rng, d):
    return rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))


def choi_kron_sum(L):
    """Reference Choi matrix: sum_ij E_ij kron phi(E_ij), term by term."""
    n = L.shape[0]
    d = int(round(np.sqrt(n)))
    C = np.zeros((n, n), dtype=complex)
    E = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            E[i, j] = 1.0
            C += np.kron(E, linalg.unvec(L @ linalg.vec(E), d))
            E[i, j] = 0.0
    return C


def transpose_loop(d):
    """Reference matrix of X -> X^T, entry by entry."""
    K = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            K[i * d + j, j * d + i] = 1.0
    return K


def sampled_contraction_ok(ch, rng, tol=1e-10, samples=20):
    """Contraction in trace norm (phi) and operator norm (phi*), sampled."""
    ok = True
    for _ in range(samples):
        X = random_state_like(rng, ch.dim)
        A = random_state_like(rng, ch.dim)
        ok &= np.linalg.norm(apply(ch, X), "nuc") <= np.linalg.norm(X, "nuc") + tol
        ok &= linalg.operator_norm(apply_adjoint(ch, A)) <= linalg.operator_norm(A) + tol
    return ok


class TestKrausChannel:
    def test_dim(self):
        assert pauli_xy_channel(0.5).dim == 2

    def test_empty_family_rejected(self):
        with pytest.raises(DomainError):
            KrausChannel(kraus=())

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(DimensionError):
            KrausChannel(kraus=(np.eye(2), np.eye(3)))

    def test_immutable(self):
        ch = pauli_xy_channel(0.5)
        with pytest.raises(ValueError):
            ch.kraus[0][0, 0] = 5.0

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_caller_array_stays_writable(self, dtype):
        V = np.eye(2, dtype=dtype)
        ch = KrausChannel((V,))
        V[0, 0] = 2
        assert ch.kraus[0][0, 0] == 1


class TestApply:
    def test_pauli_unital(self):
        for p in (0.0, 0.3, 1.0):
            assert np.allclose(apply(pauli_xy_channel(p), np.eye(2)), np.eye(2))

    def test_identity_channel(self):
        ch = KrausChannel(kraus=(np.eye(3),))
        X = random_state_like(np.random.default_rng(0), 3)
        assert np.allclose(apply(ch, X), X)

    def test_pauli_p1_flips_population(self):
        out = apply(pauli_xy_channel(1.0), np.diag([1.0, 0.0]))
        assert np.allclose(out, np.diag([0.0, 1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply(pauli_xy_channel(0.5), np.eye(3))

    def test_hermiticity_preservation(self):
        rng = np.random.default_rng(1)
        ch = shift_channel(0.4, 5)
        X = random_state_like(rng, 5)
        assert np.linalg.norm(apply(ch, X.conj().T) - apply(ch, X).conj().T) < 1e-12

    def test_psd_preserved(self):
        rng = np.random.default_rng(2)
        M = random_state_like(rng, 4)
        rho = M @ M.conj().T
        out = apply(shift_channel(0.3, 4), rho)
        assert np.linalg.eigvalsh(linalg.hermitize(out))[0] >= -1e-12


class TestApplyN:
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 50])
    def test_bit_identical_to_kraus_sum_loop(self, adjoint, n):
        # reference: n steps of the plain Kraus sum, one term at a time
        rng = np.random.default_rng(n)
        for ch in (stinespring_channel(rng, 4), shift_channel(0.3, 5)):
            X = random_state_like(rng, ch.dim)
            ref = X
            for _ in range(n):
                acc = np.zeros_like(ref, dtype=complex)
                for V in ch.kraus:
                    acc += (V.conj().T @ ref @ V) if adjoint else (V @ ref @ V.conj().T)
                ref = acc
            assert np.array_equal(apply_n(ch, X, n, adjoint=adjoint), ref)
            if n == 1:
                op = apply_adjoint if adjoint else apply
                assert np.array_equal(op(ch, X), ref)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply_n(pauli_xy_channel(0.5), np.eye(3), 4)

    def test_negative_n_is_a_domain_error(self):
        with pytest.raises(DomainError, match="n must be >= 0"):
            apply_n(pauli_xy_channel(0.5), np.eye(2), -3)


class TestAdjoint:
    def test_pauli_self_adjoint(self):
        # Hermitian Kraus family: phi* = phi
        rng = np.random.default_rng(3)
        ch = pauli_xy_channel(0.3)
        X = random_state_like(rng, 2)
        assert np.allclose(apply(ch, X), apply_adjoint(ch, X))

    def test_identity_channel(self):
        ch = KrausChannel(kraus=(np.eye(2),))
        X = random_state_like(np.random.default_rng(4), 2)
        assert np.allclose(apply_adjoint(ch, X), X)

    def test_shift_adjoint_of_identity_is_kraus_sum(self):
        ch = shift_channel(0.5, 4)
        assert np.allclose(apply_adjoint(ch, np.eye(4)), kraus_sum(ch))

    def test_duality_pairing(self):
        rng = np.random.default_rng(5)
        for ch in (pauli_xy_channel(0.7), shift_channel(0.3, 6), parity_fock_channel(0.4, 4)):
            d = ch.dim
            for _ in range(10):
                X = random_state_like(rng, d)
                A = random_state_like(rng, d)
                lhs = np.trace(apply(ch, X) @ A)
                rhs = np.trace(X @ apply_adjoint(ch, A))
                assert abs(lhs - rhs) <= 1e-11 * np.linalg.norm(X, "nuc") * linalg.operator_norm(A)


class TestKrausSum:
    def test_pauli_identity(self):
        assert np.allclose(kraus_sum(pauli_xy_channel(0.37)), np.eye(2))

    def test_shift_diagonal(self):
        ks = kraus_sum(shift_channel(0.25, 5))
        assert np.allclose(ks, np.diag([0.75, 1, 1, 1, 0.25]))

    def test_zero_family(self):
        ch = KrausChannel(kraus=(np.zeros((2, 2)),))
        assert np.allclose(kraus_sum(ch), 0.0)


class TestChoi:
    def test_identity_channel_choi(self):
        ch = KrausChannel(kraus=(np.eye(2),))
        C = choi(ch)
        lam = np.linalg.eigvalsh(linalg.hermitize(C))
        assert np.allclose(sorted(lam), [0, 0, 0, 2], atol=1e-12)

    @pytest.mark.parametrize(
        "ch",
        [pauli_xy_channel(0.3), shift_channel(0.5, 6), parity_fock_channel(0.2, 4)],
        ids=["pauli", "shift", "parity"],
    )
    def test_kraus_form_is_cp(self, ch):
        assert min_choi_eigenvalue(choi(ch)) >= -1e-10 * ch.dim

    def test_transpose_map_is_not_cp(self):
        T = transpose_superoperator(2)
        C = choi_from_superoperator(T)
        assert min_choi_eigenvalue(C) == pytest.approx(-1.0, abs=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_reshuffle_equals_kron_sum(self, d):
        rng = np.random.default_rng(100 + d)
        L = superoperator(stinespring_channel(rng, d))
        assert np.array_equal(choi_from_superoperator(L), choi_kron_sum(L))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_transpose_map_equals_loop(self, d):
        K = transpose_superoperator(d)
        assert np.array_equal(K, transpose_loop(d))
        assert np.array_equal(choi_from_superoperator(K), choi_kron_sum(K))

    def test_returns_a_fresh_array(self):
        L = np.eye(1, dtype=complex)
        C = choi_from_superoperator(L)
        C[0, 0] = 5.0
        assert L[0, 0] == 1.0


class TestSuperoperator:
    def test_identity_channel(self):
        ch = KrausChannel(kraus=(np.eye(3),))
        assert np.allclose(superoperator(ch), np.eye(9))

    def test_is_a_plain_matrix(self):
        # the matrix itself, a fresh complex ndarray; so is the transpose map's
        ch = shift_channel(0.4, 3)
        L = superoperator(ch)
        assert type(L) is np.ndarray and L.dtype == complex and L.shape == (9, 9)
        assert np.array_equal(L, sum(np.kron(V.conj(), V) for V in ch.kraus))
        assert L.flags.writeable and not np.shares_memory(L, superoperator(ch))
        T = transpose_superoperator(3)
        assert type(T) is np.ndarray and T.shape == (9, 9)

    def test_pauli_real_symmetric(self):
        L = superoperator(pauli_xy_channel(0.3))
        assert np.linalg.norm(L.imag) < 1e-15
        assert np.allclose(L, L.T)

    @pytest.mark.parametrize("side", ["forward", "adjoint"])
    def test_apply_consistency(self, side):
        rng = np.random.default_rng(6)
        ch = shift_channel(0.4, 4)
        L = superoperator(on_side(ch, side))
        op = apply_adjoint if side == ADJOINT else apply
        for _ in range(5):
            X = random_state_like(rng, 4)
            LX = linalg.unvec(L @ linalg.vec(X), 4)
            assert np.linalg.norm(LX - op(ch, X)) <= 1e-12 * np.linalg.norm(X)

    def test_forward_adjoint_hs_pairing(self):
        # <phi(X), A>_HS = <X, adjoint-of-phi2(A)>_HS; for our maps the
        # HS adjoint of the forward matrix is its conjugate transpose
        ch = parity_fock_channel(0.3, 4)
        Lf = superoperator(ch)
        La = superoperator(on_side(ch, ADJOINT))
        assert np.linalg.norm(La - Lf.conj().T) < 1e-12

    def test_power_boundedness_witness(self):
        for ch in (pauli_xy_channel(0.25), shift_channel(0.5, 6), parity_fock_channel(0.3, 4)):
            L = superoperator(ch)
            power = np.eye(L.shape[0], dtype=complex)
            for _ in range(200):
                power = power @ L
            assert linalg.operator_norm(power) <= 1.0 + 1e-8


class TestVerify:
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.8, 1.0])
    def test_pauli_all_flags(self, p):
        rep = verify(pauli_xy_channel(p))
        assert rep.all_ok
        assert rep.min_choi_eigenvalue == 0.0  # 2 Kraus operators < d^2 = 4

    def test_shift_d16(self):
        rep = verify(shift_channel(0.5, 16))
        assert rep.all_ok
        assert rep.max_kraus_sum_eigenvalue == pytest.approx(1.0, abs=1e-12)

    def test_scaled_identity_fails(self):
        rep = verify(KrausChannel(kraus=(np.sqrt(2) * np.eye(2),)))
        assert not rep.trace_nonincreasing_ok
        assert rep.max_kraus_sum_eigenvalue == pytest.approx(2.0, abs=1e-12)
        assert not rep.all_ok

    def test_deterministic(self):
        ch = shift_channel(0.3, 5)
        assert verify(ch) == verify(ch)

    @pytest.mark.parametrize(
        "ch",
        [
            stinespring_channel(np.random.default_rng(7), 4, scale=0.95),
            KrausChannel(kraus=(np.sqrt(2) * np.eye(2),)),
        ],
        ids=["trace-decreasing", "sqrt2-identity"],
    )
    def test_exact_contraction_agrees_with_sampling(self, ch):
        rep = verify(ch)
        assert rep.trace_nonincreasing_ok == sampled_contraction_ok(
            ch, np.random.default_rng(8)
        )
        # Russo-Dye: no input is stretched beyond lambda_max(sum V^dag V)
        rng = np.random.default_rng(9)
        for _ in range(20):
            X = random_state_like(rng, ch.dim)
            ratio = np.linalg.norm(apply(ch, X), "nuc") / np.linalg.norm(X, "nuc")
            assert ratio <= rep.max_kraus_sum_eigenvalue * (1 + 1e-12)
        A = np.eye(ch.dim)
        assert linalg.operator_norm(apply_adjoint(ch, A)) == pytest.approx(
            rep.max_kraus_sum_eigenvalue, rel=1e-12
        )

    def test_report_has_no_sampling_fields(self):
        # nor fields that the Kraus form fixes (a duality residual, a
        # contraction flag equal to trace_nonincreasing_ok)
        assert set(vars(verify(pauli_xy_channel(0.3)))) == {
            "cp_ok",
            "min_choi_eigenvalue",
            "trace_nonincreasing_ok",
            "max_kraus_sum_eigenvalue",
            "tol",
        }


def dependent_family(rng, d, count):
    """``count`` >= d^2 Kraus operators, each a random combination of the
    same d^2 - 1 matrices, so that they span d^2 - 1 dimensions only."""
    span = [random_state_like(rng, d) for _ in range(d * d - 1)]
    coeffs = rng.normal(size=(count, len(span)))
    mats = (0.1 * sum(c * B for c, B in zip(row, span)) for row in coeffs)
    return KrausChannel(kraus=tuple(mats))


class TestClosedFormChoiWitness:
    """``verify``'s least Choi eigenvalue, 0 for k < d^2 Kraus operators
    and ``sigma_min(K)^2`` otherwise, against ``eigvalsh`` of the dense
    Choi matrix."""

    @pytest.mark.parametrize(
        "d, count",
        [(1, 1), (1, 3), (2, 3), (2, 4), (2, 6), (3, 2), (3, 9), (3, 12), (4, 17)],
    )
    def test_random_families(self, d, count):
        ch = stinespring_channel(np.random.default_rng(40 + 10 * d + count), d, count)
        rep = verify(ch)
        assert rep.min_choi_eigenvalue >= 0.0
        assert rep.min_choi_eigenvalue == pytest.approx(
            min_choi_eigenvalue(choi(ch)), abs=1e-12
        )
        if count < d * d:
            assert rep.min_choi_eigenvalue == 0.0
        else:  # K of full rank d^2
            assert rep.min_choi_eigenvalue > 1e-3

    @pytest.mark.parametrize("d, count", [(2, 4), (2, 6), (3, 9), (3, 12)])
    def test_linearly_dependent_family(self, d, count):
        ch = dependent_family(np.random.default_rng(50 + count), d, count)
        rep = verify(ch)
        assert 0.0 <= rep.min_choi_eigenvalue <= 1e-12
        assert rep.min_choi_eigenvalue == pytest.approx(
            min_choi_eigenvalue(choi(ch)), abs=1e-12
        )

    @pytest.mark.parametrize("scale", [0.0, 0.5, 1.0, np.sqrt(2)])
    def test_one_dimensional_channels(self, scale):
        # d = 1: the Choi matrix is the 1 x 1 matrix sum |v_i|^2
        ch = KrausChannel(kraus=(np.array([[scale]]),))
        rep = verify(ch)
        assert rep.min_choi_eigenvalue == pytest.approx(scale**2, abs=1e-15)
        assert rep.cp_ok
        assert rep.trace_nonincreasing_ok == (scale <= 1.0)
