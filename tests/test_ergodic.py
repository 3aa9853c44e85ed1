import numpy as np
import pytest

from ergochan import (
    KrausChannel,
    apply_n,
    cesaro_average,
    decay_fit,
    fixed_space,
    fixed_space_intersection,
    hs_fixed_point_symmetry,
    parity_fock_channel,
    parity_iterate_expected,
    pauli_decomposition_expected,
    pauli_xy_channel,
    peripheral_decomposition,
    peripheral_spectrum,
    peripheral_unitarity_check,
    power_iterate,
    reconstruct_iterate,
    shift_channel,
    spectral_projectors,
    splitting_check,
    stable_part,
    superoperator,
)
from ergochan import ergodic, linalg
from ergochan.errors import (
    DecompositionFailureError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    IllConditionedDecompositionError,
    NumericError,
)

CATALOG_CHANNELS = [
    pauli_xy_channel(0.25),
    pauli_xy_channel(0.5),
    pauli_xy_channel(0.9),
    shift_channel(0.5, 8),
    parity_fock_channel(0.3, 8),
]
CATALOG_IDS = ["pauli25", "pauli50", "pauli90", "shift8", "parity8"]


def identity_channel(d):
    return KrausChannel(kraus=(np.eye(d),), label=f"identity({d})")


def power_drift_bound(n, X):
    """The documented error bound of power_iterate for a d x d input X."""
    return ergodic.POWER_DRIFT * n * X.shape[0] * 2.0**-53 * linalg.hs_norm(X)


def cesaro_loop(L, lam, n):
    """Reference A_n(L/lam) by n - 1 sequential products."""
    T = np.asarray(L, dtype=complex) / lam
    power = T.copy()
    acc = T.copy()
    for _ in range(n - 1):
        power = T @ power
        acc += power
    return acc / n


def decay_norms_loop(S, n_max):
    """Reference ||S^k||, k = 1..n_max, by dense products of the whole S."""
    S = np.asarray(S, dtype=complex)
    norms = []
    power = np.eye(S.shape[0], dtype=complex)
    for _ in range(n_max):
        power = power @ S
        norms.append(linalg.operator_norm(power))
    return norms


def random_stinespring_channel(seed, d, count=2):
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(count * d, d)) + 1j * rng.normal(size=(count * d, d))
    Q, _ = np.linalg.qr(G)
    return KrausChannel(kraus=tuple(Q[k * d : (k + 1) * d] for k in range(count)))


class TestCesaro:
    def test_identity(self):
        L = superoperator(identity_channel(2))
        assert np.allclose(cesaro_average(L, 1.0, 7), np.eye(4))

    def test_alternating_sum(self):
        out = cesaro_average(-np.eye(4), 1.0, 10)
        assert np.linalg.norm(out) < 1e-14

    def test_non_unit_lambda_rejected(self):
        with pytest.raises(DomainError):
            cesaro_average(np.eye(4), 0.5, 3)

    def test_converges_to_projector(self):
        L = superoperator(pauli_xy_channel(0.3))
        exp = pauli_decomposition_expected(0.3)
        out = cesaro_average(L, 1.0, 10**4)
        assert linalg.operator_norm(out - exp.projectors[0]) < 1e-3

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 15, 16, 17, 400])
    @pytest.mark.parametrize("lam", [1.0, -1.0])
    @pytest.mark.parametrize("ch", CATALOG_CHANNELS, ids=CATALOG_IDS)
    def test_doubling_equals_loop(self, ch, lam, n):
        L = superoperator(ch).matrix
        ref = cesaro_loop(L, lam, n)
        assert np.max(np.abs(cesaro_average(L, lam, n) - ref)) <= 1e-13


class TestFixedSpace:
    def test_pauli_interior_p(self):
        fs = fixed_space(superoperator(pauli_xy_channel(0.4)))
        assert fs.dimension == 1
        B = fs.basis[0]
        # basis element proportional to the identity
        assert linalg.hs_norm(B - B[0, 0] * np.eye(2)) < 1e-10

    def test_pauli_p0(self):
        fs = fixed_space(superoperator(pauli_xy_channel(0.0)))
        assert fs.dimension == 2
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        for target in (np.eye(2) / np.sqrt(2), J / np.sqrt(2)):
            v = linalg.vec(target)
            Q = np.column_stack([linalg.vec(B) for B in fs.basis])
            assert np.linalg.norm(v - Q @ (Q.conj().T @ v)) < 1e-8

    def test_shift_empty(self):
        fs = fixed_space(superoperator(shift_channel(0.5, 16)), tol=1e-8)
        assert fs.dimension == 0

    def test_near_identity_channel(self):
        # ||I - L|| = 2e-9: a cut relative to it counted the round-off
        # (1e-16) on the 8 even-gap fixed points as rank
        L = superoperator(parity_fock_channel(1 - 1e-9, 4))
        fs = fixed_space(L, 1e-10)
        assert fs.dimension == 8
        for B in fs.basis:
            assert linalg.hs_norm(L(B) - B) <= 1e-15
        rep = splitting_check(L, 1e-10)
        assert (rep.fixed_dim, rep.range_dim) == (8, 8)

    def test_orthonormal_gram(self):
        fs = fixed_space(superoperator(parity_fock_channel(0.3, 6)))
        Q = np.column_stack([linalg.vec(B) for B in fs.basis])
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(fs.dimension), 2) < 1e-10


class TestPeripheralSpectrum:
    def test_pauli(self):
        lams = peripheral_spectrum(superoperator(pauli_xy_channel(0.3)))
        assert np.allclose(sorted(lams, key=lambda z: -z.real), [1.0, -1.0])

    def test_parity_single_eigenvalue(self):
        lams = peripheral_spectrum(superoperator(parity_fock_channel(0.25, 8)))
        assert len(lams) == 1
        assert lams[0] == pytest.approx(1.0)

    def test_shift_empty(self):
        assert peripheral_spectrum(superoperator(shift_channel(0.5, 16))) == []

    def test_radial_projection(self):
        for lam in peripheral_spectrum(superoperator(pauli_xy_channel(0.0))):
            assert abs(abs(lam) - 1.0) < 1e-14


class TestSpectralProjectors:
    def test_pauli_matches_closed_form(self):
        L = superoperator(pauli_xy_channel(0.3))
        exp = pauli_decomposition_expected(0.3)
        projs = spectral_projectors(L, list(exp.lambdas))
        for P, Q in zip(projs, exp.projectors):
            assert linalg.operator_norm(P - Q) < 1e-8

    def test_identity_channel_full_projector(self):
        L = superoperator(identity_channel(3))
        projs = spectral_projectors(L, [1.0])
        assert np.allclose(projs[0], np.eye(9))

    @pytest.mark.parametrize("ch", CATALOG_CHANNELS, ids=CATALOG_IDS)
    def test_projector_algebra(self, ch):
        L = superoperator(ch)
        decomp = peripheral_decomposition(L)
        M = L.matrix
        for i, (lam, P) in enumerate(zip(decomp.lambdas, decomp.projectors)):
            assert linalg.operator_norm(P @ P - P) <= 1e-8
            assert linalg.operator_norm(M @ P - lam * P) <= 1e-8
            assert linalg.operator_norm(P @ M - lam * P) <= 1e-8
            assert linalg.operator_norm(P @ decomp.stable) <= 1e-8
            assert linalg.operator_norm(decomp.stable @ P) <= 1e-8
            for Q in decomp.projectors[i + 1 :]:
                assert linalg.operator_norm(P @ Q) <= 1e-8


class TestStablePart:
    def test_pauli_eigenvalues(self):
        p = 0.3
        L = superoperator(pauli_xy_channel(p))
        exp = pauli_decomposition_expected(p)
        S = stable_part(L, list(exp.lambdas), list(exp.projectors))
        lam = sorted(np.real(linalg.eigvals(S)), key=abs, reverse=True)[:2]
        assert np.allclose(sorted(lam), sorted([2 * p - 1, 1 - 2 * p]), atol=1e-10)

    def test_identity_channel_zero(self):
        L = superoperator(identity_channel(2))
        S = stable_part(L, [1.0], [np.eye(4)])
        assert np.linalg.norm(S) < 1e-14

    def test_eigenvalue_exclusivity(self):
        # stable eigenvalues are exactly the non-peripheral eigenvalues of L
        L = superoperator(parity_fock_channel(0.3, 8))
        decomp = peripheral_decomposition(L)
        lam_S = linalg.eigvals(decomp.stable)
        assert not any(abs(z) >= 1 - decomp.peripheral_tol for z in lam_S)
        lam_L = linalg.eigvals(L.matrix)
        interior = sorted(
            (z for z in lam_L if abs(z) < 1 - decomp.peripheral_tol),
            key=lambda z: (abs(z), z.real, z.imag),
        )
        nonzero_S = sorted(
            (z for z in lam_S if abs(z) > 1e-8),
            key=lambda z: (abs(z), z.real, z.imag),
        )
        interior_nonzero = [z for z in interior if abs(z) > 1e-8]
        assert len(interior_nonzero) == len(nonzero_S)
        for a, b in zip(interior_nonzero, nonzero_S):
            assert abs(a - b) < 1e-8


class TestReconstruction:
    def test_n1_is_apply(self):
        ch = pauli_xy_channel(0.35)
        L = superoperator(ch)
        decomp = peripheral_decomposition(L)
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        assert np.linalg.norm(reconstruct_iterate(decomp, 1, X) - apply_n(ch, X, 1)) < 1e-12

    def test_pauli_n4(self):
        ch = pauli_xy_channel(0.25)
        decomp = peripheral_decomposition(superoperator(ch))
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        assert np.linalg.norm(reconstruct_iterate(decomp, 4, X) - apply_n(ch, X, 4)) < 1e-11

    @pytest.mark.parametrize("ch", CATALOG_CHANNELS, ids=CATALOG_IDS)
    @pytest.mark.parametrize("n", [1, 2, 5, 20, 50])
    def test_reconstruction_equivalence(self, ch, n):
        decomp = peripheral_decomposition(superoperator(ch))
        rng = np.random.default_rng(n)
        d = ch.dim
        for _ in range(10):
            X = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
            err = linalg.hs_norm(reconstruct_iterate(decomp, n, X) - apply_n(ch, X, n))
            assert err <= n * 1e-10 * linalg.hs_norm(X)


class TestPowerIterate:
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.999])
    @pytest.mark.parametrize("n", [10**4, 10**6])
    def test_pauli_closed_form(self, p, n):
        pe = pauli_decomposition_expected(p)
        X = np.array([[0.7, 0.2 - 0.1j], [0.3j, 0.3]])
        v = linalg.vec(X)
        want = np.linalg.matrix_power(pe.stable, n) @ v
        for lam, P in zip(pe.lambdas, pe.projectors):
            want += lam**n * (P @ v)
        got = power_iterate(superoperator(pauli_xy_channel(p)), n, X)
        assert linalg.hs_norm(got - linalg.unvec(want, 2)) <= power_drift_bound(n, X)

    @pytest.mark.parametrize("p", [0.3, 0.9])
    @pytest.mark.parametrize("d", [4, 8, 16])
    @pytest.mark.parametrize("n", [10**4, 10**6])
    def test_parity_closed_form(self, p, d, n):
        rng = np.random.default_rng(d)
        X = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        got = power_iterate(superoperator(parity_fock_channel(p, d)), n, X)
        err = linalg.hs_norm(got - parity_iterate_expected(p, d, n, X))
        assert err <= power_drift_bound(n, X)

    def test_no_eigendecomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("power_iterate factorised L")

        for name in ("eig", "eigvals", "svd", "matrix_power"):
            monkeypatch.setattr(np.linalg, name, refuse)
        ch = parity_fock_channel(0.3, 4)
        X = np.eye(4) / 4
        got = power_iterate(superoperator(ch), 1000, X)
        assert linalg.hs_norm(got - X) <= power_drift_bound(1000, X)

    def test_n0_returns_x(self):
        X = np.array([[0.5, 1j], [0.25, -2.0]])
        assert np.array_equal(power_iterate(superoperator(pauli_xy_channel(0.3)), 0, X), X)

    def test_bad_input(self):
        L = superoperator(pauli_xy_channel(0.3))
        with pytest.raises(DomainError, match="n must be >= 0"):
            power_iterate(L, -3, np.eye(2))
        with pytest.raises(DimensionError):
            power_iterate(L, 2, np.eye(3))


class TestConjugatePeripheralPair:
    """V1 = sqrt(p) U, V2 = sqrt(1-p) U Z with U = diag(e^{i k theta}),
    Z = diag(1, -1, 1): phi(E_jk) = e^{i(j-k) theta} (p + (1-p) z_j z_k) E_jk.
    The peripheral set is {1, e^{2 i theta}, e^{-2 i theta}}, a conjugate
    pair that the real form must handle in complex arithmetic."""

    p, theta = 0.3, 0.7
    U = np.diag(np.exp(1j * theta * np.arange(3)))
    Z = np.diag([1.0, -1.0, 1.0])
    ch = KrausChannel(kraus=(np.sqrt(p) * U, np.sqrt(1 - p) * U @ Z))

    def test_matches_closed_form(self):
        L = superoperator(self.ch).matrix
        decomp = peripheral_decomposition(L)
        z = np.exp(2j * self.theta)
        assert decomp.lambdas == pytest.approx([1.0, z, np.conj(z)], abs=1e-12)
        for lam, P in zip(decomp.lambdas, decomp.projectors):
            if abs(lam - 1) < 1e-8:
                cells = [(0, 0), (1, 1), (2, 2)]
            else:
                cells = [(0, 2)] if abs(lam - np.conj(z)) < 1e-8 else [(2, 0)]
            want = np.zeros((9, 9))
            for j, k in cells:
                want[j + 3 * k, j + 3 * k] = 1.0
            assert np.max(np.abs(P - want)) <= 1e-12
        rho = abs(2 * self.p - 1)
        assert decomp.stable_spectral_radius == pytest.approx(rho, rel=1e-12)
        X = np.arange(9).reshape(3, 3) + 1j * np.ones((3, 3))
        for n in (1, 5, 40):
            want = apply_n(self.ch, X, n)
            assert np.allclose(reconstruct_iterate(decomp, n, X), want, atol=1e-12)

    def test_unpaired_peripheral_eigenvalue_rejected(self, monkeypatch):
        clusters = ergodic._peripheral_clusters
        monkeypatch.setattr(
            ergodic, "_peripheral_clusters",
            lambda *args: [z for z in clusters(*args) if z.imag >= 0],
        )
        with pytest.raises(DecompositionFailureError, match="conjugate"):
            peripheral_decomposition(superoperator(self.ch))


class TestNonHermiticityPreserving:
    """X -> A X with a complex, non-Hermitian A: L = I kron A does not
    preserve Hermiticity, so it is analysed in complex arithmetic."""

    b, c = 0.3 + 0.2j, 0.5j
    A = np.array([[1.0, b], [0.0, c]])
    P_A = np.array([[1.0, b / (1.0 - c)], [0.0, 0.0]])  # spectral projector at 1

    def test_stays_complex_and_matches_closed_form(self, monkeypatch):
        I = np.eye(2)
        L = np.kron(I, self.A)
        assert not linalg.is_hermiticity_preserving(L)
        seen = []
        orig = np.linalg.eigvals
        monkeypatch.setattr(
            np.linalg, "eigvals", lambda a: seen.append(np.array(a)) or orig(a)
        )
        monkeypatch.delattr(np.linalg, "eig")
        decomp = peripheral_decomposition(L)
        # one eigen-analysis of L, then rho(S), both complex
        assert [a.dtype for a in seen] == [np.complex128] * 2
        assert np.array_equal(seen[0], L)
        assert decomp.lambdas == pytest.approx([1.0])
        assert np.allclose(decomp.projectors[0], np.kron(I, self.P_A), atol=1e-12)
        S_A = self.A - self.P_A
        assert np.allclose(decomp.stable, np.kron(I, S_A), atol=1e-12)
        assert decomp.stable_spectral_radius == pytest.approx(abs(self.c), rel=1e-12)

        fit = decay_fit(decomp, 10)  # S^k = c^(k-1) S
        norm = np.linalg.norm(S_A, 2)
        want = [abs(self.c) ** (k - 1) * norm for k in range(1, 11)]
        assert np.allclose(fit.norms, want, rtol=1e-12)

        X = np.array([[1.0, 2.0 - 1j], [0.5j, -1.0]])
        for n in (1, 3, 20):
            want = np.linalg.matrix_power(self.A, n) @ X
            assert np.allclose(reconstruct_iterate(decomp, n, X), want, atol=1e-12)

    def test_power_iterate_in_complex_arithmetic(self):
        # A^n = P_A + c^n (I - P_A), against the closed form and the
        # per-step loop Y -> A Y
        L = np.kron(np.eye(2), self.A)
        X = np.array([[1.0, 2.0 - 1j], [0.5j, -1.0]])
        Q = np.eye(2) - self.P_A
        step, done = X, 0
        for n in (1, 2, 3, 5, 64, 1000, 10000):
            for _ in range(n - done):
                step = self.A @ step
            done = n
            got = power_iterate(L, n, X)
            bound = ergodic.POWER_DRIFT * n * 2 * 2.0**-53 * linalg.hs_norm(X)
            assert linalg.hs_norm(got - step) <= bound
            closed = (self.P_A + self.c**n * Q) @ X
            assert linalg.hs_norm(got - closed) <= bound


class TestDecayFit:
    def test_zero_stable(self):
        fit = decay_fit(np.zeros((4, 4)), 10)
        assert fit.M == 0.0
        assert fit.epsilon == pytest.approx(1e-3)

    @pytest.mark.parametrize("p", [0.25, 0.4, 0.9])
    def test_pauli_norms_exact(self, p):
        decomp = peripheral_decomposition(superoperator(pauli_xy_channel(p)))
        fit = decay_fit(decomp.stable, 20)
        for k, norm in enumerate(fit.norms):
            assert norm == pytest.approx(abs(1 - 2 * p) ** (k + 1), rel=1e-10, abs=1e-13)

    def test_parity_bound(self):
        decomp = peripheral_decomposition(superoperator(parity_fock_channel(0.3, 8)))
        fit = decay_fit(decomp.stable, 30)
        for k, norm in enumerate(fit.norms):
            assert norm <= 0.4 ** (k + 1) * (1 + 1e-10)

    @pytest.mark.parametrize("ch", CATALOG_CHANNELS, ids=CATALOG_IDS)
    def test_certificate_holds(self, ch):
        decomp = peripheral_decomposition(superoperator(ch))
        fit = decay_fit(decomp.stable, 25)
        for k, norm in enumerate(fit.norms):
            # absolute slack covers the numerically-zero stable part
            assert norm <= fit.M / (1 + fit.epsilon) ** (k + 1) * (1 + 1e-12) + 1e-13

    def test_tiny_rho_does_not_overflow(self):
        # every eigenvalue of pauli-xy at p = 1 - 1e-9 is peripheral, so S
        # is round-off, rho(S) ~ 2e-9, and (1 + eps)^40 ~ 1e348 > max float
        decomp = peripheral_decomposition(superoperator(pauli_xy_channel(1 - 1e-9)))
        rho = decomp.stable_spectral_radius
        assert 1e-13 < rho < 2e-8
        fit = decay_fit(decomp, 40)
        assert fit.epsilon == (1 - 1e-3) / rho - 1
        assert fit.M == pytest.approx(0.999, rel=1e-6)
        for k, norm in enumerate(fit.norms):
            if norm:
                bound = np.log(fit.M) - (k + 1) * np.log1p(fit.epsilon)
                assert np.log(norm) <= bound + 1e-12

    def test_unrepresentable_constant_is_a_numeric_error(self):
        # a 30 x 30 Jordan block at rho = 1e-12: ||S^40|| (1 + eps)^40 ~ 1e357
        S = 1e-12 * np.eye(30) + np.diag(np.ones(29), k=1)
        with pytest.raises(NumericError, match="overflows"):
            decay_fit(S, 40)

    def test_expanding_rejected(self):
        with pytest.raises(DomainError):
            decay_fit(2.0 * np.eye(3), 5)

    def test_certificate_holds_under_transient_growth(self):
        # non-normal: rho(S) = 0.5, yet ||S|| and ||S^2|| exceed 1
        S = np.array([[0.5, 1.0], [0.0, 0.5]])
        fit = decay_fit(S, 40)
        assert min(fit.norms[:2]) > 1.0
        for k, norm in enumerate(fit.norms):
            assert norm <= fit.M / (1 + fit.epsilon) ** (k + 1) * (1 + 1e-12)


BLOCKWISE_CHANNELS = [
    pauli_xy_channel(0.3),
    parity_fock_channel(0.3, 8),
    shift_channel(0.4, 8),
    random_stinespring_channel(7, 3),
]
BLOCKWISE_IDS = ["pauli30", "parity8", "shift8", "random3"]


def assert_norms_match_loop(S, n_max=40, rtol=1e-13):
    got = np.array(decay_fit(S, n_max).norms)
    ref = np.array(decay_norms_loop(S, n_max))
    assert np.all(np.abs(got - ref) <= rtol * np.abs(ref))


class TestDecayFitBlockwise:
    @pytest.mark.parametrize("side", ["forward", "adjoint"])
    @pytest.mark.parametrize("ch", BLOCKWISE_CHANNELS, ids=BLOCKWISE_IDS)
    def test_norms_match_dense_loop(self, ch, side):
        decomp = peripheral_decomposition(superoperator(ch, side))
        assert_norms_match_loop(decomp.stable)

    def test_catalog_stable_parts_split(self):
        # the certificate only gains where S really has several blocks
        for ch in BLOCKWISE_CHANNELS[:3]:
            S = peripheral_decomposition(superoperator(ch)).stable
            assert len(linalg.diagonal_blocks(S)) > 1

    def test_zero(self):
        assert_norms_match_loop(np.zeros((4, 4)))

    def test_transient_growth(self):
        assert_norms_match_loop(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_permuted_blocks_with_jordan_block(self):
        rng = np.random.default_rng(3)
        jordan = 0.6 * np.eye(3) + np.diag([1.0, 1.0], k=1)  # defective
        dense = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        dense *= 0.7 / np.max(np.abs(np.linalg.eigvals(dense)))
        small = np.array([[0.2, 0.3], [-0.1, 0.4]])
        blocks = [jordan, dense, small, np.array([[-0.5]])]
        n = sum(B.shape[0] for B in blocks)
        S = np.zeros((n, n), dtype=complex)
        start = 0
        for B in blocks:
            k = B.shape[0]
            S[start : start + k, start : start + k] = B
            start += k
        perm = rng.permutation(n)
        S = S[np.ix_(perm, perm)]
        assert len(linalg.diagonal_blocks(S)) == 4
        assert_norms_match_loop(S)
        fit = decay_fit(S, 40)
        assert fit.epsilon == pytest.approx((1 - 1e-3) / 0.7 - 1, rel=1e-12)

    def test_rho_from_blocks_matches_decomposition(self):
        decomp = peripheral_decomposition(superoperator(shift_channel(0.4, 8)))
        from_blocks = decay_fit(decomp.stable, 10)
        stored = decay_fit(decomp, 10)
        assert stored.epsilon == pytest.approx(
            (1 - 1e-3) / decomp.stable_spectral_radius - 1, rel=1e-15
        )
        assert from_blocks.epsilon == pytest.approx(stored.epsilon, rel=1e-12)
        assert from_blocks.norms == stored.norms

    def test_rho_cannot_be_supplied(self):
        # rho(S) only ever comes from S itself, never from the caller
        with pytest.raises(TypeError):
            decay_fit(np.zeros((2, 2)), 10, rho=0.0)

    def test_one_block_is_a_view(self):
        S = peripheral_decomposition(
            superoperator(random_stinespring_channel(8, 3))
        ).stable
        (stack,) = ergodic._block_stacks(S)
        assert stack.shape == (1,) + S.shape
        assert np.shares_memory(stack, S)


def dual_orthogonality_by_eigh(L, tol=1e-8):
    """||P_F P_R||: the orthogonal projectors onto Ker(I - L^H) and
    Rng(I - L), each from a Hermitian eigendecomposition of a Gram
    matrix instead of an SVD."""
    K = np.eye(L.shape[0]) - np.asarray(L)
    w, U = np.linalg.eigh(K @ K.conj().T)  # range of K: the large eigenvalues
    top = max(w[-1], 1e-300)
    R = U[:, w > tol**2 * top]
    F = U[:, w <= tol**2 * top]  # Ker(K^H) = Ker(K K^H)
    return np.linalg.norm((F @ F.conj().T) @ (R @ R.conj().T), 2)


class TestSplitting:
    def test_identity_channel(self):
        rep = splitting_check(superoperator(identity_channel(2)))
        assert rep.fixed_dim == 4
        assert rep.range_dim == 0

    def test_pauli(self):
        rep = splitting_check(superoperator(pauli_xy_channel(0.3)))
        assert (rep.fixed_dim, rep.range_dim) == (1, 3)

    @pytest.mark.parametrize("ch", CATALOG_CHANNELS, ids=CATALOG_IDS)
    def test_rank_nullity(self, ch):
        rep = splitting_check(superoperator(ch))
        assert rep.fixed_dim + rep.range_dim == ch.dim**2
        assert rep.dual_orthogonality_residual <= 1e-8

    @pytest.mark.parametrize(
        "ch",
        CATALOG_CHANNELS
        + [random_stinespring_channel(1, 3), random_stinespring_channel(2, 4)],
        ids=CATALOG_IDS + ["random3", "random4"],
    )
    def test_dual_residual_matches_eigh_projectors(self, ch):
        L = superoperator(ch).matrix
        rep = splitting_check(L)
        want = dual_orthogonality_by_eigh(L)
        assert abs(rep.dual_orthogonality_residual - want) <= 1e-12

    def test_dual_residual_is_the_exact_supremum(self, monkeypatch):
        # tilt one range vector towards the adjoint's fixed point by theta:
        # the largest pairing over unit range vectors is then sin(theta)
        L = superoperator(pauli_xy_channel(0.3)).matrix
        F = linalg.null_space(np.eye(4) - L.conj().T)
        R = linalg.column_space(np.eye(4) - L)
        theta = 1e-3
        tilted = R.copy()
        tilted[:, 1] = np.cos(theta) * R[:, 1] + np.sin(theta) * F[:, 0]
        monkeypatch.setattr(linalg, "column_space", lambda M, tol: tilted)
        rep = splitting_check(L)
        want = np.sin(theta)
        assert rep.dual_orthogonality_residual == pytest.approx(want, rel=1e-12)

    def test_no_sampling_parameters(self):
        with pytest.raises(TypeError):
            splitting_check(superoperator(pauli_xy_channel(0.3)), seed=0)


class TestIntersection:
    @staticmethod
    def diag_unitary_channel(theta, d=2):
        U = np.diag(np.exp(1j * theta * np.arange(d)))
        return KrausChannel(kraus=(U,), label=f"diag-unitary({theta})")

    def test_commuting_pair(self):
        chs = [self.diag_unitary_channel(0.7), self.diag_unitary_channel(1.3)]
        rep = fixed_space_intersection(chs, [0.4, 0.6])
        assert rep.commute_residual <= 1e-12
        assert rep.equal is True

    def test_single_channel(self):
        rep = fixed_space_intersection([pauli_xy_channel(0.3)], [1.0])
        assert rep.equal is True

    def test_non_commuting_pair(self):
        # note sigma_x vs sigma_z conjugations commute as superoperators
        # (the sign cancels in V kron V); Hadamard vs sigma_z do not
        H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        sz = np.diag([1.0, -1.0]).astype(complex)
        chs = [KrausChannel(kraus=(H,)), KrausChannel(kraus=(sz,))]
        rep = fixed_space_intersection(chs, [0.5, 0.5])
        assert rep.commute_residual > 1e-6
        assert rep.equal is None

    def test_bad_weights(self):
        with pytest.raises(DomainError):
            fixed_space_intersection([pauli_xy_channel(0.3)], [0.5])
        with pytest.raises(DomainError):
            fixed_space_intersection(
                [pauli_xy_channel(0.3), pauli_xy_channel(0.4)], [1.5, -0.5]
            )


class TestPeripheralUnitarity:
    def test_pauli_restriction(self):
        L = superoperator(pauli_xy_channel(0.3))
        decomp = peripheral_decomposition(L)
        assert peripheral_unitarity_check(L, decomp) <= 1e-8

    def test_identity_channel(self):
        L = superoperator(identity_channel(2))
        decomp = peripheral_decomposition(L)
        assert peripheral_unitarity_check(L, decomp) <= 1e-12

    def test_parity_restriction(self):
        L = superoperator(parity_fock_channel(0.3, 8))
        decomp = peripheral_decomposition(L)
        assert peripheral_unitarity_check(L, decomp) <= 1e-10

    def test_empty_peripheral_rejected(self):
        L = superoperator(shift_channel(0.5, 8))
        decomp = peripheral_decomposition(L)
        with pytest.raises(DegenerateInputError):
            peripheral_unitarity_check(L, decomp)


class TestHsSymmetry:
    def test_pauli(self):
        rep = hs_fixed_point_symmetry(pauli_xy_channel(0.3))
        assert rep.equal

    def test_unitary_conjugation(self):
        U = np.diag([1.0, np.exp(0.9j)])
        rep = hs_fixed_point_symmetry(KrausChannel(kraus=(U,)))
        assert rep.equal
        assert rep.forward_fixed.dimension == 2  # commutant of a generic diagonal

    def test_shift_both_empty(self):
        rep = hs_fixed_point_symmetry(shift_channel(0.5, 8))
        assert rep.equal
        assert rep.forward_fixed.dimension == 0
        assert rep.adjoint_fixed.dimension == 0


class TestCesaroSpectralAgreement:
    def test_monotone_trend(self):
        L = superoperator(pauli_xy_channel(0.3))
        exp = pauli_decomposition_expected(0.3)
        resid = [
            linalg.operator_norm(cesaro_average(L, 1.0, n) - exp.projectors[0])
            for n in (10**2, 10**3, 10**4)
        ]
        assert resid[0] > resid[1] > resid[2]
        for n, r in zip((10**2, 10**3, 10**4), resid):
            assert r <= 5.0 / n


def ladder_channel(g, d):
    """Amplitude-damping ladder: V0 = diag(1, sqrt(1-g), ...) and
    V1 = sqrt(g) sum_k |k-1><k|.  Its stable part has Jordan blocks
    (the populations form a chain at 1 - g), so its eigenvector matrix
    is numerically singular, while 1 stays semisimple."""
    V0 = np.diag([1.0] + [np.sqrt(1.0 - g)] * (d - 1))
    V1 = np.sqrt(g) * np.eye(d, k=1)
    return KrausChannel(kraus=(V0, V1), label=f"ladder({g}, {d})")


class TestKernelProjectors:
    @pytest.mark.parametrize("side", ["forward", "adjoint"])
    @pytest.mark.parametrize("g", [0.3, 0.7])
    @pytest.mark.parametrize("d", [4, 8])
    def test_ladder_is_accepted(self, d, g, side):
        ch = ladder_channel(g, d)
        decomp = peripheral_decomposition(superoperator(ch, side))
        assert decomp.lambdas == (1.0,)
        assert decomp.stable_spectral_radius == pytest.approx(np.sqrt(1.0 - g), abs=1e-10)
        assert decomp.projector_norm == pytest.approx(np.sqrt(d), abs=1e-10)
        # fixed space span{|0><0|} forward, span{I} on the adjoint side
        want = np.eye(d) / np.sqrt(d) if side == "adjoint" else np.diag(np.eye(d)[0])
        (B,) = decomp.fixed_space.basis
        assert abs(linalg.hs_inner(want, B)) == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(d)
        X = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        for n in (1, 5, 40):
            direct = apply_n(ch, X, n, adjoint=side == "adjoint")
            err = linalg.hs_norm(reconstruct_iterate(decomp, n, X) - direct)
            assert err <= 1e-11 * linalg.hs_norm(X)

    @pytest.mark.parametrize("lam", [1.0, -1.0])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_jordan_block_is_refused(self, lam, dtype):
        J = np.diag([lam, lam, 0.5, 0.2]).astype(dtype)
        J[0, 1] = 1.0  # one 2 x 2 Jordan block at lam
        with pytest.raises(IllConditionedDecompositionError, match="dimension 1") as info:
            peripheral_decomposition(J, cesaro_check_n=0)
        assert "2 eigenvalues" in str(info.value)
        assert info.value.singular_value >= 0.5  # sigma_3 of J - lam, far above the cut
        with pytest.raises(IllConditionedDecompositionError):
            spectral_projectors(J, [lam])

    def test_spectral_projectors_match_the_decomposition(self):
        L = superoperator(parity_fock_channel(0.3, 4))
        decomp = peripheral_decomposition(L)
        (P,) = spectral_projectors(L, decomp.lambdas)
        assert np.array_equal(P, decomp.projectors[0])
        assert decomp.fixed_space.dimension == decomp.projector_ranks[0] == 8
