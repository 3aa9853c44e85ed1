import math

import numpy as np
import pytest

from ergochan import (
    apply_n,
    f_recursion,
    ladder_channel,
    ladder_fixed_projector,
    ladder_stable_radius,
    parity_fock_channel,
    parity_iterate_expected,
    pauli_decomposition_expected,
    pauli_xy_channel,
    peripheral_decomposition,
    reconstruct_iterate,
    shift_channel,
    superoperator,
    verify,
)
from ergochan import catalog, linalg
from ergochan.catalog import build
from ergochan.errors import CatalogLookupError, DomainError
from helpers import basis_columns


class TestPauliBuilder:
    def test_p_half_stable_vanishes(self):
        decomp = peripheral_decomposition(superoperator(pauli_xy_channel(0.5)))
        assert np.linalg.norm(decomp.stable) < 1e-12

    def test_p_out_of_range(self):
        with pytest.raises(DomainError):
            pauli_xy_channel(1.5)

    def test_fixed_space_cases(self):
        # p=0: span{I, [[0,-1],[1,0]]}; p=1: span{I, sigma_x}
        from ergochan import fixed_space

        fs0 = fixed_space(superoperator(pauli_xy_channel(0.0)))
        fs1 = fixed_space(superoperator(pauli_xy_channel(1.0)))
        assert fs0.dimension == 2 and fs1.dimension == 2
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        Q1 = basis_columns(fs1)
        v = linalg.vec(sx / np.sqrt(2))
        assert np.linalg.norm(v - Q1 @ (Q1.conj().T @ v)) < 1e-8


class TestShiftBuilder:
    def test_kraus_sum_d2(self):
        ks = np.zeros((2, 2), dtype=complex)
        for V in shift_channel(0.5, 2).kraus:
            ks += V.conj().T @ V
        assert np.allclose(ks, np.diag([0.5, 0.5]))

    @pytest.mark.parametrize("d", [2, 4, 16])
    def test_passes_verification(self, d):
        assert verify(shift_channel(0.5, d)).all_ok

    def test_fixed_space_empty_d16(self):
        from ergochan import fixed_space

        assert fixed_space(superoperator(shift_channel(0.5, 16)), 1e-8).dimension == 0

    def test_param_validation(self):
        with pytest.raises(DomainError):
            shift_channel(0.0, 4)
        with pytest.raises(DomainError):
            shift_channel(0.5, 1)


class TestFRecursion:
    def test_f2_constant(self):
        for p in (0.1, 0.5, 0.9):
            assert f_recursion(2, p) == pytest.approx(1.0)

    def test_f3_polynomial(self):
        for p in (0.2, 0.5, 0.8):
            assert f_recursion(3, p) == pytest.approx(1 - p + p * p)

    @pytest.mark.parametrize("p", ["0.2", "0.5", "0.8"])
    def test_telescoping_identity(self, p):
        # evaluated in exact rationals: the float difference cancels
        # ~13 digits at i = 20 and cannot meet 1e-9 in double precision
        from fractions import Fraction

        from ergochan import f_recursion_exact

        q = Fraction(p)
        for i in range(2, 21):
            lhs = f_recursion_exact(i + 1, q) / q**i - f_recursion_exact(i, q) / q ** (
                i - 1
            )
            rhs = ((1 - q) / q) ** i
            assert abs(float(lhs - rhs)) <= 1e-9 * float(rhs)

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_ratio_exceeds_one(self, p):
        for i in range(2, 21):
            assert f_recursion(i, p) / p ** (i - 1) > 1.0

    def test_large_index_no_overflow(self):
        assert np.isfinite(f_recursion(64, 0.5))

    def test_index_validation(self):
        with pytest.raises(DomainError):
            f_recursion(0, 0.5)

    def test_index_not_an_integer(self):
        with pytest.raises(DomainError, match="^index must be an integer, got 2.5$"):
            f_recursion(2.5, 0.5)


class TestParityBuilder:
    def test_d2_is_phase_flip(self):
        L = superoperator(parity_fock_channel(0.3, 2))
        decomp = peripheral_decomposition(L)
        assert len(decomp.lambdas) == 1
        assert decomp.lambdas[0] == pytest.approx(1.0, abs=1e-10)
        assert decomp.projector_ranks == (2,)  # diagonal matrices

    def test_trace_preserving(self):
        ch = parity_fock_channel(0.7, 6)
        ks = sum(V.conj().T @ V for V in ch.kraus)
        assert np.allclose(ks, np.eye(6))

    def test_superoperator_eigenvalues_d8(self):
        lam = linalg.eigvals(superoperator(parity_fock_channel(0.3, 8)))
        ones = np.sum(np.abs(lam - 1.0) < 1e-10)
        rest = np.sum(np.abs(lam + 0.4) < 1e-10)
        assert ones == 32 and rest == 32


class TestParityOracle:
    def test_n0_identity(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.allclose(parity_iterate_expected(0.3, 4, 0, X), X)

    def test_count_not_an_integer(self):
        with pytest.raises(DomainError, match="^n must be an integer, got 2.5$"):
            parity_iterate_expected(0.3, 2, 2.5, np.ones((2, 2)))

    def test_negative_count(self):
        with pytest.raises(DomainError, match="^n must be >= 0, got -1$"):
            parity_iterate_expected(0.3, 2, -1, np.ones((2, 2)))

    def test_p_half_kills_odd_gaps(self):
        X = np.ones((4, 4), dtype=complex)
        out = parity_iterate_expected(0.5, 4, 1, X)
        gaps = np.subtract.outer(np.arange(4), np.arange(4))
        assert np.all(out[gaps % 2 == 1] == 0)
        assert np.all(out[gaps % 2 == 0] == 1)

    @pytest.mark.parametrize("n", [1, 5, 50])
    def test_three_way_agreement(self, n):
        p, d = 0.3, 8
        ch = parity_fock_channel(p, d)
        decomp = peripheral_decomposition(superoperator(ch))
        rng = np.random.default_rng(n)
        X = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        oracle = parity_iterate_expected(p, d, n, X)
        direct = apply_n(ch, X, n)
        recon = reconstruct_iterate(decomp, n, X)
        assert np.linalg.norm(oracle - direct) <= 1e-9
        assert np.linalg.norm(oracle - recon) <= 1e-9


class TestLadderBuilder:
    def test_kraus_operators(self):
        g, d = 0.3, 4
        V0, V1 = ladder_channel(g, d).kraus
        assert np.allclose(V0, np.diag([1.0] + [np.sqrt(1 - g)] * (d - 1)))
        for k in range(1, d):  # |k> -> sqrt(g) |k-1>
            assert np.allclose(V1[:, k], np.sqrt(g) * np.eye(d)[k - 1])
        assert np.allclose(V1[:, 0], 0.0)

    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_trace_preserving_and_verified(self, d):
        ch = ladder_channel(0.6, d)
        assert np.allclose(sum(V.conj().T @ V for V in ch.kraus), np.eye(d))
        assert verify(ch).all_ok

    @pytest.mark.parametrize("g", [0.0, 1.0, -0.1, 1.5])
    def test_g_out_of_range(self, g):
        with pytest.raises(DomainError, match="g must lie"):
            ladder_channel(g, 4)
        with pytest.raises(DomainError, match="g must lie"):
            ladder_stable_radius(g)

    def test_dim_validated(self):
        with pytest.raises(DomainError, match="dim"):
            ladder_channel(0.5, 1)
        with pytest.raises(DomainError, match="dim"):
            build("ladder", {"g": 0.5, "dim": 4.5})

    @pytest.mark.parametrize("g", ["0.5", True, None, 0.5 + 0j])
    def test_non_real_g_rejected(self, g):
        with pytest.raises(DomainError, match="g must be a real number"):
            build("ladder", {"g": g, "dim": 4})

    def test_built_through_the_registry(self):
        ch = build("ladder", {"g": 0.25, "dim": 6.0})
        assert ch.dim == 6
        assert np.array_equal(ch.kraus[1], ladder_channel(0.25, 6).kraus[1])

    @pytest.mark.parametrize("d", [2, 4, 7])
    def test_closed_forms_against_brute_force(self, d):
        g = 0.4
        ch = ladder_channel(g, d)
        P = ladder_fixed_projector(d)
        rng = np.random.default_rng(d)
        X = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        want = np.trace(X) * np.diag(np.eye(d)[0])
        assert np.allclose(linalg.unvec(P @ linalg.vec(X), d), want, atol=1e-15)
        # phi^n -> P_1 at rate rho(S)^n, up to the polynomial prefactor
        # of the Jordan chains and round-off
        n = 30
        gap = linalg.hs_norm(apply_n(ch, X, n) - want)
        assert gap <= n**d * ladder_stable_radius(g) ** n * linalg.hs_norm(X) + 1e-14
        L = superoperator(ch)
        assert linalg.spectral_radius(L - P) == pytest.approx(np.sqrt(1 - g), abs=1e-10)


class TestPauliExpected:
    def test_matches_computed_decomposition(self):
        p = 0.3
        exp = pauli_decomposition_expected(p)
        decomp = peripheral_decomposition(superoperator(pauli_xy_channel(p)))
        assert np.allclose(sorted(decomp.lambdas, key=lambda z: -z.real), exp.lambdas, atol=1e-10)
        for P, Q in zip(decomp.projectors, exp.projectors):
            assert linalg.operator_norm(P - Q) <= 1e-8
        assert linalg.operator_norm(decomp.stable - exp.stable) <= 1e-8

    def test_stable_norm(self):
        for p in (0.25, 0.7):
            exp = pauli_decomposition_expected(p)
            assert linalg.operator_norm(exp.stable) == pytest.approx(abs(1 - 2 * p))

    def test_basis_hs_orthonormal(self):
        exp = pauli_decomposition_expected(0.4)
        for i, Xi in enumerate(exp.basis):
            for j, Xj in enumerate(exp.basis):
                assert np.vdot(Xi, Xj) == pytest.approx(float(i == j), abs=1e-14)

    def test_p025_stable_eigenvalues(self):
        exp = pauli_decomposition_expected(0.25)
        assert sorted(exp.stable_eigenvalues) == [-0.5, 0.5]


class TestRegistry:
    def test_all_builders_pass_verify(self):
        for entry, params in [
            ("pauli-xy", {"p": 0.3}),
            ("shift", {"p": 0.5, "dim": 8}),
            ("parity-fock", {"p": 0.25, "dim": 8}),
        ]:
            assert verify(build(entry, params)).all_ok

    def test_unknown_entry(self):
        with pytest.raises(CatalogLookupError):
            build("amplitude-damping", {"p": 0.1})

    def test_param_schema_enforced(self):
        with pytest.raises(DomainError):
            build("pauli-xy", {"p": 0.3, "dim": 2})
        with pytest.raises(DomainError):
            build("shift", {"p": 0.3})

    def test_integral_float_dim_accepted(self):
        # what ``--param dim=8`` parses to
        assert build("shift", {"p": 0.5, "dim": 8.0}).dim == 8

    @pytest.mark.parametrize("dim", [8.7, True, float("nan")])
    def test_non_integral_dim_rejected(self, dim):
        with pytest.raises(DomainError, match="dim"):
            build("parity-fock", {"p": 0.3, "dim": dim})

    @pytest.mark.parametrize("p", ["0.5", True, None, 0.5 + 0j])
    def test_non_real_p_rejected(self, p):
        with pytest.raises(DomainError, match="p must be a real number"):
            build("pauli-xy", {"p": p})


@pytest.mark.parametrize("entry, params", [
    ("shift", {"p": 0.5}), ("parity-fock", {"p": 0.5}), ("ladder", {"g": 0.5})
])
def test_dim_numpy_cannot_address_is_refused(entry, params):
    with pytest.raises(DomainError, match=f"^dim = {int(1e30)} is too large"):
        build(entry, {**params, "dim": 1e30})


def test_dim_bound_is_numpy_addressable_size():
    # the largest dim whose complex dim x dim matrix numpy can address
    # passes, the next is refused; the check allocates nothing
    top = math.isqrt(np.iinfo(np.intp).max // 16)
    catalog._check_dim(top)
    with pytest.raises(DomainError, match=f"^dim = {top + 1} is too large"):
        catalog._check_dim(top + 1)
