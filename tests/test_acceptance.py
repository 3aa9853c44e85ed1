"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import contextlib

import numpy as np
import pytest

from ergochan import (
    KrausChannel,
    apply_n,
    cesaro_average,
    decay_fit,
    f_recursion,
    fixed_space,
    fixed_space_intersection,
    hs_fixed_point_symmetry,
    ladder_channel,
    ladder_fixed_projector,
    ladder_stable_radius,
    parity_fock_channel,
    parity_iterate_expected,
    pauli_decomposition_expected,
    pauli_xy_channel,
    peripheral_decomposition,
    peripheral_unitarity_check,
    reconstruct_iterate,
    shift_channel,
    splitting_check,
    superoperator,
    transpose_superoperator,
    verify,
)
from ergochan import linalg
from ergochan.channel import choi_from_superoperator, min_choi_eigenvalue
from ergochan.errors import DecompositionFailureError


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def projection_residual(basis_matrices, target):
    """|| (I - P_span) vec(target) || for an orthonormal matrix basis."""
    Q = np.column_stack([linalg.vec(B) for B in basis_matrices])
    v = linalg.vec(target)
    return float(np.linalg.norm(v - Q @ (Q.conj().T @ v)))


def catalog_channels():
    return [
        pauli_xy_channel(0.25),
        pauli_xy_channel(0.5),
        pauli_xy_channel(0.9),
        shift_channel(0.5, 8),
        parity_fock_channel(0.3, 8),
    ]


def test_criterion_1_pauli_fixed_spaces():
    with criterion("1 pauli fixed spaces"):
        J = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        expected = {
            0.0: [np.eye(2) / np.sqrt(2), J / np.sqrt(2)],
            0.3: [np.eye(2) / np.sqrt(2)],
            0.7: [np.eye(2) / np.sqrt(2)],
            1.0: [np.eye(2) / np.sqrt(2), sx / np.sqrt(2)],
        }
        for p, targets in expected.items():
            fs = fixed_space(superoperator(pauli_xy_channel(p)), 1e-8)
            assert fs.dimension == len(targets), (p, fs.dimension)
            for target in targets:
                assert projection_residual(fs.basis, target) <= 1e-8


def test_criterion_2_pauli_spectral_decomposition():
    with criterion("2 pauli spectral decomposition"):
        for p in (0.25, 0.5, 0.9):
            L = superoperator(pauli_xy_channel(p))
            decomp = peripheral_decomposition(L)
            exp = pauli_decomposition_expected(p)
            lams = sorted(decomp.lambdas, key=lambda z: -z.real)
            assert abs(lams[0] - 1.0) <= 1e-10 and abs(lams[1] + 1.0) <= 1e-10
            paired = sorted(
                zip(decomp.lambdas, decomp.projectors), key=lambda t: -t[0].real
            )
            for (lam, P), Q in zip(paired, exp.projectors):
                assert linalg.operator_norm(P - Q) <= 1e-8
            lam_S = np.real(linalg.eigvals(decomp.stable)[:2])
            assert np.allclose(
                sorted(lam_S), sorted([2 * p - 1, 1 - 2 * p]), atol=1e-10
            )
            fit = decay_fit(decomp.stable, 40)
            for k, norm in enumerate(fit.norms):
                target = abs(1 - 2 * p) ** (k + 1)
                assert norm == pytest.approx(target, rel=1e-10, abs=1e-13)


def test_criterion_3_parity_fock():
    with criterion("3 parity Fock channel"):
        p, d = 0.3, 8
        ch = parity_fock_channel(p, d)
        L = superoperator(ch)
        decomp = peripheral_decomposition(L)
        assert len(decomp.lambdas) == 1
        assert abs(decomp.lambdas[0] - 1.0) <= 1e-10
        assert decomp.projector_ranks == (32,)
        rng = np.random.default_rng(0)
        for n in (1, 5, 50):
            X = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
            oracle = parity_iterate_expected(p, d, n, X)
            assert np.linalg.norm(oracle - apply_n(ch, X, n)) <= 1e-9
            assert np.linalg.norm(oracle - reconstruct_iterate(decomp, n, X)) <= 1e-9
        fit = decay_fit(decomp.stable, 40)
        for k, norm in enumerate(fit.norms):
            assert norm <= 0.4 ** (k + 1) * (1 + 1e-10)


def test_criterion_4_shift_channel():
    with criterion("4 shift channel"):
        ch = shift_channel(0.5, 16)
        assert verify(ch).all_ok
        assert fixed_space(superoperator(ch), 1e-8).dimension == 0
        from fractions import Fraction

        from ergochan import f_recursion_exact

        for p_text in ("0.2", "0.5", "0.8"):
            q = Fraction(p_text)
            p = float(q)
            for i in range(2, 21):
                # exact rationals: the float subtraction cancels ~13
                # digits at i = 20, far past the 1e-9 requirement
                lhs = f_recursion_exact(i + 1, q) / q**i - f_recursion_exact(
                    i, q
                ) / q ** (i - 1)
                rhs = ((1 - q) / q) ** i
                assert abs(float(lhs - rhs)) <= 1e-9 * float(rhs)
                assert f_recursion(i, p) / p ** (i - 1) > 1.0


def test_criterion_5_structural_invariants():
    with criterion("5 structural invariants on catalog"):
        rng = np.random.default_rng(0)
        for ch in catalog_channels():
            d = ch.dim
            L = superoperator(ch)
            M = L.matrix
            decomp = peripheral_decomposition(L)
            for i, (lam, P) in enumerate(zip(decomp.lambdas, decomp.projectors)):
                assert linalg.operator_norm(P @ P - P) <= 1e-8
                assert linalg.operator_norm(M @ P - lam * P) <= 1e-8
                assert linalg.operator_norm(P @ M - lam * P) <= 1e-8
                for Q in decomp.projectors[i + 1 :]:
                    assert linalg.operator_norm(P @ Q) <= 1e-8
            rep = splitting_check(L)
            assert rep.fixed_dim + rep.range_dim == d * d
            for _ in range(10):
                X = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
                A = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
                from ergochan import apply, apply_adjoint

                resid = abs(
                    np.trace(apply(ch, X) @ A) - np.trace(X @ apply_adjoint(ch, A))
                )
                assert resid <= 1e-11 * np.linalg.norm(X, "nuc") * linalg.operator_norm(A)
                assert np.linalg.norm(apply(ch, X), "nuc") <= np.linalg.norm(X, "nuc") * (
                    1 + 1e-10
                )
                assert linalg.operator_norm(
                    apply_adjoint(ch, A)
                ) <= linalg.operator_norm(A) * (1 + 1e-10)
            assert hs_fixed_point_symmetry(ch).equal
            trace_preserving = np.allclose(
                sum(V.conj().T @ V for V in ch.kraus), np.eye(d)
            )
            if trace_preserving and decomp.lambdas:
                assert peripheral_unitarity_check(decomp) <= 1e-8


def test_criterion_6_cesaro_convergence():
    with criterion("6 Cesaro convergence"):
        L = superoperator(pauli_xy_channel(0.3))
        exp = pauli_decomposition_expected(0.3)
        for lam, P in zip(exp.lambdas, exp.projectors):
            resid = [
                linalg.operator_norm(cesaro_average(L, lam, n) - P)
                for n in (10**2, 10**3, 10**4)
            ]
            assert resid[0] > resid[1] > resid[2]
            for n, r in zip((10**2, 10**3, 10**4), resid):
                assert r <= 5.0 / n


def test_criterion_7_commuting_convex_combination():
    with criterion("7 commuting convex combination"):
        U = np.diag([1.0, np.exp(1j * 0.7)])
        V = np.diag([1.0, np.exp(1j * 1.9)])
        commuting = [KrausChannel(kraus=(U,)), KrausChannel(kraus=(V,))]
        rep = fixed_space_intersection(commuting, [0.4, 0.6])
        assert rep.equal is True
        assert rep.projection_residual <= 1e-8

        # Pauli conjugations commute as superoperators (signs cancel in
        # V kron V); Hadamard vs sigma_z conjugation genuinely do not
        H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
        sz = np.diag([1.0, -1.0]).astype(complex)
        noncommuting = [KrausChannel(kraus=(H,)), KrausChannel(kraus=(sz,))]
        rep2 = fixed_space_intersection(noncommuting, [0.4, 0.6])
        assert rep2.commute_residual > 0.0
        assert rep2.equal is None


def test_criterion_8_negative_controls():
    with criterion("8 negative controls"):
        T = transpose_superoperator(2)
        lam_min = min_choi_eigenvalue(choi_from_superoperator(T.matrix))
        assert lam_min == pytest.approx(-1.0, abs=1e-10)

        rep = verify(KrausChannel(kraus=(np.sqrt(2) * np.eye(2),)))
        assert not rep.trace_nonincreasing_ok
        assert rep.max_kraus_sum_eigenvalue == pytest.approx(2.0, abs=1e-12)


def ladder_acceptance(g, d, side):
    ch = ladder_channel(g, d)
    decomp = peripheral_decomposition(superoperator(ch, side))
    # the sector path: the populations and each gap of coherences
    assert sum(len(idx) for idx in decomp.layout.index) > 1
    assert decomp.lambdas == (1.0,)
    P = ladder_fixed_projector(d)
    P = P if side == "forward" else P.conj().T
    assert np.max(np.abs(decomp.projectors[0] - P)) <= 1e-10
    rho = ladder_stable_radius(g)
    assert decomp.stable_spectral_radius == pytest.approx(rho, abs=1e-10)
    (B,) = decomp.fixed_space.basis
    want = np.diag(np.eye(d)[0]) if side == "forward" else np.eye(d) / np.sqrt(d)
    assert abs(np.vdot(want, B)) == pytest.approx(1.0, abs=1e-12)
    # the population sector of S (the block of E_00) is one Jordan chain:
    # eigenvalues 0 and d - 1 times 1 - g, but B - (1 - g) has rank d - 1
    [(j, b)] = [
        (j, b)
        for j, idx in enumerate(decomp.layout.index)
        for b, rows in enumerate(idx)
        if rows[0] == 0
    ]
    S0 = decomp.stable_blocks[j][b]
    assert S0.shape == (d, d)
    assert np.trace(S0) == pytest.approx((d - 1) * (1 - g), abs=1e-12)
    s = np.linalg.svd(S0 - (1 - g) * np.eye(d), compute_uv=False)
    assert np.sum(s > 1e-8) == d - 1
    rng = np.random.default_rng(d)
    X = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
    for n in (1, 5, 40):
        direct = apply_n(ch, X, n, adjoint=side == "adjoint")
        err = linalg.hs_norm(reconstruct_iterate(decomp, n, X) - direct)
        assert err <= 1e-11 * linalg.hs_norm(X)


@pytest.mark.parametrize("side", ["forward", "adjoint"])
@pytest.mark.parametrize("d", [4, 8, 16])
def test_criterion_9_ladder(d, side):
    with criterion(f"9 ladder d={d} {side}"):
        ladder_acceptance(0.7, d, side)


@pytest.mark.xfail(
    raises=DecompositionFailureError,
    strict=True,
    reason="known defect: the Cesaro budget ignores the spectral gap, so the "
    "residual 1.18e-2 exceeds 5.42e-3 at n = 10^4 (gap-aware budget pending)",
)
def test_criterion_9_ladder_slow_damping_d16():
    ladder_acceptance(0.3, 16, "forward")
