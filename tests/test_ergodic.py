import dataclasses
import math
import re

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
    transpose_superoperator,
)
from ergochan import catalog, ergodic, io, linalg
from ergochan import channel as channel_mod
from ergochan.channel import ADJOINT, FORWARD
from ergochan.errors import (
    DecompositionFailureError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    ErgochanError,
    IllConditionedDecompositionError,
    NumericError,
    SplittingViolationError,
)
import corpus
from corpus import identity_channel
from helpers import (assert_bits, assert_same_layout, assert_same_routes, count_linalg_calls,
                     kron_sum, on_side, stinespring_channel, whole_sectors)


def power_drift_bound(n, X):
    """The documented error bound of power_iterate for a d x d input X."""
    return ergodic.POWER_DRIFT * n * X.shape[0] * 2.0**-53 * linalg.hs_norm(X)


def block_count(layout):
    """Number of exact diagonal blocks a BlockLayout holds."""
    return sum(len(idx) for idx in layout.index)


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


def form_map(R):
    """The Hermiticity-preserving map, in column stacking, whose Hermitian
    form is the real matrix R zero-padded to the next size d^2."""
    n = len(R)
    d = math.isqrt(n - 1) + 1
    padded = np.zeros((d * d, d * d), dtype=R.dtype)
    padded[:n, :n] = R
    return linalg.from_hermitian_basis(padded)


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
    @pytest.mark.parametrize("ch", corpus.params("catalog"))
    def test_doubling_equals_loop(self, ch, lam, n):
        L = superoperator(ch)
        ref = cesaro_loop(L, lam, n)
        assert np.max(np.abs(cesaro_average(L, lam, n) - ref)) <= 1e-13


def span_projector(fs, n):
    """Q Q^H, n x n, for the vectorized basis Q of a FixedSpaceBasis."""
    Q = np.column_stack([linalg.vec(B) for B in fs.basis] or [np.zeros((n, 0))])
    return Q @ Q.conj().T


def assert_fixed_orthonormal_basis(fs, channels, adjoint=False):
    """Every matrix of ``fs`` is fixed by each channel (by its adjoint
    when ``adjoint``), and the matrices are orthonormal, within 1e-10."""
    Q = np.column_stack([linalg.vec(B) for B in fs.basis])
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(fs.dimension), 2) <= 1e-10
    for B in fs.basis:
        for ch in channels:
            assert linalg.hs_norm(apply_n(ch, B, 1, adjoint=adjoint) - B) <= 1e-10


def phase_channel(theta, W=np.eye(3)):
    """X -> U X U^dag with U = W diag(1, 1, e^{i theta}) W^dag: its fixed
    space is W span{E_00, E_01, E_10, E_11, E_22} W^dag."""
    U = W @ np.diag([1.0, 1.0, np.exp(1j * theta)]) @ W.conj().T
    return KrausChannel(kraus=(U,), label=f"phase({theta})")


# the 3-point DFT: conjugating by it moves the fixed space off the
# matrix units, so that a basis mapped back from the wrong coordinates
# is no longer fixed
DFT3 = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)


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
            assert linalg.hs_norm(linalg.unvec(L @ linalg.vec(B), 4) - B) <= 1e-15
        rep = splitting_check(L, 1e-10)
        assert (rep.fixed_dim, rep.range_dim) == (8, 8)

    def test_orthonormal_gram(self):
        fs = fixed_space(superoperator(parity_fock_channel(0.3, 6)))
        Q = np.column_stack([linalg.vec(B) for B in fs.basis])
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(fs.dimension), 2) < 1e-10

    @pytest.mark.parametrize("ch, side", corpus.params("catalog", "small", sides=True))
    def test_matches_the_decomposition(self, ch, side):
        # at the decomposition's own cut, fixed_space spans the kernel
        # the decomposition takes from L - 1
        L = superoperator(on_side(ch, side))
        tol = ergodic.DEFAULT_CLUSTER_TOL + 10 * ergodic.DEFAULT_PERIPHERAL_TOL
        fs, ref = fixed_space(L, tol), peripheral_decomposition(L).fixed_space
        assert fs.dimension == ref.dimension
        n = L.shape[0]
        assert np.max(np.abs(span_projector(fs, n) - span_projector(ref, n))) <= 1e-12
        for B in fs.basis + ref.basis:
            assert np.array_equal(B, B.conj().T)


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


# Every entry point that takes a superoperator, with its other arguments.
ENTRY_POINTS = {
    "decay_fit": lambda M: decay_fit(M, 10),
    "fixed_space": fixed_space,
    "peripheral_decomposition": peripheral_decomposition,
    "peripheral_spectrum": peripheral_spectrum,
    "power_iterate": lambda M: power_iterate(M, 2, np.eye(3)),
    "spectral_projectors": lambda M: spectral_projectors(M, [1.0]),
    "splitting_check": splitting_check,
    "stable_part": lambda M: stable_part(M, [], []),
}


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

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_non_superoperator_size_is_refused_before_factorising(self, entry, monkeypatch):
        # a 3 x 3 matrix is no superoperator, and X -> A X with a complex A
        # does not preserve Hermiticity: neither has a real Hermitian form,
        # so nothing is factorised
        calls = []
        for name in np.linalg.__all__:
            orig = getattr(np.linalg, name)
            if callable(orig) and name != "LinAlgError":
                monkeypatch.setattr(
                    np.linalg, name,
                    lambda *a, f=orig, n=name, **k: calls.append(n) or f(*a, **k),
                )
        run = ENTRY_POINTS[entry]
        with pytest.raises(DimensionError, match="not a perfect square"):
            run(np.diag([1.0, 0.5, 0.2]))
        A = np.array([[1.0, 0.3 + 0.2j, 0.0], [0.0, 0.5j, 0.1], [0.2, 0.0, -0.4j]])
        with pytest.raises(DomainError, match="does not preserve Hermiticity"):
            run(np.kron(np.eye(3), A))  # X -> A X
        assert calls == []

    @pytest.mark.parametrize("ch, side", corpus.params("catalog", "dense", sides=True))
    def test_projector_algebra(self, ch, side):
        L = superoperator(on_side(ch, side))
        decomp = peripheral_decomposition(L)
        for i, (lam, P) in enumerate(zip(decomp.lambdas, decomp.projectors)):
            assert linalg.operator_norm(P @ P - P) <= 1e-10
            assert linalg.operator_norm(L @ P - lam * P) <= 1e-10
            assert linalg.operator_norm(P @ L - lam * P) <= 1e-10
            assert linalg.operator_norm(P @ decomp.stable) <= 1e-10
            assert linalg.operator_norm(decomp.stable @ P) <= 1e-10
            for Q in decomp.projectors[i + 1 :]:
                assert linalg.operator_norm(P @ Q) <= 1e-10


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
        lam_L = linalg.eigvals(L)
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

    @pytest.mark.parametrize("ch", corpus.params("catalog"))
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

    @pytest.mark.parametrize("side", ["forward", "adjoint"])
    @pytest.mark.parametrize(
        "ch", [shift_channel(0.3, 8), catalog.ladder_channel(0.3, 8)], ids=["shift8", "ladder8"]
    )
    def test_sectors_of_several_sizes_match_apply_n(self, ch, side, monkeypatch):
        # sectors of sizes 1..8; the ladder's population sector is a
        # Jordan chain at 1 - g
        sizes = []
        orig = ergodic._power_apply
        monkeypatch.setattr(
            ergodic, "_power_apply", lambda A, n, V: sizes.append(A.shape[-1]) or orig(A, n, V)
        )
        L = superoperator(on_side(ch, side))
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, (8, 8)) + 1j * rng.uniform(-1, 1, (8, 8))
        for n in (1, 2, 3, 5, 64, 1000, 10000):
            want = apply_n(ch, X, n, adjoint=side == "adjoint")
            assert linalg.hs_norm(power_iterate(L, n, X) - want) <= power_drift_bound(n, X)
        assert len(set(sizes)) > 1 and max(sizes) <= 8  # never a d^2 x d^2 product

    @pytest.mark.parametrize("side", ["forward", "adjoint"])
    @pytest.mark.parametrize(
        "ch", [shift_channel(0.3, 8), catalog.ladder_channel(0.3, 8)], ids=["shift8", "ladder8"]
    )
    def test_decomposition_is_powered_by_its_operator_blocks(self, ch, side):
        # the same bits as from L itself, with the spectral data taken away
        L = superoperator(on_side(ch, side))
        decomp = dataclasses.replace(
            peripheral_decomposition(L, cesaro_check_n=200),
            lambdas=None, projector_blocks=None, stable_blocks=None,
        )
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, (8, 8)) + 1j * rng.uniform(-1, 1, (8, 8))
        for n in (0, 1, 2, 3, 64, 1000, 10**4, 10**6):
            assert np.array_equal(power_iterate(decomp, n, X), power_iterate(L, n, X))

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
    ch = corpus.conjugate_pair_channel(p, theta)

    def test_matches_closed_form(self):
        L = superoperator(self.ch)
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


class TestPeripheralClusters:
    """Single linkage on the folded arguments |arg| in [0, pi]."""

    def test_order_of_the_eigenvalues_does_not_matter(self):
        # a chain 0.9e-7 apart, within cluster_tol link by link but not end
        # to end: the greedy running mean split it or not, by order
        z = np.exp(1j * (0.3 + np.array([0.0, 0.9e-7, 1.8e-7])))
        chain = np.concatenate([z, z.conj(), [1.0, 1.0, -1.0, 0.5]])
        sets = [chain]
        for case in corpus.cases("unitary"):
            _, _, stacks = ergodic._sectors(superoperator(case.channel))
            sets.append(ergodic._eigvals(stacks))
        rng = np.random.default_rng(0)
        for lam in sets:
            want = ergodic._peripheral_clusters(lam, 1e-8, 1e-7)
            for _ in range(20):
                got = ergodic._peripheral_clusters(rng.permutation(lam), 1e-8, 1e-7)
                assert got == want
        want = ergodic._peripheral_clusters(chain, 1e-8, 1e-7)
        c = complex(np.mean(z)) / abs(np.mean(z))
        assert want == [(1.0, 2), (c, 3), (c.conjugate(), 3), (-1.0, 1)]

    def test_clusters_at_zero_and_pi_are_exact(self):
        # within cluster_tol / 2 of 0 or pi a pair links with its mirror
        for t, want in [(0.4e-7, [(1.0, 2)]), (np.pi - 0.4e-7, [(-1.0, 2)])]:
            z = np.exp(1j * t)
            assert ergodic._peripheral_clusters(np.array([z, z.conjugate()]), 1e-8, 1e-7) == want
        z = np.exp(0.6e-7j)
        assert ergodic._peripheral_clusters(np.array([z, z.conjugate()]), 1e-8, 1e-7) == [
            (z, 1), (z.conjugate(), 1)
        ]


class TestProjectorRanks:
    @pytest.mark.parametrize(
        "ch",
        [
            pauli_xy_channel(0.3),
            parity_fock_channel(0.3, 8),
            ladder_channel(0.5, 6),
            stinespring_channel(406, 6, 1),  # a random unitary
        ],
        ids=["pauli", "parity8", "ladder6", "unitary6"],
    )
    def test_ranks_are_the_cluster_sizes(self, ch):
        # the Cesaro check is off: unitary6 is a known Cesaro defect
        decomp = peripheral_decomposition(ch, cesaro_check_n=0)
        clusters = ergodic._peripheral_clusters(
            ergodic._eigvals(decomp.operator_blocks), decomp.peripheral_tol, decomp.cluster_tol
        )
        sizes = tuple(m for _, m in clusters)
        traces = tuple(
            round(sum(float(np.trace(X, axis1=-2, axis2=-1).real.sum()) for X in P))
            for P in decomp.projector_blocks
        )
        assert decomp.projector_ranks == sizes == traces
        assert all(type(m) is int for m in decomp.projector_ranks)
        # read from the clusters, not from the projector blocks
        bare = dataclasses.replace(decomp, projector_blocks=None)
        assert bare.projector_ranks == sizes


def planted_channel(seed, delta):
    """On C^2 (x) C^3: peripheral eigenvalues 1 (twice) and e^{+-i delta},
    once each, so Ker(I - L) has dimension 2."""
    return corpus.planted_channel([0.3, 0.3 + delta], seed, 3)


def planted_outcome(seed, delta, side):
    """"ok" when the planted channel decomposes as its closed form, else
    the error raised or the lambdas, ranks and fixed-space dimension
    found.  Above cluster_tol the closed form is {1: 2, e^{+-i delta}: 1}
    with a fixed space of dimension 2; below it e^{+-i delta} join the
    cluster at 1, of rank 4; at cluster_tol itself either is right."""
    try:
        decomp = peripheral_decomposition(
            superoperator(on_side(planted_channel(seed, delta), side)), cesaro_check_n=0
        )
    except ErgochanError as exc:
        return str(exc)
    z = np.exp(1j * delta)
    split, merged = ({1.0: 2, z: 1, z.conjugate(): 1}, 2), ({1.0: 4}, 4)
    wants = [split] if delta > 1e-7 else [merged] if delta < 1e-7 else [split, merged]
    lambdas, ranks = decomp.lambdas, decomp.projector_ranks
    for want, fixed in wants:
        if (
            len(lambdas) == len(want)
            and set(lambdas) == {lam.conjugate() for lam in lambdas}
            and decomp.fixed_space.dimension == fixed
            and all(
                any(abs(lam - w) <= 1e-12 and rank == r for w, r in want.items())
                for lam, rank in zip(lambdas, ranks)
            )
        ):
            return "ok"
    return f"lambdas {lambdas}, ranks {ranks}, fixed space {decomp.fixed_space.dimension}"


# the phase gaps 10^-k, k = 1..10, on both sides of cluster_tol = 1e-7
DECADE_DELTAS = [float(f"1e-{k}") for k in range(1, 11)]
PLANTED_DELTAS = sorted(
    {3e-8, 5e-8, 7e-8, 1e-7, 1.5e-7, 3e-7, 5e-7, 7e-7, 1e-6, 2e-6, *DECADE_DELTAS}
)


class TestPlantedPhaseGap:
    @pytest.mark.parametrize("side", ["forward", "adjoint"])
    @pytest.mark.parametrize(
        "delta",
        [5e-7, 1e-6, 2e-6, 1e-4, 1e-2, 0.1, 1e-3, 1e-5, 1e-7, 1e-8, 1e-9, 1e-10],
    )
    def test_matches_closed_form(self, delta, side):
        assert planted_outcome(1, delta, side) == "ok"

    def test_gap_of_one_cluster_tol_is_not_blamed_on_peripheral_tol(self):
        assert planted_outcome(1, 1e-7, "forward") == "ok"

    @pytest.mark.parametrize("side", ["forward", "adjoint"])
    @pytest.mark.parametrize("seed", range(1, 31))
    def test_no_incomplete_peripheral_set(self, seed, side):
        outcomes = {delta: planted_outcome(seed, delta, side) for delta in PLANTED_DELTAS}
        assert {delta: out for delta, out in outcomes.items() if out != "ok"} == {}

    # at delta = 2e-7 the eigenvalues e^{+-i delta} are as far from 1 as the
    # kernel tolerance cluster_tol + 10 peripheral_tol
    @pytest.mark.parametrize(
        "seed, side", [(seed, side) for seed in range(1, 31) for side in ("forward", "adjoint")]
    )
    def test_no_incomplete_peripheral_set_at_the_kernel_tolerance(self, seed, side):
        assert planted_outcome(seed, 2e-7, side) == "ok"


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

    # pauli-0.5, identity, replacement and unitary have a round-off stable
    # part: its norms are near 1e-16, not 0, and M must cover them
    @pytest.mark.parametrize("ch", corpus.params("catalog", "small"))
    def test_certificate_holds(self, ch):
        decomp = peripheral_decomposition(superoperator(ch))
        fit = decay_fit(decomp.stable, 25)
        for k, norm in enumerate(fit.norms):
            assert norm <= fit.M / (1 + fit.epsilon) ** (k + 1) * (1 + 1e-12)

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
        S = form_map(1e-12 * np.eye(30) + np.diag(np.ones(29), k=1))
        with pytest.raises(NumericError, match="overflows"):
            decay_fit(S, 40)

    def test_expanding_rejected(self):
        with pytest.raises(DomainError):
            decay_fit(form_map(2.0 * np.eye(3)), 5)

    def test_certificate_holds_under_transient_growth(self):
        # non-normal: rho(S) = 0.5, yet ||S|| and ||S^2|| exceed 1
        S = form_map(np.array([[0.5, 1.0], [0.0, 0.5]]))
        fit = decay_fit(S, 40)
        assert min(fit.norms[:2]) > 1.0
        for k, norm in enumerate(fit.norms):
            assert norm <= fit.M / (1 + fit.epsilon) ** (k + 1) * (1 + 1e-12)


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="ROADMAP item 3")
def test_decay_bound_beyond_the_fitted_range_ladder_d16():
    # M is fitted on n <= 40; the Jordan chains of the ladder's stable part
    # pass M/(1+eps)^n from n = 41 on, 33x at n = 139 (brute-force powers
    # of the blocks of S)
    decomp = peripheral_decomposition(ladder_channel(0.3, 16), cesaro_check_n=0)
    fit = decay_fit(decomp, 40)
    powers = decomp.stable_blocks
    for n in range(1, 201):
        if n > 1:
            powers = [P @ B for P, B in zip(powers, decomp.stable_blocks)]
        norm = max(np.linalg.svd(P, compute_uv=False)[:, 0].max() for P in powers)
        assert norm <= fit.M / (1 + fit.epsilon) ** n * (1 + 1e-12), n


def stable_radius_oracle(decomp):
    """max |eigvals| of the blocks of S: rho(S) by an eigensolve of S."""
    return max(float(np.max(np.abs(np.linalg.eigvals(B)))) for B in decomp.stable_blocks)


class TestStableRadiusFromL:
    """rho(S) is read from the eigenvalues of L by Wielandt deflation."""

    @pytest.mark.parametrize("ch, side", corpus.params("oracle", sides=True))
    def test_matches_the_eigensolve_of_s(self, ch, side):
        decomp = peripheral_decomposition(on_side(ch, side), cesaro_check_n=0)
        want = stable_radius_oracle(decomp)
        assert abs(decomp.stable_spectral_radius - want) <= 1e-13 * want

    def test_round_off_stable_part(self):
        # pauli-xy at p = 1/2: S is round-off, and so are both readings
        decomp = peripheral_decomposition(pauli_xy_channel(0.5))
        assert decomp.stable_spectral_radius <= 4 * np.finfo(float).eps
        assert stable_radius_oracle(decomp) <= 4 * np.finfo(float).eps


def assert_norms_match_loop(S, n_max=40, rtol=1e-13):
    got = np.array(decay_fit(S, n_max).norms)
    ref = np.array(decay_norms_loop(S, n_max))
    assert np.all(np.abs(got - ref) <= rtol * np.abs(ref))


class TestDecayFitBlockwise:
    @pytest.mark.parametrize("ch, side", corpus.params("sparse", "blockwise", "dense", sides=True))
    def test_norms_match_dense_loop(self, ch, side):
        decomp = peripheral_decomposition(superoperator(on_side(ch, side)))
        assert_norms_match_loop(decomp.stable)

    def test_catalog_stable_parts_split(self):
        # the certificate only gains where S really has several blocks
        for id in ("pauli-0.3", "parity-0.3-d8", "shift-0.4-d8"):
            S = peripheral_decomposition(superoperator(corpus.get(id))).stable
            assert len(linalg.support_components(S)[1]) > 1

    def test_zero(self):
        assert_norms_match_loop(np.zeros((4, 4)))

    def test_transient_growth(self):
        assert_norms_match_loop(form_map(np.array([[0.5, 1.0], [0.0, 0.5]])))

    def test_permuted_blocks_with_jordan_block(self):
        rng = np.random.default_rng(3)
        jordan = 0.6 * np.eye(3) + np.diag([1.0, 1.0], k=1)  # defective
        dense = rng.normal(size=(4, 4))
        dense *= 0.7 / np.max(np.abs(np.linalg.eigvals(dense)))
        small = np.array([[0.2, 0.3], [-0.1, 0.4]])
        blocks = [jordan, dense, small, np.array([[-0.5]])]
        n = sum(B.shape[0] for B in blocks)
        R = np.zeros((n, n))
        start = 0
        for B in blocks:
            k = B.shape[0]
            R[start : start + k, start : start + k] = B
            start += k
        perm = rng.permutation(n)
        R = R[np.ix_(perm, perm)]
        assert len(linalg.support_components(R)[1]) == 4
        S = form_map(R)
        # the form of S is R padded with zeros: its blocks and one 1 x 1
        # block per zero row
        _, layout, _ = ergodic._sectors(S)
        assert block_count(layout) == 4 + 16 - n
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

    def test_one_block_is_its_own_stack(self):
        decomp = peripheral_decomposition(superoperator(stinespring_channel(8, 3, 2)))
        assert block_count(decomp.layout) == 1
        (S,) = decomp.stable_blocks
        assert S.shape == (1, 9, 9)  # one stack of one block
        A = linalg.to_hermitian_basis(decomp.stable).real
        _, _, (stack,) = ergodic._sectors(decomp.stable)
        assert np.array_equal(stack[0], A)


class TestSplitting:
    def test_identity_channel(self):
        rep = splitting_check(superoperator(identity_channel(2)))
        assert rep.fixed_dim == 4
        assert rep.range_dim == 0

    def test_pauli(self):
        rep = splitting_check(superoperator(pauli_xy_channel(0.3)))
        assert (rep.fixed_dim, rep.range_dim) == (1, 3)

    @pytest.mark.parametrize("ch, side", corpus.params("catalog", "dense", sides=True))
    def test_rank_nullity(self, ch, side):
        rep = splitting_check(superoperator(on_side(ch, side)))
        assert rep.fixed_dim + rep.range_dim == ch.dim**2

    def test_no_sampling_parameters(self):
        with pytest.raises(TypeError):
            splitting_check(superoperator(pauli_xy_channel(0.3)), seed=0)

    def test_one_factorisation_of_I_minus_L(self, monkeypatch):
        # the kernel, the range and the adjoint's fixed space all come from
        # one SVD per block stack of I - L; the direct-sum residual takes
        # singular values only
        L = superoperator(parity_fock_channel(0.3, 3))
        fixed_dim = fixed_space(L).dimension
        _, layout, stacks = ergodic._sectors(L)
        assert block_count(layout) == 9  # parity-fock is diagonal: 9 blocks of size 1
        calls = []
        orig = linalg.svd
        monkeypatch.setattr(linalg, "svd", lambda M: calls.append(M.shape) or orig(M))
        for name in ("null_space", "column_space"):
            monkeypatch.setattr(linalg, name, None)
        rep = splitting_check(L)
        assert calls == [X.shape for X in stacks]
        assert (rep.fixed_dim, rep.range_dim) == (fixed_dim, 9 - fixed_dim)


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

    @pytest.mark.parametrize("W", [np.eye(3), DFT3], ids=["diagonal", "dft"])
    def test_bases_are_fixed_by_each_part(self, W):
        chs = [phase_channel(0.7, W), phase_channel(1.3, W)]
        rep = fixed_space_intersection(chs, [0.4, 0.6])
        assert rep.equal is True
        for fs in (rep.combined_fixed, rep.intersection):
            assert fs.dimension == 5
            assert_fixed_orthonormal_basis(fs, chs)

    def test_parts_with_different_sectors(self):
        # parity-fock's Hermitian form is diagonal; a diagonal unitary's
        # mixes each pair (E_jk, E_kj) into a 2 x 2 block.  They commute,
        # and the fixed spaces meet in the diagonal matrices
        chs = [parity_fock_channel(0.3, 4), self.diag_unitary_channel(0.7, 4)]
        layouts = [ergodic._sectors(superoperator(ch))[1] for ch in chs]
        assert [max(idx.shape[1] for idx in lay.index) for lay in layouts] == [1, 2]
        rep = fixed_space_intersection(chs, [0.5, 0.5])
        assert rep.equal is True
        for fs in (rep.combined_fixed, rep.intersection):
            assert fs.dimension == 4
            assert_fixed_orthonormal_basis(fs, chs)
            for B in fs.basis:
                assert np.array_equal(B, np.diag(np.diag(B)))

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

    def test_matrices_give_the_channel_report(self):
        chs = [parity_fock_channel(0.3, 6), parity_fock_channel(0.6, 6)]
        want = fixed_space_intersection(chs, [0.4, 0.6])
        got = fixed_space_intersection([superoperator(ch) for ch in chs], [0.4, 0.6])
        assert want.combined_fixed.dimension == 18
        for fs, fs0 in ((got.combined_fixed, want.combined_fixed),
                        (got.intersection, want.intersection)):
            assert fs.tol == fs0.tol
            for B, B0 in zip(fs.basis, fs0.basis, strict=True):
                assert_bits(B, B0)
        assert (got.equal, got.commute_residual, got.projection_residual) == (
            want.equal, want.commute_residual, want.projection_residual)

    def test_parts_of_different_sizes(self):
        chs = [parity_fock_channel(0.3, 3), parity_fock_channel(0.3, 4)]
        with pytest.raises(DimensionError, match=r"^channels of different dimensions: \[3, 4\]$"):
            fixed_space_intersection(chs, [0.5, 0.5])
        mats = [superoperator(ch) for ch in chs]
        sizes = r"^maps of different sizes: \[\(9, 9\), \(16, 16\)\]$"
        with pytest.raises(DimensionError, match=sizes):
            fixed_space_intersection(mats, [0.5, 0.5])


class TestPeripheralUnitarity:
    def test_pauli_restriction(self):
        L = superoperator(pauli_xy_channel(0.3))
        decomp = peripheral_decomposition(L)
        assert peripheral_unitarity_check(decomp) <= 1e-8

    def test_identity_channel(self):
        L = superoperator(identity_channel(2))
        decomp = peripheral_decomposition(L)
        assert peripheral_unitarity_check(decomp) <= 1e-12

    def test_parity_restriction(self):
        L = superoperator(parity_fock_channel(0.3, 8))
        decomp = peripheral_decomposition(L)
        assert peripheral_unitarity_check(decomp) <= 1e-10

    def test_empty_peripheral_rejected(self):
        L = superoperator(shift_channel(0.5, 8))
        decomp = peripheral_decomposition(L)
        with pytest.raises(DegenerateInputError):
            peripheral_unitarity_check(decomp)


class TestHsSymmetry:
    def test_pauli(self):
        rep = hs_fixed_point_symmetry(pauli_xy_channel(0.3))
        assert rep.equal

    def test_unitary_conjugation(self):
        U = np.diag([1.0, np.exp(0.9j)])
        rep = hs_fixed_point_symmetry(KrausChannel(kraus=(U,)))
        assert rep.equal
        assert rep.forward_fixed.dimension == 2  # commutant of a generic diagonal

    @pytest.mark.parametrize("W", [np.eye(3), DFT3], ids=["diagonal", "dft"])
    def test_bases_are_fixed(self, W):
        ch = phase_channel(0.9, W)
        rep = hs_fixed_point_symmetry(ch)
        assert rep.equal
        assert (rep.forward_fixed.dimension, rep.adjoint_fixed.dimension) == (5, 5)
        assert_fixed_orthonormal_basis(rep.forward_fixed, [ch])
        assert_fixed_orthonormal_basis(rep.adjoint_fixed, [ch], adjoint=True)

    def test_shift_both_empty(self):
        rep = hs_fixed_point_symmetry(shift_channel(0.5, 8))
        assert rep.equal
        assert rep.forward_fixed.dimension == 0
        assert rep.adjoint_fixed.dimension == 0


def dense_fixed_columns(L, tol=linalg.DEFAULT_TOL):
    """Oracle: orthonormal basis of Ker(I - L) in column stacking, from
    one SVD of the whole matrix at the rank cut tol * max(1, sigma_max)."""
    return dense_null_space(np.eye(len(L)) - L, tol)


def dense_null_space(M, tol=linalg.DEFAULT_TOL):
    _, s, Vh = np.linalg.svd(M)
    rank = int(np.sum(s >= tol * max(1.0, s[0])))
    return Vh[rank:].conj().T


def dense_span_residual(Qa, Qb):
    """Oracle: max over both directions of ||(I - P_other) Q|| for dense
    orthonormal bases; 1 for different dimensions, 0 for two empty ones."""
    if Qa.shape[1] != Qb.shape[1]:
        return 1.0
    if Qa.shape[1] == 0:
        return 0.0
    return max(
        np.linalg.norm(Qa - Qb @ (Qb.conj().T @ Qa), 2),
        np.linalg.norm(Qb - Qa @ (Qa.conj().T @ Qb), 2),
    )


def basis_columns(fs, n):
    """The vectorized basis matrices of ``fs`` as the columns of n rows."""
    return np.column_stack([linalg.vec(B) for B in fs.basis] or [np.zeros((n, 0))])


def joined_unitarity(decomp, L):
    """Oracle: the check on the whole matrices, with one SVD of the
    summed dense projector and one of Q^H L Q."""
    P = sum(decomp.projectors)
    Q = np.linalg.svd(P)[0][:, : sum(decomp.projector_ranks)]
    s = np.linalg.svd(Q.conj().T @ L @ Q, compute_uv=False)
    return float(np.max(np.abs(s - 1.0)))


class TestFixedPointChecksAgainstDenseOracles:
    """The three checks run on the blocks of the Hermitian forms; the
    oracles run on the whole matrices in column stacking."""

    TOL = linalg.DEFAULT_TOL

    @pytest.mark.parametrize("ch, _", corpus.params("pairs", partner=True))
    def test_hs_fixed_point_symmetry(self, ch, _):
        Lf = superoperator(ch)
        La = superoperator(on_side(ch, ADJOINT))
        Qf, Qa = dense_fixed_columns(Lf), dense_fixed_columns(La)
        resid = dense_span_residual(Qf, Qa)
        rep = hs_fixed_point_symmetry(ch)
        assert rep.forward_fixed.dimension == Qf.shape[1]
        assert rep.adjoint_fixed.dimension == Qa.shape[1]
        assert rep.equal == (Qf.shape[1] == Qa.shape[1] and resid <= self.TOL)
        assert abs(rep.projection_residual - resid) <= 1e-12
        n = len(Lf)
        assert dense_span_residual(basis_columns(rep.forward_fixed, n), Qf) <= 1e-12
        assert dense_span_residual(basis_columns(rep.adjoint_fixed, n), Qa) <= 1e-12
        if rep.adjoint_fixed.dimension:
            assert_fixed_orthonormal_basis(rep.adjoint_fixed, [ch], adjoint=True)

    def assert_intersection(self, channels, weights, stacked):
        """fixed_space_intersection against the dense oracles, where the
        kernel of ``stacked(Ls, n)`` is the intersection of the fixed
        spaces of the superoperators Ls; returns its dimension."""
        Ls = [superoperator(c) for c in channels]
        n = len(Ls[0])
        combined = dense_fixed_columns(sum(w * L for w, L in zip(weights, Ls)))
        intersection = dense_null_space(stacked(Ls, n))
        commute = max(
            np.linalg.norm(A @ B - B @ A, 2) for i, A in enumerate(Ls) for B in Ls[i + 1 :]
        )
        rep = fixed_space_intersection(channels, weights)
        assert rep.combined_fixed.dimension == combined.shape[1]
        assert rep.intersection.dimension == intersection.shape[1]
        assert abs(rep.commute_residual - commute) <= 1e-12
        if commute <= self.TOL:
            resid = dense_span_residual(combined, intersection)
            assert rep.equal == (resid <= self.TOL)
            assert abs(rep.projection_residual - resid) <= 1e-12
        else:
            assert rep.equal is None and rep.projection_residual is None
        assert dense_span_residual(basis_columns(rep.combined_fixed, n), combined) <= 1e-12
        assert dense_span_residual(basis_columns(rep.intersection, n), intersection) <= 1e-12
        return intersection.shape[1]

    @pytest.mark.parametrize("ch, other", corpus.params("pairs", partner=True))
    @pytest.mark.parametrize("same", [True, False], ids=["self", "pair"])
    def test_fixed_space_intersection(self, ch, other, same):
        # the kernel of the stacked complements of the parts' fixed spaces
        def complements(Ls, n):
            return np.vstack([np.eye(n) - Q @ Q.conj().T for Q in map(dense_fixed_columns, Ls)])

        self.assert_intersection([ch, ch if same else other], [0.4, 0.6], complements)

    @pytest.mark.parametrize("side", [FORWARD, ADJOINT])
    @pytest.mark.parametrize("d", [4, 8])
    @pytest.mark.parametrize(
        "makers",
        [
            (parity_fock_channel, parity_fock_channel, shift_channel),
            (ladder_channel, ladder_channel, shift_channel),
            (parity_fock_channel, parity_fock_channel, parity_fock_channel),
        ],
        ids=["parity-shift", "ladder-shift", "parity3"],
    )
    def test_intersection_of_three_parts(self, makers, d, side):
        # the intersection against the dense kernel of the stacked
        # I - L_i; the shift has no fixed point, so with it the
        # intersection is empty
        channels = [on_side(make(p, d), side) for make, p in zip(makers, (0.3, 0.5, 0.7))]
        dim = self.assert_intersection(
            channels, [0.2, 0.3, 0.5], lambda Ls, n: np.vstack([np.eye(n) - L for L in Ls])
        )
        assert dim == (0 if shift_channel in makers else d * d // 2)

    @pytest.mark.parametrize("ch, _", corpus.params("pairs", partner=True))
    def test_peripheral_unitarity_check(self, ch, _):
        L = superoperator(ch)
        decomp = peripheral_decomposition(L, cesaro_check_n=0)
        if not decomp.lambdas:
            with pytest.raises(DegenerateInputError):
                peripheral_unitarity_check(decomp)
            return
        assert abs(peripheral_unitarity_check(decomp) - joined_unitarity(decomp, L)) <= 1e-12

    @pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
    def test_non_normal_peripheral_block_is_not_unitary(self, c):
        # T = [[1, c], [0, -1]] has T^2 = I, so the map is power bounded
        # with the semisimple peripheral eigenvalues 1 and -1, but T is not
        # unitary: its singular values are sqrt(1 + c^2/4) +- c/2
        A = np.diag([1.0, -1.0, 0.5, 0.2])
        A[0, 1] = c
        L = linalg.from_hermitian_basis(A)
        decomp = peripheral_decomposition(L)
        assert decomp.lambdas == (1.0, -1.0)
        got = peripheral_unitarity_check(decomp)
        assert abs(got - joined_unitarity(decomp, L)) <= 1e-12
        assert got == pytest.approx(np.sqrt(1 + c * c / 4) + c / 2 - 1, rel=1e-12)

    def test_span_residual_sees_different_block_dimensions(self):
        # two spans of dimension 2 on two blocks of size 2: one lies in the
        # first block, the other takes one dimension of each
        layout = linalg.BlockLayout(np.arange(4), np.array([2, 2]))  # [0, 1], [2, 3]
        X = np.stack([np.zeros((2, 2)), np.eye(2)])  # kernel dims 2, 0
        Y = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])  # kernel dims 1, 1
        parts, columns = [], []
        for M in (X, Y):
            svds, _, ranks = linalg.block_svd([M], 1e-10)
            parts.append(ergodic._kernel_parts(svds, ranks))
            groups = linalg.kernel_groups(layout.index, svds, ranks)
            columns.append(linalg.scatter_kernel(layout.n, groups))
        assert [K.shape[1] for K in columns] == [2, 2]
        resid = ergodic._span_residual(*parts)
        assert resid == pytest.approx(1.0, abs=1e-12)
        assert abs(resid - dense_span_residual(*columns)) <= 1e-12
        # and the same span compares equal to itself in another basis
        assert ergodic._span_residual(parts[0], [Q[..., ::-1] for Q in parts[0]]) <= 1e-15


class TestFixedPointChecksRunPerBlock:
    @pytest.mark.parametrize("d", [4, 12])
    def test_hs_symmetry_builds_no_superoperator_and_no_dense_form(self, d, monkeypatch):
        # the form comes from the Kraus operators: L is never built, nor
        # changed to the Hermitian basis, and at d = 12 the whole form is
        # not built either, only its blocks
        def refuse(*args, **kwargs):
            raise AssertionError("built a d^2 x d^2 matrix")

        refused = [(channel_mod, "superoperator"), (linalg, "to_hermitian_basis")]
        if d == 12:
            refused.append((linalg, "kraus_hermitian_form"))
        for module, name in refused:
            monkeypatch.setattr(module, name, refuse)
        rep = hs_fixed_point_symmetry(parity_fock_channel(0.3, d))
        assert rep.equal and rep.forward_fixed.dimension == d * d // 2

    @pytest.mark.parametrize("make", [shift_channel, parity_fock_channel], ids=["shift", "parity"])
    def test_no_svd_larger_than_a_block_and_no_join(self, make, monkeypatch):
        # parity-fock's blocks are 1 x 1 and real, each its own
        # factorisation: no numpy.linalg factorisation runs at all
        d = 16
        decomp = peripheral_decomposition(superoperator(make(0.3, d)), cesaro_check_n=0)
        shapes = []
        orig_svd = np.linalg.svd
        monkeypatch.setattr(
            np.linalg, "svd", lambda M, *a, **k: shapes.append(M.shape) or orig_svd(M, *a, **k)
        )
        calls = count_linalg_calls(monkeypatch, ("eig", "eigvals", "eigvalsh"))

        def refuse(self, stacks):
            raise AssertionError("joined the blocks")

        monkeypatch.setattr(linalg.BlockLayout, "join", refuse)
        hs_fixed_point_symmetry(make(0.5, d))
        fixed_space_intersection([make(0.3, d), make(0.6, d)], [0.4, 0.6])
        if decomp.lambdas:
            peripheral_unitarity_check(decomp)
        else:
            with pytest.raises(DegenerateInputError):
                peripheral_unitarity_check(decomp)
        if make is parity_fock_channel:
            assert shapes == [] and calls == []
        else:
            assert shapes
            assert max(max(shape[-2:]) for shape in shapes) <= d

    @pytest.mark.parametrize("side", [FORWARD, ADJOINT])
    def test_parity_fock_pipeline_makes_no_lapack_call(self, side, monkeypatch):
        # the Hermitian form of parity-fock is diagonal: one (256, 1, 1)
        # stack at d = 16, whose real members are their own factorisations
        ch = on_side(parity_fock_channel(0.3, 16), side)
        calls = count_linalg_calls(monkeypatch, ("svd", "eig", "eigvals", "eigvalsh"))
        decomp = peripheral_decomposition(ch, cesaro_check_n=400)
        decay_fit(decomp, 40)
        decay_fit(decomp.stable, 40)
        assert fixed_space(ch).dimension == decomp.fixed_space.dimension == 128
        assert splitting_check(ch).fixed_dim == 128
        assert hs_fixed_point_symmetry(ch).equal
        assert peripheral_unitarity_check(decomp) <= 1e-12
        assert calls == []

    @pytest.mark.parametrize("count", [2, 3])
    def test_intersection_makes_two_block_svds(self, count, monkeypatch):
        # one of I - A, A the combination, and one of the triangular
        # factors of the stacked I - A_i, each no larger than a block
        calls = []
        orig = linalg.block_svd
        monkeypatch.setattr(
            linalg, "block_svd", lambda stacks, tol: calls.append(stacks) or orig(stacks, tol)
        )
        parts = [ladder_channel(0.3, 4), ladder_channel(0.6, 4), shift_channel(0.5, 4)][:count]
        fixed_space_intersection(parts, [1.0 / count] * count)
        assert len(calls) == 2
        assert [X.shape for X in calls[1]] == [X.shape for X in calls[0]]

    def test_fixed_space_basis_is_built_on_request(self, monkeypatch):
        # the kernel is held in block coordinates: neither the d^2 x c
        # columns nor the d x d matrices are built for the dimension
        def refuse(*args, **kwargs):
            raise AssertionError("built the dense fixed-space basis")

        monkeypatch.setattr(linalg, "matrices_from_hermitian_columns", refuse)
        monkeypatch.setattr(linalg, "scatter_kernel", refuse)
        ch, parts = parity_fock_channel(0.3, 16), [parity_fock_channel(p, 16) for p in (0.3, 0.6)]
        assert peripheral_decomposition(ch).fixed_space.dimension == 128
        assert fixed_space(ch).dimension == 128
        assert hs_fixed_point_symmetry(ch).equal
        assert fixed_space_intersection(parts, [0.4, 0.6]).equal

    @pytest.mark.parametrize(
        "ch", [parity_fock_channel(0.3, 16), ladder_channel(0.5, 6), stinespring_channel(4, 3, 1)],
        ids=["parity16", "ladder6", "unitary3"],
    )
    def test_fixed_space_basis_is_the_scattered_kernel(self, ch, monkeypatch):
        # .basis is, bit for bit, the matrices of the scattered kernel
        # columns of the SVDs each producer took
        seen = []
        orig = linalg.kernel_groups
        monkeypatch.setattr(
            linalg, "kernel_groups", lambda *args: seen.append(args) or orig(*args)
        )
        parts = [ch, on_side(ch, ADJOINT)]
        inter = fixed_space_intersection(parts, [0.5, 0.5])
        hs = hs_fixed_point_symmetry(ch)
        bases = [
            peripheral_decomposition(ch, cesaro_check_n=0).fixed_space,
            fixed_space(ch),
            hs.forward_fixed,
            hs.adjoint_fixed,
            inter.combined_fixed,
            inter.intersection,
        ]
        order = [4, 5, 2, 3, 0, 1]  # of the calls, per basis
        assert len(seen) == 6
        calls = seen[:]
        for fs, i in zip(bases, order):
            K = linalg.scatter_kernel(fs.n, linalg.kernel_groups(*calls[i]))
            want = linalg.matrices_from_hermitian_columns(K)
            assert len(fs.basis) == len(want) == fs.dimension
            for B, B0 in zip(fs.basis, want):
                assert_bits(B, B0)


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


# The amplitude-damping ladder: its stable part has Jordan blocks (the
# populations form a chain at 1 - g), so its eigenvector matrix is
# numerically singular, while 1 stays semisimple.
ladder_channel = catalog.ladder_channel


class TestNegativeControls:
    """A fault each reported check must flag, injected upstream of it: an
    input without the property, or a wrong intermediate from a private
    stage.  The Cesaro check, peripheral_unitarity_check, the commutator
    of fixed_space_intersection and the span residual of
    hs_fixed_point_symmetry have theirs beside their other tests."""

    def test_jordan_block_at_one_fails_the_splitting(self):
        # Ker(I - A) and Rng(I - A) both hold e_0: the dimensions add up to
        # 4, but the direct sum does not span the space
        A = np.diag([1.0, 1.0, 0.5, 0.2])
        A[0, 1] = 1.0
        with pytest.raises(SplittingViolationError, match="fixed_dim=1, range_dim=3") as info:
            splitting_check(linalg.from_hermitian_basis(A))
        assert float(str(info.value).rsplit("=", 1)[1]) <= 1e-14

    def test_dropped_cluster_fails_the_stable_radius(self, monkeypatch):
        # pauli-xy's clusters are 1 and -1: without -1 no projector
        # removes its eigenvalue from S
        orig = ergodic._peripheral_clusters
        monkeypatch.setattr(ergodic, "_peripheral_clusters", lambda *args: orig(*args)[:-1])
        message = (
            "stable part has spectral radius 1.000000 >= 1, at its eigenvalue -1+0j: "
            "the projectors do not remove it"
        )
        with pytest.raises(DecompositionFailureError, match=f"^{re.escape(message)}$"):
            peripheral_decomposition(pauli_xy_channel(0.3))

    def test_kernel_fault_moves_every_projector_residual(self, monkeypatch):
        # 1e-3 of the next right singular vector added to the trailing one
        # of every SVD of a block of L - lambda: the projectors are wrong
        # (the Cesaro check, which would see it too, is off), yet each is
        # still built as V (W^H V)^-1 W^H, so ||P^2 - P|| stays round-off
        ch = planted_channel(1, 1e-3)
        keys = ("projector_orthogonality", "projector_commutation", "reconstruction_n5")
        clean = ergodic.residual_summary(ch, peripheral_decomposition(ch, cesaro_check_n=0), 0)
        orig = linalg.block_svd

        def faulty(stacks, tol):
            svds, cut, ranks = orig(stacks, tol)
            for _, _, Vh in svds:
                Vh[..., -1, :] += 1e-3 * Vh[..., -2, :]
            return svds, cut, ranks

        monkeypatch.setattr(linalg, "block_svd", faulty)
        decomp = peripheral_decomposition(ch, cesaro_check_n=0)
        monkeypatch.undo()
        got = ergodic.residual_summary(ch, decomp, 0)
        for key in keys:
            assert clean[key] <= 1e-12 and got[key] > 1e-4, key
        assert len(decomp.lambdas) == 3
        for stacks in decomp.projector_blocks:
            for P in stacks:
                assert linalg.operator_norm(P @ P - P) <= 1e-14

    def test_perturbed_stable_block_fails_the_iterate_agreement(self, monkeypatch):
        # 1e-3 I added to every block of S: the direct iterate reads only
        # the blocks of L, the reconstruction those of S
        ch = ladder_channel(0.3, 4)
        assert io.iterate_channel(ch, 5)["disagreement_hs"] <= 1e-14
        orig = ergodic._remainder
        monkeypatch.setattr(
            ergodic, "_remainder", lambda A, *args: orig(A, *args) + 1e-3 * np.eye(A.shape[-1])
        )
        assert io.iterate_channel(ch, 5)["disagreement_hs"] > 1e-6

    @pytest.mark.parametrize(
        "ch", [parity_fock_channel(0.3, 4), ladder_channel(0.5, 4)], ids=["parity4", "ladder4"]
    )
    def test_zero_fixed_projector_fails_only_the_cesaro_check(self, ch, monkeypatch):
        # P_1 = 0 on every block: rho(S) is read from the eigenvalues of
        # L, which the fault does not touch, so with the Cesaro check off
        # (as peripheral_spectrum and spectral_projectors run) it passes
        orig = ergodic._kernel_projectors

        def zero_fixed(layout, stacks, clusters, *tols):
            projectors, fixed, norm = orig(layout, stacks, clusters, *tols)
            i = [lam for lam, _ in clusters].index(1)
            projectors[i] = [np.zeros_like(P) for P in projectors[i]]
            return projectors, fixed, norm

        monkeypatch.setattr(ergodic, "_kernel_projectors", zero_fixed)
        assert peripheral_decomposition(ch, cesaro_check_n=0).stable_spectral_radius < 1
        message = r"^Cesaro average at lambda=\(1\+0j\) disagrees with the spectral projector"
        with pytest.raises(DecompositionFailureError, match=message):
            peripheral_decomposition(ch, cesaro_check_n=400)

    def test_commuting_maps_fixing_other_spaces_are_not_equal(self):
        # diagonal in the Hermitian basis, so they commute, but not
        # contractions: their average fixes the coordinates where they
        # are 1.5 and 0.5, which neither fixes
        maps = [
            linalg.from_hermitian_basis(np.diag(x))
            for x in ([1.0, 1.5, 0.5, 0.2], [1.0, 0.5, 1.5, 0.2])
        ]
        rep = fixed_space_intersection(maps, [0.5, 0.5])
        assert rep.commute_residual <= 1e-15
        assert (rep.combined_fixed.dimension, rep.intersection.dimension) == (3, 1)
        assert rep.equal is False
        assert rep.projection_residual == pytest.approx(1.0, abs=1e-12)


class TestKernelProjectors:
    @pytest.mark.parametrize("side", ["forward", "adjoint"])
    @pytest.mark.parametrize("g", [0.3, 0.7])
    @pytest.mark.parametrize("d", [4, 8])
    def test_ladder_is_accepted(self, d, g, side):
        ch = ladder_channel(g, d)
        decomp = peripheral_decomposition(superoperator(on_side(ch, side)))
        assert decomp.lambdas == (1.0,)
        assert decomp.stable_spectral_radius == pytest.approx(np.sqrt(1.0 - g), abs=1e-10)
        assert decomp.projector_norm == pytest.approx(np.sqrt(d), abs=1e-10)
        # fixed space span{|0><0|} forward, span{I} on the adjoint side
        want = np.eye(d) / np.sqrt(d) if side == "adjoint" else np.diag(np.eye(d)[0])
        (B,) = decomp.fixed_space.basis
        assert abs(np.vdot(want, B)) == pytest.approx(1.0, abs=1e-12)
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
        J = form_map(J)  # a complex-typed form is changed back unsymmetrised
        with pytest.raises(IllConditionedDecompositionError, match="unresolved") as info:
            peripheral_decomposition(J, cesaro_check_n=0)
        assert "m = 2 eigenvalues" in str(info.value)
        # sigma_2 of J - lam, far above the cut
        assert info.value.singular_value == pytest.approx(min(1.0, abs(0.5 - lam)), rel=1e-9)
        with pytest.raises(IllConditionedDecompositionError):
            spectral_projectors(J, [lam])

    @pytest.mark.parametrize("lam", [1.0, -1.0])
    @pytest.mark.parametrize("coupling", [1.0, 1e-2, 1e-4, 1e-6])
    def test_weak_jordan_coupling_is_refused(self, coupling, lam):
        # negative control of the rank cut: sigma_2 of J - lam is
        # min(coupling, |0.5 - lam|), far below sigma_3, so the separation
        # alone would accept the couplings 1e-4 and 1e-6
        J = np.diag([lam, lam, 0.5, 0.2])
        J[0, 1] = coupling
        with pytest.raises(IllConditionedDecompositionError, match="unresolved") as info:
            peripheral_decomposition(form_map(J), cesaro_check_n=0)
        assert info.value.singular_value == pytest.approx(
            min(coupling, abs(0.5 - lam)), rel=1e-9
        )

    def test_eigenvalue_outside_the_unit_disk_is_named(self):
        # eigenvalues 1 +- 1e-6: 1 + 1e-6 is refused before any clustering
        J = np.diag([1.0, 1.0, 0.5, 0.2])
        J[0, 1], J[1, 0] = 1.0, 1e-12
        J = form_map(J)
        with pytest.raises(DecompositionFailureError, match="not power bounded") as info:
            peripheral_decomposition(J)
        assert str(info.value).startswith(
            "eigenvalue 1.000001+0j of L has modulus 1.000001 > 1 + 1.0e-08"
        )

    def test_unmatched_lambda_names_the_nearest_eigenvalue(self):
        L = superoperator(pauli_xy_channel(0.3))  # eigenvalues 1, -1, 0.4, -0.4
        with pytest.raises(DecompositionFailureError) as info:
            spectral_projectors(L, [0.9])
        assert str(info.value).endswith("the nearest is 1+0j, of modulus 1")
        assert info.value.args == (str(info.value),)  # a message, and nothing else
        assert not hasattr(info.value, "spectral_radius")

    def test_spectral_projectors_match_the_decomposition(self):
        L = superoperator(parity_fock_channel(0.3, 4))
        decomp = peripheral_decomposition(L)
        (P,) = spectral_projectors(L, decomp.lambdas)
        assert np.array_equal(P, decomp.projectors[0])
        assert decomp.fixed_space.dimension == decomp.projector_ranks[0] == 8


def joined(L, side, seed=0):
    """L + 1e-300 R, R the superoperator of a random channel on ``side``:
    numerically L, but with no zero entry, so its Hermitian form is one
    block."""
    d = int(round(np.sqrt(L.shape[0])))
    R = superoperator(on_side(stinespring_channel(seed, d, 3), side))
    return L + 1e-300 * R


class TestSectors:
    """peripheral_decomposition on the exact diagonal blocks of L."""

    @pytest.mark.parametrize("ch, side", corpus.params("sparse", sides=True))
    def test_sectors_agree_with_one_block(self, ch, side):
        L = superoperator(on_side(ch, side))
        sectors = peripheral_decomposition(L)
        dense = peripheral_decomposition(joined(L, side))
        assert block_count(sectors.layout) > 1 and block_count(dense.layout) == 1
        assert len(sectors.lambdas) == len(dense.lambdas)
        assert np.allclose(sectors.lambdas, dense.lambdas, rtol=0, atol=1e-12)
        assert sectors.projector_ranks == dense.projector_ranks
        for P, Q in zip(sectors.projectors, dense.projectors):
            assert np.max(np.abs(P - Q)) <= 1e-12
        assert np.max(np.abs(sectors.stable - dense.stable)) <= 1e-12
        assert sectors.projector_norm == pytest.approx(dense.projector_norm, abs=1e-12)
        assert sectors.stable_spectral_radius == pytest.approx(
            dense.stable_spectral_radius, abs=1e-12
        )
        d = ch.dim
        assert sectors.fixed_space.dimension == dense.fixed_space.dimension
        n = len(L)
        gap = span_projector(sectors.fixed_space, n) - span_projector(dense.fixed_space, n)
        assert np.max(np.abs(gap), initial=0.0) <= 1e-12
        for B in sectors.fixed_space.basis:
            assert np.array_equal(B, B.conj().T)
        fit_s, fit_d = decay_fit(sectors, 20), decay_fit(dense, 20)
        assert np.allclose(fit_s.norms, fit_d.norms, rtol=1e-12, atol=0)
        X = np.random.default_rng(d).normal(size=(d, d)) + 1j
        for n in (1, 7, 100):
            got = reconstruct_iterate(sectors, n, X)
            assert linalg.hs_norm(got - reconstruct_iterate(dense, n, X)) <= 1e-12
            assert linalg.hs_norm(got - apply_n(ch, X, n, adjoint=side == "adjoint")) <= 1e-11

    def test_one_block_channel_is_one_stack(self, monkeypatch):
        L = superoperator(stinespring_channel(5, 4, 3))
        A = linalg.to_hermitian_basis(L).real
        seen = []
        orig = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: seen.append(a) or orig(a))
        decomp = peripheral_decomposition(L, cesaro_check_n=100)
        assert block_count(decomp.layout) == 1
        stack = (1,) + A.shape
        assert [np.shape(a) for a in seen] == [stack]  # L; rho(S) is read from it
        assert np.array_equal(seen[0][0], A)
        assert [P.shape for (P,) in decomp.projector_blocks] == [stack]

    def test_no_linalg_call_larger_than_a_sector(self, monkeypatch):
        # shift d = 32: 63 sectors of size at most 32, against 1024 x 1024
        d = 32
        ch = shift_channel(0.5, d)
        L = superoperator(ch)
        shapes = []
        for name in dir(np.linalg):
            fn = getattr(np.linalg, name)
            if name.startswith("_") or isinstance(fn, type) or not callable(fn):
                continue

            def recorded(*args, _fn=fn, **kwargs):
                if args and np.ndim(args[0]) >= 2:
                    shapes.append(np.shape(args[0])[-2:])
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        decomp = peripheral_decomposition(L)
        decay_fit(decomp, 40)
        X = np.eye(d) + 1j * np.diag(np.ones(d - 1), 1)
        reconstruct_iterate(decomp, 9, X)
        ergodic.residual_summary(ch, decomp, seed=0)
        assert shapes and max(max(shape) for shape in shapes) <= d

    @pytest.mark.parametrize("member", [True, False])
    @pytest.mark.parametrize(
        "ch", [parity_fock_channel(0.3, 4), ladder_channel(0.7, 4)], ids=["parity4", "ladder4"]
    )
    def test_perturbed_block_projector_fails_the_cesaro_check(
        self, monkeypatch, ch, member
    ):
        # negative control: 1e-3 on one block of P_1, either a block that
        # holds eigenvalues 1 or one with none (where the Cesaro average
        # vanishes); at n = 10^6 the budget is 50/n * ||L|| ~ 5e-5
        L = superoperator(ch)
        n = 10**6
        (P,) = peripheral_decomposition(L, cesaro_check_n=n).projector_blocks
        at = next(
            (j, b)
            for j, stack in enumerate(P)
            for b, block in enumerate(stack)
            if (np.trace(block) > 0.5) == member
        )
        orig = ergodic._kernel_projectors

        def perturbed(*args):
            projectors, fixed, norm = orig(*args)
            j, b = at
            stack = projectors[0][j].copy()
            stack[b] += 1e-3 * np.eye(stack.shape[-1])
            projectors[0][j] = stack
            return projectors, fixed, norm

        monkeypatch.setattr(ergodic, "_kernel_projectors", perturbed)
        with pytest.raises(DecompositionFailureError, match="Cesaro average") as info:
            peripheral_decomposition(L, cesaro_check_n=n)
        assert "residual 1.0" in str(info.value)  # the perturbation itself

    def test_dense_fields_are_assembled_once(self):
        decomp = peripheral_decomposition(superoperator(shift_channel(0.4, 4)))
        assert decomp.stable is decomp.stable
        assert decomp.projectors == ()


def dense_kernel_oracle(L, tol):
    """(kernel projector, fixed_dim, range_dim, direct-sum residual) of
    I - L from one np.linalg.svd of the whole matrix in the
    column-stacking basis, at the cut tol * max(1, sigma_max)."""
    M = np.asarray(L)
    n = len(M)
    U, s, Vh = np.linalg.svd(np.eye(n) - M)
    r = int(np.sum(s >= tol * max(1.0, s[0])))
    K, R = Vh[r:].conj().T, U[:, :r]
    direct = np.linalg.svd(np.hstack([K, R]), compute_uv=False)[-1]
    return K @ K.conj().T, n - r, r, direct


def assert_matches_dense_oracle(L, tol):
    P, fixed_dim, range_dim, direct = dense_kernel_oracle(L, tol)
    fs = fixed_space(L, tol)
    assert fs.dimension == fixed_dim
    assert np.max(np.abs(span_projector(fs, len(P)) - P), initial=0.0) <= 1e-12
    rep = splitting_check(L, tol)
    assert (rep.fixed_dim, rep.range_dim) == (fixed_dim, range_dim)
    assert abs(rep.direct_sum_residual - direct) <= 1e-12
    return fixed_dim


class TestKernelsAgainstDenseOracle:
    """fixed_space and splitting_check run on L's blocks; their kernels,
    dimensions and residuals are those of one SVD of the whole I - L."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    @pytest.mark.parametrize("ch, side", corpus.params("oracle", "edge", sides=True))
    def test_sector_kernels_match_one_dense_svd(self, ch, side, tol):
        assert_matches_dense_oracle(superoperator(on_side(ch, side)), tol)

    def test_near_identity_cut_is_absolute(self):
        # I - L has singular values 2e-9 on the odd-gap matrix units: kernel
        # at tol 1e-8, range at 1e-10, as for the whole matrix
        L = superoperator(parity_fock_channel(1 - 1e-9, 4))
        assert assert_matches_dense_oracle(L, 1e-8) == 16
        assert assert_matches_dense_oracle(L, 1e-10) == 8

    def test_cut_is_that_of_the_whole_matrix(self):
        # negative control: a raw matrix whose blocks differ in scale.  In
        # the Hermitian basis (d = 3) I - A has a block of scale 1e2 on the
        # diagonal units and one of scale 0.5 on the pair of E_01, whose
        # least singular value is 1e-7: below the whole-matrix cut 1e-8 *
        # 1e2 = 1e-6, above that block's own cut 1e-8
        rng = np.random.default_rng(12)
        R = np.zeros((9, 9))
        for rows, sigma in (
            ([0, 4, 8], [1e2, 1.0, 0.0]),
            ([3, 1], [0.5, 1e-7]),
            ([6, 2], [0.6, 0.4]),
            ([7, 5], [0.7, 0.3]),
        ):
            Q, _ = np.linalg.qr(rng.normal(size=(len(rows), len(rows))))
            R[np.ix_(rows, rows)] = np.eye(len(rows)) - Q @ np.diag(sigma) @ Q.T
        L = linalg.from_hermitian_basis(R)
        tol = 1e-8
        _, layout, stacks = ergodic._sectors(L)
        assert sorted(map(len, (i for idx in layout.index for i in idx))) == [2, 2, 2, 3]
        per_block = 0
        for X in stacks:
            s = np.linalg.svd(np.eye(X.shape[-1]) - X, compute_uv=False)
            per_block += int(np.sum(s < tol * np.maximum(1.0, s[..., :1])))
        assert per_block == 1  # a cut per block misses the 1e-7
        assert assert_matches_dense_oracle(L, tol) == 2
        assert fixed_space(L, tol).dimension == 2

    def test_no_svd_larger_than_a_sector(self, monkeypatch):
        # shift d = 16: blocks of size at most 16 against a 256 x 256 I - L
        L = superoperator(shift_channel(0.5, 16))
        shapes = []
        orig = np.linalg.svd

        def recorded(a, *args, **kwargs):
            shapes.append(np.shape(a)[-2:])
            return orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        fixed_space(L)
        splitting_check(L)
        assert shapes and max(max(shape) for shape in shapes) <= 16

    @pytest.mark.parametrize("side", ["forward", "adjoint"])
    def test_decomposition_gives_its_blocks(self, side, monkeypatch):
        # on a decomposition the kernels read its operator blocks: no
        # second basis change or block search, and the same bits
        L = superoperator(on_side(ladder_channel(0.7, 8), side))
        decomp = peripheral_decomposition(L, cesaro_check_n=200)
        fs, rep = fixed_space(L), splitting_check(L)
        for name in ("to_hermitian_basis", "BlockLayout"):
            monkeypatch.setattr(linalg, name, None)
        fs_d, rep_d = fixed_space(decomp), splitting_check(decomp)
        assert rep_d == rep
        assert all(np.array_equal(A, B) for A, B in zip(fs.basis, fs_d.basis))
        assert fs.dimension == fs_d.dimension == 1

    def test_negative_cesaro_n_is_refused_before_any_factorisation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("factorised before checking cesaro_check_n")

        L = superoperator(shift_channel(0.5, 4))
        for name in ("eigvals", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(linalg, "to_hermitian_basis", refuse)
        with pytest.raises(DomainError, match="cesaro_check_n must be >= 0, got -3"):
            peripheral_decomposition(L, cesaro_check_n=-3)


def catalog_formula_d1(name, p):
    """The catalog's parity-fock, shift and ladder formulas at d = 1, which
    the catalog refuses: sqrt(p) I and sqrt(1 - p) parity, two zero
    shifts, and diag(1) with a zero lowering operator."""
    one, zero = np.ones((1, 1)), np.zeros((1, 1))
    kraus = {
        "parity-fock": (np.sqrt(p) * one, np.sqrt(1.0 - p) * one),
        "shift": (zero, zero),
        "ladder": (one, zero),
    }[name]
    return KrausChannel(kraus=kraus)


def shift_matrix(d, side):
    """The complex superoperator of the shift channel at p = 0.3."""
    return superoperator(on_side(shift_channel(0.3, d), side))


def real_shift_matrix(d, side):
    """The same as a real matrix: the shift's Kraus operators are real."""
    return np.ascontiguousarray(shift_matrix(d, side).real)


def sparse_kraus_family(seed):
    """1-4 complex d x d operators, d = 2..12, each entry nonzero with
    probability 0.05-0.5, scaled to a channel-like size."""
    rng = np.random.default_rng(seed)
    d, count = int(rng.integers(2, 13)), int(rng.integers(1, 5))
    density = rng.uniform(0.05, 0.5)
    kraus = []
    for _ in range(count):
        V = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        kraus.append(np.where(rng.random((d, d)) < density, V, 0) / np.sqrt(count * d))
    return KrausChannel(kraus=tuple(kraus))


def signed_zero_kraus_family(seed):
    """sparse_kraus_family(seed), real at an even seed, with each zero
    entry replaced by a zero of random sign bits: +0 or -0.0 in a real
    family, +0, 0-0j, -0-0j or -0+0j in a complex one."""
    rng = np.random.default_rng(1000 + seed)
    real = seed % 2 == 0
    signed = [0.0, -0.0] if real else [0j, complex(0, -0.0), complex(-0.0, -0.0), complex(-0.0, 0)]
    kraus = []
    for V in sparse_kraus_family(seed).kraus:
        V = V.real.copy() if real else V.copy()
        zero = V == 0
        V[zero] = np.array(signed)[rng.integers(len(signed), size=int(zero.sum()))]
        kraus.append(V)
    return KrausChannel(kraus=tuple(kraus))


def has_signed_zeros(arrays):
    """Whether a zero of any of the arrays has a sign bit set."""
    return any(
        np.any(np.signbit(part) & (part == 0))
        for X in arrays
        for part in ((X.real, X.imag) if np.iscomplexobj(X) else (X,))
    )


SIDES = pytest.mark.parametrize("side", [FORWARD, ADJOINT])


class TestKrausSectors:
    """ergodic._sectors of a KrausChannel builds the Hermitian form from
    the Kraus operators, and that of a matrix from the matrix, from the
    entries that may be nonzero or whole, yet both equal the whole change
    of basis of the np.kron sum exactly; the superoperator, scattered or
    summed, and the dense exits back to column stacking are bit for bit
    those of the whole-matrix reference too.  Each test runs on both
    ways of building them and on the one linalg.by_entries chooses."""

    @pytest.fixture(autouse=True, params=["chosen", "entries", "whole"])
    def path(self, request, monkeypatch):
        cost = {"chosen": linalg.ENTRY_COST, "entries": 0, "whole": 10**30}
        monkeypatch.setattr(linalg, "ENTRY_COST", cost[request.param])
        return request.param

    @SIDES
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_pauli_xy(self, p, side):
        assert_same_routes(pauli_xy_channel(p), side)

    @SIDES
    @pytest.mark.parametrize("name", ["parity-fock", "shift", "ladder"])
    @pytest.mark.parametrize("d", range(1, 17))
    def test_catalog_sector_channels(self, name, d, side):
        param = {"ladder": "g"}.get(name, "p")
        ch = (
            catalog_formula_d1(name, 0.3)
            if d == 1
            else catalog.build(name, {param: 0.3, "dim": d})
        )
        layout = assert_same_routes(ch, side)
        if d >= 3:
            assert block_count(layout) > 1

    @SIDES
    @pytest.mark.parametrize("drop", [0, 1], ids=["trace-preserving", "trace-decreasing"])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_stinespring_channels(self, d, drop, side):
        assert_same_routes(stinespring_channel(40 + d, d, drop=drop), side)

    @SIDES
    def test_sparse_kraus_families(self, side):
        for seed in range(200):
            assert_same_routes(sparse_kraus_family(seed), side)

    @SIDES
    def test_signed_zeros_of_kraus_operators(self, side):
        # a zero Kraus entry with its sign bit set is a zero: the entry
        # route skips its products, which change no bit of the np.kron sum
        for seed in range(40):
            ch = signed_zero_kraus_family(seed)
            assert has_signed_zeros(ch.kraus)
            assert_same_routes(ch, side)

    @SIDES
    @pytest.mark.parametrize("seed", [1, 4, 11])
    def test_planted_family(self, seed, side):
        assert_same_routes(planted_channel(seed, 1e-3), side)

    @SIDES
    def test_edge_cases(self, side):
        rng = np.random.default_rng(50)
        unitary, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        cases = [
            KrausChannel(kraus=(np.array([[0.6 + 0.8j]]),)),  # d = 1
            KrausChannel(kraus=(np.array([[0.6]]), np.array([[0.0]]), np.array([[0.8j]]))),
            KrausChannel(kraus=(*shift_channel(0.3, 4).kraus, np.zeros((4, 4)))),
            KrausChannel(kraus=(np.zeros((3, 3)), np.zeros((3, 3)))),  # the zero map
            KrausChannel(kraus=(unitary,)),  # dense: the whole form
            KrausChannel(kraus=(np.eye(5)[[2, 0, 4, 1, 3]],)),  # a permutation
        ]
        for ch in cases:
            assert_same_routes(ch, side)
        zero = assert_same_routes(cases[3], side)
        assert block_count(zero) == 9  # no entry couples: nine 1 x 1 blocks

    @SIDES
    def test_cancelling_entries_are_cut(self, side):
        # L[0, 1] and L[0, 2] are 1/2 - 1/2: the supports couple all four
        # positions, the nonzeros of L only E_00 and E_11
        V1 = np.array([[1.0, 1.0], [0.0, 0.0]]) / np.sqrt(2)
        V2 = np.array([[1.0, -1.0], [0.0, 0.0]]) / np.sqrt(2)
        ch = KrausChannel(kraus=(V1, V2))
        layout = assert_same_routes(ch, side)
        blocks = sorted(b.tolist() for idx in layout.index for b in idx)
        assert blocks == [[0, 3], [1], [2]]

    @pytest.mark.parametrize(
        "ch",
        [parity_fock_channel(0.3, 6), shift_channel(0.3, 6), stinespring_channel(9, 3)],
        ids=["parity", "shift", "random"],
    )
    def test_entry_points_take_a_channel(self, ch):
        # every entry point that reads _sectors gives, from the channel
        # and from the channel's superoperator, what the whole-matrix
        # route gives from the np.kron sum, bit for bit
        X = np.diag(np.arange(1.0, ch.dim + 1))
        computes = (
            lambda M: fixed_space(M).basis,
            lambda M: peripheral_spectrum(M),
            lambda M: spectral_projectors(M, peripheral_spectrum(M)),
            lambda M: [peripheral_decomposition(M, cesaro_check_n=400).stable],
            lambda M: [power_iterate(M, 1000, X)],
            lambda M: dataclasses.astuple(splitting_check(M)),
        )
        with pytest.MonkeyPatch.context() as whole:
            whole.setattr(linalg, "ENTRY_COST", 10**30)
            wants = [compute(kron_sum(ch.kraus)) for compute in computes]
        for source in (ch, superoperator(ch)):
            for compute, want in zip(computes, wants):
                got = compute(source)
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert_bits(np.asarray(a), np.asarray(b))

    @SIDES
    @pytest.mark.parametrize(
        "make", [shift_matrix, real_shift_matrix], ids=["complex", "real"]
    )
    def test_signed_zeros_of_a_matrix_are_carried(self, make, side):
        # a zero entry with its sign bit set can carry into the form, so
        # the matrix route takes it as an entry
        L = make(6, side)
        rng = np.random.default_rng(7)
        flat = L.reshape(-1)
        picks = rng.choice(np.flatnonzero(flat == 0), 300, replace=False)
        signed = [-0.0, complex(0.0, -0.0), complex(-0.0, -0.0)]
        for k, zero in enumerate(signed if np.iscomplexobj(L) else signed[:1]):
            flat[picks[k::3]] = zero
        layout0, stacks0 = whole_sectors(L)
        assert any(np.any(np.signbit(X) & (X == 0)) for X in stacks0)
        _, layout, stacks = ergodic._sectors(L)
        assert_same_layout(layout, layout0)
        for X, X0 in zip(stacks, stacks0, strict=True):
            assert_bits(X, X0)

    def test_adjoint_channel_has_the_adjoint_superoperator(self):
        # sum_i V_i^T kron V_i^dag, the matrix of X -> sum_i V_i^dag X V_i
        for ch in (stinespring_channel(3, 4), shift_channel(0.3, 5)):
            want = sum(np.kron(V.T, V.conj().T) for V in ch.kraus)
            got = superoperator(channel_mod.adjoint_channel(ch))
            assert np.array_equal(got, want)
            X = np.arange(ch.dim**2).reshape(ch.dim, ch.dim) * (1 + 0.5j)
            direct = sum(V.conj().T @ X @ V for V in ch.kraus)
            assert np.allclose(linalg.unvec(want @ linalg.vec(X), ch.dim), direct)

    @SIDES
    def test_intersection_blocks_are_those_of_the_superoperators(self, side):
        chs = [parity_fock_channel(0.3, 6), shift_channel(0.4, 6), stinespring_channel(7, 3)]
        for parts in (chs[:2], [pauli_xy_channel(0.2), pauli_xy_channel(0.7)], chs[2:]):
            kraus = [on_side(c, side) for c in parts]
            layout0, *stacks0 = whole_sectors(*(kron_sum(c.kraus) for c in kraus))
            for maps in (kraus, [superoperator(c) for c in kraus]):
                _, layout, *stacks = ergodic._sectors(*maps)
                assert_same_layout(layout, layout0)
                for X, X0 in zip(sum(stacks, []), sum(stacks0, []), strict=True):
                    assert_bits(X, X0)

    @pytest.mark.parametrize(
        "ch",
        [parity_fock_channel(0.3, 6), shift_channel(0.4, 7), stinespring_channel(8, 3)],
        ids=["parity", "shift", "random"],
    )
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_documents_are_byte_identical(self, ch, adjoint, monkeypatch):
        from ergochan import io

        def documents():
            return [
                io.dumps(io.analyze_channel(ch, cesaro_n=400, adjoint=adjoint)),
                io.dumps(io.iterate_channel(ch, 1000, cesaro_n=400, adjoint=adjoint)),
                io.dumps(io.fixed_space_channel(ch, adjoint=adjoint)),
            ]

        kraus_docs = documents()
        orig = ergodic._sectors

        def dense(*maps):  # the superoperator of each channel instead
            return orig(*(superoperator(m) if isinstance(m, KrausChannel) else m for m in maps))

        monkeypatch.setattr(ergodic, "_sectors", dense)
        assert documents() == kraus_docs


def assert_entries_of(p, q, x, L0):
    """(p, q, x) are distinct positions of the matrix L0 and its values
    there, bit for bit, and every other entry of L0 is +0."""
    n = len(L0)
    assert np.unique(p * n + q).size == p.size
    assert_bits(x, L0[p, q])
    rest = L0.copy()
    rest[p, q] = 0.0
    assert not np.ascontiguousarray(rest).view(np.uint64).any()


def test_kraus_entries_are_those_of_the_kron_sum():
    for seed in range(40):
        for ch in (sparse_kraus_family(seed), signed_zero_kraus_family(seed)):
            p, q, values = linalg.kraus_entries([ch.kraus])
            assert values.shape == (1, p.size)
            assert_entries_of(p, q, values[0], kron_sum(ch.kraus))
    # several families: the union of their positions, and per family the
    # values of its own sum there, +0 where it has no product
    d = 6
    chs = [shift_channel(0.3, d), parity_fock_channel(0.3, d), ladder_channel(0.3, d)]
    chs += [signed_zero_kraus_family(seed) for seed in (6, 9)]  # d = 6, real and complex
    assert all(ch.dim == d for ch in chs)
    p, q, values = linalg.kraus_entries([ch.kraus for ch in chs])
    n = d * d
    union = set()
    for ch, x in zip(chs, values, strict=True):
        assert_entries_of(p, q, x, kron_sum(ch.kraus))
        p1, q1, _ = linalg.kraus_entries([ch.kraus])
        union.update((p1 * n + q1).tolist())
    assert sorted(union) == (p * n + q).tolist()


@pytest.mark.parametrize(
    "ch, route",
    [
        (shift_channel(0.3, 12), "entries"),
        (parity_fock_channel(0.3, 16), "entries"),
        (shift_channel(0.3, 6), "whole"),  # the entry path's fixed cost
        (parity_fock_channel(0.3, 8), "whole"),
        (stinespring_channel(5, 16), "whole"),  # no zeros: d^4 pairs
    ],
    ids=["shift-12", "parity-16", "shift-6", "parity-8", "random-16"],
)
def test_route_is_chosen_by_cost(ch, route, monkeypatch):
    # one rule for the superoperator, the form of the channel and of its
    # matrix, and the dense exits of the decomposition
    def refuse(*args, **kwargs):
        raise AssertionError("took the other route")

    others = {
        "entries": ["kraus_hermitian_form", "to_hermitian_basis", "from_hermitian_basis"],
        "whole": ["kraus_entries", "form_entries"],
    }[route]
    for name in others:
        monkeypatch.setattr(linalg, name, refuse)
    if route == "entries":
        monkeypatch.setattr(np, "kron", refuse)
    for side in (ch, channel_mod.adjoint_channel(ch)):
        ergodic._sectors(side)
        decomp = peripheral_decomposition(superoperator(side), cesaro_check_n=0)
        decomp.stable, decomp.projectors


#: Every function numpy.linalg exports.
NUMPY_LINALG = [name for name in np.linalg.__all__ if name != "LinAlgError"]


def tolerance_cases():
    """(name of the tolerance, call with a given value) per entry point
    that cuts a rank or a peripheral set at a tolerance."""
    ch = parity_fock_channel(0.3, 4)  # its fixed space has dimension 8
    M = np.eye(16) - superoperator(ch)
    one_block = linalg.BlockLayout(np.arange(16), np.array([16]))
    parts = [ch, parity_fock_channel(0.6, 4)]
    cases = [
        ("fixed_space", "tol", lambda v: fixed_space(ch, tol=v)),
        ("splitting_check", "tol", lambda v: splitting_check(ch, tol=v)),
        ("hs_fixed_point_symmetry", "tol", lambda v: hs_fixed_point_symmetry(ch, tol=v)),
        ("intersection", "tol", lambda v: fixed_space_intersection(parts, [0.5, 0.5], tol=v)),
        ("null_space", "tol", lambda v: linalg.null_space([M[np.newaxis]], one_block, v)),
        ("column_space", "tol", lambda v: linalg.column_space(M, v)),
        ("verify", "tol", lambda v: channel_mod.verify(ch, tol=v)),
        ("decomposition-peripheral", "peripheral_tol",
         lambda v: peripheral_decomposition(ch, peripheral_tol=v)),
        ("decomposition-cluster", "cluster_tol",
         lambda v: peripheral_decomposition(ch, cluster_tol=v)),
        ("spectrum-peripheral", "peripheral_tol", lambda v: peripheral_spectrum(ch, v)),
        ("spectrum-cluster", "cluster_tol", lambda v: peripheral_spectrum(ch, cluster_tol=v)),
        ("projectors-peripheral", "peripheral_tol",
         lambda v: spectral_projectors(ch, [1.0], peripheral_tol=v)),
        ("projectors-cluster", "cluster_tol", lambda v: spectral_projectors(ch, [1.0], v)),
    ]
    return [pytest.param(name, call, id=case) for case, name, call in cases]


def refusal_cases():
    """(call, message) per kind of argument, each call given one bad value:
    a bool or a value of the wrong type, which Python or numpy would take
    (True as 1, a str as a TypeError), or a NaN probability."""
    ch, X = pauli_xy_channel(0.3), np.eye(2)
    decomp = peripheral_decomposition(ch)
    cases = [
        # counts
        ("decay_fit", lambda: decay_fit(decomp, True), "n_max must be an integer, got True"),
        ("transpose", lambda: transpose_superoperator(True), "d must be an integer, got True"),
        ("power_iterate", lambda: power_iterate(ch, True, X), "n must be an integer, got True"),
        ("apply_n", lambda: apply_n(ch, X, True), "n must be an integer, got True"),
        ("cesaro", lambda: cesaro_average(np.eye(4), 1, True), "n must be an integer, got True"),
        # lambda
        ("lambda-bool", lambda: cesaro_average(np.eye(4), True, 3),
         "lambda must be a complex number, got True"),
        ("lambda-str", lambda: cesaro_average(np.eye(4), "1", 3),
         "lambda must be a complex number, got '1'"),
        ("lambda-none", lambda: cesaro_average(np.eye(4), None, 3),
         "lambda must be a complex number, got None"),
        ("f_recursion", lambda: f_recursion(True, 0.5), "index must be an integer, got True"),
        # tolerances
        ("tol-bool", lambda: fixed_space(ch, True), "tol must be a real number, got True"),
        ("tol-numpy-bool", lambda: fixed_space(ch, np.True_),
         f"tol must be a real number, got {np.True_!r}"),
        # weights
        ("weight-str", lambda: fixed_space_intersection([ch], ["1"]),
         "weight must be a real number, got '1'"),
        ("weight-bool", lambda: fixed_space_intersection([ch], [True]),
         "weight must be a real number, got True"),
        ("weight-word", lambda: fixed_space_intersection([ch], ["abc"]),
         "weight must be a real number, got 'abc'"),
        # dimensions
        ("shift-dim", lambda: shift_channel(0.5, 2.5), "dim must be an integer, got 2.5"),
        ("parity-dim", lambda: parity_fock_channel(0.5, 3.0), "dim must be an integer, got 3.0"),
        ("ladder-dim", lambda: ladder_channel(0.5, "4"), "dim must be an integer, got '4'"),
        ("ladder-projector-dim", lambda: ladder_fixed_projector(2.5),
         "dim must be an integer, got 2.5"),
        ("ladder-dim-huge", lambda: ladder_channel(0.5, 10**30),
         f"dim = {10**30} is too large: numpy cannot address a dim x dim matrix"),
        # probabilities
        ("pauli-p", lambda: pauli_xy_channel(True), "p must be a real number, got True"),
        ("shift-p", lambda: shift_channel("0.5", 4), "p must be a real number, got '0.5'"),
        ("parity-oracle-p", lambda: parity_iterate_expected(math.nan, 2, 1, X),
         "p must lie in (0, 1), got nan"),
    ]
    return [pytest.param(call, message, id=case) for case, call, message in cases]


class TestArgumentsAreRefused:
    """An argument out of its domain raises DomainError naming it."""

    @pytest.mark.parametrize("call, message", refusal_cases())
    def test_refusal_table(self, call, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()

    def test_mix_of_channels_and_matrices(self):
        ch = parity_fock_channel(0.3, 3)
        kinds = re.escape("a mix of channels and matrices: ['KrausChannel', 'ndarray']")
        with pytest.raises(DimensionError, match=f"^{kinds}$"):
            fixed_space_intersection([ch, superoperator(ch)], [0.5, 0.5])

    @pytest.mark.parametrize("call", [
        pytest.param(lambda ch: stable_part(ch, [], []), id="stable_part"),
        pytest.param(lambda ch: cesaro_average(ch, 1, 3), id="cesaro"),
    ])
    def test_channel_where_a_matrix_is_expected(self, call):
        message = "^expected a superoperator matrix, got a KrausChannel$"
        with pytest.raises(DimensionError, match=message):
            call(parity_fock_channel(0.3, 3))

    def test_decompositions_are_not_combined(self):
        # only the first decomposition used to be read, as one part
        decomps = [peripheral_decomposition(parity_fock_channel(p, 3)) for p in (0.3, 0.6)]
        message = "^expected a superoperator matrix, got a PeripheralDecomposition$"
        with pytest.raises(DimensionError, match=message):
            fixed_space_intersection(decomps, [0.5, 0.5])

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name, call", tolerance_cases())
    def test_tolerance_not_finite_and_positive(self, name, call, value, monkeypatch):
        # nan and inf cut every singular value away (fixed dimension 16
        # on parity-fock d = 4, whose fixed space has dimension 8), and a
        # cut at or below 0 keeps them all (dimension 0); verify failed a
        # valid channel at nan or below 0 and passed any family at inf
        calls = count_linalg_calls(monkeypatch, NUMPY_LINALG)
        with pytest.raises(DomainError, match=f"^{name} must be finite and > 0, got {value}$"):
            call(value)
        assert calls == []

    @pytest.mark.parametrize("lam", [math.nan, complex(math.nan, 0.0), math.inf])
    def test_cesaro_lambda_not_on_the_unit_circle(self, lam):
        with pytest.raises(DomainError, match="lambda must have unit modulus"):
            cesaro_average(superoperator(pauli_xy_channel(0.3)), lam, 10)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_intersection_weight_not_finite(self, weight):
        parts = [pauli_xy_channel(0.3), pauli_xy_channel(0.4)]
        with pytest.raises(DomainError, match="weights must be finite and > 0"):
            fixed_space_intersection(parts, [weight, 0.5])

    def test_power_iterate_count_not_an_integer(self):
        with pytest.raises(DomainError, match="^n must be an integer, got 2.5$"):
            power_iterate(pauli_xy_channel(0.3), 2.5, np.eye(2))

    def test_reconstruct_iterate_count_not_an_integer(self):
        decomp = peripheral_decomposition(pauli_xy_channel(0.3))
        with pytest.raises(DomainError, match="^n must be an integer, got 2.5$"):
            reconstruct_iterate(decomp, 2.5, np.eye(2))

    def test_cesaro_count_not_an_integer(self):
        with pytest.raises(DomainError, match="^n must be an integer, got 2.5$"):
            cesaro_average(np.eye(4), 1.0, 2.5)

    def test_decay_fit_count_not_an_integer(self):
        decomp = peripheral_decomposition(pauli_xy_channel(0.3))
        with pytest.raises(DomainError, match="^n_max must be an integer, got 2.5$"):
            decay_fit(decomp, 2.5)

    def test_cesaro_check_count_not_an_integer(self, monkeypatch):
        calls = count_linalg_calls(monkeypatch, NUMPY_LINALG)
        with pytest.raises(DomainError, match="^cesaro_check_n must be an integer, got 2.5$"):
            peripheral_decomposition(pauli_xy_channel(0.3), cesaro_check_n=2.5)
        assert calls == []

    def test_numpy_integer_counts_are_accepted(self):
        ch = pauli_xy_channel(0.3)
        X = np.diag([1.0, 0.0])
        decomp = peripheral_decomposition(ch, cesaro_check_n=np.int64(200))
        assert np.array_equal(power_iterate(ch, np.int64(5), X), power_iterate(ch, 5, X))
        assert np.array_equal(
            reconstruct_iterate(decomp, np.int32(5), X), reconstruct_iterate(decomp, 5, X)
        )
        assert decay_fit(decomp, np.int64(10)) == decay_fit(decomp, 10)
