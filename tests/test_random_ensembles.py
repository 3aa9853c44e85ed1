"""Seeded random Kraus ensembles: dense complex Kraus operators, where
the analysis runs entirely on the real matrix in the Hermitian basis.

Each channel comes from a random Stinespring isometry (the QR of a
complex Gaussian matrix); the sub-unital variants drop one of its
blocks, which makes the channel trace-decreasing and its adjoint
sub-unital.  Both sides are analysed.  Random unitary channels, whose
every eigenvalue is peripheral, test many clusters and conjugate pairs
against the same eigenvector-based reference.
"""

import numpy as np
import pytest

from ergochan import (
    KrausChannel,
    apply_n,
    hs_fixed_point_symmetry,
    peripheral_decomposition,
    power_iterate,
    reconstruct_iterate,
    splitting_check,
    superoperator,
    verify,
)
from ergochan import io, linalg
from ergochan.channel import ADJOINT, FORWARD
from ergochan.ergodic import POWER_DRIFT
from helpers import mirror, on_side, stinespring_channel

DIMS = range(2, 9)


CHANNELS = [
    pytest.param(
        stinespring_channel(100 + d, d, drop=drop, label=f"stinespring(d={d},drop={drop})"),
        id=f"d{d}-{kind}",
    )
    for d in DIMS
    for drop, kind in ((0, "tp"), (1, "subunital"))
]
CASES = [
    pytest.param(p.values[0], side, id=f"{p.id}-{side}")
    for p in CHANNELS
    for side in (FORWARD, ADJOINT)
]


def reference_decomposition(L, peripheral_tol=1e-8, cluster_tol=1e-7):
    """Projectors and stable part from one complex eig of L in the
    column-stacking basis, P = W[:, idx] inv(W)[idx, :]."""
    lam, W = np.linalg.eig(np.asarray(L, dtype=complex))
    Winv = np.linalg.inv(W)
    targets = []
    for z in lam[np.abs(lam) >= 1 - peripheral_tol]:
        if all(abs(z - t) > cluster_tol for t in targets):
            targets.append(z)
    lambdas, projectors = [], []
    for t in targets:
        idx = np.abs(lam - t) <= cluster_tol + 10 * peripheral_tol
        lambdas.append(t / abs(t))
        projectors.append(W[:, idx] @ Winv[idx, :])
    stable = np.asarray(L, dtype=complex) - sum(
        (z * P for z, P in zip(lambdas, projectors)), np.zeros(W.shape, dtype=complex)
    )
    return lambdas, projectors, stable


def rank_of_p1(report):
    """Rank of the spectral projector at lambda = 1 in an analyze report
    (0 when 1 is not peripheral)."""
    peripheral = report["peripheral"]
    return sum(
        rank
        for (re, im), rank in zip(peripheral["lambdas"], peripheral["projector_ranks"])
        if abs(complex(re, im) - 1) <= 1e-6
    )


@pytest.mark.parametrize("ch, side", CASES)
class TestRandomEnsemble:
    def test_matches_complex_eig_reference(self, ch, side):
        L = superoperator(on_side(ch, side))
        decomp = peripheral_decomposition(L)
        lambdas, projectors, stable = reference_decomposition(L)
        assert len(decomp.lambdas) == len(lambdas)
        for lam, P in zip(decomp.lambdas, decomp.projectors):
            k = int(np.argmin([abs(lam - z) for z in lambdas]))
            assert abs(lam - lambdas[k]) <= 1e-12
            assert np.max(np.abs(P - projectors[k])) <= 1e-12
        assert np.max(np.abs(decomp.stable - stable)) <= 1e-12
        assert np.array_equal(decomp.stable, mirror(decomp.stable))  # exactly HP
        rho = np.max(np.abs(np.linalg.eigvals(stable)))
        assert decomp.stable_spectral_radius == pytest.approx(rho, rel=1e-10)

    def test_projector_algebra(self, ch, side):
        M = superoperator(on_side(ch, side))
        decomp = peripheral_decomposition(M)
        for i, (lam, P) in enumerate(zip(decomp.lambdas, decomp.projectors)):
            assert linalg.operator_norm(P @ P - P) <= 1e-10
            assert linalg.operator_norm(M @ P - lam * P) <= 1e-10
            assert linalg.operator_norm(P @ M - lam * P) <= 1e-10
            assert linalg.operator_norm(P @ decomp.stable) <= 1e-10
            for Q in decomp.projectors[i + 1 :]:
                assert linalg.operator_norm(P @ Q) <= 1e-10

    def test_reconstruction_against_apply_n(self, ch, side):
        decomp = peripheral_decomposition(superoperator(on_side(ch, side)))
        rng = np.random.default_rng(ch.dim)
        d = ch.dim
        X = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        for n in (1, 7, 60):
            direct = apply_n(ch, X, n, adjoint=side == ADJOINT)
            err = linalg.hs_norm(reconstruct_iterate(decomp, n, X) - direct)
            assert err <= 1e-11 * linalg.hs_norm(X)

    def test_power_iterate_against_apply_n(self, ch, side):
        # the doubling path against the per-step Kraus loop; apply_n is
        # continued from the previous n, which is bit-identical to a
        # fresh run (the loop is deterministic step by step)
        L = superoperator(on_side(ch, side))
        d = ch.dim
        rng = np.random.default_rng(50 + d)
        X = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        unit = d * 2.0**-53 * linalg.hs_norm(X)
        direct, done = X, 0
        for n in (1, 2, 3, 5, 64, 1000, 10000):
            direct = apply_n(ch, direct, n - done, adjoint=side == ADJOINT)
            done = n
            err = linalg.hs_norm(power_iterate(L, n, X) - direct)
            assert err <= POWER_DRIFT * n * unit

    def test_splitting(self, ch, side):
        rep = splitting_check(superoperator(on_side(ch, side)))
        assert rep.fixed_dim + rep.range_dim == ch.dim**2
        assert rep.dual_orthogonality_residual <= 1e-8

    def test_projector_norm_is_at_most_sqrt_d(self, ch, side):
        # ||X||_2 <= ||X||_1 <= sqrt(d) ||X||_2, and each P_lambda, a limit
        # of Cesaro means of phi / lambda, contracts the trace norm (the
        # operator norm on the adjoint side, with ||X|| <= ||X||_2 <=
        # sqrt(d) ||X||), so ||P_lambda||_HS->HS <= sqrt(d)
        decomp = peripheral_decomposition(superoperator(on_side(ch, side)))
        assert decomp.projector_norm <= np.sqrt(ch.dim) * (1 + 1e-12)
        norms = [linalg.operator_norm(P) for P in decomp.projectors]
        assert decomp.projector_norm == pytest.approx(max(norms, default=0.0), rel=1e-10)

    def test_analyze_fixed_space_is_the_range_of_p1(self, ch, side):
        rep = io.analyze_channel(ch, cesaro_n=200, adjoint=side == ADJOINT)
        assert rep["fixed_space"]["dimension"] == rank_of_p1(rep)
        assert len(rep["fixed_space"]["basis"]) == rank_of_p1(rep)



@pytest.mark.parametrize("ch", CHANNELS)
def test_verify(ch):
    rep = verify(ch)
    assert rep.all_ok
    assert rep.max_kraus_sum_eigenvalue <= 1 + 1e-12


def unitary_mixture(seed, d, p=0.3):
    """p U1 X U1^dag + (1 - p) U2 X U2^dag for two random unitaries."""
    rng = np.random.default_rng(seed)
    unitaries = [
        np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        for _ in range(2)
    ]
    return KrausChannel(kraus=(np.sqrt(p) * unitaries[0], np.sqrt(1 - p) * unitaries[1]))


@pytest.mark.parametrize("d", DIMS)
def test_hs_fixed_point_symmetry_of_unital_channels(d):
    # unital and trace preserving: both fixed spaces are the commutant of
    # the Kraus operators, here the multiples of I
    rep = hs_fixed_point_symmetry(unitary_mixture(200 + d, d))
    assert rep.equal
    assert (rep.forward_fixed.dimension, rep.adjoint_fixed.dimension) == (1, 1)


@pytest.mark.parametrize("ch", CHANNELS)
def test_hs_fixed_point_symmetry(ch):
    # a trace-preserving random channel fixes one state, which is not
    # proportional to I, while its unital adjoint fixes I: the two fixed
    # spaces differ.  A trace-decreasing one fixes nothing on either side.
    rep = hs_fixed_point_symmetry(ch)
    for B in rep.forward_fixed.basis:
        assert linalg.hs_norm(apply_n(ch, B, 1) - B) <= 1e-10
    for B in rep.adjoint_fixed.basis:
        assert linalg.hs_norm(apply_n(ch, B, 1, adjoint=True) - B) <= 1e-10
    if len(ch.kraus) == 3:  # trace preserving
        assert (rep.forward_fixed.dimension, rep.adjoint_fixed.dimension) == (1, 1)
        (unit,) = rep.adjoint_fixed.basis
        assert abs(abs(np.trace(unit)) - np.sqrt(ch.dim)) <= 1e-10  # I / sqrt(d)
        assert not rep.equal
        assert rep.projection_residual > 1e-3
    else:
        assert (rep.forward_fixed.dimension, rep.adjoint_fixed.dimension) == (0, 0)
        assert rep.equal


def unitary_channel(seed, d):
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    return KrausChannel(kraus=(U,), label=f"unitary(d={d})")


@pytest.mark.parametrize("side", (FORWARD, ADJOINT))
@pytest.mark.parametrize("d", range(3, 7))
def test_unitary_channels_match_complex_eig_reference(d, side):
    # every eigenvalue exp(i(a_j - a_k)) of X -> U X U^dag is peripheral:
    # 1 with multiplicity d, the others in conjugate pairs.  The Cesaro
    # cross-check is off: its budget ignores the gaps between clusters
    # and refuses some of these channels.
    L = superoperator(on_side(unitary_channel(500 + d, d), side))
    decomp = peripheral_decomposition(L, cesaro_check_n=0)
    lambdas, projectors, stable = reference_decomposition(L)
    assert len(decomp.lambdas) == len(lambdas) == d * d - d + 1
    for lam, P in zip(decomp.lambdas, decomp.projectors):
        k = int(np.argmin([abs(lam - z) for z in lambdas]))
        assert abs(lam - lambdas[k]) <= 1e-12
        assert np.max(np.abs(P - projectors[k])) <= 1e-12
    assert np.max(np.abs(decomp.stable - stable)) <= 1e-12
    assert decomp.projector_norm == pytest.approx(1.0, abs=1e-12)  # L is normal
    assert decomp.fixed_space.dimension == d  # the commutant of U
