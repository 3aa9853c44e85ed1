"""Seeded random Kraus ensembles: dense complex Kraus operators, where
the analysis runs entirely on the real matrix in the Hermitian basis.

Each channel comes from a random Stinespring isometry (the QR of a
complex Gaussian matrix); the sub-unital variants drop one of its
blocks, which makes the channel trace-decreasing and its adjoint
sub-unital.  Both sides are analysed.
"""

import numpy as np
import pytest

from ergochan import (
    KrausChannel,
    apply_n,
    hs_fixed_point_symmetry,
    peripheral_decomposition,
    reconstruct_iterate,
    splitting_check,
    superoperator,
    verify,
)
from ergochan import linalg
from ergochan.channel import ADJOINT, FORWARD

DIMS = range(2, 9)


def stinespring_channel(seed, d, count=3, drop=0):
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(count * d, d)) + 1j * rng.normal(size=(count * d, d))
    Q, _ = np.linalg.qr(G)
    kraus = tuple(Q[k * d : (k + 1) * d] for k in range(count - drop))
    return KrausChannel(kraus=kraus, label=f"stinespring(d={d},drop={drop})")


CHANNELS = [
    pytest.param(stinespring_channel(100 + d, d, drop=drop), id=f"d{d}-{kind}")
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


def mirror(M):
    d = int(round(np.sqrt(M.shape[0])))
    perm = np.arange(d * d).reshape(d, d).T.reshape(-1)
    return np.conj(M[np.ix_(perm, perm)])


@pytest.mark.parametrize("ch, side", CASES)
class TestRandomEnsemble:
    def test_matches_complex_eig_reference(self, ch, side):
        L = superoperator(ch, side).matrix
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
        M = superoperator(ch, side).matrix
        decomp = peripheral_decomposition(M)
        for i, (lam, P) in enumerate(zip(decomp.lambdas, decomp.projectors)):
            assert linalg.operator_norm(P @ P - P) <= 1e-10
            assert linalg.operator_norm(M @ P - lam * P) <= 1e-10
            assert linalg.operator_norm(P @ M - lam * P) <= 1e-10
            assert linalg.operator_norm(P @ decomp.stable) <= 1e-10
            for Q in decomp.projectors[i + 1 :]:
                assert linalg.operator_norm(P @ Q) <= 1e-10

    def test_reconstruction_against_apply_n(self, ch, side):
        decomp = peripheral_decomposition(superoperator(ch, side))
        rng = np.random.default_rng(ch.dim)
        d = ch.dim
        X = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        for n in (1, 7, 60):
            direct = apply_n(ch, X, n, adjoint=side == ADJOINT)
            err = linalg.hs_norm(reconstruct_iterate(decomp, n, X) - direct)
            assert err <= 1e-11 * linalg.hs_norm(X)

    def test_splitting(self, ch, side):
        rep = splitting_check(superoperator(ch, side))
        assert rep.fixed_dim + rep.range_dim == ch.dim**2
        assert rep.dual_orthogonality_residual <= 1e-8



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
