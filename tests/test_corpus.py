"""The corpus itself, and the checks that run over every case of it:
the default analysis against the closed forms, the known defects, the
one default fixed-space cut, and the imaginary part of the Hermitian
form on the Kraus routes; the last two run on the large cases
(``corpus.large``) in ``tests_scale/``."""

import json

import numpy as np
import pytest

from ergochan import apply_n, io, linalg, peripheral_decomposition, verify
from ergochan.channel import ADJOINT

import corpus
from helpers import assert_fixed_space_document, imaginary_share, on_side

SLICES = {"catalog", "small", "edge", "sparse", "blockwise", "dense", "unitary", "sweep",
          "oracle", "pairs", "scale", "known_defect"}
EVERY_CHANNEL = [pytest.param(case.channel, id=case.id) for case in corpus.ALL] + [
    pytest.param(case.partner, id=f"{case.id}-partner") for case in corpus.ALL if case.partner
]


def bits(case):
    pair = (case.channel, case.partner)
    return [(V.dtype, V.shape, V.tobytes()) for ch in pair if ch is not None for V in ch.kraus]


def test_building_twice_gives_the_same_bits():
    again = corpus.build()
    assert [case.id for case in again] == [case.id for case in corpus.ALL]
    assert all(bits(a) == bits(b) for a, b in zip(again, corpus.ALL))


def test_ids_are_unique_and_slices_known():
    assert len(corpus.BY_ID) == len(corpus.ALL)
    for case in corpus.ALL:
        assert case.slices and case.slices <= SLICES, case.id
        assert (case.defect is not None) == ("known_defect" in case.slices), case.id


@pytest.mark.parametrize("ch", EVERY_CHANNEL)
def test_every_case_is_a_channel(ch):
    rep = verify(ch)
    assert rep.all_ok and rep.max_kraus_sum_eigenvalue <= 1 + 1e-12


def assert_closed_form(case, lambdas, ranks):
    """The lambdas and ranks found are those of the closed form at the
    default cut, where the case has one."""
    if case.peripheral is None:
        return
    assert len(lambdas) == len(case.peripheral), (lambdas, case.peripheral)
    for lam, rank in zip(lambdas, ranks):
        (want,) = [r for z, r in case.peripheral if abs(lam - z) <= 1e-9]
        assert rank == want, (lambdas, ranks, case.peripheral)


# the default settings, Cesaro check on at n = 10^4: a known defect is
# refused, and the strict xfail of its case says by how much
@pytest.mark.parametrize(
    "case, side", corpus.params("catalog", "small", "edge", "dense", "known_defect", sides=True,
                               case=True)
)
class TestDefaultSettings:
    def test_decomposition_matches_the_closed_form(self, case, side):
        decomp = peripheral_decomposition(on_side(case.channel, side))
        assert_closed_form(case, decomp.lambdas, decomp.projector_ranks)
        if case.peripheral is not None:
            assert decomp.fixed_space.dimension == case.fixed_dim

    def test_analyze_report_matches_the_closed_form(self, case, side):
        # its fixed space is the range of P_1, written as a Hermitian basis
        adjoint = side == ADJOINT
        report = json.loads(io.dumps(io.analyze_channel(case.channel, adjoint=adjoint)))
        lambdas = [complex(*z) for z in report["peripheral"]["lambdas"]]
        ranks = report["peripheral"]["projector_ranks"]
        assert_closed_form(case, lambdas, ranks)
        rank = sum(r for lam, r in zip(lambdas, ranks) if lam == 1)
        basis = [io.pairs_to_matrix(B) for B in report["fixed_space"]["basis"]]
        assert report["fixed_space"]["dimension"] == len(basis) == rank
        for B in basis:
            assert np.allclose(B, B.conj().T, atol=1e-15)
            assert np.allclose(apply_n(case.channel, B, 1, adjoint=adjoint), B, atol=1e-10)
        if case.peripheral is not None:
            assert rank == case.fixed_dim


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 5: analyze cuts the fixed space at the peripheral band "
    "(dimension 2), fixed-space at tol 1e-10 (dimension 1)",
)
def test_analyze_and_fixed_space_agree_on_the_fixed_dimension():
    ch = corpus.get("pauli-1-1e-9")
    analyze = io.analyze_channel(ch)["fixed_space"]["dimension"]
    assert analyze == io.fixed_space_channel(ch)["dimension"]


# every case but the large ones, which tests_scale/ runs, the known
# defects too: no Cesaro check runs here
TIER1 = [case for case in corpus.ALL if not corpus.large(case)]


@pytest.mark.parametrize("ch, side", [pytest.param(case.channel, side, id=f"{case.id}-{side}")
                                      for case in TIER1 for side in case.sides])
def test_fixed_space_and_its_document_share_one_default_cut(ch, side):
    assert_fixed_space_document(ch, side)


@pytest.mark.parametrize("case", [pytest.param(case, id=case.id) for case in TIER1])
def test_kraus_forms_are_real_to_hermiticity_tol(case):
    # round-off, not exactly 0, so the refusal above HERMITICITY_TOL stays
    assert imaginary_share(case) < linalg.HERMITICITY_TOL
