import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from ergochan import (
    KrausChannel,
    apply_n,
    ergodic,
    io,
    parity_fock_channel,
    pauli_xy_channel,
    shift_channel,
    superoperator,
)
from ergochan.errors import (
    CatalogLookupError,
    SpecFormatError,
    SpecValidationError,
)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestSpecLoading:
    def test_catalog_delegation(self, tmp_path):
        path = write_json(
            tmp_path,
            "pauli.json",
            {
                "name": "pauli",
                "dim": 2,
                "catalog": {"entry": "pauli-xy", "params": {"p": 0.5}},
            },
        )
        ch = io.load_spec(path)
        assert ch.dim == 2
        assert len(ch.kraus) == 2

    def test_explicit_identity_kraus(self, tmp_path):
        path = write_json(
            tmp_path,
            "ident.json",
            {
                "name": "identity",
                "dim": 2,
                "kraus": [io.matrix_to_pairs(np.eye(2))],
            },
        )
        ch = io.load_spec(path)
        assert np.allclose(ch.kraus[0], np.eye(2))

    def test_shape_mismatch_rejected(self, tmp_path):
        path = write_json(
            tmp_path,
            "bad.json",
            {"name": "bad", "dim": 2, "kraus": [io.matrix_to_pairs(np.eye(3))]},
        )
        with pytest.raises(SpecValidationError):
            io.load_spec(path)

    def test_parse_failure_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x", dim: 2}', encoding="utf-8")
        with pytest.raises(SpecFormatError, match="line"):
            io.load_spec(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecFormatError):
            io.load_spec(tmp_path / "nope.json")

    def test_both_kraus_and_catalog_rejected(self):
        with pytest.raises(SpecValidationError):
            io.parse_spec(
                {
                    "name": "x",
                    "dim": 2,
                    "kraus": [io.matrix_to_pairs(np.eye(2))],
                    "catalog": {"entry": "pauli-xy", "params": {"p": 0.5}},
                }
            )

    def test_boolean_dim_rejected(self):
        with pytest.raises(SpecValidationError, match="dim"):
            io.parse_spec(
                {"name": "x", "dim": True, "kraus": [io.matrix_to_pairs(np.eye(1))]}
            )

    def test_unknown_catalog_entry(self):
        with pytest.raises(CatalogLookupError):
            io.parse_spec(
                {"name": "x", "dim": 2, "catalog": {"entry": "bogus", "params": {}}}
            )

    def test_channel_spec_round_trip(self):
        ch = pauli_xy_channel(0.3)
        ch2 = io.parse_spec(io.channel_to_spec(ch))
        for V, W in zip(ch.kraus, ch2.kraus):
            assert np.array_equal(np.asarray(V), np.asarray(W))


def pairs_loop(M):
    """Reference [re, im] nesting, entry by entry."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M)]


def random_channel(seed, d, count=2):
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(count * d, d)) + 1j * rng.normal(size=(count * d, d))
    Q, _ = np.linalg.qr(G)
    return KrausChannel(kraus=tuple(Q[k * d : (k + 1) * d] for k in range(count)))


class TestMatrixPairs:
    def test_equals_entrywise_loop(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        M[0, 0] = complex(-0.0, 0.0)
        M[1, 2] = 3.0  # real entry: imaginary part 0.0
        got = io.matrix_to_pairs(M)
        assert got == pairs_loop(M)
        assert json.dumps(got) == json.dumps(pairs_loop(M))
        assert all(type(x) is float for row in got for pair in row for x in pair)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        back = io.pairs_to_matrix(io.matrix_to_pairs(M))
        assert np.array_equal(M, back)

    def test_malformed_entries(self):
        with pytest.raises(SpecValidationError):
            io.pairs_to_matrix([["oops"]])


class TestAnalysisReport:
    def test_round_trip_byte_identical(self):
        rep = io.analyze_channel(pauli_xy_channel(0.25), cesaro_n=200)
        text = io.dumps(rep.to_dict())
        reloaded = io.AnalysisReport.from_dict(json.loads(text))
        assert io.dumps(reloaded.to_dict()) == text

    def test_deterministic_across_runs(self):
        a = io.analyze_channel(pauli_xy_channel(0.25), cesaro_n=200, seed=7)
        b = io.analyze_channel(pauli_xy_channel(0.25), cesaro_n=200, seed=7)
        assert io.dumps(a.to_dict()) == io.dumps(b.to_dict())

    def test_report_content(self):
        rep = io.analyze_channel(pauli_xy_channel(0.25), cesaro_n=200)
        assert rep.dim == 2
        assert rep.verification["cp_ok"] is True
        assert rep.fixed_space["dimension"] == 1
        assert rep.peripheral["projector_ranks"] == [1, 1]
        assert rep.stable_spectral_radius == pytest.approx(0.5, abs=1e-10)
        assert rep.residuals["reconstruction_n5"] <= 1e-10

    @pytest.mark.parametrize(
        "ch", [pauli_xy_channel(0.25), parity_fock_channel(0.3, 4), random_channel(5, 3)]
    )
    def test_dumps_equals_asdict_dumps(self, ch):
        rep = io.analyze_channel(ch, cesaro_n=200)
        reference = json.dumps(
            dataclasses.asdict(rep), sort_keys=True, separators=(",", ":")
        )
        assert io.dumps(rep.to_dict()) == reference


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize(
    "ch",
    [
        pauli_xy_channel(0.25),
        pauli_xy_channel(1 - 1e-9),  # near the identity: fixed space of dimension 2
        parity_fock_channel(0.3, 4),
        shift_channel(0.5, 4),
        random_channel(5, 3),
    ],
    ids=["pauli25", "pauli-near-identity", "parity4", "shift4", "random3"],
)
def test_fixed_space_is_the_range_of_p1(ch, adjoint):
    rep = io.analyze_channel(ch, cesaro_n=200, adjoint=adjoint)
    ranks = {
        complex(re, im): rank
        for (re, im), rank in zip(rep.peripheral["lambdas"], rep.peripheral["projector_ranks"])
    }
    assert rep.fixed_space["dimension"] == ranks.get(1.0, 0)
    basis = [io.pairs_to_matrix(B) for B in rep.fixed_space["basis"]]
    assert len(basis) == ranks.get(1.0, 0)
    for B in basis:
        assert np.allclose(B, B.conj().T, atol=1e-15)  # a Hermitian basis
        assert np.allclose(apply_n(ch, B, 1, adjoint=adjoint), B, atol=1e-10)


def count_linalg_calls(monkeypatch, names):
    """Record (name, trailing 2-d shape) of each numpy.linalg call."""
    calls = []
    for name in names:
        orig = getattr(np.linalg, name)

        def counted(a, *args, _orig=orig, _name=name, **kwargs):
            calls.append((_name, np.shape(a)[-2:]))
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestFactorisationCounts:
    def test_analyze_factorises_once(self, monkeypatch):
        # one eigvals of L's real form, one of the stable part's for
        # rho(S); the projectors come from kernels, with no eigenvectors
        d = 4
        ch = random_channel(2, d)
        A = ergodic._real_form(superoperator(ch).matrix)[0]
        seen = []
        orig = np.linalg.eigvals
        monkeypatch.setattr(
            np.linalg, "eigvals", lambda a: seen.append(np.array(a)) or orig(a)
        )
        calls = count_linalg_calls(monkeypatch, ("eig", "cond", "inv", "svd"))
        io.analyze_channel(ch, cesaro_n=200)
        full = Counter(name for name, shape in calls if shape == (d * d, d * d))
        assert (full["eig"], full["cond"], full["inv"]) == (0, 0, 0)
        assert [a.shape for a in seen] == [(d * d, d * d)] * 2
        assert sum(np.array_equal(a, A) for a in seen) == 1

    def test_analyze_factorises_in_real_arithmetic(self, monkeypatch):
        # a Kraus channel preserves Hermiticity: its eigenvalues, the
        # kernel at lambda = 1, the decay norms and the Cesaro check run on
        # the real matrix in the Hermitian basis.  Only io's residual
        # summary (one SVD per residual) stays in the complex
        # column-stacking basis.
        d = 4
        ch = random_channel(2, d)
        calls = []
        for name in ("eig", "eigvals", "svd"):
            orig = getattr(np.linalg, name)

            def typed(a, *args, _orig=orig, _name=name, **kwargs):
                if np.shape(a)[-2:] == (d * d, d * d):
                    calls.append((_name, np.asarray(a).dtype.name))
                return _orig(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, typed)
        decay_n_max = io.DECAY_N_MAX
        rep = io.analyze_channel(ch, cesaro_n=200)
        assert len(rep.peripheral["lambdas"]) == 1
        counts = Counter(calls)
        assert counts["eig", "float64"] == 0
        assert counts["eigvals", "float64"] == 2  # of L and of S, for rho(S)
        # per-power norms, the kernels of L - 1, ||L|| for the Cesaro
        # budget, the Cesaro residual
        assert counts["svd", "float64"] == decay_n_max + 3
        # ||P^2 - P||, ||L P - P||, ||P L - P||
        assert counts["svd", "complex128"] == 3
        assert sum(counts.values()) == decay_n_max + 8

    def test_decay_fit_on_parity_makes_no_full_svd(self, monkeypatch):
        d = 6
        S = ergodic.peripheral_decomposition(
            superoperator(parity_fock_channel(0.3, d)), cesaro_check_n=0
        ).stable
        dense = ergodic.peripheral_decomposition(
            superoperator(random_channel(3, d)), cesaro_check_n=0
        ).stable
        calls = count_linalg_calls(monkeypatch, ("svd",))
        ergodic.decay_fit(S, 20)
        assert calls and all(shape != (d * d, d * d) for _, shape in calls)
        del calls[:]
        ergodic.decay_fit(dense, 20)  # one block: the counter does see full SVDs
        assert [shape for _, shape in calls] == [(d * d, d * d)] * 20
