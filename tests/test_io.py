import json
from collections import Counter

import numpy as np
import pytest

from ergochan import (
    apply_n,
    channel,
    ergodic,
    io,
    ladder_channel,
    linalg,
    parity_fock_channel,
    pauli_xy_channel,
    shift_channel,
    superoperator,
)
from ergochan.channel import ADJOINT, FORWARD
from ergochan.errors import (
    CatalogLookupError,
    SpecFormatError,
    SpecValidationError,
)
from helpers import count_linalg_calls, on_side, stinespring_channel


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


def as_pairs(value):
    """``value`` with every numpy array replaced by its ``matrix_to_pairs``
    nested list."""
    if isinstance(value, np.ndarray):
        return io.matrix_to_pairs(value)
    if isinstance(value, dict):
        return {key: as_pairs(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_pairs(item) for item in value]
    return value


def canonical_json(doc) -> str:
    """The stdlib encoding of ``doc`` in the nested-list form."""
    return json.dumps(as_pairs(doc), sort_keys=True, separators=(",", ":"))


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


class TestAnalyzeDocument:
    def test_round_trip_byte_identical(self):
        doc = io.analyze_channel(pauli_xy_channel(0.25), cesaro_n=200)
        text = io.dumps(doc)
        assert io.dumps(json.loads(text)) == text

    def test_deterministic_across_runs(self):
        a = io.analyze_channel(pauli_xy_channel(0.25), cesaro_n=200, seed=7)
        b = io.analyze_channel(pauli_xy_channel(0.25), cesaro_n=200, seed=7)
        assert io.dumps(a) == io.dumps(b)

    def test_report_content(self):
        doc = io.analyze_channel(pauli_xy_channel(0.25), cesaro_n=200)
        assert doc["dim"] == 2
        assert doc["verification"]["cp_ok"] is True
        assert doc["fixed_space"]["dimension"] == 1
        assert doc["peripheral"]["projector_ranks"] == [1, 1]
        assert doc["stable_spectral_radius"] == pytest.approx(0.5, abs=1e-10)
        assert doc["residuals"]["reconstruction_n5"] <= 1e-10

    @pytest.mark.parametrize(
        "ch", [pauli_xy_channel(0.25), parity_fock_channel(0.3, 4), stinespring_channel(5, 3, 2)]
    )
    def test_dumps_equals_canonical_json_dumps(self, ch):
        doc = io.analyze_channel(ch, cesaro_n=200)
        assert io.dumps(doc) == canonical_json(doc)


def neg_zero(M, re: bool):
    """M with the entry (0, 1) set to -0.0 in its real or imaginary part."""
    M = np.array(M, dtype=complex)
    M[0, 1] = complex(-0.0, 0.0) if re else complex(0.0, -0.0)
    return M


DUMPS_CHANNELS = [pauli_xy_channel(0.3)] + [
    build(0.6 if build is ladder_channel else 0.3, d)
    for d in range(2, 17)
    for build in (parity_fock_channel, shift_channel, ladder_channel)
] + [stinespring_channel(11, 5, 2), stinespring_channel(12, 8, count=3, drop=1)]


class TestDumpsWritesArrays:
    """``io.dumps`` of a document holding arrays is the stdlib encoding of
    the same document with each array as its ``matrix_to_pairs`` list."""

    @pytest.mark.parametrize(
        "ch",
        DUMPS_CHANNELS,
        ids=[ch.label for ch in DUMPS_CHANNELS[:-2]] + ["random-d5", "trace-decreasing-d8"],
    )
    def test_documents_equal_the_stdlib_encoding(self, ch):
        docs = [
            io.analyze_channel(ch, cesaro_n=100),
            io.analyze_channel(ch, cesaro_n=100, adjoint=True),
            io.iterate_channel(ch, 7),
            io.fixed_space_channel(ch),
            io.channel_to_spec(ch),
        ]
        assert isinstance(docs[2]["direct"], np.ndarray)
        for doc in docs:
            assert io.dumps(doc) == canonical_json(doc)

    @pytest.mark.parametrize(
        "M",
        [
            neg_zero(np.zeros((3, 3)), re=True),
            neg_zero(np.zeros((3, 3)), re=False),
            neg_zero(np.eye(2), re=True),
            np.zeros((4, 4), dtype=complex),
            np.array([[2.5 - 1e-300j]]),
            np.zeros((1, 1), dtype=complex),
            np.diag([0.0, 0.0, 1e-17j]),  # rows 0 and 1 zero, row 2 one nonzero
            np.array([[0, 0, 0], [1, 2j, -3], [0, 0, 0], [0, 0, 0.5]]),
            np.arange(12.0).reshape(3, 4) * (0.1 + 0.3j),  # dense but for one entry
            np.random.default_rng(3).normal(size=(5, 5)) + 1j,  # fully dense
            np.random.default_rng(4).normal(size=(2, 6)),  # real, not square
            np.zeros((0, 0), dtype=complex),
        ],
        ids=[
            "neg-zero-re", "neg-zero-im", "neg-zero-in-identity", "all-zero",
            "one-by-one", "one-by-one-zero", "one-nonzero-row", "two-nonzero-rows",
            "mostly-dense",
            "dense", "real-wide", "empty",
        ],
    )
    def test_matrix_edge_cases(self, M):
        doc = {"m": M, "ms": [M, {"inner": M.T}], "x": -0.0, "n": [1, 2.5]}
        text = io.dumps(doc)
        assert text == canonical_json(doc)
        assert json.loads(text)["m"] == io.matrix_to_pairs(M)

    def test_negative_zero_survives(self):
        text = io.dumps({"m": neg_zero(np.zeros((2, 2)), re=False)})
        assert text == '{"m":[[[0.0,0.0],[0.0,-0.0]],[[0.0,0.0],[0.0,0.0]]]}'

    def test_refuses_what_json_refuses(self):
        with pytest.raises(TypeError, match="keys must be str"):
            io.dumps({1: np.eye(2)})
        with pytest.raises(TypeError, match="set"):
            io.dumps({"m": np.eye(2), "s": {1, 2}})

    def test_json_round_trip_gives_the_nested_lists(self):
        doc = io.iterate_channel(pauli_xy_channel(0.25), 3)
        assert json.loads(io.dumps(doc)) == as_pairs(doc)

    def test_rows_are_encoded_only_where_nonzero(self, monkeypatch):
        # parity-fock d = 16: 128 fixed-space matrices of 16 rows, almost
        # all of them zero
        doc = io.fixed_space_channel(parity_fock_channel(0.3, 16))
        basis = doc["basis"]
        nonzero_rows = sum(
            int(np.count_nonzero(np.any(B.view(np.int64) != 0, axis=1))) for B in basis
        )
        leaves = len(doc) - 1  # every field but the basis is one value
        assert nonzero_rows < sum(len(B) for B in basis) // 4
        calls = []
        encode_row = io._row_text
        monkeypatch.setattr(io, "_row_text", lambda row: calls.append(1) or encode_row(row))
        text = io.dumps(doc)
        assert 0 < len(calls) <= nonzero_rows + leaves
        assert text == canonical_json(doc)


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize(
    "ch",
    [
        pauli_xy_channel(0.25),
        pauli_xy_channel(1 - 1e-9),  # near the identity: fixed space of dimension 2
        parity_fock_channel(0.3, 4),
        shift_channel(0.5, 4),
        stinespring_channel(5, 3, 2),
    ],
    ids=["pauli25", "pauli-near-identity", "parity4", "shift4", "random3"],
)
def test_fixed_space_is_the_range_of_p1(ch, adjoint):
    rep = io.analyze_channel(ch, cesaro_n=200, adjoint=adjoint)
    ranks = {
        complex(re, im): rank
        for (re, im), rank in zip(rep["peripheral"]["lambdas"], rep["peripheral"]["projector_ranks"])
    }
    assert rep["fixed_space"]["dimension"] == ranks.get(1.0, 0)
    written = json.loads(io.dumps(rep))["fixed_space"]["basis"]
    basis = [io.pairs_to_matrix(B) for B in written]
    assert len(basis) == ranks.get(1.0, 0)
    for B in basis:
        assert np.allclose(B, B.conj().T, atol=1e-15)  # a Hermitian basis
        assert np.allclose(apply_n(ch, B, 1, adjoint=adjoint), B, atol=1e-10)


FACTORISATIONS = ("svd", "eig", "eigvals", "eigvalsh")


def count_full_size_calls(monkeypatch, d):
    """Record (name, dtype) of each numpy.linalg eig, eigvals, eigvalsh
    and svd of a d^2 x d^2 matrix."""
    calls = []
    for name in FACTORISATIONS:
        orig = getattr(np.linalg, name)

        def typed(a, *args, _orig=orig, _name=name, **kwargs):
            if np.shape(a)[-2:] == (d * d, d * d):
                calls.append((_name, np.asarray(a).dtype.name))
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, typed)
    return calls


class TestFactorisationCounts:
    def test_analyze_factorises_once(self, monkeypatch):
        # one eigvals of L's real form, one of the stable part's for
        # rho(S); the projectors come from kernels, with no eigenvectors
        d = 4
        ch = stinespring_channel(2, d, 2)
        _, _, (stack,) = ergodic._sectors(superoperator(ch))
        A = stack[0]
        seen = []
        orig = np.linalg.eigvals
        monkeypatch.setattr(
            np.linalg, "eigvals", lambda a: seen.append(np.array(a)) or orig(a)
        )
        calls = count_linalg_calls(monkeypatch, ("eig", "cond", "inv", "svd"))
        io.analyze_channel(ch, cesaro_n=200)
        full = Counter(name for name, shape in calls if shape == (d * d, d * d))
        assert (full["eig"], full["cond"], full["inv"]) == (0, 0, 0)
        assert [a.shape for a in seen] == [(1, d * d, d * d)] * 2  # one stack each
        assert sum(np.array_equal(a[0], A) for a in seen) == 1

    def test_analyze_factorises_in_real_arithmetic(self, monkeypatch):
        # a Kraus channel preserves Hermiticity: its eigenvalues, the
        # kernel at lambda = 1, the decay norms, the Cesaro check and the
        # residual summary all run on the real matrix in the Hermitian
        # basis, with no complex factorisation of a full-size matrix
        d = 4
        ch = stinespring_channel(2, d, 2)
        calls = count_full_size_calls(monkeypatch, d)
        decay_n_max = io.DECAY_N_MAX
        rep = io.analyze_channel(ch, cesaro_n=200)
        assert len(rep["peripheral"]["lambdas"]) == 1
        counts = Counter(calls)
        assert counts["eig", "float64"] == 0
        assert counts["eigvals", "float64"] == 2  # of L and of S, for rho(S)
        # the kernels of L - 1, ||L|| for the Cesaro budget, the Cesaro
        # residual, ||P^2 - P||, ||L P - P||, ||P L - P||; and per power
        # one Gram matrix eigenvalue problem for ||S^k||
        assert counts["svd", "float64"] == 6
        assert counts["eigvalsh", "float64"] == decay_n_max
        assert sum(counts.values()) == decay_n_max + 8
        assert not any(dtype == "complex128" for _, dtype in calls)

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize(
        "command, make, d",
        [
            ("analyze", parity_fock_channel, 4),
            ("analyze", shift_channel, 16),
            ("iterate", shift_channel, 16),
            ("fixed-space", shift_channel, 16),
        ],
    )
    def test_builds_no_superoperator_and_no_dense_form(
        self, monkeypatch, command, make, d, adjoint
    ):
        # the Hermitian form comes from the Kraus operators: L is never
        # built, nor changed to the Hermitian basis, on either side; at
        # d = 16 the whole form is not built either, only its blocks
        ch = make(0.3, d)

        def refuse(*args, **kwargs):
            raise AssertionError("built a d^2 x d^2 matrix")

        refused = [(channel, "superoperator"), (linalg, "to_hermitian_basis")]
        if d == 16:
            refused.append((linalg, "kraus_hermitian_form"))
        for module, name in refused:
            monkeypatch.setattr(module, name, refuse)
        calls = count_full_size_calls(monkeypatch, d)
        if command == "analyze":
            rep = io.analyze_channel(ch, cesaro_n=200, adjoint=adjoint)
            assert set(rep["verification"]) == {
                "cp_ok",
                "min_choi_eigenvalue",
                "trace_nonincreasing_ok",
                "max_kraus_sum_eigenvalue",
                "tol",
            }
        elif command == "iterate":
            rep = io.iterate_channel(ch, 100, cesaro_n=200, adjoint=adjoint)
            assert rep["disagreement_hs"] <= 1e-10
        else:
            rep = io.fixed_space_channel(ch, adjoint=adjoint)
            assert rep["dimension"] == 0  # the truncated shift fixes nothing
        assert calls == []

    @pytest.mark.parametrize("count", [2, 20])  # fewer and more than d^2
    def test_verify_builds_no_superoperator(self, monkeypatch, count):
        d = 4
        ch = stinespring_channel(7, d, count)

        def refuse(*args, **kwargs):
            raise AssertionError("verify built a d^2 x d^2 matrix")

        for name in ("superoperator", "choi", "choi_from_superoperator"):
            monkeypatch.setattr(channel, name, refuse)
        calls = count_full_size_calls(monkeypatch, d)
        rep = channel.verify(ch)
        assert rep.all_ok
        assert calls == []  # K is d^2 x count; sum V^dag V is d x d

    @pytest.mark.parametrize("adjoint", [False, True])
    def test_fixed_space_factorises_in_real_arithmetic(self, monkeypatch, adjoint):
        d = 4
        L = superoperator(on_side(stinespring_channel(2, d, 2), ADJOINT if adjoint else FORWARD))
        calls = count_full_size_calls(monkeypatch, d)
        assert ergodic.fixed_space(L).dimension == 1
        assert calls == [("svd", "float64")]  # one SVD of I - L, in the real form

    def test_decay_fit_on_parity_makes_no_full_svd(self, monkeypatch):
        d = 6
        S = ergodic.peripheral_decomposition(
            superoperator(parity_fock_channel(0.3, d)), cesaro_check_n=0
        ).stable
        dense = ergodic.peripheral_decomposition(
            superoperator(stinespring_channel(3, d, 2)), cesaro_check_n=0
        ).stable
        calls = count_linalg_calls(monkeypatch, FACTORISATIONS)
        ergodic.decay_fit(S, 20)
        assert calls and all(shape != (d * d, d * d) for _, shape in calls)
        del calls[:]
        ergodic.decay_fit(dense, 20)  # one block: the counter does see full size
        full = [name for name, shape in calls if shape == (d * d, d * d)]
        # the eigenvalues for rho(S), then one Gram matrix per power
        assert full == ["eigvals"] + ["eigvalsh"] * 20

    def test_decay_fit_batches_the_powers_of_each_stack(self, monkeypatch):
        # shift d = 16 has 16 block-size stacks; one call per stack and
        # power would make 640
        decomp = ergodic.peripheral_decomposition(
            superoperator(shift_channel(0.4, 16)), cesaro_check_n=0
        )
        calls = count_linalg_calls(monkeypatch, FACTORISATIONS)
        fit = ergodic.decay_fit(decomp, 40)
        assert len(fit.norms) == 40
        assert 0 < len(calls) <= 60
