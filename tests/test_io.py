import io as stdio
import json
from collections import Counter

import numpy as np
import pytest

from ergochan import (
    channel,
    ergodic,
    io,
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
import corpus
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


def neg_zero(M, re: bool):
    """M with the entry (0, 1) set to -0.0 in its real or imaginary part."""
    M = np.array(M, dtype=complex)
    M[0, 1] = complex(-0.0, 0.0) if re else complex(0.0, -0.0)
    return M


def special_stack():
    """A (4, 3, 3) stack, mostly +0.0, of the floats whose text is not a
    plain short decimal: the smallest subnormal, large magnitudes,
    exponents in the repr, NaN, +-inf, and -0.0 in one part only."""
    M = np.zeros((4, 3, 3), dtype=complex)
    M[0, 0, 1] = complex(-0.0, 0.0)
    M[0, 2, 2] = complex(0.0, -0.0)
    M[2, 1, 0] = complex(5e-324, 1e300)
    M[2, 1, 1] = complex(-1e300, 1e-05)
    M[2, 2, 0] = complex(1e16, np.nan)
    M[3, 2, 2] = complex(np.inf, -np.inf)
    return M


class TestDumpsWritesArrays:
    """``io.dumps`` of a document holding arrays is the stdlib encoding of
    the same document with each array as its ``matrix_to_pairs`` list."""

    @pytest.mark.parametrize("ch", corpus.params("sweep"))
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
            np.zeros((3, 0), dtype=complex),
            np.array(0j),
            np.array(complex(-0.0, 1e300)),
            np.array([0, 0, complex(1e-05, -2.5e-08), 0, 0]),
            np.zeros((0, 2, 2), dtype=complex),
            np.zeros((2, 0, 2), dtype=complex),
            np.zeros((2, 2, 0), dtype=complex),
        ],
        ids=[
            "neg-zero-re", "neg-zero-im", "neg-zero-in-identity", "all-zero",
            "one-by-one", "one-by-one-zero", "one-nonzero-row", "two-nonzero-rows",
            "mostly-dense",
            "dense", "real-wide", "empty", "no-columns", "scalar-zero", "scalar",
            "vector", "no-matrices", "no-rows", "stack-no-columns",
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

    def test_encoder_formats_each_nonzero_entry_once(self, monkeypatch):
        # parity-fock d = 16: 128 fixed-space matrices of 16 x 16, almost
        # all entries zero.  The encoder is given the re and im floats of
        # the nonzero entries, in order, each once, and nothing else
        # that holds a float: no zero entry is formatted.
        doc = io.fixed_space_channel(parity_fock_channel(0.3, 16))
        stack = doc["basis"]
        assert stack.shape == (128, 16, 16)
        pairs = stack.view(np.float64).reshape(-1, 2)
        nonzero = pairs[np.any(pairs.view(np.int64) != 0, axis=1)]
        assert 0 < len(nonzero) < stack.size // 50
        seen = []
        encode = io._encode
        monkeypatch.setattr(io, "_encode", lambda value: seen.append(value) or encode(value))
        text = io.dumps(doc)
        floats = list(floats_in(seen))
        assert np.array_equal(
            np.array(floats).view(np.int64), nonzero.ravel().view(np.int64)
        )
        assert text == canonical_json(doc)


def floats_in(value):
    """The floats in ``value``, depth first; an array is not looked into."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from floats_in(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from floats_in(item)


#: Floats whose text is not a plain short decimal: the smallest
#: subnormal, large magnitudes, exponents in the repr, and what json
#: writes as NaN and Infinity.
SPECIAL_FLOATS = [5e-324, 1e300, -1e300, 1e-05, 1e16, -2.5e-08, np.nan, np.inf, -np.inf]


def random_array(rng):
    """A complex array of ndim 0-3, each axis 0-4 long, whose entries are
    +0.0 with a seeded probability and else a mix of ordinary and
    special floats, with -0.0 in the real part only or the imaginary part
    only."""
    shape = tuple(int(n) for n in rng.integers(0, 5, size=rng.integers(0, 4)))
    values = np.array(SPECIAL_FLOATS + [-0.0, 0.0, 1.0, -0.3, 0.1 + 0.2])
    M = np.empty(shape, dtype=complex)
    M.real, M.imag = rng.choice(values, size=shape), rng.choice(values, size=shape)
    M[rng.random(shape) < 0.15] = complex(-0.0, 0.0)
    M[rng.random(shape) < 0.15] = complex(0.0, -0.0)
    M[rng.random(shape) < rng.choice([0.0, 0.3, 0.6, 0.9, 1.0])] = 0
    return M


def stdlib_json(M) -> str:
    return json.dumps({"m": io.matrix_to_pairs(M)}, sort_keys=True, separators=(",", ":"))


class TestWriterMatchesTheStdlib:
    """``io.dumps`` of any array is the stdlib encoding of its
    ``matrix_to_pairs`` list, byte for byte."""

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_arrays(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            M = random_array(rng)
            assert io.dumps({"m": M}) == stdlib_json(M), (M.shape, M)

    def test_special_floats(self):
        M = special_stack()
        text = io.dumps({"m": M})
        assert text == stdlib_json(M)
        assert text.count("-0.0") == 2 and "NaN" in text and "-Infinity" in text

    def test_empty_basis_document(self):
        # the truncated shift fixes nothing: its basis is a (0, d, d) stack
        doc = io.fixed_space_channel(shift_channel(0.5, 6))
        assert doc["dimension"] == 0 and doc["basis"].shape == (0, 6, 6)
        text = io.dumps(doc)
        assert text == canonical_json(doc)
        assert json.loads(text)["basis"] == []


class SizedWrites(stdio.StringIO):
    """A text stream that records the length of each ``write``."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
def test_save_json_writes_slices_of_the_one_text(to_file, tmp_path, monkeypatch):
    # more than two slices of 2^20 characters, of the text of one dumps call
    doc = {"m": np.arange(62500.0).reshape(250, 250) * (1 + 1j) / 7}
    text = io.dumps(doc) + "\n"
    assert 2 * 2**20 < len(text) < 3 * 2**20
    calls = []
    monkeypatch.setattr(io, "dumps", lambda d, _orig=io.dumps: calls.append(d) or _orig(d))
    stream = SizedWrites()
    monkeypatch.setattr("sys.stdout", stream)
    path = tmp_path / "doc.json"
    io.save_json(doc, path if to_file else None)
    assert calls == [doc]
    if to_file:
        assert path.read_bytes() == text.encode()
    else:
        assert stream.getvalue() == text
        assert stream.sizes == [2**20, 2**20, len(text) - 2**21 - 1, 1]


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
        # one eigvals, of L's real form, which also gives rho(S); the
        # projectors come from kernels, with no eigenvectors
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
        assert [a.shape for a in seen] == [(1, d * d, d * d)]  # one stack
        assert np.array_equal(seen[0][0], A)

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
        assert counts["eigvals", "float64"] == 1  # of L, which also gives rho(S)
        # the kernels of L - 1, ||L|| for the Cesaro budget, the Cesaro
        # residual, ||L P - P||, ||P L - P||; and per power one Gram
        # matrix eigenvalue problem for ||S^k||
        assert counts["svd", "float64"] == 5
        assert counts["eigvalsh", "float64"] == decay_n_max
        assert sum(counts.values()) == decay_n_max + 6
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
        assert calls == []  # 1 x 1 real blocks: each its own factorisation
        ergodic.decay_fit(dense, 20)  # one block: the counter does see full size
        full = [name for name, shape in calls if shape == (d * d, d * d)]
        # the eigenvalues for rho(S), then one Gram matrix per power
        assert full == ["eigvals"] + ["eigvalsh"] * 20

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("a", [1.0, 0.5])
    def test_one_dimensional_channel_is_its_own_factorisation(self, monkeypatch, a, adjoint):
        # at d = 1 every block is real and 1 x 1: analyze, fixed-space and
        # iterate make no factorisation of one, and their reports are
        # those of the LAPACK route byte for byte
        ch = channel.KrausChannel(kraus=(np.array([[a]]),))

        def reports():
            return [io.dumps(doc) for doc in (
                io.analyze_channel(ch, cesaro_n=400, adjoint=adjoint),
                io.fixed_space_channel(ch, adjoint=adjoint),
                io.iterate_channel(ch, 77, cesaro_n=400, adjoint=adjoint),
            )]

        calls = count_linalg_calls(monkeypatch, ("svd", "eig", "eigvals"))
        closed = reports()
        assert calls == []
        monkeypatch.setattr(linalg, "_own_factorisation", lambda M: False)
        assert reports() == closed
        assert len(calls) > 0
        doc = json.loads(closed[0])
        assert len(doc["peripheral"]["lambdas"]) == (a == 1.0)

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
