import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ergochan.cli
from ergochan import catalog, channel, ergodic, io, linalg
from ergochan.cli import (
    EXIT_DECOMPOSITION,
    EXIT_FORMAT,
    EXIT_INVARIANT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VALIDATION,
    build_parser,
    main,
)

import corpus


@pytest.fixture
def pauli_spec(tmp_path):
    path = tmp_path / "pauli.json"
    path.write_text(
        json.dumps(
            {
                "name": "pauli",
                "dim": 2,
                "catalog": {"entry": "pauli-xy", "params": {"p": 0.25}},
            }
        ),
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture
def bad_channel_spec(tmp_path):
    # sqrt(2) * I is CP but not trace non-increasing
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "name": "scaled-identity",
                "dim": 2,
                "kraus": [io.matrix_to_pairs(np.sqrt(2) * np.eye(2))],
            }
        ),
        encoding="utf-8",
    )
    return str(path)


class TestVerifyCommand:
    def test_good_channel_exit_zero(self, pauli_spec, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", pauli_spec, "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["cp_ok"] is True
        assert report["max_kraus_sum_eigenvalue"] == pytest.approx(1.0)

    def test_bad_channel_nonzero_exit(self, bad_channel_spec, capsys):
        assert main(["verify", bad_channel_spec]) == EXIT_INVARIANT
        report = json.loads(capsys.readouterr().out)
        assert report["trace_nonincreasing_ok"] is False
        assert report["max_kraus_sum_eigenvalue"] == pytest.approx(2.0, abs=1e-12)

    def test_missing_file_format_error(self, capsys):
        assert main(["verify", "/no/such/file.json"]) == EXIT_FORMAT


class TestAnalyzeCommand:
    def test_report_fields(self, pauli_spec, tmp_path):
        out = tmp_path / "analysis.json"
        code = main(["analyze", pauli_spec, "--cesaro-n", "200", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        lams = sorted(pair[0] for pair in report["peripheral"]["lambdas"])
        assert lams == pytest.approx([-1.0, 1.0], abs=1e-10)
        assert report["stable_spectral_radius"] == pytest.approx(0.5, abs=1e-10)

    def test_determinism(self, pauli_spec, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(["analyze", pauli_spec, "--cesaro-n", "200", "--seed", "3", "--out", str(out)])
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_round_off_stable_part(self, tmp_path):
        # rho(S) ~ 2e-9: the decay certificate used to overflow
        spec, out = str(tmp_path / "s.json"), tmp_path / "report.json"
        assert main(["catalog", "pauli-xy", "--param", "p=0.999999999", "--out", spec]) == EXIT_OK
        assert main(["analyze", spec, "--out", str(out)]) == EXIT_OK
        decay = json.loads(out.read_text())["decay"]
        assert decay["M"] == pytest.approx(0.999, rel=1e-6)
        assert decay["epsilon"] > 1e8

    def test_adjoint_flag(self, pauli_spec, tmp_path):
        out = tmp_path / "adj.json"
        # pauli-xy is self-adjoint, so both sides agree
        assert main(["analyze", pauli_spec, "--adjoint", "--cesaro-n", "200", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["side"] == "adjoint"
        assert report["stable_spectral_radius"] == pytest.approx(0.5, abs=1e-10)

    def test_trace_increasing_channel_exits_one(self, tmp_path):
        # (1 + 1e-9) I is CP and its iterates are analysable, but it
        # increases the trace: analyze writes the report and, like
        # verify, exits 1
        spec, out = tmp_path / "grow.json", tmp_path / "report.json"
        kraus = [io.matrix_to_pairs((1 + 1e-9) * np.eye(2))]
        spec.write_text(json.dumps({"name": "grow", "dim": 2, "kraus": kraus}))
        assert main(["verify", str(spec)]) == EXIT_INVARIANT
        assert main(["analyze", str(spec), "--cesaro-n", "200", "--out", str(out)]) == EXIT_INVARIANT
        verification = json.loads(out.read_text())["verification"]
        assert verification["cp_ok"] is True
        assert verification["trace_nonincreasing_ok"] is False


class TestIterateCommand:
    def test_n1_disagreement_tiny(self, pauli_spec, tmp_path):
        out = tmp_path / "it.json"
        assert main(["iterate", pauli_spec, "--n", "1", "--cesaro-n", "200", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["disagreement_hs"] <= 1e-12

    def test_initial_state_file(self, pauli_spec, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(io.matrix_to_pairs(np.diag([1.0, 0.0]))))
        out = tmp_path / "it.json"
        code = main(
            ["iterate", pauli_spec, "--n", "2", "--state", str(state),
             "--cesaro-n", "200", "--out", str(out)]
        )
        assert code == EXIT_OK
        direct = io.pairs_to_matrix(json.loads(out.read_text())["direct"])
        # both Kraus terms swap the populations, so n=2 returns diag(1,0)
        assert np.allclose(direct, np.diag([1.0, 0.0]))

    @pytest.mark.parametrize(
        "entry, params", [("pauli-xy", ["p=0.25"]), ("parity-fock", ["p=0.3", "dim=8"])]
    )
    def test_large_n_by_binary_powering(self, entry, params, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("iterate stepped through apply_n")

        spec, out = str(tmp_path / "spec.json"), tmp_path / "it.json"
        args = [arg for param in params for arg in ("--param", param)]
        assert main(["catalog", entry, *args, "--out", spec]) == EXIT_OK
        monkeypatch.setattr(channel, "apply_n", refuse)
        n = 10**6
        argv = ["iterate", spec, "--n", str(n), "--cesaro-n", "200", "--out", str(out)]
        assert main(argv) == EXIT_OK
        report = json.loads(out.read_text())
        d = len(report["direct"])
        X = np.eye(d) / d  # the default state
        bound = ergodic.POWER_DRIFT * n * d * 2.0**-53 * linalg.hs_norm(X)
        assert report["disagreement_hs"] <= bound

    def test_state_shape_mismatch(self, pauli_spec, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(io.matrix_to_pairs(np.eye(3))))
        assert main(["iterate", pauli_spec, "--n", "1", "--state", str(state)]) == EXIT_VALIDATION

    def test_splits_L_once(self, tmp_path, monkeypatch):
        # the direct power reads the blocks the decomposition split
        made = []

        class Counted(linalg.BlockLayout):
            def __init__(self, order, sizes):
                made.append(order.size)
                super().__init__(order, sizes)

        spec, out = str(tmp_path / "s.json"), str(tmp_path / "it.json")
        args = ["--param", "p=0.5", "--param", "dim=8", "--out", spec]
        assert main(["catalog", "shift", *args]) == EXIT_OK
        monkeypatch.setattr(linalg, "BlockLayout", Counted)
        argv = ["iterate", spec, "--n", "1000", "--cesaro-n", "200", "--out", out]
        assert main(argv) == EXIT_OK
        assert made == [64]
        assert json.loads(Path(out).read_text())["disagreement_hs"] <= 1e-10

    def test_bad_n_is_refused_before_the_decomposition(self, pauli_spec, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("iterate decomposed before checking --n")

        monkeypatch.setattr(ergodic, "peripheral_decomposition", refuse)
        assert main(["iterate", pauli_spec, "--n", "0"]) == EXIT_VALIDATION
        assert "n must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("d", [4, 8])
def test_ladder_with_jordan_blocks_in_its_stable_part(d, tmp_path):
    # V0 = diag(1, sqrt(1-g), ...), V1 = sqrt(g) sum_k |k-1><k|: the
    # eigenvector matrix of its superoperator is numerically singular,
    # and the peripheral eigenvalue 1 is semisimple
    g = 0.5
    kraus = [np.diag([1.0] + [np.sqrt(1 - g)] * (d - 1)), np.sqrt(g) * np.eye(d, k=1)]
    spec = tmp_path / "ladder.json"
    spec.write_text(json.dumps(
        {"name": "ladder", "dim": d, "kraus": [io.matrix_to_pairs(V) for V in kraus]}
    ))
    out = tmp_path / "report.json"
    assert main(["analyze", str(spec), "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["peripheral"]["lambdas"] == [[1.0, 0.0]]
    assert report["peripheral"]["projector_norm"] == pytest.approx(np.sqrt(d), abs=1e-10)
    assert report["fixed_space"]["dimension"] == 1
    assert report["stable_spectral_radius"] == pytest.approx(np.sqrt(1 - g), abs=1e-10)
    assert main(["iterate", str(spec), "--n", "40", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["disagreement_hs"] <= 1e-10


class TestFixedSpaceCommand:
    def test_listing(self, pauli_spec, capsys):
        assert main(["fixed-space", pauli_spec]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["dimension"] == 1
        B = io.pairs_to_matrix(report["basis"][0])
        assert np.allclose(B, B[0, 0] * np.eye(2), atol=1e-10)

    def test_near_identity_channel(self, tmp_path, capsys):
        spec = str(tmp_path / "parity.json")
        args = ["--param", "p=0.999999999", "--param", "dim=4", "--out", spec]
        assert main(["catalog", "parity-fock", *args]) == EXIT_OK
        assert main(["fixed-space", spec]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["dimension"] == 8


class TestToleranceFlags:
    """--tol and --peripheral-tol must be finite and > 0, and --cesaro-n
    must be >= 0; anything else is a domain error (exit 3) that names the
    flag, with no report."""

    @pytest.mark.parametrize(
        "argv, rule",
        [
            (["verify", "--tol", "-1"], "finite and > 0"),
            (["analyze", "--tol", "-1"], "finite and > 0"),
            (["fixed-space", "--tol", "-1"], "finite and > 0"),
            # dimension 0 instead of span{I}
            (["fixed-space", "--tol", "0"], "finite and > 0"),
            (["analyze", "--peripheral-tol", "-1"], "finite and > 0"),
            (["iterate", "--n", "3", "--peripheral-tol", "0"], "finite and > 0"),
            (["verify", "--tol", "nan"], "finite and > 0"),
            (["analyze", "--tol", "inf"], "finite and > 0"),
            (["analyze", "--cesaro-n", "-3"], ">= 0"),
            (["iterate", "--n", "3", "--cesaro-n", "-3"], ">= 0"),
        ],
        ids=[
            "verify-negative", "analyze-negative", "fixed-space-negative",
            "fixed-space-zero", "analyze-peripheral-negative",
            "iterate-peripheral-zero", "verify-nan", "analyze-inf",
            "analyze-cesaro-negative", "iterate-cesaro-negative",
        ],
    )
    def test_bad_tolerance_is_a_validation_error(
        self, pauli_spec, argv, rule, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("decomposed before checking the flags")

        monkeypatch.setattr(ergodic, "peripheral_decomposition", refuse)
        command, *flags = argv
        assert main([command, pauli_spec, *flags]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        flag, value = flags[-2:]
        value = int(value) if flag == "--cesaro-n" else float(value)
        assert f"{flag} must be {rule}, got {value}" in err

    def test_zero_cesaro_n_skips_the_check(self, pauli_spec, capsys):
        assert main(["analyze", pauli_spec, "--cesaro-n", "0"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["tolerances"]["cesaro_n"] == 0

    def test_small_positive_tolerances_are_accepted(self, pauli_spec, capsys):
        argv = ["--tol", "1e-10", "--peripheral-tol", "1e-8", "--cesaro-n", "200"]
        assert main(["analyze", pauli_spec, *argv]) == EXIT_OK

    def test_peripheral_tol_below_round_off_names_the_margin(self, tmp_path, capsys):
        # the channel is trace preserving, so L is power bounded: its
        # eigenvalue 1 lies above 1 + 1e-15 by round-off, which the
        # refusal prints, to 2 digits, beside the peripheral_tol it broke
        spec = tmp_path / "spec.json"
        io.save_json(io.channel_to_spec(corpus.get("stinespring-102-d2")), spec)
        assert main(["analyze", str(spec), "--peripheral-tol", "1e-15"]) == EXIT_DECOMPOSITION
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(
            r"error: eigenvalue 1\+0j of L has modulus 1 \+ \d\.\de-\d\d > 1 \+ peripheral_tol = "
            r"1 \+ 1\.0e-15: L is not power bounded, or peripheral_tol is below the round-off "
            r"of its eigenvalues\n", err), err

    def test_stable_radius_below_round_off_names_the_margin(self, tmp_path, capsys):
        # on the adjoint side the eigenvalue 1 lies 1e-15 below 1, so no
        # cluster at 1e-15 takes it, and the stable part's radius, just
        # below 1, is refused at 1 - 1e-12: the refusal prints both
        spec = tmp_path / "spec.json"
        io.save_json(io.channel_to_spec(corpus.get("stinespring-105-d5")), spec)
        argv = ["analyze", str(spec), "--adjoint", "--peripheral-tol", "1e-15"]
        assert main(argv) == EXIT_DECOMPOSITION
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(
            r"error: stable part has spectral radius 1 - \d\.\de-\d\d, not below 1 - 1e-12, at "
            r"its eigenvalue 1\+0j: the projectors do not remove it\n", err), err


class TestCatalogCommand:
    def test_emit_and_reload(self, tmp_path, capsys):
        out = tmp_path / "spec.json"
        code = main(
            ["catalog", "parity-fock", "--param", "p=0.3", "--param", "dim=8",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        ch = io.load_spec(out)
        assert ch.dim == 8

    def test_bad_param(self, capsys):
        assert main(["catalog", "pauli-xy", "--param", "p=2.0"]) == EXIT_VALIDATION

    def test_missing_param(self, capsys):
        assert main(["catalog", "shift", "--param", "p=0.5"]) == EXIT_VALIDATION

    def test_param_without_equals_sign(self, capsys):
        assert main(["catalog", "pauli-xy", "--param", "p0.5"]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --param expects key=value, got 'p0.5'\n"

    def test_non_numeric_param_value(self, capsys):
        assert main(["catalog", "pauli-xy", "--param", "p=abc"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "p" in err and "'abc'" in err

    def test_dim_numpy_cannot_address(self, capsys):
        argv = ["catalog", "shift", "--param", "p=0.5", "--param", "dim=1e30"]
        assert main(argv) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        message = f"dim = {int(1e30)} is too large: numpy cannot address a dim x dim matrix"
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("message", ["Unable to allocate 74.5 GiB", ""])
    def test_out_of_memory_is_an_error_line(self, message, monkeypatch, capsys):
        # a builder that runs out of memory, as a dim that passes the
        # size check but is too large for the machine would; none is
        # allocated here
        def builder(p, dim):
            raise MemoryError(message)

        entry = dataclasses.replace(catalog.CATALOG["shift"], builder=builder)
        monkeypatch.setitem(catalog.CATALOG, "shift", entry)
        argv = ["catalog", "shift", "--param", "p=0.5", "--param", "dim=100000"]
        assert main(argv) == EXIT_NUMERIC
        assert capsys.readouterr() == ("", f"error: {message or 'MemoryError'}\n")


class TestCatalogSpecParams:
    @pytest.mark.parametrize("p", ["0.5", True])
    def test_non_real_p_is_a_validation_error(self, p, tmp_path, capsys):
        path = tmp_path / "spec.json"
        doc = {"name": "x", "dim": 8,
               "catalog": {"entry": "parity-fock", "params": {"p": p, "dim": 8}}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(path)]) == EXIT_VALIDATION
        assert "p must be a real number" in capsys.readouterr().err


def test_analyze_seed_defaults_to_zero(pauli_spec, tmp_path):
    out = tmp_path / "r.json"
    argv = ["analyze", pauli_spec, "--cesaro-n", "200", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert json.loads(out.read_text())["seed"] == 0


def test_one_cesaro_default():
    n = ergodic.DEFAULT_CESARO_N
    assert n == 10000  # the CLI's documented default
    assert build_parser().parse_args(["analyze", "spec.json"]).cesaro_n == n
    params = inspect.signature(io.analyze_channel).parameters
    assert params["cesaro_n"].default == n
    params = inspect.signature(ergodic.peripheral_decomposition).parameters
    assert params["cesaro_check_n"].default == n


def run_module(argv, cwd):
    """``python -m ergochan`` from a checkout, with src/ on the path and
    no installed script."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ergochan", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_python_dash_m_runs_the_cli(tmp_path):
    proc = run_module(["catalog", "pauli-xy", "--param", "p=0.25"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["catalog"]["entry"] == "pauli-xy"


# every flag a subcommand can take, with a value to pass
FLAG_VALUES = {
    "--tol": ["1e-9"],
    "--peripheral-tol": ["1e-8"],
    "--cesaro-n": ["10"],
    "--adjoint": [],
    "--seed": ["1"],
    "--out": ["x.json"],
}
ALL_FLAGS = set(FLAG_VALUES)


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["verify", "s.json"], {"--tol", "--seed", "--out"}),
        (["analyze", "s.json"], ALL_FLAGS),
        (["iterate", "s.json", "--n", "1"], ALL_FLAGS),
        (["fixed-space", "s.json"], {"--tol", "--adjoint", "--seed", "--out"}),
        (["catalog", "pauli-xy"], {"--out"}),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_each_subcommand_takes_exactly_its_flags(argv, flags, capsys):
    parser = build_parser()
    for flag, value in FLAG_VALUES.items():
        if flag in flags:
            parser.parse_args([*argv, flag, *value])
        else:
            with pytest.raises(SystemExit) as info:
                parser.parse_args([*argv, flag, *value])
            assert info.value.code == 2, flag


def test_verify_refuses_flags_it_does_not_read(pauli_spec, capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", pauli_spec, "--cesaro-n", "-5", "--peripheral-tol", "7", "--adjoint"])
    assert info.value.code == 2


def test_main_builds_one_parser(tmp_path, monkeypatch):
    # the parser is built once per process, not once per call
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "ergochan":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    for name in ("a.json", "b.json"):
        argv = ["catalog", "pauli-xy", "--param", "p=0.25", "--out", str(tmp_path / name)]
        assert main(argv) == EXIT_OK
    assert len(built) == 1
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


PAULI = {"name": "pauli", "dim": 2, "catalog": {"entry": "pauli-xy", "params": {"p": 0.25}}}
IDENTITY = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def kraus_doc(entry):
    """A d = 2 Kraus spec whose first entry is ``entry``."""
    return {"name": "k", "dim": 2, "kraus": [[[entry, [0, 0]], [[0, 0], [1, 0]]]]}


def state_doc(entry):
    return [[entry, [0, 0]], [[0, 0], [0.0, 0.0]]]


NOT_UTF8 = b'{"name": "caf\xe9", "dim": 2}'  # Latin-1, not UTF-8

# (command, spec file, state file or None, exit code, text of the error line);
# a file is a JSON document, or bytes written as they are
MALFORMED = {
    "kraus-not-a-list": ("verify", {"name": "k", "dim": 2, "kraus": 5}, None,
                         EXIT_VALIDATION, "kraus must be a list"),
    "params-not-an-object": ("analyze", {"name": "s", "dim": 4, "catalog":
                             {"entry": "shift", "params": 5}}, None,
                             EXIT_VALIDATION, "catalog.params must be a JSON object"),
    "entry-not-a-string": ("verify", {"name": "x", "dim": 2, "catalog":
                           {"entry": ["x"], "params": {}}}, None,
                           EXIT_VALIDATION, "catalog.entry must be a string"),
    "spec-without-name": ("verify", {"dim": 2, "kraus": [IDENTITY]}, None,
                          EXIT_VALIDATION, "spec is missing required field 'name'"),
    "spec-without-dim": ("analyze", {"name": "k", "kraus": [IDENTITY]}, None,
                         EXIT_VALIDATION, "spec is missing required field 'dim'"),
    "catalog-not-an-object": ("verify", {"name": "c", "dim": 2, "catalog": 5}, None,
                              EXIT_VALIDATION, "catalog must be {'entry': ..., 'params': ...}"),
    "catalog-without-entry": ("analyze", {"name": "c", "dim": 2, "catalog": {"params": {}}},
                              None, EXIT_VALIDATION,
                              "catalog must be {'entry': ..., 'params': ...}"),
    "catalog-dim-mismatch": ("verify", {**PAULI, "dim": 3}, None,
                             EXIT_VALIDATION, "catalog channel has dim 2, spec says 3"),
    "kraus-empty": ("analyze", {"name": "k", "dim": 2, "kraus": []}, None,
                    EXIT_VALIDATION, "kraus list must be nonempty"),
    "kraus-rows-not-lists": ("verify", {"name": "k", "dim": 2, "kraus": [[1, 2]]}, None,
                             EXIT_VALIDATION, "kraus[0]: must be a matrix of [re, im] pairs"),
    "kraus-entry-object": ("verify", kraus_doc({"re": 1}), None,
                           EXIT_VALIDATION, "kraus[0]: must be a matrix of [re, im] pairs"),
    "kraus-entry-triple": ("verify", kraus_doc([1, 0, 7]), None,
                           EXIT_VALIDATION, "kraus[0]: must be a matrix of [re, im] pairs"),
    "kraus-entry-bool": ("verify", kraus_doc([True, 0]), None,
                         EXIT_VALIDATION, "kraus[0]: must be a matrix of [re, im] pairs"),
    "kraus-entry-string": ("analyze", kraus_doc(["1", 0]), None,
                           EXIT_VALIDATION, "kraus[0]: must be a matrix of [re, im] pairs"),
    "kraus-entry-nan": ("verify", kraus_doc([float("nan"), 0]), None,
                        EXIT_VALIDATION, "kraus[0]: entries must be finite numbers"),
    "kraus-entry-overflow": ("analyze", b'{"name": "k", "dim": 1, "kraus": [[[[1e400, 0]]]]}',
                             None, EXIT_VALIDATION, "kraus[0]: entries must be finite numbers"),
    "kraus-entry-huge-int": ("verify", kraus_doc([10**400, 0]), None,
                             EXIT_VALIDATION, "kraus[0]: entries must be finite numbers"),
    "state-entry-nan": ("iterate", PAULI, state_doc([float("nan"), 0]),
                        EXIT_VALIDATION, "state: entries must be finite numbers"),
    "state-entry-object": ("iterate", PAULI, state_doc({"re": 1}),
                           EXIT_VALIDATION, "state: must be a matrix of [re, im] pairs"),
    "state-entry-triple": ("iterate", PAULI, state_doc([1, 0, 7]),
                           EXIT_VALIDATION, "state: must be a matrix of [re, im] pairs"),
    "state-entry-bool": ("iterate", PAULI, state_doc([True, 0]),
                         EXIT_VALIDATION, "state: must be a matrix of [re, im] pairs"),
    "spec-not-utf8": ("verify", NOT_UTF8, None, EXIT_FORMAT, "is not UTF-8"),
    "analyze-spec-not-utf8": ("analyze", NOT_UTF8, None, EXIT_FORMAT, "is not UTF-8"),
    "state-not-utf8": ("iterate", PAULI, NOT_UTF8, EXIT_FORMAT, "state file"),
    "state-not-json": ("iterate", PAULI, b"[[1, 0]", EXIT_FORMAT, "is not valid JSON"),
    "spec-integer-too-long": ("verify", b'{"name": "k", "dim": 1, "kraus": [[[[' + b"1" * 5000
                              + b', 0]]]]}', None, EXIT_FORMAT, "is not valid JSON"),
    "spec-nested-too-deeply": ("verify", b"[" * 100000 + b"]" * 100000, None,
                               EXIT_FORMAT, "nested too deeply"),
    "out-unwritable": ("iterate", PAULI, state_doc([1, 0]), EXIT_FORMAT, "cannot write"),
    "analyze-out-unwritable": ("analyze", PAULI, None, EXIT_FORMAT, "cannot write"),
}
# these rows also run through the real entry point
SUBPROCESS_ROWS = {"kraus-not-a-list", "spec-not-utf8"}


def _write_input(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("row", sorted(MALFORMED))
def test_malformed_input_is_an_error_line_not_a_traceback(row, tmp_path, capsys):
    command, spec, state, code, message = MALFORMED[row]
    argv = [command, _write_input(tmp_path / "spec.json", spec)]
    if command != "verify":
        argv += ["--cesaro-n", "200"]
    if command == "iterate":
        argv += ["--n", "2"]
        if state is not None:
            argv += ["--state", _write_input(tmp_path / "state.json", state)]
    if row.endswith("out-unwritable"):
        argv += ["--out", str(tmp_path / "missing" / "x.json")]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err
    if row.endswith("out-unwritable"):
        assert f"cannot write {tmp_path / 'missing' / 'x.json'}: " in err
    if row in SUBPROCESS_ROWS:
        proc = run_module(argv, tmp_path)
        assert proc.returncode == code
        assert proc.stdout == "" and proc.stderr == err
        assert "Traceback" not in proc.stderr


def test_benchmark_style_pairs_stay_valid(tmp_path, capsys):
    # integers and floats, as ``json.dump`` writes Python floats and ints
    spec = {"name": "id", "dim": 2, "kraus": [IDENTITY]}
    state = [[[1, 0], [0.0, 0.0]], [[0, 0], [0, -0.0]]]
    argv = ["iterate", _write_input(tmp_path / "s.json", spec), "--n", "3",
            "--state", _write_input(tmp_path / "x.json", state), "--cesaro-n", "200"]
    assert main(argv) == EXIT_OK
    assert io.pairs_to_matrix(json.loads(capsys.readouterr().out)["direct"])[0, 0] == 1


def test_cli_only_routes():
    # the command-line module reads no file and runs no numerics itself:
    # io reads the files and builds the documents
    for name in ("json", "np", "numpy", "channel", "ergodic", "linalg"):
        assert not hasattr(ergochan.cli, name), name
    assert "open(" not in inspect.getsource(ergochan.cli)


def test_iterate_reads_its_state_through_load_state_once(pauli_spec, tmp_path, monkeypatch, capsys):
    state = _write_input(tmp_path / "state.json", io.matrix_to_pairs(np.diag([1.0, 0.0])))
    calls = []
    load_state = io.load_state

    def counted(path, dim):
        calls.append((path, dim))
        return load_state(path, dim)

    monkeypatch.setattr(io, "load_state", counted)
    argv = ["iterate", pauli_spec, "--n", "2", "--state", state, "--cesaro-n", "200"]
    assert main(argv) == EXIT_OK
    assert calls == [(state, 2)]
    direct = io.pairs_to_matrix(json.loads(capsys.readouterr().out)["direct"])
    assert np.allclose(direct, np.diag([1.0, 0.0]))


COMMANDS = [["verify"], ["analyze"], ["iterate", "--n", "3"], ["fixed-space"]]
COMMAND_IDS = ["verify", "analyze", "iterate", "fixed-space"]


def swap_spec(tmp_path, s):
    """The d = 2 Kraus family [[0, s], [s, 0]] and I, as a spec file."""
    swap = io.matrix_to_pairs(s * np.array([[0.0, 1.0], [1.0, 0.0]]))
    spec = {"name": "swap", "dim": 2, "kraus": [swap, IDENTITY]}
    return _write_input(tmp_path / "swap.json", spec)


@pytest.mark.parametrize("command", COMMANDS, ids=COMMAND_IDS)
def test_overflowing_kraus_entries_exit_three_with_one_error_line(command, tmp_path, capsys):
    # 4 sum_i ||V_i||_F^2 = 8e320 + 8 overflows: the family is refused when
    # it is built, before a matrix is formed from it and without a warning
    assert main([command[0], swap_spec(tmp_path, 1e160), *command[1:]]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: Kraus operators overflow: 4 sum_i ||V_i||_F^2 is not a finite "
                   "float (largest |V_ij| = 1.000e+160)\n")


@pytest.mark.parametrize(
    "command, code",
    zip(COMMANDS, [EXIT_INVARIANT, EXIT_DECOMPOSITION, EXIT_DECOMPOSITION, EXIT_OK]),
    ids=COMMAND_IDS,
)
def test_large_finite_kraus_entries_keep_their_exits(command, code, tmp_path, capsys):
    # at s = 1e150 the family is built: it is trace increasing and L has the
    # eigenvalue -1e300, so it is not power bounded
    assert main([command[0], swap_spec(tmp_path, 1e150), *command[1:]]) == code
    err = capsys.readouterr().err
    if code == EXIT_DECOMPOSITION:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "L is not power bounded" in err
    else:
        assert err == ""


@pytest.mark.parametrize("case", corpus.params("edge", case=True))
def test_edge_cases_write_the_stdlib_encoding(case, tmp_path):
    # d = 1, Kraus rank above d^2 and underflowing entries: every command
    # exits 0 on each side and writes, byte for byte, the stdlib encoding
    # of what it parses to; the iterate is that of apply_n
    spec = tmp_path / "spec.json"
    io.save_json(io.channel_to_spec(case.channel), spec)
    out = tmp_path / "out.json"
    for side in case.sides:
        flags = ["--adjoint"] if side == channel.ADJOINT else []
        docs = {}
        for command, *args in [["verify"], ["analyze", *flags],
                               ["iterate", "--n", "7", *flags], ["fixed-space", *flags]]:
            assert main([command, str(spec), *args, "--out", str(out)]) == EXIT_OK, command
            data = out.read_bytes()
            docs[command] = json.loads(data)
            assert data == (json.dumps(docs[command], sort_keys=True, separators=(",", ":"))
                            + "\n").encode()
        assert docs["fixed-space"]["dimension"] == case.fixed_dim
        assert docs["analyze"]["fixed_space"]["dimension"] == case.fixed_dim
        d = case.channel.dim
        want = channel.apply_n(case.channel, np.eye(d) / d, 7, adjoint=bool(flags))
        got = io.pairs_to_matrix(docs["iterate"]["direct"])
        assert np.max(np.abs(got - want)) <= 1e-14
