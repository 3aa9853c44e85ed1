import json

import numpy as np
import pytest

from ergochan import io
from ergochan.cli import (
    EXIT_DECOMPOSITION,
    EXIT_FORMAT,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)


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

    def test_adjoint_flag(self, pauli_spec, tmp_path):
        out = tmp_path / "adj.json"
        # pauli-xy is self-adjoint, so both sides agree
        assert main(["analyze", pauli_spec, "--adjoint", "--cesaro-n", "200", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["side"] == "adjoint"
        assert report["stable_spectral_radius"] == pytest.approx(0.5, abs=1e-10)


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

    def test_state_shape_mismatch(self, pauli_spec, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(io.matrix_to_pairs(np.eye(3))))
        assert main(["iterate", pauli_spec, "--n", "1", "--state", str(state)]) == EXIT_VALIDATION


class TestFixedSpaceCommand:
    def test_listing(self, pauli_spec, capsys):
        assert main(["fixed-space", pauli_spec]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["dimension"] == 1
        B = io.pairs_to_matrix(report["basis"][0])
        assert np.allclose(B, B[0, 0] * np.eye(2), atol=1e-10)


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


class TestCatalogSpecParams:
    @pytest.mark.parametrize("p", ["0.5", True])
    def test_non_real_p_is_a_validation_error(self, p, tmp_path, capsys):
        path = tmp_path / "spec.json"
        doc = {"name": "x", "dim": 8,
               "catalog": {"entry": "parity-fock", "params": {"p": p, "dim": 8}}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(path)]) == EXIT_VALIDATION
        assert "p must be a real number" in capsys.readouterr().err


class TestSeedEnvFallback:
    def test_env_seed_used(self, pauli_spec, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ERGOCHAN_SEED", "99")
        out = tmp_path / "r.json"
        argv = ["analyze", pauli_spec, "--cesaro-n", "200", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert json.loads(out.read_text())["seed"] == 99

    def test_bad_env_seed_is_a_validation_error(self, pauli_spec, monkeypatch, capsys):
        monkeypatch.setenv("ERGOCHAN_SEED", "abc")
        assert main(["verify", pauli_spec]) == EXIT_VALIDATION
        assert "ERGOCHAN_SEED" in capsys.readouterr().err
