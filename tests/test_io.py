import json

import numpy as np
import pytest

from ergochan import io, pauli_xy_channel
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


class TestMatrixPairs:
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
