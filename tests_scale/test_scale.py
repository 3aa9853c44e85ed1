"""Checks at d = 24 to 64, where the tier-1 tests do not reach, on the
``scale`` slice of ``tests/corpus.py``; none is a timing gate.  Run them
with ``PYTHONPATH=src python -m pytest -q tests_scale``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ergochan import (decay_fit, fixed_space_intersection, hs_fixed_point_symmetry, io, linalg,
                      peripheral_decomposition, peripheral_unitarity_check, splitting_check,
                      superoperator)
from ergochan.channel import ADJOINT, FORWARD
from ergochan.cli import main

import corpus
from helpers import (ROUTES, assert_fixed_space_document, assert_same_routes, imaginary_share,
                     route, share_references)

ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
SIDES = pytest.mark.parametrize("side", [[], ["--adjoint"]], ids=[FORWARD, ADJOINT])


def spec(tmp_path, id):
    path = tmp_path / f"{id}.json"
    io.save_json(io.channel_to_spec(corpus.get(id)), path)
    return str(path)


def run(tmp_path, *args):
    """The document of ``ergochan *args``, which must exit 0 and write, byte
    for byte, the stdlib encoding of what it parses to."""
    out = tmp_path / "out.json"
    assert main([str(a) for a in (*args, "--out", out)]) == 0, args
    data = out.read_bytes()
    doc = json.loads(data)
    assert data == (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
    return doc


def peak_rss(tmp_path, code):
    """The peak RSS in MB of a fresh interpreter that runs ``code`` in
    ``tmp_path``, and what ``code`` prints.  A shell forks it, as Linux
    carries a process's peak RSS across exec: a child of this process
    would report this process's peak."""
    code += "\nimport resource\nprint(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    out = subprocess.run(["sh", "-c", '"$@"; exit $?', "sh", sys.executable, "-c", code],
                         cwd=tmp_path, env=ENV, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    *printed, rss = out.stdout.split()
    return int(rss) / 1024, printed


@pytest.mark.parametrize("id", ["pauli-0.5", "unitary-3-d3"])
@SIDES
def test_decay_certificate_holds_on_its_own_norms(tmp_path, id, side):
    # S at round-off: norms near 1e-16, not 0, under the benchmark oracle's bound
    decay = run(tmp_path, "analyze", spec(tmp_path, id), *side)["decay"]
    M, eps = decay["M"], decay["epsilon"]
    for n, norm in enumerate(decay["norms"], 1):
        assert norm <= M / (1 + eps) ** n * (1 + 1e-12), (n, norm, M, eps)


ANALYZE = ["analyze", "--cesaro-n", 400]


# the sector path at d = 32: the shift has 63 blocks of a 1024 x 1024
# superoperator and fixes nothing, so its basis is an empty stack, and at
# n = 10^6 its iterate matrices are zero matrices; parity-fock holds 512
# fixed-space matrices on each side, written at the cost of their nonzeros
@pytest.mark.parametrize("id, commands", [
    ("shift-0.5-d32", [ANALYZE, ["iterate", "--n", 1000000, "--cesaro-n", 400], ["fixed-space"]]),
    ("parity-0.3-d32", [ANALYZE, ["fixed-space"], ANALYZE + ["--adjoint"],
                        ["fixed-space", "--adjoint"]]),
], ids=["shift-0.5-d32", "parity-0.3-d32"])
def test_d32_commands_write_the_stdlib_encoding(tmp_path, id, commands):
    s = spec(tmp_path, id)
    for command, *args in [["verify"], *commands]:
        run(tmp_path, command, s, *args)


def test_fixed_point_checks_parity_d32():
    # tier-1 runs splitting_check up to d = 16 only.  Three parity-fock
    # channels share a fixed space of dimension d^2 / 2; shifts fix nothing
    pf = {p: corpus.get(f"parity-{p}-d32") for p in (0.3, 0.5, 0.6, 0.7)}
    rep = splitting_check(pf[0.3])
    assert rep.fixed_dim + rep.range_dim == 32 * 32
    assert rep.direct_sum_residual > 1e-8
    decomp = peripheral_decomposition(superoperator(pf[0.3]), cesaro_check_n=400)
    assert peripheral_unitarity_check(decomp) <= 1e-10
    assert hs_fixed_point_symmetry(pf[0.5]).equal
    assert fixed_space_intersection([pf[0.3], pf[0.6]], [0.4, 0.6]).equal
    rep = fixed_space_intersection([pf[0.3], pf[0.5], pf[0.7]], [0.2, 0.3, 0.5])
    assert rep.intersection.dimension == rep.combined_fixed.dimension == 512, rep
    assert rep.equal is True, rep
    shifts = [corpus.get("shift-0.3-d32"), corpus.get("shift-0.6-d32")]
    rep = fixed_space_intersection(shifts, [0.4, 0.6])
    assert rep.intersection.dimension == rep.combined_fixed.dimension == 0, rep


def support(stacks):
    return sum(int(np.count_nonzero(linalg.entry_support([X]))) for X in stacks)


@pytest.mark.parametrize("id", ["shift-0.5-d32", "parity-0.3-d32", "ladder-0.6-d32"])
def test_entry_routes_equal_the_whole_matrix_reference_d32(id):
    # few pairs of nonzero Kraus entries, so the entry routes are taken;
    # each route, forced, equals the whole-matrix reference bit for bit
    ch = corpus.get(id)
    n = ch.dim**2
    assert linalg.by_entries(linalg.kraus_pairs([ch.kraus]), n)
    assert linalg.by_entries(support([superoperator(ch)]), n)
    share_references(id)
    for name in ROUTES:
        with route(name):
            assert_same_routes(ch, FORWARD)
    share_references(None)
    decomp = peripheral_decomposition(superoperator(ch), cesaro_check_n=0)
    assert linalg.by_entries(support(decomp.stable_blocks), n)


# the Hermitian form straight from the Kraus operators: the dense route, a
# 4096 x 4096 superoperator and its form, peaks near 0.94 GB.  The library
# holds parity-fock's 2048 fixed-space vectors as the kernels of its 1 x 1
# blocks; with the dense basis built it peaks near 233 MB, and with its
# analyze report, 84 MB of text written in slices (io.save_json), near 251 MB
@pytest.mark.parametrize("id, code, printed, bound", [
    ("shift-0.5-d64", "from ergochan.cli import main\n"
     "print(main(['analyze', 'shift-0.5-d64.json', '--cesaro-n', '400', '--out', 'r.json']))",
     "0", 300),
    ("parity-0.3-d64", "from ergochan import decay_fit, io, peripheral_decomposition\n"
     "decomp = peripheral_decomposition(io.load_spec('parity-0.3-d64.json'), cesaro_check_n=400)\n"
     "decay_fit(decomp, 40)\nprint(decomp.fixed_space.dimension)", "2048", 160),
    ("parity-0.3-d64", "from ergochan.cli import main\n"
     "print(main(['analyze', 'parity-0.3-d64.json', '--cesaro-n', '400', '--out', 'r.json']))",
     "0", 300),
], ids=["shift-0.5-d64", "parity-0.3-d64", "parity-0.3-d64-analyze"])
def test_d64_peak_rss(tmp_path, id, code, printed, bound):
    spec(tmp_path, id)
    rss, out = peak_rss(tmp_path, code)
    assert out == [printed] and rss < bound, (out, rss)


@pytest.mark.parametrize(
    "id, cesaro_n, atol", [("cube-roots-d24", 400, 1e-10), ("phase-gap-d24", 0, 1e-12)]
)
@SIDES
def test_planted_peripheral_set_d24(tmp_path, id, cesaro_n, atol, side):
    # V_i = U (x) W_i: the cube roots of unity, or a phase gap of 2e-7,
    # above cluster_tol; each cluster's rank is read from its kernel
    case = corpus.BY_ID[id]
    report = run(tmp_path, "analyze", spec(tmp_path, id), "--cesaro-n", cesaro_n, *side)
    peripheral = report["peripheral"]
    lams = [complex(*z) for z in peripheral["lambdas"]]
    assert len(lams) == len(case.peripheral), lams
    for lam, rank in zip(lams, peripheral["projector_ranks"]):
        (want,) = [r for z, r in case.peripheral if abs(lam - z) < atol]
        assert rank == want, (lams, peripheral["projector_ranks"])
    assert set(lams) == {z.conjugate() for z in lams}, lams
    assert report["fixed_space"]["dimension"] == case.fixed_dim


@pytest.mark.parametrize("code, args, text", [
    (3, ["verify", "k.json"], b'{"name": "k", "dim": 2, "kraus": 5}'),
    (2, ["verify", "k.json"], b'{"name": "caf\xe9", "dim": 2}'),
    (3, ["verify", "k.json"], b'{"name": "b", "dim": 2, "catalog": {"entry": "pauli-xy", '
                              b'"params": {"p": true}}}'),
    (3, ["catalog", "ladder", "--param", "g=0.5", "--param", "dim=4.5"], b""),
], ids=["kraus-not-a-list", "spec-not-utf8", "bool-p", "dim-not-integral"])
def test_malformed_spec_exits_without_a_traceback(tmp_path, code, args, text):
    (tmp_path / "k.json").write_bytes(text)
    out = subprocess.run([sys.executable, "-m", "ergochan", *args],
                         cwd=tmp_path, env=ENV, capture_output=True, text=True)
    assert out.returncode == code, out.stderr
    assert any(line.startswith("error: ") for line in out.stderr.splitlines()), out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("id", ["stinespring-24-d24-k2", "ladder-0.7-d32"])
def test_decay_norms_match_per_power_svds(id):
    # the norms come from the top eigenvalue of a Gram matrix per power;
    # here one SVD per block stack and power: one 576 x 576 block at
    # d = 24, the ladder's blocks at d = 32
    decomp = peripheral_decomposition(superoperator(corpus.get(id)), cesaro_check_n=0)
    got = np.array(decay_fit(decomp, 40).norms)
    ref = np.zeros(40)
    for B in decomp.stable_blocks:
        power = B
        for k in range(40):
            if k:
                power = power @ B
            ref[k] = max(ref[k], np.linalg.svd(power, compute_uv=False)[..., 0].max())
    assert np.max(np.abs(got - ref) / ref) <= 1e-13


# the checks tests/test_corpus.py runs on every other case
LARGE = [case for case in corpus.ALL if corpus.large(case)]


@pytest.mark.parametrize("ch, side", [pytest.param(case.channel, side, id=f"{case.id}-{side}")
                                      for case in LARGE for side in case.sides])
def test_fixed_space_and_its_document_share_one_default_cut(ch, side):
    assert_fixed_space_document(ch, side)


@pytest.mark.parametrize("case", [pytest.param(case, id=case.id) for case in LARGE])
def test_kraus_forms_are_real_to_hermiticity_tol(case):
    assert imaginary_share(case) < linalg.HERMITICITY_TOL
