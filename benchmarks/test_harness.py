"""Tests of the benchmark harness itself (inputs, tracer, accounting).

Run with ``PYTHONPATH=src python -m pytest benchmarks``.  They build the
op lists and trace tiny ops only; no workload is timed.
"""

import json
import os
import statistics

import numpy as np
import pytest

import run
import tracing
import workloads
from ergochan import catalog, channel, cli, ergodic, io, linalg


def _inputs(workload, seed, workdir):
    """Every generated input of one workload, as bytes."""
    ops = workloads.build(workload, seed, str(workdir))
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            files[name] = fh.read()
    arrays = [np.asarray(a).tobytes() for op in ops for a in op.inputs]
    return [op.name for op in ops], files, arrays


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_byte_identical_for_a_seed(workload, tmp_path):
    first = _inputs(workload, 7, tmp_path / "a")
    assert first == _inputs(workload, 7, tmp_path / "b")
    assert first != _inputs(workload, 8, tmp_path / "c")
    assert first[1] or first[2]  # something was generated


def _originals():
    return {
        (module.__name__, fn): getattr(module, fn)
        for module, _, fns, _ in tracing.TARGETS
        for fn in fns
    }


def _pauli_spec(tmp_path):
    path = tmp_path / "pauli.json"
    path.write_text(json.dumps(workloads.catalog_spec("pauli", "pauli-xy", {"p": 0.3}, 2)))
    return str(path)


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = _originals()
    spec, out = _pauli_spec(tmp_path), str(tmp_path / "out.json")
    op = workloads.Op(
        "fixed-space pauli",
        lambda: cli.main(["fixed-space", spec, "--out", out]),
        lambda code: None if code == 0 else f"exit {code}",
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main is not before[("ergochan.cli", "main")]
        result = run.run_pass([op], tracer)
    assert _originals() == before
    assert all(getattr(m, fn) is before[(m.__name__, fn)]
               for m, _, fns, _ in tracing.TARGETS for fn in fns)
    assert result["outcomes"] == [(workloads.OK, None)]
    names = {span[2] for span in tracer.spans}
    assert {"cli.main", "io.load_spec", "catalog.build", "ergodic.fixed_space",
            "linalg.null_space", "numpy.linalg.svd", "io.dumps"} <= names
    # every parent span belongs to the same op and encloses its child
    by_id = {s[0]: s for s in tracer.spans}
    for sid, parent, _, op_id, start, end, _ in tracer.spans:
        if parent is not None:
            assert by_id[parent][3] == op_id
            assert by_id[parent][4] <= start <= end <= by_id[parent][5]


def test_tracer_restores_attributes_when_an_op_raises():
    before = _originals()
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed(), tracer.op(0):
            ergodic.fixed_space(channel.superoperator(catalog.pauli_xy_channel(0.3)))
            1 / 0
    assert _originals() == before


def test_counter_sees_entry_points_only():
    tracer = tracing.Tracer()
    A = np.arange(16.0).reshape(4, 4) + np.eye(4)
    with tracer.installed(), tracer.op(0):
        np.linalg.svd(A)
        np.linalg.cond(A)  # calls svd internally: not an entry point
        linalg.operator_norm(A)
    summary = tracing.summarize(tracer.spans)
    assert summary["numpy.linalg.svd"]["calls"] == 2
    assert summary["numpy.linalg.cond"]["calls"] == 1
    assert summary["numpy.linalg.svd"]["work"] == 2 * 4**3
    assert summary["linalg.operator_norm"]["calls"] == 1
    # self time excludes the child span, inclusive time includes it
    norm, sv = summary["linalg.operator_norm"], summary["linalg.singular_values"]
    assert norm["incl_s"] >= sv["incl_s"] and norm["self_s"] <= norm["incl_s"]


def test_non_ergochan_exception_counts_as_failed():
    def boom():
        raise RuntimeError("not an ergochan error")

    ops = [
        workloads.Op("boom", boom, lambda r: None),
        workloads.Op("fine", lambda: 0, lambda r: None),
        workloads.Op("exit", lambda: 3, lambda r: None),
    ]
    passes = [run.run_pass(ops), run.run_pass(ops)]
    t = run.tally(ops, passes)
    assert t["attempted"] == 6
    assert t["counts"][workloads.FAILED] == 4
    assert t["fail_share"] == pytest.approx(4 / 6)
    assert t["wrong_share"] == 0.0
    assert t["reasons"][("boom", workloads.FAILED)].startswith("RuntimeError")


def test_known_defect_and_wrong_outputs_are_told_apart():
    known = workloads.Op("ladder", lambda: 4, lambda r: None, known_defect_exit=4)
    wrong = workloads.Op("wrong", lambda: 0, lambda r: "disagrees with the oracle")
    t = run.tally([known, wrong], [run.run_pass([known, wrong])])
    assert t["counts"][workloads.KNOWN] == 1
    assert t["counts"][workloads.WRONG] == 1
    assert t["fail_share"] == 0.5 and t["wrong_share"] == 0.5


def test_tail_rank_leaves_ten_op_runs_beyond_it():
    for m in (7, 14, 16, 17, 21, 23, 40):
        q = run.tail_rank(m)
        n = run.MIN_PASSES * m

        def beyond(pct):  # runs past the nearest-rank value, whole ops at a time
            k = -(-pct * n // 100) - 1
            return n - run.MIN_PASSES * (k // run.MIN_PASSES + 1)

        assert beyond(q) >= run.TAIL_BEYOND
        assert beyond(q + 1) < run.TAIL_BEYOND


def _fixed_passes(latencies_s, outcomes=None):
    """Passes with given op latencies, one list per pass."""
    return [{"wall": sum(lat), "latencies": lat, "outcomes": outcomes} for lat in latencies_s]


def test_latencies_cover_the_ops_by_identity_not_outcome():
    fine = workloads.Op("fine", lambda: 0, lambda r: None)
    broken = workloads.Op("broken", lambda: 1, lambda r: None)
    known = workloads.Op("ladder", lambda: 4, lambda r: None, known_defect_exit=4)
    passes = _fixed_passes([[0.1, 0.3, 0.001]] * 3)
    e2e, _ = run.end_to_end([fine, broken, known], passes, [0.5])
    # the failing op is timed, the known defect is not
    assert e2e["op_p50_ms"][0] == pytest.approx(200.0)
    assert e2e["wall_s"][0] == pytest.approx(0.401)


def test_tail_is_an_op_median_and_never_below_the_median():
    ops = [workloads.Op(f"op{i}", lambda: 0, lambda r: None) for i in range(20)]
    # op i takes about i + 1 ms; one slow pass does not move any op's median
    lat = [[(i + 1) / 1000 + k / 1e5 for i in range(20)] for k in range(4)]
    lat[1] = [3 * x for x in lat[1]]
    e2e, _ = run.end_to_end(ops, _fixed_passes(lat), [0.5])
    medians = [1000 * statistics.median(p[i] for p in lat) for i in range(20)]
    beyond = [m for m in medians if m > e2e["op_tail_ms"][0]]
    assert run.tail_rank(20) == 80  # 12 of the 60 op runs of three passes beyond it
    assert e2e["op_tail_ms"][0] == pytest.approx(medians[15])
    assert run.MIN_PASSES * len(beyond) >= run.TAIL_BEYOND
    # too few ops for a tail above the median: the slowest op's median
    few = ops[:5]
    e2e, _ = run.end_to_end(few, _fixed_passes([x[:5] for x in lat[:3]]), [0.5])
    assert e2e["op_tail_ms"][0] == pytest.approx(5.02)
    assert e2e["op_tail_ms"][0] > e2e["op_p50_ms"][0]


def test_io_is_not_touched_by_a_sweep_point():
    # a lib-sweep point at a small dimension, so that the test is quick
    ch = catalog.parity_fock_channel(0.3, 4)
    X = workloads.random_matrix(np.random.default_rng(0), 4)
    point = workloads._sweep_point(ch, workloads.Family("parity-fock", 4, 0.3), X)
    tracer = tracing.Tracer()
    with tracer.installed():
        result = run.run_pass([point], tracer)
    assert result["outcomes"] == [(workloads.OK, None)]
    names = {span[2] for span in tracer.spans}
    assert not any(n.startswith(("io.", "cli.")) or n == "channel.choi" for n in names)
    assert io.dumps is _originals()[("ergochan.io", "dumps")]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == workloads.WORKLOADS
    ops = [workloads.Op("fine", lambda: 0, lambda r: None)]
    passes = [run.run_pass(ops), run.run_pass(ops)]
    e2e, _ = run.end_to_end(ops, passes, [0.5])
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    t = run.tally(ops, passes)
    layer = run.per_layer(passes[:1], passes[1:], [[]], t)
    assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == u for k, (_, u) in {**e2e, **layer}.items())
