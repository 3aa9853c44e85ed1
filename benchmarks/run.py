#!/usr/bin/env python3
"""Benchmark of the ergochan CLI and library, end to end and per layer.

Usage, from the root of the repository::

    python3 benchmarks/run.py --workload cli-analyze --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 1

``--workload`` is one of ``cli-analyze``, ``cli-verify``, ``lib-sweep`` or
``all`` (each workload in its own process).  The inputs are generated
from ``--seed``.  One process runs the ops in a closed loop (each op starts
when the previous one has finished), pass after pass, for about
``--seconds`` seconds and at least three passes.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it are a readable summary.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, "_work")
OUTDIR = os.path.join(HERE, "_out")

MIN_PASSES = 3
# One BLAS thread (<= nproc): on a shared machine a second, busy-waiting
# thread makes every timing depend on what else runs on the cores.
BLAS_THREADS = 1
# fresh set-up processes before each of the first MIN_PASSES passes: spread
# over the run, so that their median does not rest on one speed phase of
# the machine
SETUP_REPEATS = 5
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("cli-analyze", "cli-verify", "lib-sweep")

# numpy.linalg calls of one io.analyze_channel(parity-fock(0.3, 16),
# cesaro_n=400) at the revision that defined this benchmark.
SELFCHECK_REFERENCE = {"svd": 127, "eigvals": 4, "eig": 2, "eigvalsh": 2, "cond": 2, "inv": 1}


def bootstrap() -> None:
    """Pin BLAS threads and import ergochan from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "ergochan", "__init__.py")):
        sys.exit(f"error: {SRC}/ergochan not found; run from a full checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [SRC, HERE]
    import ergochan

    if not os.path.abspath(ergochan.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported ergochan from {ergochan.__file__}, not {SRC}")


def environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getter = getattr(lib, sym)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    libc.sysconf.argtypes = [ctypes.c_int]
    # glibc _SC_LEVEL2_CACHE_SIZE = 191, _SC_LEVEL3_CACHE_SIZE = 194
    l2, l3 = (libc.sysconf(k) for k in (191, 194))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": l2 if l2 > 0 else None,
        "l3_bytes": l3 if l3 > 0 else None,
        "loop": "closed, 1 client",
    }


# ------------------------------------------------------------------ passes


def run_pass(ops, tracer=None) -> dict:
    """Run every op once, back to back; check the outputs afterwards."""
    import workloads

    latencies, raw = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        scope = tracer.op(i) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                result, exc = op.run(), None
        except (Exception, SystemExit) as err:  # counted, never aborts a pass
            result, exc = None, err
        latencies.append(time.perf_counter() - t0)
        raw.append((result, exc))
    wall = time.perf_counter() - start
    outcomes = [workloads.classify(op, r, e) for op, (r, e) in zip(ops, raw)]
    return {"wall": wall, "latencies": latencies, "outcomes": outcomes}


def timed_passes(seconds: float, run) -> list:
    """At least MIN_PASSES passes; another one only if it should still
    end within ``seconds``."""
    passes, start = [], time.perf_counter()
    while True:
        passes.append(run(len(passes)))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + passes[-1]["wall"] > seconds:
            return passes


def measure_setup(workload: str, seed: int, repeats: int) -> list:
    """Wall time from starting a fresh process to its ops being ready."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup process failed with code {child.returncode}")
        times.append(t1 - t0)
    return times


# ----------------------------------------------------------------- metrics


def tail_rank(m: int) -> int:
    """The highest whole percentile of the op runs of m ops over the
    minimum number of passes that leaves at least TAIL_BEYOND runs beyond
    it, when each op's runs are taken at its median latency: then whole
    ops lie beyond it, ceil(TAIL_BEYOND / MIN_PASSES) of them."""
    n = MIN_PASSES * m
    beyond = MIN_PASSES * math.ceil(TAIL_BEYOND / MIN_PASSES)
    return max(0, math.floor(100 * (n - beyond) / n))


def tally(ops, passes) -> dict:
    import workloads

    counts = {k: 0 for k in (workloads.OK, workloads.WRONG, workloads.FAILED, workloads.KNOWN)}
    reasons = {}
    for p in passes:
        for op, (outcome, why) in zip(ops, p["outcomes"]):
            counts[outcome] += 1
            if outcome != workloads.OK:
                reasons.setdefault((op.name, outcome), why)
    attempted = sum(counts.values())
    return {
        "attempted": attempted,
        "counts": counts,
        "reasons": reasons,
        "fail_share": (counts[workloads.FAILED] + counts[workloads.KNOWN]) / attempted,
        "wrong_share": counts[workloads.WRONG] / attempted,
    }


def end_to_end(ops, passes, setup_times) -> tuple:
    median_ms = [1000 * statistics.median(p["latencies"][i] for p in passes)
                 for i in range(len(ops))]
    # latencies cover a fixed set of ops, whatever their outcome: every op
    # except the known defects, whose fast exit is counted in fail_share
    timed = [i for i, op in enumerate(ops) if op.known_defect_exit is None] \
        or list(range(len(ops)))
    per_op = sorted(median_ms[i] for i in timed)
    # The tail is read from the op runs of MIN_PASSES passes with each op
    # at its median over passes, so it is one op's median latency.  A
    # single run at the edge of a group of ops of similar cost would follow
    # the machine's speed phases instead (a spread of up to 0.27 over ten
    # runs on cli-verify).
    runs = [ms for ms in per_op for _ in range(MIN_PASSES)]
    q = tail_rank(len(timed))
    if q > 50:
        k = -(-q * len(runs) // 100) - 1
        tail = runs[k]
        how = (f"p{q} of {len(runs)} op runs ({MIN_PASSES} per op, each at the op's median), "
               f"{len(runs) - k - 1} beyond it")
    else:
        tail = per_op[-1]
        how = (f"the slowest op's median: {MIN_PASSES * len(timed)} op runs leave "
               f"no percentile above the median with {TAIL_BEYOND} beyond it")
    metrics = {
        # one pass, op by op the median over passes: a stall in one op of
        # one pass does not move it
        "wall_s": (sum(median_ms) / 1000, "s"),
        "op_p50_ms": (statistics.median(per_op), "ms"),
        "op_tail_ms": (tail, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines = [f"op_p50_ms over the per-op medians of {len(timed)} ops (known defects "
             f"excluded); op_tail_ms is {how}"]
    lines.append("setup_s samples " + " ".join(f"{t:.3f}" for t in setup_times))
    lines += [f"op {i:2d} {ms:10.1f} ms  {op.name}"
              for i, (op, ms) in enumerate(zip(ops, median_ms))]
    return metrics, lines


def per_layer(untraced, traced, spans_by_pass, t) -> dict:
    import tracing

    summaries = [tracing.summarize(spans) for spans in spans_by_pass]
    first = summaries[0]

    def med(f):
        return statistics.median(f(s) for s in summaries)

    out = {}
    for name in ("ergodic.cesaro_average", "channel.choi", "cli.main", "catalog.build",
                 *(f"linalg.{f}" for f in ("null_space", "operator_norm", "spectral_radius",
                                           "eig_general", "eigvals", "svd", "singular_values")),
                 *(f"numpy.linalg.{f}" for f in ("svd", "eig", "eigvals", "eigvalsh",
                                                 "inv", "cond", "matrix_power"))):
        out[f"{name}.calls"] = (first[name]["calls"], "count")
    out["ergodic.cesaro_average.products"] = (first["ergodic.cesaro_average"]["work"], "count")
    out["channel.apply_n.applications"] = (first["channel.apply_n"]["work"], "count")
    out["io.dumps.bytes"] = (first["io.dumps"]["work"], "bytes")
    out["io.calls"] = (sum(r["calls"] for n, r in first.items() if n.startswith("io.")), "count")
    out["numpy.linalg.n3"] = (
        sum(r["work"] for n, r in first.items() if n.startswith("numpy.linalg.")), "count")
    # self time of the layers (and functions) that every workload calls
    for layer in ("ergodic", "channel", "linalg", "numpy.linalg"):
        out[f"{layer}.self_ms"] = (med(lambda s, lay=layer: 1000 * sum(
            r["self_s"] for n, r in s.items() if n.rsplit(".", 1)[0] == lay)), "ms")
    for name in ("channel.superoperator", "linalg.operator_norm", "linalg.singular_values",
                 "numpy.linalg.svd"):
        out[f"{name}.self_ms"] = (med(lambda s, n=name: 1000 * s[n]["self_s"]), "ms")
    base = statistics.median(p["wall"] for p in untraced)
    out["trace.overhead_share"] = (
        (statistics.median(p["wall"] for p in traced) - base) / base, "share")
    out["fail_share"] = (t["fail_share"], "share")
    out["wrong_share"] = (t["wrong_share"], "share")
    return out


def layer_report(spans_by_pass, traced) -> list:
    """Readable per-function table and the layer-split findings."""
    import tracing

    summary = tracing.summarize(spans_by_pass[0])
    wall = traced[0]["wall"]
    lines = [f"{'function':38s} {'calls':>7s} {'self_ms':>10s} {'incl_share':>10s}"]
    for name, row in summary.items():
        if row["calls"]:
            lines.append(f"{name:38s} {row['calls']:7d} {1000 * row['self_s']:10.1f} "
                         f"{row['incl_s'] / wall:10.3f}")
    above = tracing.callers(spans_by_pass[0])
    for target in ("ergodic.cesaro_average", "channel.choi"):
        row = summary[target]
        if not row["calls"]:
            lines.append(f"split: {target} is never called")
            continue
        rivals = [n for n, r in summary.items()
                  if r["calls"] and n != target and n not in above.get(target, ())]
        top = max(rivals, key=lambda n: summary[n]["incl_s"], default=None)
        largest = top is None or row["incl_s"] >= summary[top]["incl_s"]
        lines.append(
            f"split: {target} inclusive share {row['incl_s'] / wall:.3f}; "
            + ("largest apart from its callers" if largest else
               f"below {top} ({summary[top]['incl_s'] / wall:.3f})"))
    io_calls = sum(r["calls"] for n, r in summary.items() if n.startswith("io."))
    lines.append(f"split: io.* called {io_calls} times")
    return lines


def selfcheck() -> str:
    """Count numpy.linalg entry points in one reference analysis."""
    from ergochan import catalog, io

    import tracing

    tracer = tracing.Tracer()
    ch = catalog.parity_fock_channel(0.3, 16)
    with tracer.installed(), tracer.op("selfcheck"):
        io.analyze_channel(ch, cesaro_n=400)
    summary = tracing.summarize(tracer.spans)
    counts = {f: summary[f"numpy.linalg.{f}"]["calls"] for f in SELFCHECK_REFERENCE}
    verdict = "matches" if counts == SELFCHECK_REFERENCE else "differs from"
    return f"selfcheck: analyze parity-fock(0.3,16) numpy.linalg calls {counts} " \
           f"{verdict} the reference {SELFCHECK_REFERENCE}"


# -------------------------------------------------------------------- main


def run_workload(args) -> int:
    bootstrap()
    import tracing
    import workloads

    workdir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        info = [f"env {json.dumps(environment(), sort_keys=True)}"]
        if args.trace:
            info.append(selfcheck())
            tracer = tracing.Tracer()
            untraced, traced, spans_by_pass = [], [], []

            def one(k):
                if k % 2 == 0:
                    untraced.append(run_pass(ops))
                    return untraced[-1]
                with tracer.installed():
                    traced.append(run_pass(ops, tracer))
                spans_by_pass.append(tracer.spans)
                tracer.spans = []
                return traced[-1]

            passes = timed_passes(args.seconds, one)
            t = tally(ops, passes)
            metrics = per_layer(untraced, traced, spans_by_pass, t)
            info += layer_report(spans_by_pass, traced)
            os.makedirs(OUTDIR, exist_ok=True)
            out = os.path.join(OUTDIR, f"spans-{args.workload}-seed{args.seed}.json")
            with open(out, "w", encoding="utf-8") as fh:
                json.dump({"ops": [op.name for op in ops],
                           "fields": ["id", "parent", "name", "op", "start", "end", "work"],
                           "passes": spans_by_pass}, fh)
            info.append(f"spans written to {os.path.relpath(out, ROOT)}")
        else:
            setup_times = []

            def one(k):
                if k < MIN_PASSES:
                    setup_times.extend(measure_setup(args.workload, args.seed, SETUP_REPEATS))
                return run_pass(ops)

            passes = timed_passes(args.seconds, one)
            metrics, lines = end_to_end(ops, passes, setup_times)
            t = tally(ops, passes)
            info += lines
        info.append(f"workload {args.workload} seed {args.seed}: {len(passes)} passes x "
                    f"{len(ops)} ops, outcomes {t['counts']}")
        info.append("pass wall_s " + " ".join(f"{p['wall']:.3f}" for p in passes))
        info.append(f"fail_share {t['fail_share']:.4f} share; wrong_share "
                    f"{t['wrong_share']:.4f} share")
        for (name, outcome), why in sorted(t["reasons"].items()):
            info.append(f"  {outcome}: {name}: {why}")
        for name, (value, unit) in metrics.items():
            info.append(f"metric {name} = {value:.6g} {unit}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in info:
        print(f"# {line}")
    print(json.dumps({
        "correct": t["counts"][workloads.WRONG] == 0,
        "attempted": t["attempted"],
        "failed": t["counts"][workloads.FAILED],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print(f"## {name}")
        for line in lines[:-1]:
            print(line)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
