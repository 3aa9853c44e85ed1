"""Spans around calls into each layer, recorded from outside the package.

The tracer replaces public functions by wrappers through their module
attribute (``setattr(module, name, wrapper)``).  Calls inside
``ergochan`` resolve these names through module attributes or module
globals at call time, so the wrappers see them without any change to
the package; ``uninstall`` puts the original objects back.

A span is recorded only while an op is active (``with tracer.op(i)``),
so the benchmark's own oracle work never shows up.  Spans stay in
memory as tuples ``(span_id, parent_id, name, op_id, start, end, work)``
and are written out by the caller when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

from ergochan import catalog, channel, cli, ergodic, io, linalg


def _n_arg(index: int, key: str):
    """Work = the integer argument ``key`` (position ``index``)."""

    def work(args, kwargs, result):
        return int(kwargs[key] if key in kwargs else args[index])

    return work


def _n_cubed(args, kwargs, result):
    """Work of a factorisation = n^3 for its largest matrix dimension."""
    a = np.asarray(args[0]) if args else None
    return int(max(a.shape[-2:])) ** 3 if a is not None and a.ndim >= 2 else 0


def _text_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


# (module, layer name, functions, optional work function per function)
TARGETS = (
    (ergodic, "ergodic", (
        "cesaro_average", "peripheral_spectrum", "spectral_projectors",
        "stable_part", "peripheral_decomposition", "fixed_space",
        "decay_fit", "reconstruct_iterate",
    ), {"cesaro_average": _n_arg(2, "n")}),
    (channel, "channel", (
        "choi", "choi_from_superoperator", "verify", "superoperator", "apply_n",
    ), {"apply_n": _n_arg(2, "n")}),
    (linalg, "linalg", (
        "null_space", "column_space", "operator_norm", "spectral_radius",
        "eig_general", "eigvals", "svd", "singular_values",
    ), {}),
    (np.linalg, "numpy.linalg", (
        "svd", "eig", "eigvals", "eigvalsh", "inv", "cond", "matrix_power",
    ), dict.fromkeys(
        ("svd", "eig", "eigvals", "eigvalsh", "inv", "cond", "matrix_power"),
        _n_cubed,
    )),
    (io, "io", ("load_spec", "analyze_channel", "matrix_to_pairs", "dumps"),
     {"dumps": _text_bytes}),
    (cli, "cli", ("main",), {}),
    (catalog, "catalog", ("build",), {}),
)

NAMES = tuple(f"{layer}.{fn}" for _, layer, fns, _ in TARGETS for fn in fns)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._originals: list = []
        self._stack: list = []
        self._op = None
        self._next_id = 0

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module, layer, fns, work in TARGETS:
            for fn in fns:
                orig = getattr(module, fn)
                self._originals.append((module, fn, orig))
                setattr(module, fn, self._wrap(f"{layer}.{fn}", orig, work.get(fn)))

    def uninstall(self) -> None:
        for module, fn, orig in reversed(self._originals):
            setattr(module, fn, orig)
        self._originals.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def op(self, op_id):
        self._op = op_id
        try:
            yield
        finally:
            self._op = None
            self._stack.clear()

    def _wrap(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                amount = work(args, kwargs, result) if work and result is not None else 0
                self.spans.append((span_id, parent, name, self._op, start, end, amount))

        return traced


def summarize(spans) -> dict:
    """Per-function totals: calls, work, self seconds and inclusive
    seconds (nested calls of the same function counted once)."""
    by_id = {s[0]: s for s in spans}
    child_time: dict = {}
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {name: {"calls": 0, "work": 0, "self_s": 0.0, "incl_s": 0.0} for name in NAMES}
    for sid, parent, name, _, start, end, amount in spans:
        row = out[name]
        row["calls"] += 1
        row["work"] += amount
        row["self_s"] += (end - start) - child_time.get(sid, 0.0)
        ancestor = parent
        while ancestor is not None and by_id[ancestor][2] != name:
            ancestor = by_id[ancestor][1]
        if ancestor is None:
            row["incl_s"] += end - start
    return out


def callers(spans) -> dict:
    """Function name -> set of names that appear above it in some span."""
    by_id = {s[0]: s for s in spans}
    out: dict = {}
    for _, parent, name, *_ in spans:
        seen = out.setdefault(name, set())
        while parent is not None:
            seen.add(by_id[parent][2])
            parent = by_id[parent][1]
    return out
