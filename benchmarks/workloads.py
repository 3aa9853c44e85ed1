"""Seeded inputs, op lists and oracles for the benchmark workloads.

A workload is built from ``(name, seed, workdir)``: every random channel,
p value and spec file comes from the seed, so the same seed always gives
byte-identical inputs.  The package only ever sees the generated spec
files (CLI workloads) or ``KrausChannel`` objects (``lib-sweep``).

Each op is one CLI command or one sweep point.  ``Op.run`` does the work
that is timed; ``Op.check`` compares what it produced with an oracle
afterwards, outside the timed region.  Closed forms are used where the
channel family has them, otherwise brute-force application of the Kraus
operators (computed here, not by the package) and the decay certificate.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ergochan import catalog, channel, cli, ergodic

WORKLOADS = ("cli-analyze", "cli-verify", "lib-sweep")

# Every option an op depends on is passed explicitly, so a later change
# of a package default does not change the workload.
CESARO_N_SMALL = 10000  # analyze / iterate at d <= 8
CESARO_N_D16 = 400  # analyze at d = 16 (n = 10000 would take ~22 s per op)
ITERATE_N = 10000
SWEEP_CESARO_N = 400
SWEEP_DECAY_N = 40
SWEEP_ITERATES = (1, 10, 100, 1000)
CLI_TOL = "1e-10"
CLI_PERIPHERAL_TOL = "1e-8"
PERIPHERAL_TOL = 1e-8
CLUSTER_TOL = 1e-7

# Oracle tolerances (absolute, relative to O(1) inputs).
ORACLE_TOL = 1e-8
RHO_TOL = 1e-6

# Exit codes of the inputs that fail at this revision of the package
# (ladder: ill-conditioned eigenvectors of a defective stable part;
# pauli-xy at p = 0.999: Cesaro budget ignores the spectral gap).
EXIT_NUMERIC = 4
EXIT_DECOMPOSITION = 5

OK, WRONG, FAILED, KNOWN = "ok", "wrong", "failed", "known_defect"


@dataclass(frozen=True)
class Family:
    """What is known in closed form about one generated channel."""

    kind: str  # pauli-xy | parity-fock | shift | random | sub | ladder
    dim: int
    param: float | None = None  # p for catalog channels, g for ladder
    known_defect_exit: int | None = None

    def lambdas(self) -> list:
        return {
            "pauli-xy": [1.0, -1.0],
            "parity-fock": [1.0],
            "shift": [],
            "random": [1.0],
            "sub": [],
            "ladder": [1.0],
        }[self.kind]

    def fixed_dim(self) -> int:
        return {
            "pauli-xy": 1,
            "parity-fock": self.dim * self.dim // 2,
            "shift": 0,
            "random": 1,
            "sub": 0,
            "ladder": 1,
        }[self.kind]

    def stable_radius(self) -> float | None:
        if self.kind in ("pauli-xy", "parity-fock"):
            return abs(2.0 * self.param - 1.0)
        if self.kind == "ladder":
            return float(np.sqrt(1.0 - self.param))
        return None


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the oracle agrees
    known_defect_exit: int | None = None
    inputs: tuple = ()  # in-memory inputs (lib-sweep), for reproducibility checks


# ---------------------------------------------------------------- inputs


def random_channel(rng: np.random.Generator, d: int, k: int, drop: int = 0):
    """Kraus operators from the QR of a Gaussian (k d) x d matrix (a
    Stinespring isometry); dropping blocks makes it trace-decreasing."""
    G = rng.standard_normal((k * d, d)) + 1j * rng.standard_normal((k * d, d))
    Q, _ = np.linalg.qr(G)
    return [Q[i * d : (i + 1) * d] for i in range(k - drop)]


def ladder_channel(g: float, d: int):
    """Amplitude damping down a d-level ladder; its stable part has a
    Jordan chain at 1 - g and spectral radius sqrt(1 - g)."""
    V0 = np.diag([1.0] + [np.sqrt(1.0 - g)] * (d - 1)).astype(complex)
    V1 = np.sqrt(g) * np.diag(np.ones(d - 1), k=1).astype(complex)
    return [V0, V1]


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random density matrix (PSD, unit trace)."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def random_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))


def _pairs(M) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M)]


def kraus_spec(name: str, kraus) -> dict:
    return {"name": name, "dim": kraus[0].shape[0], "kraus": [_pairs(V) for V in kraus]}


def catalog_spec(name: str, entry: str, params: dict, dim: int) -> dict:
    return {"name": name, "dim": dim, "catalog": {"entry": entry, "params": params}}


def _write(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _p(rng: np.random.Generator) -> float:
    """p away from 0 and 1, so that every stable part has a real gap."""
    return float(rng.uniform(0.2, 0.8))


def _spec_for(rng, kind: str, d: int, param=None):
    """(spec document, Family, Kraus list) for one generated channel."""
    if kind in ("pauli-xy", "parity-fock", "shift"):
        p = _p(rng) if param is None else param
        params = {"p": p} if kind == "pauli-xy" else {"p": p, "dim": d}
        kraus = catalog.build(kind, params).kraus
        defect = EXIT_DECOMPOSITION if kind == "pauli-xy" and p > 0.99 else None
        doc = catalog_spec(f"{kind}-d{d}", kind, params, d)
        return doc, Family(kind, d, p, defect), kraus
    if kind == "ladder":
        g = float(rng.uniform(0.3, 0.7))
        kraus = ladder_channel(g, d)
        return kraus_spec(f"ladder-d{d}", kraus), Family(kind, d, g, EXIT_NUMERIC), kraus
    if kind == "random":
        kraus = random_channel(rng, d, 2)
    else:  # "sub"
        kraus = random_channel(rng, d, 3, drop=1)
    return kraus_spec(f"{kind}-d{d}", kraus), Family(kind, d), kraus


# --------------------------------------------------------------- oracles


def _apply(kraus, X, adjoint: bool) -> np.ndarray:
    if adjoint:
        return sum(V.conj().T @ X @ V for V in kraus)
    return sum(V @ X @ V.conj().T for V in kraus)


def _apply_n(kraus, X, n: int, adjoint: bool = False) -> np.ndarray:
    for _ in range(n):
        X = _apply(kraus, X, adjoint)
    return X


def _from_pairs(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _check_fixed_basis(basis, fam: Family, kraus, adjoint: bool) -> str | None:
    if len(basis) != fam.fixed_dim():
        return f"fixed-space dimension {len(basis)}, expected {fam.fixed_dim()}"
    if not basis:
        return None
    Q = np.column_stack([B.reshape(-1, order="F") for B in basis])
    gram = np.linalg.norm(Q.conj().T @ Q - np.eye(Q.shape[1]))
    if gram > ORACLE_TOL:
        return f"fixed-space basis not orthonormal ({gram:.2e})"
    worst = max(np.linalg.norm(_apply(kraus, B, adjoint) - B) for B in basis)
    if worst > ORACLE_TOL:
        return f"max ||phi(B) - B|| = {worst:.2e} on the fixed-space basis"
    return None


def _check_lambdas(lambdas, fam: Family) -> str | None:
    want = fam.lambdas()
    got = sorted(lambdas, key=lambda z: (-z.real, -z.imag))
    if len(got) != len(want) or any(abs(a - b) > ORACLE_TOL for a, b in zip(got, want)):
        return f"peripheral eigenvalues {got}, expected {want}"
    return None


def _check_rho(rho: float, fam: Family) -> str | None:
    want = fam.stable_radius()
    if want is not None and abs(rho - want) > RHO_TOL:
        return f"rho(S) = {rho:.12g}, expected {want:.12g}"
    return None


def _check_decay(M: float, eps: float, norms) -> str | None:
    if not (eps > 0.0 and np.isfinite(M)):
        return f"decay certificate has eps={eps}, M={M}"
    for k, norm in enumerate(norms):
        if norm > M / (1.0 + eps) ** (k + 1) * (1 + 1e-12):
            return f"decay certificate fails at n={k + 1}"
    return None


def _first(*reasons) -> str | None:
    return next((r for r in reasons if r), None)


def _check_analyze(path: str, fam: Family, kraus, adjoint: bool, code: int):
    if code != 0:
        return f"exit code {code}"
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    ver = doc["verification"]
    bad_flags = [k for k, v in ver.items() if k.endswith("_ok") and v is not True]
    basis = [_from_pairs(B) for B in doc["fixed_space"]["basis"]]
    lambdas = [complex(re, im) for re, im in doc["peripheral"]["lambdas"]]
    recon = doc["residuals"]["reconstruction_n5"]
    dec = doc["decay"]
    return _first(
        bad_flags and f"verification flags {bad_flags} false",
        _check_fixed_basis(basis, fam, kraus, adjoint),
        _check_lambdas(lambdas, fam),
        _check_rho(doc["stable_spectral_radius"], fam),
        _check_decay(dec["M"], dec["epsilon"], dec["norms"]),
        recon > ORACLE_TOL * fam.dim and f"reconstruction_n5 = {recon:.2e}",
    )


def _check_iterate(path: str, fam: Family, X, n: int, adjoint: bool, code: int):
    if code != 0:
        return f"exit code {code}"
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    direct = _from_pairs(doc["direct"])
    recon = _from_pairs(doc["reconstructed"])
    gap = np.linalg.norm(direct - recon)
    expected = None
    if fam.kind == "parity-fock":  # self-adjoint Kraus operators
        expected = catalog.parity_iterate_expected(fam.param, fam.dim, n, X)
    elif fam.kind == "pauli-xy":  # self-adjoint Kraus operators
        pe = catalog.pauli_decomposition_expected(fam.param)
        v = X.reshape(-1, order="F")
        w = sum(lam**n * (P @ v) for lam, P in zip(pe.lambdas, pe.projectors))
        w = w + np.linalg.matrix_power(pe.stable, n) @ v
        expected = w.reshape(fam.dim, fam.dim, order="F")
    return _first(
        doc["n"] != n and f"n = {doc['n']}, expected {n}",
        gap > ORACLE_TOL and f"direct vs reconstructed {gap:.2e}",
        abs(gap - doc["disagreement_hs"]) > ORACLE_TOL
        and "disagreement_hs does not match the returned matrices",
        expected is not None
        and np.linalg.norm(direct - expected) > ORACLE_TOL
        and "iterate disagrees with the closed form",
    )


def _check_verify(path: str, code: int):
    if code != 0:
        return f"exit code {code}"
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    bad_flags = [k for k, v in doc.items() if k.endswith("_ok") and v is not True]
    return _first(
        bad_flags and f"verification flags {bad_flags} false",
        doc["min_choi_eigenvalue"] < -ORACLE_TOL
        and f"min Choi eigenvalue {doc['min_choi_eigenvalue']:.2e}",
        # all cli-verify channels have max(sum V^dag V) = 1 exactly
        abs(doc["max_kraus_sum_eigenvalue"] - 1.0) > ORACLE_TOL
        and f"max kraus-sum eigenvalue {doc['max_kraus_sum_eigenvalue']!r}",
    )


def _check_fixed_space_doc(path: str, fam: Family, kraus, code: int):
    if code != 0:
        return f"exit code {code}"
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    basis = [_from_pairs(B) for B in doc["basis"]]
    return _first(
        doc["dimension"] != len(basis) and "dimension does not match the basis",
        _check_fixed_basis(basis, fam, kraus, adjoint=False),
    )


# -------------------------------------------------------------- op lists


def _cli_op(name: str, argv: list, check, known=None) -> Op:
    def run():
        with contextlib.redirect_stderr(_stdio.StringIO()):
            return cli.main(argv)  # module attribute: traced when wrapped

    return Op(name, run, check, known)


def _cli_analyze(rng, workdir: str) -> list:
    # (kind, d, fixed param); iterate runs on every spec with d <= 8
    plan = [
        ("pauli-xy", 2, None),
        ("pauli-xy", 2, 0.999),
        ("parity-fock", 8, None),
        ("shift", 8, None),
        ("random", 4, None),
        ("random", 8, None),
        ("random", 8, None),
        ("sub", 8, None),
        ("ladder", 4, None),
        ("ladder", 8, None),
        ("parity-fock", 16, None),
        ("shift", 16, None),
        ("random", 16, None),
    ]
    ops = []
    for s, (kind, d, param) in enumerate(plan):
        doc, fam, kraus = _spec_for(rng, kind, d, param)
        spec = _write(os.path.join(workdir, f"spec{s}.json"), doc)
        cesaro = CESARO_N_SMALL if d <= 8 else CESARO_N_D16
        common = ["--cesaro-n", str(cesaro), "--seed", str(s), "--tol", CLI_TOL,
                  "--peripheral-tol", CLI_PERIPHERAL_TOL]
        commands = ["analyze"] + (["iterate"] if d <= 8 else [])
        if commands == ["analyze", "iterate"]:
            X = random_state(rng, d)
            state = _write(os.path.join(workdir, f"state{s}.json"), _pairs(X))
        for command in commands:
            i = len(ops)
            adjoint = i % 8 in (2, 7)  # a quarter of the ops, both commands
            out = os.path.join(workdir, f"out{i}.json")
            argv = [command, spec, *common, "--out", out]
            if adjoint:
                argv.append("--adjoint")
            if command == "analyze":
                check = (lambda code, o=out, f=fam, k=kraus, a=adjoint:
                         _check_analyze(o, f, k, a, code))
            else:
                argv += ["--n", str(ITERATE_N), "--state", state]
                check = (lambda code, o=out, f=fam, x=X, a=adjoint:
                         _check_iterate(o, f, x, ITERATE_N, a, code))
            label = f"{command} {doc['name']}" + (" --adjoint" if adjoint else "")
            ops.append(_cli_op(label, argv, check, fam.known_defect_exit))
    return ops


def _cli_verify(rng, workdir: str) -> list:
    plan = [
        ("random", 4),
        ("parity-fock", 8),
        ("parity-fock", 16),
        ("parity-fock", 24),
        ("shift", 8),
        ("shift", 16),
        ("random", 16),
        ("random", 16),
    ]
    ops = []
    for s, (kind, d) in enumerate(plan):
        doc, fam, kraus = _spec_for(rng, kind, d)
        spec = _write(os.path.join(workdir, f"spec{s}.json"), doc)
        common = ["--seed", str(s), "--tol", CLI_TOL]
        out = os.path.join(workdir, f"verify{s}.json")
        ops.append(_cli_op(
            f"verify {doc['name']}",
            ["verify", spec, *common, "--out", out],
            lambda code, o=out: _check_verify(o, code),
        ))
        out = os.path.join(workdir, f"fixed{s}.json")
        ops.append(_cli_op(
            f"fixed-space {doc['name']}",
            ["fixed-space", spec, *common, "--out", out],
            lambda code, o=out, f=fam, k=kraus: _check_fixed_space_doc(o, f, k, code),
        ))
    return ops


def _sweep_point(ch, fam: Family, X) -> Op:
    def run():
        L = channel.superoperator(ch)
        decomp = ergodic.peripheral_decomposition(
            L,
            peripheral_tol=PERIPHERAL_TOL,
            cluster_tol=CLUSTER_TOL,
            cesaro_check_n=SWEEP_CESARO_N,
        )
        fit = ergodic.decay_fit(decomp.stable, SWEEP_DECAY_N)
        iterates = [ergodic.reconstruct_iterate(decomp, n, X) for n in SWEEP_ITERATES]
        return decomp, fit, iterates

    def check(result):
        decomp, fit, iterates = result
        rho = float(np.max(np.abs(np.linalg.eigvals(decomp.stable))))
        ranks = sum(int(round(np.trace(P).real)) for P in decomp.projectors)
        wrong = _first(
            _check_lambdas(list(decomp.lambdas), fam),
            fam.kind == "parity-fock" and ranks != fam.fixed_dim()
            and f"projector ranks sum to {ranks}",
            _check_rho(rho, fam),
            _check_decay(fit.M, fit.epsilon, fit.norms),
        )
        if wrong:
            return wrong
        for n, Y in zip(SWEEP_ITERATES, iterates):
            if fam.kind == "parity-fock":
                want = catalog.parity_iterate_expected(fam.param, fam.dim, n, X)
            else:
                want = _apply_n(ch.kraus, X, n)
            err = np.linalg.norm(Y - want)
            if err > ORACLE_TOL * fam.dim:
                return f"reconstructed phi^{n}(X) off by {err:.2e}"
        return None

    return Op(f"sweep {ch.label}", run, check, inputs=(*ch.kraus, X))


def _lib_sweep(rng, workdir: str) -> list:
    """Seeded p-grids at d = 16 (one p per stratum of [0.2, 0.8]) and a
    random channel."""
    d, ops = 16, []
    for kind, count in (("parity-fock", 3), ("shift", 1)):
        edges = np.linspace(0.2, 0.8, count + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            p = float(rng.uniform(lo, hi))
            ch = catalog.build(kind, {"p": p, "dim": d})
            ops.append(_sweep_point(ch, Family(kind, d, p), random_matrix(rng, d)))
    ch = channel.KrausChannel(tuple(random_channel(rng, d, 2)), label=f"random(dim={d})")
    ops.append(_sweep_point(ch, Family("random", d), random_matrix(rng, d)))
    return ops


BUILDERS = {
    "cli-analyze": _cli_analyze,
    "cli-verify": _cli_verify,
    "lib-sweep": _lib_sweep,
}


def build(workload: str, seed: int, workdir: str) -> list:
    """Generate the inputs of one workload (writing spec files under
    ``workdir``) and return its op list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(workdir, exist_ok=True)
    return BUILDERS[workload](rng, workdir)


def classify(op: Op, result=None, exc: BaseException | None = None) -> tuple:
    """(outcome, reason) of one finished op."""
    if exc is not None:
        return FAILED, f"{type(exc).__name__}: {exc}"
    if op.known_defect_exit is not None and result == op.known_defect_exit:
        return KNOWN, f"exit code {result} (known defect)"
    if isinstance(result, int) and result != 0:
        return FAILED, f"exit code {result}"
    try:
        reason = op.check(result)
    except Exception as err:  # an unreadable output is a wrong output
        return WRONG, f"oracle could not read the output: {type(err).__name__}: {err}"
    return (WRONG, reason) if reason else (OK, None)
