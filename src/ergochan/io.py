"""Channel spec files, analysis reports, and their JSON serialization.

A channel spec is a JSON document with fields ``name``, ``dim``, and
exactly one of

* ``kraus``: a list of dim x dim matrices, each entry a [re, im] pair;
* ``catalog``: ``{"entry": <name>, "params": {...}}`` routed through the
  model catalog.

Reports serialize complex numbers the same way.  Floats are emitted via
``repr``, the shortest decimal that round-trips exactly, so
serialize -> parse -> serialize is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from . import catalog as catalog_mod
from . import channel as channel_mod
from . import ergodic, linalg
from .channel import KrausChannel
from .errors import SpecFormatError, SpecValidationError


def matrix_to_pairs(M) -> list:
    """Nested [re, im] representation of a complex matrix."""
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], axis=-1).tolist()


def pairs_to_matrix(rows, context: str = "matrix") -> np.ndarray:
    try:
        out = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in rows],
            dtype=complex,
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise SpecValidationError(
            f"{context}: entries must be nested [re, im] pairs ({exc})"
        ) from exc
    if out.ndim != 2:
        raise SpecValidationError(f"{context}: not a 2-d matrix")
    return out


def channel_to_spec(ch: KrausChannel) -> dict:
    return {
        "name": ch.label or "channel",
        "dim": ch.dim,
        "kraus": [matrix_to_pairs(V) for V in ch.kraus],
    }


def catalog_spec(entry: str, params: dict, name: str | None = None) -> dict:
    """Spec document that defers to a catalog builder (validated now)."""
    ch = catalog_mod.build(entry, params)  # fail fast on bad entry/params
    return {
        "name": name or f"{entry}",
        "dim": ch.dim,
        "catalog": {"entry": entry, "params": dict(params)},
    }


def parse_spec(doc: dict) -> KrausChannel:
    if not isinstance(doc, dict):
        raise SpecValidationError("spec document must be a JSON object")
    for key in ("name", "dim"):
        if key not in doc:
            raise SpecValidationError(f"spec is missing required field {key!r}")
    has_kraus = "kraus" in doc
    has_catalog = "catalog" in doc
    if has_kraus == has_catalog:
        raise SpecValidationError(
            "spec must contain exactly one of 'kraus' or 'catalog'"
        )
    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise SpecValidationError(f"dim must be a positive integer, got {dim!r}")

    if has_catalog:
        cat = doc["catalog"]
        if not isinstance(cat, dict) or "entry" not in cat:
            raise SpecValidationError("catalog must be {'entry': ..., 'params': ...}")
        ch = catalog_mod.build(cat["entry"], cat.get("params", {}))
        if ch.dim != dim:
            raise SpecValidationError(
                f"catalog channel has dim {ch.dim}, spec says {dim}"
            )
        return KrausChannel(kraus=ch.kraus, label=str(doc["name"]))

    mats = []
    for k, rows in enumerate(doc["kraus"]):
        M = pairs_to_matrix(rows, context=f"kraus[{k}]")
        if M.shape != (dim, dim):
            raise SpecValidationError(
                f"kraus[{k}] has shape {M.shape}, expected ({dim}, {dim})"
            )
        mats.append(M)
    if not mats:
        raise SpecValidationError("kraus list must be nonempty")
    return KrausChannel(kraus=tuple(mats), label=str(doc["name"]))


def load_spec(path) -> KrausChannel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecFormatError(f"cannot read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFormatError(
            f"spec file {path} is not valid JSON (line {exc.lineno}, "
            f"column {exc.colno}): {exc.msg}"
        ) from exc
    return parse_spec(doc)


def dumps(doc: dict) -> str:
    """Canonical JSON text: sorted keys, compact separators, repr floats,
    on one line.  Without ``indent`` json uses its C encoder."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def save_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))
        fh.write("\n")


@dataclass(frozen=True)
class AnalysisReport:
    """Everything one analysis run produced, JSON-round-trippable."""

    tool_version: str
    channel: str
    dim: int
    side: str
    seed: int
    tolerances: dict
    verification: dict
    fixed_space: dict
    peripheral: dict
    stable_spectral_radius: float
    decay: dict
    residuals: dict

    def to_dict(self) -> dict:
        """The fields as a dict.  Unlike ``dataclasses.asdict`` this does
        not deep-copy the nested lists: the dict shares them with the
        report, and serializes to the same JSON text."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "AnalysisReport":
        return cls(**doc)


#: Number of powers of the stable part that :func:`analyze_channel`
#: norms for its decay certificate.
DECAY_N_MAX = 40


def analyze_channel(
    ch: KrausChannel,
    tol: float = linalg.DEFAULT_TOL,
    peripheral_tol: float = ergodic.DEFAULT_PERIPHERAL_TOL,
    cesaro_n: int = ergodic.DEFAULT_CESARO_N,
    seed: int = 0,
    adjoint: bool = False,
) -> AnalysisReport:
    """Run the full pipeline on one channel and collect the report.

    Peripheral eigenvalues are clustered at
    ``ergodic.DEFAULT_CLUSTER_TOL`` (recorded under ``tolerances``); the
    fixed space is the decomposition's kernel at lambda = 1, so its
    dimension is the rank of P_1.  The Cesaro cross-check runs
    ``cesaro_n`` steps (default ``ergodic.DEFAULT_CESARO_N``) and the
    decay certificate norms :data:`DECAY_N_MAX` powers.
    """
    side = channel_mod.ADJOINT if adjoint else channel_mod.FORWARD
    L = channel_mod.superoperator(ch, side)
    ver = channel_mod.verify(ch, tol=tol)
    decomp = ergodic.peripheral_decomposition(
        L, peripheral_tol=peripheral_tol, cesaro_check_n=cesaro_n
    )
    fit = ergodic.decay_fit(decomp, DECAY_N_MAX)

    # residual summary for the projector algebra and reconstruction
    proj_resid = 0.0
    orth_resid = 0.0
    comm_resid = 0.0
    M = L.matrix
    for i, (lam, P) in enumerate(zip(decomp.lambdas, decomp.projectors)):
        proj_resid = max(proj_resid, linalg.operator_norm(P @ P - P))
        comm_resid = max(
            comm_resid,
            linalg.operator_norm(M @ P - lam * P),
            linalg.operator_norm(P @ M - lam * P),
        )
        for Q in decomp.projectors[i + 1 :]:
            orth_resid = max(orth_resid, linalg.operator_norm(P @ Q))

    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (ch.dim, ch.dim)) + 1j * rng.uniform(-1, 1, (ch.dim, ch.dim))
    direct = channel_mod.apply_n(ch, X, 5, adjoint=adjoint)
    recon = ergodic.reconstruct_iterate(decomp, 5, X)
    recon_resid = linalg.hs_norm(direct - recon)

    return AnalysisReport(
        tool_version=__version__,
        channel=ch.label or "channel",
        dim=ch.dim,
        side=side,
        seed=seed,
        tolerances={
            "tol": tol,
            "peripheral_tol": peripheral_tol,
            "cluster_tol": ergodic.DEFAULT_CLUSTER_TOL,
            "cesaro_n": cesaro_n,
        },
        verification=asdict(ver),
        fixed_space={
            "dimension": decomp.fixed_space.dimension,
            "basis": [matrix_to_pairs(B) for B in decomp.fixed_space.basis],
        },
        peripheral={
            "lambdas": [[lam.real, lam.imag] for lam in decomp.lambdas],
            "projector_ranks": list(decomp.projector_ranks),
            "projector_norm": decomp.projector_norm,
        },
        stable_spectral_radius=decomp.stable_spectral_radius,
        decay={"M": fit.M, "epsilon": fit.epsilon, "norms": list(fit.norms)},
        residuals={
            "projector_idempotency": proj_resid,
            "projector_orthogonality": orth_resid,
            "projector_commutation": comm_resid,
            "reconstruction_n5": recon_resid,
        },
    )
