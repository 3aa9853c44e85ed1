"""Input files, the pipeline of each command, and its JSON document.

A channel spec is a JSON document with fields ``name``, ``dim``, and
exactly one of ``kraus`` (a list of dim x dim matrices, each entry a
[re, im] pair) and ``catalog`` (``{"entry": <name>, "params": {...}}``,
built by the model catalog).  A state file holds one dim x dim matrix of
[re, im] pairs.  Unreadable, non-UTF-8 or non-JSON files raise
:class:`SpecFormatError`; a field of the wrong type or shape raises
:class:`SpecValidationError` naming the field.  Documents serialize
complex numbers the same way.  Floats are emitted via ``repr``, the
shortest decimal that round-trips exactly, so serialize -> parse ->
serialize is byte-identical.

The document functions return complex matrices as numpy arrays, a
fixed-space basis as one (m, d, d) stack; :func:`dumps` is the one
writer of their ``[re, im]`` pairs, and ``json.loads(dumps(doc))``
gives the nested-list form (:func:`matrix_to_pairs`).  The writer
formats only the nonzero entries of an array, in one call of the
encoder, and passes its zeros as shared strings, so an array costs in
proportion to its nonzero entries and the text is copied once.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from itertools import chain

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
    """The complex matrix of rows of [re, im] pairs, each exactly two
    finite numbers; a bool is not a number here, as in ``catalog.build``."""
    try:
        entries = list(chain.from_iterable(rows))
        numbers = list(chain.from_iterable(entries))
    except TypeError:
        numbers = None
    if (  # in this order: with an entry there is a row to divide by
        numbers is None
        or not set(map(type, numbers)) <= {int, float}
        or set(map(len, entries)) != {2}
        or set(map(len, rows)) != {len(entries) // len(rows)}
    ):
        raise SpecValidationError(
            f"{context}: must be a matrix of [re, im] pairs of real numbers"
        )
    try:
        values = np.array(numbers, dtype=float)
    except OverflowError:  # an integer beyond the float range
        values = None
    if values is None or not np.all(np.isfinite(values)):  # json reads NaN, 1e400
        raise SpecValidationError(f"{context}: entries must be finite numbers")
    return values.view(complex).reshape(len(rows), -1)


def channel_to_spec(ch: KrausChannel) -> dict:
    """The spec of ``ch``, its Kraus operators as arrays: :func:`parse_spec`
    reads it as it is, and :func:`dumps` writes it as a spec file."""
    return {
        "name": ch.label or "channel",
        "dim": ch.dim,
        "kraus": list(ch.kraus),
    }


def catalog_spec(entry: str, params: dict) -> dict:
    """Spec document that defers to a catalog builder (validated now)."""
    ch = catalog_mod.build(entry, params)  # fail fast on bad entry/params
    return {
        "name": entry,
        "dim": ch.dim,
        "catalog": {"entry": entry, "params": dict(params)},
    }


def _require(value, kind: type, field: str, what: str) -> None:
    if not isinstance(value, kind):
        raise SpecValidationError(f"{field} must be {what}, got {type(value).__name__}")


def parse_spec(doc: dict) -> KrausChannel:
    _require(doc, dict, "spec document", "a JSON object")
    for key in ("name", "dim"):
        if key not in doc:
            raise SpecValidationError(f"spec is missing required field {key!r}")
    has_catalog = "catalog" in doc
    if ("kraus" in doc) == has_catalog:
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
        params = cat.get("params", {})
        _require(cat["entry"], str, "catalog.entry", "a string")
        _require(params, dict, "catalog.params", "a JSON object")
        ch = catalog_mod.build(cat["entry"], params)
        if ch.dim != dim:
            raise SpecValidationError(
                f"catalog channel has dim {ch.dim}, spec says {dim}"
            )
        return KrausChannel(kraus=ch.kraus, label=str(doc["name"]))

    _require(doc["kraus"], list, "kraus", "a list of matrices")
    mats = []
    for k, rows in enumerate(doc["kraus"]):
        # an array is a matrix as channel_to_spec gives it, not yet written
        M = rows if isinstance(rows, np.ndarray) else pairs_to_matrix(rows, f"kraus[{k}]")
        if M.shape != (dim, dim):
            raise SpecValidationError(
                f"kraus[{k}] has shape {M.shape}, expected ({dim}, {dim})"
            )
        mats.append(M)
    if not mats:
        raise SpecValidationError("kraus list must be nonempty")
    return KrausChannel(kraus=tuple(mats), label=str(doc["name"]))


def _read_json(path, what: str):
    """The JSON document in the file at ``path`` (``what`` names it)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecFormatError(f"cannot read {what} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecFormatError(f"{what} file {path} is not UTF-8: {exc}") from exc
    except RecursionError as exc:
        raise SpecFormatError(f"{what} file {path} is nested too deeply") from exc
    except json.JSONDecodeError as exc:
        raise SpecFormatError(
            f"{what} file {path} is not valid JSON (line {exc.lineno}, "
            f"column {exc.colno}): {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise SpecFormatError(f"{what} file {path} is not valid JSON: {exc}") from exc


def load_spec(path) -> KrausChannel:
    return parse_spec(_read_json(path, "spec"))


def load_state(path, dim: int) -> np.ndarray:
    """The dim x dim state matrix in the file at ``path``."""
    X = pairs_to_matrix(_read_json(path, "state"), context="state")
    if X.shape != (dim, dim):
        raise SpecValidationError(f"state has shape {X.shape}, channel dim is {dim}")
    return X


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))`` without
#: building an encoder per call.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def dumps(doc: dict) -> str:
    """Canonical JSON text: sorted keys, compact separators, repr floats,
    on one line.  A numpy array of any ndim is written as
    ``matrix_to_pairs`` of it (:func:`_write_array`), at a cost in
    proportion to its nonzero entries, and every other value by json's C
    encoder (there is no ``indent``), so the text is ``json.dumps(doc,
    sort_keys=True, separators=(",", ":"))`` of the document whose
    arrays are ``matrix_to_pairs`` lists.  The pieces are joined once,
    so no part of the text is copied per level of nesting."""
    parts: list = []
    _write(doc, parts.append)
    return "".join(parts)


def _write(value, put) -> None:
    """Pass the pieces of the JSON text of ``value`` to ``put``, in order:
    an array by :func:`_write_array`, any other value by one call of
    the encoder, unless json meets an array inside it; such a dict (its
    keys strings) or list is written item by item."""
    if isinstance(value, np.ndarray):
        _write_array(value, put)
        return
    try:
        put(_encode(value))
        return
    except TypeError:
        if not isinstance(value, (dict, list, tuple)):
            raise
    if isinstance(value, dict):
        put("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(("," if i else "") + _encode(key) + ":")
            _write(value[key], put)
        put("}")
    else:
        put("[")
        for i, item in enumerate(value):
            put("," if i else "")
            _write(item, put)
        put("]")


#: The text of a zero entry: [+0.0, +0.0].
_ZERO_ENTRY = "[0.0,0.0]"


class _ZeroRuns(dict):
    """The zero texts of an array of shape ``shape``, each built once, on
    first use: ``self[depth, r]`` is r zero elements of an array at
    ``depth`` joined by commas.  The array itself is at depth 0 and its
    rows of entries at depth ndim - 1."""

    def __init__(self, shape: tuple):
        super().__init__()
        self.shape = shape

    def __missing__(self, key) -> str:
        depth, r = key
        if depth == len(self.shape) - 1:
            element = _ZERO_ENTRY
        else:
            element = "[" + self[depth + 1, self.shape[depth + 1]] + "]"
        text = self[key] = ",".join([element] * r)
        return text


def _write_array(M, put) -> None:
    """The pieces of ``json.dumps(matrix_to_pairs(M))``, M of any ndim,
    at a cost in proportion to its nonzero entries.  An entry is zero
    when its re and im bits are all zero (+0.0, not -0.0).  One call of
    the encoder formats the nonzero entries, and its text is split into
    one text per entry; a run of them in one row is joined.  The zero
    entries, rows and matrices around them, and runs of each, are shared
    strings (:class:`_ZeroRuns`), passed as pieces.  An array without a
    zero entry is one call of the encoder."""
    M = np.asarray(M, dtype=complex)
    pairs = np.ascontiguousarray(M).reshape(-1).view(np.float64).reshape(*M.shape, 2)
    bits = pairs.view(np.int64)
    flat = np.flatnonzero(np.logical_or(bits[..., 0], bits[..., 1]))
    if M.ndim == 0 or len(flat) == M.size:
        put(_encode(pairs.tolist()))
        return
    shape, runs = M.shape, _ZeroRuns(M.shape)
    if not len(flat):
        put("[")
        put(runs[0, shape[0]])
        put("]")
        return
    top = len(shape) - 1

    def close(a, level):
        """Close the arrays of depth above ``level`` that hold entry a."""
        for depth in range(top, level, -1):
            rest = shape[depth] - 1 - a[depth]
            if rest:
                put(",")
                put(runs[depth, rest])
            put("]")

    entries = _encode(pairs.reshape(-1, 2)[flat].tolist())[2:-2].split("],[")
    # a segment is a run of consecutive nonzero entries in one row; before
    # each, close the arrays that hold the last entry of the one before,
    # up to the first depth at which the two differ, and open those of
    # its first entry
    starts = np.flatnonzero((np.diff(flat, prepend=-1) != 1) | (flat % shape[-1] == 0))
    ends = np.append(starts[1:], len(flat))
    firsts, lasts = (
        np.stack(np.unravel_index(flat[k], shape), axis=1) for k in (starts, ends - 1)
    )
    levels = np.argmax(firsts[1:] != lasts[:-1], axis=1)
    gaps = zip(chain([None], lasts.tolist()), firsts.tolist(), chain([-1], levels.tolist()))
    for (a, b, level), i, j in zip(gaps, starts.tolist(), ends.tolist()):
        if a is not None:
            close(a, level)
            put(",")
            between = b[level] - a[level] - 1
            if between:
                put(runs[level, between])
                put(",")
        for depth in range(level + 1, top + 1):
            put("[")
            if b[depth]:
                put(runs[depth, b[depth]])
                put(",")
        put("[")
        put("],[".join(entries[i:j]))
        put("]")
    close(lasts[-1].tolist(), -1)


def save_json(doc: dict, path=None) -> None:
    """Write ``dumps(doc)`` and a newline to ``path``, or to stdout, in
    slices of at most 2^20 characters, so the text is never encoded in
    one piece."""
    text = dumps(doc)
    pieces = chain((text[i : i + (1 << 20)] for i in range(0, len(text), 1 << 20)), "\n")
    if not path:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise SpecFormatError(f"cannot write {path}: {exc.strerror or exc}") from exc


def all_ok(verification: dict) -> bool:
    """``VerificationReport.all_ok`` of a verification document."""
    return channel_mod.VerificationReport(**verification).all_ok


def _side(ch: KrausChannel, adjoint: bool):
    """The side, and the channel of phi on it (phi* is that of the V_i^dag):
    the one place a side is picked, as ``ergodic`` takes no side flag."""
    if adjoint:
        return channel_mod.ADJOINT, channel_mod.adjoint_channel(ch)
    return channel_mod.FORWARD, ch


def _basis_doc(fs) -> dict:
    return {"dimension": fs.dimension, "basis": fs.stack}


def verify_channel(ch: KrausChannel, tol: float = linalg.DEFAULT_TOL) -> dict:
    """The ``verify`` document: the fields of ``channel.verify``."""
    return asdict(channel_mod.verify(ch, tol=tol))


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
) -> dict:
    """The ``analyze`` document: the full pipeline on one channel.

    Peripheral eigenvalues are clustered at ``ergodic.DEFAULT_CLUSTER_TOL``
    (recorded under ``tolerances``); the fixed space is the
    decomposition's kernel at lambda = 1, so its dimension is the rank of
    P_1.  The decay certificate norms :data:`DECAY_N_MAX` powers, and the
    residuals are :func:`ergodic.residual_summary`.  The blocks of the
    Hermitian form are built once, from the Kraus operators, for the
    decomposition, and every later stage reads them; ``channel.verify``
    also works from the Kraus operators.
    """
    verification = verify_channel(ch, tol)
    side, phi = _side(ch, adjoint)
    decomp = ergodic.peripheral_decomposition(phi, peripheral_tol, cesaro_check_n=cesaro_n)
    fit = ergodic.decay_fit(decomp, DECAY_N_MAX)
    return {
        "tool_version": __version__,
        "channel": ch.label or "channel",
        "dim": ch.dim,
        "side": side,
        "seed": seed,
        "tolerances": {
            "tol": tol,
            "peripheral_tol": peripheral_tol,
            "cluster_tol": ergodic.DEFAULT_CLUSTER_TOL,
            "cesaro_n": cesaro_n,
        },
        "verification": verification,
        "fixed_space": _basis_doc(decomp.fixed_space),
        "peripheral": {
            "lambdas": [[lam.real, lam.imag] for lam in decomp.lambdas],
            "projector_ranks": list(decomp.projector_ranks),
            "projector_norm": decomp.projector_norm,
        },
        "stable_spectral_radius": decomp.stable_spectral_radius,
        "decay": {"M": fit.M, "epsilon": fit.epsilon, "norms": list(fit.norms)},
        "residuals": ergodic.residual_summary(phi, decomp, seed),
    }


def iterate_channel(
    ch: KrausChannel,
    n: int,
    state=None,
    peripheral_tol: float = ergodic.DEFAULT_PERIPHERAL_TOL,
    cesaro_n: int = ergodic.DEFAULT_CESARO_N,
    adjoint: bool = False,
) -> dict:
    """The ``iterate`` document of phi^n (or phi*^n) at ``state``, by
    default the maximally mixed state.

    ``direct`` is L^n vec(X) by the binary powering of
    :func:`ergodic.power_iterate`, O(log n) products on the blocks of L
    that the decomposition split, and independent of its spectral data;
    ``reconstructed`` is the spectral sum of
    :func:`ergodic.reconstruct_iterate`.  ``disagreement_hs`` is the HS
    norm of their difference, within the drift bound of ``power_iterate``
    (linear in n)."""
    X = np.eye(ch.dim, dtype=complex) / ch.dim if state is None else state
    side, phi = _side(ch, adjoint)
    decomp = ergodic.peripheral_decomposition(phi, peripheral_tol, cesaro_check_n=cesaro_n)
    recon = ergodic.reconstruct_iterate(decomp, n, X)
    direct = ergodic.power_iterate(decomp, n, X)
    return {
        "tool_version": __version__,
        "n": n,
        "side": side,
        "direct": direct,
        "reconstructed": recon,
        "disagreement_hs": linalg.hs_norm(direct - recon),
    }


def fixed_space_channel(
    ch: KrausChannel, tol: float = linalg.DEFAULT_TOL, adjoint: bool = False
) -> dict:
    """The ``fixed-space`` document: an orthonormal basis of Ker(I - L),
    cut at ``tol``."""
    side, phi = _side(ch, adjoint)
    fs = ergodic.fixed_space(phi, tol)
    return {"tool_version": __version__, "side": side, **_basis_doc(fs)}
