"""Built-in channel families with closed-form expected answers.

Four families are provided:

* ``pauli-xy``: V1 = sqrt(p) sigma_x, V2 = sqrt(1-p) sigma_y on C^2.
  Everything about it (fixed spaces for p = 0, (0,1), 1; peripheral set
  {1,-1}; stable eigenvalues 2p-1 and 1-2p) is known in closed form.
* ``shift``: V1 = sqrt(p) S_L, V2 = sqrt(1-p) S_R, the left/right shift
  pair on square-summable sequences, truncated to dimension d.  The
  truncation is a hard cutoff at index d-1; the amplitude shifted past
  the cutoff is dropped, which keeps sum V_i^dag V_i <= I.  The
  truncated channel has empty fixed space, consistent with the
  infinite-dimensional model; spectral features near the cutoff are
  truncation artifacts, not physics.
* ``parity-fock``: V1 = sqrt(p) I, V2 = sqrt(1-p) parity, with parity =
  diag((-1)^n) in the truncated number basis.  Iterates act entrywise:
  entries with even row-column gap are preserved, odd-gap entries are
  scaled by (2p-1)^n.
* ``ladder``: amplitude damping down a truncated ladder, V0 =
  diag(1, sqrt(1-g), ..., sqrt(1-g)) and V1 = sqrt(g) sum_k |k-1><k|.
  It is trace preserving with the unique fixed state |0><0|; the
  populations form a Jordan chain at 1 - g, so its stable part is
  defective, with spectral radius sqrt(1-g).

Each function checks its own ``p`` and ``g`` (``linalg.check_probability``)
and ``dim`` (:func:`_check_dim`); :func:`build` matches names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import KrausChannel
from .errors import CatalogLookupError, DomainError
from .linalg import as_operand, check_count, check_probability, vec

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def _check_dim(dim) -> None:
    """Refuse, before anything is allocated, a ``dim`` that is not an
    integer >= 2 or whose complex dim x dim matrix numpy cannot address."""
    check_count(dim, "dim", 2)
    if dim * dim * 16 > np.iinfo(np.intp).max:
        raise DomainError(f"dim = {dim} is too large: numpy cannot address a dim x dim matrix")


def pauli_xy_channel(p: float) -> KrausChannel:
    """phi(X) = p sigma_x X sigma_x + (1-p) sigma_y X sigma_y."""
    check_probability(p, "p", closed=True)
    return KrausChannel(
        kraus=(np.sqrt(p) * SIGMA_X, np.sqrt(1.0 - p) * SIGMA_Y),
        label=f"pauli-xy(p={p})",
    )


def shift_channel(p: float, dim: int) -> KrausChannel:
    """Truncated left/right-shift channel on dimension ``dim``.

    S_L has ones on the superdiagonal, S_R on the subdiagonal, so
    kraus_sum = diag(1-p, 1, ..., 1, p) <= I.
    """
    check_probability(p, "p")
    _check_dim(dim)
    S_L = np.diag(np.ones(dim - 1), k=1).astype(complex)
    S_R = np.diag(np.ones(dim - 1), k=-1).astype(complex)
    return KrausChannel(
        kraus=(np.sqrt(p) * S_L, np.sqrt(1.0 - p) * S_R),
        label=f"shift(p={p},dim={dim})",
    )


def parity_fock_channel(p: float, dim: int) -> KrausChannel:
    """Truncated bosonic parity channel: V2 = sqrt(1-p) diag((-1)^n)."""
    check_probability(p, "p")
    _check_dim(dim)
    parity = np.diag((-1.0) ** np.arange(dim)).astype(complex)
    return KrausChannel(
        kraus=(np.sqrt(p) * np.eye(dim, dtype=complex), np.sqrt(1.0 - p) * parity),
        label=f"parity-fock(p={p},dim={dim})",
    )


def ladder_channel(g: float, dim: int) -> KrausChannel:
    """Amplitude-damping ladder: each step moves |k> to |k-1> with
    probability g (k >= 1) and damps the coherences."""
    check_probability(g, "g")
    _check_dim(dim)
    V0 = np.diag([1.0] + [np.sqrt(1.0 - g)] * (dim - 1))
    V1 = np.sqrt(g) * np.eye(dim, k=1)
    return KrausChannel(kraus=(V0, V1), label=f"ladder(g={g},dim={dim})")


def ladder_fixed_projector(dim: int) -> np.ndarray:
    """Matrix (column stacking) of P_1(X) = Tr(X) |0><0|, the ladder's
    peripheral projector on the forward side; on the adjoint side it is
    the conjugate transpose, X -> <0|X|0> I."""
    _check_dim(dim)
    ground = np.zeros((dim, dim))
    ground[0, 0] = 1.0
    return np.outer(vec(ground), vec(np.eye(dim)))


def ladder_stable_radius(g: float) -> float:
    """rho(S) = sqrt(1-g) of the ladder, either side: the coherences
    |0><k| decay at that rate, the populations at 1 - g."""
    check_probability(g, "g")
    return float(np.sqrt(1.0 - g))


def _coefficient_row(i: int) -> list[int]:
    """Row i of the integer triangle a_j^(i); exact arithmetic."""
    row = [1]
    for k in range(2, i + 1):
        prev = row
        row = [1]
        for j in range(1, k - 1):
            left = prev[j] if j < len(prev) else 0
            row.append(left + prev[j - 1])
        row.append(1 if k % 2 == 1 else 0)
    return row


def f_recursion(i: int, p) -> float:
    """f^(i)(p) = sum_j (-1)^j p^j a_j^(i), the shift-channel fixed-point
    coefficient polynomial.

    The triangle is built in exact integer arithmetic (entries grow like
    binomials) and converted to float only at evaluation.  For a float
    result free of cancellation pass an exact rational ``p`` to
    :func:`f_recursion_exact`: the telescoping identity
    f^(i+1)/p^i - f^(i)/p^(i-1) = ((1-p)/p)^i cancels ~13 digits at
    i = 20 and cannot be checked in double precision directly.
    """
    return float(f_recursion_exact(i, p))


def f_recursion_exact(i: int, p):
    """Exact evaluation of f^(i): returns a Fraction when ``p`` is one."""
    check_count(i, "index", 1)
    row = _coefficient_row(i)
    # Horner in (-p), exact when p is a Fraction
    acc = row[-1] + 0 * p
    for j in range(len(row) - 2, -1, -1):
        acc = acc * (-p) + row[j]
    return acc


def parity_iterate_expected(p: float, d: int, n: int, X) -> np.ndarray:
    """Closed-form phi^n(X) for the parity channel.

    Entry (j, k) is preserved when j - k is even and scaled by
    (2p-1)^n when odd; n = 0 returns X unchanged.
    """
    check_probability(p, "p")
    check_count(d, "d", 2)
    X = as_operand(X, d).astype(complex)
    check_count(n, "n", 0)
    if n == 0:
        return X
    gaps = np.subtract.outer(np.arange(d), np.arange(d))
    factor = np.where(gaps % 2 == 0, 1.0, (2.0 * p - 1.0) ** n)
    return X * factor


@dataclass(frozen=True)
class PauliExpected:
    """Closed-form spectral decomposition of the pauli-xy channel."""

    lambdas: tuple
    projectors: tuple
    stable_eigenvalues: tuple
    stable: np.ndarray
    basis: tuple  # the orthonormal X1..X4


def pauli_decomposition_expected(p: float) -> PauliExpected:
    """Peripheral set {1, -1}, rank-1 projectors onto X1, X2, and the
    stable part (2p-1) |X3><X3| + (1-2p) |X4><X4| (HS rank-1 terms)."""
    check_probability(p, "p")
    X1 = np.eye(2, dtype=complex) / np.sqrt(2)
    X2 = np.diag([-1.0, 1.0]).astype(complex) / np.sqrt(2)
    X3 = SIGMA_X / np.sqrt(2)
    X4 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex) / np.sqrt(2)
    v1, v2, v3, v4 = (vec(X) for X in (X1, X2, X3, X4))
    P1 = np.outer(v1, v1.conj())
    P2 = np.outer(v2, v2.conj())
    stable = (2.0 * p - 1.0) * np.outer(v3, v3.conj()) + (1.0 - 2.0 * p) * np.outer(
        v4, v4.conj()
    )
    return PauliExpected(
        lambdas=(1.0 + 0.0j, -1.0 + 0.0j),
        projectors=(P1, P2),
        stable_eigenvalues=(2.0 * p - 1.0, 1.0 - 2.0 * p),
        stable=stable,
        basis=(X1, X2, X3, X4),
    )


@dataclass(frozen=True)
class CatalogEntry:
    params: tuple
    builder: Callable[..., KrausChannel]


CATALOG = {
    "pauli-xy": CatalogEntry(("p",), pauli_xy_channel),
    "shift": CatalogEntry(("p", "dim"), shift_channel),
    "parity-fock": CatalogEntry(("p", "dim"), parity_fock_channel),
    "ladder": CatalogEntry(("g", "dim"), ladder_channel),
}


def build(entry: str, params: dict) -> KrausChannel:
    """Instantiate a catalog channel by name, for the channel-file loader;
    an integral float ``dim`` (from ``--param dim=8``) is passed as int."""
    if entry not in CATALOG:
        raise CatalogLookupError(
            f"unknown catalog entry {entry!r}; known: {sorted(CATALOG)}"
        )
    meta = CATALOG[entry]
    missing = [k for k in meta.params if k not in params]
    extra = [k for k in params if k not in meta.params]
    if missing or extra:
        raise DomainError(
            f"catalog entry {entry!r} takes params {meta.params}; "
            f"missing {missing}, unexpected {extra}"
        )
    kwargs = {k: params[k] for k in meta.params}
    if isinstance(kwargs.get("dim"), float) and kwargs["dim"].is_integer():
        kwargs["dim"] = int(kwargs["dim"])
    return meta.builder(**kwargs)
