"""Quantum operations in Kraus form and their superoperator matrices.

A channel acts on d x d matrices as ``phi(X) = sum_i V_i X V_i^dag`` and
its adjoint under the trace pairing as ``phi*(A) = sum_i V_i^dag A V_i``,
the channel of the V_i^dag (:func:`adjoint_channel`).  Under the
column-stacking convention of :mod:`ergochan.linalg` the matrix of
``phi`` (:func:`superoperator`, a plain d^2 x d^2 ndarray) is ``sum_i
conj(V_i) kron V_i``, and so the matrix of ``phi*`` is ``sum_i V_i^T
kron V_i^dag``.  ``FORWARD`` and ``ADJOINT`` name the two sides in
reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError, DomainError
from .linalg import DEFAULT_TOL

FORWARD = "forward"
ADJOINT = "adjoint"


@dataclass(frozen=True)
class KrausChannel:
    """A finite Kraus family {V_i} on a d-dimensional space.

    Only finite families are representable; infinite Kraus sums are
    approximated upstream by truncation, never here.  The constructor,
    the one way in, keeps read-only copies of the V_i once checked.
    """

    kraus: tuple
    label: str = ""

    def __post_init__(self):
        # copies: as_matrix returns a float64 or complex128 input itself,
        # which must neither change under the channel nor be frozen
        mats = tuple(linalg.as_matrix(V).copy() for V in self.kraus)
        if not mats:
            raise DomainError("Kraus family must be nonempty")
        d = mats[0].shape[0]
        for V in mats:
            if V.shape != (d, d):
                raise DimensionError(
                    f"all Kraus operators must be {d}x{d}, got {V.shape}"
                )
        # every entry of L, of its Hermitian form and of sum V^dag V is at
        # most twice sum_i ||V_i||_F^2, so that sum must stay finite times 4
        if not 4.0 * sum(float(np.vdot(V, V).real) for V in mats) < math.inf:
            with np.errstate(over="ignore"):
                largest = max(float(np.max(np.abs(V))) for V in mats)
            raise DomainError("Kraus operators overflow: 4 sum_i ||V_i||_F^2 is not a finite "
                              f"float (largest |V_ij| = {largest:.3e})")
        for V in mats:
            V.setflags(write=False)
        object.__setattr__(self, "kraus", mats)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]


@dataclass(frozen=True)
class VerificationReport:
    """Channel-axiom check results; flags are pure functions of the
    numeric fields and the tolerance."""

    cp_ok: bool
    min_choi_eigenvalue: float
    trace_nonincreasing_ok: bool
    max_kraus_sum_eigenvalue: float
    tol: float

    @property
    def all_ok(self) -> bool:
        return self.cp_ok and self.trace_nonincreasing_ok


def apply(ch: KrausChannel, X) -> np.ndarray:
    """phi(X) = sum_i V_i X V_i^dag."""
    return apply_n(ch, X, 1)


def apply_adjoint(ch: KrausChannel, A) -> np.ndarray:
    """phi*(A) = sum_i V_i^dag A V_i."""
    return apply_n(ch, A, 1, adjoint=True)


def apply_n(ch: KrausChannel, X, n: int, adjoint: bool = False) -> np.ndarray:
    """n-fold direct application (the brute-force iterate oracle) of phi,
    or of phi* when ``adjoint``; X is validated and the ``V^dag`` are
    formed once, not on every step.  n = 0 returns X; an n that is not an
    integer >= 0 raises :class:`DomainError` (:func:`linalg.check_count`)."""
    d = ch.dim
    out = linalg.as_operand(X, d)
    linalg.check_count(n, "n", 0)
    daggers = [V.conj().T for V in ch.kraus]
    if adjoint:
        pairs = list(zip(daggers, ch.kraus))  # V^dag A V
    else:
        pairs = list(zip(ch.kraus, daggers))  # V X V^dag
    for _ in range(n):
        acc = np.zeros((d, d), dtype=complex)
        for left, right in pairs:
            acc += left @ out @ right
        out = acc
    return out


def kraus_sum(ch: KrausChannel) -> np.ndarray:
    """sum_i V_i^dag V_i, symmetrized against round-off."""
    d = ch.dim
    out = np.zeros((d, d), dtype=complex)
    for V in ch.kraus:
        out += V.conj().T @ V
    return linalg.hermitize(out)


def adjoint_channel(ch: KrausChannel) -> KrausChannel:
    """The Kraus family {V_i^dag} of phi*, under the same label."""
    return KrausChannel(tuple(V.conj().T for V in ch.kraus), ch.label)


def superoperator(ch: KrausChannel) -> np.ndarray:
    """The complex d^2 x d^2 matrix ``sum_i conj(V_i) kron V_i`` of phi;
    that of phi* is ``superoperator(adjoint_channel(ch))``."""
    return linalg.kraus_superoperator(ch.kraus)


def choi(ch: KrausChannel) -> np.ndarray:
    """Choi matrix C = sum_ij E_ij kron phi(E_ij); PSD iff CP."""
    return choi_from_superoperator(superoperator(ch))


def choi_from_superoperator(L) -> np.ndarray:
    """Choi matrix of an arbitrary superoperator matrix.

    Also accepts non-CP maps injected as raw matrices (e.g. the
    transpose map), which is how negative CP witnesses are tested.
    ``C = sum_ij E_ij kron phi(E_ij)`` has entry
    ``C[i*d + a, j*d + b] = phi(E_ij)[a, b] = L[b*d + a, j*d + i]``, so C
    is a reshuffle of the entries of L (the natural-to-Choi
    representation change): no arithmetic, hence exact.
    """
    L = linalg._require_square(linalg.as_matrix(L), "superoperator matrix")
    n = len(L)
    d = linalg._side(n)
    return L.reshape(d, d, d, d, order="F").transpose(2, 0, 3, 1).copy().reshape(n, n)


def transpose_superoperator(d: int) -> np.ndarray:
    """Matrix of X -> X^T: the canonical non-CP witness.

    The permutation matrix with vec(X^T)[i*d + j] = vec(X)[j*d + i]; a
    ``d`` that is not an integer >= 1 raises :class:`DomainError`.
    """
    linalg.check_count(d, "d", 1)
    perm = np.arange(d * d).reshape(d, d).T.reshape(-1)
    return np.eye(d * d)[perm]


def min_choi_eigenvalue(C) -> float:
    return float(np.linalg.eigvalsh(linalg.hermitize(C))[0])


def verify(ch: KrausChannel, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check the channel axioms exactly, from the d x d Kraus operators.

    CP: the Choi matrix of a Kraus family is ``K K^H`` with ``K = [vec V_1
    ... vec V_k]`` (Choi, Linear Algebra Appl. 10 (1975) 285), so its
    least eigenvalue is 0 when k < d^2 and ``sigma_min(K)^2`` otherwise:
    never negative, as a Kraus family is CP by construction.  (Raw
    matrices that may not be CP are witnessed by :func:`min_choi_eigenvalue`
    of :func:`choi_from_superoperator`.)  Trace non-increase:
    ``lambda_max(sum V^dag V) <= 1``.  By Russo-Dye ``||phi*||_{inf->inf}
    = ||phi*(I)|| = lambda_max(sum V^dag V)``, and the trace-norm bound
    ``||phi||_{1->1}`` is its dual, so this is also contraction in both
    norms.  No d^2 x d^2 matrix is formed.  A ``tol`` that is not finite
    and > 0 raises :class:`DomainError` (:func:`linalg.check_tol`).
    """
    linalg.check_tol(tol)
    d = ch.dim
    lam_min = 0.0
    if len(ch.kraus) >= d * d:
        K = np.column_stack([linalg.vec(V) for V in ch.kraus])
        lam_min = float(linalg.singular_values(K)[-1]) ** 2
    lam_max = float(np.linalg.eigvalsh(kraus_sum(ch))[-1])
    return VerificationReport(
        cp_ok=lam_min >= -tol,
        min_choi_eigenvalue=lam_min,
        trace_nonincreasing_ok=lam_max <= 1.0 + tol,
        max_kraus_sum_eigenvalue=lam_max,
        tol=tol,
    )
