"""Ergodic analysis of power-bounded superoperators.

Given a quantum operation, as its Kraus operators or as its matrix L,
the iterates split as

    L^n = sum_lambda lambda^n P_lambda  +  S^n

where lambda runs over the peripheral spectrum (unit-modulus
eigenvalues), P_lambda are the associated spectral projectors, and the
stable remainder S has spectral radius < 1 so its powers decay
geometrically.  This module computes each piece and cross-checks the
spectral construction against Cesaro averaging, which converges to the
same projectors at rate O(1/n).

Every stage runs on the exact diagonal blocks of the real Hermitian
form of L, which :func:`_sectors` builds once per input.  From a
:class:`channel.KrausChannel` it builds them from the Kraus operators,
without the d^2 x d^2 matrix L where they have enough zeros, and from
the matrix L (``channel.superoperator``) from its entries where it has
enough zeros; otherwise the form is changed to the Hermitian basis
whole.  The dense projectors and stable part go back from the block
entries by the same rule.  All routes give the same bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import channel as channel_mod
from . import linalg
from .errors import (
    DecompositionFailureError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    IllConditionedDecompositionError,
    NumericError,
    SplittingViolationError,
)

DEFAULT_PERIPHERAL_TOL = 1e-8
DEFAULT_CLUSTER_TOL = 1e-7

#: Length of the Cesaro cross-check of :func:`peripheral_decomposition`,
#: of ``io.analyze_channel`` and of the CLI's ``--cesaro-n``.
DEFAULT_CESARO_N = 10000

#: The Cesaro cross-check at length n accepts a residual up to
#: ``CESARO_CHECK_FACTOR / n * max(1, ||L||)``.
CESARO_CHECK_FACTOR = 50.0

#: Error bound of :func:`power_iterate` in units of n * d * u * ||X||_HS,
#: u = 2^-53: twice the largest ratio measured (see its docstring).
POWER_DRIFT = 4.0

#: :func:`_kernel_projectors` needs sigma_m < SEPARATION sigma_{m+1} of L - lambda,
#: m the cluster's size.  Over 2687 decisions (tests, benchmark workloads) accepted
#: ratios are at most 8.3e-7; every refusal was a Jordan coupling above the cut.
SEPARATION = 1e-3

#: :func:`decay_fit` puts 1 + eps at ``(1 - DECAY_MARGIN) / rho(S)``.
DECAY_MARGIN = 1e-3


def _as_matrix(L, stack: bool = False) -> np.ndarray:
    """Accept a square matrix, and with ``stack`` also a stack (m, k, k)
    of square matrices; a channel or decomposition raises naming its kind."""
    if isinstance(L, (channel_mod.KrausChannel, PeripheralDecomposition)):
        raise DimensionError(f"expected a superoperator matrix, got a {type(L).__name__}")
    M = linalg.as_stack(L) if stack else linalg.as_matrix(L)
    return linalg._require_square(M, "superoperator matrix")


def _ct(X) -> np.ndarray:
    """Conjugate transpose of a matrix or of each member of a stack."""
    return X.conj().swapaxes(-1, -2)


def _sectors(L, *more) -> tuple:
    """``(d, layout, stacks)``: the one place an input becomes the form
    every stage runs on.

    L is a :class:`channel.KrausChannel`, its d^2 x d^2 matrix
    (``channel.superoperator``), or a :class:`PeripheralDecomposition`; a
    matrix of another shape raises :class:`DimensionError`.  Its
    Hermitian form A = B^H L B is real when L preserves Hermiticity, as
    every quantum operation does; an imaginary part above
    :data:`linalg.HERMITICITY_TOL` times the largest entry of A raises
    :class:`DomainError`, before anything is factorised, and the real
    part of A is kept.  The change of basis is unitary, so every stage
    runs on A, and results map back through
    ``linalg.from_hermitian_blocks``, or from coordinates to d x d
    matrices through ``linalg.matrices_from_hermitian_columns`` only.
    ``layout`` holds the exact diagonal blocks of A
    (:class:`linalg.BlockLayout`), the components of its support, and
    ``stacks`` is A held as its stacks.

    One entry rule (:func:`linalg.by_entries`) serves both inputs.  Where
    it says so, the input is held by its entries that may be nonzero, in
    the one entry form ``(p, q, values)`` of :func:`linalg.kraus_entries`:
    for a Kraus channel those of L from the pairs of nonzeros of each
    V_i, without forming L (:func:`linalg.kraus_entries`), and for a
    matrix its entries that are not +0 (:func:`linalg.entry_support`).
    The entries of A that may be nonzero come from them by the one quad
    stage (:func:`linalg.form_entries`).  The blocks are then the
    components of the nonzero ones (:func:`linalg.components`), and the
    stacks are filled from them (:meth:`linalg.BlockLayout.split_entries`).
    Where that costs more, as for an input without zeros, A is built
    whole, from the Kronecker sum (:func:`linalg.kraus_hermitian_form`)
    or from the matrix (:func:`linalg.to_hermitian_basis`), and split by
    the components of its nonzeros (:func:`linalg.support_components`).
    Every route gives, bit for bit, the layout and stacks of the whole
    route on ``channel.superoperator``.  The adjoint phi* is the channel
    of the V_i^dag (``channel.adjoint_channel``).  A
    :class:`PeripheralDecomposition` gives its own ``dim``, ``layout``
    and ``operator_blocks``.

    With ``more`` maps of L's kind and size the result is ``(d, layout,
    stacks, more_stacks...)``: the layout is that of the union of the
    supports of all the forms, which is block diagonal for each of them.
    A decomposition with ``more``, or maps of mixed kinds, dimensions or
    sizes, raise :class:`DimensionError`.
    """
    if isinstance(L, PeripheralDecomposition) and not more:
        return L.dim, L.layout, L.operator_blocks
    maps = (L, *more)
    if len({isinstance(M, channel_mod.KrausChannel) for M in maps}) > 1:
        kinds = [type(M).__name__ for M in maps]
        raise DimensionError(f"a mix of channels and matrices: {kinds}")
    if isinstance(L, channel_mod.KrausChannel):
        if len({ch.dim for ch in maps}) != 1:
            raise DimensionError(f"channels of different dimensions: {[ch.dim for ch in maps]}")
        families = [ch.kraus for ch in maps]
        n = L.dim**2
        entries = linalg.by_entries(linalg.kraus_pairs(families), n)
        if entries:
            p, q, values = linalg.kraus_entries(families)
        else:
            forms = [linalg.kraus_hermitian_form(kraus) for kraus in families]
    else:
        mats = [_as_matrix(M) for M in maps]
        n = len(mats[0])
        if any(M.shape != (n, n) for M in mats):
            raise DimensionError(f"maps of different sizes: {[M.shape for M in mats]}")
        support = linalg.entry_support(mats)
        entries = linalg.by_entries(int(np.count_nonzero(support)), n)
        if entries:
            p, q = np.divmod(np.flatnonzero(support), n)
            values = np.array([M[p, q] for M in mats])
        else:
            forms = [linalg.to_hermitian_basis(M) for M in mats]
    if entries:
        p, q, values = linalg.form_entries(n, p, q, values)
        forms = [_real_form(x) for x in values]  # the entries of each form
        nonzero = np.logical_or.reduce([x != 0 for x in forms])
        layout = linalg.BlockLayout(*linalg.components(n, p[nonzero], q[nonzero]))
        return (math.isqrt(n), layout, *layout.split_entries(p, q, *forms))
    forms = [_real_form(H) for H in forms]
    nonzero = sum(np.abs(A) for A in forms) if more else forms[0]
    layout = linalg.BlockLayout(*linalg.support_components(nonzero))
    return (math.isqrt(n), layout, *(layout.split(A) for A in forms))


def _real_form(H) -> np.ndarray:
    """The real part of the Hermitian form (or entries of it) H of a map,
    which must preserve Hermiticity (:func:`_sectors`)."""
    imag = float(np.max(np.abs(H.imag), initial=0.0))
    top = float(np.max(np.abs(H), initial=0.0))
    if imag > linalg.HERMITICITY_TOL * top:  # so top > 0
        raise DomainError(
            "the map does not preserve Hermiticity: the imaginary part of its "
            f"Hermitian form is {imag / top:.1e} times its largest entry, "
            f"above HERMITICITY_TOL = {linalg.HERMITICITY_TOL:.0e}"
        )
    return np.ascontiguousarray(H.real)


@dataclass(frozen=True)
class FixedSpaceBasis:
    """Orthonormal (HS) basis of Ker(I - L), held in block coordinates.

    ``groups`` holds the kernel vectors of the blocks of the Hermitian
    form of L, as :func:`linalg.kernel_groups` gives them: per group
    ``(rows, V)``, V (m, k, c) the c kernel vectors of m blocks of size k
    and rows (m, k) the rows of the n = d^2 that those blocks take.
    ``dimension`` is read from their shapes.  ``stack`` holds the
    vectors unvectorized to d x d matrices in the column-stacking basis,
    in the order of the columns of :func:`linalg.scatter_kernel`, as one
    (dimension, d, d) array; it is built on first access and cached, and
    ``basis`` is the tuple of its matrices, views of the stack.  A real
    form gives Hermitian matrices."""

    n: int
    groups: tuple
    tol: float

    @property
    def dimension(self) -> int:
        return sum(V.shape[0] * V.shape[2] for _, V in self.groups)

    @functools.cached_property
    def stack(self) -> np.ndarray:
        K = linalg.scatter_kernel(self.n, self.groups)
        return linalg.matrices_from_hermitian_columns(K)

    @functools.cached_property
    def basis(self) -> tuple:
        return tuple(self.stack)


@dataclass(frozen=True)
class PeripheralDecomposition:
    """Peripheral eigenvalues, their spectral projectors, and the stable
    remainder of one superoperator.

    The pieces are held block-wise in the Hermitian basis
    (:func:`_sectors`).  ``layout`` (a :class:`linalg.BlockLayout`)
    gives the exact diagonal blocks of L there, the symmetry sectors of
    L; every P_lambda and S has the same blocks.  ``operator_blocks``
    holds the stacks of L itself, ``projector_blocks``, per lambda, the
    stacks of P_lambda, and ``stable_blocks`` those of S.
    ``projectors`` and ``stable`` are the dense matrices in the
    column-stacking basis, assembled on first access
    (:func:`linalg.from_hermitian_blocks`); ``stable``
    preserves Hermiticity exactly.  The blocks of L and S are real, and
    so is P_lambda at a real lambda; ``lambdas`` is closed under exact
    conjugation and P(conj lambda) is conj P(lambda), bit for bit.
    ``stable_spectral_radius`` is rho(S), read from the eigenvalues of L,
    the value the ``rho(S) < 1`` check accepted.  On a Jordan chain of
    length k a perturbation of size eps moves it by about eps^(1/k), so
    it depends on the route to L at that scale: 9.0e-11 between the
    sector and one-block routes of the adjoint ladder at g = 0.7, d = 16.
    ``projector_ranks`` holds, per lambda, the size m of its cluster
    (:func:`_peripheral_clusters`), which :func:`_kernel_projectors`
    makes the rank of P_lambda.
    ``projector_norm``, recorded and not thresholded, is the largest
    ||P_lambda||_2 (0 without lambdas).
    ``fixed_space`` is the kernel of L - 1 (empty when 1 is not
    peripheral), sector by sector; its dimension is the rank of P_1, and
    its matrices are Hermitian.
    """

    dim: int
    lambdas: tuple
    projector_ranks: tuple
    layout: linalg.BlockLayout
    operator_blocks: tuple
    projector_blocks: tuple
    stable_blocks: tuple
    stable_spectral_radius: float
    peripheral_tol: float
    cluster_tol: float
    projector_norm: float
    fixed_space: FixedSpaceBasis

    @functools.cached_property
    def projectors(self) -> tuple:
        return tuple(linalg.from_hermitian_blocks(self.layout, P) for P in self.projector_blocks)

    @functools.cached_property
    def stable(self) -> np.ndarray:
        return linalg.from_hermitian_blocks(self.layout, self.stable_blocks)


@dataclass(frozen=True)
class DecayFit:
    """Certificate ||S^n|| <= M / (1+eps)^n, M fitted on the recorded n only."""

    M: float
    epsilon: float
    norms: tuple


@dataclass(frozen=True)
class SplittingReport:
    fixed_dim: int
    range_dim: int
    direct_sum_residual: float


@dataclass(frozen=True)
class IntersectionReport:
    combined_fixed: FixedSpaceBasis
    intersection: FixedSpaceBasis
    equal: bool | None
    commute_residual: float
    projection_residual: float | None


@dataclass(frozen=True)
class HsSymmetryReport:
    forward_fixed: FixedSpaceBasis
    adjoint_fixed: FixedSpaceBasis
    equal: bool
    projection_residual: float


def cesaro_average(L, lam: complex, n: int) -> np.ndarray:
    """A_n(L/lam) = (1/n) sum_{i=1..n} (L/lam)^i by binary doubling.

    With S_m = sum_{i=1..m} T^i, the bits of n below the leading one are
    walked with S_2m = S_m + T^m S_m and S_{m+1} = S_m + T^{m+1}, so the
    sum costs O(log n) products instead of n (polynomial evaluation by
    doubling, Higham, *Functions of Matrices*, 2008).  Deliberately
    eigendecomposition-free: this is the constructive route the
    spectral projectors are cross-checked against.  L may also be a
    stack (m, k, k), averaged member by member.
    """
    M = _as_matrix(L, stack=True)
    linalg.check_count(n, "n", 1)
    linalg.check_phase(lam, "lambda")
    lam = complex(lam)
    T = M / (lam.real if lam.imag == 0 else lam)  # a real M stays real for lam = +-1
    power = T  # T^m
    acc = T.copy()  # S_m, accumulated in place
    for bit in bin(n)[3:]:
        acc += power @ acc
        power = power @ power
        if bit == "1":
            power = power @ T
            acc += power
    acc /= n
    return acc


def fixed_space(L, tol: float = linalg.DEFAULT_TOL) -> FixedSpaceBasis:
    """Orthonormal basis of Ker(I - L) as d x d matrices.

    L is a Kraus channel, its matrix, or a
    :class:`PeripheralDecomposition`, whose blocks are then used
    (:func:`_sectors`).  I - A, A the Hermitian form of L, has the
    blocks of A, so its kernel is the sum of the kernels of the blocks:
    one :func:`linalg.null_space` of the stacks, with the rank cut of
    the whole matrix, ``tol * max(1, sigma_max)`` and sigma_max the
    largest over all blocks.  Dimension and span are those of the kernel
    of the whole I - A, no SVD is larger than a block, and each basis
    vector lies in one block, where the result holds it
    (:class:`FixedSpaceBasis`).  A is real, so the matrices are
    Hermitian."""
    _, layout, stacks = _sectors(L)
    groups = linalg.null_space([np.eye(X.shape[-1]) - X for X in stacks], layout, tol)
    return FixedSpaceBasis(layout.n, tuple(groups), tol)


def _fixed_svd(stacks, tol: float) -> tuple:
    """``(svds, ranks)`` of I - A, A the matrix whose stacks are
    ``stacks``, cut at the rank cut of the whole (:func:`linalg.block_svd`)."""
    svds, _, ranks = linalg.block_svd([np.eye(X.shape[-1]) - X for X in stacks], tol)
    return svds, ranks


def _kernel_parts(svds, ranks) -> list:
    """Per stack of :func:`linalg.block_svd`'s ``svds`` and ``ranks``,
    each block's kernel vectors padded with zero columns to the block
    size: its V with the leading r columns zeroed, an (m, k, k) array.
    Given the SVDs of the adjoints, ``(V, s, U^H)``, these are the left
    kernels."""
    return [
        _ct(Vh) * (np.arange(Vh.shape[-1]) >= r[:, np.newaxis])[:, np.newaxis, :]
        for (_, _, Vh), r in zip(svds, ranks)
    ]


def _span_residual(parts_a, parts_b) -> float:
    """max over both directions of ||(I - P_b) Q_a||, Q_a an orthonormal
    basis of one span and P_b the orthogonal projector onto the other.

    Both spans are given as their :func:`_kernel_parts` on one layout,
    so each basis vector lies in one block, (I - P_b) Q_a is block
    diagonal and its norm is the largest over the blocks.  A block where
    one span has more dimensions than the other gives 1, so spans of
    different dimension are 1 apart and two empty spans 0."""
    resid = 0.0
    for Qa, Qb in zip(parts_a, parts_b):
        resid = max(
            resid,
            linalg.operator_norm(Qa - Qb @ (_ct(Qb) @ Qa)),
            linalg.operator_norm(Qb - Qa @ (_ct(Qa) @ Qb)),
        )
    return resid


def _fixed_basis(layout, svds, ranks, tol: float) -> FixedSpaceBasis:
    """The kernel of :func:`linalg.block_svd`'s ``svds`` and ``ranks`` of
    stacks in ``layout``, in block coordinates."""
    return FixedSpaceBasis(layout.n, tuple(linalg.kernel_groups(layout.index, svds, ranks)), tol)


def peripheral_spectrum(
    L,
    peripheral_tol: float = DEFAULT_PERIPHERAL_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> list:
    """The lambdas of :func:`peripheral_decomposition` without its Cesaro
    check: the unit-modulus eigenvalues of L, clustered by their arguments
    (:func:`_peripheral_clusters`); the empty list is a valid result
    (strictly contractive maps).  A peripheral eigenvalue that is not
    semisimple is refused there.  Without the Cesaro check, a wrong
    projector of a cluster that is present passes: rho(S) is read from
    the eigenvalues of L (:func:`_stable_radius`)."""
    return list(peripheral_decomposition(L, peripheral_tol, cluster_tol, 0).lambdas)


def _peripheral_clusters(lam, peripheral_tol: float, cluster_tol: float) -> list:
    """``(lambda, m)``, lambda sorted as :func:`linalg.eig_sort_order`, per
    cluster of size m of the eigenvalues ``lam`` of modulus at least ``1 -
    peripheral_tol``; one above ``1 + peripheral_tol`` raises
    :class:`DecompositionFailureError` (L is not power bounded, or
    peripheral_tol is below the round-off of the eigenvalues), which
    prints the margin |z| - 1 (:func:`_from_one`).

    ``lam`` are those of a real matrix, which LAPACK gives in exact
    conjugate pairs, so the clusters are single linkage on |arg| in [0,
    pi], split where neighbours are more than ``cluster_tol`` apart,
    whatever the order of ``lam``.  A cluster within ``cluster_tol / 2``
    of 0 or pi, which links with its own mirror image, is exactly 1 or
    -1.  Any other gives the mean of its members with Im > 0, divided by
    its modulus, and the exact conjugate, each with the m members on its
    side of the real axis."""
    lam, mod = np.asarray(lam), np.abs(lam)
    if mod.size and mod.max() > 1.0 + peripheral_tol:
        top = complex(lam[np.argmax(mod)])
        raise DecompositionFailureError(
            f"eigenvalue {top:.9g} of L has modulus {_from_one(abs(top))} > 1 + "
            f"peripheral_tol = 1 + {peripheral_tol:.1e}: L is not power bounded, or "
            "peripheral_tol is below the round-off of its eigenvalues"
        )
    z = lam[mod >= 1.0 - peripheral_tol]
    if not z.size:
        return []
    folded = np.abs(np.angle(z))
    order = np.lexsort((z.imag, z.real, folded))
    folded, z = folded[order], z[order]
    cuts = np.flatnonzero(np.diff(folded) > cluster_tol) + 1
    out = []
    for arg, members in zip(np.split(folded, cuts), np.split(z, cuts)):
        if arg[0] <= cluster_tol / 2:
            out.append((1.0 + 0j, members.size))
        elif arg[-1] >= math.pi - cluster_tol / 2:
            out.append((-1.0 + 0j, members.size))
        else:
            upper = members[members.imag > 0]
            w = complex(np.mean(upper))
            out += [(w / abs(w), upper.size), ((w / abs(w)).conjugate(), upper.size)]
    order = linalg.eig_sort_order(np.array([w for w, _ in out]))
    return [out[i] for i in order]


def spectral_projectors(
    L,
    lambdas,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    peripheral_tol: float = DEFAULT_PERIPHERAL_TOL,
) -> list:
    """The projectors of :func:`peripheral_decomposition` without its
    Cesaro check, one per lambda, of the cluster within ``cluster_tol`` of
    it (else :class:`DecompositionFailureError` names the nearest
    eigenvalue).  L is a Kraus channel or its d^2 x d^2 matrix
    (:func:`_sectors`), as the projectors go back to column stacking.
    Without the Cesaro check, a wrong projector of a cluster that is
    present passes: rho(S) is read from the eigenvalues of L
    (:func:`_stable_radius`)."""
    decomp = peripheral_decomposition(L, peripheral_tol, cluster_tol, 0)
    out = []
    for lam in map(complex, lambdas):
        i = next((i for i, w in enumerate(decomp.lambdas) if abs(w - lam) <= cluster_tol), None)
        if i is None:
            eigenvalues = _eigvals(decomp.operator_blocks)
            near = complex(eigenvalues[np.argmin(np.abs(eigenvalues - lam))])
            raise DecompositionFailureError(
                f"no peripheral cluster within {cluster_tol:.1e} of {lam}; the "
                f"nearest is {near:.9g}, of modulus {abs(near):.9g}"
            )
        out.append(linalg.from_hermitian_blocks(decomp.layout, decomp.projector_blocks[i]))
    return out


def _eigvals(stacks) -> np.ndarray:
    """Sorted eigenvalues of the matrix whose stacks are ``stacks``."""
    lam = np.concatenate([linalg.eigvals(X) for X in stacks])
    return lam[linalg.eig_sort_order(lam)]


def _kernel_projectors(layout, stacks, clusters, cluster_tol, peripheral_tol) -> tuple:
    """(projectors, fixed space, max ||P||_2) of the real matrix A whose
    stacks in ``layout`` are ``stacks``, per ``(lambda, m)`` of ``clusters``.

    A power-bounded map has only semisimple peripheral eigenvalues (Kato,
    *Perturbation Theory for Linear Operators*, ch. II; Stewart & Sun,
    *Matrix Perturbation Theory*, ch. V), so Ker(A - lambda) has the
    cluster's dimension m, and the SVDs of the blocks B - lambda
    (:func:`linalg.block_svd`) only check it: sigma_m, the m-th smallest
    over all blocks, must be at most the rank cut at ``cluster_tol + 10 *
    peripheral_tol`` (a Jordan coupling is not) and below
    :data:`SEPARATION` times sigma_{m+1}, else
    :class:`IllConditionedDecompositionError`.  With V and U the trailing
    c <= m right and left singular vectors of B - lambda at or below
    sigma_m, P = V (U^H V)^-1 U^H, of norm 1/sigma_min(U^H V), projects
    onto Ker(B - lambda) along Rng(B - lambda), one stack per block size
    and c.  P is real at a real lambda, and P(conj lambda) = conj
    P(lambda) once lambda came.  The fixed space is the kernel at lambda
    = 1 (:func:`linalg.kernel_groups`)."""
    tol = cluster_tol + 10.0 * peripheral_tol
    projectors, fixed, norm = [], FixedSpaceBasis(layout.n, (), tol), 0.0
    done = {}  # lambda -> its projector, for the conjugates
    for lam, m in clusters:
        if lam.imag and lam.conjugate() in done:
            projectors.append([P.conj() for P in done[lam.conjugate()]])
            continue
        shift = lam.real if not lam.imag else lam  # A - lambda stays real
        svds, cut, _ = linalg.block_svd([X - shift * np.eye(X.shape[-1]) for X in stacks], tol)
        s = np.sort(np.concatenate([x.reshape(-1) for _, x, _ in svds]))
        sigma, after = s[m - 1], s[m] if m < s.size else math.inf
        if not (sigma <= cut and sigma < SEPARATION * after):
            raise IllConditionedDecompositionError(
                f"unresolved peripheral cluster at lambda = {lam:.6g}: m = {m} "
                f"eigenvalues, but sigma_{m} of L - lambda is {sigma:.3e} against the "
                f"cut {cut:.3e} and sigma_{m + 1} = {after:.3e}",
                singular_value=float(sigma),
            )
        ranks = [np.sum(x > sigma, axis=-1) for _, x, _ in svds]
        blocks = []
        for X, (U, _, Vh), r_b in zip(stacks, svds, ranks):
            k = X.shape[-1]
            P = np.zeros(X.shape, dtype=np.result_type(U, Vh))
            for c in np.unique(k - r_b[r_b < k]):
                sel = np.flatnonzero(r_b == k - c)
                V, W = _ct(Vh[sel][..., k - c :, :]), U[sel][..., k - c :]
                Ug, g, Vgh = linalg.svd(_ct(W) @ V)
                P[sel] = (V @ _ct(Vgh) / g[..., np.newaxis, :]) @ _ct(W @ Ug)
                norm = max(norm, float(np.max(1.0 / g[..., -1])))
            blocks.append(P)
        projectors.append(blocks)
        done[lam] = blocks
        if lam == 1:
            fixed = _fixed_basis(layout, svds, ranks, tol)
    return projectors, fixed, norm


def stable_part(L, lambdas, projectors) -> np.ndarray:
    """S = L - sum_lambda lambda * P_lambda; requires rho(S) < 1, from the
    eigenvalues of S as the projectors are the caller's.  S must preserve
    Hermiticity (:func:`_sectors`), as it does when the lambdas are
    closed under conjugation with their projectors."""
    S = _remainder(_as_matrix(L), lambdas, projectors)
    _, _, stacks = _sectors(S)
    _stable_radius(_eigvals(stacks))
    return S


def _remainder(A, lambdas, projectors) -> np.ndarray:
    """A - sum_lambda lambda * P_lambda, in complex arithmetic."""
    S = np.array(A, dtype=complex)
    for lam, P in zip(lambdas, projectors):
        S -= lam * P
    return S


def _stable_radius(lam, clusters=()) -> float:
    """rho(S) from the sorted eigenvalues ``lam`` of S, or of L with its
    ``clusters`` (:func:`peripheral_decomposition`): those no cluster
    takes must have modulus below 1 - 1e-12, else a projector is wrong,
    and the refusal prints the margin 1 - rho (:func:`_from_one`)."""
    shifted = 0.0
    for w, m in clusters:  # S has mu - w for the m eigenvalues mu nearest w
        near = np.argsort(np.abs(lam - w), kind="stable")[:m]
        shifted = max(shifted, float(np.max(np.abs(lam[near] - w))))
        lam = np.delete(lam, near)
    rho = float(np.abs(lam[0])) if lam.size else 0.0
    if rho >= 1.0 - 1e-12:
        raise DecompositionFailureError(
            f"stable part has spectral radius {_from_one(rho)}, not below 1 - 1e-12, "
            f"at its eigenvalue {complex(lam[0]):.9g}: the projectors do not remove it"
        )
    return max(shifted, rho)


def _from_one(x: float) -> str:
    """``x`` as 1 plus or minus its distance from 1, to 2 digits, which
    the refusals near the unit circle print in place of ``x`` itself: a
    margin of round-off does not show in the digits of ``x``."""
    return f"1 {'-' if x < 1.0 else '+'} {abs(x - 1.0):#.2g}"


def peripheral_decomposition(
    L,
    peripheral_tol: float = DEFAULT_PERIPHERAL_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    cesaro_check_n: int = DEFAULT_CESARO_N,
) -> PeripheralDecomposition:
    """Full decomposition L = sum lambda P_lambda + S with cross-check.

    The eigenvalues of L are computed and clustered once
    (:func:`_peripheral_clusters`).  As every peripheral eigenvalue of a
    power-bounded map is semisimple, a cluster's size m is dim Ker(L -
    lambda), which the singular values of L - lambda only check; the
    kernels give the projectors, ``projector_norm`` and the fixed space
    (:func:`_kernel_projectors`).  rho(S) comes from the same eigenvalues
    by Wielandt deflation (Saad, *Numerical Methods for Large Eigenvalue
    Problems*, 2nd ed., 2011, sec. 4.2): each P_lambda = V (W^H V)^-1 W^H
    has an invariant V that the left kernels of the other clusters
    annihilate, so S has the eigenvalues of L that no cluster takes, and
    mu - lambda for the members mu of each cluster (lambda, m), the m
    eigenvalues nearest lambda (:func:`_stable_radius`).  The projectors
    are then validated against Cesaro averages of length
    ``cesaro_check_n`` (default :data:`DEFAULT_CESARO_N`); a disagreement
    larger than :data:`CESARO_CHECK_FACTOR` ``/ n`` (times max(1, ||L||))
    is an error, not a warning.  Set ``cesaro_check_n=0`` to skip the
    check.  A ``cesaro_check_n`` that is not an integer >= 0, or a
    tolerance that is not finite and > 0, raises :class:`DomainError`
    before anything is factorised.

    All of this runs on the Hermitian form A of L (:func:`_sectors`),
    one exact diagonal block of A at a time (:class:`linalg.BlockLayout`,
    found once).  These are symmetry sectors: when each Kraus operator
    moves the number basis by a fixed offset (the shift, parity-fock and
    ladder channels), L never mixes matrix units of different gap j - k.
    Blocks of one size are factorised as one stack.  Per block come the
    eigenvalues (clustered together), the kernels, S, and the
    Cesaro averages, which are checked on every block, also where lambda
    has no eigenvalue and the average must vanish.  Every decision uses
    the scale of the whole matrix: the rank cut the largest singular
    value over the blocks, the Cesaro budget the largest ||A_b||.  A is
    real, since L preserves Hermiticity (a map that does not is refused),
    and so are the products for lambda = +-1.
    """
    linalg.check_count(cesaro_check_n, "cesaro_check_n", 0)
    linalg.check_tol(peripheral_tol, "peripheral_tol")
    linalg.check_tol(cluster_tol, "cluster_tol")
    d, layout, stacks = _sectors(L)
    eigenvalues = _eigvals(stacks)
    clusters = _peripheral_clusters(eigenvalues, peripheral_tol, cluster_tol)
    lambdas = [lam for lam, _ in clusters]
    projectors, fixed, norm = _kernel_projectors(
        layout, stacks, clusters, cluster_tol, peripheral_tol
    )
    # the lambdas are closed under conjugation and P(conj lambda) = conj
    # P(lambda), so the sum is real and its imaginary part is round-off
    S = [
        np.ascontiguousarray(_remainder(X, lambdas, [P[j] for P in projectors]).real)
        for j, X in enumerate(stacks)
    ]
    rho = _stable_radius(eigenvalues, clusters)

    if cesaro_check_n:
        scale = max(1.0, max(map(linalg.operator_norm, stacks)))
        budget = CESARO_CHECK_FACTOR / cesaro_check_n * scale
        for lam, P in zip(lambdas, projectors):
            resid = max(
                linalg.operator_norm(cesaro_average(X, lam, cesaro_check_n) - Pb)
                for X, Pb in zip(stacks, P)
            )
            if resid > budget:
                raise DecompositionFailureError(
                    f"Cesaro average at lambda={lam} disagrees with the "
                    f"spectral projector: residual {resid:.3e} > {budget:.3e}"
                )

    return PeripheralDecomposition(
        dim=d,
        lambdas=tuple(lambdas),
        projector_ranks=tuple(m for _, m in clusters),
        layout=layout,
        operator_blocks=tuple(stacks),
        projector_blocks=tuple(map(tuple, projectors)),
        stable_blocks=tuple(S),
        stable_spectral_radius=rho,
        peripheral_tol=peripheral_tol,
        cluster_tol=cluster_tol,
        projector_norm=norm,
        fixed_space=fixed,
    )


def power_iterate(L, n: int, X) -> np.ndarray:
    """phi^n(X) = unvec(L^n vec(X)) by right-to-left binary powering.

    The bits of n are walked from the lowest: the vector is multiplied
    by the current power L^(2^k) where bit k is set, and the power is
    squared for the next bit.  That is floor(log2 n) squarings and one
    matrix-vector product per set bit, and L^n itself is never formed
    (Higham, *Functions of Matrices*, 2008).  No eigendecomposition is
    involved, so this is independent of :func:`peripheral_decomposition`.
    n = 0 returns X; an n that is not an integer >= 0 raises
    :class:`DomainError`.

    L is a Kraus channel, its matrix, or a
    :class:`PeripheralDecomposition`, of which only ``operator_blocks``,
    the stacks of L itself, are read (:func:`_sectors`), so the result
    stays independent of its spectral data.  L is powered as the stacks
    of its Hermitian form A and applied to the Hermitian-basis coordinates
    ``w = B^H vec(X)``, real and imaginary parts as one two-column block
    split by the same blocks (:func:`_apply_by_sector`), so no product is
    larger than a block of A, in real arithmetic throughout.

    Accuracy: a computed eigenvalue 1 of L is 1 + O(u), u = 2^-53, and
    L^(2^k) raises it to the power 2^k, so on the fixed space the error
    grows linearly in n, not in log n.  Measured in HS norm against the
    per-step ``channel.apply_n`` (random Stinespring channels d = 2..8,
    12 and 16, shift and ladder at d = 8, both sides, n <= 10^4) and
    against the closed forms of pauli-xy and parity-fock d = 2..16 (n <=
    10^6), the error divided by ``n * d * u * ||X||_HS`` was at most 2.0
    (pauli-xy at p = 1/2, n = 1) and at most 1.5 for n >= 64.  The documented bound is twice that,
    :data:`POWER_DRIFT` ``* n * d * u * ||X||_HS``: 7e-11 at n = 10^4,
    d = 16, for a unit-norm X.
    """
    linalg.check_count(n, "n", 0)
    d, layout, stacks = _sectors(L)
    X = linalg.as_operand(X, d)
    if n == 0:
        return np.array(X, dtype=complex)
    return _apply_by_sector(layout, X, lambda j, W: _power_apply(stacks[j], n, W))


def _apply_by_sector(layout, X, apply) -> np.ndarray:
    """The d x d matrix Y of a map that ``layout``'s blocks reduce, block
    by block.  The Hermitian-basis coordinates w of vec(X) are taken as
    the real n x 2 block [Re w, Im w] (a map acts on both columns alike)
    and split into the parts of the stacks; ``apply(j, W)`` maps the
    part W (m, k, 2) of stack j, and the mapped parts are those of Y,
    made a matrix by ``linalg.matrices_from_hermitian_columns``."""
    w = linalg.to_hermitian_coordinates(linalg.vec(X))
    parts = layout.split_rows(np.column_stack([w.real, w.imag]))
    W = layout.join_rows([apply(j, V) for j, V in enumerate(parts)])
    return linalg.matrices_from_hermitian_columns((W[:, 0] + 1j * W[:, 1])[:, np.newaxis])[0]


def _power_apply(A, n: int, V) -> np.ndarray:
    """A^n V for n >= 1 by right-to-left binary powering
    (:func:`power_iterate`); A and V may be stacks."""
    power = A
    while True:
        if n & 1:
            V = power @ V
        n >>= 1
        if not n:
            break
        power = power @ power
    return V


def reconstruct_iterate(decomp: PeripheralDecomposition, n: int, X) -> np.ndarray:
    """phi^n(X) via sum lambda^n P_lambda(X) + S^n(X).

    Everything runs on the decomposition's blocks in the Hermitian
    basis (:func:`_apply_by_sector`): per block, the projectors are
    applied and S^n is taken by the binary powering of
    :func:`power_iterate`; neither S^n nor a dense matrix is formed.  S^n
    adds no error that grows with n, as rho(S) < 1, but an eigenvalue of
    L within ``peripheral_tol`` of the circle, of modulus 1 - delta, is
    powered as its cluster's unit-modulus lambda, so the error grows like
    n delta: 2.9e-9, 7.2e-8 and 1.4e-5 relative to ``channel.apply_n`` at
    n = 2, 50 and 10^4 on pauli-xy at p = 1 - 1e-9 (delta = 2e-9).
    """
    linalg.check_count(n, "n", 1)
    X = linalg.as_operand(X, decomp.dim)

    def part(j, W):
        Y = _power_apply(decomp.stable_blocks[j], n, W)
        for lam, P in zip(decomp.lambdas, decomp.projector_blocks):
            Y = Y + (lam.real if not lam.imag else lam) ** n * (P[j] @ W)
        return Y

    return _apply_by_sector(decomp.layout, X, part)


def decay_fit(S, n_max: int) -> DecayFit:
    """Geometric-decay certificate for the stable part.

    1 + eps is placed at (1 - :data:`DECAY_MARGIN`)/rho(S), and M is the
    smallest constant making the certificate true on the norms for n <=
    ``n_max``.  It is fitted on those n only: ||S^n|| of a defective S
    can pass M/(1+eps)^n beyond them (the ladder at g = 0.3, d = 16, from
    n = 41 at ``n_max`` 40).  S = 0 gives (M=0, eps=DECAY_MARGIN) by
    convention.  M is computed in log space: for rho(S) below about 2e-8,
    (1 + eps)^40 alone overflows a float while M stays moderate (an M that
    overflows raises :class:`NumericError`).

    ``S`` is the stable part, or a :class:`PeripheralDecomposition`, whose
    stored ``stable_spectral_radius`` is then used as rho(S): it came
    from the eigenvalues of L (:func:`peripheral_decomposition`).  For a
    bare matrix, rho(S) is taken from the eigenvalues of its blocks.

    The norms are computed on the Hermitian form of S
    (:func:`_sectors`; the operator norm is invariant under the
    change of basis), on the exact diagonal blocks of that matrix
    (:class:`linalg.BlockLayout`): S^k is block diagonal with the same
    blocks, so ``||S^k|| = max_b ||B_b^k||``.  Blocks of one size are
    powered and normed as one stack.  A decomposition's blocks are used
    as they are, so S is not changed to that basis again.

    Each norm is the square root of the top eigenvalue of a Gram matrix
    (:func:`linalg.top_singular_values`), exact to a few machine
    epsilons, not a full SVD.  The powers of a stack (m, k, k) go to it
    in batches (c, m, k, k) of ``c = min(n_max, n^2 // (m k^2))``, for
    S n x n: a batch never holds more entries than S, so a one-block S
    takes one power per call and a stack of many small blocks takes
    many.
    """
    linalg.check_count(n_max, "n_max", 1)
    if isinstance(S, PeripheralDecomposition):
        stacks, rho = S.stable_blocks, S.stable_spectral_radius
    else:
        _, _, stacks = _sectors(S)
        rho = max(map(linalg.spectral_radius, stacks))
    if rho >= 1.0:
        raise DomainError(f"stable part must satisfy rho(S) < 1, got {rho}")

    norms = np.zeros(n_max)
    n = sum(len(B) * B.shape[-1] for B in stacks)
    for B in stacks:
        # powers start+1 .. stop of B as one (c, m, k, k) stack, at most
        # the n^2 entries of S (B.size <= n^2, so c >= 1)
        c = min(n_max, n * n // B.size)
        batch = np.empty((c,) + B.shape, B.dtype)
        batch[0] = B
        for start in range(0, n_max, c):
            stop = min(start + c, n_max)
            for j in range(1, stop - start):
                np.matmul(batch[j - 1], B, out=batch[j])
            top = linalg.top_singular_values(batch[: stop - start]).max(axis=-1)
            norms[start:stop] = np.maximum(norms[start:stop], top)
            if stop < n_max:
                batch[0] = batch[stop - start - 1] @ B
    norms = norms.tolist()

    if not any(norms):  # S = 0; a round-off S takes the formula below
        return DecayFit(M=0.0, epsilon=DECAY_MARGIN, norms=tuple(norms))
    if rho <= 1e-13:
        eps = 1.0  # (near-)nilpotent S: any finite rate certifies
    else:
        eps = (1.0 - DECAY_MARGIN) / rho - 1.0
        if eps <= 0.0:
            eps = (1.0 - rho) / (2.0 * rho)
    growth = np.arange(1, n_max + 1) * math.log1p(eps)  # log (1+eps)^n
    with np.errstate(divide="ignore"):  # a zero norm has log -inf
        log_M = float(np.max(np.log(norms) + growth))
    try:
        M = math.exp(log_M)
    except OverflowError:
        raise NumericError(
            f"decay constant M = exp({log_M:.1f}) overflows a float (rho(S) = {rho:.3e})"
        ) from None
    return DecayFit(M=M, epsilon=float(eps), norms=tuple(norms))


def splitting_check(L, tol: float = linalg.DEFAULT_TOL):
    """Mean-ergodic splitting: the space is Ker(I-L) (+) Rng(I-L).

    I - A, A the Hermitian form of L (:func:`_sectors`; L may also be a
    :class:`PeripheralDecomposition`), has the blocks of A, and so do the
    three subspaces.  One SVD per block stack, ``I - B = U diag(s) V^H``
    cut at the rank cut of the whole matrix (:func:`linalg.block_svd`),
    gives a block's three bases: Ker(I - B) is spanned by the trailing
    right singular vectors, Rng(I - B) by the leading left ones, and
    Ker(I - B^H) by the trailing left ones, so the dimensions add up to
    d^2 by construction.  Verifies that the bases of the kernel and the
    range together have full numerical rank: the direct-sum residual, the
    least singular value of [range, kernel] over the blocks, measures the
    paper's splitting, and at or below ``tol`` (a Jordan block at 1)
    raises :class:`SplittingViolationError`.  Ker(I - L^H) and Rng(I - L)
    come from one unitary U, so their orthogonality is not checked.
    """
    _, layout, stacks = _sectors(L)
    svds, ranks = _fixed_svd(stacks, tol)
    range_dim = int(sum(r.sum() for r in ranks))
    fixed_dim = layout.n - range_dim
    residual = math.inf
    for (U, _, Vh), r_b in zip(svds, ranks):
        for r in np.unique(r_b):  # the blocks of one rank as one stack
            sel = np.flatnonzero(r_b == r)
            both = np.concatenate([U[sel][..., :r], _ct(Vh[sel][..., r:, :])], axis=-1)
            residual = min(residual, float(linalg.singular_values(both)[-1]))
    if residual <= tol:
        raise SplittingViolationError(
            f"splitting failed: fixed_dim={fixed_dim}, range_dim={range_dim}, "
            f"direct-sum residual={residual:.3e}"
        )
    return SplittingReport(fixed_dim, range_dim, residual)


def fixed_space_intersection(
    channels, weights, tol: float = linalg.DEFAULT_TOL
) -> IntersectionReport:
    """Fixed space of a convex combination vs. intersection of fixed
    spaces of the parts.

    Both are computed on the Hermitian forms of the parts, split by one
    layout whose blocks reduce every part and so the combination
    (:func:`_sectors`), one block at a time.  The intersection is the
    kernel of the parts' I - A_i stacked, factorised through its k x k
    triangular factor R (QR), which has the singular values and right
    singular vectors of the stack, so no part is factorised on its own.
    Each of the two spaces comes from one :func:`linalg.block_svd` with
    the rank cut of the whole matrix, ``tol * max(1, sigma_max)``,
    sigma_max the largest over all blocks; no SVD is larger than a
    block.  Equality of the two spaces is the content of the
    commuting-family lemma, so it is asserted only when the
    superoperators commute within ``tol``; otherwise ``equal`` is None
    and the commutator residual is reported.
    The two spaces are compared block by block (:func:`_span_residual`).
    """
    for w in weights:
        linalg._check_real(w, "weight")
    weights = [float(w) for w in weights]
    if len(channels) != len(weights) or not channels:
        raise DomainError("need equally many channels and weights, at least one")
    if not all(0 < w < math.inf for w in weights):
        raise DomainError(f"weights must be finite and > 0, got {weights}")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise DomainError(f"weights must sum to 1, got {sum(weights)}")
    _, layout, *parts = _sectors(*channels)
    combined = [sum(w * A for w, A in zip(weights, stacks)) for stacks in zip(*parts)]
    svds, ranks = _fixed_svd(combined, tol)
    combined_fixed = _fixed_basis(layout, svds, ranks, tol)

    commute = 0.0
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            for A, B in zip(parts[i], parts[j]):
                commute = max(commute, linalg.operator_norm(A @ B - B @ A))

    stacked = [
        np.concatenate([np.eye(X.shape[-1]) - X for X in blocks], axis=-2)
        for blocks in zip(*parts)
    ]
    isvds, _, iranks = linalg.block_svd([np.linalg.qr(C, mode="r") for C in stacked], tol)
    intersection = _fixed_basis(layout, isvds, iranks, tol)

    if commute <= tol:
        resid = _span_residual(_kernel_parts(svds, ranks), _kernel_parts(isvds, iranks))
        equal: bool | None = resid <= tol
    else:
        resid = None
        equal = None
    return IntersectionReport(
        combined_fixed=combined_fixed,
        intersection=intersection,
        equal=equal,
        commute_residual=float(commute),
        projection_residual=resid,
    )


def peripheral_unitarity_check(decomp: PeripheralDecomposition) -> float:
    """max |sigma_k - 1| of L restricted to the peripheral span.

    The restriction of a mean-ergodic contraction to the span of its
    peripheral eigenspaces is unitary.  The classical statement is made
    on the union of the fixed spaces F(T/lambda), which is not a linear
    subspace; this check uses the span instead (interpretive choice).
    It runs on the decomposition's blocks of L and of P, the sum of the
    projectors, which has the same blocks: per block B, Q is an
    orthonormal basis of the range of the block of P, its r leading left
    singular vectors, r the trace of that block (P is a projector), and
    the singular values are those of Q^H B Q.  The blocks of one rank
    are taken as one stack.
    """
    if not decomp.lambdas:
        raise DegenerateInputError("peripheral spectrum is empty")
    resid = 0.0
    for B, projectors in zip(decomp.operator_blocks, zip(*decomp.projector_blocks)):
        P = sum(projectors)
        U = linalg.svd(P)[0]
        r_b = np.rint(np.trace(P, axis1=-2, axis2=-1).real).astype(int)
        for r in np.unique(r_b[r_b > 0]):
            sel = np.flatnonzero(r_b == r)
            Q = U[sel][..., :r]
            s = linalg.singular_values(_ct(Q) @ B[sel] @ Q)
            resid = max(resid, float(np.max(np.abs(s - 1.0))))
    return resid


def residual_summary(ch, decomp: PeripheralDecomposition, seed: int) -> dict:
    """The report's residuals for ``decomp``, the decomposition of the
    channel ``ch`` (of phi*, ``channel.adjoint_channel``): the largest
    ||P Q|| (P != Q), ||L P - lambda P|| and ||P L - lambda P||, on the
    decomposition's Hermitian forms, and the HS distance at n = 5 between
    :func:`reconstruct_iterate` and ``channel.apply_n`` on a random X
    drawn from ``seed``.  The norms are taken block by block (the norm of
    a block diagonal matrix is the largest over its blocks).
    ||P^2 - P|| is not reported: :func:`_kernel_projectors` builds each P
    as V (W^H V)^-1 W^H, which is idempotent for any V and W."""
    orth = comm = 0.0
    for B, projectors in zip(decomp.operator_blocks, zip(*decomp.projector_blocks)):
        for i, (lam, P) in enumerate(zip(decomp.lambdas, projectors)):
            lam = lam.real if not lam.imag else lam  # a real P stays real
            comm = max(
                comm,
                linalg.operator_norm(B @ P - lam * P),
                linalg.operator_norm(P @ B - lam * P),
            )
            for Q in projectors[i + 1 :]:
                orth = max(orth, linalg.operator_norm(P @ Q))
    rng = np.random.default_rng(seed)
    d = decomp.dim
    X = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
    direct = channel_mod.apply_n(ch, X, 5)
    return {
        "projector_orthogonality": orth,
        "projector_commutation": comm,
        "reconstruction_n5": linalg.hs_norm(direct - reconstruct_iterate(decomp, 5, X)),
    }


def hs_fixed_point_symmetry(ch, tol: float = linalg.DEFAULT_TOL) -> HsSymmetryReport:
    """Compare the fixed spaces F(phi) and F(phi*) on the Hilbert-Schmidt
    space.

    The Hermitian form A of phi is built from its Kraus operators and
    split once (:func:`_sectors`).  That of the adjoint phi* is A^H, so one
    SVD per block stack of I - A = U diag(s) V^H (:func:`_fixed_svd`)
    gives both spaces: F(phi) from the trailing right singular vectors,
    F(phi*) from the trailing left ones.  Both are cut at the same
    singular values, so their dimensions agree by construction, as
    rank(I - L) = rank(I - L^H) says.  The spaces themselves agree when
    phi is unital and trace preserving: both are then the commutant of
    the Kraus operators (Arias, Gheondea & Gudder, J. Math. Phys. 43
    (2002) 5872).  Otherwise they may differ: for a trace-preserving phi
    that is not unital, phi* fixes I and phi does not, so ``equal`` is
    False.  The spans are compared block by block
    (:func:`_span_residual`).
    """
    _, layout, stacks = _sectors(ch)
    svds, ranks = _fixed_svd(stacks, tol)
    adjoint = [(_ct(Vh), s, _ct(U)) for U, s, Vh in svds]  # the SVDs of I - A^H
    resid = _span_residual(_kernel_parts(svds, ranks), _kernel_parts(adjoint, ranks))
    return HsSymmetryReport(
        forward_fixed=_fixed_basis(layout, svds, ranks, tol),
        adjoint_fixed=_fixed_basis(layout, adjoint, ranks, tol),
        equal=resid <= tol,
        projection_residual=resid,
    )
