"""Ergodic analysis of power-bounded superoperators.

Given the matrix L of a quantum operation, the iterates split as

    L^n = sum_lambda lambda^n P_lambda  +  S^n

where lambda runs over the peripheral spectrum (unit-modulus
eigenvalues), P_lambda are the associated spectral projectors, and the
stable remainder S has spectral radius < 1 so its powers decay
geometrically.  This module computes each piece and cross-checks the
spectral construction against Cesaro averaging, which converges to the
same projectors at rate O(1/n).
"""

from __future__ import annotations

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
DEFAULT_FIXED_TOL = 1e-8

#: Length of the Cesaro cross-check of :func:`peripheral_decomposition`,
#: of ``io.analyze_channel`` and of the CLI's ``--cesaro-n``.
DEFAULT_CESARO_N = 10000

#: Largest cond(W) of the eigenvector matrix the projectors are built
#: from; beyond it the decomposition is refused as ill-conditioned.
COND_THRESHOLD = 1e10

#: The Cesaro cross-check at length n accepts a residual up to
#: ``CESARO_CHECK_FACTOR / n * max(1, ||L||)``.
CESARO_CHECK_FACTOR = 50.0

#: :func:`decay_fit` puts 1 + eps at ``(1 - DECAY_MARGIN) / rho(S)``.
DECAY_MARGIN = 1e-3


def _as_matrix(L) -> np.ndarray:
    """Accept a Superoperator or a raw square ndarray."""
    if isinstance(L, channel_mod.Superoperator):
        return np.asarray(L.matrix)
    M = linalg.as_matrix(L)
    if M.shape[0] != M.shape[1]:
        raise DimensionError(f"superoperator matrix must be square, got {M.shape}")
    return M


def _real_form(M) -> tuple:
    """(A, hp): for a Hermiticity-preserving M, A is its real (float64)
    matrix in the Hermitian basis and hp is True; otherwise A is M.

    Eigenvalues, spectral radii, operator norms and powers are the same
    in either basis (the change is unitary), so they are computed on A:
    a real A halves the work of LAPACK and of every product.  Map a
    result back with :func:`_column_stacking`.
    """
    if linalg.is_hermiticity_preserving(M):
        return np.ascontiguousarray(linalg.to_hermitian_basis(M).real), True
    return M, False


def _column_stacking(A, hp: bool) -> np.ndarray:
    """Inverse of :func:`_real_form` for a matrix computed from A."""
    return linalg.from_hermitian_basis(A) if hp else A


def _side_dim(L) -> int:
    M = _as_matrix(L)
    d = int(round(np.sqrt(M.shape[0])))
    if d * d != M.shape[0]:
        raise DimensionError(
            f"superoperator size {M.shape[0]} is not a perfect square"
        )
    return d


@dataclass(frozen=True)
class FixedSpaceBasis:
    """Orthonormal (HS) basis of Ker(I - L), unvectorized to matrices."""

    basis: tuple
    tol: float

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class PeripheralDecomposition:
    """Peripheral eigenvalues, their spectral projectors, and the stable
    remainder of one superoperator.

    ``projectors`` and ``stable`` are in the column-stacking basis; for
    a Hermiticity-preserving input ``stable`` preserves Hermiticity
    exactly.  ``stable_spectral_radius`` is rho(S) from the eigenvalues
    of the computed ``stable`` (of its real form, :func:`_real_form`),
    stored when the decomposition is built (it is the value the
    ``rho(S) < 1`` check accepted), not recomputed on access.
    ``eigvec_condition`` is cond(W) of the eigenvector matrix the
    projectors were built from; for a Hermiticity-preserving input W
    holds the eigenvectors of the real form, which are those of L
    changed to the Hermitian basis (a unitary change, so cond is the
    same up to LAPACK's choice of basis in repeated eigenspaces).
    """

    dim: int
    lambdas: tuple
    projectors: tuple
    stable: np.ndarray
    stable_spectral_radius: float
    peripheral_tol: float
    cluster_tol: float
    eigvec_condition: float

    @property
    def projector_ranks(self) -> tuple:
        return tuple(int(round(np.real(np.trace(P)))) for P in self.projectors)


@dataclass(frozen=True)
class DecayFit:
    """Certificate ||S^n|| <= M / (1+eps)^n over the recorded n."""

    M: float
    epsilon: float
    n_max: int
    norms: tuple


@dataclass(frozen=True)
class SplittingReport:
    fixed_dim: int
    range_dim: int
    direct_sum_residual: float
    dual_orthogonality_residual: float


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
    spectral projectors are cross-checked against.
    """
    M = _as_matrix(L)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if abs(abs(lam) - 1.0) > 1e-12:
        raise DomainError(f"lambda must have unit modulus, got |{lam}| = {abs(lam)}")
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


def fixed_space(L, tol: float = DEFAULT_FIXED_TOL) -> FixedSpaceBasis:
    """Orthonormal basis of Ker(I - L) as d x d matrices."""
    M = _as_matrix(L)
    d = _side_dim(M)
    kernel = linalg.null_space(np.eye(M.shape[0]) - M, tol)
    mats = tuple(linalg.unvec(kernel[:, k], d) for k in range(kernel.shape[1]))
    return FixedSpaceBasis(basis=mats, tol=tol)


def peripheral_spectrum(
    L,
    peripheral_tol: float = DEFAULT_PERIPHERAL_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> list:
    """Unit-modulus eigenvalues of L, clustered and radially projected.

    Eigenvalues within ``cluster_tol`` of each other merge to their
    mean; the empty list is a valid result (strictly contractive maps).
    """
    A, _ = _real_form(_as_matrix(L))
    return _peripheral_clusters(linalg.eigvals(A), peripheral_tol, cluster_tol)


def _peripheral_clusters(lam, peripheral_tol: float, cluster_tol: float) -> list:
    peripheral = [z for z in lam if abs(z) >= 1.0 - peripheral_tol]
    clusters: list[list[complex]] = []
    for z in peripheral:
        for members in clusters:
            if abs(z - np.mean(members)) <= cluster_tol:
                members.append(z)
                break
        else:
            clusters.append([z])
    out = []
    for members in clusters:
        m = complex(np.mean(members))
        out.append(m / abs(m))
    order = linalg.eig_sort_order(np.array(out)) if out else []
    return [out[i] for i in order]


def spectral_projectors(
    L,
    lambdas,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    peripheral_tol: float = DEFAULT_PERIPHERAL_TOL,
) -> list:
    """Spectral projector onto each peripheral cluster.

    Built from the eigendecomposition: P = W[:, idx] @ inv(W)[idx, :]
    over the eigenvalue indices assigned to the cluster.  An
    ill-conditioned eigenvector matrix (cond(W) above
    :data:`COND_THRESHOLD`) signals a near-defective peripheral
    eigenvalue, which cannot occur for exactly power-bounded maps, so it
    is reported as an error.
    """
    A, hp = _real_form(_as_matrix(L))
    lam, W = linalg.eig_general(A)
    projectors, _ = _projectors_from_eig(
        lam, W, lambdas, cluster_tol, peripheral_tol, np.isrealobj(A)
    )
    return [_column_stacking(P, hp) for P in projectors]


def _projectors_from_eig(lam, W, lambdas, cluster_tol, peripheral_tol, real) -> tuple:
    """(projectors, cond(W)) from one eigendecomposition ``(lam, W)``.
    If the matrix was ``real``, the projector of a real lambda is real
    (eigenvalues and eigenvectors come in conjugate pairs), and it is
    returned as a real matrix."""
    cond = float(np.linalg.cond(W))
    if cond > COND_THRESHOLD:
        raise IllConditionedDecompositionError(
            f"eigenvector matrix condition number {cond:.3e} exceeds "
            f"threshold {COND_THRESHOLD:.3e}",
            condition_number=cond,
        )
    Winv = np.linalg.inv(W)
    match_tol = cluster_tol + 10.0 * peripheral_tol
    projectors = []
    for target in lambdas:
        idx = [k for k, z in enumerate(lam) if abs(z - target) <= match_tol]
        if not idx:
            raise DecompositionFailureError(
                f"no eigenvalue of L within {match_tol:.1e} of {target}",
                spectral_radius=float("nan"),
            )
        P = W[:, idx] @ Winv[idx, :]
        if real and complex(target).imag == 0:
            P = np.ascontiguousarray(P.real)
        projectors.append(P)
    return projectors, cond


def stable_part(L, lambdas, projectors) -> np.ndarray:
    """S = L - sum_lambda lambda * P_lambda; requires rho(S) < 1."""
    S = _remainder(_as_matrix(L), lambdas, projectors)
    _stable_radius(S)
    return S


def _remainder(A, lambdas, projectors) -> np.ndarray:
    """A - sum_lambda lambda * P_lambda, in complex arithmetic."""
    S = np.array(A, dtype=complex)
    for lam, P in zip(lambdas, projectors):
        S -= lam * P
    return S


def _stable_radius(S) -> float:
    """rho(S) from the eigenvalues of the real form of S; requires < 1."""
    rho = linalg.spectral_radius(_real_form(S)[0])
    if rho >= 1.0 - 1e-12:
        raise DecompositionFailureError(
            f"stable part has spectral radius {rho:.6f} >= 1; the "
            "peripheral set was incomplete (loosen peripheral_tol)",
            spectral_radius=rho,
        )
    return rho


def peripheral_decomposition(
    L,
    peripheral_tol: float = DEFAULT_PERIPHERAL_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    cesaro_check_n: int = DEFAULT_CESARO_N,
) -> PeripheralDecomposition:
    """Full decomposition L = sum lambda P_lambda + S with cross-check.

    L is factorised once: the eigenvalues of that one eigendecomposition
    are clustered into the peripheral set, and its eigenvectors give the
    projectors and ``eigvec_condition``; a cond(W) above
    :data:`COND_THRESHOLD` is refused.  The projectors are then
    validated against Cesaro averages of length ``cesaro_check_n``
    (default :data:`DEFAULT_CESARO_N`); a disagreement larger than
    :data:`CESARO_CHECK_FACTOR` ``/ n`` (times max(1, ||L||)) is an
    error, not a warning.  Set ``cesaro_check_n=0`` to skip the check.

    When L preserves Hermiticity (every quantum operation does), all of
    this runs on its real form in the Hermitian basis
    (:func:`_real_form`): the eigendecomposition, the stable part and
    rho(S), and the Cesaro products, which are real for lambda = +-1.
    The projectors and S are then mapped back to the column-stacking
    basis, S symmetrised so that it preserves Hermiticity exactly.
    Other input runs the same code in complex arithmetic.
    """
    M = _as_matrix(L)
    d = _side_dim(M)
    A, hp = _real_form(M)
    eigenvalues, W = linalg.eig_general(A)
    lambdas = _peripheral_clusters(eigenvalues, peripheral_tol, cluster_tol)
    projectors, cond = _projectors_from_eig(
        eigenvalues, W, lambdas, cluster_tol, peripheral_tol, np.isrealobj(A)
    )
    del W  # a d^2 x d^2 array: free it before the Cesaro products are allocated
    S = _remainder(A, lambdas, projectors)
    if np.isrealobj(A):
        # the peripheral set of a real matrix is closed under conjugation,
        # so the sum is real and its imaginary part is round-off
        unpaired = [
            lam for lam in lambdas
            if min(abs(mu - lam.conjugate()) for mu in lambdas) > cluster_tol
        ]
        if unpaired:
            raise DecompositionFailureError(
                f"peripheral eigenvalues {unpaired} of a real matrix have no "
                "conjugate partner in the clustered set (tighten cluster_tol)",
                spectral_radius=float("nan"),
            )
        S = np.ascontiguousarray(S.real)
    S = _column_stacking(S, hp)
    rho = _stable_radius(S)

    if cesaro_check_n:
        scale = max(1.0, linalg.operator_norm(A))
        budget = CESARO_CHECK_FACTOR / cesaro_check_n * scale
        for lam, P in zip(lambdas, projectors):
            C = cesaro_average(A, lam, cesaro_check_n)
            resid = linalg.operator_norm(C - P)
            if resid > budget:
                raise DecompositionFailureError(
                    f"Cesaro average at lambda={lam} disagrees with the "
                    f"spectral projector: residual {resid:.3e} > {budget:.3e}",
                    spectral_radius=rho,
                )

    return PeripheralDecomposition(
        dim=d,
        lambdas=tuple(lambdas),
        projectors=tuple(_column_stacking(P, hp) for P in projectors),
        stable=S,
        stable_spectral_radius=rho,
        peripheral_tol=peripheral_tol,
        cluster_tol=cluster_tol,
        eigvec_condition=cond,
    )


def reconstruct_iterate(decomp: PeripheralDecomposition, n: int, X) -> np.ndarray:
    """phi^n(X) via sum lambda^n P_lambda(X) + S^n(X).

    S^n is the matrix power of the real form of S when S preserves
    Hermiticity (:func:`_real_form`), mapped back to column stacking
    before it is applied to vec(X).
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    X = linalg.as_matrix(X)
    d = decomp.dim
    if X.shape != (d, d):
        raise DimensionError(f"expected {d}x{d} input, got {X.shape}")
    v = linalg.vec(X)
    out = np.zeros(v.shape, dtype=complex)
    for lam, P in zip(decomp.lambdas, decomp.projectors):
        out += lam**n * (P @ v)
    A, hp = _real_form(decomp.stable)
    out += _column_stacking(np.linalg.matrix_power(A, n), hp) @ v
    return linalg.unvec(out, d)


def decay_fit(S, n_max: int) -> DecayFit:
    """Geometric-decay certificate for the stable part.

    1 + eps is placed at (1 - :data:`DECAY_MARGIN`)/rho(S), so the bound
    can never be falsified by transient growth of a non-normal S; M is
    then the smallest constant making the certificate true on the
    recorded norms.  S = 0 is reported as (M=0, eps=DECAY_MARGIN) by
    convention.  M and its re-check are computed in log space: for
    rho(S) below about 2e-8, (1 + eps)^40 alone overflows a float while
    M stays moderate.

    ``S`` is the stable part, or a :class:`PeripheralDecomposition`, whose
    stored ``stable_spectral_radius`` is then used as rho(S): it came
    from the eigenvalues of that same ``stable``.  For a bare matrix,
    rho(S) is taken from the eigenvalues of its blocks.

    The norms are computed on the real form of S when S preserves
    Hermiticity (:func:`_real_form`; the operator norm is invariant
    under the unitary change of basis), and on the exact diagonal
    blocks of that matrix (:func:`linalg.diagonal_blocks`): S^k is
    block diagonal with the same blocks, so ``||S^k|| = max_b
    ||B_b^k||``.  Blocks of one size are powered and normed as one
    stack.
    """
    if isinstance(S, PeripheralDecomposition):
        S, rho = S.stable, S.stable_spectral_radius
    else:
        S, rho = _as_matrix(S), None
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    stacks = _block_stacks(_real_form(S)[0])
    if rho is None:
        rho = max(float(np.max(np.abs(np.linalg.eigvals(B)))) for B in stacks)
    if rho >= 1.0:
        raise DomainError(f"stable part must satisfy rho(S) < 1, got {rho}")

    norms = np.zeros(n_max)
    for B in stacks:
        power = B
        for k in range(n_max):
            if k:
                power = power @ B
            top = np.linalg.svd(power, compute_uv=False)[:, 0].max()
            norms[k] = max(norms[k], top)
    norms = norms.tolist()

    if max(norms) <= 1e-13:
        # numerically zero stable part (e.g. pauli-xy at p = 1/2)
        return DecayFit(M=0.0, epsilon=DECAY_MARGIN, n_max=n_max, norms=tuple(norms))
    if rho <= 1e-13:
        eps = 1.0  # (near-)nilpotent S: any finite rate certifies
    else:
        eps = (1.0 - DECAY_MARGIN) / rho - 1.0
        if eps <= 0.0:
            eps = (1.0 - rho) / (2.0 * rho)
    growth = np.arange(1, n_max + 1) * math.log1p(eps)  # log (1+eps)^n
    with np.errstate(divide="ignore"):  # a zero norm has log -inf
        log_norms = np.log(norms)
    log_M = float(np.max(log_norms + growth))
    try:
        M = math.exp(log_M)
    except OverflowError:
        raise NumericError(
            f"decay constant M = exp({log_M:.1f}) overflows a float (rho(S) = {rho:.3e})"
        ) from None
    fit = DecayFit(M=M, epsilon=float(eps), n_max=n_max, norms=tuple(norms))
    log_bounds = math.log(fit.M) - growth  # re-verify: log(M/(1+eps)^n)
    for k, norm in enumerate(fit.norms):
        if log_norms[k] > log_bounds[k] + math.log1p(1e-12):
            raise NumericError(
                f"decay certificate fails at n={k + 1}: ||S^n|| = {norm:.6e} "
                f"> M/(1+eps)^n = {math.exp(log_bounds[k]):.6e}"
            )
    return fit


def _block_stacks(S) -> list:
    """The diagonal blocks of S as stacks (m, k, k), one per block size.

    A matrix that is one block is returned as a view of S, not a copy.
    """
    blocks = linalg.diagonal_blocks(S)
    if len(blocks) == 1:
        return [S[np.newaxis]]
    by_size: dict = {}
    for idx in blocks:
        by_size.setdefault(idx.size, []).append(idx)
    stacks = []
    for members in by_size.values():
        idx = np.array(members)  # (m, k)
        stacks.append(S[idx[:, :, np.newaxis], idx[:, np.newaxis, :]])
    return stacks


def splitting_check(L, tol: float = DEFAULT_FIXED_TOL):
    """Mean-ergodic splitting: the space is Ker(I-L) (+) Rng(I-L).

    Verifies dim counts add up to d^2, that the concatenated bases have
    full numerical rank, and the dual-orthogonality condition: elements
    of Rng(I-L) pair to zero with every fixed point of the adjoint.  Its
    residual is exact, ``||F^H R||`` for orthonormal bases F of
    Ker(I - L^H) and R of Rng(I-L): the largest pairing of a unit
    vector of the range with a unit fixed point of the adjoint.
    """
    M = _as_matrix(L)
    n = M.shape[0]
    I = np.eye(n)
    kernel = linalg.null_space(I - M, tol)
    rng_basis = linalg.column_space(I - M, tol)
    fixed_dim = kernel.shape[1]
    range_dim = rng_basis.shape[1]

    stacked = np.hstack([kernel, rng_basis])
    s = linalg.singular_values(stacked) if stacked.shape[1] else np.array([1.0])
    residual = float(s[-1])

    dual_fixed = linalg.null_space(I - M.conj().T, tol)
    if dual_fixed.shape[1] and range_dim:
        dual_residual = linalg.operator_norm(dual_fixed.conj().T @ rng_basis)
    else:
        dual_residual = 0.0

    if fixed_dim + range_dim != n or residual <= tol:
        raise SplittingViolationError(
            f"splitting failed: fixed_dim={fixed_dim}, range_dim={range_dim}, "
            f"total={n}, direct-sum residual={residual:.3e}"
        )
    return SplittingReport(
        fixed_dim=fixed_dim,
        range_dim=range_dim,
        direct_sum_residual=residual,
        dual_orthogonality_residual=dual_residual,
    )


def _basis_matrix(fs: FixedSpaceBasis) -> np.ndarray:
    if not fs.basis:
        return np.zeros((0, 0), dtype=complex)
    return np.column_stack([linalg.vec(B) for B in fs.basis])


def _mutual_projection_residual(fa: FixedSpaceBasis, fb: FixedSpaceBasis) -> float:
    """max over both directions of || (I - P_other) basis ||."""
    if fa.dimension != fb.dimension:
        return 1.0
    if fa.dimension == 0:
        return 0.0
    Qa = _basis_matrix(fa)
    Qb = _basis_matrix(fb)
    ra = linalg.operator_norm(Qa - Qb @ (Qb.conj().T @ Qa))
    rb = linalg.operator_norm(Qb - Qa @ (Qa.conj().T @ Qb))
    return max(ra, rb)


def fixed_space_intersection(
    channels, weights, tol: float = DEFAULT_FIXED_TOL
) -> IntersectionReport:
    """Fixed space of a convex combination vs. intersection of fixed
    spaces of the parts.

    The intersection is the kernel of the stacked projectors onto the
    complements of the parts' fixed spaces, from
    :func:`linalg.null_space` with its rank cut ``tol * max(1,
    sigma_max)``, the cut every fixed space here uses.  Equality of the
    two spaces is the content of the commuting-family lemma, so it is
    asserted only when the superoperators commute within ``tol``;
    otherwise ``equal`` is None and the commutator residual is reported.
    """
    weights = [float(w) for w in weights]
    if len(channels) != len(weights) or not channels:
        raise DomainError("need equally many channels and weights, at least one")
    if any(w <= 0 for w in weights):
        raise DomainError("weights must be strictly positive")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise DomainError(f"weights must sum to 1, got {sum(weights)}")
    dims = {ch.dim for ch in channels}
    if len(dims) != 1:
        raise DimensionError(f"channels must share one dimension, got {dims}")

    mats = [channel_mod.superoperator(ch).matrix for ch in channels]
    combined = sum(w * Lm for w, Lm in zip(weights, mats))
    combined_fixed = fixed_space(combined, tol)

    commute = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            commute = max(
                commute, linalg.operator_norm(mats[i] @ mats[j] - mats[j] @ mats[i])
            )

    n = mats[0].shape[0]
    I = np.eye(n)
    complements = []
    empty = False
    for Lm in mats:
        Q = linalg.null_space(I - Lm, tol)
        if Q.shape[1] == 0:
            empty = True
            break
        complements.append(I - Q @ Q.conj().T)
    d = channels[0].dim
    if empty:
        intersection = FixedSpaceBasis(basis=(), tol=tol)
    else:
        kernel = linalg.null_space(np.vstack(complements), tol)
        intersection = FixedSpaceBasis(
            basis=tuple(
                linalg.unvec(kernel[:, k], d) for k in range(kernel.shape[1])
            ),
            tol=tol,
        )

    if commute <= tol:
        resid = _mutual_projection_residual(combined_fixed, intersection)
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


def peripheral_unitarity_check(L, decomp: PeripheralDecomposition) -> float:
    """max |sigma_k - 1| of L restricted to the peripheral span.

    The restriction of a mean-ergodic contraction to the span of its
    peripheral eigenspaces is unitary.  The classical statement is made
    on the union of the fixed spaces F(T/lambda), which is not a linear
    subspace; this check uses the span instead (interpretive choice).
    """
    if not decomp.lambdas:
        raise DegenerateInputError("peripheral spectrum is empty")
    M = _as_matrix(L)
    Psum = sum(decomp.projectors)
    Q = linalg.column_space(Psum, tol=0.5)
    R = Q.conj().T @ M @ Q
    s = linalg.singular_values(R)
    return float(np.max(np.abs(s - 1.0)))


def hs_fixed_point_symmetry(ch, tol: float = DEFAULT_FIXED_TOL) -> HsSymmetryReport:
    """Compare the fixed spaces F(phi) and F(phi*) on the Hilbert-Schmidt
    space.

    Their dimensions always agree, since rank(I - L) = rank(I - L^H).
    The spaces themselves agree when phi is unital and trace preserving:
    both are then the commutant of the Kraus operators (Arias, Gheondea
    & Gudder, J. Math. Phys. 43 (2002) 5872).  Otherwise they may
    differ: for a trace-preserving phi that is not unital, phi* fixes I
    and phi does not, so ``equal`` is False.
    """
    Lf = channel_mod.superoperator(ch, channel_mod.FORWARD)
    La = channel_mod.superoperator(ch, channel_mod.ADJOINT)
    ff = fixed_space(Lf, tol)
    fa = fixed_space(La, tol)
    resid = _mutual_projection_residual(ff, fa)
    return HsSymmetryReport(
        forward_fixed=ff,
        adjoint_fixed=fa,
        equal=ff.dimension == fa.dimension and resid <= tol,
        projection_residual=resid,
    )
