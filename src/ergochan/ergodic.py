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

#: The Cesaro cross-check at length n accepts a residual up to
#: ``CESARO_CHECK_FACTOR / n * max(1, ||L||)``.
CESARO_CHECK_FACTOR = 50.0

#: Error bound of :func:`power_iterate` in units of n * d * u * ||X||_HS,
#: u = 2^-53: twice the largest ratio measured (see its docstring).
POWER_DRIFT = 4.0

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
    ``projector_norm``, recorded and not thresholded, is the largest
    ||P_lambda||_2 (0 without lambdas).  ``fixed_space`` is the kernel of
    L - 1 (empty when 1 is not peripheral); its dimension is the rank of
    P_1, and for a Hermiticity-preserving L its matrices are Hermitian.
    """

    dim: int
    lambdas: tuple
    projectors: tuple
    stable: np.ndarray
    stable_spectral_radius: float
    peripheral_tol: float
    cluster_tol: float
    projector_norm: float
    fixed_space: FixedSpaceBasis

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
    return _fixed_basis(linalg.null_space(np.eye(len(M)) - M, tol), _side_dim(M), tol)


def _fixed_basis(K, d: int, tol: float, hp: bool = False) -> FixedSpaceBasis:
    """The columns of K (vec of d x d matrices, or if ``hp`` their
    Hermitian-basis coordinates) as a basis."""
    to_vec = linalg.from_hermitian_coordinates if hp else np.asarray
    return FixedSpaceBasis(tuple(linalg.unvec(to_vec(v), d) for v in K.T), tol)


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
    """Spectral projector onto each peripheral cluster, from the kernels
    of L - lambda (:func:`_kernel_projectors`); a lambda that is not
    semisimple raises :class:`IllConditionedDecompositionError`."""
    A, hp = _real_form(_as_matrix(L))
    projectors, _, _ = _kernel_projectors(
        A, linalg.eigvals(A), lambdas, cluster_tol, peripheral_tol
    )
    return [_column_stacking(P, hp) for P in projectors]


def _kernel_projectors(A, eigenvalues, lambdas, cluster_tol, peripheral_tol) -> tuple:
    """(projectors, kernels V, max ||P||_2) of A at the ``lambdas``.

    A lambda's cluster is the m ``eigenvalues`` within ``cluster_tol + 10
    * peripheral_tol`` of it.  The trailing m right and left singular
    vectors of A - lambda span its kernels V and U, and P = V (U^H V)^-1 U^H,
    of norm 1/sigma_min(U^H V), projects onto Ker(A - lambda) along
    Rng(A - lambda): the spectral projector if lambda is semisimple, i.e.
    if the kernel dimension (linalg's rank cut at the cluster's tolerance)
    is m; else :class:`IllConditionedDecompositionError`.
    On a real A, P is real at a real lambda, and P(conj lambda) = conj
    P(lambda) reuses the SVD of the lambda before it."""
    real, n = np.isrealobj(A), A.shape[0]
    match_tol = cluster_tol + 10.0 * peripheral_tol
    projectors, kernels, norms = [], [], [0.0]
    for i, lam in enumerate(map(complex, lambdas)):
        paired = i and abs(lambdas[i - 1] - lam.conjugate()) <= cluster_tol
        if real and lam.imag < 0 and paired:
            projectors.append(projectors[-1].conj())
            kernels.append(kernels[-1].conj())
            continue
        m = int(np.sum(np.abs(eigenvalues - lam) <= match_tol))
        if not m:
            raise DecompositionFailureError(
                f"no eigenvalue of L within {match_tol:.1e} of {lam}",
                spectral_radius=float("nan"),
            )
        shift = lam.real if real and not lam.imag else lam  # a real A stays real
        U, s, Vh = linalg.svd(A - shift * np.eye(n))
        kernel_dim = n - linalg._numerical_rank(s, match_tol)
        if kernel_dim != m:
            k = n - m if kernel_dim < m else n - m - 1  # the deciding singular value
            raise IllConditionedDecompositionError(
                f"lambda = {lam:.6g} is not semisimple: {m} eigenvalues cluster "
                f"there, but Ker(L - lambda) has dimension {kernel_dim} (sigma_{k + 1} "
                f"of L - lambda is {s[k]:.3e} against the cut "
                f"{match_tol * max(1.0, s[0]):.3e})",
                singular_value=float(s[k]),
            )
        V, U = Vh[n - m:].conj().T, U[:, n - m:]
        Ug, g, Vgh = linalg.svd(U.conj().T @ V)
        projectors.append((V @ Vgh.conj().T / g) @ (U @ Ug).conj().T)
        kernels.append(V)
        norms.append(1.0 / float(g[-1]))
    return projectors, kernels, max(norms)


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

    The eigenvalues of L (one ``eigvals``) are clustered into the
    peripheral set; the kernels of L - lambda give the projectors,
    ``projector_norm`` and the fixed space, and a lambda that is not
    semisimple is refused (:func:`_kernel_projectors`).  The projectors
    are then validated against Cesaro averages of length ``cesaro_check_n``
    (default :data:`DEFAULT_CESARO_N`); a disagreement larger than
    :data:`CESARO_CHECK_FACTOR` ``/ n`` (times max(1, ||L||)) is an
    error, not a warning.  Set ``cesaro_check_n=0`` to skip the check.

    When L preserves Hermiticity (every quantum operation does), all of
    this runs on its real form in the Hermitian basis
    (:func:`_real_form`): the eigenvalues, the kernels, the stable part
    and rho(S), and the Cesaro products, which are real for lambda = +-1.
    The projectors and S are then mapped back to the column-stacking
    basis, S symmetrised so that it preserves Hermiticity exactly.
    Other input runs the same code in complex arithmetic.
    """
    M = _as_matrix(L)
    d = _side_dim(M)
    A, hp = _real_form(M)
    eigenvalues = linalg.eigvals(A)
    lambdas = _peripheral_clusters(eigenvalues, peripheral_tol, cluster_tol)
    projectors, kernels, norm = _kernel_projectors(
        A, eigenvalues, lambdas, cluster_tol, peripheral_tol
    )
    fixed = [V for lam, V in zip(lambdas, kernels) if abs(lam - 1) <= cluster_tol]
    fixed = fixed[0] if fixed else np.zeros((A.shape[0], 0))
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
        projector_norm=norm,
        fixed_space=_fixed_basis(fixed, d, cluster_tol + 10 * peripheral_tol, hp),
    )


def power_iterate(L, n: int, X) -> np.ndarray:
    """phi^n(X) = unvec(L^n vec(X)) by right-to-left binary powering.

    The bits of n are walked from the lowest: the vector is multiplied
    by the current power L^(2^k) where bit k is set, and the power is
    squared for the next bit.  That is floor(log2 n) squarings and one
    matrix-vector product per set bit, and L^n itself is never formed
    (Higham, *Functions of Matrices*, 2008).  No eigendecomposition is
    involved, so this is independent of :func:`peripheral_decomposition`.
    n = 0 returns X; n < 0 raises :class:`DomainError`.

    A Hermiticity-preserving L is powered as its real form A
    (:func:`_real_form`) and applied to the Hermitian-basis coordinates
    ``w = B^H vec(X)``, real and imaginary parts as one d^2 x 2 real
    block; other L run the same code in complex arithmetic.

    Accuracy: a computed eigenvalue 1 of L is 1 + O(u), u = 2^-53, and
    L^(2^k) raises it to the power 2^k, so on the fixed space the error
    grows linearly in n, not in log n.  Measured in HS norm against the
    per-step ``channel.apply_n`` (random Stinespring channels d = 2..8,
    12 and 16, both sides, n <= 10^4) and against the closed forms of pauli-xy and
    parity-fock d = 2..16 (n <= 10^6), the error divided by
    ``n * d * u * ||X||_HS`` was at most 2.0 (pauli-xy at p = 1/2, n = 1)
    and at most 1.5 for n >= 64.  The documented bound is twice that,
    :data:`POWER_DRIFT` ``* n * d * u * ||X||_HS``: 7e-11 at n = 10^4,
    d = 16, for a unit-norm X.
    """
    M = _as_matrix(L)
    d = _side_dim(M)
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    X = linalg.as_matrix(X)
    if X.shape != (d, d):
        raise DimensionError(f"expected {d}x{d} input, got {X.shape}")
    if n == 0:
        return np.array(X, dtype=complex)
    return linalg.unvec(_power_apply(M, n, linalg.vec(X)), d)


def _power_apply(M, n: int, v) -> np.ndarray:
    """M^n v for n >= 1 by right-to-left binary powering, on the real
    form of M when it has one (:func:`power_iterate`)."""
    A, hp = _real_form(M)
    if hp:
        w = linalg.to_hermitian_coordinates(v)
        v = np.column_stack([w.real, w.imag])
    power = A
    while True:
        if n & 1:
            v = power @ v
        n >>= 1
        if not n:
            break
        power = power @ power
    if hp:
        return linalg.from_hermitian_coordinates(v[:, 0] + 1j * v[:, 1])
    return v


def reconstruct_iterate(decomp: PeripheralDecomposition, n: int, X) -> np.ndarray:
    """phi^n(X) via sum lambda^n P_lambda(X) + S^n(X).

    S^n(X) is taken by the binary powering of :func:`power_iterate`, on
    the real form of S when S preserves Hermiticity; S^n is never
    formed.  Its error does not grow with n, since rho(S) < 1.
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
    out += _power_apply(decomp.stable, n, v)
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

    I = np.eye(mats[0].shape[0])
    complements = []
    for Lm in mats:  # a part with no fixed point contributes I: no kernel
        Q = linalg.null_space(I - Lm, tol)
        complements.append(I - Q @ Q.conj().T)
    kernel = linalg.null_space(np.vstack(complements), tol)
    intersection = _fixed_basis(kernel, channels[0].dim, tol)

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
    Q = linalg.svd(sum(decomp.projectors))[0][:, : sum(decomp.projector_ranks)]
    s = linalg.singular_values(Q.conj().T @ _as_matrix(L) @ Q)
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
