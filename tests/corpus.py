"""One seeded corpus of named channels for the tests and the scale checks.

A :class:`Case` carries its id, its channel (built here, from fixed
seeds), its sides, its slices, its closed form where one exists, and,
for a valid channel the program refuses today, a :class:`Defect` with
the measured numbers.  Tests take their cases from slices
(:func:`params`), so a case added to a slice runs in every test of it:

- ``catalog``: closed-form catalog points at d <= 8;
- ``small``: edge cases, small random channels, and the pauli-xy points
  p = 1 - 10^-k, k = 2 and 9, that the Cesaro check passes;
- ``edge``: d = 1, Kraus rank above d^2, and Kraus entries whose
  products underflow;
- ``sparse``: several exact blocks in the Hermitian form, d <= 8;
  ``blockwise``: the same at d = 16, for the block-wise decay norms;
- ``dense``: random Stinespring channels, one block each;
- ``unitary``: random unitary channels, every eigenvalue peripheral;
- ``sweep``: the catalog families at every d from 2 to 16;
- ``oracle``: the catalog over p and d = 2 to 16, and random channels,
  for the dense oracles (the eigensolve of S, one SVD of I - L);
- ``pairs``: cases with a second channel of their family (``partner``);
- ``scale``: d = 24 to 64, for ``tests_scale/`` outside the tier-1 paths;
- ``known_defect``: valid channels the Cesaro check refuses at the
  default n = 10^4, each a strict xfail that states its numbers.

To add a case, add one line to :func:`build`; nothing else names it.
"""

import dataclasses

import numpy as np
import pytest

from ergochan import (KrausChannel, ergodic, ladder_channel, parity_fock_channel,
                      pauli_xy_channel, shift_channel)
from ergochan.channel import ADJOINT, FORWARD
from ergochan.errors import DecompositionFailureError
from helpers import stinespring_channel

BOTH = (FORWARD, ADJOINT)


@dataclasses.dataclass(frozen=True)
class Defect:
    """The Cesaro residual at lambda = 1 of a valid channel that the check
    refuses at n = 10^4, and its budget, which ignores how slowly the
    channel mixes (ROADMAP item 1)."""

    residual: float
    budget: float

    def mark(self):
        return pytest.mark.xfail(
            strict=True,
            raises=DecompositionFailureError,
            reason=f"known defect (ROADMAP item 1): Cesaro residual {self.residual:.4g} "
            f"against a budget of {self.budget:.4g} at n = 10^4",
        )


@dataclasses.dataclass(frozen=True)
class Case:
    id: str
    channel: KrausChannel
    slices: frozenset
    sides: tuple = BOTH
    # (lambda, rank) of each peripheral cluster at the default cut, on
    # either side; the fixed dimension is the rank at lambda = 1
    peripheral: tuple | None = None
    defect: Defect | None = None
    partner: KrausChannel | None = None

    @property
    def fixed_dim(self) -> int:
        return sum(rank for lam, rank in self.peripheral if abs(lam - 1) < 1e-9)


def at_cut(eigenvalues) -> tuple:
    """(lambda, rank) of the clusters of the exact eigenvalues of L in the
    default peripheral band, each lambda the unit-modulus mean of its
    cluster, as ``peripheral_decomposition`` clusters them."""
    band = [complex(z) for z in eigenvalues if abs(z) >= 1 - ergodic.DEFAULT_PERIPHERAL_TOL]
    clusters = []
    for z in sorted(band, key=np.angle):
        if clusters and abs(z - clusters[-1][-1]) <= ergodic.DEFAULT_CLUSTER_TOL:
            clusters[-1].append(z)
        else:
            clusters.append([z])
    means = [complex(np.mean(c)) for c in clusters]
    return tuple((m / abs(m), len(c)) for m, c in zip(means, clusters))


def identity_channel(d):
    return KrausChannel(kraus=(np.eye(d),), label=f"identity({d})")


def replacement_channel(sigma):
    """X -> Tr(X) diag(sigma): V_ij = sqrt(sigma_i) |i><j|."""
    E = np.eye(len(sigma))
    kraus = [np.sqrt(s) * np.outer(E[i], E[j]) for i, s in enumerate(sigma) for j in range(len(E))]
    return KrausChannel(kraus=tuple(kraus), label="replacement")


def conjugate_pair_channel(p, theta):
    """V1 = sqrt(p) U, V2 = sqrt(1-p) U Z with U = diag(e^{i k theta}),
    Z = diag(1, -1, 1): phi(E_jk) = e^{i(j-k) theta} (p + (1-p) z_j z_k) E_jk."""
    U = np.diag(np.exp(1j * theta * np.arange(3)))
    Z = np.diag([1.0, -1.0, 1.0])
    return KrausChannel(kraus=(np.sqrt(p) * U, np.sqrt(1 - p) * U @ Z))


def covariant_channel(seed, d, offsets=(0, 1, -1, 2), scale=1.0):
    """Random phase-covariant channel: V_k = diag(z_k) shift^{o_k}, each
    moving the number basis by a fixed offset, normalised so that
    sum V^dag V = scale * I (trace decreasing for scale < 1)."""
    rng = np.random.default_rng(seed)
    kraus = [np.diag(rng.normal(size=d) + 1j * rng.normal(size=d)) @ np.eye(d, k=o)
             for o in offsets]
    total = np.real(np.diag(sum(V.conj().T @ V for V in kraus)))  # diagonal
    return KrausChannel(kraus=tuple(V * np.sqrt(scale / total) for V in kraus))


def planted_channel(phases, seed, m):
    """V_i = U (x) W_i, U = diag(exp(i phases)) and W the seeded 2-Kraus
    Stinespring channel on C^m: the peripheral eigenvalues are the ratios
    of the phases, each of the rank of the pairs that give it."""
    U = np.diag(np.exp(1j * np.asarray(phases)))
    W = stinespring_channel(seed, m, 2).kraus
    return KrausChannel(kraus=tuple(np.kron(U, V) for V in W))


def _fmt(x):
    return f"{x:g}" if x < 0.999 else f"1-{1 - x:.0e}".replace("e-0", "e-")


def build() -> tuple:
    """Every case of the corpus, built anew."""
    cases = []

    def add(id, channel, *slices, **fields):
        cases.append(Case(id, channel, frozenset(slices), **fields))

    def pauli(p, *slices, **fields):
        add(f"pauli-{_fmt(p)}", pauli_xy_channel(p), *slices,
            peripheral=at_cut([1.0, -1.0, 2 * p - 1, 1 - 2 * p]), **fields)

    # the shift has rho(L) < 1 and the ladder one fixed state; parity-fock
    # keeps E_jk for an even gap j - k and scales it by 2p - 1 for an odd one
    families = {
        "shift": (shift_channel, lambda p, d: ()),
        "parity": (parity_fock_channel, lambda p, d: at_cut(
            [1.0 if (j - k) % 2 == 0 else 2 * p - 1 for j in range(d) for k in range(d)])),
        "ladder": (ladder_channel, lambda p, d: ((1.0, 1),)),
    }

    def family(name, p, d, *slices, **fields):
        make, peripheral = families[name]
        add(f"{name}-{_fmt(p)}-d{d}", make(p, d), *slices, peripheral=peripheral(p, d), **fields)

    def stinespring(seed, d, *slices, count=3, drop=0, scale=1.0, **fields):
        id = (f"stinespring-{seed}-d{d}" + f"-k{count}" * (count != 3) + f"-drop{drop}" * drop
              + f"-x{scale:g}" * (scale != 1))
        add(id, stinespring_channel(seed, d, count, drop, scale, label=id), *slices, **fields)

    def unitary(seed, d, *slices, **fields):
        add(f"unitary-{seed}-d{d}", stinespring_channel(seed, d, 1), *slices, **fields)

    # pauli-xy, and its sweep p = 1 - 10^-k toward the identity
    pauli(0.25, "catalog", "oracle", "sweep")
    pauli(0.3, "sparse", "oracle", "sweep", "pairs", partner=pauli_xy_channel(0.7))
    pauli(0.5, "catalog", "scale")
    pauli(0.9, "catalog", "oracle")
    pauli(0.99, "small")
    residuals = (4.99e-2, 0.4323, 0.9063, 0.9901, 0.999, 0.9999)
    for k, residual in enumerate(residuals, 3):
        pauli(1 - 10.0**-k, "known_defect", defect=Defect(residual, 5.0e-3))
    pauli(1 - 1e-9, "small", "oracle")

    # the catalog families over d; a case of "pairs" has the same family
    # at 0.6 as its partner
    for name, p, d, slices in [
        ("shift", 0.5, 8, ("catalog", "oracle")),
        ("parity", 0.3, 8, ("catalog", "sparse", "oracle", "sweep", "pairs")),
        ("shift", 0.4, 8, ("sparse",)),
        ("shift", 0.4, 16, ("blockwise",)),
        ("ladder", 0.7, 8, ("sparse", "oracle")),
        ("ladder", 0.7, 16, ("blockwise", "oracle")),
        ("ladder", 0.3, 4, ("sparse", "oracle", "pairs")),
        ("shift", 0.5, 16, ("oracle",)),
        ("parity", 0.3, 16, ("oracle", "sweep", "pairs")),
        ("parity", 1 - 1e-9, 4, ("oracle",)),
        ("parity", 0.3, 2, ("oracle", "sweep")),
        ("parity", 0.3, 4, ("small", "oracle", "sweep", "pairs")),
        *(("ladder", 0.3, d, ("oracle", "pairs")) for d in (8, 16)),
        ("shift", 0.5, 2, ("oracle",)),
        ("shift", 0.5, 4, ("small", "oracle")),
        *(("ladder", g, d, ("oracle",)) for g, d in [(0.5, 4), (0.5, 8), (0.5, 16), (0.7, 4)]),
        *(("shift", 0.3, d, ("sweep", "pairs")) for d in (4, 8, 16)),
        *(("shift", 0.3, d, ("sweep",)) for d in range(2, 17) if d not in (4, 8, 16)),
        *(("parity", 0.3, d, ("sweep",)) for d in range(2, 17) if d not in (2, 4, 8, 16)),
        *(("ladder", 0.6, d, ("sweep",)) for d in range(2, 17)),
    ]:
        partner = families[name][0](0.6, d) if "pairs" in slices else None
        family(name, p, d, *slices, partner=partner)
    family("parity", 0.5, 8, "pairs", partner=parity_fock_channel(0.5, 8))  # unital
    family("ladder", 0.6, 17, "known_defect", defect=Defect(6.324e-3, 5.976e-3))

    # edge cases and hand-built families
    add("identity-d3", identity_channel(3), "small", peripheral=((1.0, 9),))
    add("replacement-d3", replacement_channel([0.5, 0.3, 0.2]), "small",
        peripheral=((1.0, 1),))
    z = np.exp(1.4j)
    add("conjpair-d3", conjugate_pair_channel(0.3, 0.7), "sparse",
        peripheral=((z.conjugate(), 1), (1.0, 3), (z, 1)))
    add("covariant-31-d5", covariant_channel(31, 5), "sparse")
    add("covariant-32-d5-sub", covariant_channel(32, 5, scale=0.9), "sparse")

    # d = 1: X -> X twice, and X -> X / 2; Kraus rank above d^2, one fixed
    # state; entries of 1e-150, whose products underflow to 1e-300, and of
    # 1e-200, whose products are 0
    for id, V, peripheral in [("identity-d1", 1.0, ((1.0, 1),)),
                              ("phase-d1", np.exp(0.7j), ((1.0, 1),)),
                              ("damping-0.5-d1", np.sqrt(0.5), ())]:
        add(id, KrausChannel(kraus=(np.array([[V]]),), label=id), "edge", peripheral=peripheral)
    stinespring(60, 2, "edge", count=6, peripheral=((1.0, 1),))
    stinespring(61, 3, "edge", count=10, peripheral=((1.0, 1),))
    for seed, scale in ((62, 1e-150), (63, 1e-200)):
        stinespring(seed, 3, "edge", scale=scale, peripheral=())

    # random Stinespring channels
    stinespring(7, 3, "dense", count=2)
    for d in range(2, 9):
        stinespring(100 + d, d, "dense")
        stinespring(100 + d, d, "dense", drop=1)
    for d, count in ((3, 2), (4, 3), (6, 2)):
        stinespring(30 + d, d, "small", count=count)
    stinespring(5, 3, "small", "sweep", count=2)
    for seed, d, count in ((40, 3, 2), (41, 4, 3), (42, 6, 2)):
        stinespring(seed, d, "oracle", count=count)
    for seed in range(30):
        stinespring(seed, 2 + seed % 7, "oracle", count=2 + seed % 3, sides=(FORWARD,))
    for seed, d, drop in ((31, 3, 0), (33, 6, 0), (35, 3, 1), (37, 6, 1)):
        stinespring(seed, d, "pairs", drop=drop,
                    partner=stinespring_channel(seed + 1, d, drop=drop))
    stinespring(11, 5, "sweep", count=2)
    stinespring(12, 8, "sweep", drop=1)

    # random unitary channels: the Stinespring isometries of one operator
    unitary(405, 3, "small", "unitary")
    for seed, d in [(406, 3), (407, 3), (408, 3), (405, 4), (406, 4), (407, 4), (408, 4),
                    (407, 5), (408, 6), (503, 3), (504, 4), (505, 5), (506, 6)]:
        unitary(seed, d, "unitary")

    # the scale checks
    unitary(3, 3, "scale")
    for name, p, d in [*(("parity", p, 32) for p in (0.3, 0.5, 0.6, 0.7)),
                       *(("shift", p, 32) for p in (0.3, 0.5, 0.6)), ("ladder", 0.6, 32),
                       ("ladder", 0.7, 32), ("shift", 0.5, 64), ("parity", 0.3, 64)]:
        family(name, p, d, "scale")
    stinespring(24, 24, "scale", count=2)
    w = np.exp(2j * np.pi / 3)
    add("cube-roots-d24", planted_channel(2 * np.pi * np.arange(3) / 3, 8, 8), "scale",
        peripheral=((w.conjugate(), 3), (1.0, 3), (w, 3)))
    w = np.exp(2e-7j)
    add("phase-gap-d24", planted_channel([0.3, 0.3 + 2e-7], 12, 12), "scale",
        peripheral=((w.conjugate(), 1), (1.0, 2), (w, 1)))
    return tuple(cases)


ALL = build()
BY_ID = {case.id: case for case in ALL}


def get(id) -> KrausChannel:
    """The channel of the case ``id``."""
    return BY_ID[id].channel


def cases(*slices) -> list:
    """The cases of any of ``slices``, in corpus order."""
    return [case for case in ALL if case.slices & set(slices)]


def params(*slices, sides=False, partner=False, case=False):
    """pytest params of the cases of ``slices``: ``(channel,)``, with
    ``sides`` ``(channel, side)`` for each side of the case, and with
    ``partner`` the partner channel after the channel; with ``case`` the
    :class:`Case` in place of its channel.  A known defect carries its
    strict xfail."""
    out = []
    for c in cases(*slices):
        marks = [c.defect.mark()] if c.defect else []
        head = (c if case else c.channel,) + ((c.partner,) if partner else ())
        if sides:
            out += [pytest.param(*head, side, id=f"{c.id}-{side}", marks=marks) for side in c.sides]
        else:
            out.append(pytest.param(*head, id=c.id, marks=marks))
    return out
