"""Helpers shared by the test modules and ``tests_scale/``: the one
source of random channels (``stinespring_channel``, which the corpus
draws its random cases from), the channel of one side, the mirror of a
superoperator matrix, a numpy.linalg call counter, the imaginary share
of a Kraus family's Hermitian form, and the bit-for-bit comparison of
the entry routes with the whole-matrix reference.  The channels the
tests run on are named in ``corpus.py``."""

import numpy as np

from ergochan import (KrausChannel, channel, ergodic, linalg, peripheral_decomposition,
                      spectral_projectors, superoperator)
from ergochan.errors import ErgochanError
from ergochan.channel import FORWARD


def stinespring_channel(seed, d, count=3, drop=0, scale=1.0, label=""):
    """A random channel from the QR of a complex Gaussian: the ``count``
    d x d slices of a Stinespring isometry, times ``scale``.  Dropping
    ``drop`` of them makes it trace decreasing.  ``seed`` is an int or a
    ``numpy.random.Generator``, which is then drawn from."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(count * d, d)) + 1j * rng.normal(size=(count * d, d))
    Q, _ = np.linalg.qr(G)
    kraus = tuple(scale * Q[k * d : (k + 1) * d] for k in range(count - drop))
    return KrausChannel(kraus=kraus, label=label)


def on_side(ch, side):
    """The channel of phi on ``side``: ``ch`` itself, or for the adjoint
    phi* the channel of the V_i^dag."""
    return ch if side == FORWARD else channel.adjoint_channel(ch)


def count_linalg_calls(monkeypatch, names):
    """Record (name, trailing 2-d shape) of each numpy.linalg call."""
    calls = []
    for name in names:
        orig = getattr(np.linalg, name)

        def counted(a, *args, _orig=orig, _name=name, **kwargs):
            calls.append((_name, np.shape(a)[-2:]))
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def mirror(M):
    """Pi conj(M) Pi, Pi the permutation vec(X) -> vec(X^T)."""
    d = int(round(np.sqrt(M.shape[0])))
    perm = np.arange(d * d).reshape(d, d).T.reshape(-1)
    return np.conj(M[np.ix_(perm, perm)])


def imaginary_shares(kraus, whole=True):
    """The largest imaginary part of the Hermitian form of the Kraus
    family ``kraus``, relative to its largest entry, on each Kraus route:
    the entries (``linalg.kraus_entries`` then ``linalg.form_entries``)
    and, with ``whole``, the whole form (``linalg.kraus_hermitian_form``)."""
    p, q, values = linalg.kraus_entries([kraus])
    forms = [linalg.form_entries(kraus[0].shape[0] ** 2, p, q, values)[2]]
    if whole:
        forms.append(linalg.kraus_hermitian_form(kraus))
    # a zero form, as of Kraus entries whose products underflow, is real
    return [float(np.max(np.abs(H.imag)) / top) if (top := np.max(np.abs(H))) else 0.0
            for H in forms]


def kron_sum(kraus):
    """The reference superoperator: the np.kron products of the V_i added
    up in their order, from +0."""
    d = kraus[0].shape[0]
    L = np.zeros((d * d, d * d), dtype=complex)
    for V in kraus:
        L += np.kron(V.conj(), V)
    return L


def whole_sectors(*mats):
    """The reference layout and stacks of the d^2 x d^2 matrices: each
    changed to the Hermitian basis whole, the layout that of the union of
    the supports of their real forms."""
    forms = [np.ascontiguousarray(linalg.to_hermitian_basis(M).real) for M in mats]
    layout = linalg.BlockLayout(*linalg.support_components(sum(np.abs(A) for A in forms)))
    return (layout, *(layout.split(A) for A in forms))


def assert_bits(got, want):
    """Equal dtype, shape and bits, signs of zeros included."""
    assert got.dtype == want.dtype and got.shape == want.shape
    bits = [np.ascontiguousarray(x).view(np.uint64) for x in (got, want)]
    assert np.array_equal(*bits)


def assert_same_layout(layout, layout0):
    assert layout.n == layout0.n
    for idx, idx0 in zip(layout.index, layout0.index, strict=True):
        assert idx.dtype == idx0.dtype and np.array_equal(idx, idx0)


def assert_same_sectors(ch, side):
    """The Kraus path and the matrix path each give the layout and the
    stacks of the whole-matrix reference, bit for bit, signs of zeros
    included, and the superoperator is the np.kron sum, bit for bit."""
    ch = on_side(ch, side)
    L0 = kron_sum(ch.kraus)
    L = superoperator(ch)
    assert_bits(L, L0)
    layout0, stacks0 = whole_sectors(L0)
    for source in (ch, L):
        d, layout, stacks = ergodic._sectors(source)
        assert d == ch.dim
        assert_same_layout(layout, layout0)
        assert len(stacks) == len(stacks0)
        for X, X0 in zip(stacks, stacks0):
            assert X.dtype == np.float64
            assert_bits(X, X0)
    return layout0


def assert_same_exits(ch, side):
    """The dense results built from block entries equal the whole-matrix
    change back, from_hermitian_basis(layout.join(...)), bit for bit:
    linalg.from_hermitian_blocks on the real form and on a complex
    multiple of it, and the projectors and the stable part of the
    decomposition, where the decomposition succeeds."""
    ch = on_side(ch, side)
    _, layout, stacks = ergodic._sectors(ch)
    for blocks in (stacks, [X * (0.25 - 1j) for X in stacks]):
        want = linalg.from_hermitian_basis(layout.join(blocks))
        assert_bits(linalg.from_hermitian_blocks(layout, blocks), want)
    try:
        decomp = peripheral_decomposition(ch, cesaro_check_n=0)
    except ErgochanError:  # not power bounded, or an unresolved cluster
        return
    assert_bits(decomp.stable, linalg.from_hermitian_basis(layout.join(decomp.stable_blocks)))
    wants = [linalg.from_hermitian_basis(layout.join(P)) for P in decomp.projector_blocks]
    for P, want in zip(decomp.projectors, wants, strict=True):
        assert_bits(P, want)
    for P, want in zip(spectral_projectors(ch, decomp.lambdas), wants, strict=True):
        assert_bits(P, want)


def assert_same_routes(ch, side):
    layout = assert_same_sectors(ch, side)
    assert_same_exits(ch, side)
    return layout
