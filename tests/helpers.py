"""Helpers shared by the test modules and ``tests_scale/``: the one
source of random channels (``stinespring_channel``, which the corpus
draws its random cases from), the channel of one side, the vectorized
basis of a fixed space, the mirror of a superoperator matrix, a
numpy.linalg call counter, the checks that run over every corpus case
(the imaginary share of the Kraus forms, the fixed-space document), and
the bit-for-bit comparison of each way of building the Hermitian form
with the whole-matrix reference, built once per channel for all the
ways.  The channels the tests run on are named in ``corpus.py``."""

import contextlib

import numpy as np

from ergochan import (KrausChannel, channel, ergodic, fixed_space, io, linalg,
                      peripheral_decomposition, spectral_projectors, superoperator)
from ergochan.errors import ErgochanError
from ergochan.channel import ADJOINT, FORWARD


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


def basis_columns(fs) -> np.ndarray:
    """The vectorized basis matrices of the FixedSpaceBasis ``fs`` as the
    columns of a d^2 x dimension matrix."""
    return np.column_stack([linalg.vec(B) for B in fs.basis] or [np.zeros((fs.n, 0))])


def mirror(M):
    """Pi conj(M) Pi, Pi the permutation vec(X) -> vec(X^T)."""
    d = int(round(np.sqrt(M.shape[0])))
    perm = np.arange(d * d).reshape(d, d).T.reshape(-1)
    return np.conj(M[np.ix_(perm, perm)])


def imaginary_share(case):
    """The largest imaginary part of the Hermitian form of the Kraus
    family of the channel of the corpus case ``case`` or of its partner,
    relative to the form's largest entry, on each Kraus route: the
    entries (``linalg.kraus_entries`` then ``linalg.form_entries``) and
    the whole form (``linalg.kraus_hermitian_form``), that only up to
    d = 32: at d = 64 it is 4096 x 4096."""
    shares = [0.0]
    for ch in (ch for ch in (case.channel, case.partner) if ch is not None):
        p, q, values = linalg.kraus_entries([ch.kraus])
        forms = [linalg.form_entries(ch.dim**2, p, q, values)[2]]
        if ch.dim <= 32:
            forms.append(linalg.kraus_hermitian_form(ch.kraus))
        # a zero form, as of Kraus entries whose products underflow, is real
        shares += [float(np.max(np.abs(H.imag)) / top) for H in forms
                   if (top := np.max(np.abs(H)))]
    return max(shares)


def assert_fixed_space_document(ch, side):
    """fixed_space of ``ch`` on ``side`` and its document share the one
    default cut, linalg.DEFAULT_TOL, and the basis, byte for byte."""
    fs = fixed_space(on_side(ch, side))
    doc = io.fixed_space_channel(ch, adjoint=side == ADJOINT)
    assert fs.tol == linalg.DEFAULT_TOL and doc["dimension"] == fs.dimension
    assert doc["basis"].dtype == fs.stack.dtype and doc["basis"].shape == fs.stack.shape
    assert doc["basis"].tobytes() == fs.stack.tobytes()


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


#: The ENTRY_COST that forces each of the two routes linalg.by_entries
#: picks between: every count is cheap by entries, or dear.
ROUTES = {"entries": 0, "whole": 10**30}

#: Each way the Hermitian form is built: the route linalg.by_entries
#: chooses by cost, and each of :data:`ROUTES`, forced.
WAYS = ["chosen", *ROUTES]


@contextlib.contextmanager
def route(name):
    """Run the block on the way ``name`` of :data:`WAYS`: at the
    ENTRY_COST in force for "chosen", else on that route, forced."""
    saved = linalg.ENTRY_COST
    linalg.ENTRY_COST = saved if name == "chosen" else ROUTES[name]
    try:
        yield
    finally:
        linalg.ENTRY_COST = saved


#: The whole-matrix references of each channel assert_same_routes has
#: checked, by its Kraus operators, and the owner they are kept for
#: (:func:`share_references`), so that each way checked against them
#: builds them once.
_REFERENCES = {"owner": None, "by_kraus": {}}


def share_references(owner):
    """Keep the references built so far if ``owner``, any hashable, is the
    one they are kept for, else forget them and keep the next for
    ``owner``: the nodes of one input share them, and one input's are
    held at a time."""
    if _REFERENCES["owner"] != owner:
        _REFERENCES.update(owner=owner, by_kraus={})


def input_of(item):
    """The input a pytest test item runs on, if it runs on each of
    :data:`WAYS` (its ``way`` parameter, the first of its id): the test
    and its other parameters; else the item's own id."""
    way = getattr(item, "callspec", None) and item.callspec.params.get("way")
    if way is None:
        return item.nodeid
    return item.parent.nodeid, item.name.replace(f"[{way}", "[", 1)


def references(ch):
    """The references of the channel ``ch``: its np.kron sum L0, the
    layout and stacks of L0's whole change of basis, the blocks to leave
    it by (the stacks, a complex multiple of them, and the stable and
    projector blocks of the decomposition, where it succeeds) and, for
    each, from_hermitian_basis(layout.join(...)).  The decomposition runs
    once, on the route in force, its input being the stacks every route
    is asserted to give: its layout, its stable part and its projectors,
    and those of spectral_projectors, are checked here, bit for bit."""
    key = tuple((V.dtype.str, V.shape, V.tobytes()) for V in ch.kraus)
    known = _REFERENCES["by_kraus"]
    if key in known:
        return known[key]
    L0 = kron_sum(ch.kraus)
    layout0, stacks0 = whole_sectors(L0)
    exits = [stacks0, [X * (0.25 - 1j) for X in stacks0]]
    try:
        decomp = peripheral_decomposition(ch, cesaro_check_n=0)
    except ErgochanError:  # not power bounded, or an unresolved cluster
        decomp = None
    else:
        assert_same_layout(decomp.layout, layout0)
        exits += [decomp.stable_blocks, *decomp.projector_blocks]
    wants = [linalg.from_hermitian_basis(layout0.join(blocks)) for blocks in exits]
    if decomp is not None:
        got = [decomp.stable, *decomp.projectors, *spectral_projectors(ch, decomp.lambdas)]
        for P, want in zip(got, wants[2:] + wants[3:], strict=True):
            assert_bits(P, want)
    known[key] = L0, layout0, stacks0, exits, wants
    return known[key]


def assert_same_routes(ch, side):
    """On the route in force every stage gives the whole-matrix reference
    (:func:`references`) bit for bit, signs of zeros included: the
    superoperator is the np.kron sum, the Kraus path and the matrix path
    each give the layout and stacks of its whole change of basis, and
    linalg.from_hermitian_blocks of each block list to leave it by is
    from_hermitian_basis(layout.join(...)).  Returns the reference
    layout."""
    ch = on_side(ch, side)
    L0, layout0, stacks0, exits, wants = references(ch)
    L = superoperator(ch)
    assert_bits(L, L0)
    for source in (ch, L):
        d, layout, stacks = ergodic._sectors(source)
        assert d == ch.dim
        assert_same_layout(layout, layout0)
        assert len(stacks) == len(stacks0)
        for X, X0 in zip(stacks, stacks0):
            assert X.dtype == np.float64
            assert_bits(X, X0)
    for blocks, want in zip(exits, wants):
        assert_bits(linalg.from_hermitian_blocks(layout0, blocks), want)
    return layout0
