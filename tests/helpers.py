"""Helpers shared by the test modules: random channels, the channel of
one side, the mirror of a superoperator matrix, and a numpy.linalg call
counter."""

import numpy as np

from ergochan import KrausChannel, channel
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
