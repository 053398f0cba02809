"""Tiny numeric helpers shared by the kernels and the engine.

One definition keeps numerically sensitive primitives identical across
every execution path — the packed engine's bit-exactness contract with
the fused kernels depends on them computing gate values the same way.

Float64 gates use numpy's ``exp`` / ``tanh``.  Float32 gates — every GRU
layer whose ``dtype`` is float32, i.e. every int8 one — use
:func:`exp32` and the two functions built on it, which the compiled
program's gate sweep
(``gru_row`` in :mod:`repro.kernels.compiled`) runs statement for
statement with these very constants, so the two agree to the bit on every
host: each step is one IEEE float32 operation, with no FMA, no libm call
and no CPU-dispatched routine.  :func:`exp32` is as precise as int8
serving needs, not correctly rounded: relative error within
:data:`EXP_REL_ERR`, where the int8 state after the gates keeps 1/127.
"""

from __future__ import annotations

import numpy as np

_F = np.float32

#: :func:`exp32` clamps its argument to [EXP_LO, EXP_HI], the widest range
#: in which both ``2^k`` and the result stay normal float32.
EXP_LO, EXP_HI = _F(-87.0), _F(88.0)
LOG2E = _F(1.44269504)
#: 1.5 * 2^23: adding it rounds to an integer (ties to even), which the
#: sum then holds in its low mantissa bits.
ROUND = _F(12582912.0)
#: 2^f = 1 + C1 f + C2 f^2 + C3 f^3 + C4 f^4 + C5 f^5 on |f| <= 1/2: the
#: fit of least maximum relative error (8.7e-8) with the constant term 1,
#: each coefficient rounded to float32.
C1, C2, C3, C4, C5 = (
    _F(float.fromhex(c))
    for c in ("0x1.62e42ap-1", "0x1.ebf9aep-3", "0x1.c6b64cp-5", "0x1.3cee6cp-7", "0x1.5c111ep-10")
)
#: :func:`exp32`'s relative error bound on [EXP_LO, EXP_HI] (3.95e-6
#: measured).  Most of it is ``t = x log2 e`` in float32: half an ulp of
#: ``t`` near 127 is 3.8e-6, 2.6e-6 of the result.  The gates' consumer,
#: the state quantizer, keeps steps of 1/127 of a row's peak.
EXP_REL_ERR = 5.0e-6
_ONE_BITS = np.uint32(0x3F800000)  # 1.0f: the exponent bias in place


def exp32(v: np.ndarray) -> np.ndarray:
    """float32 ``exp``, within :data:`EXP_REL_ERR` on [EXP_LO, EXP_HI] and
    clamped to it: ``t = x log2 e``, ``k = round(t)``, ``f = t - k``, the
    degree-5 polynomial for ``2^f`` in Estrin form, times ``2^k`` built
    from the bits of the rounding sum.  ``exp32(0)`` is exactly 1.  NaN
    passes through.  Returns a new array."""
    x = np.array(v, dtype=_F)
    return _exp32_(x, np.empty((4,) + x.shape, dtype=_F))


def _exp32_(x: np.ndarray, work: np.ndarray) -> np.ndarray:
    """:func:`exp32` of the float32 array ``x`` in place, each step one
    ufunc call writing into ``x`` or one of ``work``'s four rows:
    ``(C1 f + 1) + f^2 ((C3 f + C2) + f^2 (C5 f + C4))``, the three
    binomials independent of each other."""
    s, f2, c, b = work
    np.minimum(np.maximum(x, EXP_LO, out=x), EXP_HI, out=x)
    x *= LOG2E  # x is t now
    np.add(x, ROUND, out=s)
    x -= np.subtract(s, ROUND, out=f2)  # x is f now, exact: |f| <= 1/2
    np.multiply(x, x, out=f2)
    np.multiply(x, C5, out=c)
    c += C4
    c *= f2
    np.multiply(x, C3, out=b)
    b += C2
    b += c
    b *= f2
    x *= C1
    x += _F(1.0)
    x += b  # x is 2^f now
    # s's bits are those of 1.5 * 2^23 plus k: shifted up by 23 they leave
    # k's low nine bits as an exponent field, and adding the bias (mod
    # 2^32) makes it that of 2^k
    bits = s.view(np.uint32)
    bits <<= np.uint32(23)
    bits += _ONE_BITS
    return np.multiply(x, s, out=x)


def sigmoid32_(v: np.ndarray) -> np.ndarray:
    """In-place logistic of the float32 array ``v``, ``1 / (exp32(-v) + 1)``."""
    work = np.empty((4,) + v.shape, dtype=_F)
    _exp32_(np.negative(v, out=v), work)
    v += _F(1.0)
    return np.divide(_F(1.0), v, out=v)


def tanh32_(v: np.ndarray) -> np.ndarray:
    """In-place ``tanh`` of the float32 array ``v``, ``2 / (exp32(-2 v) + 1) - 1``: the
    sigmoid's ``exp`` and divide, so one rule covers every gate."""
    work = np.empty((4,) + v.shape, dtype=_F)
    v *= _F(-2.0)
    _exp32_(v, work)
    v += _F(1.0)
    np.divide(_F(2.0), v, out=v)
    v -= _F(1.0)
    return v


def tanh_(v: np.ndarray) -> np.ndarray:
    """In-place ``np.tanh``, the float64 gates' own."""
    return np.tanh(v, out=v)


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Logistic function, the gate nonlinearity of every RNN kernel."""
    return 1.0 / (1.0 + np.exp(-v))


def sigmoid_(v: np.ndarray) -> np.ndarray:
    """In-place :func:`sigmoid` on ``v`` (same op sequence, no temporaries).

    The training kernels' per-timestep loops call this on preallocated
    stash slices; it produces bit-identical values to :func:`sigmoid`
    (negate, exp, add 1, reciprocal — reciprocal is the same IEEE divide).
    """
    np.negative(v, out=v)
    np.exp(v, out=v)
    v += 1.0
    np.reciprocal(v, out=v)
    return v
