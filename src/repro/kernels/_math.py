"""Tiny numeric helpers shared by the kernel backends and the engine.

One definition keeps numerically sensitive primitives identical across
every execution path — the packed engine's bit-exactness contract with
the fused kernels depends on them computing gate values the same way.

Float64 gates use numpy's ``exp`` / ``tanh``.  Float32 gates — every GRU
layer whose ``dtype`` is float32, the int8 and fp16 ones — use
:func:`exp32` and the two functions built on it, which the compiled
program's gate sweep
(``gru_row`` in :mod:`repro.kernels.compiled`) runs statement for
statement with these very constants, so the two agree to the bit on every
host: each step is one IEEE float32 operation, with no FMA, no libm call
and no CPU-dispatched routine.
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
#: Cody–Waite split of ln 2.  LN2_HI has 9 significant bits, so
#: ``k * LN2_HI`` is exact for every ``|k| <= 127``.
LN2_HI, LN2_LO = _F(0.693359375), _F(-2.12194440e-4)
#: exp(r) = 1 + r + r^2 (P2 + P3 r + P4 r^2 + P5 r^3 + P6 r^4) on
#: |r| <= ln(2) / 2, a fit of relative error below 4e-9.
P2, P3, P4, P5, P6 = (
    _F(float.fromhex(c))
    for c in ("0x1.fffff8p-2", "0x1.55548ep-3", "0x1.555b54p-5", "0x1.123b8cp-7", "0x1.687e80p-10")
)
_ONE_BITS = np.uint32(0x3F800000)  # 1.0f: the exponent bias in place


def exp32(v: np.ndarray) -> np.ndarray:
    """float32 ``exp``, within one ulp on [EXP_LO, EXP_HI] and clamped to
    it: ``k = round(x log2 e)``, ``r = x - k ln 2`` in two steps, the
    degree-6 polynomial in ``r``, times ``2^k`` built from the bits of
    the rounding sum.  NaN passes through.  Returns a new array."""
    x = np.array(v, dtype=_F)
    return _exp32_(x, np.empty((3,) + x.shape, dtype=_F))


def _exp32_(x: np.ndarray, work: np.ndarray) -> np.ndarray:
    """:func:`exp32` of the float32 array ``x`` in place, each step one
    ufunc call writing into ``x`` or one of ``work``'s three rows."""
    s, k, t = work
    np.minimum(np.maximum(x, EXP_LO, out=x), EXP_HI, out=x)
    np.multiply(x, LOG2E, out=s)
    s += ROUND
    np.subtract(s, ROUND, out=k)
    x -= np.multiply(k, LN2_HI, out=t)
    x -= np.multiply(k, LN2_LO, out=k)  # x is r now; k is spent
    q = np.multiply(x, P6, out=k)
    for c in (P5, P4, P3):
        q += c
        q *= x
    q += P2
    q *= np.multiply(x, x, out=t)
    q += x
    q += _F(1.0)
    # s's bits are those of 1.5 * 2^23 plus k: shifted up by 23 they leave
    # k's low nine bits as an exponent field, and adding the bias (mod
    # 2^32) makes it that of 2^k
    bits = s.view(np.uint32)
    bits <<= np.uint32(23)
    bits += _ONE_BITS
    return np.multiply(q, s, out=x)


def sigmoid32_(v: np.ndarray) -> np.ndarray:
    """In-place logistic of the float32 array ``v``, ``1 / (exp32(-v) + 1)``."""
    work = np.empty((3,) + v.shape, dtype=_F)
    _exp32_(np.negative(v, out=v), work)
    v += _F(1.0)
    return np.divide(_F(1.0), v, out=v)


def tanh32_(v: np.ndarray) -> np.ndarray:
    """In-place ``tanh`` of the float32 array ``v``, ``2 / (exp32(-2 v) + 1) - 1``: the
    sigmoid's ``exp`` and divide, so one rule covers every gate."""
    work = np.empty((3,) + v.shape, dtype=_F)
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
