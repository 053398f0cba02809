"""Int8 kernels: quantized operands, integer accumulation, one dequant.

The paper's deployment story is that compressed weights are cheap to
*move*; this module makes them cheap to *compute with* as well.  Weights
are stored as symmetric int8 codes plus one per-tensor scale, in one of
two layouts: BSPC panels (:class:`Int8BSPCPlan`, every sparse int8
weight, whatever pattern it has, :func:`bspc_spmm_int8`) or dense codes
(:func:`linear_int8_rowwise`).  Activations are quantized on the fly, one
scale per frame — per column of the ``spmm``'s ``x``, per row of the
dense op's — which makes each frame's result independent of the rest of
the batch (the streaming engine's chunk-exactness rests on this) — and
both ops accumulate products in integer arithmetic, dequantizing exactly
once, at the very end, to float32 (:func:`dequantize`, the one rule of
every int8 product on every route, the compiled C included).

Accumulation is exact: the GEMMs run float32 BLAS over integer-valued
operands, which is lossless while partial sums stay below ``2**24`` —
guaranteed by chunking the inner dimension at :data:`F32_EXACT_INNER`.
Their oracles in :mod:`repro.kernels.reference` accumulate in int64 and
must agree *exactly* (see ``tests/test_kernels_equivalence.py``).

Like the float plans, int8 plans are cached on the matrix object (under
``matrix._int8_kernel_plan``) and dropped by the same invalidation rules
(:class:`~repro.kernels.plans.PlanCacheMixin`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.kernels.plans import BSPCPlan, INT8_PLAN_ATTR, bspc_plan

#: Largest inner dimension for which int8 products accumulate exactly in a
#: single float32 GEMM (``127 * 127 * k < 2**24``); wider reductions are
#: chunked and the partial sums combined in float64 (exact below ``2**53``).
F32_EXACT_INNER = 1024


def int8_codes_axis(array: np.ndarray, axis: int) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric int8 quantization with one scale per slice along ``axis``.

    Returns ``(codes, scales)`` where ``scales`` keeps the reduced axis as
    a broadcastable length-1 dimension and all-zero slices get scale 1.0
    (their codes are all zero either way).  Because each slice is
    quantized independently of its neighbours, results are invariant to
    how the orthogonal dimension is chunked — the property the streaming
    engine's chunk-exactness guarantee rests on: quantizing activations
    per *frame* makes the int8 projection of frame ``t`` independent of
    which other frames share the call.
    """
    array = np.asarray(array, dtype=np.float64)
    if array.size == 0:
        shape = list(array.shape)
        shape[axis] = 1
        return np.zeros(array.shape, dtype=np.int8), np.ones(shape)
    peak = np.max(np.abs(array), axis=axis, keepdims=True)
    scales = np.where(peak > 0.0, peak / 127.0, 1.0)
    codes = np.clip(np.round(array / scales), -127, 127).astype(np.int8)
    return codes, scales


#: Largest ``|scale * xs|`` that reaches float32, and times any sum of int8
#: products (below 2**64 in magnitude) stays inside float32's range.
_QUIET_SCALE = 2.0**62


def dequantize(acc: np.ndarray, scale: float, xs) -> np.ndarray:
    """Integer sums → float32: ``float32(acc) * float32(scale * xs)``.

    ``acc`` holds exact integers (any integer dtype, or a float one holding
    integers); each is converted to float32 rounding to nearest — above
    ``2**24`` that rounds, the same on every route (``cvtdq2ps`` in the C).
    ``scale * xs`` — the weight scale times the activation scale(s),
    broadcast against ``acc`` — is multiplied in float64 and rounded to
    float32 once, so one float32 multiply per sum follows.  A product past
    float32's range is ``inf`` (and ``0 * inf`` NaN), silently: the bytes
    the C's ``(float)`` conversion gives on finite frames.  Up to 16
    scales are checked against :data:`_QUIET_SCALE` in Python first, which
    is cheaper than the ``np.errstate`` that silences the rest.
    """
    fused = scale * np.asarray(xs, dtype=np.float64)
    few = fused.ravel().tolist() if fused.size <= 16 else ()
    # min/max skip a NaN after the first element, and a NaN raises nothing
    if few and -_QUIET_SCALE <= min(few) and max(few) <= _QUIET_SCALE:
        return np.asarray(acc).astype(np.float32) * fused.astype(np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(acc).astype(np.float32) * fused.astype(np.float32)


def int8_codes(array: np.ndarray) -> Tuple[np.ndarray, float]:
    """Symmetric per-tensor int8 quantization.

    Returns ``(codes, scale)`` with ``codes`` in ``[-127, 127]`` (int8;
    -128 unused for symmetry) and ``value ≈ codes * scale``.  This is the
    single quantization primitive of the library —
    :func:`repro.nn.quantize.quantize_int8` delegates here, so weights
    quantized for simulation and weights packed for the int8 kernels
    always share the same codes.
    """
    array = np.asarray(array, dtype=np.float64)
    peak = float(np.max(np.abs(array))) if array.size else 0.0
    if peak == 0.0:
        return np.zeros(array.shape, dtype=np.int8), 1.0
    scale = peak / 127.0
    codes = np.clip(np.round(array / scale), -127, 127).astype(np.int8)
    return codes, scale


# ---------------------------------------------------------------------------
# Int8 plans (cached alongside the float plans)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Int8BSPCPlan:
    """BSPC panels as int8 codes plus a GEMM-ready float copy.

    ``codes_f`` holds the same integer values in the float dtype the
    batched GEMM runs in: float32 when a strip's inner extent fits
    :data:`F32_EXACT_INNER` (the common case), float64 otherwise — either
    way the accumulation is exact integer arithmetic.
    """

    base: BSPCPlan
    codes: np.ndarray  # (strips, max_rows, max_cols) int8, zero padded
    codes_f: np.ndarray  # same values, float32/float64 for the GEMM
    scale: float


def build_int8_bspc_plan(matrix) -> Int8BSPCPlan:
    """Quantize a :class:`BSPCMatrix`'s packed panels (padding stays 0)."""
    base = bspc_plan(matrix)
    codes, scale = int8_codes(base.panels)
    gemm_dtype = (
        np.float32 if base.panels.shape[-1] <= F32_EXACT_INNER else np.float64
    )
    return Int8BSPCPlan(
        base=base, codes=codes, codes_f=codes.astype(gemm_dtype), scale=scale
    )


def int8_bspc_plan(matrix) -> Int8BSPCPlan:
    """Cached :class:`Int8BSPCPlan` for ``matrix`` (built on first use)."""
    plan = getattr(matrix, INT8_PLAN_ATTR, None)
    if plan is None:
        plan = build_int8_bspc_plan(matrix)
        setattr(matrix, INT8_PLAN_ATTR, plan)
    return plan


# ---------------------------------------------------------------------------
# The generic loop's int8 ops
# ---------------------------------------------------------------------------
def bspc_spmm_int8(matrix, x: np.ndarray) -> np.ndarray:
    """Int8 gather → exact-integer batched GEMM → scatter → one dequant,
    with **per-column** activation scales (column results are independent
    of the rest of the batch).

    Padded panel entries quantize to code 0, so the padding gather of
    ``x[0]`` contributes nothing — no masking needed (and integer codes
    cannot be non-finite).
    """
    plan = int8_bspc_plan(matrix)
    base = plan.base
    rows = base.shape[0]
    batch = x.shape[1]
    if not base.panels.size or not batch:
        return np.zeros((rows, batch), dtype=np.float32)
    acc = np.zeros((rows + 1, batch))  # exact integers
    xq, xs = int8_codes_axis(x, axis=0)
    gathered = xq[base.gather_cols].astype(plan.codes_f.dtype)
    partial = np.matmul(plan.codes_f, gathered)
    acc[base.flat_rows] += partial.reshape(-1, batch)
    return dequantize(acc[:rows], plan.scale, xs)


def _int_gemm(xqf: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Exact integer-valued ``xqf @ weights.T`` in float32 BLAS.

    Because every operand is an integer of magnitude ≤ 127 and partial
    sums stay below 2²⁴ per :data:`F32_EXACT_INNER` chunk, the result is
    exact integer arithmetic — and therefore independent of BLAS
    reduction order, tile shape, or how many rows share the call.
    """
    k = weights.shape[1]
    if k <= F32_EXACT_INNER:
        return (xqf @ weights.T).astype(np.float64)
    acc = np.zeros((xqf.shape[0], weights.shape[0]))
    for start in range(0, k, F32_EXACT_INNER):
        chunk = slice(start, start + F32_EXACT_INNER)
        acc += xqf[:, chunk] @ weights[:, chunk].T
    return acc


def linear_int8_rowwise(codes: np.ndarray, scale: float, x: np.ndarray) -> np.ndarray:
    """Dense ``x @ codes.T * scales`` with integer accumulation and
    **per-row** activation scales.

    ``x`` is ``(N, K)`` float, ``codes`` the ``(M, K)`` int8 weight codes
    — or a float32 copy holding the same integer values (compiled plans
    pre-cast once so repeated calls skip the conversion).  Each row of
    ``x`` (one frame) is quantized with its own scale, so row ``i`` of the
    result depends only on ``x[i]`` — bit-identical whether the frame is
    projected alone, inside a chunk, or inside the whole utterance.  The
    GEMM runs in float32 (exact for inner chunks of
    :data:`F32_EXACT_INNER`, partial sums combined in float64) and the
    single dequant maps the integer result back to float32.  This is the
    op the engine's generic loop uses for dense int8 weights, making int8
    plans bitwise chunk-exact under streaming execution.
    """
    codes = np.asarray(codes)
    weights = codes if codes.dtype == np.float32 else codes.astype(np.float32)
    xq, xs = int8_codes_axis(x, axis=1)
    return dequantize(_int_gemm(xq.astype(np.float32), weights), scale, xs)
