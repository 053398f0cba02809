"""Compiled C: the int8 engine's program and the float64 GRU training
step's time loops, built with the system compiler.

This is the paper's deployment story applied to the host: the int8 hot
loops (the BSPC panel product, which dense int8 weights run as one strip,
and the whole GRU plan built on it) are emitted as specialized C, compiled
once with ``cc -O3 -march=native -shared -fPIC``, and bound via ``ctypes``
with zero-copy views of the very same packed plan arrays numpy's kernels
execute (:mod:`repro.kernels.plans` / :mod:`repro.kernels.quantized`).  No
third-party toolchain is needed — just a C compiler.  Nothing is built or
loaded at import: the first int8 lowering asks :func:`available`, which
builds (or finds) the library and probes it.

Build artifacts are cached twice: an in-process handle (one ``CDLL`` per
process) and an on-disk ``.so`` keyed by a SHA-256 content hash of the C
source, the compiler, the flags and — for a ``-march=native`` build — the
CPU's feature flags, so rebuilding only happens when the generated code
changes or the cache moved to another kind of host.  Environment hooks:

* ``REPRO_CC`` — compiler executable (default: ``cc``, then ``gcc``);
* ``REPRO_COMPILED_CACHE`` — cache directory for the built ``.so``
  (default: ``~/.cache/repro/compiled``, falling back to a per-user
  directory under the system temp dir).

Failure is graceful and typed: any problem (no compiler, a failed build,
a library that fails the load-time sanity probe) raises
:class:`~repro.errors.CompileBackendError`, which is recorded once
(:func:`load_error`) — every int8 plan then runs the engine's generic
loop on numpy's kernels, and the fused BPTT numpy's time loops.

The library is reached through
:class:`PlanProgram` — a lowered int8 plan, one call per chunk — through
:func:`product`, the one panel product by itself, the seam the probe and the
product-level tests use, and through :func:`gru_f64_forward` /
:func:`gru_f64_backward`, the time loops that
:func:`repro.kernels.gru_sequence_grad` runs wherever the library loads
(float64; deterministic, within 1e-6 of the autograd tape — no exactness
claim below covers them).

Exactness contract (asserted by ``tests/test_int8_routing.py``):

* the int8 product is **bitwise identical** to numpy's int8 ops and
  their oracles in :mod:`repro.kernels.reference`.  The BSPC kernels
  quantize in C to the codes and scales of
  :func:`~repro.kernels.quantized.int8_codes_axis` (comparison max, one
  correctly rounded quotient, round-half-even, clip), matching numpy bit
  for bit for finite activations.
  Products accumulate exactly — integer arithmetic throughout, int32
  sums that cannot wrap — and the one dequant is
  :func:`~repro.kernels.quantized.dequantize`'s, in float32: each sum
  converted round-to-nearest (``cvtdq2ps``, 16 lanes a window), times the
  float32 of ``scale * xs``, then ``+ bias`` in float32 where the op has
  one.
* the fused GRU int8 layer-chunk (``repro_gru_i8_chunk``, reached only
  through a lowered :class:`PlanProgram`) is **bitwise
  identical** to the engine's generic per-timestep loop: the recurrent
  product is the batch-major projection itself, on the codes and scales
  the quantizer gives each state where the gate sweep makes it, and
  everything from its int32 sums to the next quantize is float32, as in
  the generic loop for an int8 GRU layer on every route — the gate rows,
  biases and carried states float32 arrays, every elementwise statement
  one IEEE float32 operation in that loop's order, compiled with
  floating-point contraction off, ``exp`` (and the sigmoid and tanh built
  on it) :func:`repro.kernels._math.exp32`'s sequence with its constants.
  The quantizer reads the float32 states widened to double, which is
  exact, so their codes and scales are those of the same values as
  doubles.  A whole plan lowered to one call per chunk *calls* that entry
  and the projection op by op, a tile of steps at a time, every row on its
  own, so it is the same bytes again — on one core, or on two with its
  rows in two halves or, one row, its layers as a wavefront; its logits
  are float32, widened to float64 once by the engine's public entries.
  Every int8 GRU plan lowers to one: its sparse
  weights are BSPC panels and its dense ones one-strip panels
  (:func:`dense_int8_panel`), recurrences included.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
import weakref
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.errors import CompileBackendError, ShapeError
from repro.kernels import _math, packed
from repro.kernels.quantized import int8_bspc_plan

#: Bump to invalidate cached ``.so`` files when the ABI (not just the C
#: text) changes in a way the source hash cannot see.
_ABI_VERSION = 1

#: Most int8 products one int32 accumulator takes (127 * 127 * 8192 < 2^31).
ACC_CHUNK = 8192

#: Row padding of a packed rows-in-lanes panel: the tallest vector any
#: build of the kernel keeps (AVX-512BW: 16 rows), so one pack serves all.
LANES_PAD = 16

#: Output rows per window of that kernel's epilogue: one 16-bit mask each.
WINDOW = 16

#: A chunk runs on two cores once its estimated serial work reaches this
#: many ns — its rows in two halves at B >= 2, its layers as a wavefront at
#: B = 1: below it, waking the helper thread and handing it work costs more
#: than its share saves (docs/kernels.md, "Two cores per chunk").
SPLIT_NS = 60_000

#: The estimate: ns per frame for each code of an op's panel, and for each
#: of its output rows, fitted to the one-core program at B = 2..8.
FRAME_NS_PER_CODE = 0.005
FRAME_NS_PER_ROW = 0.5

#: The helper thread of two-core chunks exits after this many ns without a
#: chunk, so an idle process is back to one OS thread.
HELPER_IDLE_NS = 500_000_000

#: Steps a block of a one-row chunk's wavefront, and the most steps of a
#: chunk that runs as one: its first GRU's two halves of the arena, eight
#: rows each, hold every block, so the caller never waits for a free one.
WAVE_BLOCK = 2
WAVE_STEPS = 16

# ---------------------------------------------------------------------------
# Generated C source
# ---------------------------------------------------------------------------
# Conventions shared by every kernel:
#   * all sizes/indices are int64 (matching the plans' int64 arrays);
#   * matrices are C-contiguous row-major, exactly as numpy stores them;
#   * the BSPC kernel walks the same strip-panel structure numpy's
#     kernel executes: gather one strip's activation codes (through its
#     kept columns — 64 at a time by byte permutes where the build has
#     AVX-512 VBMI, byte by byte elsewhere: the same codes), then run an
#     integer microkernel over the strip's contiguous int8 codes;
#   * per-sample results never depend on which other rows/columns share
#     the call — the property the streaming engine's chunk-exactness
#     rests on.
_C_COMMON = r"""
#define _GNU_SOURCE  /* sched_getcpu and the affinity calls of the two-core chunk */
#include <math.h>
#include <stdatomic.h>
#include <stdint.h>
#include <string.h>

#define API __attribute__((visibility("default")))
#define ACC_CHUNK $ACC_CHUNK
/* Outside these activation scales the reciprocal sequence can overflow
 * (or its reciprocal or residual go denormal) and stop matching a true
 * divide; quantize with the divide there instead. */
#define MARKSTEIN_MIN 1e-250
#define MARKSTEIN_MAX 1e250

typedef int64_t i64;
typedef int32_t i32;
typedef int8_t  i8;
typedef uint8_t u8;

/* Phase tick counters: TIC(v) ... TOC(v, PH_x) adds the ticks between the
 * two to counter PH_x.  They exist only in a -DREPRO_PHASES build
 * (build_library(phases=True)); everywhere else both compile to nothing.
 * Cumulative and per thread: the helper thread counts a two-core chunk's
 * second run from zero and its caller adds them into its own at the join
 * (repro_plan_i8_chunk), and repro_phase_ticks
 * reads and clears the calling thread's.  Ticks are the time-stamp counter
 * on x86, ns elsewhere.
 * On x86 an lfence on either side of each read serializes it: the phase
 * before has finished when the counter is read, and the next has not
 * begun, so no phase's tail is counted in the next one's interval. */
enum { PH_QUANTIZE, PH_GATHER, PH_MAC, PH_EPILOGUE, PH_GATES, PH_CHUNK, PH_COUNT };
#ifdef REPRO_PHASES
#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
static inline uint64_t repro_tsc(void)
{
    _mm_lfence();
    const uint64_t now = __rdtsc();
    _mm_lfence();
    return now;
}
#define REPRO_TICKS() repro_tsc()
#else
#include <time.h>
static uint64_t repro_ns(void)
{
    struct timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    return (uint64_t)now.tv_sec * 1000000000u + (uint64_t)now.tv_nsec;
}
#define REPRO_TICKS() repro_ns()
#endif
static __thread uint64_t repro_phases[PH_COUNT];
#define TIC(v) const uint64_t v = REPRO_TICKS()
#define TOC(v, phase) (repro_phases[phase] += REPRO_TICKS() - (v))
#else
#define TIC(v)
#define TOC(v, phase)
#endif

/* Copies the counters into out[PH_COUNT] and clears them; returns how
 * many there are: 0 in a build without them. */
API i64 repro_phase_ticks(uint64_t *out)
{
#ifdef REPRO_PHASES
    memcpy(out, repro_phases, sizeof repro_phases);
    memset(repro_phases, 0, sizeof repro_phases);
    return PH_COUNT;
#else
    (void)out;
    return 0;
#endif
}
"""

# The int8 BSPC kernel, every batch width: activations arrive batch-major
# (one contiguous row per column of the product), already quantized by
# the kernel's caller — once per column, to the codes and scale of
# int8_codes_axis (bspc_quant_i8); the product runs
# on the int8 panel codes themselves, strip by strip over the strip's
# gathered activation codes.  Two microkernels, both exact integer
# arithmetic (no order of accumulation can move a bit; see
# docs/kernels.md):
#   * rows in lanes (AVX-512 / AVX2 builds, mc <= ACC_CHUNK): the packed
#     codes put 16 (8) panel rows x KGROUP kept columns in a register, one
#     multiply-add against the broadcast activation group yields those
#     rows' int32 sums, and a column of the product is one accumulator —
#     no horizontal reduction.  KGROUP is 4 where the build has AVX-512
#     VNNI (`vpdpbusd`: unsigned x signed bytes, so activations are
#     gathered as code + 128 and each accumulator starts at -128 * its
#     row's code sum, packed in front of the strip's codes) and 2
#     elsewhere (codes widened to int16 for `pmaddwd`).  The quad form
#     gathers by byte permutes where the build has AVX-512 VBMI
#     (gather_permute), through selectors packed after each strip's codes.
#     Each strip's sums
#     land right after the kept rows of the strips before it, so a
#     column's sums are its kept rows' in output-row order (a BSPCMatrix's
#     strips are row ranges in order, their kept rows increasing), and the
#     epilogue expands them into their rows 16 at a time;
#   * the 4-row x 4-column register block, everywhere else: int32 sums
#     over chunks of at most ACC_CHUNK products, flushed into a float64
#     column of scratch, which holds exact integers (far below 2^53) until
#     the dequant.
# Either way the epilogue is quantized.dequantize's float32 `(float)acc *
# (float)(scale * xs)`, then `+ bias` where the op has one, on every output
# row.
_C_BSPC_NARROW = r"""
typedef int16_t i16;

/* The rows-in-lanes kernel is written once over these: LANES int32 sums in
 * a register, each fed KGROUP codes of its row per step.  LANES_W loads
 * LANES x KGROUP packed codes as the multiply reads them, LANES_MAC adds
 * their products with a broadcast group of activation codes, stored as
 * gath_t after adding GATH_BIAS, and LANES_INIT is what a sum starts from:
 * LANES_HEAD bytes per panel row in front of each strip's codes. */
#if defined(__AVX512BW__)
#include <immintrin.h>
#define LANES 16
#define LV(op) _mm512_##op
#define LANES_HALF(p) _mm256_loadu_si256((const __m256i *)(p))
typedef __m512i lanes_t;
#elif defined(__AVX2__)
#include <immintrin.h>
#define LANES 8
#define LV(op) _mm256_##op
#define LANES_HALF(p) _mm_loadu_si128((const __m128i *)(p))
typedef __m256i lanes_t;
#else
#define LANES 0
#endif
#if LANES == 16 && defined(__AVX512VNNI__)
#define KGROUP 4
#define GATH_BIAS 128  /* vpdpbusd takes its first factor unsigned */
#define LANES_HEAD 4   /* -128 * the row's code sum, an int32 */
typedef u8 gath_t;
#define LANES_INIT(p) _mm512_loadu_si512(p)
#define LANES_W(p) _mm512_loadu_si512(p)
#define LANES_MAC(a, w, x) _mm512_dpbusd_epi32(a, x, w)
#else
#define KGROUP 2
#define GATH_BIAS 0
#define LANES_HEAD 0
typedef i16 gath_t;
#define LANES_INIT(p) LV(set1_epi32)(0)
#define LANES_W(p) LV(cvtepi8_epi16)(LANES_HALF(p))
#define LANES_MAC(a, w, x) LV(add_epi32)(a, LV(madd_epi16)(w, x))
#endif
#define LANES_PAD $LANES_PAD  /* a multiple of every LANES */
#define WINDOW $WINDOW  /* output rows per epilogue window: one 16-bit mask */

/* The quad form gathers a strip's activation codes 64 kept columns at a
 * time by byte permutes where the build has AVX-512 VBMI (gather_permute)
 * and the operand is narrow enough for byte selectors: its 128-byte blocks
 * numbered below NO_BLOCK. */
#if KGROUP == 4 && defined(__AVX512VBMI__)
#define GATHER_PERMUTE 1
#define NO_BLOCK 255
#else
#define GATHER_PERMUTE 0
#endif

/* One int8 weight as the product reads it: `rows` output rows of an
 * `n`-wide operand, the panel's sizes, its codes, gather columns and
 * scatter rows, the rows-in-lanes kernel's packed codes (with the
 * selectors of its gather, where it permutes) and the layout of its sums
 * (null where it does not apply: see repro_bspc_i8_nb), the
 * weight scale.  As an op of a lowered plan also what the op is and adds
 * to the product (a float32 bias) — PLAN_PROJECT: x @ W.T + bias into the
 * gates of the PLAN_GRU after it, whose bias is the candidate gate's;
 * PLAN_OUTPUT: the last layer's hidden states @ W.T (+ bias, if any) into
 * the logits. */
enum { PLAN_PROJECT, PLAN_GRU, PLAN_OUTPUT };
typedef struct {
    i64 kind, strips, mr, mc, rows, n;
    const i8 *codes;
    const i64 *gcols, *srows;
    const i8 *lanes;
    const i64 *layout;
    double scale;
    const float *bias;
} plan_op;

/* Compiled with the code that follows the contraction guard, at the end. */
static void bspc_epilogue(
    i64 rows, i64 batch, const i64 *windows, const i32 *sums, i64 lda,
    double scale, const double *xs, const float *bias, float *out);

/* Rows per register of the rows-in-lanes kernel, and kept columns per
 * multiply-add; 0: not in this build. */
API i64 repro_i8_lanes(void) { return LANES; }
API i64 repro_i8_kgroup(void) { return LANES ? KGROUP : 0; }

/* Bytes of one packed strip's codes (a multiple of 64: LANES_PAD rows of
 * 4-byte heads and KGROUP-byte groups), and of the selectors of its gather
 * that follow them: per block of 64 kept columns 64 bytes of each column's
 * low 7 bits, then 64 of its 128-byte operand block; after the blocks, a
 * byte pair per block, the first and last operand block it touches. */
static i64 pack_codes(i64 mr, i64 mc)
{
    const i64 mrp = (mr + LANES_PAD - 1) / LANES_PAD * LANES_PAD;
    return (LANES_HEAD + (mc + KGROUP - 1) / KGROUP * KGROUP) * mrp;
}

static i64 pack_selectors(i64 mc, i64 n)
{
#if GATHER_PERMUTE
    const i64 blocks = (mc + 63) / 64;
    if (n < 128 * NO_BLOCK) return 128 * blocks + (2 * blocks + 63) / 64 * 64;
#endif
    (void)mc, (void)n;
    return 0;
}

#if GATHER_PERMUTE
/* The selectors of one strip's gather columns gc[mc] (pack_selectors); a
 * lane past mc has block NO_BLOCK, which no permute takes. */
static void gather_selectors(i64 mc, const i64 *gc, u8 *sel)
{
    const i64 blocks = (mc + 63) / 64;
    u8 *range = sel + 128 * blocks;
    for (i64 kb = 0; kb < blocks; kb++, sel += 128) {
        u8 first = NO_BLOCK, last = 0;
        for (i64 l = 0, k = 64 * kb; l < 64; l++, k++) {
            if (k >= mc) {
                sel[64 + l] = NO_BLOCK;
                continue;
            }
            const u8 block = (u8)(gc[k] >> 7);
            sel[l] = (u8)(gc[k] & 127);
            sel[64 + l] = block;
            first = block < first ? block : first;
            last = block > last ? block : last;
        }
        range[2 * kb] = first;
        range[2 * kb + 1] = last;
    }
}
#endif

/* How many bytes the int8 codes (strips, mr, mc) take packed for the
 * rows-in-lanes kernel — 0: not in this build, or a strip longer than one
 * int32 sum takes — and, given somewhere to put them, the pack: per strip,
 * rows zero-padded to LANES_PAD, LANES_HEAD bytes a row (-GATH_BIAS * its
 * code sum, which cancels the activations' bias), then the codes as
 * [k-group][row][KGROUP], the last group zero-padded, then the selectors
 * that gather its columns gcols[strip][mc] of an n-wide operand. */
API i64 repro_i8_pack(
    i64 strips, i64 mr, i64 mc, i64 n, const i8 *codes, const i64 *gcols, i8 *pack)
{
    const i64 mrp = (mr + LANES_PAD - 1) / LANES_PAD * LANES_PAD;
    const i64 coded = LANES && mc <= ACC_CHUNK ? pack_codes(mr, mc) : 0;
    const i64 each = coded ? coded + pack_selectors(mc, n) : 0;
    if (!pack) return strips * each;
    memset(pack, 0, (size_t)(strips * each));
    for (i64 s = 0; s < strips; s++, pack += each, codes += mr * mc, gcols += mc) {
        i8 *to = pack + LANES_HEAD * mrp;
#if GATHER_PERMUTE
        if (each > coded) gather_selectors(mc, gcols, (u8 *)pack + coded);
#endif
        for (i64 i = 0; i < mr; i++) {
            i32 start = 0;
            for (i64 k = 0; k < mc; k++) start -= GATH_BIAS * codes[i * mc + k];
            memcpy(pack + i * LANES_HEAD, &start, LANES_HEAD);
        }
        /* LANES_PAD rows at a time, so that whole cache lines are written */
        for (i64 at = 0; at < mr; at += LANES_PAD) {
            const i64 stop = at + LANES_PAD < mr ? at + LANES_PAD : mr;
            i64 k = 0;
            for (; k + KGROUP <= mc; k += KGROUP)
                for (i64 i = at; i < stop; i++)
                    memcpy(to + k * mrp + i * KGROUP, codes + i * mc + k, KGROUP);
            for (i64 i = at; i < stop && k < mc; i++)  /* a short last group */
                memcpy(to + k * mrp + i * KGROUP, codes + i * mc + k, (size_t)(mc - k));
        }
    }
    return strips * each;
}

/* Codes and scale of int8_codes_axis for one row.  The peak is a
 * comparison maximum over eight running lanes (any order gives a finite
 * row the same one).  The codes are clip(rint(x / s)) by the true divide
 * or — where the scale keeps every intermediate clear of over- and
 * underflow — the same integers by a sequence that vectorizes:
 * Markstein's reciprocal steps round to the very quotient a divide gives,
 * and adding 1.5 * 2^52 rounds that to an integer as rint does (once, to
 * a grid of ones, ties to even: the constant is even), leaving it in
 * two's complement in the low bits of the sum.  There |x| <= 127 s, so
 * only a row with a NaN in it (whose peak can miss an element) is clipped.
 * A float32 row (f32 set: a GRU layer's states) is read widened to double,
 * which is exact: its codes and scale are those of the same values held as
 * doubles.  f32 is a literal at both call sites below. */
#define QUANT_X(i) (f32 ? (double)((const float *)x)[i] : ((const double *)x)[i])

/* The code of v at scale s by the reciprocal sequence (rc = 1 / s). */
static inline i8 quant_code(double v, double s, double rc)
{
    const double q0 = v * rc;
    const double e = __builtin_fma(-s, q0, v);
    const double sum = __builtin_fma(e, rc, q0) + 0x1.8p52;
    i64 bits;
    memcpy(&bits, &sum, sizeof bits);
    i32 code = (i32)bits;
    code = code > 127 ? 127 : code;
    return (i8)(code < -127 ? -127 : code);
}

static inline __attribute__((always_inline)) double quant_row(
    i64 n, const void *restrict x, const int f32, i8 *restrict xq)
{
    double m[8] = {0.0};
    i64 i = 0;
    for (; i + 8 <= n; i += 8)
        for (int l = 0; l < 8; l++) {
            const double a = fabs(QUANT_X(i + l));
            m[l] = m[l] > a ? m[l] : a;
        }
    for (; i < n; i++) {
        const double a = fabs(QUANT_X(i));
        m[0] = m[0] > a ? m[0] : a;
    }
    double peak = 0.0;
    for (int l = 0; l < 8; l++) peak = peak > m[l] ? peak : m[l];
    const double s = peak > 0.0 ? peak / 127.0 : 1.0;
#ifdef __FMA__
    if (s > MARKSTEIN_MIN && s < MARKSTEIN_MAX) {
        const double rc = 1.0 / s;
        for (i = 0; i < n; i++) xq[i] = quant_code(QUANT_X(i), s, rc);
        return s;
    }
#endif
    for (i = 0; i < n; i++) {
        double v = rint(QUANT_X(i) / s);
        v = v > 127.0 ? 127.0 : v;
        v = v < -127.0 ? -127.0 : v;
        xq[i] = (i8)(v != v ? 0.0 : v);  /* (i8)NaN is undefined */
    }
    return s;
}

static double bspc_quant_i8(i64 n, const double *restrict x, i8 *restrict xq)
{
    return quant_row(n, x, 0, xq);
}

/* A float32 row.  AVX-512 builds take sixteen of its elements a step —
 * the peak in float32 (a comparison maximum: the same one), each code by
 * the reciprocal sequence in two halves of eight doubles, its int32 the low
 * half of the sum's bits, as quant_code takes it — and those elements'
 * codes are quant_code's. */
static double bspc_quant_f32(i64 n, const float *restrict x, i8 *restrict xq)
{
#if LANES == 16 && defined(__FMA__)
    __m512 m = _mm512_setzero_ps();
    i64 i = 0;
    for (; i + 16 <= n; i += 16)
        m = _mm512_max_ps(m, _mm512_abs_ps(_mm512_loadu_ps(x + i)));
    float peak = _mm512_reduce_max_ps(m);
    for (; i < n; i++) {
        const float a = fabsf(x[i]);
        peak = peak > a ? peak : a;
    }
    const double s = peak > 0.0f ? (double)peak / 127.0 : 1.0;
    if (s > MARKSTEIN_MIN && s < MARKSTEIN_MAX) {
        const double rc = 1.0 / s;
        const __m512d vrc = _mm512_set1_pd(rc), ns = _mm512_set1_pd(-s);
        const __m512d round = _mm512_set1_pd(0x1.8p52);
        for (i = 0; i + 16 <= n; i += 16) {
            const __m512 v = _mm512_loadu_ps(x + i);
            __m256i half[2];
            for (int h = 0; h < 2; h++) {
                const __m512d d = _mm512_cvtps_pd(_mm256_castpd_ps(
                    _mm512_extractf64x4_pd(_mm512_castps_pd(v), h)));
                const __m512d q0 = _mm512_mul_pd(d, vrc);
                const __m512d e = _mm512_fmadd_pd(ns, q0, d);
                const __m512d sum = _mm512_add_pd(_mm512_fmadd_pd(e, vrc, q0), round);
                half[h] = _mm512_cvtepi64_epi32(_mm512_castpd_si512(sum));
            }
            __m512i code = _mm512_inserti64x4(_mm512_castsi256_si512(half[0]), half[1], 1);
            code = _mm512_max_epi32(_mm512_min_epi32(code, _mm512_set1_epi32(127)),
                                    _mm512_set1_epi32(-127));
            _mm_storeu_si128((__m128i *)(xq + i), _mm512_cvtepi32_epi8(code));
        }
        for (; i < n; i++) xq[i] = quant_code(x[i], s, rc);
        return s;
    }
#endif
    return quant_row(n, x, 1, xq);
}

#if LANES
/* NB columns by RG row groups of one packed strip: acc[j * lda + row] =
 * that row's dot product with column j.  NB and RG are literals at every
 * call site, so the sums are NB * RG registers.  Where RG does not divide
 * the strip's groups the last block steps back over rows already summed
 * (and stores the same sums again) rather than run short. */
static inline __attribute__((always_inline)) void bspc_lanes_block(
    const int NB, const int RG, i64 kp, i64 mrp, const i8 *pack,
    const gath_t *xg, i64 lda, i32 *acc)
{
    const i8 *codes = pack + LANES_HEAD * mrp;
    for (i64 g = 0; g < mrp; g += RG * LANES) {
        if (g > mrp - RG * LANES) g = mrp - RG * LANES;
        lanes_t a[8];
        for (int r = 0; r < RG; r++)
            for (int j = 0; j < NB; j++)
                a[r * NB + j] = LANES_INIT(pack + (g + r * LANES) * LANES_HEAD);
        for (i64 p = 0; p < kp; p++)
            for (int r = 0; r < RG; r++) {
                const lanes_t w = LANES_W(codes + (p * mrp + g + r * LANES) * KGROUP);
                for (int j = 0; j < NB; j++) {
                    i32 x;  /* codes KGROUP * p and on of column j */
                    memcpy(&x, xg + (j * kp + p) * KGROUP, sizeof x);
                    a[r * NB + j] = LANES_MAC(a[r * NB + j], w, LV(set1_epi32)(x));
                }
            }
        for (int r = 0; r < RG; r++)
            for (int j = 0; j < NB; j++)
                memcpy(acc + j * lda + g + r * LANES, &a[r * NB + j], sizeof a[0]);
    }
}

/* One sum per column waits out the multiply-add's latency, so the narrow
 * blocks take RG row groups at once — four sums or more in flight —
 * where the strip has that many. */
#define BSPC_LANES(NB, RG) \
    case NB: \
        if (RG > 1 && mrp >= RG * LANES) \
            bspc_lanes_block(NB, RG, kp, mrp, pack, xg, lda, acc); \
        else \
            bspc_lanes_block(NB, 1, kp, mrp, pack, xg, lda, acc); \
        break;

/* One packed strip against min(nb, 8) columns of the batch. */
static void bspc_lanes_strip(
    i64 nb, i64 kp, i64 mrp, const i8 *pack, const gath_t *xg, i64 lda, i32 *acc)
{
    switch (nb < 8 ? nb : 8) {
    BSPC_LANES(1, 4) BSPC_LANES(2, 2) BSPC_LANES(3, 2) BSPC_LANES(4, 1)
    BSPC_LANES(5, 1) BSPC_LANES(6, 1) BSPC_LANES(7, 1) BSPC_LANES(8, 1)
    }
}
#endif

#if GATHER_PERMUTE
/* The first `count` of 64 byte lanes (none for count <= 0). */
static inline __mmask64 first_lanes(i64 count)
{
    return count >= 64 ? ~(__mmask64)0 : count <= 0 ? 0 : ((__mmask64)1 << count) - 1;
}

/* One strip's activation codes, 64 kept columns at a time: for each
 * 128-byte block b of an operand row that the columns touch, one vpermi2b
 * of its two halves picks the columns whose block is b (their low 7 bits
 * index the pair), and the picks are OR'd.  Then + GATH_BIAS on the kept
 * lanes, so the padding of the last k-group stays 0, and ld bytes a row
 * stored.  Loads past the row's n bytes and stores past its ld are masked
 * off: nothing outside either is touched.  The same codes in the same
 * places as the byte-by-byte loop. */
static void gather_permute(
    i64 batch, i64 n, i64 mc, i64 ld, const u8 *sel, const i8 *xq, gath_t *xl)
{
    const i64 blocks = (mc + 63) / 64;
    const u8 *range = sel + 128 * blocks;
    const __m512i bias = _mm512_set1_epi8((char)GATH_BIAS);
    for (i64 kb = 0; kb < blocks; kb++) {
        const __m512i low = _mm512_loadu_si512(sel + 128 * kb);
        const __m512i block = _mm512_loadu_si512(sel + 128 * kb + 64);
        const __mmask64 kept = first_lanes(mc - 64 * kb), stored = first_lanes(ld - 64 * kb);
        for (i64 j = 0; j < batch; j++) {
            const i8 *row = xq + j * n;
            __m512i v = _mm512_setzero_si512();
            for (i64 b = range[2 * kb]; b <= range[2 * kb + 1]; b++) {
                const i64 at = 128 * b;
                const __mmask64 in = _mm512_cmpeq_epi8_mask(block, _mm512_set1_epi8((char)b));
                const __m512i a = _mm512_maskz_loadu_epi8(first_lanes(n - at), row + at);
                const __m512i c = _mm512_maskz_loadu_epi8(first_lanes(n - at - 64), row + at + 64);
                v = _mm512_or_si512(v, _mm512_maskz_permutex2var_epi8(in, a, low, c));
            }
            _mm512_mask_storeu_epi8(xl + j * ld + 64 * kb, stored,
                                    _mm512_mask_add_epi8(v, kept, v, bias));
        }
    }
}
#endif

/* R rows x NB columns of one strip; R and NB are literals at every call
 * site, so the accumulators are registers and the k loop vectorizes. */
static inline __attribute__((always_inline)) void bspc_nb_block(
    const int R, const int NB, i64 kc, i64 mc, const i8 *c, const i16 *xg,
    const i64 *sr, i64 rows, double *out)
{
    i32 a[4][4] = {{0}};
    for (i64 k = 0; k < kc; k++)
        for (int r = 0; r < R; r++) {
            const i32 cv = c[r * mc + k];
            for (int j = 0; j < NB; j++)
                a[r][j] += cv * (i32)xg[j * mc + k];
        }
    for (int r = 0; r < R; r++)
        if (sr[r] < rows)  /* padded panel rows have no output row */
            for (int j = 0; j < NB; j++)
                out[j * rows + sr[r]] += (double)a[r][j];
}

#define BSPC_NB_ROWS(R) \
    switch (nb) { \
    case 1: bspc_nb_block(R, 1, kc, mc, c, xg + k0, sr + i, rows, out); break; \
    case 2: bspc_nb_block(R, 2, kc, mc, c, xg + k0, sr + i, rows, out); break; \
    case 3: bspc_nb_block(R, 3, kc, mc, c, xg + k0, sr + i, rows, out); break; \
    default: bspc_nb_block(R, 4, kc, mc, c, xg + k0, sr + i, rows, out); \
    }

/* One strip against min(nb, 4) columns of the batch. */
static void bspc_nb_strip(
    i64 nb, i64 mr, i64 mc, const i8 *codes, const i16 *xg, const i64 *sr,
    i64 rows, double *out)
{
    for (i64 k0 = 0; k0 < mc; k0 += ACC_CHUNK) {
        const i64 kc = mc - k0 < ACC_CHUNK ? mc - k0 : ACC_CHUNK;
        const i8 *c = codes + k0;
        i64 i = 0;
        for (; i + 4 <= mr; i += 4, c += 4 * mc) { BSPC_NB_ROWS(4) }
        for (; i < mr; i++, c += mc) { BSPC_NB_ROWS(1) }
    }
}

/* int32 of scratch a column of the product keeps its sums in: with the
 * rows-in-lanes kernel the last strip's offset + its padded height, else a
 * double per output row, which the register block accumulates into. */
static i64 bspc_lda(const plan_op *p)
{
    const i64 mrp = (p->mr + LANES_PAD - 1) / LANES_PAD * LANES_PAD;
    return LANES && p->lanes ? p->layout[p->strips - 1] + mrp : 2 * p->rows;
}

/* The product of `batch` <= 8 operand rows, already quantized: codes xq
 * (batch, n), row-major, and their scales xs — the transposes of the
 * (n, batch) operand of spmm_int8 — into the float32 out (batch, rows),
 * the transpose of its result.  `bias` (null: none) is added to every row
 * of every column.  p->lanes is
 * the packed strips of the rows-in-lanes kernel (each its sums'
 * LANES_HEAD, then its codes, then the selectors of its gather where the
 * build permutes: repro_i8_pack), null where the caller found it does not
 * apply, and p->layout where its sums go: per strip the offset of its
 * first sum in a column's (the kept rows of the strips before it), then
 * the epilogue's windows (see bspc_epilogue).  `work` is scratch: batch
 * columns of bspc_lda sums, then batch rows of gathered codes (room for
 * mc, rounded up to even, int16). */
static void repro_bspc_i8_nb(
    const plan_op *p, i64 batch, const i8 *xq, const double *xs,
    const float *bias, i32 *work, float *out)
{
    const i64 strips = p->strips, mr = p->mr, mc = p->mc, rows = p->rows, n = p->n;
    const int wide = LANES && p->lanes;
    const i64 lda = bspc_lda(p);
    const i64 *gcols = p->gcols, *layout = p->layout;
    i16 *xg = (i16 *)(work + batch * lda);
    TIC(zero);
    if (!wide)  /* the register block accumulates into its doubles */
        memset(work, 0, (size_t)(batch * rows) * sizeof(double));
    TOC(zero, PH_EPILOGUE);
    for (i64 s = 0; s < strips; s++) {
        const i64 *gc = gcols + s * mc;
        TIC(gather);
#if LANES
        if (wide) {
            const i64 kp = (mc + KGROUP - 1) / KGROUP, ld = kp * KGROUP;
            const i64 mrp = (mr + LANES_PAD - 1) / LANES_PAD * LANES_PAD;
            const i64 coded = pack_codes(mr, mc), selectors = pack_selectors(mc, n);
            const i8 *strip = p->lanes + s * (coded + selectors);
            gath_t *xl = (gath_t *)xg;
#if GATHER_PERMUTE
            if (selectors)
                gather_permute(batch, n, mc, ld, (const u8 *)strip + coded, xq, xl);
            else
#endif
            for (i64 j = 0; j < batch; j++) {
                for (i64 k = 0; k < mc; k++)
                    xl[j * ld + k] = (gath_t)(xq[j * n + gc[k]] + GATH_BIAS);
                for (i64 k = mc; k < ld; k++) xl[j * ld + k] = 0;  /* meets zero codes */
            }
            TOC(gather, PH_GATHER);
            TIC(mac);
            /* from the strip before's first padding lane on */
            for (i64 jb = 0; jb < batch; jb += 8)
                bspc_lanes_strip(batch - jb, kp, mrp, strip, xl + jb * ld, lda,
                                 work + jb * lda + layout[s]);
            TOC(mac, PH_MAC);
            continue;
        }
#endif
        for (i64 j = 0; j < batch; j++)
            for (i64 k = 0; k < mc; k++)
                xg[j * mc + k] = xq[j * n + gc[k]];
        TOC(gather, PH_GATHER);
        TIC(mac);
        for (i64 jb = 0; jb < batch; jb += 4)
            bspc_nb_strip(batch - jb, mr, mc, p->codes + s * mr * mc,
                          xg + jb * mc, p->srows + s * mr, rows, (double *)work + jb * rows);
        TOC(mac, PH_MAC);
    }
    TIC(epilogue);
    bspc_epilogue(rows, batch, wide ? layout + strips : NULL, work, lda, p->scale, xs, bias,
                  out);
    TOC(epilogue, PH_EPILOGUE);
}
"""


# The float64 GRU training step: the two time loops of the fused BPTT
# (kernels/numpy_backend.py's gru_sequence_grad), whose hoisted input
# projection and whole-sequence gradient GEMMs stay in numpy's BLAS.  Per
# forward step, a register-blocked product of the states with W_hh.T, then
# one sweep per batch row; per backward step, one sweep per batch row, then
# the product of its gate gradients with W_hh.  Float64 in GNU vector types
# of F64_VL doubles, the widest register the build names; this section
# comes before the contraction guard, so a build with FMA fuses `a * b +
# c`.  Its results are the build's own — deterministic, within 1e-6 of the
# autograd tape, not the numpy loop's bits.
_C_GRU_F64 = r"""
#if defined(__AVX512F__)
#define F64_VL 8
#define F64_NV 3  /* vectors of columns per register block: 24 of 32 registers */
#elif defined(__AVX__)
#define F64_VL 4
#define F64_NV 1
#else
#define F64_VL 2
#define F64_NV 1
#endif
typedef double f64v __attribute__((vector_size(8 * F64_VL)));
typedef double f64vu __attribute__((vector_size(8 * F64_VL), aligned(8), may_alias));
typedef i64 i64v __attribute__((vector_size(8 * F64_VL)));
typedef uint64_t u64v __attribute__((vector_size(8 * F64_VL)));
#define F64(p) (*(f64vu *)(p))
#define F64C(c) ((f64v){0} + (c))
/* The training loops' code goes after all of the int8 program's, so its
 * size moves none of the program's hot loops (the linker places a .text.*
 * section after .text). */
#define F64_TEXT __attribute__((section(".text.repro_f64")))

/* c (m, n; rows ldc apart) = a (m, k; rows lda apart) . b (k, n), added to
 * what c holds where `add`: rows of a in blocks of eight, then one block
 * each of four, two and one for the last m % 8, a block of r rows over
 * 8 / r times as many vectors of columns (F64_NV at eight rows) — every
 * block keeps 8 * F64_NV sums in registers — then halving widths for the
 * columns a block leaves, one vector last, and the last n % F64_VL columns
 * one at a time.  The block sizes are constants, so the sums stay in
 * registers.  Every element sums its k products in order, whichever block
 * it falls in. */
static inline __attribute__((always_inline)) F64_TEXT void f64_block(
    i64 rows, i64 nv, i64 k, const double *a, i64 lda, const double *b, i64 n,
    double *c, i64 ldc, int add)
{
    f64v acc[8 * F64_NV];
    for (i64 i = 0; i < rows; i++)
        for (i64 v = 0; v < nv; v++)
            acc[i * nv + v] = add ? (f64v)F64(c + i * ldc + v * F64_VL) : F64C(0.0);
    for (i64 kk = 0; kk < k; kk++, b += n) {
        f64v w[8 * F64_NV];
        for (i64 v = 0; v < nv; v++) w[v] = F64(b + v * F64_VL);
        for (i64 i = 0; i < rows; i++) {
            const double ai = a[i * lda + kk];
            for (i64 v = 0; v < nv; v++) acc[i * nv + v] += w[v] * ai;
        }
    }
    for (i64 i = 0; i < rows; i++)
        for (i64 v = 0; v < nv; v++) F64(c + i * ldc + v * F64_VL) = acc[i * nv + v];
}

#define F64_COLS(rows, nv)                                     \
    for (; j + (nv) * F64_VL <= n; j += (nv) * F64_VL)          \
        f64_block(rows, nv, k, a, lda, b + j, n, c + j, ldc, add)

static F64_TEXT void f64_gemm(
    i64 m, i64 n, i64 k, const double *a, i64 lda, const double *b, double *c, i64 ldc,
    int add)
{
    for (i64 i = 0, rows; i < m; i += rows, a += rows * lda, c += rows * ldc) {
        rows = m - i >= 8 ? 8 : m - i >= 4 ? 4 : m - i >= 2 ? 2 : 1;
        i64 j = 0;
        if (rows == 8) {
            F64_COLS(8, F64_NV);
            F64_COLS(8, 1);
        } else if (rows == 4) {
            F64_COLS(4, 2 * F64_NV);
            F64_COLS(4, F64_NV);
            F64_COLS(4, 1);
        } else if (rows == 2) {
            F64_COLS(2, 4 * F64_NV);
            F64_COLS(2, 2 * F64_NV);
            F64_COLS(2, F64_NV);
            F64_COLS(2, 1);
        } else {
            F64_COLS(1, 8 * F64_NV);
            F64_COLS(1, 4 * F64_NV);
            F64_COLS(1, 2 * F64_NV);
            F64_COLS(1, F64_NV);
            F64_COLS(1, 1);
        }
        for (; j < n; j++)
            for (i64 r = 0; r < rows; r++) {
                double sum = add ? c[r * ldc + j] : 0.0;
                for (i64 kk = 0; kk < k; kk++) sum += a[r * lda + kk] * b[kk * n + j];
                c[r * ldc + j] = sum;
            }
    }
}

static inline F64_TEXT f64v select64(i64v m, f64v a, f64v b)
{
    return (f64v)((m & (i64v)a) | (~m & (i64v)b));
}

/* exp, within an ulp or two: x clamped to [-708, 708] (2^k stays normal;
 * the sigmoid and tanh below only ever add it to 1), k = round(x log2 e)
 * by the 1.5 * 2^52 sum, f = x - k ln 2 in two pieces (|f| <= ln 2 / 2),
 * e^f by its Taylor polynomial to degree 12, times 2^k made from the
 * sum's low bits. */
static inline F64_TEXT f64v exp64(f64v x)
{
    x = select64((i64v)(x < -708.0), F64C(-708.0), x);
    x = select64((i64v)(x > 708.0), F64C(708.0), x);
    const f64v s = x * 0x1.71547652b82fep+0 + 0x1.8p52;
    const f64v k = s - 0x1.8p52;
    const f64v f = (x - k * 0x1.62e42feep-1) - k * 0x1.a39ef35793c76p-33;
    f64v p = F64C(1.0 / 479001600.0);
    p = p * f + 1.0 / 39916800.0;
    p = p * f + 1.0 / 3628800.0;
    p = p * f + 1.0 / 362880.0;
    p = p * f + 1.0 / 40320.0;
    p = p * f + 1.0 / 5040.0;
    p = p * f + 1.0 / 720.0;
    p = p * f + 1.0 / 120.0;
    p = p * f + 1.0 / 24.0;
    p = p * f + 1.0 / 6.0;
    p = p * f + 0.5;
    p = p * f + 1.0;
    p = p * f + 1.0;
    return (f64v)((u64v)p + ((u64v)s << 52));
}

/* F64_VL units of one batch row's forward step, `h` apart per gate: st
 * holds the row's gh = h_prev W_hh.T (z, r, candidate) and gets its stash
 * (z, r, h~, gh_h + b_hh_h), gx its hoisted gate sums (the z/r recurrent
 * biases folded in), b the candidate's recurrent bias; the new state into
 * next.  sigmoid(v) = 1 / (exp(-v) + 1), tanh(v) = 2 sigmoid(2 v) - 1. */
static inline __attribute__((always_inline)) F64_TEXT void f64_forward_units(
    i64 h, const double *gx, const double *b, const double *prev, double *st, double *next)
{
    const f64v z = 1.0 / (exp64(-(F64(gx) + F64(st))) + 1.0);
    const f64v r = 1.0 / (exp64(-(F64(gx + h) + F64(st + h))) + 1.0);
    const f64v ghh = F64(st + 2 * h) + F64(b);
    const f64v cand = 2.0 / (exp64(-2.0 * (F64(gx + 2 * h) + r * ghh)) + 1.0) - 1.0;
    const f64v hp = F64(prev);
    F64(st) = z;
    F64(st + h) = r;
    F64(st + 2 * h) = cand;
    F64(st + 3 * h) = ghh;
    F64(next) = hp + z * (cand - hp);
}

/* ... and of its backward step: dh = grad_out + carry (the gradient the
 * step after sent back); the gate gradients into g, slots [h_in | z | r |
 * h_rec] `h` apart, and dh (1 - z), the direct part of the next carry. */
static inline __attribute__((always_inline)) F64_TEXT void f64_backward_units(
    i64 h, const double *go, const double *st, const double *prev, double *g, double *carry)
{
    const f64v dh = F64(go) + F64(carry);
    const f64v z = F64(st), r = F64(st + h), cand = F64(st + 2 * h);
    const f64v da_h = dh * z * (1.0 - cand * cand);
    F64(g) = da_h;
    F64(g + h) = dh * (cand - F64(prev)) * z * (1.0 - z);
    F64(g + 2 * h) = da_h * F64(st + 3 * h) * r * (1.0 - r);
    F64(g + 3 * h) = da_h * r;
    F64(carry) = dh * (1.0 - z);
}

/* One batch row of either step: whole vectors in place, the last h % F64_VL
 * units through zero-padded copies of theirs, F64_VL apart. */
static F64_TEXT void f64_forward_row(
    i64 h, const double *gx, const double *b, const double *prev, double *st, double *next)
{
    const i64 whole = h / F64_VL * F64_VL, n = h - whole;
    const size_t bytes = (size_t)n * sizeof(double);
    for (i64 j = 0; j < whole; j += F64_VL)
        f64_forward_units(h, gx + j, b + j, prev + j, st + j, next + j);
    if (!n) return;
    double x[3 * F64_VL] = {0}, s[4 * F64_VL] = {0}, bias[F64_VL] = {0}, p[F64_VL] = {0};
    double out[F64_VL];
    for (int g = 0; g < 3; g++) {
        memcpy(x + g * F64_VL, gx + g * h + whole, bytes);
        memcpy(s + g * F64_VL, st + g * h + whole, bytes);
    }
    memcpy(bias, b + whole, bytes);
    memcpy(p, prev + whole, bytes);
    f64_forward_units(F64_VL, x, bias, p, s, out);
    for (int g = 0; g < 4; g++) memcpy(st + g * h + whole, s + g * F64_VL, bytes);
    memcpy(next + whole, out, bytes);
}

static F64_TEXT void f64_backward_row(
    i64 h, const double *go, const double *st, const double *prev, double *g, double *carry)
{
    const i64 whole = h / F64_VL * F64_VL, n = h - whole;
    const size_t bytes = (size_t)n * sizeof(double);
    for (i64 j = 0; j < whole; j += F64_VL)
        f64_backward_units(h, go + j, st + j, prev + j, g + j, carry + j);
    if (!n) return;
    double o[F64_VL] = {0}, s[4 * F64_VL] = {0}, p[F64_VL] = {0}, c[F64_VL] = {0};
    double out[4 * F64_VL];
    memcpy(o, go + whole, bytes);
    for (int k = 0; k < 4; k++) memcpy(s + k * F64_VL, st + k * h + whole, bytes);
    memcpy(p, prev + whole, bytes);
    memcpy(c, carry + whole, bytes);
    f64_backward_units(F64_VL, o, s, p, out, c);
    for (int k = 0; k < 4; k++) memcpy(g + k * h + whole, out + k * F64_VL, bytes);
    memcpy(carry + whole, c, bytes);
}

/* The forward recurrence over a packed batch of `steps` steps: step t
 * runs its bs[t] live rows (bs non-increasing, bs[0] = batch; a row
 * that has ended keeps its state) — frame after frame, its rows a prefix
 * of the step before's.  gx (frames, 3h) the hoisted gate sums, w_hh_t
 * (h, 3h) = W_hh.T, b_hh_h the candidate's recurrent bias; hs (batch +
 * frames, h) holds h0 and gets each frame's new state after it, so a
 * row's state before step t is its row in the block before (h0 at t = 0);
 * stash (frames, 4h) each frame's z, r, h~ and gh_h + b_hh_h — the step's
 * product lands there first. */
API F64_TEXT void repro_gru_f64_forward(
    i64 steps, i64 batch, i64 h, const i64 *bs, const double *gx, const double *w_hh_t,
    const double *b_hh_h, double *hs, double *stash)
{
    const double *prev = hs;
    double *next = hs + batch * h;
    for (i64 t = 0; t < steps; t++) {
        const i64 rows = bs[t];
        f64_gemm(rows, 3 * h, h, prev, h, w_hh_t, stash, 4 * h, 0);
        for (i64 i = 0; i < rows; i++)
            f64_forward_row(h, gx + i * 3 * h, b_hh_h, prev + i * h, stash + i * 4 * h,
                            next + i * h);
        prev = next;
        next += rows * h, gx += rows * 3 * h, stash += rows * 4 * h;
    }
}

/* BPTT over that forward's stash and states: grad_out (frames, h) the
 * gradients of the outputs, w_hh (3h, h); gates (frames, 4h) gets each
 * frame's gate gradients, slots [h_in | z | r | h_rec]; carry (batch, h)
 * holds the gradient of each row's last state and ends as that of h0.
 * Per step from the last, each live row's gates from the stash, then
 * carry = dh (1 - z) + [z | r | h_rec] . W_hh — the slots W_hh's rows are
 * in; the carry of a row not live yet stays its seed. */
API F64_TEXT void repro_gru_f64_backward(
    i64 steps, i64 batch, i64 h, const i64 *bs, const double *grad_out, const double *w_hh,
    const double *hs, const double *stash, double *gates, double *carry)
{
    i64 at = 0;
    for (i64 t = 0; t < steps; t++) at += bs[t];
    for (i64 t = steps - 1; t >= 0; t--) {
        at -= bs[t];
        const i64 live = bs[t];
        const double *prev = t ? hs + (batch + at - bs[t - 1]) * h : hs;
        double *g = gates + at * 4 * h;
        for (i64 i = 0; i < live; i++)
            f64_backward_row(h, grad_out + (at + i) * h, stash + (at + i) * 4 * h,
                             prev + i * h, g + i * 4 * h, carry + i * h);
        f64_gemm(live, h, 3 * h, g + h, 4 * h, w_hh, carry, h, 1);
    }
}
"""


# Everything below this guard is compiled without floating-point
# contraction: each statement of the fused layer-chunk must round exactly
# like the numpy ufunc of the generic loop, and an `a + b * c` contracted
# into one FMA rounds once instead of twice.  gcc ignores the STDC pragma and clang
# the GCC one, so both are given; the section comes last in the source so
# the quantizer above keeps its FMAs.
_C_NO_CONTRACT = r"""
#pragma STDC FP_CONTRACT OFF
#pragma GCC optimize("fp-contract=off")
"""

# Fused GRU int8 layer-chunk, the batch-major int8 projection, and the
# whole-plan chunk that calls the two op by op, all over
# repro_bspc_i8_nb.  Every value between an int32 sum and the next
# quantize is float32: the frames x (N, n) are float64, and the gate rows
# gx (T, B, 3H), gh (B, 3H), the states (B, H) and the biases float32, all
# row-major.  The epilogue dequantizes each sum to float32 and adds the
# float32 bias; the gate math runs sixteen units at a time in registers,
# one sweep per batch row, and stores the new float32 state.  `exp`, and
# the sigmoid and tanh built on it, are kernels/_math.py's exp32 with its
# constants: every elementwise op of GRULayerPlan.forward's float32 gates
# is one IEEE operation here, in the same order, and nothing is called out
# of the library.
_C_GRU_CHUNK = _C_NO_CONTRACT + r"""
/* repro_bspc_i8_nb's output, every row of each column written once, in
 * order: quantized.dequantize's (float)v * (float)(scale * xs), then
 * `+ bias` where there is one — two float32 roundings after the
 * conversion, as `kernel(...) + bias`.  `windows` null: the register
 * block's sums, a double per row (`lda` int32 apart), exact integers.
 * Otherwise `sums` holds each column's (`lda` apart) lanes-kernel sums of
 * the kept rows, in output-row order, and windows[w] = at << 16 | keep
 * covers output rows WINDOW * w on: bit i of `keep` says whether the
 * window's row i is kept, `at` where the first kept one's sum sits.  Those
 * sums are expanded into their lanes and the pruned rows get 0 — so 0 *
 * the scale, +0.0, as the reference's zeros dequantize. */
#if LANES == 8
/* AVX2 has no expand: a masked load of the kept sums, zeros after, then
 * vpermd by these indices — per 8-row mask, a kept row takes the loaded
 * lane that counts the kept rows below it, a pruned one lane 7, which the
 * masked load left zero (fewer than eight were kept). */
static const u8 expand8[256][8] = {$EXPAND8};
#endif
static void bspc_epilogue(
    i64 rows, i64 batch, const i64 *windows, const i32 *sums, i64 lda,
    double scale, const double *xs, const float *bias, float *out)
{
    for (i64 j = 0; j < batch; j++) {
        const float fused = (float)(scale * xs[j]);
        const i32 *col = sums + j * lda;
        float *o = out + j * rows;
        if (!windows) {
            const double *acc = (const double *)col;
            for (i64 r = 0; r < rows; r++) {
                const float v = (float)acc[r] * fused;
                o[r] = bias ? v + bias[r] : v;
            }
            continue;
        }
#if LANES
        for (i64 r = 0; r < rows; r += WINDOW) {
            const i64 w = windows[r / WINDOW], n = rows - r < WINDOW ? rows - r : WINDOW;
            const i32 *at = col + (w >> 16);
#if LANES == 16
            /* one conversion of the window's sixteen sums, round to nearest */
            const __mmask16 tail = (__mmask16)(n == WINDOW ? 0xffff : (1u << n) - 1);
            __m512 v = _mm512_mul_ps(
                _mm512_cvtepi32_ps(_mm512_maskz_expandloadu_epi32((__mmask16)w, at)),
                _mm512_set1_ps(fused));
            if (bias)
                v = _mm512_add_ps(v, _mm512_maskz_loadu_ps(tail, bias + r));
            _mm512_mask_storeu_ps(o + r, tail, v);
#else
            i32 v[WINDOW];
            for (int h = 0; h < 2; h++) {
                const unsigned keep = w >> 8 * h & 0xff;
                const int count = __builtin_popcount(keep);
                const __m256i some = _mm256_cmpgt_epi32(
                    _mm256_set1_epi32(count), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
                const __m256i to = _mm256_cvtepu8_epi32(
                    _mm_loadl_epi64((const __m128i *)expand8[keep]));
                _mm256_storeu_si256((__m256i *)(v + 8 * h), _mm256_permutevar8x32_epi32(
                    _mm256_maskload_epi32(at, some), to));
                at += count;
            }
            for (i64 i = 0; i < n; i++) {
                const float f = (float)v[i] * fused;
                o[r + i] = bias ? f + bias[r + i] : f;
            }
#endif
        }
#endif
    }
}

/* out (count, p->rows) = the product of `count` operand rows quantized
 * already (codes xq, p->n apart, and scales xs), walked in the blocks of
 * eight the product takes. */
static void bspc_i8_coded(
    const plan_op *p, i64 count, const i8 *xq, const double *xs, const float *bias,
    i32 *work, float *out)
{
    for (i64 at = 0; at < count; at += 8)
        repro_bspc_i8_nb(p, count - at < 8 ? count - at : 8, xq + at * p->n, xs + at, bias,
                         work, out + at * p->rows);
}

/* out = x @ W.T (+ bias, if any) for `count` float64 operand rows, each
 * quantized on its own, eight at a time, then their product: spmv_int8
 * and spmm_int8 alike (a vector is one row).  `work` is the product's for
 * min(count, 8) rows, then room for as many rows of p->n codes. */
API void repro_bspc_i8_rows(
    const plan_op *p, i64 count, const double *x, const float *bias, i32 *work, float *out)
{
    double xs[8];
    const i64 n = p->n;
    i8 *xq = (i8 *)(work + (count < 8 ? count : 8) * (bspc_lda(p) + (p->mc + 1) / 2));
    for (i64 at = 0; at < count; at += 8) {
        const i64 block = count - at < 8 ? count - at : 8;
        TIC(quantize);
        for (i64 j = 0; j < block; j++)
            xs[j] = bspc_quant_i8(n, x + (at + j) * n, xq + j * n);
        TOC(quantize, PH_QUANTIZE);
        repro_bspc_i8_nb(p, block, xq, xs, bias, work, out + at * p->rows);
    }
}

/* The float32 gate math of kernels/_math.py, sixteen units at a time, in
 * GNU vector types: one statement is one IEEE operation on every lane, on
 * every build (one AVX-512 register, or pieces of narrower ones).  The
 * constants are _math.py's own, written in as hex literals.  f32x16u reads
 * and writes float32 memory at any alignment, through F32. */
$EXP_DEFINES
typedef float f32x16 __attribute__((vector_size(64)));
typedef float f32x16u __attribute__((vector_size(64), aligned(4), may_alias));
typedef int32_t i32x16 __attribute__((vector_size(64)));
typedef uint32_t u32x16 __attribute__((vector_size(64)));
#define F32X16(c) ((f32x16){c, c, c, c, c, c, c, c, c, c, c, c, c, c, c, c})
#define F32(p) (*(f32x16u *)(p))

/* x clamped to [EXP_LO, EXP_HI] as np.minimum(np.maximum(x, lo), hi), by
 * compare and select: a NaN compares false both times and stays. */
static inline f32x16 clamp16(f32x16 x)
{
    i32x16 m = x < EXP_LO;
    x = (f32x16)((m & (i32x16)F32X16(EXP_LO)) | (~m & (i32x16)x));
    m = x > EXP_HI;
    return (f32x16)((m & (i32x16)F32X16(EXP_HI)) | (~m & (i32x16)x));
}

/* exp32: clamp, t = x log2 e, k = round(t) by the 1.5 * 2^23 sum, f = t - k
 * (exact, |f| <= 1/2), 2^f by the degree-5 polynomial in Estrin form (its
 * three binomials independent: six operations from f to 2^f), times 2^k
 * made from the sum's low bits. */
static inline f32x16 exp16(f32x16 x)
{
    const f32x16 t = clamp16(x) * LOG2E;
    const f32x16 s = t + ROUND;
    const f32x16 f = t - (s - ROUND);
    const f32x16 f2 = f * f;
    const f32x16 p = (C1 * f + 1.0f) + f2 * ((C3 * f + C2) + f2 * (C5 * f + C4));
    return p * (f32x16)(((u32x16)s << 23) + 0x3F800000u);
}

/* GRULayerPlan.forward's float32 gate statements, in its order, for n units
 * of a batch row (n a multiple of 16, at most GATE_BLOCK): gx and gh the
 * units' gate sums, the z gate's, with r's and the candidate's `h` and 2h
 * further on; the candidate's recurrent bias and the states before; the new
 * states into next.  Sigmoid is 1 / (exp(-v) + 1), tanh 2 / (exp(-2 v) + 1)
 * - 1, the blend (1 - z) * prev + z * cand.  Two passes — the z and r
 * sigmoids, then the candidate and the blend — make short independent
 * chains the core overlaps; one pass of all three exponentials waits on its
 * own latency. */
#define GATE_BLOCK 64

static void gru_gates(
    i64 n, i64 h, const float *gx, const float *gh, const float *bias_h, const float *prev,
    float *next)
{
    float z[GATE_BLOCK], r[GATE_BLOCK];
    for (i64 i = 0; i < n; i += 16) {
        F32(z + i) = 1.0f / (exp16(-(F32(gx + i) + F32(gh + i))) + 1.0f);
        F32(r + i) = 1.0f / (exp16(-(F32(gx + h + i) + F32(gh + h + i))) + 1.0f);
    }
    for (i64 i = 0; i < n; i += 16) {
        const f32x16 zs = F32(z + i);
        const f32x16 cand = F32(gx + 2 * h + i) + F32(r + i) * (F32(gh + 2 * h + i) + F32(bias_h + i));
        const f32x16 t = 2.0f / (exp16(cand * -2.0f) + 1.0f) - 1.0f;
        F32(next + i) = (1.0f - zs) * F32(prev + i) + zs * t;
    }
}

/* One batch row's gate sweep: gx and gh its 3H gate sums (z, r,
 * candidate), the states before and after.  The last h % 16 units run
 * through zero-padded copies of theirs, h = 16 apart. */
static void gru_row(
    i64 h, const float *gx, const float *gh, const float *bias_h, const float *prev,
    float *next)
{
    const i64 whole = h / 16 * 16, n = h - whole;
    for (i64 at = 0; at < whole; at += GATE_BLOCK)
        gru_gates(whole - at < GATE_BLOCK ? whole - at : GATE_BLOCK, h, gx + at, gh + at,
                  bias_h + at, prev + at, next + at);
    if (!n) return;
    float x[48] = {0.0f}, y[48] = {0.0f}, b[16] = {0.0f}, p[16] = {0.0f}, out[16];
    for (int g = 0; g < 3; g++) {
        memcpy(x + 16 * g, gx + g * h + whole, (size_t)n * sizeof(float));
        memcpy(y + 16 * g, gh + g * h + whole, (size_t)n * sizeof(float));
    }
    memcpy(b, bias_h + whole, (size_t)n * sizeof(float));
    memcpy(p, prev + whole, (size_t)n * sizeof(float));
    gru_gates(16, 16, x, y, b, p, out);
    memcpy(next + whole, out, (size_t)n * sizeof(float));
}

/* Rows of a GRU layer's hidden states in the arena of repro_plan_i8_chunk:
 * float32 states and their int8 codes, H apart, and the codes' scales. */
typedef struct {
    float *state;
    double *scale;
    i8 *code;
} tile_rows;

/* `steps` steps of one GRU layer, starting from the states `before` (B
 * rows), gx the steps' gate rows.  Per step gh = (the states before it, as
 * their codes) @ W_hh.T, then one gate sweep per batch row while it is in
 * L1 (gru_row), its new states stored in `now` and quantized there and
 * then, while they are hot, to the codes and scale that both the next
 * step's product and the next op read.  `now` advances a step. */
static void repro_gru_i8_chunk(
    const plan_op *op, i64 batch, i64 steps, tile_rows before, const float *gx,
    tile_rows now, float *gh, i32 *work)
{
    const i64 h = op->n;
    for (i64 t = 0; t < steps; t++) {
        bspc_i8_coded(op, batch, before.code, before.scale, NULL, work, gh);
        for (i64 b = 0; b < batch; b++) {
            float *next = now.state + b * h;
            TIC(gates);
            gru_row(h, gx + b * 3 * h, gh + b * 3 * h, op->bias, before.state + b * h, next);
            TOC(gates, PH_GATES);
            TIC(quantize);
            now.scale[b] = bspc_quant_f32(h, next, now.code + b * h);
            TOC(quantize, PH_QUANTIZE);
        }
        before = now;
        now.state += batch * h;
        now.scale += batch;
        now.code += batch * h;
        gx += batch * 3 * h;
    }
}

/* Where the pieces of an arena go: `size` bytes from the next cache line
 * at or after *end on; *end moves past them. */
static i64 carve(i64 *end, i64 size)
{
    const i64 at = (*end + 63) / 64 * 64;
    *end = at + size;
    return at;
}

/* int32 of product scratch an op takes per operand row: its sums
 * (bspc_lda), then its gathered codes, int16 at their widest. */
static i64 op_work(const plan_op *p)
{
    return bspc_lda(p) + (p->mc + 1) / 2;
}

/* The arena of one run of a chunk's rows (run_rows) at `batch` rows a
 * step, laid out from B and the widths alone (not T), for tiles of `rows`
 * = ceil(8 / B) * B rows: the tile's float32 gate rows (3H of the widest
 * H), gh (B rows), the scales and codes of a tile of x, the tile's float32
 * logits where an output op makes them (a half of a split chunk, and a
 * chunk that keeps no logits, stages them there), per GRU two halves — tiles alternate between them, so the one a
 * tile writes is not the one the tile before it wrote — each `rows` scales,
 * states and codes, and last the product's scratch at 8 rows (the neediest
 * op's), so a product that outgrew it would write past the arena's end.
 * Every piece starts on a cache line; the arena ends where the last one
 * does.  Returns its bytes; given the arena `base`, also where the tile's
 * pieces are (io) and each GRU's two halves, in order. */
typedef struct {
    float *gates, *gh, *out;
    double *xs;
    i8 *xq;
    i32 *work;
} tile_io;

static i64 rows_layout(
    const plan_op *ops, i64 count, i64 batch, char *base, tile_io *io, tile_rows *halves)
{
    const i64 rows = (8 + batch - 1) / batch * batch, d = ops[0].n;
    const i64 width = ops[count - 1].kind == PLAN_OUTPUT ? ops[count - 1].rows : 0;
    i64 h = 0, work = 0, end = 0;
    for (i64 i = 0; i < count; i++) {
        if (ops[i].kind == PLAN_GRU && ops[i].n > h) h = ops[i].n;
        if (op_work(ops + i) > work) work = op_work(ops + i);
    }
    const i64 gates = carve(&end, rows * 3 * h * (i64)sizeof(float));
    const i64 gh = carve(&end, batch * 3 * h * (i64)sizeof(float));
    const i64 xs = carve(&end, rows * (i64)sizeof(double)), xq = carve(&end, rows * d);
    const i64 out = carve(&end, rows * width * (i64)sizeof(float));
    for (i64 i = 0; i < count; i++) {
        if (ops[i].kind != PLAN_GRU) continue;
        for (int k = 0; k < 2; k++) {
            const i64 scale = carve(&end, rows * (i64)sizeof(double));
            const i64 state = carve(&end, rows * ops[i].n * (i64)sizeof(float));
            const i64 code = carve(&end, rows * ops[i].n);
            if (base)
                *halves++ = (tile_rows){(float *)(base + state), (double *)(base + scale),
                                        (i8 *)(base + code)};
        }
    }
    const i64 scratch = carve(&end, 8 * work * (i64)sizeof(i32));
    if (base)
        *io = (tile_io){(float *)(base + gates), (float *)(base + gh), (float *)(base + out),
                        (double *)(base + xs), (i8 *)(base + xq), (i32 *)(base + scratch)};
    return end;
}

/* Where the second of a chunk's two runs lays its arena out: on the cache
 * line after the first's, which is laid out for its ceil(B / 2) rows (the
 * first half of a split chunk, or at B = 1 the wavefront's first stage). */
static i64 second_half(const plan_op *ops, i64 count, i64 batch)
{
    i64 end = rows_layout(ops, count, (batch + 1) / 2, NULL, NULL, NULL);
    return carve(&end, 0);
}

/* Bytes of arena repro_plan_i8_chunk takes for `batch` rows a step: room
 * for the whole batch's rows and for a chunk's two runs on two cores side
 * by side (a split chunk's two halves; at B = 1, the wavefront's two
 * stages, each laid out for the one row). */
API i64 repro_plan_i8_arena(const plan_op *ops, i64 count, i64 batch)
{
    const i64 whole = rows_layout(ops, count, batch, NULL, NULL, NULL);
    const i64 two = second_half(ops, count, batch) +
                    rows_layout(ops, count, batch < 2 ? 1 : batch / 2, NULL, NULL, NULL);
    return whole > two ? whole : two;
}

/* A count one thread raises and another waits to see reach a value: the
 * blocks a wavefront's first stage has made, the helper's chunks posted
 * and finished (count_wait). */
typedef struct {
    _Atomic uint32_t value, sleepers;
} count_t;

static void count_raise(count_t *c, uint32_t value);
static void count_wait(count_t *c, uint32_t want);

/* Rows [b0, b0 + nb) of a chunk of `batch` rows a step, through ops
 * [first, end): all the rows and ops; one half of a split chunk's rows; or,
 * at B = 1, one stage of a wavefront.  x, rows, the slabs, the logits and
 * the labels are the whole chunk's, read and written at those rows only;
 * `arena` is the run's own (rows_layout at nb), and `tile` its steps a
 * tile (0: ceil(8 / nb)).  A wavefront's second stage (first > 0) reads
 * its operand from the first stage's arena, `feed`, as the first stage
 * raises `made`.  `ticks`: the helper's phase counters, copied there as it
 * ends. */
typedef struct {
    const plan_op *ops;
    i64 count, steps, batch, b0, nb, stride;
    const double *const *x;
    const i64 *rows;
    float *const *slabs;
    float *logits;
    i64 *labels;
    char *arena;
    i64 first, end, tile;
    count_t *made;
    char *feed;
    uint64_t ticks[PH_COUNT];
} chunk_rows;

/* The first of the n floats of `row` that no other exceeds, or its first
 * NaN: numpy's argmax. */
static i64 first_max(const float *row, i64 n)
{
    i64 at = 0;
    for (i64 i = 1; i < n && row[at] == row[at]; i++)
        if (row[i] > row[at] || row[i] != row[i]) at = i;
    return at;
}

/* A tile's `span` steps of the run's rows, `width` floats each, from
 * `from` (span x nb rows) into the chunk's logits. */
static void put_rows(const chunk_rows *c, i64 t0, i64 span, i64 width, const float *from)
{
    for (i64 t = 0; t < span; t++)
        memcpy(c->logits + ((t0 + t) * c->batch + c->b0) * width, from + t * c->nb * width,
               (size_t)(c->nb * width) * sizeof(float));
}

/* The run's rows of the chunk, in tiles of `tile` steps: ceil(8 / nb), the
 * fewest whole steps that fill the product's 8-row block, or a wavefront's
 * block (WAVE_BLOCK); a tile runs every op of the run before the next tile
 * starts, so its gate rows, states and gh stay in cache.  A tile's frames
 * of x are quantized once, for the first projection; every hidden state
 * once, in the gate sweep that makes it (repro_gru_i8_chunk), for the
 * layer's next step and the next op; each carry in once, for tile 0, from
 * its slab row, and out once, to that row, after the last tile; each
 * frame's label as its tile's logits are done, from the tile's rows where
 * the chunk keeps no logits (staged in the arena, as a half's are).
 * A GRU's states go to its two halves `per` tiles a half (slot).  A
 * wavefront's first stage runs the ops up to the first GRU and raises
 * `made` after each block; its chunk is at most WAVE_STEPS steps, so that
 * GRU's two halves hold every block's states, codes and scales, and it
 * never waits for the second stage.  The second stage waits for each
 * block, runs the next projection on the block's codes, then the rest.
 * Every row is computed on its own, so the bytes of a row do not depend on
 * which rows share the run, nor on the tiles. */
/* Where tile k of a run (k >= 0) keeps a GRU's states, codes and scales
 * in its two halves `pair`: `per` tiles of `size` rows a half, the halves
 * taking turns every `per` tiles, so the tile a run writes is never the
 * one that holds the step before it (tile k - 1; the carry in is tile -1,
 * at 2 per - 1). */
static tile_rows slot(const tile_rows *pair, i64 k, i64 per, i64 size, i64 h)
{
    const tile_rows half = pair[k / per % 2];
    const i64 at = k % per * size;
    return (tile_rows){half.state + at * h, half.scale + at, half.code + at * h};
}

static void run_rows(const chunk_rows *c)
{
    const plan_op *ops = c->ops;
    const i64 count = c->count, steps = c->steps, batch = c->batch, b0 = c->b0, nb = c->nb;
    const i64 first = c->first, end = c->end, d = ops[0].n;
    const i64 tile = c->tile ? c->tile : (8 + nb - 1) / nb, size = tile * nb;
    const i64 per = (8 + nb - 1) / nb * nb / size;  /* tiles a half of a GRU's states holds */
    const i64 last = (tile - 1) * nb;  /* the first row of a whole tile's last step */
    i64 grus = 0, g0 = 0;  /* the plan's GRUs, and those before this run's ops */
    for (i64 i = 0; i < count; i++) {
        grus += ops[i].kind == PLAN_GRU;
        g0 += i < first && ops[i].kind == PLAN_GRU;
    }
    tile_io io;
    tile_rows halves[2 * grus], fed[2 * grus];
    rows_layout(ops, count, nb, c->arena, &io, halves);
    if (first) rows_layout(ops, count, nb, c->feed, &(tile_io){0}, fed);
    /* each carry in, where tile 0 reads the step before it */
    for (i64 i = first, g = g0; i < end; i++) {
        if (ops[i].kind != PLAN_GRU) continue;
        const i64 hg = ops[i].n;
        const tile_rows in = slot(halves + 2 * g, 2 * per - 1, per, size, hg);
        const float *slab = c->slabs[g++];
        float *state = in.state + last * hg;
        for (i64 b = 0; b < nb; b++)
            if (slab)
                memcpy(state + b * hg, slab + c->rows[b0 + b] * hg, (size_t)hg * sizeof(float));
            else
                memset(state + b * hg, 0, (size_t)hg * sizeof(float));
        TIC(quantize);
        for (i64 b = 0; b < nb; b++)
            in.scale[last + b] = bspc_quant_f32(hg, state + b * hg, in.code + (last + b) * hg);
        TOC(quantize, PH_QUANTIZE);
    }
    for (i64 t0 = 0, k = 0; t0 < steps; t0 += tile, k++) {
        const i64 span = steps - t0 < tile ? steps - t0 : tile, frames = span * nb;
        const i8 *q = io.xq;  /* the next op's operand: x's codes, then a layer's */
        const double *s = io.xs;
        if (first) {  /* the block the first stage made, in the slot it wrote */
            const tile_rows ready = slot(fed + 2 * (g0 - 1), k, per, size, ops[first].n);
            count_wait(c->made, (uint32_t)k + 1);
            q = ready.code;
            s = ready.scale;
        } else {
            TIC(quantize);
            for (i64 t = 0, r = 0; t < span; t++)
                for (i64 b = 0; b < nb; b++, r++)
                    io.xs[r] = bspc_quant_i8(d, c->x[b0 + b] + (t0 + t) * c->stride, io.xq + r * d);
            TOC(quantize, PH_QUANTIZE);
        }
        /* the tile's logits: frame (t0 + t, b0 + b) at row t * pitch + b */
        const float *tile_logits = NULL;
        i64 pitch = nb;
        for (i64 i = first, g = g0; i < end; i++) {
            const plan_op *op = ops + i;
            if (op->kind != PLAN_GRU) {
                /* a whole chunk's logits are its tiles' rows in order */
                float *out = op->kind != PLAN_OUTPUT         ? io.gates
                             : nb == batch && c->logits ? c->logits + t0 * batch * op->rows
                                                        : io.out;
                bspc_i8_coded(op, frames, q, s, op->bias, io.work, out);
                if (out == io.out && c->logits) put_rows(c, t0, span, op->rows, out);
                if (op->kind == PLAN_OUTPUT) {
                    tile_logits = out;
                    pitch = out == io.out ? nb : batch;
                }
                continue;
            }
            const i64 hg = op->n;
            const tile_rows was = slot(halves + 2 * g, k + 2 * per - 1, per, size, hg);
            const tile_rows now = slot(halves + 2 * g, k, per, size, hg);
            /* the step before the tile: the last of the tile before, or the carry */
            const tile_rows before = {was.state + last * hg, was.scale + last, was.code + last * hg};
            repro_gru_i8_chunk(op, nb, span, before, io.gates, now, io.gh, io.work);
            q = now.code;
            s = now.scale;
            if (t0 + span == steps)
                for (i64 b = 0; b < nb; b++)
                    memcpy(c->slabs[grus + g] + c->rows[b0 + b] * hg,
                           now.state + (frames - nb + b) * hg, (size_t)hg * sizeof(float));
            if (i == count - 1) {  /* no output op: the last layer's states are the logits */
                if (c->logits) put_rows(c, t0, span, hg, now.state);
                tile_logits = now.state;
            }
            g++;
        }
        if (end < count) {
            count_raise(c->made, (uint32_t)k + 1);
            continue;
        }
        if (!c->labels) continue;
        const i64 width = ops[count - 1].kind == PLAN_OUTPUT ? ops[count - 1].rows : ops[count - 1].n;
        for (i64 t = 0; t < span; t++)
            for (i64 b = 0; b < nb; b++)
                c->labels[(t0 + t) * batch + b0 + b] =
                    first_max(tile_logits + (t * pitch + b) * width, width);
    }
}

#define SPLIT_NS $SPLIT_NS  /* estimated work from which a chunk runs on two cores */
#define FRAME_NS_PER_CODE $FRAME_NS_PER_CODE
#define FRAME_NS_PER_ROW $FRAME_NS_PER_ROW
#define HELPER_IDLE_NS $HELPER_IDLE_NS  /* a helper parked this long without a chunk exits */
#define WAVE_BLOCK $WAVE_BLOCK  /* steps a block of a one-row chunk's wavefront */
/* the most steps of a wavefront: the first GRU's two halves, ceil(8 / 1)
 * rows each, hold them all */
#define WAVE_STEPS $WAVE_STEPS
_Static_assert(WAVE_STEPS <= 2 * 8 && 8 % WAVE_BLOCK == 0, "a wavefront outgrows its ring");
#define SPIN_NS 1000000  /* a wait spins this long before it sleeps */

/* Estimated ns one frame (a step of one batch row) takes the chunk's ops
 * on one core: per op FRAME_NS_PER_CODE for each of its panel's codes and
 * FRAME_NS_PER_ROW for each output row (quantize, gather, epilogue and
 * gates scale with these), as fitted to the measured program. */
API i64 repro_plan_i8_frame_ns(const plan_op *ops, i64 count)
{
    double ns = 0.0;
    for (i64 i = 0; i < count; i++)
        ns += FRAME_NS_PER_CODE * (double)(ops[i].strips * ops[i].mr * ops[i].mc) +
              FRAME_NS_PER_ROW * (double)ops[i].rows;
    return (i64)ns;
}

#ifdef __linux__
#include <errno.h>
#include <limits.h>
#include <linux/futex.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SPIN_PAUSE() _mm_pause()
#else
#define SPIN_PAUSE() __asm__ __volatile__("" ::: "memory")
#endif

static i64 now_ns(void)
{
    struct timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    return (i64)now.tv_sec * 1000000000 + now.tv_nsec;
}

static int reached(count_t *c, uint32_t want)
{
    return (int32_t)(atomic_load(&c->value) - want) >= 0;  /* counts wrap */
}

/* c's value is `value` from now on: a store that releases what came before
 * it, and a futex wake only where a waiter sleeps. */
static void count_raise(count_t *c, uint32_t value)
{
    atomic_store(&c->value, value);
    if (atomic_load(&c->sleepers))
        syscall(SYS_futex, &c->value, FUTEX_WAKE_PRIVATE, INT_MAX, NULL, NULL, 0);
}

/* Sleeps on c's futex until it reaches `want`, for at most `limit_ns` (0:
 * no limit); returns whether it did.  The sleeper count is raised before
 * the value is read again and count_raise stores before it reads that
 * count, both sequentially consistent: a raise either is seen here or
 * sees this sleeper and wakes it. */
static int count_sleep(count_t *c, uint32_t want, i64 limit_ns)
{
    const struct timespec limit = {limit_ns / 1000000000, limit_ns % 1000000000};
    for (;;) {
        atomic_fetch_add(&c->sleepers, 1);
        const uint32_t seen = atomic_load(&c->value);
        long slept = 0;
        if ((int32_t)(seen - want) < 0)
            slept = syscall(SYS_futex, &c->value, FUTEX_WAIT_PRIVATE, seen,
                            limit_ns ? &limit : NULL, NULL, 0);
        atomic_fetch_sub(&c->sleepers, 1);
        if (reached(c, want)) return 1;
        if (slept && errno == ETIMEDOUT) return 0;
    }
}

/* Waits until c reaches `want`: spins for SPIN_NS, yielding the CPU every
 * few microseconds to any thread waiting for it (a fabric worker's), then
 * sleeps, so a peer that lost its CPU for long costs this thread none.  A
 * hand-off within a chunk comes in microseconds, and a vCPU that sleeps
 * takes 10-200 us to wake. */
static void count_wait(count_t *c, uint32_t want)
{
    const i64 until = now_ns() + SPIN_NS;
    for (int round = 1; !reached(c, want); round++) {
        for (int i = 0; i < 32; i++) SPIN_PAUSE();
        if (round % 8 == 0) sched_yield();
        if (now_ns() > until) {
            count_sleep(c, want, 0);
            return;
        }
    }
}

/* The helper: one thread per process, which runs the second run of a
 * chunk on two cores — a split chunk's second half, or a wavefront's
 * second stage.  The first such chunk makes it; between chunks it sleeps
 * on `posted`, and after HELPER_IDLE_NS without a chunk it exits, so an
 * idle process is back to one thread.  `busy` is held by the caller whose
 * chunk it runs, taken with a trylock: a second caller meanwhile runs its
 * chunk on one core.  `life` orders a post against the helper's exit:
 * `alive`, `thread` and `cpu` change under it, and a chunk is posted under
 * it, so the helper exits only where it has seen every chunk posted.  A
 * forked child has no helper (helper_forget). */
static struct {
    pthread_mutex_t busy, life;
    pthread_t thread;
    int alive, cpu;
    chunk_rows *job;
    count_t posted, finished;
    _Atomic uint32_t taken;  /* the last chunk the helper or its caller took */
} helper = {.busy = PTHREAD_MUTEX_INITIALIZER, .life = PTHREAD_MUTEX_INITIALIZER};

/* Whether the caller of chunk `seq` (posted) or the helper takes its
 * second run: the first to try. */
static int take(uint32_t seq)
{
    uint32_t was = seq - 1;
    return atomic_compare_exchange_strong(&helper.taken, &was, seq);
}

static void *helper_main(void *arg)
{
    uint32_t done = (uint32_t)(uintptr_t)arg;  /* the chunks posted before it was made */
    for (;;) {
        if (!count_sleep(&helper.posted, done + 1, HELPER_IDLE_NS)) {
            pthread_mutex_lock(&helper.life);
            const int idle = !reached(&helper.posted, done + 1);
            if (idle) helper.alive = 0;
            pthread_mutex_unlock(&helper.life);
            if (idle) return NULL;
        }
        done = atomic_load(&helper.posted.value);
        if (!take(done)) continue;  /* its caller took it back */
        chunk_rows *job = helper.job;
#ifdef REPRO_PHASES
        memset(repro_phases, 0, sizeof repro_phases);
#endif
        TIC(chunk);
        run_rows(job);
        TOC(chunk, PH_CHUNK);
#ifdef REPRO_PHASES
        memcpy(job->ticks, repro_phases, sizeof repro_phases);
#endif
        count_raise(&helper.finished, done);
    }
}

/* In a child forked while the parent had a helper (or while a thread of
 * the parent held it): the child has only the forking thread, so no
 * helper, and both locks are free. */
static void helper_forget(void)
{
    pthread_mutex_init(&helper.busy, NULL);
    pthread_mutex_init(&helper.life, NULL);
    helper.alive = 0;
    atomic_store(&helper.posted.value, 0);
    atomic_store(&helper.posted.sleepers, 0);
    atomic_store(&helper.finished.value, 0);
    atomic_store(&helper.finished.sleepers, 0);
    atomic_store(&helper.taken, 0);
}

static pthread_once_t helper_once = PTHREAD_ONCE_INIT;

static void helper_at_fork(void)
{
    pthread_atfork(NULL, NULL, helper_forget);
}

/* Whether the helper is there (made, if it was not) and pinned to a CPU
 * of the caller's mask other than the one the caller is on: the next
 * after it, wrapping round, so callers on different CPUs (the fabric's
 * workers) pin theirs to different ones; unpinned, the scheduler may
 * queue it behind its caller.  A helper the caller has moved onto, or
 * whose CPU the mask no longer allows, is pinned anew.  Under `life`. */
static int helper_ready(void)
{
    cpu_set_t allowed, one;
    if (sched_getaffinity(0, sizeof allowed, &allowed)) return 0;
    const int here = sched_getcpu(), from = here < 0 ? 0 : here;
    if (helper.alive && helper.cpu != here && CPU_ISSET(helper.cpu, &allowed)) return 1;
    int cpu = -1;
    for (int i = 1; i <= CPU_SETSIZE && cpu < 0; i++) {
        const int next = (from + i) % CPU_SETSIZE;
        if (next != here && CPU_ISSET(next, &allowed)) cpu = next;
    }
    if (cpu < 0) return 0;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (helper.alive) {
        if (pthread_setaffinity_np(helper.thread, sizeof one, &one)) return 0;
    } else {
        pthread_attr_t attr;
        if (pthread_attr_init(&attr)) return 0;
        sigset_t all, was;  /* made with every signal blocked: they go to Python's threads */
        sigfillset(&all);
        pthread_sigmask(SIG_SETMASK, &all, &was);
        helper.alive = !pthread_attr_setaffinity_np(&attr, sizeof one, &one) &&
                       !pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED) &&
                       !pthread_create(&helper.thread, &attr, helper_main,
                                       (void *)(uintptr_t)atomic_load(&helper.posted.value));
        pthread_sigmask(SIG_SETMASK, &was, NULL);
        pthread_attr_destroy(&attr);
        if (!helper.alive) return 0;
    }
    helper.cpu = cpu;
    return 1;
}

/* Hands `job` to the helper as chunk *seq: 0 where another caller has
 * it, the mask allows no other CPU, or it could not be made or pinned —
 * the chunk then runs on one core.  Else helper_join, after the caller's
 * own run. */
static int helper_start(chunk_rows *job, uint32_t *seq)
{
    pthread_once(&helper_once, helper_at_fork);
    if (pthread_mutex_trylock(&helper.busy)) return 0;
    pthread_mutex_lock(&helper.life);
    const int ready = helper_ready();
    if (ready) {
        helper.job = job;
        *seq = atomic_load(&helper.posted.value) + 1;
        count_raise(&helper.posted, *seq);
    }
    pthread_mutex_unlock(&helper.life);
    if (!ready) pthread_mutex_unlock(&helper.busy);
    return ready;
}

/* Once the caller's own run is done: returns 1 once the helper has run
 * chunk `seq`'s job, or 0 where the helper has not taken it yet — the
 * caller takes it back and runs it itself, so a helper whose CPU the host
 * has not given it costs the chunk no wait.  Lets the helper go. */
static int helper_join(uint32_t seq)
{
    const int theirs = !take(seq);
    if (theirs) count_wait(&helper.finished, seq);
    pthread_mutex_unlock(&helper.busy);
    return theirs;
}
#else
static void count_raise(count_t *c, uint32_t value) { (void)c, (void)value; }
static void count_wait(count_t *c, uint32_t want) { (void)c, (void)want; }
#endif

/* One chunk of a whole plan: T steps of B rows through the ops — per layer
 * a PLAN_PROJECT and a PLAN_GRU, then at most one PLAN_OUTPUT — into the
 * float32 logits (T, B, the last op's width) — unless `logits` is NULL —
 * and, unless `labels` is NULL, each frame's label (T, B): the first maximum
 * of its logits.  Batch row b
 * reads its frame t, ops[0].n doubles, at x[b] + t * stride, and its
 * carries from row rows[b] of float32 (capacity, H) slabs: `slabs` holds,
 * GRU by GRU, the slabs the states in are read from (NULL: zeros), then
 * the slabs the states out are written to — the same ones, for a carry
 * updated in place, as rows are distinct.  `arena` is
 * repro_plan_i8_arena(ops, count, B) bytes.  B > 0, T > 0.  A chunk whose
 * estimated work (repro_plan_i8_frame_ns x T x B) reaches SPLIT_NS runs on
 * two cores, its second run handed to the helper (helper_start), with an
 * arena layout of its own, and joined before the call returns: at B >= 2
 * rows [0, ceil(B / 2)) here and the others there; at B = 1, for a plan of
 * two or more layers and more than one block (WAVE_BLOCK) but at most
 * WAVE_STEPS steps, as a wavefront — the first layer here, block by block,
 * and the rest there, a block behind.  A second run the helper has not taken by the time this one is
 * done is taken back and run here.  With one CPU allowed, where the helper
 * is busy or cannot be made, and off Linux the chunk runs here whole.  The
 * bytes are the same either way.  Returns how many threads the chunk was
 * laid out for: 2 where its second run was handed to the helper, else 1. */
API i64 repro_plan_i8_chunk(
    const plan_op *ops, i64 count, i64 steps, i64 batch, const double *const *x, i64 stride,
    const i64 *rows, float *const *slabs, float *logits, i64 *labels, char *arena)
{
    TIC(chunk);
    /* one row runs in the arena's second layout, the wavefront's helper in
     * its first: the scratch of a run on one core still ends the arena */
    char *own = batch == 1 ? arena + second_half(ops, count, 1) : arena;
    chunk_rows mine = {ops, count, steps, batch, 0, batch, stride, x, rows, slabs, logits,
                       labels, own, 0, count, 0, NULL, NULL, {0}};
    i64 threads = 1;
#ifdef __linux__
    chunk_rows theirs = mine;
    count_t made = {0};
    uint32_t seq = 0;
    if (steps * batch * repro_plan_i8_frame_ns(ops, count) >= SPLIT_NS &&
        (batch > 1 || (count >= 4 && steps > WAVE_BLOCK && steps <= WAVE_STEPS))) {
        if (batch > 1) {
            theirs.arena = arena + second_half(ops, count, batch);
            theirs.b0 = (batch + 1) / 2;
            theirs.nb = batch - theirs.b0;
        } else {  /* here ops [0, 2), the first projection and GRU */
            theirs.arena = arena;
            theirs.first = 2;
            theirs.tile = WAVE_BLOCK;
            theirs.made = &made;
            theirs.feed = own;
        }
        if (helper_start(&theirs, &seq)) {
            mine.nb -= theirs.nb * (batch > 1);
            mine.end = theirs.first ? theirs.first : count;
            mine.tile = theirs.tile;
            mine.made = theirs.made;
            threads = 2;
        }
    }
#endif
    run_rows(&mine);
#ifdef __linux__
    if (threads == 2 && !helper_join(seq)) run_rows(&theirs);
#ifdef REPRO_PHASES
    for (int i = 0; i < PH_COUNT; i++) repro_phases[i] += theirs.ticks[i];
#endif
#endif
    TOC(chunk, PH_CHUNK);
    return threads;
}
"""


def _expand8() -> str:
    """``expand8`` of the C source: per 8-bit keep mask, the lane a masked
    load left each kept row's sum in (how many kept rows are below it),
    7 for a pruned row."""
    def lanes(keep: int) -> str:
        return ",".join(
            str(bin(keep & ((1 << i) - 1)).count("1") if keep >> i & 1 else 7)
            for i in range(8)
        )

    return ",".join("{%s}" % lanes(keep) for keep in range(256))


def _exp_defines() -> str:
    """The constants of :func:`repro.kernels._math.exp32` as C defines of
    the very same float32 values (hex literals: no decimal rounding)."""
    names = ("EXP_LO", "EXP_HI", "LOG2E", "ROUND", "C1", "C2", "C3", "C4", "C5")
    return "\n".join(f"#define {name} {float(getattr(_math, name)).hex()}f" for name in names)


_C_SOURCE = (
    _C_COMMON.replace("$ACC_CHUNK", str(ACC_CHUNK))
    + _C_BSPC_NARROW.replace("$LANES_PAD", str(LANES_PAD)).replace("$WINDOW", str(WINDOW))
    + _C_GRU_F64
    + _C_GRU_CHUNK.replace("$EXPAND8", _expand8())
    .replace("$EXP_DEFINES", _exp_defines())
    .replace("$SPLIT_NS", str(SPLIT_NS))
    .replace("$FRAME_NS_PER_CODE", repr(FRAME_NS_PER_CODE))
    .replace("$FRAME_NS_PER_ROW", repr(FRAME_NS_PER_ROW))
    .replace("$HELPER_IDLE_NS", str(HELPER_IDLE_NS))
    .replace("$WAVE_BLOCK", str(WAVE_BLOCK))
    .replace("$WAVE_STEPS", str(WAVE_STEPS))
)


# ---------------------------------------------------------------------------
# Build + cache machinery
# ---------------------------------------------------------------------------
_LIB: Optional[ctypes.CDLL] = None
_LOAD_ERROR: Optional[CompileBackendError] = None


def compiler_command() -> str:
    """The C compiler to use: ``$REPRO_CC``, else ``cc``, else ``gcc``."""
    explicit = os.environ.get("REPRO_CC")
    if explicit:
        return explicit
    for candidate in ("cc", "gcc"):
        found = shutil.which(candidate)
        if found:
            return found
    raise CompileBackendError(
        "no C compiler found (set REPRO_CC, or install cc/gcc); "
        "int8 plans run the generic loop"
    )


def cache_dir() -> Path:
    """On-disk ``.so`` cache: ``$REPRO_COMPILED_CACHE`` or a default."""
    explicit = os.environ.get("REPRO_COMPILED_CACHE")
    if explicit:
        return Path(explicit)
    try:
        return Path.home() / ".cache" / "repro" / "compiled"
    except RuntimeError:  # no resolvable home directory
        return Path(tempfile.gettempdir()) / f"repro-compiled-{os.getuid()}"


def _host_isa() -> str:
    """What ``-march=native`` resolves against on this host: the first
    CPU's feature-flag line of ``/proc/cpuinfo`` (read up to that line
    only), the machine type where there is no such file."""
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith(("flags", "Features")):
                    return line
    except OSError:
        pass
    return platform.machine()


def _source_key(cc: str, flags: Tuple[str, ...]) -> str:
    """A ``-march=native`` build also keys on the CPU it was made for: run
    from a cache another host filled, its instructions may not exist here."""
    isa = _host_isa() if "-march=native" in flags else ""
    digest = hashlib.sha256()
    digest.update(f"abi={_ABI_VERSION};cc={cc};flags={' '.join(flags)};{isa}".encode())
    digest.update(_C_SOURCE.encode())
    return digest.hexdigest()[:16]


def _compile(cc: str, src_path: Path, out_path: Path, flags: Tuple[str, ...]) -> None:
    cmd = [cc, *flags, "-o", str(out_path), str(src_path), "-lm"]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise CompileBackendError(
            f"could not run C compiler {cc!r}: {exc}"
        ) from exc
    if proc.returncode != 0:
        stderr = proc.stderr.decode(errors="replace").strip()
        raise CompileBackendError(
            f"C kernel build failed ({cc} exited {proc.returncode}):\n"
            + stderr[-2000:]
        )


def build_library(
    cc: Optional[str] = None, cache: Optional[Path] = None, phases: bool = False
) -> ctypes.CDLL:
    """Build (or reuse) the kernel ``.so`` and return the loaded library.

    The output lives in the cache directory under a content-hash name, so
    an unchanged source + compiler + flags combination never recompiles —
    across processes as well as within one.  ``phases`` builds the phase
    tick counters in (``-DREPRO_PHASES``, a cache key of its own; see
    :func:`phase_ticks`); the library a process loads by itself has none.
    Raises :class:`CompileBackendError` on any failure.
    """
    cc = cc or compiler_command()
    cache = Path(cache) if cache is not None else cache_dir()
    base_flags = ("-O3", "-shared", "-fPIC", "-fvisibility=hidden")
    base_flags += ("-DREPRO_PHASES",) if phases else ()
    for flags in (("-march=native",) + base_flags, base_flags):
        key = _source_key(cc, flags)
        so_path = cache / f"repro_kernels_{key}.so"
        if so_path.exists():
            return _load_and_probe(so_path)
        try:
            cache.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CompileBackendError(
                f"cannot create compiled-kernel cache dir {cache}: {exc}"
            ) from exc
        src_path = cache / f"repro_kernels_{key}.c"
        tmp_so = cache / f".repro_kernels_{key}.{os.getpid()}.so.tmp"
        try:
            src_path.write_text(_C_SOURCE)
            _compile(cc, src_path, tmp_so, flags)
        except CompileBackendError:
            tmp_so.unlink(missing_ok=True)
            if flags != base_flags:
                continue  # retry without -march=native
            raise
        os.replace(tmp_so, so_path)  # atomic under concurrent builders
        return _load_and_probe(so_path)
    raise CompileBackendError("C kernel build failed")  # pragma: no cover


def _load_and_probe(so_path: Path) -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(str(so_path))
        _declare(lib)
    except OSError as exc:
        raise CompileBackendError(
            f"could not load compiled kernels from {so_path}: {exc}"
        ) from exc
    _sanity_probe(lib)
    return lib


def _declare(lib: ctypes.CDLL) -> None:
    """Declare restype/argtypes (sizes int64, everything else raw pointers)."""
    i64 = ctypes.c_longlong
    ptr = ctypes.c_void_p
    signatures = {
        "repro_i8_lanes": (),
        "repro_i8_kgroup": (),
        "repro_i8_pack": (i64, i64, i64, i64, ptr, ptr, ptr),
        "repro_phase_ticks": (ptr,),
        "repro_bspc_i8_rows": (ptr, i64, ptr, ptr, ptr, ptr),
        "repro_plan_i8_arena": (ptr, i64, i64),
        "repro_plan_i8_frame_ns": (ptr, i64),
        "repro_plan_i8_chunk": (ptr, i64, i64, i64, ptr, i64, ptr, ptr, ptr, ptr, ptr),
        "repro_gru_f64_forward": (i64, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr),
        "repro_gru_f64_backward": (i64, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr),
    }
    try:
        for name, argtypes in signatures.items():
            fn = getattr(lib, name)
            fn.restype = None
            fn.argtypes = argtypes
        for query in (
            lib.repro_i8_lanes, lib.repro_i8_kgroup, lib.repro_i8_pack,
            lib.repro_phase_ticks, lib.repro_plan_i8_arena, lib.repro_plan_i8_frame_ns,
            lib.repro_plan_i8_chunk,
        ):
            query.restype = i64
    except AttributeError as exc:
        raise CompileBackendError(
            f"compiled kernel library is missing symbol: {exc}"
        ) from exc


def _sanity_probe(lib: ctypes.CDLL) -> None:
    """One small int8 panel product (packed for this library, at one and
    two columns) through the library; a stale or miscompiled ``.so`` fails
    here instead of corrupting results downstream."""

    def check(got: np.ndarray, want: np.ndarray) -> None:
        if not np.array_equal(got, want):
            wrong = np.flatnonzero(got.ravel() != want.ravel())[:4]
            raise CompileBackendError(
                f"compiled kernel sanity probe produced {got.ravel()[wrong].tolist()} "
                f"at {wrong.tolist()} of {got.shape}, expected "
                f"{want.ravel()[wrong].tolist()}; refusing to load the library"
            )

    # 70 x 7: row groups that four does not divide, a short last k-group;
    # each activation row peaks at 127, so its scale is 1 and its codes itself
    rows, n = 70, 7
    codes = (np.arange(rows * n).reshape(rows, n) * 37 % 255 - 127).astype(np.int8)
    x = np.arange(2.0 * n).reshape(2, n) * 53 % 255 - 127
    x[:, 0] = 127.0
    gather, scatter = (np.arange(size, dtype=np.int64)[None] for size in (n, rows))
    panel = _Panel(codes.shape, codes[None], gather, scatter, 1.0, lib=lib)
    for batch in (1, 2):
        check(product(panel, x[:batch]), (x[:batch] @ codes.T.astype(np.float64)).astype(np.float32))


def _library() -> ctypes.CDLL:
    """The per-process library handle; builds on first use, errors once."""
    global _LIB, _LOAD_ERROR
    if _LIB is not None:
        return _LIB
    if _LOAD_ERROR is not None:
        raise _LOAD_ERROR
    try:
        _LIB = build_library()
    except CompileBackendError as exc:
        _LOAD_ERROR = exc
        raise
    return _LIB


def available() -> bool:
    """Whether the library can be (or has been) built and loaded: the
    first call builds or loads it, and records a failure once."""
    try:
        _library()
    except CompileBackendError:
        return False
    return True


def lanes() -> int:
    """Rows per register of the rows-in-lanes int8 kernel in the loaded
    library: 16 (AVX-512BW), 8 (AVX2), or 0 where the build has none (or
    there is no library).  A fact of the build, not a setting."""
    return _library().repro_i8_lanes() if available() else 0


def kgroup() -> int:
    """Kept columns per multiply-add of that kernel, which is how many
    codes of a row its packed panel keeps side by side: 4 (AVX-512 VNNI),
    2 (any other build with :func:`lanes`), or 0 where that is 0."""
    return _library().repro_i8_kgroup() if available() else 0


#: The phase counters of a ``build_library(phases=True)`` library, in the
#: order C keeps them: the quantize of every int8 product's operand (the
#: hidden states' too, in the gate sweep that makes them), code gather,
#: integer MAC and output epilogue (dequant + bias; the register block's
#: zeroing too), the GRU gate sweep, and the whole ``repro_plan_i8_chunk``
#: call.
PHASES = ("quantize", "gather", "mac", "epilogue", "gates", "chunk")


def phase_ticks() -> Optional[dict]:
    """Ticks (the time-stamp counter on x86, ns elsewhere) each of
    :data:`PHASES` took in the loaded library since the last read, which
    clears them; ``None`` for a build without counters.  The first five
    nest inside ``chunk`` without overlapping."""
    ticks = (ctypes.c_uint64 * len(PHASES))()
    if not _library().repro_phase_ticks(ticks):
        return None
    return dict(zip(PHASES, ticks))


def load_error() -> Optional[CompileBackendError]:
    """The recorded build/load failure, if the library is unavailable
    (``None`` too before anything asked for it)."""
    return _LOAD_ERROR


def _reset_for_tests() -> None:
    """Forget the cached handle/error so tests can re-probe the build."""
    global _LIB, _LOAD_ERROR
    _LIB = None
    _LOAD_ERROR = None


# ---------------------------------------------------------------------------
# ctypes helpers
# ---------------------------------------------------------------------------
def _p(array: np.ndarray) -> int:
    """``array``'s data address: through the buffer protocol where the
    array is writable and C-contiguous (a quarter of ``.ctypes.data``'s
    cost, which builds an object per call), else ``.ctypes.data``."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError):  # read-only, strided or empty
        return array.ctypes.data


def _f64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64)


def _f32(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float32)


def _i8(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.int8)


def _aligned(size: int) -> np.ndarray:
    """``size`` uninitialised bytes that start on a cache line.  numpy
    aligns to 16 bytes, and from there every 64-byte vector load of the
    rows-in-lanes kernel straddles two lines, at twice the cost."""
    raw = np.empty(size + 64, dtype=np.uint8)
    start = -_p(raw) % 64
    return raw[start : start + size]


#: Reused buffers per Python thread, each grown on demand: ``work``, the
#: scratch of :func:`product`, and ``arena``, a program
#: chunk's (:meth:`PlanProgram.run`).  ctypes calls release the GIL, so two
#: threads can be inside a kernel at once, each on its own buffers; a chunk
#: that runs on two cores is still one call, both its runs in that
#: thread's arena.  Fresh `np.empty` calls above numpy's mmap threshold page-fault
#: on every touch, which costs more than the kernels themselves at bench
#: sizes.
_SCRATCH = threading.local()


def _buffer(name: str, size: int) -> int:
    """Address of this thread's ``name`` buffer of >= ``size`` bytes, held
    as ``_SCRATCH.<name> = (array, address)``."""
    held = getattr(_SCRATCH, name, None)
    if held is None or held[0].size < size:
        array = _aligned(size)
        held = (array, _p(array))
        setattr(_SCRATCH, name, held)
    return held[1]


def _scratch(size: int) -> int:
    """Address of this thread's work buffer of >= ``size`` int32."""
    return _buffer("work", 4 * size)


PLAN_PROJECT, PLAN_GRU, PLAN_OUTPUT = range(3)


class _PlanOp(ctypes.Structure):
    """``plan_op`` of the C source, field for field."""

    _fields_ = (
        [(name, ctypes.c_longlong) for name in ("kind", "strips", "mr", "mc", "rows", "n")]
        + [(name, ctypes.c_void_p) for name in ("codes", "gcols", "srows", "lanes", "layout")]
        + [("scale", ctypes.c_double), ("bias", ctypes.c_void_p)]
    )


class _Panel:
    """One int8 weight as the C product reads it: ``op``, a ``plan_op``
    record of its sizes, scale and the addresses of its codes, gather
    columns and scatter rows, built once (`ndarray.ctypes.data` costs over
    a microsecond a time — more than quantizing a B=1 activation), and
    ``at``, the record's own address.  Where the library (``lib``: the
    loaded one) has the rows-in-lanes kernel and the weight suits it, the
    codes are packed a second time as that kernel reads them — by the
    library, ``repro_i8_pack``: the layout is its own — next to where its
    sums go: each strip's first sum comes right after the kept rows of the
    strips before it, and per :data:`WINDOW` output rows one
    ``offset << 16 | mask`` says which of them are kept and where the
    first kept one's sum sits.  Where the library gathers by byte permutes
    (AVX-512 VBMI beside VNNI), the selectors of each strip's gather live in
    that pack too, right after the strip's codes — per 64 kept columns each
    column's low 7 bits and 128-byte operand block, and the first and last
    block they touch — built from ``gather_cols`` and the operand width
    ``shape[1]`` by the same call: Python neither sees nor sizes them.
    ``lib`` is kept: the panel's products run on the library that packed it.
    The scatter rows' kept entries (those below ``shape[0]``) must
    increase strip after strip — what a
    ``BSPCMatrix`` guarantees, and a dense weight's identity — so that
    compact order is output-row order.  ``acc`` is the int32 sums that
    kernel keeps per column of the product (0: not packed), ``lda`` the
    int32 of scratch a column takes (``bspc_lda`` of the C): those sums,
    or a double per output row, which the register block accumulates
    into.  The panel holds every array its addresses point into."""

    def __init__(
        self, shape, codes, gather_cols, scatter_rows, scale,
        lib: Optional[ctypes.CDLL] = None,
    ) -> None:
        codes = _i8(codes)  # C reads them by address, twice over
        gather_cols = np.ascontiguousarray(gather_cols, dtype=np.int64)  # ... and these
        strips, mr, mc = self.sizes = codes.shape
        self.shape, self.scale, self.acc = shape, scale, 0
        lib = self.lib = _library() if lib is None else lib
        packed = layout = None
        size = lib.repro_i8_pack(strips, mr, mc, shape[1], None, None, None)
        if size:
            packed = _aligned(size)
            lib.repro_i8_pack(strips, mr, mc, shape[1], _p(codes), _p(gather_cols), _p(packed))
            rows = shape[0]
            kept = scatter_rows < rows
            counts = kept.sum(axis=1)
            starts = np.cumsum(counts) - counts
            real = scatter_rows[kept]  # strip by strip: compact order
            bits = np.zeros(-(-rows // WINDOW) * WINDOW, dtype=np.int64)
            bits[real] = 1
            masks = bits.reshape(-1, WINDOW) @ (1 << np.arange(WINDOW))
            offsets = np.searchsorted(real, np.arange(0, rows, WINDOW))
            layout = np.concatenate([starts, offsets << 16 | masks]).astype(np.int64)
            self.acc = int(starts[-1]) + -(-mr // LANES_PAD) * LANES_PAD
        self.lda = self.acc or 2 * shape[0]
        self._held = (codes, gather_cols, scatter_rows, packed, layout)
        addresses = (None if a is None else _p(a) for a in self._held)
        self.op = _PlanOp(PLAN_PROJECT, strips, mr, mc, *shape, *addresses, scale, None)
        self.at = ctypes.addressof(self.op)


#: id(int8 plan) → its :class:`_Panel`, dropped when the plan dies (an
#: invalidated matrix gets a fresh plan object, and with it a fresh panel).
_PANELS: dict = {}


def _plan_panel(plan) -> _Panel:
    held = _PANELS.get(id(plan))
    if held is None:
        base = plan.base
        fresh = _Panel(
            base.shape, plan.codes, base.gather_cols, base.scatter_rows, plan.scale
        )
        # the first of two racing threads wins: a replaced panel would free
        # the packed arrays its thread is about to hand to C
        held = _PANELS.setdefault(id(plan), fresh)
        if held is fresh:
            weakref.finalize(plan, _PANELS.pop, id(plan), None)
    return held


def dense_int8_panel(codes: np.ndarray, scale: float) -> _Panel:
    """A dense ``(M, K)`` int8 weight (int8 codes, or a float copy of the
    same integers) as the one-strip panel it is: every row and column
    kept, identity gather and scatter.  The codes are copied — the panel
    is frozen here — and owned by whoever holds the result."""
    if np.ndim(codes) != 2:
        raise ShapeError(f"dense int8 codes must be (M, K), got {np.shape(codes)}")
    codes = np.array(codes, dtype=np.int8, order="C")[None]
    rows, cols = (np.arange(n, dtype=np.int64)[None] for n in codes.shape[1:])
    return _Panel(codes.shape[1:], codes, cols, rows, scale)


# ---------------------------------------------------------------------------
# The panel product by itself
# ---------------------------------------------------------------------------
def _narrow_call(panel: _Panel, n: int, batch: int) -> int:
    """This thread's scratch for ``repro_bspc_i8_rows`` on ``batch`` rows of
    an ``n``-wide operand (in int32 units: the product's sums, the
    gathered codes — int16 at their widest — and the operand's int8
    codes).  The entry quantizes eight rows at a time, keeping their scales
    on its stack: ``batch`` is a block's, ``min(rows, 8)``."""
    if n != panel.shape[1]:  # the C indexes the operand by stored column unchecked
        raise ShapeError(f"operand has {n} columns, matrix has {panel.shape[1]}")
    if batch > 8:
        raise ShapeError(f"the narrow kernel takes at most 8 columns, got {batch}")
    mc = panel.sizes[2]
    return _scratch(batch * (panel.lda + (mc + 1) // 2) + (batch * n + 3) // 4)


def _check_buffers(*arrays: np.ndarray, dtype=np.float32) -> None:
    """C reads and writes these through raw pointers."""
    for array in arrays:
        if array.dtype != dtype or not array.flags.c_contiguous:
            raise ShapeError(
                f"need C-contiguous {np.dtype(dtype)}, got {array.dtype} {array.strides}"
            )


def product(
    weight, x: np.ndarray, bias: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``x @ W.T`` (``+ bias``, unless ``None``) by ``repro_bspc_i8_rows``,
    the product each op of a :class:`PlanProgram` runs, by itself: ``x (N,
    n)`` activations in any memory order, each row quantized on its own to
    the codes and scale of :func:`~repro.kernels.quantized.int8_codes_axis`,
    into float32 ``(N, rows)`` — ``out`` (C-contiguous float32) where given,
    else a fresh array.  ``weight`` is a BSPC matrix (its cached int8 plan's
    panel) or a :func:`dense_int8_panel`.  No op of the generic loop: the
    bytes of numpy's and the oracle's ``linear_int8_rowwise`` of ``x`` and
    ``bspc_spmm_int8`` of ``x.T`` (transposed), then ``+ bias`` in float32."""
    panel = weight if isinstance(weight, _Panel) else _plan_panel(int8_bspc_plan(weight))
    rows = panel.shape[0]
    x = np.asarray(x)
    if out is None:
        out = np.empty((len(x) if x.ndim == 2 else 0, rows), dtype=np.float32)
    given = () if bias is None else (bias,)
    if x.ndim != 2 or out.shape != (len(x), rows) or any(b.shape != (rows,) for b in given):
        shapes = [a.shape for a in (x, out, *given)]
        raise ShapeError(f"product onto {rows} rows of {shapes}")
    _check_buffers(out, *given)
    work = _narrow_call(panel, x.shape[1], min(len(x), 8))
    x = _f64(x)
    panel.lib.repro_bspc_i8_rows(
        panel.at, len(x), _p(x), None if bias is None else _p(bias), work, _p(out)
    )
    return out


def gru_f64_forward(
    batch_sizes: np.ndarray, gates_x: np.ndarray, w_hh: np.ndarray, b_hh_h: np.ndarray,
    hs: np.ndarray, stash: np.ndarray,
) -> None:
    """The forward loop of the fused GRU training step
    (``repro_gru_f64_forward``) over a packed batch: ``batch_sizes (T,)``
    the live rows of each step (:mod:`repro.kernels.packed`), ``gates_x (N, 3H)``
    the hoisted input projection with the z/r recurrent biases folded in,
    ``w_hh (3H, H)``, ``b_hh_h`` the candidate's recurrent bias.  Fills,
    both C-contiguous float64, ``hs (B + N, H)`` after the ``h0`` its first
    ``B`` rows hold with every frame's state, and ``stash (N, 4H)`` with
    each frame's ``z``, ``r``, ``h̃`` and ``U_h h + b_hh_h``."""
    frames, hidden = len(stash), hs.shape[-1]
    batch = len(hs) - frames
    if hs.ndim != 2 or (gates_x.shape, w_hh.shape, b_hh_h.shape, stash.shape) != (
        (frames, 3 * hidden), (3 * hidden, hidden), (hidden,), (frames, 4 * hidden)
    ):
        shapes = [a.shape for a in (gates_x, w_hh, b_hh_h, stash)]
        raise ShapeError(f"GRU step of {hs.shape} states onto {shapes}")
    sizes = packed.steps(batch_sizes, frames, batch)
    _check_buffers(hs, stash, dtype=np.float64)
    gates_x, w_hh_t, b_hh_h = _f64(gates_x), _f64(w_hh.T), _f64(b_hh_h)
    _library().repro_gru_f64_forward(
        len(sizes), batch, hidden, _p(sizes), _p(gates_x), _p(w_hh_t), _p(b_hh_h), _p(hs),
        _p(stash),
    )


def gru_f64_backward(
    batch_sizes: np.ndarray, grad_out: np.ndarray, w_hh: np.ndarray, hs: np.ndarray,
    stash: np.ndarray, carry: np.ndarray, gates: np.ndarray,
) -> None:
    """The BPTT loop over :func:`gru_f64_forward`'s ``hs`` and stash
    (``repro_gru_f64_backward``): ``grad_out (N, H)``; ``carry (B, H)``
    holds the gradient of each row's last state and ends as that of
    ``h0``; ``gates (N, 4H)`` gets the gate gradients, slots ``[h_in | z |
    r | h_rec]`` — carry and gates C-contiguous float64."""
    frames, hidden = len(grad_out), grad_out.shape[-1]
    batch = len(carry)
    if grad_out.ndim != 2 or (w_hh.shape, hs.shape, stash.shape, carry.shape, gates.shape) != (
        (3 * hidden, hidden), (batch + frames, hidden), (frames, 4 * hidden),
        (batch, hidden), (frames, 4 * hidden),
    ):
        shapes = [a.shape for a in (w_hh, hs, stash, carry, gates)]
        raise ShapeError(f"BPTT of {grad_out.shape} gradients onto {shapes}")
    sizes = packed.steps(batch_sizes, frames, batch)
    _check_buffers(hs, stash, carry, gates, dtype=np.float64)
    grad_out, w_hh = _f64(grad_out), _f64(w_hh)
    _library().repro_gru_f64_backward(
        len(sizes), batch, hidden, _p(sizes), _p(grad_out), _p(w_hh), _p(hs), _p(stash),
        _p(gates), _p(carry),
    )


class PlanProgram:
    """An all-int8 GRU plan as ``repro_plan_i8_chunk`` runs it: one C call
    per chunk.

    ``ops`` lists ``(kind, weight, bias)`` in execution order — per layer
    a ``PLAN_PROJECT`` (folded bias) and a ``PLAN_GRU`` (candidate-gate
    bias), then at most one ``PLAN_OUTPUT`` (bias or ``None``) — ``weight``
    a BSPC matrix or a :func:`dense_int8_panel`, biases C-contiguous
    float32.  The descriptor is one :class:`_PlanOp` per op, independent of
    the chunk's shape; the program holds every array it points into and
    the int8 plan each BSPC weight had, so :meth:`stale` sees a plan
    invalidated since.  Ops in another order, or a chain of widths that
    does not fit, is a :class:`ShapeError` here: the C side checks nothing.
    """

    def __init__(self, ops) -> None:
        self._lib = _library()
        kinds = [kind for kind, _, _ in ops]
        layers = len(kinds) // 2
        if not layers or kinds != [PLAN_PROJECT, PLAN_GRU] * layers + [PLAN_OUTPUT] * (
            len(kinds) % 2
        ):
            raise ShapeError(f"ops must be (project, gru) per layer, then an output: {kinds}")
        self._plans, self._held, records = [], [], []
        self.hidden = []  # H of each GRU, in order
        width = 0
        for kind, weight, bias in ops:
            panel = weight
            if not isinstance(weight, _Panel):
                plan = int8_bspc_plan(weight)
                self._plans.append((weight, plan))
                panel = _plan_panel(plan)
            rows, n = panel.shape
            given = () if bias is None else (bias,)
            _check_buffers(*given)
            if kind == PLAN_GRU:
                fits = rows == width == 3 * n and bias.shape == (n,)
                self.hidden.append(n)
            else:
                fits = width in (0, n) and all(b.shape == (rows,) for b in given)
            if not fits:
                raise ShapeError(f"op {len(records)} is {panel.shape} after {width} wide rows")
            width = n if kind == PLAN_GRU else rows
            record = _PlanOp.from_buffer_copy(panel.op)
            record.kind, record.bias = kind, None if bias is None else _p(bias)
            records.append(record)
            self._held.append((panel, bias))
        self._ops = (_PlanOp * len(records))(*records)
        self.width = width  # of a row of logits
        self._arena_sizes: dict = {}

    def arena_size(self, batch: int) -> int:
        """Bytes of arena ``repro_plan_i8_chunk`` takes for a chunk of
        ``batch`` rows a step — the C lays it out, and says how much
        (``repro_plan_i8_arena``): the tiles' buffers and product scratch,
        for the whole batch and for a chunk's two runs on two cores side by
        side (a split's halves, a one-row wavefront's stages).  Not a
        function of ``T``."""
        size = self._arena_sizes.get(batch)
        if size is None:
            size = self._lib.repro_plan_i8_arena(self._ops, len(self._ops), batch)
            self._arena_sizes[batch] = size
        return size

    def stale(self) -> bool:
        """Whether a BSPC weight's cached int8 plan is no longer the one
        this program was lowered from."""
        return any(int8_bspc_plan(matrix) is not plan for matrix, plan in self._plans)

    def _chunk(self, xs, stride, steps, rows, ins, outs, logits, labels) -> None:
        """``repro_plan_i8_chunk`` on one chunk of ``steps`` frames in each
        of ``B = len(rows)`` batch rows, all given by address: row ``b``
        reads its frame ``t`` (float64, ``D`` wide) at ``xs[b] + 8 * t *
        stride``, its carries from row ``rows[b]`` of the GRUs' float32
        ``(capacity, H)`` slabs at ``ins`` (0: zeros) and writes them to
        that row of the slabs at ``outs``; the float32 logits ``(T, B, W)``
        go to ``logits`` and each frame's int64 label ``(T, B)`` — the first
        maximum of its logits row, as ``argmax`` picks it — to ``labels``,
        each unless it is ``None``.  The chunk runs in tiles of
        ``ceil(8 / B)`` steps, every op of a tile before the next, and each
        hidden state is quantized once, where it is made; a chunk with
        enough work runs on two cores, its rows in two halves or, one row,
        its layers as a wavefront, the second run on the process's helper
        thread, joined before the call returns.  The arena (:meth:`arena_size`)
        is the calling thread's (``_SCRATCH.arena``) and grows only with
        ``B``, never with ``T``."""
        batch = len(rows)
        at = np.array([*xs, *rows, *ins, *outs], dtype=np.int64)
        base = _p(at)
        self._lib.repro_plan_i8_chunk(
            self._ops, len(self._ops), steps, batch, base, stride, base + 8 * batch,
            base + 16 * batch, logits, labels, _buffer("arena", self.arena_size(batch)),
        )

    def run(self, x: np.ndarray, carry) -> Tuple[np.ndarray, list]:
        """``x (T, B, D)`` float64 and per-layer float32 ``(B, H)`` carries
        (``None``: zeros) → fresh float32 logits, as the C made them, and a
        list of fresh float32 carries; ``T > 0``, ``B > 0``.  Shapes are
        the caller's to have checked; row ``b`` is read at ``b·D``, its
        steps ``B·D`` apart.  Nothing returned aliases the arena."""
        seq_len, batch, dim = x.shape
        x = _f64(x)
        base = _p(x)
        logits = np.empty((seq_len, batch, self.width), dtype=np.float32)
        fresh = [np.empty((batch, h), dtype=np.float32) for h in self.hidden]
        states = [] if carry is None else [_f32(state) for state in carry]  # held for the call
        self._chunk(
            range(base, base + 8 * dim * batch, 8 * dim), dim * batch, seq_len, range(batch),
            map(_p, states) if states else [0] * len(fresh), map(_p, fresh), _p(logits), None,
        )
        return logits, fresh

    def serve(self, chunks, stride: int, rows, slabs) -> np.ndarray:
        """Frame labels ``(T, B)``, int64, of ``B`` equally long float64
        chunks, one per batch row, each ``stride`` doubles a step (``D``
        for C-contiguous ``(T, D)`` chunks), whose carries are rows
        ``rows`` (distinct) of the GRUs' float32 C-contiguous ``(capacity,
        H)`` ``slabs``: read there and written back in place.  No logits
        leave the C: each tile's stay in the arena, where its labels are
        taken."""
        steps, batch = len(chunks[0]), len(rows)
        slabs_at = [_p(slab) for slab in slabs]
        labels = np.empty((steps, batch), dtype=np.int64)
        self._chunk(
            [_p(chunk) for chunk in chunks], stride, steps, rows, slabs_at, slabs_at,
            None, _p(labels),
        )
        return labels
