"""Numpy backend: vectorized plan-then-execute kernels (the default).

Sparse ops run on the execution plans of :mod:`repro.kernels.plans` —
all per-block/per-row Python iteration happens once at plan-build time,
after which ``spmv``/``spmm`` are a gather, one batched GEMM (BSPC) or a
``reduceat`` (CSR), and a scatter.  The recurrent kernels hoist the
input-side projection out of the time loop and run the recurrence on raw
ndarrays with a preallocated output buffer; the fused training step's two
time loops run in C instead where :func:`repro.kernels.gru_sequence_grad`
finds the library and no backend in force.
"""

from __future__ import annotations

import math
import threading
from typing import Tuple

import numpy as np

from repro.errors import KernelError, ShapeError
from repro.kernels import compiled as _compiled
from repro.kernels import packed
from repro.kernels._math import sigmoid as _sigmoid
from repro.kernels.plans import bspc_plan, csr_plan
from repro.kernels.registry import registry


# ---------------------------------------------------------------------------
# CSR
# ---------------------------------------------------------------------------
@registry.register("csr_spmv", "numpy")
def csr_spmv(matrix, x: np.ndarray) -> np.ndarray:
    """Row-segment sums via ``np.add.reduceat`` over ``row_ptr``."""
    plan = csr_plan(matrix)
    out = np.zeros(matrix.shape[0])
    if plan.nonempty_rows.size:
        products = matrix.values * x[matrix.col_indices]
        out[plan.nonempty_rows] = np.add.reduceat(products, plan.segment_starts)
    return out


@registry.register("csr_spmm", "numpy")
def csr_spmm(matrix, x: np.ndarray) -> np.ndarray:
    """Batched :func:`csr_spmv`, one input column at a time.

    A 1-D ``reduceat`` per column beats a single 2-D ``reduceat`` over the
    ``(nnz, batch)`` product block by ~5x: multi-axis reduceat falls off
    numpy's fast path, while the per-column segment sums stay contiguous.
    """
    plan = csr_plan(matrix)
    out = np.zeros((matrix.shape[0], x.shape[1]))
    if plan.nonempty_rows.size:
        for j in range(x.shape[1]):
            products = matrix.values * x[:, j][matrix.col_indices]
            out[plan.nonempty_rows, j] = np.add.reduceat(
                products, plan.segment_starts
            )
    return out


# ---------------------------------------------------------------------------
# BSPC
# ---------------------------------------------------------------------------
@registry.register("bspc_spmv", "numpy")
def bspc_spmv(matrix, x: np.ndarray) -> np.ndarray:
    """Gather → one batched panel GEMM → scatter (plus a dropped sink row)."""
    plan = bspc_plan(matrix)
    rows = plan.shape[0]
    out = np.zeros(rows + 1)
    if plan.panels.size:
        gathered = x[plan.gather_cols]
        if plan.pad_cols is not None:
            gathered[plan.pad_cols] = 0.0  # keep non-finite x[0] out of pads
        partial = np.matmul(plan.panels, gathered[:, :, None])[:, :, 0]
        out[plan.flat_rows] += partial.reshape(-1)
    return out[:rows]


@registry.register("bspc_spmm", "numpy")
def bspc_spmm(matrix, x: np.ndarray) -> np.ndarray:
    """Batched :func:`bspc_spmv` over the columns of ``x``."""
    plan = bspc_plan(matrix)
    rows = plan.shape[0]
    batch = x.shape[1]
    out = np.zeros((rows + 1, batch))
    if plan.panels.size and batch:
        gathered = x[plan.gather_cols]
        if plan.pad_cols is not None:
            gathered[plan.pad_cols] = 0.0  # keep non-finite x[0] out of pads
        partial = np.matmul(plan.panels, gathered)
        out[plan.flat_rows] += partial.reshape(-1, batch)
    return out[:rows]


# ---------------------------------------------------------------------------
# Recurrent sequence kernels
# ---------------------------------------------------------------------------
class _Workspace:
    """Grow-only named float64 buffers: each :meth:`take` is a
    C-contiguous view of the first ``prod(shape)`` doubles of its name's
    buffer, reallocated — to that size — only where it is short."""

    __slots__ = ("buffers",)

    def __init__(self) -> None:
        self.buffers = {}

    def take(self, name: str, *shape: int) -> np.ndarray:
        size = math.prod(shape)
        buffer = self.buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self.buffers[name] = np.empty(size)
        return buffer[:size].reshape(shape)

    def carve(self, *shapes) -> list:
        """One view per shape, one after another in a single buffer: the
        temporaries of one call, all carved at once."""
        sizes = [math.prod(shape) for shape in shapes]
        whole = self.take("carved", sum(sizes))
        starts = np.cumsum([0] + sizes)
        return [whole[a : a + n].reshape(s) for a, n, s in zip(starts, sizes, shapes)]


#: Per thread: ``free``, a stack of the stash workspaces no step holds;
#: ``scratch``, whose buffer each kernel call carves its temporaries from
#: and is done with when it returns.
_POOL = threading.local()


def _thread_pool():
    """This thread's ``(free, scratch)``."""
    try:
        return _POOL.free, _POOL.scratch
    except AttributeError:
        _POOL.free, _POOL.scratch = [], _Workspace()
        return _POOL.free, _POOL.scratch


@registry.register("gru_sequence", "numpy")
def gru_sequence(
    x: np.ndarray,
    w_ih: np.ndarray,
    w_hh: np.ndarray,
    b_ih: np.ndarray,
    b_hh: np.ndarray,
    h0: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused GRU layer: the whole sequence's input projection is one
    ``(T·B, D) @ (D, 3H)`` GEMM; the time loop carries only the recurrence
    and writes each step into a preallocated output buffer.

    Both constant biases of the update/reset gates are folded into the
    hoisted projection (``z``/``r`` see ``gx + gh + b_ih + b_hh`` either
    way), and the two gates share one sigmoid over the ``2H`` block — the
    per-step cost at small ``H`` is dominated by numpy call overhead, so
    fewer, wider ops matter more than saved FLOPs."""
    seq_len, batch, _ = x.shape
    hidden = h0.shape[1]
    (gates_x,) = _thread_pool()[1].carve((seq_len * batch, 3 * hidden))
    np.matmul(x.reshape(seq_len * batch, -1), w_ih.T, out=gates_x)
    gates_x += b_ih
    gates_x = gates_x.reshape(seq_len, batch, 3 * hidden)
    gates_x[:, :, : 2 * hidden] += b_hh[: 2 * hidden]
    gx_zr = gates_x[:, :, : 2 * hidden]
    gx_h = gates_x[:, :, 2 * hidden :]
    b_hh_h = b_hh[2 * hidden :]
    w_hh_t = np.ascontiguousarray(w_hh.T)
    out = np.empty((seq_len, batch, hidden))
    h = h0
    for t in range(seq_len):
        gh = h @ w_hh_t
        zr = _sigmoid(gx_zr[t] + gh[:, : 2 * hidden])
        z = zr[:, :hidden]
        r = zr[:, hidden:]
        h_tilde = np.tanh(gx_h[t] + r * (gh[:, 2 * hidden :] + b_hh_h))
        h = (1.0 - z) * h + z * h_tilde
        out[t] = h
    return out, h


@registry.register("gru_sequence_grad", "numpy")
def gru_sequence_grad(
    x: np.ndarray,
    w_ih: np.ndarray,
    w_hh: np.ndarray,
    b_ih: np.ndarray,
    b_hh: np.ndarray,
    h0: np.ndarray,
    batch_sizes=None,
    compiled_loops: bool = False,
):
    """Fused trainable GRU layer: forward with stashed activations plus a
    single BPTT backward whose gradient GEMMs batch over the sequence.

    ``x`` is a packed batch (:mod:`repro.kernels.packed`): ``(N, D)`` real
    frames with ``batch_sizes`` the live rows of each step, or, with
    ``batch_sizes=None``, an equal-length ``(T, B, D)`` — the same memory
    as ``batch_sizes = [B] * T``, and outputs and ``dx`` shaped like it.
    Every loop and GEMM runs over the ``N`` frames only; a row past its end
    keeps its state, so ``h_T`` is each row's state at its last step.

    The forward hoists the whole batch's input projection into one
    ``(N, D) @ (D, 3H)`` GEMM; the time loop carries only the recurrence
    and stashes the gate activations the backward needs (``z``, ``r``,
    ``h̃``, the recurrent candidate pre-product ``U_h h_{t-1} + b_h`` and
    every hidden state).  The backward's time loop turns each frame's
    incoming hidden gradient ``dh_t`` into the four gate gradients, slot
    order ``[h_in | z | r | h_rec]`` (the candidate's on the input side,
    then the three that ``W_hh``'s rows are in), and carries ``dh_t (1 - z) +
    [z | r | h_rec] @ W_hh`` back a step; a row not live yet keeps its
    ``grad_h_T`` seed.  The weight/bias/input gradients batch at the end,
    each GEMM over its live slots only: ``dW_ih`` and ``dx`` over ``[h_in |
    z | r]`` (``(3H, N) @ (N, D)`` and ``(N, 3H) @ (3H, D)``, rows rotated
    back into ``W_ih``'s order), ``dW_hh`` over ``[z | r | h_rec]``
    (``(3H, N) @ (N, H)``).

    The large temporaries are not allocated afresh per step.  The stash,
    held from the forward to its backward, is a grow-only workspace from a
    per-thread stack: the forward takes one, the backward gives it back
    when it ends, so a second forward before the first backward gets its
    own.  The projection and the gate gradients live inside one call, so
    one per-thread grow-only scratch serves every layer.  Nothing this
    returns — outputs, ``h_T``, ``dx``, the weight gradients, ``dh0`` — is
    pooled memory.

    Which time loops run: ``compiled_loops`` — what
    :func:`repro.kernels.gru_sequence_grad` passes where the C library is
    available and no backend is in force — runs both in C
    (:func:`repro.kernels.compiled.gru_f64_forward` / ``gru_f64_backward``,
    float64, deterministic, within 1e-6 of the tape, not this loop's bits);
    otherwise, and always as the registered ``numpy`` op, numpy's loops
    below, which are also what the tests hold the C against.

    Returns ``(outputs, h_T, backward)``; ``backward(grad_out, grad_h_T=None)``
    yields ``(dx, dw_ih, dw_hh, db_ih, db_hh, dh0)``.
    """
    x = np.asarray(x, dtype=np.float64)
    batch, hidden = h0.shape
    data = x.reshape(-1, x.shape[-1])
    frames = len(data)
    if batch_sizes is None:
        if x.ndim != 3:
            raise ShapeError(f"a {x.shape} batch without batch_sizes is not (T, B, D)")
        batch_sizes = np.full(x.shape[0], batch)
    sizes = packed.steps(batch_sizes, frames, batch)
    free, scratch = _thread_pool()
    ws = free.pop() if free else _Workspace()
    # Fold the constant z/r recurrent biases into the hoisted projection's
    # (the candidate's recurrent bias must stay inside the r-product).
    bias = np.concatenate((b_ih[: 2 * hidden] + b_hh[: 2 * hidden], b_ih[2 * hidden :]))
    projection = (frames, 3 * hidden)
    if compiled_loops:
        (gates_x,) = scratch.carve(projection)
    else:
        gates_x, neg_gx_zr = scratch.carve(projection, (frames, 2 * hidden))
    np.matmul(data, w_ih.T, out=gates_x)
    gates_x += bias
    b_hh_h = b_hh[2 * hidden :]
    hs = np.empty((batch + frames, hidden))
    hs[:batch] = h0
    if compiled_loops:
        stash = ws.take("stash", frames, 4 * hidden)
        _compiled.gru_f64_forward(sizes, gates_x, w_hh, b_hh_h, hs, stash)
        gate_grads = (frames, 4 * hidden)

        def bptt(grad_out, carry, hprev, gates):
            _compiled.gru_f64_backward(sizes, grad_out, w_hh, hs, stash, carry, gates)
            return gates

    else:
        # Pre-negate the z/r part so the loop's sigmoid starts directly from
        # exp((-gx) - gh) — IEEE negation distributes exactly.
        np.negative(gates_x[:, : 2 * hidden], out=neg_gx_zr)
        bptt = _numpy_loops(sizes, neg_gx_zr, gates_x, w_hh, b_hh_h, hs, ws)
        gate_grads = (frames, 5, hidden)  # and a 1 - z slot
    outputs = hs[batch:]
    h_T = outputs[packed.last_frames(sizes)]
    held = [ws]

    def backward(grad_out: np.ndarray, grad_h_T=None, need_dx: bool = True):
        """Single-use BPTT closure (it consumes the stashed activations
        and gives the workspace back).

        ``need_dx=False`` skips the input-gradient GEMM — the layer-0
        input of an acoustic model is a plain feature tensor, so its
        (N, 3H) @ (3H, D) gradient would be computed only to be
        discarded."""
        if not held:
            raise KernelError("a fused GRU backward runs once per forward")
        grad_out = np.asarray(grad_out, dtype=np.float64).reshape(frames, hidden)
        carry = np.zeros((batch, hidden))
        if grad_h_T is not None:
            carry += grad_h_T
        gates, hprev = _thread_pool()[1].carve(gate_grads, (frames, hidden))
        np.take(hs, packed.previous_frames(sizes), axis=0, out=hprev)
        flat = bptt(grad_out, carry, hprev, gates)
        h1, h2, h3 = hidden, 2 * hidden, 3 * hidden
        full_ih = flat[:, :h3].T @ data
        dw_ih = np.concatenate((full_ih[h1:], full_ih[:h1]))
        dw_hh = flat[:, h1:].T @ hprev
        sums = flat.sum(axis=0)
        db_ih = np.concatenate((sums[h1:h3], sums[:h1]))
        db_hh = sums[h1:]
        dx = None
        if need_dx:
            w_ih_slots = np.concatenate((w_ih[h2:], w_ih[:h2]))  # [h | z | r]
            dx = (flat[:, :h3] @ w_ih_slots).reshape(x.shape)
        free.append(held.pop())
        return dx, dw_ih, dw_hh, db_ih, db_hh, carry

    return outputs.reshape(*x.shape[:-1], hidden), h_T, backward


def _numpy_loops(sizes, neg_gx_zr, gates_x, w_hh, b_hh_h, hs, ws):
    """Numpy's time loops of :func:`gru_sequence_grad`: runs the forward
    over the packed steps ``sizes`` into ``hs``, its stash in the
    workspace ``ws``, and returns the backward loop, ``bptt(grad_out,
    carry, hprev, coeff)`` → the gate gradients ``(N, 4H)`` (a view of
    ``coeff``, ``(N, 5, H)`` scratch), ``carry`` updated in place from the
    gradient of each row's last state to that of ``h0``.  ``neg_gx_zr`` is
    ``-gates_x[:, :2H]``."""
    frames, hidden = gates_x.shape[0], hs.shape[1]
    batch = len(hs) - frames
    first = packed.starts(sizes)
    frame_t = [slice(a, a + r) for a, r in zip(first, sizes)]
    prev_t = [hs[:batch]] + [hs[batch + a : batch + a + r] for a, r in zip(first, sizes[1:])]
    hs_t = [hs[batch + a : batch + a + r] for a, r in zip(first, sizes)]
    w_hh_t = np.ascontiguousarray(w_hh.T)
    # Stash buffers; the time loop writes every activation in place so a
    # step costs one GEMM plus a fixed handful of allocation-free ufuncs.
    # Per-timestep views and the ufuncs themselves are hoisted out of the
    # loop — at small (B, H) the step cost is call dispatch, not FLOPs.
    zr_all = ws.take("zr", frames, 2 * hidden)  # update|reset gates
    cand_all = ws.take("cand", frames, hidden)  # h̃
    ghh_all = ws.take("ghh", frames, hidden)  # U_h h_{t-1} + b_hh[2H:]
    gh = np.empty((batch, 3 * hidden))
    gh_t = [gh[:r] for r in sizes]
    gh_zr_t = [v[:, : 2 * hidden] for v in gh_t]
    gh_h_t = [v[:, 2 * hidden :] for v in gh_t]
    neg_gx_zr_t = [neg_gx_zr[f] for f in frame_t]
    gx_h_t = [gates_x[f, 2 * hidden :] for f in frame_t]
    zr_t = [zr_all[f] for f in frame_t]
    z_t = [v[:, :hidden] for v in zr_t]
    r_t = [v[:, hidden:] for v in zr_t]
    cand_t = [cand_all[f] for f in frame_t]
    ghh_t = [ghh_all[f] for f in frame_t]
    dot, add, sub, mul = np.dot, np.add, np.subtract, np.multiply
    exp, rec, tanh = np.exp, np.reciprocal, np.tanh
    for t in range(len(sizes)):
        h = prev_t[t]
        g = gh_t[t]
        dot(h, w_hh_t, out=g)
        zr = zr_t[t]
        # zr = sigmoid(gx + gh) computed in place from -(gx + gh)
        sub(neg_gx_zr_t[t], gh_zr_t[t], out=zr)
        exp(zr, out=zr)
        zr += 1.0
        rec(zr, out=zr)
        ghh = ghh_t[t]
        add(gh_h_t[t], b_hh_h, out=ghh)
        cand = cand_t[t]
        mul(r_t[t], ghh, out=cand)
        cand += gx_h_t[t]
        tanh(cand, out=cand)
        # h = (1-z) h_prev + z h̃ = h_prev + z (h̃ - h_prev)
        h_next = hs_t[t]
        sub(cand, h, out=h_next)
        h_next *= z_t[t]
        h_next += h

    def bptt(grad_out, carry, hprev, coeff):
        z = zr_all[:, :hidden]
        r = zr_all[:, hidden:]
        # Per-gate coefficients: gate grad at a frame = dh_t * coeff.
        # All depend only on stashed activations, so they batch over the
        # whole batch before the sequential loop.  A fifth (1-z) slot
        # lets the loop's single in-place broadcast multiply also produce
        # the direct dh→dh_prev term; each step's coefficients are
        # consumed exactly once (the loop walks t backwards), so the
        # multiply overwrites them with the actual gate gradients — no
        # second (N, 4H) array and half the loop's memory traffic.
        c_h = coeff[:, 0]
        c_z = coeff[:, 1]
        c_r = coeff[:, 2]
        omz = coeff[:, 4]
        np.multiply(cand_all, cand_all, out=c_h)  # h̃²
        np.subtract(1.0, c_h, out=c_h)
        c_h *= z  # c_h = z (1 - h̃²)
        np.subtract(1.0, r, out=c_r)
        c_r *= r
        c_r *= ghh_all
        c_r *= c_h  # c_r = c_h · gh_h · r (1-r)
        np.subtract(1.0, z, out=omz)
        np.subtract(cand_all, hprev, out=c_z)
        c_z *= z
        c_z *= omz  # c_z = (h̃ - h_prev) z (1-z)
        np.multiply(c_h, r, out=coeff[:, 3])  # recurrent candidate slot
        # The first four slots as (N, 4H); the flattening stays a view
        # (row stride 5H), which BLAS consumes directly as lda.
        gates4 = coeff[:, :4].reshape(frames, 4 * hidden)
        dh = np.empty((batch, hidden))
        gemm = np.empty((batch, hidden))
        dh3_t = [dh[:r].reshape(r, 1, hidden) for r in sizes]
        dh_t = [dh[:r] for r in sizes]
        gemm_t = [gemm[:r] for r in sizes]
        carry_t = [carry[:r] for r in sizes]
        go_t = [grad_out[f] for f in frame_t]
        co_t = [coeff[f] for f in frame_t]
        omz_t = [v[:, 4] for v in co_t]
        rec_t = [gates4[f, hidden:] for f in frame_t]  # [z | r | h_rec]: W_hh's rows
        dot, add, mul = np.dot, np.add, np.multiply
        for t in range(len(sizes) - 1, -1, -1):
            add(go_t[t], carry_t[t], out=dh_t[t])
            mul(co_t[t], dh3_t[t], out=co_t[t])  # four gate grads + dh·(1-z)
            dot(rec_t[t], w_hh, out=gemm_t[t])
            add(omz_t[t], gemm_t[t], out=carry_t[t])
        return gates4

    return bptt
