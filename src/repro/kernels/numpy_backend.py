"""Numpy backend: vectorized plan-then-execute kernels (the default).

Sparse ops run on the execution plans of :mod:`repro.kernels.plans` —
all per-block/per-row Python iteration happens once at plan-build time,
after which ``spmv``/``spmm`` are a gather, one batched GEMM (BSPC) or a
``reduceat`` (CSR), and a scatter.  The recurrent kernels hoist the
input-side projection out of the time loop and run the recurrence on raw
ndarrays with a preallocated output buffer.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kernels._math import sigmoid as _sigmoid
from repro.kernels._math import sigmoid_ as _sigmoid_
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
    gates_x = (x.reshape(seq_len * batch, -1) @ w_ih.T + b_ih).reshape(
        seq_len, batch, 3 * hidden
    )
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
):
    """Fused trainable GRU layer: forward with stashed activations plus a
    single vectorized BPTT backward.

    The forward hoists the whole sequence's input projection into one
    ``(T·B, D) @ (D, 3H)`` GEMM and stashes the gate activations the
    backward needs (``z``, ``r``, ``h̃``, the recurrent candidate
    pre-product ``U_h h_{t-1} + b_h`` and every hidden state).

    The backward exploits that every gate gradient at step ``t`` is the
    incoming hidden gradient ``dh_t`` times a coefficient built purely
    from stashed activations: those coefficients batch over *all*
    timesteps before the loop, so the sequential part is only the
    recurrent accumulation — per step, one broadcast multiply per gate
    block and one ``(B, 3H) @ (3H, H)`` GEMM.  The weight/bias/input
    gradients batch at the end: ``dW_ih``/``dW_hh`` are single
    ``(3H, T·B) @ (T·B, ·)`` GEMMs and ``dx`` is one
    ``(T·B, 3H) @ (3H, D)`` GEMM.

    Returns ``(outputs, h_T, backward)``; ``backward(grad_out, grad_h_T=None)``
    yields ``(dx, dw_ih, dw_hh, db_ih, db_hh, dh0)``.
    """
    x = np.asarray(x, dtype=np.float64)
    seq_len, batch, _ = x.shape
    hidden = h0.shape[1]
    gates_x = (x.reshape(seq_len * batch, -1) @ w_ih.T + b_ih).reshape(
        seq_len, batch, 3 * hidden
    )
    # Fold the constant z/r recurrent biases into the hoisted projection
    # (the candidate's recurrent bias must stay inside the r-product),
    # then pre-negate the z/r part so the loop's sigmoid starts directly
    # from exp((-gx) - gh) — IEEE negation distributes exactly.
    gates_x[:, :, : 2 * hidden] += b_hh[: 2 * hidden]
    neg_gx_zr = -gates_x[:, :, : 2 * hidden]
    b_hh_h = b_hh[2 * hidden :]
    w_hh_t = np.ascontiguousarray(w_hh.T)
    hs = np.empty((seq_len + 1, batch, hidden))
    hs[0] = h0
    # Stash buffers; the time loop writes every activation in place so a
    # step costs one GEMM plus a fixed handful of allocation-free ufuncs.
    # Per-timestep views and the ufuncs themselves are hoisted out of the
    # loop — at small (B, H) the step cost is call dispatch, not FLOPs.
    zr_all = np.empty((seq_len, batch, 2 * hidden))  # update|reset gates
    cand_all = np.empty((seq_len, batch, hidden))  # h̃
    ghh_all = np.empty((seq_len, batch, hidden))  # U_h h_{t-1} + b_hh[2H:]
    gh = np.empty((batch, 3 * hidden))
    gh_zr = gh[:, : 2 * hidden]
    gh_h = gh[:, 2 * hidden :]
    neg_gx_zr_t = list(neg_gx_zr)
    gx_h_t = list(gates_x[:, :, 2 * hidden :])
    zr_t = list(zr_all)
    z_t = [v[:, :hidden] for v in zr_t]
    r_t = [v[:, hidden:] for v in zr_t]
    cand_t = list(cand_all)
    ghh_t = list(ghh_all)
    hs_t = list(hs)
    dot, add, sub, mul = np.dot, np.add, np.subtract, np.multiply
    exp, rec, tanh = np.exp, np.reciprocal, np.tanh
    for t in range(seq_len):
        h = hs_t[t]
        dot(h, w_hh_t, out=gh)
        zr = zr_t[t]
        # zr = sigmoid(gx + gh) computed in place from -(gx + gh)
        sub(neg_gx_zr_t[t], gh_zr, out=zr)
        exp(zr, out=zr)
        zr += 1.0
        rec(zr, out=zr)
        ghh = ghh_t[t]
        add(gh_h, b_hh_h, out=ghh)
        cand = cand_t[t]
        mul(r_t[t], ghh, out=cand)
        cand += gx_h_t[t]
        tanh(cand, out=cand)
        # h = (1-z) h_prev + z h̃ = h_prev + z (h̃ - h_prev)
        h_next = hs_t[t + 1]
        sub(cand, h, out=h_next)
        h_next *= z_t[t]
        h_next += h
    out = hs[1:]

    # Augmented weights let the backward handle the *four* distinct gate
    # gradients (da_z, da_r, da_h on the input side; da_h·r on the
    # recurrent side) as one contiguous (…, 4H) block per step: slot
    # order [z | r | h_input | h_recurrent], with a zero block where a
    # slot does not feed the given matrix.
    w_hh_aug = np.zeros((4 * hidden, hidden))
    w_hh_aug[: 2 * hidden] = w_hh[: 2 * hidden]
    w_hh_aug[3 * hidden :] = w_hh[2 * hidden :]
    w_ih_aug = np.zeros((4 * hidden, x.shape[2]))
    w_ih_aug[: 3 * hidden] = w_ih

    def backward(grad_out: np.ndarray, grad_h_T=None, need_dx: bool = True):
        """Single-use BPTT closure (it consumes the stashed activations).

        ``need_dx=False`` skips the input-gradient GEMM — the layer-0
        input of an acoustic model is a plain feature tensor, so its
        (T·B, 4H) @ (4H, D) gradient would be computed only to be
        discarded."""
        grad_out = np.asarray(grad_out, dtype=np.float64)
        z = zr_all[:, :, :hidden]
        r = zr_all[:, :, hidden:]
        # Per-gate coefficients: gate grad at step t = dh_t * coeff[t].
        # All depend only on stashed activations, so they batch over the
        # whole sequence before the sequential loop.  A fifth (1-z) slot
        # lets the loop's single in-place broadcast multiply also produce
        # the direct dh→dh_prev term; each coeff[t] is consumed exactly
        # once (the loop walks t backwards), so the multiply overwrites
        # the coefficients with the actual gate gradients — no second
        # (T, B, 4H) array and half the loop's memory traffic.
        coeff = np.empty((seq_len, batch, 5, hidden))
        c_z = coeff[:, :, 0]
        c_r = coeff[:, :, 1]
        c_h = coeff[:, :, 2]
        omz = coeff[:, :, 4]
        np.multiply(cand_all, cand_all, out=c_h)  # h̃²
        np.subtract(1.0, c_h, out=c_h)
        c_h *= z  # c_h = z (1 - h̃²)
        np.subtract(1.0, r, out=c_r)
        c_r *= r
        c_r *= ghh_all
        c_r *= c_h  # c_r = c_h · gh_h · r (1-r)
        np.subtract(1.0, z, out=omz)
        np.subtract(cand_all, hs[:-1], out=c_z)
        c_z *= z
        c_z *= omz  # c_z = (h̃ - h_prev) z (1-z)
        np.multiply(c_h, r, out=coeff[:, :, 3])  # recurrent candidate slot
        # Views of the first four slots; the (T·B, 4H) flattening stays a
        # view (row stride 5H), which BLAS consumes directly as lda.
        gates4 = coeff[:, :, :4].reshape(seq_len, batch, 4 * hidden)
        carry = np.zeros((batch, hidden))
        if grad_h_T is not None:
            carry = carry + grad_h_T
        dh = np.empty((batch, hidden))
        dh3 = dh.reshape(batch, 1, hidden)
        gemm = np.empty((batch, hidden))
        go_t = list(grad_out)
        co_t = list(coeff)
        omz_t = [v[:, 4] for v in co_t]
        g4_t = list(gates4)
        dot, add, mul = np.dot, np.add, np.multiply
        for t in range(seq_len - 1, -1, -1):
            add(go_t[t], carry, out=dh)
            mul(co_t[t], dh3, out=co_t[t])  # four gate grads + dh·(1-z)
            dot(g4_t[t], w_hh_aug, out=gemm)
            add(omz_t[t], gemm, out=carry)
        flat = gates4.reshape(seq_len * batch, 4 * hidden)
        # dW_ih rows [0:3H] of flat.T @ x are exactly [da_z; da_r; da_h];
        # dW_hh takes the z/r rows plus the recurrent-candidate slot.
        full_ih = flat.T @ x.reshape(seq_len * batch, -1)
        dw_ih = full_ih[: 3 * hidden]
        full_hh = flat.T @ hs[:-1].reshape(seq_len * batch, hidden)
        dw_hh = np.concatenate((full_hh[: 2 * hidden], full_hh[3 * hidden :]))
        sums = flat.sum(axis=0)
        db_ih = sums[: 3 * hidden]
        db_hh = np.concatenate((sums[: 2 * hidden], sums[3 * hidden :]))
        dx = (flat @ w_ih_aug).reshape(x.shape) if need_dx else None
        return dx, dw_ih, dw_hh, db_ih, db_hh, carry

    return out, hs[seq_len], backward


@registry.register("lstm_sequence_grad", "numpy")
def lstm_sequence_grad(
    x: np.ndarray,
    w_ih: np.ndarray,
    w_hh: np.ndarray,
    bias: np.ndarray,
    h0: np.ndarray,
    c0: np.ndarray,
):
    """Fused trainable LSTM layer; same strategy as
    :func:`gru_sequence_grad` (input projection and weight gradients as
    whole-sequence GEMMs, gate activations stashed, only the recurrent
    accumulation sequential).

    Returns ``(outputs, h_T, c_T, backward)``; ``backward(grad_out)``
    yields ``(dx, dw_ih, dw_hh, dbias, dh0, dc0)``.
    """
    x = np.asarray(x, dtype=np.float64)
    seq_len, batch, _ = x.shape
    hidden = h0.shape[1]
    gates_x = (x.reshape(seq_len * batch, -1) @ w_ih.T + bias).reshape(
        seq_len, batch, 4 * hidden
    )
    w_hh_t = np.ascontiguousarray(w_hh.T)
    hs = np.empty((seq_len + 1, batch, hidden))
    cs = np.empty((seq_len + 1, batch, hidden))
    hs[0] = h0
    cs[0] = c0
    gate_all = np.empty((seq_len, batch, 4 * hidden))  # post-activation i,f,g,o
    tanh_c_all = np.empty((seq_len, batch, hidden))
    gemm = np.empty((batch, 4 * hidden))
    for t in range(seq_len):
        gates = gate_all[t]
        np.dot(hs[t], w_hh_t, out=gemm)
        np.add(gates_x[t], gemm, out=gates)
        _sigmoid_(gates[:, : 2 * hidden])
        np.tanh(gates[:, 2 * hidden : 3 * hidden], out=gates[:, 2 * hidden : 3 * hidden])
        _sigmoid_(gates[:, 3 * hidden :])
        i = gates[:, :hidden]
        f = gates[:, hidden : 2 * hidden]
        g = gates[:, 2 * hidden : 3 * hidden]
        o = gates[:, 3 * hidden :]
        c_next = cs[t + 1]
        np.multiply(f, cs[t], out=c_next)
        tanh_c = tanh_c_all[t]
        np.multiply(i, g, out=tanh_c)  # scratch use before the tanh fills it
        c_next += tanh_c
        np.tanh(c_next, out=tanh_c)
        np.multiply(o, tanh_c, out=hs[t + 1])

    def backward(grad_out: np.ndarray, need_dx: bool = True):
        """Single-use BPTT closure (it consumes the stashed activations);
        ``need_dx=False`` skips the input-gradient GEMM."""
        grad_out = np.asarray(grad_out, dtype=np.float64)
        gates4 = gate_all.reshape(seq_len, batch, 4, hidden)
        i = gates4[:, :, 0]
        f = gates4[:, :, 1]
        g = gates4[:, :, 2]
        o = gates4[:, :, 3]
        # Factored coefficients, batched over the sequence:
        #   dc_t = carry_c + dh_t · c_dc[t]
        #   da_{i,f,g}[t] = dc_t · coeff[t, :, :3],  da_o[t] = dh_t · coeff[t, :, 3]
        # As in the GRU kernel, each coeff[t] is consumed exactly once,
        # so the loop's broadcast multiplies run in place and coeff ends
        # up holding the gate gradients themselves.
        c_dc = np.empty((seq_len, batch, hidden))
        np.multiply(tanh_c_all, tanh_c_all, out=c_dc)
        np.subtract(1.0, c_dc, out=c_dc)
        c_dc *= o  # o (1 - tanh(c)²)
        coeff = np.empty((seq_len, batch, 4, hidden))
        c_i = coeff[:, :, 0]
        c_f = coeff[:, :, 1]
        c_g = coeff[:, :, 2]
        c_o = coeff[:, :, 3]
        np.subtract(1.0, i, out=c_i)
        c_i *= i
        c_i *= g  # g · i(1-i)
        np.subtract(1.0, f, out=c_f)
        c_f *= f
        c_f *= cs[:-1]  # c_prev · f(1-f)
        np.multiply(g, g, out=c_g)
        np.subtract(1.0, c_g, out=c_g)
        c_g *= i  # i (1-g²)
        np.subtract(1.0, o, out=c_o)
        c_o *= o
        c_o *= tanh_c_all  # tanh(c) · o(1-o)
        coeff_2d = coeff.reshape(seq_len, batch, 4 * hidden)
        carry_h = np.zeros((batch, hidden))
        carry_c = np.zeros((batch, hidden))
        dh = np.empty((batch, hidden))
        dc = np.empty((batch, hidden))
        dc3 = dc.reshape(batch, 1, hidden)
        gemm_b = np.empty((batch, hidden))
        for t in range(seq_len - 1, -1, -1):
            np.add(grad_out[t], carry_h, out=dh)
            coeff_t = coeff[t]
            np.multiply(dh, c_dc[t], out=dc)
            dc += carry_c
            np.multiply(dc, f[t], out=carry_c)
            coeff_t[:, :3] *= dc3
            coeff_t[:, 3] *= dh
            np.dot(coeff_2d[t], w_hh, out=gemm_b)
            carry_h, gemm_b = gemm_b, carry_h
        dg_flat = coeff.reshape(seq_len * batch, 4 * hidden)
        dw_ih = dg_flat.T @ x.reshape(seq_len * batch, -1)
        dw_hh = dg_flat.T @ hs[:-1].reshape(seq_len * batch, hidden)
        dbias = dg_flat.sum(axis=0)
        dx = (dg_flat @ w_ih).reshape(x.shape) if need_dx else None
        return dx, dw_ih, dw_hh, dbias, carry_h, carry_c

    return hs[1:], hs[seq_len], cs[seq_len], backward


@registry.register("lstm_sequence", "numpy")
def lstm_sequence(
    x: np.ndarray,
    w_ih: np.ndarray,
    w_hh: np.ndarray,
    bias: np.ndarray,
    h0: np.ndarray,
    c0: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused LSTM layer: input projection + bias hoisted out of the loop."""
    seq_len, batch, _ = x.shape
    hidden = h0.shape[1]
    gates_x = (x.reshape(seq_len * batch, -1) @ w_ih.T + bias).reshape(
        seq_len, batch, 4 * hidden
    )
    w_hh_t = np.ascontiguousarray(w_hh.T)
    out = np.empty((seq_len, batch, hidden))
    h, c = h0, c0
    for t in range(seq_len):
        gates = gates_x[t] + h @ w_hh_t
        # input/forget gates are adjacent in the layout: one shared sigmoid.
        input_forget = _sigmoid(gates[:, : 2 * hidden])
        i = input_forget[:, :hidden]
        f = input_forget[:, hidden:]
        g = np.tanh(gates[:, 2 * hidden : 3 * hidden])
        o = _sigmoid(gates[:, 3 * hidden :])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out, h, c
