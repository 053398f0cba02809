"""The oracle: straight-line Python-loop kernels.

These are the seed implementations of the library.  They iterate
row-by-row (CSR) or strip-by-strip/block-by-block (BSPC), accumulate int8
products in int64, and re-project the RNN input at every timestep — slow,
but each line maps directly onto the math, which is why the tests
(``tests/test_kernels_equivalence.py`` and every exactness suite) hold
numpy's kernels, the generic loop and the compiled program against them.
No product path calls them.  :data:`OPS` has the keys of
:data:`repro.kernels.OPS`: a plan lowered with those swapped for these
runs its generic loop on the oracle.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kernels import packed
from repro.kernels._math import sigmoid as _sigmoid
from repro.kernels.quantized import dequantize, int8_codes_axis


# ---------------------------------------------------------------------------
# CSR
# ---------------------------------------------------------------------------
def csr_spmm(matrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix × dense matrix, one row at a time."""
    out = np.zeros((matrix.shape[0], x.shape[1]))
    for r in range(matrix.shape[0]):
        start, stop = matrix.row_ptr[r], matrix.row_ptr[r + 1]
        out[r] = matrix.values[start:stop] @ x[matrix.col_indices[start:stop], :]
    return out


# ---------------------------------------------------------------------------
# BSPC
# ---------------------------------------------------------------------------
def bspc_spmm(matrix, x: np.ndarray) -> np.ndarray:
    """Gather → dense panel multiply → scatter, per strip and block;
    columns of ``x`` are independent input vectors."""
    out = np.zeros((matrix.grid.rows, x.shape[1]))
    for strip in matrix.strips:
        if not strip.kept_rows.size:
            continue
        acc = np.zeros((len(strip.kept_rows), x.shape[1]))
        for block in strip.blocks:
            if block.kept_cols.size:
                acc += block.panel @ x[block.kept_cols, :]
        out[strip.kept_rows] += acc
    return out


# ---------------------------------------------------------------------------
# Int8: plan-free int64 accumulation, exact
# ---------------------------------------------------------------------------
def _bspc_panel_scale(matrix) -> float:
    """The per-tensor scale over all stored panel values (0-padding free)."""
    peak = 0.0
    for strip in matrix.strips:
        for block in strip.blocks:
            if block.panel.size:
                peak = max(peak, float(np.max(np.abs(block.panel))))
    return peak / 127.0 if peak else 1.0


def bspc_spmm_int8(matrix, x: np.ndarray) -> np.ndarray:
    """Strip/block loops with int64 accumulation, per-column activation
    scales and a single dequant."""
    scale = _bspc_panel_scale(matrix)
    xq, xs = int8_codes_axis(x, axis=0)
    acc = np.zeros((matrix.grid.rows, x.shape[1]), dtype=np.int64)
    for strip in matrix.strips:
        if not strip.kept_rows.size:
            continue
        strip_acc = np.zeros((len(strip.kept_rows), x.shape[1]), dtype=np.int64)
        for block in strip.blocks:
            if block.kept_cols.size:
                codes = np.clip(np.round(block.panel / scale), -127, 127)
                strip_acc += codes.astype(np.int64) @ xq[
                    block.kept_cols, :
                ].astype(np.int64)
        acc[strip.kept_rows] += strip_acc
    return dequantize(acc, scale, xs)


def linear_int8_rowwise(codes: np.ndarray, scale: float, x: np.ndarray) -> np.ndarray:
    """Int64 matmul with per-row activation scales."""
    codes64 = np.asarray(codes).astype(np.int64)
    xq, xs = int8_codes_axis(x, axis=1)
    return dequantize(xq.astype(np.int64) @ codes64.T, scale, xs)


# ---------------------------------------------------------------------------
# Recurrent sequence kernels
# ---------------------------------------------------------------------------
def gru_sequence(
    x: np.ndarray,
    w_ih: np.ndarray,
    w_hh: np.ndarray,
    b_ih: np.ndarray,
    b_hh: np.ndarray,
    h0: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """One GRU layer over a ``(T, B, D)`` sequence, timestep by timestep.

    Exactly the per-step math of ``GRUCell.forward`` (Cho et al. 2014),
    including re-projecting the input at every step.  Returns the
    ``(T, B, H)`` hidden sequence and the final ``(B, H)`` state.
    """
    seq_len = x.shape[0]
    hidden = h0.shape[1]
    h = h0
    outputs = []
    for t in range(seq_len):
        gx = x[t] @ w_ih.T + b_ih
        gh = h @ w_hh.T + b_hh
        z = _sigmoid(gx[:, :hidden] + gh[:, :hidden])
        r = _sigmoid(gx[:, hidden : 2 * hidden] + gh[:, hidden : 2 * hidden])
        h_tilde = np.tanh(gx[:, 2 * hidden :] + r * gh[:, 2 * hidden :])
        h = (1.0 - z) * h + z * h_tilde
        outputs.append(h)
    return np.stack(outputs, axis=0), h


def gru_sequence_grad(
    x: np.ndarray,
    w_ih: np.ndarray,
    w_hh: np.ndarray,
    b_ih: np.ndarray,
    b_hh: np.ndarray,
    h0: np.ndarray,
    batch_sizes=None,
):
    """Trainable GRU layer backed by the autograd tape (ground truth).

    Runs the exact per-timestep ``GRUCell`` math through
    :class:`repro.nn.tensor.Tensor`, so the returned backward closure is the
    tape's own BPTT — over an equal-length ``(T, B, D)`` ``x``, or a packed
    ``(N, D)`` one whose step ``t`` runs its ``batch_sizes[t]`` live rows
    (a row past its end keeps its state).  Returns ``(outputs, h_T,
    backward)`` where ``backward(grad_out, grad_h_T=None)`` yields
    ``(dx, dw_ih, dw_hh, db_ih, db_hh, dh0)``.
    """
    from repro.nn.tensor import Tensor, concatenate

    hidden = h0.shape[1]
    x = np.asarray(x, dtype=np.float64)
    xt = Tensor(x, requires_grad=True)
    wih = Tensor(np.asarray(w_ih, dtype=np.float64), requires_grad=True)
    whh = Tensor(np.asarray(w_hh, dtype=np.float64), requires_grad=True)
    bih = Tensor(np.asarray(b_ih, dtype=np.float64), requires_grad=True)
    bhh = Tensor(np.asarray(b_hh, dtype=np.float64), requires_grad=True)
    h0t = Tensor(np.asarray(h0, dtype=np.float64), requires_grad=True)
    frames = xt.reshape(-1, x.shape[-1])
    if batch_sizes is None:
        batch_sizes = np.full(x.shape[0], len(h0))
    sizes = packed.steps(batch_sizes, frames.shape[0], len(h0))
    h = h0t
    outputs = []
    ended = []  # the rows that end at each shrink, last rows first
    for start, rows in zip(packed.starts(sizes), sizes):
        if rows < h.shape[0]:
            ended.append(h[rows:])
            h = h[:rows]
        gx = frames[start : start + rows].matmul(wih.T) + bih
        gh = h.matmul(whh.T) + bhh
        z = (gx[:, :hidden] + gh[:, :hidden]).sigmoid()
        r = (gx[:, hidden : 2 * hidden] + gh[:, hidden : 2 * hidden]).sigmoid()
        h_tilde = (gx[:, 2 * hidden :] + r * gh[:, 2 * hidden :]).tanh()
        h = (1.0 - z) * h + z * h_tilde
        outputs.append(h)
    out = concatenate(outputs).reshape(*x.shape[:-1], hidden)
    h_T = concatenate([h] + ended[::-1]).data
    last = packed.last_frames(sizes)
    leaves = (xt, wih, whh, bih, bhh, h0t)

    def backward(grad_out: np.ndarray, grad_h_T=None, need_dx: bool = True):
        seed = np.array(grad_out, dtype=np.float64, copy=True)
        if grad_h_T is not None:
            seed.reshape(-1, hidden)[last] += grad_h_T
        out.backward(seed)
        return tuple(
            leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
            for leaf in leaves
        )

    return out.data, h_T, backward


#: The oracle of each of :data:`repro.kernels.OPS`, by the same names.
OPS = {
    "csr_spmm": csr_spmm,
    "bspc_spmm": bspc_spmm,
    "bspc_spmm_int8": bspc_spmm_int8,
    "linear_int8_rowwise": linear_int8_rowwise,
}
