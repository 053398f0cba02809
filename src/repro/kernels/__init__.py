"""Vectorized kernels: the engine's generic loop and its oracle.

Hot numerical paths of the library call into this package:

* :func:`spmv` / :func:`spmm` — sparse matrix × vector/matrix for any
  matrix exposing a ``kernel_prefix`` (``CSRMatrix``, ``BSPCMatrix``),
* :func:`spmm_int8` / :func:`linear_int8_rowwise` — the int8 products,
* :func:`gru_sequence` — the fused full-sequence recurrent layer used by
  ``GRU.forward`` in eval mode, and :func:`gru_sequence_grad`, its
  trainable twin.

Each is numpy's implementation (:mod:`~repro.kernels.numpy_backend`,
:mod:`~repro.kernels.quantized`): numpy + BLAS.  :data:`OPS` maps the op
names :func:`repro.compiler.passes.kernel_for` emits to them — the ops an
engine plan's generic loop binds at lowering.  :mod:`repro.kernels.reference`
holds the straight-line loops the tests hold every one of them against,
in a dict with the same keys.

The compiled C (:mod:`repro.kernels.compiled`) is the int8 program: an int8
engine plan lowers to it, one call per chunk, wherever a compiler exists
(``docs/engine.md``), and :func:`gru_sequence_grad` runs its two time loops
in it (``docs/training.md``).  Importing this package builds and loads
nothing; the first int8 lowering or training step does.  Int8 has one
sparse format, BSPC: :func:`spmm_int8` of a ``CSRMatrix`` is a
:class:`~repro.errors.KernelError`, and an int8 engine plan packs every
sparse weight as BSPC panels.

See ``docs/kernels.md`` for the plan design.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import KernelError
from repro.kernels import compiled, numpy_backend, quantized
from repro.kernels.plans import (
    BSPCPlan,
    CSRPlan,
    bspc_plan,
    csr_plan,
)
from repro.kernels.quantized import (
    Int8BSPCPlan,
    int8_bspc_plan,
    int8_codes,
    int8_codes_axis,
)

__all__ = [
    "OPS",
    "compiled",
    "CSRPlan",
    "BSPCPlan",
    "csr_plan",
    "bspc_plan",
    "Int8BSPCPlan",
    "int8_bspc_plan",
    "int8_codes",
    "int8_codes_axis",
    "spmv",
    "spmm",
    "spmm_int8",
    "linear_int8_rowwise",
    "gru_sequence",
    "gru_sequence_grad",
]

#: The generic loop's ops, by the names
#: :func:`repro.compiler.passes.kernel_for` emits (``"blas_matmul"`` is
#: none: a plan binds ``np.matmul`` for it).  ``reference.OPS`` has the
#: same keys.
OPS = {
    "csr_spmm": numpy_backend.csr_spmm,
    "bspc_spmm": numpy_backend.bspc_spmm,
    "bspc_spmm_int8": quantized.bspc_spmm_int8,
    "linear_int8_rowwise": quantized.linear_int8_rowwise,
}


def backends() -> Tuple[str, ...]:
    """``("numpy",)``.  Only the benchmark's host metadata reads this."""
    return ("numpy",)


def get_default_backend() -> str:
    """``"numpy"``.  Only the benchmark's host metadata reads this."""
    return "numpy"


def _prefix(matrix) -> str:
    prefix = getattr(matrix, "kernel_prefix", None)
    if prefix not in ("csr", "bspc"):
        raise KernelError(
            f"{type(matrix).__name__} declares no known kernel_prefix "
            f"({prefix!r}); cannot run sparse kernels on it"
        )
    return prefix


def spmv(matrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix × dense vector."""
    if _prefix(matrix) == "csr":
        return numpy_backend.csr_spmv(matrix, x)
    return numpy_backend.bspc_spmv(matrix, x)


def spmm(matrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix × dense matrix."""
    if _prefix(matrix) == "csr":
        return numpy_backend.csr_spmm(matrix, x)
    return numpy_backend.bspc_spmm(matrix, x)


def spmm_int8(matrix, x: np.ndarray) -> np.ndarray:
    """Int8 BSPC matrix × dense matrix: weights and activations quantized
    (one activation scale per column of ``x``), integer accumulation, one
    dequant to float32 (:func:`~repro.kernels.quantized.dequantize`)."""
    if _prefix(matrix) != "bspc":
        raise KernelError(
            f"int8 has one sparse format, BSPC: no int8 product of a "
            f"{type(matrix).__name__}"
        )
    return quantized.bspc_spmm_int8(matrix, x)


def linear_int8_rowwise(codes: np.ndarray, scale: float, x: np.ndarray) -> np.ndarray:
    """Dense int8 projection with one activation scale per *row* of ``x``
    (per frame) — each row's result is independent of the rest of the
    batch, so int8 plans stay bitwise chunk-exact under streaming
    execution.  This is the op the engine's generic loop uses for dense
    int8 weights."""
    return quantized.linear_int8_rowwise(codes, scale, x)


def gru_sequence(
    x: np.ndarray,
    w_ih: np.ndarray,
    w_hh: np.ndarray,
    b_ih: np.ndarray,
    b_hh: np.ndarray,
    h0: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """One GRU layer over a ``(T, B, D)`` sequence → ``(outputs, h_T)``."""
    return numpy_backend.gru_sequence(x, w_ih, w_hh, b_ih, b_hh, h0)


def gru_sequence_grad(
    x: np.ndarray,
    w_ih: np.ndarray,
    w_hh: np.ndarray,
    b_ih: np.ndarray,
    b_hh: np.ndarray,
    h0: np.ndarray,
    batch_sizes: Optional[np.ndarray] = None,
):
    """Trainable GRU layer: full-sequence forward plus a BPTT closure.

    ``x`` is a packed batch, ``(N, D)`` frames with ``batch_sizes`` the
    live rows of each step (:mod:`repro.kernels.packed`), or with
    ``batch_sizes=None`` an equal-length ``(T, B, D)``.  Returns
    ``(outputs, h_T, backward)`` — outputs shaped like ``x``, ``h_T`` each
    row's state at its last step — where ``backward(grad_out,
    grad_h_T=None)`` yields ``(dx, dw_ih, dw_hh, db_ih, db_hh, dh0)``.  The
    fused stash-and-batch BPTT of ``GRU.forward`` in training mode: its two
    time loops run in C where the library is available, in numpy
    otherwise; :func:`repro.kernels.reference.gru_sequence_grad` is the
    autograd tape it is held against.
    """
    return numpy_backend.gru_sequence_grad(
        x, w_ih, w_hh, b_ih, b_hh, h0, batch_sizes, compiled_loops=compiled.available()
    )
