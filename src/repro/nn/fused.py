"""Custom autograd nodes for the fused training fast path.

Training-mode ``GRU.forward`` routes each layer through these helpers
instead of unrolling per-timestep ``Tensor`` ops.  A helper calls
:func:`repro.kernels.gru_sequence_grad` (looked up at call time, so a test
can put the autograd tape of :mod:`repro.kernels.reference` in its
place), then records a **single** tape
node whose backward is the kernel's fused BPTT closure.  The tape
therefore sees one op per layer instead of ``O(T)`` ops per layer, while
gradients still accumulate into exactly the same leaf tensors (input,
weights, biases, initial state) the unrolled path would touch.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.tensor import Tensor


def fused_gru_layer(
    x: Tensor,
    w_ih: Tensor,
    w_hh: Tensor,
    b_ih: Tensor,
    b_hh: Tensor,
    h0: Tensor,
    batch_sizes: Optional[np.ndarray] = None,
) -> Tensor:
    """One GRU layer over an equal-length ``(T, B, D)`` or a packed
    ``(N, D)`` batch (``batch_sizes``, see :mod:`repro.kernels.packed`) as
    a single autograd node.

    Returns the hidden sequence shaped like ``x``; a row's final state is
    its last frame (index the result to keep gradient connectivity).
    """
    from repro import kernels

    out_data, _, kernel_backward = kernels.gru_sequence_grad(
        x.data, w_ih.data, w_hh.data, b_ih.data, b_hh.data, h0.data,
        batch_sizes=batch_sizes,
    )
    parents = (x, w_ih, w_hh, b_ih, b_hh, h0)

    def backward(grad: np.ndarray) -> None:
        # Skip the input-gradient GEMM when x is a plain feature tensor.
        grads = kernel_backward(grad, need_dx=x.requires_grad)
        for parent, d in zip(parents, grads):
            if parent.requires_grad:
                parent._accumulate(d)

    return x._make_child(out_data, parents, backward)
