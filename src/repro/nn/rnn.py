"""Recurrent cells and multi-layer RNN wrappers.

The GRU follows the Cho et al. (2014) formulation used in the paper
(Figure 1):

.. math::

    z_t &= \\sigma(W_z x_t + U_z h_{t-1} + b_z) \\\\
    r_t &= \\sigma(W_r x_t + U_r h_{t-1} + b_r) \\\\
    \\tilde h_t &= \\tanh(W_h x_t + U_h (r_t \\odot h_{t-1}) + b_h) \\\\
    h_t &= (1 - z_t) \\odot h_{t-1} + z_t \\odot \\tilde h_t

Weights are stored as two stacked matrices per cell — ``weight_ih`` of shape
``(3H, D)`` holding :math:`[W_z; W_r; W_h]` and ``weight_hh`` of shape
``(3H, H)`` holding :math:`[U_z; U_r; U_h]` — because those 2-D matrices are
exactly what BSP pruning and the BSPC compiler operate on.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.kernels import packed
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.utils.rng import RngLike, new_rng, spawn_rngs


def _use_fused_kernels(module: Module, *tensors: Tensor) -> bool:
    """True when a sequence forward may take the fused no-grad fast path.

    In eval mode no gradient tape is needed, so the whole sequence runs
    through :mod:`repro.kernels` on raw ndarrays.  Training mode — or any
    input that itself requires grad — records gradients through the
    fused BPTT node instead.
    """
    return not module.training and not any(t.requires_grad for t in tensors)


class GRUCell(Module):
    """Single gated-recurrent-unit cell (one timestep)."""

    def __init__(self, input_size: int, hidden_size: int, rng: RngLike = None) -> None:
        super().__init__()
        rng = new_rng(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        h = hidden_size
        w_ih = np.concatenate(
            [init.xavier_uniform((h, input_size), rng) for _ in range(3)], axis=0
        )
        w_hh = np.concatenate([init.orthogonal((h, h), rng) for _ in range(3)], axis=0)
        self.weight_ih = Parameter(w_ih, name="weight_ih")
        self.weight_hh = Parameter(w_hh, name="weight_hh")
        self.bias_ih = Parameter(init.zeros(3 * h), name="bias_ih")
        self.bias_hh = Parameter(init.zeros(3 * h), name="bias_hh")

    def forward(self, x: Tensor, h_prev: Tensor) -> Tensor:
        """Advance one timestep; ``x``: (B, D), ``h_prev``: (B, H) → (B, H)."""
        if x.shape[-1] != self.input_size:
            raise ShapeError(
                f"GRUCell expected input size {self.input_size}, got {x.shape}"
            )
        h = self.hidden_size
        gates_x = x.matmul(self.weight_ih.T) + self.bias_ih
        gates_h = h_prev.matmul(self.weight_hh.T) + self.bias_hh
        zx, rx, hx = gates_x[:, :h], gates_x[:, h : 2 * h], gates_x[:, 2 * h :]
        zh, rh, hh = gates_h[:, :h], gates_h[:, h : 2 * h], gates_h[:, 2 * h :]
        z = (zx + zh).sigmoid()
        r = (rx + rh).sigmoid()
        h_tilde = (hx + r * hh).tanh()
        return (1.0 - z) * h_prev + z * h_tilde

    def init_hidden(self, batch_size: int) -> Tensor:
        """Return an all-zero initial hidden state of shape (B, H)."""
        return Tensor(np.zeros((batch_size, self.hidden_size)))


class GRU(Module):
    """Multi-layer unidirectional GRU over a full sequence.

    Input is ``(T, B, D)`` (time-major); output is ``(T, B, H)`` hidden
    states of the last layer.  The paper's acoustic model uses two layers.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 1,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        rngs = spawn_rngs(new_rng(rng), num_layers)
        for layer_index in range(num_layers):
            in_size = input_size if layer_index == 0 else hidden_size
            cell = GRUCell(in_size, hidden_size, rng=rngs[layer_index])
            setattr(self, f"cell{layer_index}", cell)

    @property
    def cells(self) -> List[GRUCell]:
        return [getattr(self, f"cell{i}") for i in range(self.num_layers)]

    def forward(
        self,
        x: Tensor,
        h0: Optional[List[Tensor]] = None,
        batch_sizes: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, List[Tensor]]:
        """Run the full sequence; returns ``(outputs, final_hiddens)``.

        ``x`` is ``(T, B, D)``, or with ``batch_sizes`` a packed ``(N, D)``
        batch (:mod:`repro.kernels.packed`: step ``t`` runs its
        ``batch_sizes[t]`` live rows, a row past its end keeps its state);
        the outputs are shaped like ``x`` and each final hidden is every
        row's state at its last step.

        In eval mode (and with no grad-requiring inputs) each layer of a
        ``(T, B, D)`` batch runs as one fused :func:`repro.kernels.gru_sequence`
        call.  Otherwise gradients are recorded: each layer is a single
        fused-BPTT autograd node (:func:`repro.nn.fused.fused_gru_layer`).
        """
        want = 2 if batch_sizes is not None else 3
        if x.ndim != want:
            layout = "packed (N, D)" if want == 2 else "(T, B, D)"
            raise ShapeError(f"GRU expects {layout} input, got {x.shape}")
        if x.shape[-1] != self.input_size:
            raise ShapeError(
                f"GRU expected input size {self.input_size}, got {x.shape}"
            )
        if batch_sizes is None:
            seq_len, batch = x.shape[0], x.shape[1]
        else:
            batch = int(batch_sizes[0]) if len(batch_sizes) else 0
            batch_sizes = packed.steps(batch_sizes, x.shape[0], batch)
            seq_len = len(batch_sizes)
        hiddens = (
            [cell.init_hidden(batch) for cell in self.cells] if h0 is None else list(h0)
        )
        if len(hiddens) != self.num_layers:
            raise ShapeError(
                f"h0 must have {self.num_layers} layer states, got {len(hiddens)}"
            )
        if batch_sizes is None and _use_fused_kernels(self, x, *hiddens):
            from repro import kernels

            layer_input = x.data
            finals: List[Tensor] = []
            for cell, h_init in zip(self.cells, hiddens):
                layer_input, h_final = kernels.gru_sequence(
                    layer_input,
                    cell.weight_ih.data,
                    cell.weight_hh.data,
                    cell.bias_ih.data,
                    cell.bias_hh.data,
                    h_init.data,
                )
                finals.append(Tensor(h_final))
            return Tensor(layer_input), finals
        from repro.nn.fused import fused_gru_layer

        last = seq_len - 1 if batch_sizes is None else packed.last_frames(batch_sizes)
        layer_out = x
        fused_finals: List[Tensor] = []
        for cell, h_init in zip(self.cells, hiddens):
            layer_out = fused_gru_layer(
                layer_out,
                cell.weight_ih,
                cell.weight_hh,
                cell.bias_ih,
                cell.bias_hh,
                h_init,
                batch_sizes,
            )
            fused_finals.append(layer_out[last])
        return layer_out, fused_finals
