"""The GRU acoustic model of the paper's evaluation.

The paper's model is a 2-layer GRU with ~9.6M parameters trained on TIMIT;
:class:`GRUAcousticModel` is the same architecture with configurable width
(the experiments default to a laptop-scale width and document the scaling).
The prunable surface — what BSP and every baseline compress — is the set
of 2-D GRU weight matrices (``weight_ih``/``weight_hh`` of each layer),
exposed by :meth:`prunable_parameters`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter
from repro.nn.rnn import GRU
from repro.nn.tensor import Tensor
from repro.speech.phones import NUM_CLASSES
from repro.utils.rng import RngLike, new_rng, spawn_rngs


@dataclass(frozen=True)
class AcousticModelConfig:
    """Architecture settings; defaults are the fast laptop-scale model."""

    input_dim: int = 40
    hidden_size: int = 64
    num_layers: int = 2
    num_classes: int = NUM_CLASSES

    def paper_scale(self) -> "AcousticModelConfig":
        """The full-size configuration (~9.6M GRU weights) of the paper."""
        return AcousticModelConfig(
            input_dim=self.input_dim,
            hidden_size=1024,
            num_layers=2,
            num_classes=self.num_classes,
        )


class GRUAcousticModel(Module):
    """Stacked GRU + linear softmax projection over phones."""

    def __init__(
        self, config: AcousticModelConfig = AcousticModelConfig(), rng: RngLike = None
    ) -> None:
        super().__init__()
        rng_gru, rng_out = spawn_rngs(new_rng(rng), 2)
        self.config = config
        self.gru = GRU(
            config.input_dim, config.hidden_size, config.num_layers, rng=rng_gru
        )
        self.output = Linear(config.hidden_size, config.num_classes, rng=rng_out)

    def forward(self, features: Tensor, batch_sizes=None) -> Tensor:
        """Features ``(T, B, D)`` → logits ``(T, B, C)``; a packed ``(N, D)``
        batch with its ``batch_sizes`` (:mod:`repro.kernels.packed`) →
        ``(N, C)``, one row per real frame."""
        hidden, _ = self.gru(features, batch_sizes=batch_sizes)
        flat = hidden.reshape(-1, hidden.shape[-1])
        logits = self.output(flat)
        return logits.reshape(*hidden.shape[:-1], self.config.num_classes)

    # -- pruning surface ----------------------------------------------------
    def prunable_parameters(
        self, exclude_input_layer: bool = True
    ) -> Dict[str, Parameter]:
        """The 2-D GRU weight matrices BSP and the baselines compress.

        Biases and the (small) output projection stay dense, matching the
        paper's convention of pruning the recurrent weight matrices.

        ``exclude_input_layer`` additionally keeps the first layer's
        ``weight_ih`` dense (the default).  That matrix is a small fraction
        of the weights (~4% at this scale, ~7% at paper scale) but its
        columns are the *only* path for the input features: at the paper's
        1024-hidden scale a 10× column prune still leaves ~100 surviving
        columns per block, while at laptop scale it would choke a 40-dim
        feature vector down to 4 dims per strip and dominate the accuracy
        loss for reasons unrelated to the algorithm under study.
        """
        prunable = {}
        for name, param in self.named_parameters():
            if not (name.startswith("gru.") and param.data.ndim == 2):
                continue
            if exclude_input_layer and name == "gru.cell0.weight_ih":
                continue
            prunable[name] = param
        return prunable

    def prunable_weights(
        self, exclude_input_layer: bool = True
    ) -> Dict[str, np.ndarray]:
        """Copies of the prunable weight arrays (for projection/compile)."""
        return {
            name: p.data.copy()
            for name, p in self.prunable_parameters(exclude_input_layer).items()
        }

    def prunable_param_count(self, exclude_input_layer: bool = True) -> int:
        """Total weights in the prunable surface."""
        return sum(
            p.size for p in self.prunable_parameters(exclude_input_layer).values()
        )
