"""Gradient-equivalence suite for the fused training fast path.

The autograd tape (the ``reference`` backend of ``gru_sequence_grad``,
and the per-timestep cell path of ``GRU.forward`` under
``use_backend("reference")``) is ground truth; the fused numpy BPTT kernels must reproduce its gradients to
tighter than 1e-6 across ragged lengths, single-frame utterances, and
pruned (masked) weights — and a short training run must produce the same
loss curve on both backends.
"""

import numpy as np
import pytest

from repro import kernels
from repro.nn import functional as F
from repro.nn.fused import fused_gru_layer
from repro.nn.rnn import GRU
from repro.nn.tensor import Tensor
from repro.speech.model import AcousticModelConfig, GRUAcousticModel
from repro.speech.synth import SynthConfig, make_corpus
from repro.speech.trainer import Trainer, TrainerConfig
from repro.utils.rng import new_rng

TOL = dict(rtol=1e-6, atol=1e-6)

GRU_GRAD_NAMES = ("dx", "dw_ih", "dw_hh", "db_ih", "db_hh", "dh0")

# (T, B, D, H) shapes: single-frame single-utterance, small ragged-ish,
# and a wider case.
SHAPES = [(1, 1, 3, 4), (7, 2, 5, 6), (23, 4, 8, 16)]


def gru_inputs(rng, seq_len, batch, in_dim, hidden, prune=0.0):
    x = rng.standard_normal((seq_len, batch, in_dim))
    h0 = rng.standard_normal((batch, hidden))
    w_ih = rng.standard_normal((3 * hidden, in_dim))
    w_hh = rng.standard_normal((3 * hidden, hidden)) * 0.3
    if prune:
        w_ih = w_ih * (rng.random(w_ih.shape) >= prune)
        w_hh = w_hh * (rng.random(w_hh.shape) >= prune)
    b_ih = rng.standard_normal(3 * hidden)
    b_hh = rng.standard_normal(3 * hidden)
    return x, w_ih, w_hh, b_ih, b_hh, h0


class TestGRUSequenceGrad:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_forward_and_grads_match_tape(self, shape):
        rng = new_rng(shape[0])
        seq_len, batch, _, hidden = shape
        args = gru_inputs(rng, *shape)
        grad_out = rng.standard_normal((seq_len, batch, hidden))
        out_ref, h_ref, bwd_ref = kernels.gru_sequence_grad(*args, backend="reference")
        out_np, h_np, bwd_np = kernels.gru_sequence_grad(*args, backend="numpy")
        np.testing.assert_allclose(out_np, out_ref, **TOL)
        np.testing.assert_allclose(h_np, h_ref, **TOL)
        for name, g_ref, g_np in zip(GRU_GRAD_NAMES, bwd_ref(grad_out), bwd_np(grad_out)):
            np.testing.assert_allclose(g_np, g_ref, err_msg=name, **TOL)

    def test_grads_match_with_pruned_weights(self):
        rng = new_rng(11)
        args = gru_inputs(rng, 9, 3, 6, 8, prune=0.8)
        grad_out = rng.standard_normal((9, 3, 8))
        _, _, bwd_ref = kernels.gru_sequence_grad(*args, backend="reference")
        _, _, bwd_np = kernels.gru_sequence_grad(*args, backend="numpy")
        for name, g_ref, g_np in zip(GRU_GRAD_NAMES, bwd_ref(grad_out), bwd_np(grad_out)):
            np.testing.assert_allclose(g_np, g_ref, err_msg=name, **TOL)

    def test_final_state_gradient_seed(self):
        # grad_h_T must flow exactly like an extra gradient on out[-1].
        rng = new_rng(5)
        args = gru_inputs(rng, 6, 2, 4, 5)
        grad_out = rng.standard_normal((6, 2, 5))
        grad_h_T = rng.standard_normal((2, 5))
        _, _, bwd_ref = kernels.gru_sequence_grad(*args, backend="reference")
        _, _, bwd_np = kernels.gru_sequence_grad(*args, backend="numpy")
        for name, g_ref, g_np in zip(
            GRU_GRAD_NAMES, bwd_ref(grad_out, grad_h_T), bwd_np(grad_out, grad_h_T)
        ):
            np.testing.assert_allclose(g_np, g_ref, err_msg=name, **TOL)


def masked_sequence_loss(logits: Tensor, labels: np.ndarray, mask: np.ndarray):
    """The trainer's masked cross-entropy over a padded (T, B, C) batch."""
    t, b, c = logits.shape
    return F.cross_entropy(
        logits.reshape(t * b, c), labels.reshape(-1), weight_mask=mask.reshape(-1)
    )


def ragged_batch(rng, seq_len, batch, in_dim, num_classes):
    """Padded features/labels/mask with ragged true lengths (incl. length 1)."""
    lengths = np.sort(rng.integers(1, seq_len + 1, size=batch))
    lengths[-1] = seq_len  # keep the pad width meaningful
    features = rng.standard_normal((seq_len, batch, in_dim))
    labels = rng.integers(0, num_classes, size=(seq_len, batch))
    mask = np.zeros((seq_len, batch))
    for b, length in enumerate(lengths):
        mask[:length, b] = 1.0
    return features, labels, mask


class TestModuleGradEquivalence:
    """End-to-end: model grads under the fused path == tape path."""

    def test_model_grads_match_across_ragged_batch(self):
        rng = new_rng(3)
        config = AcousticModelConfig(input_dim=5, hidden_size=8, num_layers=2)
        features, labels, mask = ragged_batch(rng, 12, 4, 5, config.num_classes)

        grads = {}
        for backend in ("reference", "numpy"):
            model = GRUAcousticModel(config, rng=0).train()
            with kernels.use_backend(backend):
                loss = masked_sequence_loss(model(Tensor(features)), labels, mask)
                loss.backward()
            grads[backend] = {
                name: p.grad.copy() for name, p in model.named_parameters()
            }
        assert grads["reference"].keys() == grads["numpy"].keys()
        for name, g_ref in grads["reference"].items():
            np.testing.assert_allclose(
                grads["numpy"][name], g_ref, err_msg=name, **TOL
            )

    def test_single_frame_utterance(self):
        rng = new_rng(4)
        config = AcousticModelConfig(input_dim=4, hidden_size=6, num_layers=2)
        features = rng.standard_normal((1, 1, 4))
        labels = np.array([[2]])
        mask = np.ones((1, 1))
        grads = {}
        for backend in ("reference", "numpy"):
            model = GRUAcousticModel(config, rng=1).train()
            with kernels.use_backend(backend):
                loss = masked_sequence_loss(model(Tensor(features)), labels, mask)
                loss.backward()
            grads[backend] = {
                name: p.grad.copy() for name, p in model.named_parameters()
            }
        for name, g_ref in grads["reference"].items():
            np.testing.assert_allclose(
                grads["numpy"][name], g_ref, err_msg=name, **TOL
            )

    def test_fused_layer_final_state_connectivity(self):
        # Gradients must flow through the sliced final hidden state too.
        rng = new_rng(6)
        gru = GRU(4, 5, num_layers=1, rng=0)
        x = Tensor(rng.standard_normal((7, 2, 4)))
        out, finals = gru(x)
        (finals[-1].sum() + out.sum() * 0.0).backward()
        assert gru.cells[0].weight_hh.grad is not None
        assert np.linalg.norm(gru.cells[0].weight_hh.grad) > 0

    def test_fused_helpers_accumulate_input_grads(self):
        rng = new_rng(7)
        x = Tensor(rng.standard_normal((5, 2, 3)), requires_grad=True)
        gru = GRU(3, 4, num_layers=1, rng=0)
        cell = gru.cells[0]
        h0 = Tensor(np.zeros((2, 4)), requires_grad=True)
        out = fused_gru_layer(
            x, cell.weight_ih, cell.weight_hh, cell.bias_ih, cell.bias_hh, h0
        )
        out.sum().backward()
        assert x.grad is not None and x.grad.shape == x.shape
        assert h0.grad is not None and h0.grad.shape == h0.shape



class TestLossCurveParity:
    def test_short_training_run_matches_across_backends(self):
        """One short synthetic-TIMIT run per backend: same loss curve.

        The fused path reorders floating-point accumulations (whole-
        sequence GEMMs vs per-step ops), so parity is asserted to 1e-6 —
        far below any behavioral difference — rather than bit-exactly.
        """
        train, test = make_corpus(
            8, 2, SynthConfig(num_mels=8, max_phones=5, max_duration=4), seed=0
        )
        curves = {}
        for backend in ("reference", "numpy"):
            model = GRUAcousticModel(
                AcousticModelConfig(input_dim=8, hidden_size=12, num_layers=2),
                rng=0,
            )
            trainer = Trainer(
                model, train, test, TrainerConfig(batch_size=4, seed=0)
            )
            with kernels.use_backend(backend):
                for _ in range(2):
                    trainer.train_epoch()
            curves[backend] = np.array(trainer.log.losses)
        np.testing.assert_allclose(
            curves["numpy"], curves["reference"], rtol=1e-6, atol=1e-8
        )
