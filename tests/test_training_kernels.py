"""Gradient-equivalence suite for the fused training fast path.

The autograd tape (the ``reference`` backend of ``gru_sequence_grad``,
and the per-timestep cell path of ``GRU.forward`` under
``use_backend("reference")``) is ground truth; the fused BPTT must
reproduce its gradients to tighter than 1e-6 across ragged lengths,
single-frame utterances, row-block tails and pruned (masked) weights —
and a short training run must produce the same loss curve — with each of
its two pairs of time loops: the C step (no backend in force) and numpy's
(``backend="numpy"``).
"""

import textwrap

import numpy as np
import pytest

from repro import kernels
from repro.errors import ShapeError
from repro.kernels import compiled
from repro.nn import functional as F
from repro.nn.fused import fused_gru_layer
from repro.nn.rnn import GRU
from repro.nn.tensor import Tensor
from repro.speech.model import AcousticModelConfig, GRUAcousticModel
from repro.speech.synth import SynthConfig, make_corpus
from repro.speech.trainer import Trainer, TrainerConfig
from repro.utils.rng import new_rng
from test_int8_routing import requires_compiler, run_without_a_compiler

TOL = dict(rtol=1e-6, atol=1e-6)

GRU_GRAD_NAMES = ("dx", "dw_ih", "dw_hh", "db_ih", "db_hh", "dh0")

# (T, B, D, H) shapes: single-frame single-utterance, small ragged-ish,
# a wider case, and batches past one and two of the C product's eight-row
# blocks with units past a whole vector (H not a multiple of 8).
SHAPES = [(1, 1, 3, 4), (7, 2, 5, 6), (23, 4, 8, 16), (6, 9, 5, 13), (3, 17, 4, 21)]

#: The time loops of the fused BPTT: the C step, which runs with no backend
#: in force where the library is available, and numpy's.
LOOPS = [pytest.param("c", marks=requires_compiler), "numpy"]


def in_loop(loop):
    """The routing under which ``loop`` runs: no backend in force, or
    ``numpy`` chosen."""
    return kernels.use_backend(None if loop == "c" else "numpy")


def fused_grad(loop, *args):
    """``gru_sequence_grad`` of ``args`` on ``loop``'s time loops."""
    with in_loop(loop):
        return kernels.gru_sequence_grad(*args)


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
    @pytest.mark.parametrize("loop", LOOPS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_forward_and_grads_match_tape(self, shape, loop):
        rng = new_rng(shape[0])
        seq_len, batch, _, hidden = shape
        args = gru_inputs(rng, *shape)
        grad_out = rng.standard_normal((seq_len, batch, hidden))
        out_ref, h_ref, bwd_ref = kernels.gru_sequence_grad(*args, backend="reference")
        out, h, bwd = fused_grad(loop, *args)
        np.testing.assert_allclose(out, out_ref, **TOL)
        np.testing.assert_allclose(h, h_ref, **TOL)
        for name, g_ref, g in zip(GRU_GRAD_NAMES, bwd_ref(grad_out), bwd(grad_out)):
            np.testing.assert_allclose(g, g_ref, err_msg=name, **TOL)

    @pytest.mark.parametrize("loop", LOOPS)
    def test_grads_match_with_pruned_weights(self, loop):
        rng = new_rng(11)
        args = gru_inputs(rng, 9, 3, 6, 8, prune=0.8)
        grad_out = rng.standard_normal((9, 3, 8))
        _, _, bwd_ref = kernels.gru_sequence_grad(*args, backend="reference")
        _, _, bwd = fused_grad(loop, *args)
        for name, g_ref, g in zip(GRU_GRAD_NAMES, bwd_ref(grad_out), bwd(grad_out)):
            np.testing.assert_allclose(g, g_ref, err_msg=name, **TOL)

    @pytest.mark.parametrize("loop", LOOPS)
    def test_final_state_gradient_seed(self, loop):
        # grad_h_T must flow exactly like an extra gradient on out[-1].
        rng = new_rng(5)
        args = gru_inputs(rng, 6, 2, 4, 5)
        grad_out = rng.standard_normal((6, 2, 5))
        grad_h_T = rng.standard_normal((2, 5))
        _, _, bwd_ref = kernels.gru_sequence_grad(*args, backend="reference")
        _, _, bwd = fused_grad(loop, *args)
        for name, g_ref, g in zip(
            GRU_GRAD_NAMES, bwd_ref(grad_out, grad_h_T), bwd(grad_out, grad_h_T)
        ):
            np.testing.assert_allclose(g, g_ref, err_msg=name, **TOL)

    @requires_compiler
    def test_c_step_runs_with_no_backend_in_force_and_repeats_its_bits(self, monkeypatch):
        # the widest shape: every row block, vector and scalar tail of the C
        calls = []
        forward = compiled.gru_f64_forward
        monkeypatch.setattr(
            compiled, "gru_f64_forward", lambda *a: calls.append(1) or forward(*a)
        )
        rng = new_rng(17)
        seq_len, batch, _, hidden = SHAPES[-1]
        args = gru_inputs(rng, *SHAPES[-1])
        grad_out = rng.standard_normal((seq_len, batch, hidden))
        grad_h_T = rng.standard_normal((batch, hidden))
        runs = []
        for _ in range(2):
            out, h, bwd = fused_grad("c", *args)
            runs.append([out, h, *bwd(grad_out, grad_h_T)])
        assert len(calls) == 2
        for name, first, second in zip(("out", "h_T") + GRU_GRAD_NAMES, *runs):
            assert first.tobytes() == second.tobytes(), name
        fused_grad("numpy", *args)
        assert len(calls) == 2

    @requires_compiler
    def test_c_step_refuses_buffers_it_cannot_address(self):
        seq_len, batch, _, hidden = SHAPES[2]
        _, w_ih, w_hh, _, b_hh, _ = gru_inputs(new_rng(2), *SHAPES[2])
        gates_x = np.zeros((seq_len, batch, 3 * hidden))
        hs = np.zeros((seq_len + 1, batch, hidden))
        with pytest.raises(ShapeError):  # states strided over their units
            compiled.gru_f64_forward(gates_x, w_hh, b_hh[:hidden], hs[:, :, ::-1])
        with pytest.raises(ShapeError):  # the input projection's weight
            compiled.gru_f64_forward(gates_x, w_ih, b_hh[:hidden], hs)
        stash = compiled.gru_f64_forward(gates_x, w_hh, b_hh[:hidden], hs)
        grad_out = np.ones((seq_len, batch, hidden))
        with pytest.raises(ShapeError):  # one batch row short
            compiled.gru_f64_backward(grad_out, w_hh, hs, stash, np.zeros((batch - 1, hidden)))
        with pytest.raises(ShapeError):  # a float32 carry
            compiled.gru_f64_backward(
                grad_out, w_hh, hs, stash, np.zeros((batch, hidden), np.float32)
            )


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


def model_grads(config, features, labels, mask, rng, routing):
    """Every parameter's gradient of a fresh model's masked loss, taken
    under ``routing`` (a ``use_backend`` context)."""
    model = GRUAcousticModel(config, rng=rng).train()
    with routing:
        loss = masked_sequence_loss(model(Tensor(features)), labels, mask)
        loss.backward()
    return {name: p.grad.copy() for name, p in model.named_parameters()}


class TestModuleGradEquivalence:
    """End-to-end: model grads under the fused path == tape path."""

    @pytest.mark.parametrize("loop", LOOPS)
    def test_model_grads_match_across_ragged_batch(self, loop):
        rng = new_rng(3)
        config = AcousticModelConfig(input_dim=5, hidden_size=8, num_layers=2)
        batch = ragged_batch(rng, 12, 4, 5, config.num_classes)
        want = model_grads(config, *batch, 0, kernels.use_backend("reference"))
        got = model_grads(config, *batch, 0, in_loop(loop))
        assert want.keys() == got.keys()
        for name, g_ref in want.items():
            np.testing.assert_allclose(got[name], g_ref, err_msg=name, **TOL)

    @pytest.mark.parametrize("loop", LOOPS)
    def test_single_frame_utterance(self, loop):
        rng = new_rng(4)
        config = AcousticModelConfig(input_dim=4, hidden_size=6, num_layers=2)
        batch = (rng.standard_normal((1, 1, 4)), np.array([[2]]), np.ones((1, 1)))
        want = model_grads(config, *batch, 1, kernels.use_backend("reference"))
        got = model_grads(config, *batch, 1, in_loop(loop))
        for name, g_ref in want.items():
            np.testing.assert_allclose(got[name], g_ref, err_msg=name, **TOL)

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



def loss_curve(routing):
    """The losses of two epochs of a short synthetic-TIMIT run under
    ``routing``."""
    train, test = make_corpus(
        8, 2, SynthConfig(num_mels=8, max_phones=5, max_duration=4), seed=0
    )
    model = GRUAcousticModel(
        AcousticModelConfig(input_dim=8, hidden_size=12, num_layers=2), rng=0
    )
    trainer = Trainer(model, train, test, TrainerConfig(batch_size=4, seed=0))
    with routing:
        for _ in range(2):
            trainer.train_epoch()
    return np.array(trainer.log.losses)


class TestLossCurveParity:
    @pytest.mark.parametrize("loop", LOOPS)
    def test_short_training_run_matches_across_backends(self, loop):
        """One short run on the tape and one on ``loop``: same loss curve.

        The fused path reorders floating-point accumulations (whole-
        sequence GEMMs vs per-step ops), so parity is asserted to 1e-6 —
        far below any behavioral difference — rather than bit-exactly.
        """
        np.testing.assert_allclose(
            loss_curve(in_loop(loop)), loss_curve(kernels.use_backend("reference")),
            rtol=1e-6, atol=1e-8,
        )

    def test_no_compiler_trains_on_numpy_loops_without_a_warning(self, tmp_path):
        done = run_without_a_compiler(tmp_path, textwrap.dedent("""
            from repro.errors import CompileBackendError
            from repro.kernels import numpy_backend
            from test_training_kernels import loss_curve
            runs, numpy_loops = [], numpy_backend._numpy_loops
            numpy_backend._numpy_loops = lambda *a: runs.append(1) or numpy_loops(*a)
            assert np.isfinite(loss_curve(kernels.use_backend(None))).all()
            assert runs
            assert isinstance(compiled.load_error(), CompileBackendError)
            print("trained on numpy's loops")
        """))
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout.decode().split() == ["trained", "on", "numpy's", "loops"]
