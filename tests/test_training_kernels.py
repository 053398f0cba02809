"""Gradient-equivalence suite for the fused training fast path.

The autograd tape (:func:`repro.kernels.reference.gru_sequence_grad`, in
place of ``kernels.gru_sequence_grad`` for a whole model) is ground truth;
the fused BPTT must reproduce its gradients to tighter than 1e-6 across
packed ragged batches, single-frame utterances, row-block tails and pruned
(masked) weights — and a short training run must produce the same loss
curve — with each of its two pairs of time loops: the C step (what
``kernels.gru_sequence_grad`` runs where the library loads) and numpy's
(``numpy_backend.gru_sequence_grad``).  A packed batch must give the loss
and gradients of the same batch padded and masked, on every path.
"""

import hashlib
import os
import textwrap
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.errors import KernelError, ShapeError
from repro.kernels import compiled, numpy_backend, reference
from repro.nn import functional as F
from repro.nn.data import Dataset, SequenceExample, collate, pack
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

#: The time loops of the fused BPTT: the C step, which
#: ``kernels.gru_sequence_grad`` runs where the library is available, and
#: numpy's.
LOOPS = [pytest.param("c", marks=requires_compiler), "numpy"]

#: The time loops, and the tape: each runs a packed batch.
PATHS = LOOPS + ["reference"]


#: The training steps a test puts in place of ``kernels.gru_sequence_grad``.
STEPS = {"numpy": numpy_backend.gru_sequence_grad, "reference": reference.gru_sequence_grad}


@contextmanager
def in_loop(loop):
    """Every training step inside runs on ``loop``: ``"c"``,
    ``kernels.gru_sequence_grad`` as it is; ``"numpy"`` (numpy's time
    loops) or ``"reference"`` (the tape) in its place."""
    with pytest.MonkeyPatch.context() as patch:
        if loop != "c":
            patch.setattr(kernels, "gru_sequence_grad", STEPS[loop])
        yield


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
        out_ref, h_ref, bwd_ref = reference.gru_sequence_grad(*args)
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
        _, _, bwd_ref = reference.gru_sequence_grad(*args)
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
        _, _, bwd_ref = reference.gru_sequence_grad(*args)
        _, _, bwd = fused_grad(loop, *args)
        for name, g_ref, g in zip(
            GRU_GRAD_NAMES, bwd_ref(grad_out, grad_h_T), bwd(grad_out, grad_h_T)
        ):
            np.testing.assert_allclose(g, g_ref, err_msg=name, **TOL)

    @requires_compiler
    def test_c_step_runs_where_the_library_loads_and_repeats_its_bits(self, monkeypatch):
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
        frames = seq_len * batch
        sizes = np.full(seq_len, batch)
        gates_x = np.zeros((frames, 3 * hidden))
        hs = np.zeros((batch + frames, hidden))
        stash = np.empty((frames, 4 * hidden))
        with pytest.raises(ShapeError):  # states strided over their units
            compiled.gru_f64_forward(sizes, gates_x, w_hh, b_hh[:hidden], hs[:, ::-1], stash)
        with pytest.raises(ShapeError):  # the input projection's weight
            compiled.gru_f64_forward(sizes, gates_x, w_ih, b_hh[:hidden], hs, stash)
        for wrong in (sizes[1:], sizes + 1, [batch - 1] + [batch] * (seq_len - 1), sizes[::-1] * 0):
            with pytest.raises(ShapeError):  # steps that do not pack these frames
                compiled.gru_f64_forward(wrong, gates_x, w_hh, b_hh[:hidden], hs, stash)
        with pytest.raises(ShapeError):  # a row that comes back to life
            grown = np.array([batch, 1] + [2] * (seq_len - 2))
            compiled.gru_f64_forward(
                grown, gates_x[: grown.sum()], w_hh, b_hh[:hidden],
                hs[: batch + grown.sum()], stash[: grown.sum()],
            )
        compiled.gru_f64_forward(sizes, gates_x, w_hh, b_hh[:hidden], hs, stash)
        grad_out = np.ones((frames, hidden))
        gates = np.empty((frames, 4 * hidden))
        with pytest.raises(ShapeError):  # one batch row short
            compiled.gru_f64_backward(
                sizes, grad_out, w_hh, hs, stash, np.zeros((batch - 1, hidden)), gates
            )
        with pytest.raises(ShapeError):  # a float32 carry
            compiled.gru_f64_backward(
                sizes, grad_out, w_hh, hs, stash, np.zeros((batch, hidden), np.float32), gates
            )

    def test_backward_runs_once_per_forward(self):
        args = gru_inputs(new_rng(8), 4, 3, 2, 5)
        _, _, bwd = numpy_backend.gru_sequence_grad(*args)
        bwd(np.ones((4, 3, 5)))
        with pytest.raises(KernelError):
            bwd(np.ones((4, 3, 5)))


def packed_inputs(rng, lengths, in_dim, hidden):
    """A packed ``(N, D)`` batch of rows of ``lengths`` (longest first),
    its steps, and weights, ``h0`` and gradients for it."""
    lengths = np.sort(np.asarray(lengths))[::-1]
    sizes = (np.arange(lengths[0])[:, None] < lengths[None, :]).sum(axis=1)
    _, w_ih, w_hh, b_ih, b_hh, h0 = gru_inputs(rng, 0, len(lengths), in_dim, hidden)
    x = rng.standard_normal((int(sizes.sum()), in_dim))
    grad_out = rng.standard_normal((len(x), hidden))
    grad_h_T = rng.standard_normal(h0.shape)
    return (x, w_ih, w_hh, b_ih, b_hh, h0, sizes), grad_out, grad_h_T


def packed_run(loop, args, grad_out, grad_h_T):
    """Outputs, ``h_T`` and every gradient of one packed step on ``loop``."""
    with in_loop(loop):
        out, h_T, bwd = kernels.gru_sequence_grad(*args)
        return [out, h_T, *bwd(grad_out, grad_h_T)]


@pytest.mark.parametrize("loop", PATHS)
def test_packed_step_is_the_padded_step_at_its_real_frames(loop):
    # a row past its end keeps its state: h_T is each row's state at its
    # last step, and dh0 takes grad_h_T in at that step
    rng = new_rng(41)
    lengths = np.array([9, 6, 6, 3, 1])
    args, grad_out, grad_h_T = packed_inputs(rng, lengths, 4, 7)
    x, *weights, h0, sizes = args
    real = np.arange(9)[:, None] < lengths[None, :]
    padded = np.zeros((9, 5, 4))
    padded[real] = x
    padded_grad = np.zeros((9, 5, 7))
    padded_grad[real] = grad_out
    padded_grad[lengths - 1, np.arange(5)] += grad_h_T
    out, h_T, bwd = reference.gru_sequence_grad(padded, *weights, h0)
    dx, *grads = bwd(padded_grad)
    got = packed_run(loop, args, grad_out, grad_h_T)
    want = [out[real], out[lengths - 1, np.arange(5)], dx[real], *grads]
    for name, a, b in zip(("out", "h_T") + GRU_GRAD_NAMES, got, want):
        np.testing.assert_allclose(a, b, err_msg=name, **TOL)


class TestRowCounts:
    """Every row count the C product blocks (eight, four, two, one) and
    packed steps whose live rows shrink: the C loops within ``TOL`` of
    numpy's, and their own bits on a second call."""

    @requires_compiler
    @pytest.mark.parametrize("batch", range(1, 18))
    def test_c_loops_match_numpy_at_every_batch_size(self, batch):
        rng = new_rng(100 + batch)
        args = gru_inputs(rng, 5, batch, 3, 11)
        grad_out = rng.standard_normal((5, batch, 11))
        grad_h_T = rng.standard_normal((batch, 11))
        runs = []
        for loop in ("c", "c", "numpy"):
            with in_loop(loop):
                out, h_T, bwd = kernels.gru_sequence_grad(*args)
                runs.append([out, h_T, *bwd(grad_out, grad_h_T)])
        for name, first, again, numpy_run in zip(("out", "h_T") + GRU_GRAD_NAMES, *runs):
            assert first.tobytes() == again.tobytes(), name
            np.testing.assert_allclose(first, numpy_run, err_msg=name, **TOL)

    @requires_compiler
    @pytest.mark.parametrize("seed", range(6))
    def test_c_loops_match_numpy_on_random_batch_sizes(self, seed):
        rng = new_rng(200 + seed)
        lengths = rng.integers(1, 14, size=rng.integers(1, 18))
        args, grad_out, grad_h_T = packed_inputs(rng, lengths, 4, 9)
        first, again, numpy_run = (
            packed_run(loop, args, grad_out, grad_h_T) for loop in ("c", "c", "numpy")
        )
        for name, a, b, want in zip(("out", "h_T") + GRU_GRAD_NAMES, first, again, numpy_run):
            assert a.tobytes() == b.tobytes(), name
            np.testing.assert_allclose(a, want, err_msg=name, **TOL)

    @pytest.mark.parametrize("loop", LOOPS)
    def test_interleaved_steps_get_their_own_workspaces(self, loop):
        # forward A, forward B, backward B, backward A on one (B, H, D):
        # each the gradients of a run by itself, and nothing either returns
        # in the pool's buffers of the calls after it
        rng = new_rng(31)
        (xa, *weights, h0, sizes), go_a, gt_a = packed_inputs(rng, [9, 7, 7, 2], 5, 6)
        xb = rng.standard_normal(xa.shape)
        go_b, gt_b = rng.standard_normal(go_a.shape), rng.standard_normal(gt_a.shape)
        alone_a = packed_run(loop, (xa, *weights, h0, sizes), go_a, gt_a)
        alone_b = packed_run(loop, (xb, *weights, h0, sizes), go_b, gt_b)
        with in_loop(loop):
            out_a, h_a, bwd_a = kernels.gru_sequence_grad(xa, *weights, h0, sizes)
            out_b, h_b, bwd_b = kernels.gru_sequence_grad(xb, *weights, h0, sizes)
            got_b = [out_b, h_b, *bwd_b(go_b, gt_b)]
            got_a = [out_a, h_a, *bwd_a(go_a, gt_a)]
            kept = [a.copy() for a in got_a + got_b]
            later = [kernels.gru_sequence_grad(xb, *weights, h0, sizes) for _ in range(2)]
            for _, _, bwd in later:
                bwd(go_a, gt_a)
        for name, got, alone in zip(("out", "h_T") + GRU_GRAD_NAMES, got_a + got_b, alone_a + alone_b):
            assert got.tobytes() == alone.tobytes(), name
        free, scratch = numpy_backend._thread_pool()
        pooled = [
            buffer
            for ws in [scratch, *free]
            for buffer in ws.buffers.values()
        ]
        assert pooled
        for name, got, before in zip(("out", "h_T") + GRU_GRAD_NAMES, got_a + got_b, kept):
            assert got.tobytes() == before.tobytes(), name
            assert not any(np.shares_memory(got, buffer) for buffer in pooled), name


def masked_sequence_loss(logits: Tensor, labels: np.ndarray, mask: np.ndarray):
    """Masked cross-entropy over a padded (T, B, C) batch."""
    t, b, c = logits.shape
    return F.cross_entropy(
        logits.reshape(t * b, c), labels.reshape(-1), weight_mask=mask.reshape(-1)
    )


def loss_and_grads(config, rng, routing, loss_of):
    """The loss ``loss_of(model)`` of a fresh model and every parameter's
    gradient of it, taken under ``routing`` (an :func:`in_loop` context)."""
    model = GRUAcousticModel(config, rng=rng).train()
    with routing:
        loss = loss_of(model)
        loss.backward()
    return float(loss.data), {name: p.grad.copy() for name, p in model.named_parameters()}


def model_grads(config, features, labels, mask, rng, routing):
    """The masked loss over a padded batch and its gradients."""
    return loss_and_grads(
        config, rng, routing,
        lambda model: masked_sequence_loss(model(Tensor(features)), labels, mask),
    )


def packed_grads(config, batch, rng, routing):
    """The loss over a packed batch (no mask) and its gradients."""
    return loss_and_grads(
        config, rng, routing,
        lambda model: F.cross_entropy(
            model(Tensor(batch.features), batch.batch_sizes), batch.labels
        ),
    )


def utterances(rng, lengths, in_dim, num_classes):
    return [
        SequenceExample(rng.standard_normal((n, in_dim)), rng.integers(0, num_classes, n))
        for n in lengths
    ]


RAGGED_CONFIG = AcousticModelConfig(input_dim=5, hidden_size=8, num_layers=2)


class TestModuleGradEquivalence:
    """End-to-end: model grads under the fused path == tape path."""

    @pytest.mark.parametrize("loop", PATHS)
    @settings(max_examples=12, deadline=5000)
    @given(
        lengths=st.lists(st.integers(1, 12), min_size=1, max_size=10),
        seed=st.integers(0, 2**16),
    )
    @example(lengths=[2, 3, 3, 12], seed=3)  # the ragged batch of the padded trainer
    @example(lengths=[1], seed=0)
    @example(lengths=[5, 5, 5], seed=1)
    @example(lengths=[12, 1, 2, 1, 1], seed=2)
    def test_model_grads_match_across_ragged_batch(self, loop, lengths, seed):
        """Property: a packed batch on ``loop`` — rows sorted longest
        first, real frames only — gives the loss and every parameter
        gradient of the same batch padded and masked, on the tape."""
        rng = new_rng(seed)
        examples = utterances(rng, lengths, 5, RAGGED_CONFIG.num_classes)
        padded = collate(examples)
        want_loss, want = model_grads(
            RAGGED_CONFIG, padded.features, padded.labels, padded.mask, 0,
            in_loop("reference"),
        )
        loss, got = packed_grads(RAGGED_CONFIG, pack(examples), 0, in_loop(loop))
        np.testing.assert_allclose(loss, want_loss, **TOL)
        assert want.keys() == got.keys()
        for name, g_ref in want.items():
            np.testing.assert_allclose(got[name], g_ref, err_msg=name, **TOL)

    @pytest.mark.parametrize("loop", LOOPS)
    def test_single_frame_utterance(self, loop):
        rng = new_rng(4)
        config = AcousticModelConfig(input_dim=4, hidden_size=6, num_layers=2)
        batch = (rng.standard_normal((1, 1, 4)), np.array([[2]]), np.ones((1, 1)))
        _, want = model_grads(config, *batch, 1, in_loop("reference"))
        _, got = model_grads(config, *batch, 1, in_loop(loop))
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
    def test_short_training_run_matches_the_tape(self, loop):
        """One short run on the tape and one on ``loop``: same loss curve.

        The fused path reorders floating-point accumulations (whole-
        sequence GEMMs vs per-step ops), so parity is asserted to 1e-6 —
        far below any behavioral difference — rather than bit-exactly.
        """
        np.testing.assert_allclose(
            loss_curve(in_loop(loop)), loss_curve(in_loop("reference")),
            rtol=1e-6, atol=1e-8,
        )

    def test_no_compiler_trains_on_numpy_loops_without_a_warning(self, tmp_path):
        done = run_without_a_compiler(tmp_path, textwrap.dedent("""
            from repro.errors import CompileBackendError
            from repro.kernels import numpy_backend
            from test_training_kernels import in_loop, loss_curve
            runs, numpy_loops = [], numpy_backend._numpy_loops
            numpy_backend._numpy_loops = lambda *a: runs.append(1) or numpy_loops(*a)
            assert np.isfinite(loss_curve(in_loop("c"))).all()
            assert runs
            assert isinstance(compiled.load_error(), CompileBackendError)
            print("trained on numpy's loops")
        """))
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout.decode().split() == ["trained", "on", "numpy's", "loops"]


def equal_length_run(loop):
    """sha256 (16 hex digits) of the weights after two epochs of a short
    run on eight utterances of one length, on ``loop``'s time loops."""
    rng = new_rng(5)
    train = Dataset(
        [SequenceExample(rng.standard_normal((6, 8)), rng.integers(0, 40, 6)) for _ in range(8)]
    )
    model = GRUAcousticModel(
        AcousticModelConfig(input_dim=8, hidden_size=12, num_layers=2), rng=0
    )
    trainer = Trainer(model, train, train, TrainerConfig(batch_size=4, seed=0))
    with in_loop(loop):
        for _ in range(2):
            trainer.train_epoch()
    digest = hashlib.sha256()
    for _, param in model.named_parameters():
        digest.update(param.data.tobytes())
    return digest.hexdigest()[:16]


def float_environment(loop):
    """What the bits of a float64 training run rest on besides this
    code: numpy's ufuncs and BLAS (a digest of both on a fixed input) and,
    for the C loops, the host's ISA and any ``REPRO_CC`` build."""
    rng = new_rng(0)
    a, b = rng.standard_normal((24, 12)), rng.standard_normal((12, 36))
    probe = hashlib.sha256()
    for value in (a @ b, np.exp(a), np.tanh(a), np.log(np.abs(a)), np.reciprocal(a)):
        probe.update(value.tobytes())
    if loop == "c":
        probe.update((compiled._host_isa() + os.environ.get("REPRO_CC", "")).encode())
    return probe.hexdigest()[:16]


#: :func:`equal_length_run` with the padded trainer, before training
#: packed its batches: ``(loop, float_environment(loop))`` → digest
#: (a 2-vCPU AVX-512 Xeon, gcc 12.2, numpy 2.4 with OpenBLAS 0.3.31).
EQUAL_LENGTH_DIGESTS = {
    ("c", "77e89347e4f2eb9d"): "49eca1b376a6df7c",
    ("numpy", "28246a3680c3336d"): "d7b3abba58cf8d89",
}


class TestEqualLengthBatches:
    """An equal-length batch packs to its padded layout: the same memory
    and the same bits."""

    @pytest.mark.parametrize("loop", LOOPS)
    def test_packed_step_is_the_padded_step_bit_for_bit(self, loop):
        rng = new_rng(12)
        examples = utterances(rng, [7] * 5, 5, RAGGED_CONFIG.num_classes)
        padded = collate(examples)
        ones = model_grads(
            RAGGED_CONFIG, padded.features, padded.labels, padded.mask, 0, in_loop(loop)
        )
        batch = pack(examples)
        assert batch.features.tobytes() == padded.features.tobytes()
        assert batch.labels.tobytes() == padded.labels.tobytes()
        got = packed_grads(RAGGED_CONFIG, batch, 0, in_loop(loop))
        assert got[0] == ones[0]
        for name, grad in ones[1].items():
            assert got[1][name].tobytes() == grad.tobytes(), name

    @pytest.mark.parametrize("loop", LOOPS)
    def test_short_run_keeps_the_weight_digest_of_the_padded_trainer(self, loop):
        want = EQUAL_LENGTH_DIGESTS.get((loop, float_environment(loop)))
        if want is None:
            pytest.skip("digest recorded under another numpy, BLAS or C build")
        assert equal_length_run(loop) == want
