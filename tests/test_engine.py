"""Tests for the compiled execution engine (repro.engine).

Covers the three contracts the subsystem makes:

* packing-only plans are **bit-exact** with the eval-mode Module path
  (and therefore decode to identical phone sequences),
* quantized plans track the simulated-quantization eager path within
  scheme-appropriate tolerance (including PER on a trained model),
* stale CSR/BSPC kernel plans are rebuilt, never silently reused, after
  packed weights are mutated.
"""

import numpy as np
import pytest

from repro import engine, kernels
from repro.errors import ConfigError, ShapeError
from repro.nn.quantize import quantize_model
from repro.nn.tensor import Tensor
from repro.pruning.bsp import BSPConfig, bsp_project_masks
from repro.speech.decoder import decode_utterance
from repro.speech.model import AcousticModelConfig, GRUAcousticModel
from repro.speech.synth import make_corpus
from repro.speech.trainer import Trainer, TrainerConfig
from repro.utils.rng import new_rng


def laptop_model(cell_type="gru", seed=0, hidden=24):
    config = AcousticModelConfig(
        input_dim=8, hidden_size=hidden, num_layers=2, cell_type=cell_type
    )
    return GRUAcousticModel(config, rng=seed).eval()


def prune_model(model, col_rate=4, row_rate=2, strips=4, blocks=4):
    masks = bsp_project_masks(
        model.prunable_weights(),
        BSPConfig(
            col_rate=col_rate,
            row_rate=row_rate,
            num_row_strips=strips,
            num_col_blocks=blocks,
        ),
    )
    for name, param in model.prunable_parameters().items():
        param.data[...] = masks[name].apply_to_array(param.data)
    return model


class TestPackingOnlyEquivalence:
    # The packing-only guarantee is defined against the *fused-kernel*
    # (numpy backend) eval path — the plan replays exactly those ops —
    # so the eager side pins that backend: under a reference-backend
    # test run the eager op order differs at float epsilon.
    def test_gru_bit_exact(self, rng):
        model = laptop_model()
        x = rng.standard_normal((13, 3, 8))
        plan = engine.compile_model(model)
        with kernels.use_backend("numpy"):
            expected = model(Tensor(x)).data
        np.testing.assert_array_equal(plan.forward_batch(x), expected)

    def test_lstm_bit_exact(self, rng):
        model = laptop_model(cell_type="lstm", seed=3)
        x = rng.standard_normal((9, 2, 8))
        plan = engine.compile_model(model)
        with kernels.use_backend("numpy"):
            expected = model(Tensor(x)).data
        np.testing.assert_array_equal(plan.forward_batch(x), expected)

    def test_repeated_and_shrinking_batches_reuse_buffers(self, rng):
        # Growing then shrinking batch shapes must not leak stale values
        # from the reused workspace buffers.
        model = laptop_model()
        plan = engine.compile_model(model)
        for shape in [(20, 4, 8), (5, 2, 8), (20, 4, 8), (1, 1, 8)]:
            x = rng.standard_normal(shape)
            with kernels.use_backend("numpy"):
                expected = model(Tensor(x)).data
            np.testing.assert_array_equal(plan.forward_batch(x), expected)

    def test_forward_utterance_matches_batch(self, rng):
        model = laptop_model()
        plan = engine.compile_model(model)
        utterance = rng.standard_normal((11, 8))
        np.testing.assert_array_equal(
            plan.forward_utterance(utterance),
            plan.forward_batch(utterance[:, None, :])[:, 0],
        )

    def test_decodes_identical_on_synthetic_corpus(self):
        train, test = make_corpus(6, 4, seed=5)
        model = GRUAcousticModel(rng=1).eval()
        plan = engine.compile_model(model)
        for example in test.examples:
            eager_logits = model(Tensor(example.features[:, None, :])).data[:, 0]
            assert decode_utterance(
                plan.forward_utterance(example.features), min_duration=2
            ) == decode_utterance(eager_logits, min_duration=2)

    def test_plan_snapshots_weights(self, rng):
        model = laptop_model()
        x = rng.standard_normal((4, 2, 8))
        plan = engine.compile_model(model)
        before = plan.forward_batch(x)
        for param in model.parameters():
            param.data[...] += 1.0
        np.testing.assert_array_equal(plan.forward_batch(x), before)

    def test_zero_length_batch(self):
        plan = engine.compile_model(laptop_model())
        logits = plan.forward_batch(np.zeros((0, 2, 8)))
        assert logits.shape[0] == 0 and logits.shape[1] == 2


class TestSparsePacking:
    @pytest.mark.parametrize("fmt", ["auto", "csr", "bspc"])
    def test_pruned_model_matches_dense_plan(self, fmt, rng):
        model = prune_model(laptop_model())
        x = rng.standard_normal((10, 3, 8))
        eager = model(Tensor(x)).data
        plan = engine.compile_model(
            model,
            config=engine.EngineConfig(
                sparse_format=fmt, num_row_strips=4, num_col_blocks=4
            ),
        )
        np.testing.assert_allclose(plan.forward_batch(x), eager, atol=1e-10)

    def test_compile_rnn_from_weight_dict(self, rng):
        model = prune_model(laptop_model())
        weights = {
            name: param.data.copy()
            for name, param in model.named_parameters()
            if name.startswith("gru.") and param.data.ndim == 2
        }
        plan = engine.compile_rnn(
            weights,
            config=engine.EngineConfig(sparse_format="auto", num_row_strips=4,
                                       num_col_blocks=4),
        )
        x = rng.standard_normal((6, 2, 8))
        hidden = plan.forward_batch(x)
        assert hidden.shape == (6, 2, model.config.hidden_size)
        # Biases are zero in compile_rnn, so compare against a stripped model.
        for name, param in model.named_parameters():
            if param.data.ndim == 1:
                param.data[...] = 0.0
        expected, _ = model.gru(Tensor(x))
        np.testing.assert_allclose(hidden, expected.data, atol=1e-10)

    def test_compile_rnn_rejects_bad_keys(self):
        with pytest.raises(ConfigError):
            engine.compile_rnn({"nope": np.zeros((4, 4))})


class TestPlanCacheInvalidation:
    """Mutating packed sparse weights after ``compile_model`` must not
    leave stale CSR/BSPC kernel plans in use: ``invalidate_plan()`` (the
    documented protocol after in-place writes) and structural-field
    reassignment (automatic) both force a rebuild, and the rebuilt plan
    reflects the mutated weights — not the snapshot the stale plan held.

    These tests exercise the *numpy* plan cache specifically (the
    reference kernels are plan-free and re-read values every call), so
    the forwards pin that backend.
    """

    def sparse_plan(self, fmt, scheme=None):
        config = engine.EngineConfig(
            sparse_format=fmt, num_row_strips=4, num_col_blocks=4
        )
        model = prune_model(laptop_model())
        return model, engine.compile_model(model, scheme=scheme, config=config), config

    def forward(self, plan, x):
        with kernels.use_backend("numpy"):
            return plan.forward_batch(x)

    def recompiled(self, model, scheme, config, x):
        """Forward through a fresh compile of the (mutated) model."""
        return self.forward(
            engine.compile_model(model, scheme=scheme, config=config), x
        )

    def double_layer0_input_weight(self, model):
        for name, param in model.named_parameters():
            if name == "gru.cell0.weight_ih":
                param.data[...] *= 2.0

    def test_csr_int8_plan_rebuilt_after_inplace_mutation(self, rng):
        model, plan, config = self.sparse_plan("csr", scheme="int8")
        x = rng.standard_normal((6, 2, 8))
        baseline = self.forward(plan, x)
        matrix = plan.layers[0].input_proj.matrix
        stale = matrix._int8_kernel_plan  # built eagerly at compile time
        matrix.values *= 2.0  # in-place mutation: invisible to the cache
        matrix.invalidate_plan()
        after = self.forward(plan, x)
        assert matrix._int8_kernel_plan is not stale  # rebuilt, not reused
        assert np.abs(after - baseline).max() > 0.0
        self.double_layer0_input_weight(model)
        np.testing.assert_allclose(
            after, self.recompiled(model, "int8", config, x), atol=1e-10
        )

    def test_bspc_plan_rebuilt_after_inplace_panel_mutation(self, rng):
        model, plan, config = self.sparse_plan("bspc")
        x = rng.standard_normal((6, 2, 8))
        baseline = self.forward(plan, x)
        matrix = plan.layers[0].input_proj.matrix
        stale = matrix._kernel_plan
        for strip in matrix.strips:  # the packed plan copied these panels
            for block in strip.blocks:
                block.panel *= 2.0
        matrix.invalidate_plan()
        after = self.forward(plan, x)
        assert matrix._kernel_plan is not stale
        assert np.abs(after - baseline).max() > 0.0
        self.double_layer0_input_weight(model)
        np.testing.assert_allclose(
            after, self.recompiled(model, None, config, x), atol=1e-10
        )

    def test_structural_reassignment_invalidates_both_plan_caches(self, rng):
        model, plan, config = self.sparse_plan("csr", scheme="int8")
        x = rng.standard_normal((5, 2, 8))
        self.forward(plan, x)
        matrix = plan.layers[0].input_proj.matrix
        assert hasattr(matrix, "_int8_kernel_plan")
        matrix.values = matrix.values * 2.0  # reassignment → auto-drop
        assert not hasattr(matrix, "_kernel_plan")
        assert not hasattr(matrix, "_int8_kernel_plan")
        self.double_layer0_input_weight(model)
        np.testing.assert_allclose(
            self.forward(plan, x),
            self.recompiled(model, "int8", config, x),
            atol=1e-10,
        )


    @pytest.mark.parametrize("batch", [2, 8, 1])
    @pytest.mark.parametrize("how", ["invalidate_plan", "reassign_strips"])
    def test_bspc_int8_plans_rebuilt_under_default_routing(self, rng, how, batch):
        # Default routing runs the compiled kernels — on hosts with a
        # compiler, the fused layer-step and the batch-major projection,
        # which hand the int8 plan's arrays to C by address (two or more
        # sessions: the rows-in-lanes kernel and its second, packed copy
        # of the codes; one: the register block and the plain codes).  A
        # stale address would still find the old codes; (-2)x negates
        # every code (and doubles the scale exactly), so reuse cannot pass.
        import gc

        model, plan, config = self.sparse_plan("bspc", scheme="int8")
        x = rng.standard_normal((2, 6, batch, 8))
        with kernels.use_backend(None):
            _, state = plan.run_chunk(x[0])
            baseline, _ = plan.run_chunk(x[1], state)
            slots = {
                "gru.cell0.weight_hh": plan.layers[0].recurrent.matrix,
                "gru.cell1.weight_ih": plan.layers[1].input_proj.matrix,
            }
            for matrix in slots.values():
                stale = matrix._int8_kernel_plan
                for strip in matrix.strips:
                    for block in strip.blocks:
                        block.panel *= -2.0
                if how == "invalidate_plan":
                    matrix.invalidate_plan()
                else:
                    matrix.strips = list(matrix.strips)  # reassignment → auto-drop
                assert not hasattr(matrix, "_int8_kernel_plan")
                del stale
            gc.collect()  # the old plans' arrays are gone
            _, state = plan.run_chunk(x[0])
            after, after_state = plan.run_chunk(x[1], state)
            for matrix in slots.values():
                assert hasattr(matrix, "_int8_kernel_plan")  # rebuilt
            assert np.abs(after - baseline).max() > 0.0
            for name, param in model.named_parameters():
                if name in slots:
                    param.data[...] *= -2.0
            fresh = engine.compile_model(model, scheme="int8", config=config)
            _, state = fresh.run_chunk(x[0])
            want, want_state = fresh.run_chunk(x[1], state)
        np.testing.assert_array_equal(after, want)
        for got, expected in zip(after_state.layer_states, want_state.layer_states):
            np.testing.assert_array_equal(got[0], expected[0])


class TestQuantizedPlans:
    def test_fp16_close_to_simulated_eager(self, rng):
        model = laptop_model()
        x = rng.standard_normal((12, 3, 8))
        plan = engine.compile_model(model, scheme="fp16")
        simulated = laptop_model()
        quantize_model(simulated, "fp16")
        expected = simulated(Tensor(x)).data
        # Engine computes in float32 over the same fp16-rounded weights.
        np.testing.assert_allclose(plan.forward_batch(x), expected, atol=1e-3)

    def test_int8_close_to_simulated_eager(self, rng):
        model = laptop_model()
        x = rng.standard_normal((12, 3, 8))
        plan = engine.compile_model(model, scheme="int8")
        simulated = laptop_model()
        quantize_model(simulated, "int8")
        expected = simulated(Tensor(x)).data
        # Activation quantization adds error beyond the weight round-trip.
        scale = np.abs(expected).max()
        assert np.abs(plan.forward_batch(x) - expected).max() < 0.1 * scale

    def test_quantized_smaller_than_packed(self):
        model = laptop_model()
        packed = engine.compile_model(model).nbytes()
        fp16 = engine.compile_model(model, scheme="fp16").nbytes()
        int8 = engine.compile_model(model, scheme="int8").nbytes()
        assert int8 < fp16 < packed

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            engine.compile_model(laptop_model(), scheme="int4")

    def test_quantized_per_matches_simulated_within_tolerance(self):
        # The acceptance-criterion check: a trained model's PER under the
        # engine's real quantized execution stays close to the PER of the
        # simulated (round-tripped weights, float math) eager path.
        train, test = make_corpus(10, 6, seed=2)
        model = GRUAcousticModel(rng=0)
        trainer = Trainer(model, train, test, TrainerConfig(batch_size=4, seed=0))
        trainer.train_dense(3)
        model.eval()
        for scheme in ("fp16", "int8"):
            simulated = GRUAcousticModel(rng=0)
            simulated.load_state_dict(model.state_dict())
            quantize_model(simulated, scheme)
            simulated.eval()
            plan = engine.compile_model(model, scheme=scheme)
            refs, sim_hyps, eng_hyps = [], [], []
            from repro.speech.metrics import collapse_frames, phone_error_rate

            for example in test.examples:
                refs.append(collapse_frames(example.labels))
                logits = simulated(Tensor(example.features[:, None, :])).data[:, 0]
                sim_hyps.append(decode_utterance(logits, min_duration=2))
                eng_hyps.append(
                    decode_utterance(
                        plan.forward_utterance(example.features), min_duration=2
                    )
                )
            sim_per = phone_error_rate(refs, sim_hyps)
            eng_per = phone_error_rate(refs, eng_hyps)
            assert abs(eng_per - sim_per) <= 5.0, (scheme, sim_per, eng_per)


class TestForwardValidation:
    def test_rejects_wrong_rank(self):
        plan = engine.compile_model(laptop_model())
        with pytest.raises(ShapeError):
            plan.forward_batch(np.zeros((4, 8)))

    def test_rejects_wrong_input_dim(self):
        plan = engine.compile_model(laptop_model())
        with pytest.raises(ShapeError):
            plan.forward_batch(np.zeros((4, 2, 9)))
