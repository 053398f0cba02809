"""Tests for the unified layer-graph IR and the shared pass pipeline.

The contract under test: the analytic simulator and the execution engine
lower from the *same* graph after the *same* passes — format decisions
live in the compiler (nothing `_choose_format`-ish remains inline in the
engine), pinned attributes survive the pipeline, and graph serialization
round-trips every decision the executable lowering reads.
"""

import numpy as np
import pytest

from repro import engine
from repro.compiler.ir import (
    GraphNode,
    GraphOptions,
    LayerGraph,
    WeightSlot,
    graph_from_arrays,
    graph_to_arrays,
)
from repro.compiler.passes import (
    load_elim_pass,
    reorder_pass,
    run_passes,
    select_formats_pass,
    select_kernels_pass,
)
from repro.compiler.pipeline import build_layer_graph, rnn_graph_from_weights
from repro.errors import CompilationError, ConfigError
from repro.hw.executor import NumericExecutor
from repro.kernels.quantized import int8_codes
from repro.pruning.bsp import BSPConfig, bsp_project_masks
from repro.sparse.bspc import BSPCMatrix
from repro.speech.model import AcousticModelConfig, GRUAcousticModel
from repro.utils.rng import new_rng


def laptop_model(hidden=24, seed=0):
    config = AcousticModelConfig(input_dim=8, hidden_size=hidden, num_layers=2)
    return GRUAcousticModel(config, rng=seed).eval()


def prune_model(model, col_rate=4, row_rate=2):
    masks = bsp_project_masks(
        model.prunable_weights(),
        BSPConfig(col_rate=col_rate, row_rate=row_rate,
                  num_row_strips=4, num_col_blocks=4),
    )
    for name, param in model.prunable_parameters().items():
        param.data[...] = masks[name].apply_to_array(param.data)
    return model


def single_slot_graph(weight, options=GraphOptions(), **slot_kwargs):
    # Mirror the frontends: the slot inherits the graph-level grid.
    slot_kwargs.setdefault(
        "grid", (options.num_row_strips, options.num_col_blocks)
    )
    slot = WeightSlot(name="w", op="linear", array=weight, **slot_kwargs)
    return (
        LayerGraph(
            nodes=[GraphNode(name="w", kind="linear", weights={"w": slot})],
            options=options,
        ),
        slot,
    )


class TestFrontend:
    def test_gru_graph_structure(self):
        graph = build_layer_graph(laptop_model())
        kinds = [node.kind for node in graph.nodes]
        assert kinds == ["gru_cell", "gru_cell", "output"]
        cell0 = graph.nodes[0]
        assert set(cell0.weights) == {"ih", "hh"}
        assert set(cell0.params) == {"bias_ih", "bias_hh"}
        assert cell0.weights["ih"].op == "linear"
        assert cell0.weights["hh"].op == "recurrent_matvec"

    def test_output_slot_pinned_dense(self):
        graph = build_layer_graph(
            laptop_model(), options=GraphOptions(sparse_format="csr")
        )
        assert graph.nodes[-1].weights["w"].format == "dense"
        run_passes(graph)
        assert graph.nodes[-1].weights["w"].format == "dense"

    def test_graph_snapshots_weights(self):
        model = laptop_model()
        graph = build_layer_graph(model)
        before = graph.nodes[0].weights["ih"].array.copy()
        for param in model.parameters():
            param.data[...] += 1.0
        np.testing.assert_array_equal(graph.nodes[0].weights["ih"].array, before)

    def test_rejects_non_rnn_model(self):
        with pytest.raises(ConfigError):
            build_layer_graph(object())

    def test_rnn_graph_from_weights(self):
        model = laptop_model()
        weights = {
            name: p.data.copy()
            for name, p in model.named_parameters()
            if name.startswith("gru.") and p.data.ndim == 2
        }
        graph = rnn_graph_from_weights(weights)
        assert [n.kind for n in graph.nodes] == ["gru_cell", "gru_cell"]
        np.testing.assert_array_equal(
            graph.nodes[0].params["bias_ih"], np.zeros(3 * 24)
        )

    def test_rnn_graph_rejects_bad_keys(self):
        with pytest.raises(ConfigError):
            rnn_graph_from_weights({"nope": np.zeros((4, 4))})


class TestFormatSelection:
    def test_none_request_keeps_dense(self, rng):
        graph, slot = single_slot_graph(rng.standard_normal((16, 16)))
        select_formats_pass(graph)
        assert slot.format == "dense"

    def test_auto_dense_above_threshold(self, rng):
        graph, slot = single_slot_graph(
            rng.standard_normal((16, 16)),
            GraphOptions(sparse_format="auto", sparsity_threshold=0.5),
        )
        select_formats_pass(graph)
        assert slot.format == "dense"

    def test_auto_picks_bspc_for_block_patterns(self, rng):
        weight = rng.standard_normal((16, 16))
        weight[:, 8:] = 0.0  # whole block-columns removed: BSP-shaped
        graph, slot = single_slot_graph(
            weight, GraphOptions(sparse_format="auto", num_row_strips=2,
                                 num_col_blocks=2),
        )
        select_formats_pass(graph)
        assert slot.format == "bspc"
        assert slot.prebuilt is not None  # probe reused by the lowering

    def test_auto_picks_csr_for_irregular_patterns(self, rng):
        weight = rng.standard_normal((16, 16))
        weight[rng.random((16, 16)) < 0.8] = 0.0  # scattered zeros
        graph, slot = single_slot_graph(
            weight, GraphOptions(sparse_format="auto", num_row_strips=2,
                                 num_col_blocks=2),
        )
        select_formats_pass(graph)
        assert slot.format == "csr"

    def test_an_irregular_int8_slot_packs_its_probe(self, monkeypatch):
        # int8 packs an irregular slot as BSPC too, so "auto"'s fill probe
        # is the matrix it runs: one BSPC build per sparse slot
        model, rng = laptop_model(), new_rng(1)
        for param in model.prunable_parameters().values():
            param.data[...] *= rng.uniform(size=param.data.shape) < 0.25
        builds = []
        from_dense = BSPCMatrix.from_dense.__func__
        monkeypatch.setattr(
            BSPCMatrix,
            "from_dense",
            classmethod(lambda cls, *args: builds.append(1) or from_dense(cls, *args)),
        )
        config = engine.EngineConfig(sparse_format="auto", num_row_strips=4, num_col_blocks=4)
        plan = engine.compile_model(model, "int8", config)
        sparse = [slot for _, _, slot in plan.graph.slots() if slot.format == "bspc"]
        assert len(sparse) == 3
        assert len(builds) == len(sparse)
        assert all(slot.prebuilt.fill() < 0.5 for slot in sparse)  # irregular

    def test_pinned_format_survives_passes(self, rng):
        graph, slot = single_slot_graph(
            rng.standard_normal((16, 16)),
            GraphOptions(sparse_format="auto"),
            format="csr",
        )
        run_passes(graph)
        assert slot.format == "csr"

    def test_demote_full_density_only_when_asked(self, rng):
        weight = rng.standard_normal((8, 8))  # fully dense
        graph, slot = single_slot_graph(
            weight, GraphOptions(sparse_format="csr", demote_full_density=True)
        )
        select_formats_pass(graph)
        assert slot.format == "dense"  # the analytic frontend's convention
        graph, slot = single_slot_graph(
            weight, GraphOptions(sparse_format="csr")
        )
        select_formats_pass(graph)
        assert slot.format == "csr"  # the engine honours forced formats


class TestAnalysisPasses:
    @pytest.mark.parametrize("scheme", [None, "int8"])
    def test_the_engine_compile_runs_no_analysis(self, scheme):
        # the annotations are the cost model's: compiling for execution
        # decides formats and kernels and annotates no slot, sparse or dense
        config = engine.EngineConfig(sparse_format="auto", num_row_strips=4, num_col_blocks=4)
        plan = engine.compile_model(prune_model(laptop_model()), scheme, config)
        assert plan.graph.slot("cell1.weight_hh").format == "bspc"
        for _, _, slot in plan.graph.slots():
            assert slot.kernel is not None
            assert slot.row_permutation is None and slot.act_loads_naive is None

    def test_analytic_mode_annotates_everything(self, rng):
        graph = build_layer_graph(laptop_model())
        reorder_pass(graph)
        load_elim_pass(graph)
        for _, _, slot in graph.slots():
            assert slot.row_permutation is not None
            assert slot.act_loads_per_step <= slot.act_loads_naive

    def test_load_elim_disabled_keeps_naive(self, rng):
        model = prune_model(laptop_model())
        graph = build_layer_graph(
            model,
            options=GraphOptions(sparse_format="auto",
                                 enable_load_elimination=False,
                                 num_row_strips=4, num_col_blocks=4),
        )
        reorder_pass(graph)
        load_elim_pass(graph)
        for _, _, slot in graph.slots():
            assert slot.act_loads_per_step == slot.act_loads_naive


class TestKernelSelectionAndBoundaries:
    def test_kernels_named_per_format_and_scheme(self, rng):
        model = prune_model(laptop_model())
        graph = build_layer_graph(
            model, scheme="int8",
            options=GraphOptions(sparse_format="csr", num_row_strips=4,
                                 num_col_blocks=4),
        )
        run_passes(graph)
        kernels = {slot.name: slot.kernel for _, _, slot in graph.slots()}
        # int8 has one sparse format: a "csr" request is BSPC
        assert graph.slot("cell0.weight_hh").format == "bspc"
        assert kernels["cell0.weight_hh"] == "bspc_spmm_int8"
        assert kernels["output.weight"] == "linear_int8_rowwise"

    def test_float_kernels(self, rng):
        graph = build_layer_graph(
            prune_model(laptop_model()),
            options=GraphOptions(sparse_format="bspc", num_row_strips=4,
                                 num_col_blocks=4),
        )
        run_passes(graph)
        assert graph.slot("cell0.weight_ih").kernel == "bspc_spmm"
        assert graph.slot("output.weight").kernel == "blas_matmul"

    def test_int8_quantize_boundaries(self):
        graph = build_layer_graph(laptop_model(), scheme="int8")
        run_passes(graph)
        policies = {b.slot: b.policy for b in graph.boundaries}
        assert policies["cell0.weight_ih"] == "int8-activations-per-frame"
        assert policies["cell0.weight_hh"] == "int8-activations-per-frame"
        assert all(b.op == "quantize" for b in graph.boundaries)

    def test_no_boundaries_without_scheme(self):
        graph = build_layer_graph(laptop_model())
        run_passes(graph)
        assert graph.boundaries == []


class TestUnifiedLowering:
    def test_engine_has_no_inline_format_decisions(self):
        # The acceptance criterion of the unification: format decisions
        # live in the compiler's pass pipeline, not in engine/plan.py.
        import repro.engine.plan as plan_module

        assert not hasattr(plan_module, "_choose_format")
        assert not hasattr(plan_module, "_engine_grid")

    def test_compile_model_attaches_graph(self):
        plan = engine.compile_model(laptop_model())
        assert plan.graph is not None
        assert [n.kind for n in plan.graph.nodes] == [
            "gru_cell", "gru_cell", "output",
        ]
        assert not plan.graph.undecided()

    def test_lower_graph_equals_compile_model(self, rng):
        model = prune_model(laptop_model())
        config = engine.EngineConfig(sparse_format="auto", num_row_strips=4,
                                     num_col_blocks=4)
        x = rng.standard_normal((9, 2, 8))
        via_compile = engine.compile_model(model, config=config)
        graph = build_layer_graph(model, options=config.graph_options())
        via_graph = engine.lower_graph(graph)
        np.testing.assert_array_equal(
            via_compile.forward_batch(x), via_graph.forward_batch(x)
        )

    def test_lower_graph_runs_passes_when_undecided(self, rng):
        graph = build_layer_graph(laptop_model())
        assert graph.undecided()
        plan = engine.lower_graph(graph)
        assert not graph.undecided()
        num_classes = graph.nodes[-1].weights["w"].shape[0]
        assert plan.forward_batch(
            rng.standard_normal((3, 1, 8))
        ).shape == (3, 1, num_classes)

    def test_numeric_executor_from_graph(self, rng):
        model = prune_model(laptop_model())
        graph = build_layer_graph(
            model, options=GraphOptions(sparse_format="auto", num_row_strips=4,
                                        num_col_blocks=4)
        )
        run_passes(graph)
        executor = NumericExecutor.from_graph(graph)
        x = rng.standard_normal(24)
        slot = graph.slot("cell1.weight_hh")
        np.testing.assert_allclose(
            executor.matvec("cell1.weight_hh", x), slot.array @ x, atol=1e-10
        )


class TestGraphSerialization:
    def test_round_trip_preserves_decisions(self, rng):
        model = prune_model(laptop_model())
        graph = build_layer_graph(
            model, scheme="int8",
            options=GraphOptions(sparse_format="auto", num_row_strips=4,
                                 num_col_blocks=4),
        )
        run_passes(graph)
        meta, arrays = graph_to_arrays(graph)
        restored = graph_from_arrays(meta, arrays)
        assert restored.scheme == "int8"
        assert "backend" not in meta
        assert restored.formats() == graph.formats()
        assert not restored.undecided()
        for (_, _, a), (_, _, b) in zip(graph.slots(), restored.slots()):
            # an int8 slot travels as its codes: it comes back with the same
            # nonzeros, which quantize to the same codes and scale
            codes, scale = int8_codes(a.array)
            np.testing.assert_array_equal(b.array != 0, a.array != 0)
            restored_codes, restored_scale = int8_codes(b.array)
            np.testing.assert_array_equal(restored_codes, codes)
            assert restored_scale == scale
            assert a.grid == tuple(b.grid)

    def test_unknown_version_rejected(self):
        graph = build_layer_graph(laptop_model())
        meta, arrays = graph_to_arrays(graph)
        meta["version"] = 99
        with pytest.raises(CompilationError):
            graph_from_arrays(meta, arrays)
