"""Compiler-assisted acceleration: one layer-graph IR, one pass pipeline.

Every consumer lowers from the same :class:`~repro.compiler.ir.LayerGraph`
after the shared pass pipeline (reorder → load elimination → format
selection → kernel selection) has annotated it: the analytic mobile cost
model via :func:`compile_for_simulation`, and the host execution engine
via :func:`repro.engine.compile_model`.  Auto-tuning comes in a
simulated tier (:func:`tune_execution_config`/:func:`find_best_block_size`)
and a measured tier (:func:`tune_plan`, which times the real engine).
"""

from repro.compiler.autotune import (
    MeasuredCandidate,
    PlanTuningResult,
    TuningCandidate,
    TuningResult,
    default_tile_space,
    find_best_block_size,
    tune_execution_config,
    tune_plan,
)
from repro.compiler.codegen import CompileOptions, layer_plan_from_slot, lower_matrix
from repro.compiler.ir import (
    GraphNode,
    GraphOptions,
    KernelPlan,
    LayerGraph,
    LayerPlan,
    QuantBoundary,
    RowGroup,
    TileConfig,
    WeightSlot,
    graph_from_arrays,
    graph_to_arrays,
)
from repro.compiler.load_elim import elimination_ratio, naive_loads, tiled_loads
from repro.compiler.passes import (
    PASS_PIPELINE,
    load_elim_pass,
    reorder_pass,
    run_passes,
    select_formats_pass,
    select_kernels_pass,
)
from repro.compiler.pipeline import (
    CompiledModel,
    build_layer_graph,
    compile_for_simulation,
    compile_weights,
    graph_from_named_weights,
    kernel_plan_from_graph,
    rnn_graph_from_weights,
)
from repro.compiler.reorder import identity_groups, reorder_rows, row_signature
from repro.compiler.visualize import describe_plan, render_pattern

__all__ = [
    # IR
    "TileConfig",
    "RowGroup",
    "LayerPlan",
    "KernelPlan",
    "GraphOptions",
    "WeightSlot",
    "GraphNode",
    "QuantBoundary",
    "LayerGraph",
    "graph_to_arrays",
    "graph_from_arrays",
    # frontends + lowering
    "CompileOptions",
    "lower_matrix",
    "layer_plan_from_slot",
    "build_layer_graph",
    "rnn_graph_from_weights",
    "graph_from_named_weights",
    "kernel_plan_from_graph",
    "compile_weights",
    "compile_for_simulation",
    "CompiledModel",
    # passes
    "run_passes",
    "PASS_PIPELINE",
    "reorder_pass",
    "load_elim_pass",
    "select_formats_pass",
    "select_kernels_pass",
    "reorder_rows",
    "identity_groups",
    "row_signature",
    "naive_loads",
    "tiled_loads",
    "elimination_ratio",
    # tuning
    "tune_execution_config",
    "find_best_block_size",
    "default_tile_space",
    "TuningCandidate",
    "TuningResult",
    "tune_plan",
    "MeasuredCandidate",
    "PlanTuningResult",
    # visualization
    "render_pattern",
    "describe_plan",
]
