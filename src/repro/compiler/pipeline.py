"""End-to-end compilation: model → layer graph → passes → lowering.

This is the user-facing entry of the compiler-assisted framework
(Figure 3).  Every consumer goes through the same route:

* **frontends** build a :class:`~repro.compiler.ir.LayerGraph` — from a
  trained module tree (:func:`build_layer_graph`), a bare GRU weight
  dict (:func:`rnn_graph_from_weights`), or named weight matrices
  (:func:`graph_from_named_weights`, the analytic frontend);
* the shared **pass pipeline** (:mod:`repro.compiler.passes`) annotates
  and decides formats/kernels;
* a **lowering** turns the decided graph into something runnable:
  :func:`kernel_plan_from_graph` for the analytic mobile simulator
  (:func:`compile_for_simulation`), or
  :func:`repro.engine.plan.lower_graph` for the host execution engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.compiler.codegen import CompileOptions, layer_plan_from_slot
from repro.compiler.ir import (
    OP_LINEAR,
    OP_RECURRENT_MATVEC,
    GraphNode,
    GraphOptions,
    KernelPlan,
    LayerGraph,
    WeightSlot,
)
from repro.compiler.passes import run_passes
from repro.errors import CompilationError, ConfigError
from repro.hw.device import DeviceSpec
from repro.hw.energy import EnergyReport, energy_report
from repro.hw.executor import SimulationResult, simulate
from repro.pruning.metrics import FRAMES_PER_INFERENCE
from repro.sparse.blocks import grid_for
from repro.utils.validation import check_2d


# ---------------------------------------------------------------------------
# Frontends: build the shared layer graph
# ---------------------------------------------------------------------------
def graph_from_named_weights(
    named_weights: Dict[str, np.ndarray],
    options: Optional[CompileOptions] = None,
) -> LayerGraph:
    """The analytic frontend: one generic GEMV node per weight matrix.

    ``named_weights`` maps layer names to 2-D arrays whose zeros encode
    the pruning pattern (the output of any :mod:`repro.pruning` method
    applied to a trained model).
    """
    if not named_weights:
        raise CompilationError("graph_from_named_weights() needs at least one matrix")
    options = options or CompileOptions()
    nodes = []
    for name, weight in named_weights.items():
        weight = check_2d(np.asarray(weight), name)
        slot = WeightSlot(
            name=name,
            op=OP_RECURRENT_MATVEC if "weight_hh" in name else OP_LINEAR,
            array=weight,
            grid=(options.num_row_strips, options.num_col_blocks),
            tile=options.tile,
            block_grid=grid_for(
                weight, options.num_row_strips, options.num_col_blocks
            ),
        )
        nodes.append(GraphNode(name=name, kind="linear", weights={"w": slot}))
    return LayerGraph(nodes=nodes, options=options.graph_options())


def _gru_node(
    index: int,
    weight_ih: np.ndarray,
    weight_hh: np.ndarray,
    params: Dict[str, np.ndarray],
    options: GraphOptions,
) -> GraphNode:
    grid = (options.num_row_strips, options.num_col_blocks)
    name = f"cell{index}"
    return GraphNode(
        name=name,
        kind="gru_cell",
        weights={
            "ih": WeightSlot(
                name=f"{name}.weight_ih",
                op=OP_LINEAR,
                array=np.array(weight_ih, dtype=np.float64),
                grid=grid,
                tile=options.tile,
            ),
            "hh": WeightSlot(
                name=f"{name}.weight_hh",
                op=OP_RECURRENT_MATVEC,
                array=np.array(weight_hh, dtype=np.float64),
                grid=grid,
                tile=options.tile,
            ),
        },
        params={k: np.array(v, dtype=np.float64) for k, v in params.items()},
    )


def build_layer_graph(
    model,
    scheme: Optional[str] = None,
    options: Optional[GraphOptions] = None,
) -> LayerGraph:
    """The module-tree frontend: walk a
    :class:`~repro.speech.model.GRUAcousticModel` (or a bare ``GRU``
    stack) once and snapshot it into a layer graph.

    Every array is copied, so later training or pruning of ``model``
    cannot silently change what a lowering of this graph computes.
    """
    from repro.nn.rnn import GRU  # deferred: keep compiler import-light

    options = options or GraphOptions()
    rnn = model if isinstance(model, GRU) else getattr(model, "gru", None)
    if not isinstance(rnn, GRU):
        raise ConfigError(
            f"cannot compile {type(model).__name__}: expected a "
            "GRUAcousticModel or a GRU module"
        )
    nodes = [
        _gru_node(
            index,
            cell.weight_ih.data,
            cell.weight_hh.data,
            {"bias_ih": cell.bias_ih.data, "bias_hh": cell.bias_hh.data},
            options,
        )
        for index, cell in enumerate(rnn.cells)
    ]
    linear = getattr(model, "output", None)
    if linear is not None:
        params = {} if linear.bias is None else {
            "bias": np.array(linear.bias.data, dtype=np.float64)
        }
        nodes.append(
            GraphNode(
                name="output",
                kind="output",
                weights={
                    "w": WeightSlot(
                        name="output.weight",
                        op=OP_LINEAR,
                        array=np.array(linear.weight.data, dtype=np.float64),
                        # The phone projection is small and stays dense —
                        # pinned here so format selection never repacks it.
                        format="dense",
                        grid=(options.num_row_strips, options.num_col_blocks),
                        tile=options.tile,
                    )
                },
                params=params,
            )
        )
    return LayerGraph(nodes=nodes, scheme=scheme, options=options)


def rnn_graph_from_weights(
    weights: Dict[str, np.ndarray],
    scheme: Optional[str] = None,
    options: Optional[GraphOptions] = None,
) -> LayerGraph:
    """The weight-dict frontend: ``gru.cell{i}.weight_ih/_hh`` keys (the
    Table II sweep naming) become GRU cell nodes with zero biases."""
    options = options or GraphOptions()
    num_layers = 0
    while f"gru.cell{num_layers}.weight_ih" in weights:
        num_layers += 1
    if num_layers == 0:
        raise ConfigError(
            "weights must contain 'gru.cell0.weight_ih'; "
            f"got keys {sorted(weights)}"
        )
    nodes = []
    for index in range(num_layers):
        w_ih = np.array(weights[f"gru.cell{index}.weight_ih"], dtype=np.float64)
        w_hh = np.array(weights[f"gru.cell{index}.weight_hh"], dtype=np.float64)
        zeros = np.zeros(w_ih.shape[0])
        nodes.append(
            _gru_node(
                index,
                w_ih,
                w_hh,
                {"bias_ih": zeros, "bias_hh": zeros.copy()},
                options,
            )
        )
    return LayerGraph(nodes=nodes, scheme=scheme, options=options)


# ---------------------------------------------------------------------------
# Analytic lowering + the simulation-facing API
# ---------------------------------------------------------------------------
def kernel_plan_from_graph(
    graph: LayerGraph, timesteps: int = FRAMES_PER_INFERENCE
) -> KernelPlan:
    """Lower a pass-annotated graph to the analytic :class:`KernelPlan`."""
    layers = [layer_plan_from_slot(slot) for _, _, slot in graph.slots()]
    return KernelPlan(layers=layers, timesteps=timesteps)


def compile_weights(
    named_weights: Dict[str, np.ndarray],
    options: Optional[CompileOptions] = None,
    timesteps: int = FRAMES_PER_INFERENCE,
) -> KernelPlan:
    """Lower every weight matrix and assemble the full inference plan."""
    if not named_weights:
        raise CompilationError("compile_weights() needs at least one matrix")
    options = options or CompileOptions()
    graph = graph_from_named_weights(named_weights, options)
    run_passes(graph, analytic=True)
    return kernel_plan_from_graph(graph, timesteps)


@dataclass
class CompiledModel:
    """A compiled model bound to its plan, ready to simulate on devices."""

    plan: KernelPlan
    options: CompileOptions

    @property
    def compression_rate(self) -> float:
        return self.plan.compression_rate

    @property
    def gop_per_frame(self) -> float:
        return self.plan.gop_per_inference

    def simulate(self, device: DeviceSpec) -> SimulationResult:
        """Predict one inference frame's cost on ``device``."""
        return simulate(self.plan, device)

    def energy(self, device: DeviceSpec) -> EnergyReport:
        """Latency + energy report on ``device`` (ESE-normalized)."""
        return energy_report(self.simulate(device), device)


def compile_for_simulation(
    named_weights: Dict[str, np.ndarray],
    options: Optional[CompileOptions] = None,
    timesteps: int = FRAMES_PER_INFERENCE,
) -> CompiledModel:
    """Compile named weight matrices for the analytic mobile simulator.

    This is the cost-model side of the compiler; the executable side is
    :func:`repro.engine.compile_model`, which lowers the same layer-graph
    IR to a host :class:`~repro.engine.plan.ModelPlan`.
    """
    options = options or CompileOptions()
    return CompiledModel(
        plan=compile_weights(named_weights, options, timesteps), options=options
    )
