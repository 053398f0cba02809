"""The shared pass pipeline over the layer graph (Figure 3, unified).

Two analyses and two decisions run over a
:class:`~repro.compiler.ir.LayerGraph`:

1. :func:`reorder_pass` — group rows by nonzero pattern (Section
   IV-B(a)); annotates the permutation and thread row-groups.
2. :func:`load_elim_pass` — redundant-load-elimination analysis
   (Section IV-B(b)); annotates per-step input-load counts.
3. :func:`select_formats_pass` — resolve each weight's storage format
   (dense / CSR / BSPC) from the graph's request, record the graph's
   scheme on each slot, and mark the quantize boundaries an int8 graph
   introduces.  Slots whose format was *pinned* beforehand (by the
   measured auto-tuner or a loaded artifact) pass through untouched, but
   for one rule: int8 has one sparse format, so an int8 slot's CSR is
   BSPC (:func:`int8_sparse_as_bspc`).
4. :func:`select_kernels_pass` — name the kernel each op lowers
   to under the decided format and the graph's scheme.

The analyses annotate every slot, and only the analytic mobile cost
model reads what they annotate, so only it runs them
(``run_passes(graph, analytic=True)``:
:func:`repro.compiler.pipeline.compile_for_simulation`, codegen's
:func:`~repro.compiler.codegen.lower_matrix`, the tuner's analytic
probe).  The execution engine (:func:`repro.engine.compile_model`) runs
the two decisions alone (``run_passes(graph)``): the executed path does
not reorder rows (its threads split batch rows, not weight rows).
"""

from __future__ import annotations

from repro.compiler.ir import (
    GraphOptions,
    LayerGraph,
    QuantBoundary,
    WeightSlot,
    slot_scheme,
)
from repro.compiler.load_elim import naive_loads, tiled_loads
from repro.compiler.reorder import identity_groups, reorder_rows
from repro.sparse.blocks import BlockGrid, grid_for
from repro.sparse.bspc import BSPCMatrix


def slot_grid(slot: WeightSlot) -> BlockGrid:
    """The block grid for a slot: its explicit override, or its
    ``(strips, blocks)`` attribute clamped so small matrices stay legal."""
    if slot.block_grid is not None:
        return slot.block_grid  # type: ignore[return-value]
    rows, cols = slot.shape
    return grid_for(slot.array, min(slot.grid[0], rows), min(slot.grid[1], cols))


def reorder_pass(graph: LayerGraph) -> LayerGraph:
    """Annotate row permutation + pattern groups (matrix reorder) on
    every slot."""
    for _, _, slot in graph.slots():
        mask = slot.array != 0.0
        if graph.options.enable_reorder:
            permutation, groups = reorder_rows(mask, slot_grid(slot))
            slot.reordered = True
        else:
            permutation, groups = identity_groups(mask)
            slot.reordered = False
        slot.row_permutation = permutation
        slot.groups = groups
    return graph


def load_elim_pass(graph: LayerGraph) -> LayerGraph:
    """Annotate input loads per step, naive vs. after tile-level reuse."""
    for _, _, slot in graph.slots():
        if slot.row_permutation is None:
            continue  # not annotated by the reorder pass
        mask = slot.array != 0.0
        slot.act_loads_naive = naive_loads(mask)
        if graph.options.enable_load_elimination:
            slot.act_loads_per_step = tiled_loads(mask, slot.groups, slot.tile)
        else:
            slot.act_loads_per_step = slot.act_loads_naive
    return graph


def _decide_format(slot: WeightSlot, options: GraphOptions, scheme) -> str:
    request = options.sparse_format
    if request in (None, "dense"):
        return "dense"
    rows, cols = slot.shape
    if options.demote_full_density and slot.nnz == rows * cols:
        return "dense"
    if request in ("csr", "bspc"):
        return request
    # "auto": density gate, then the BSPC fill probe — BSP-shaped
    # patterns pack as mostly-full panels, irregular float ones go CSR.
    # Int8 packs every sparse slot as BSPC, so the probe is its matrix.
    if slot.density > options.sparsity_threshold:
        return "dense"
    bspc = BSPCMatrix.from_dense(slot.array, slot_grid(slot))
    if bspc.fill() < 0.5 and scheme != "int8":
        return "csr"
    slot.prebuilt = bspc
    return "bspc"


def _mark_boundaries(graph: LayerGraph) -> None:
    # Every int8 product quantizes its operand with one scale per frame
    # (per batch row of a recurrence's state), accumulates in integers and
    # dequantizes once — the chunk-exact int8 contract.
    slots = graph.slots() if graph.scheme == "int8" else ()
    graph.boundaries = [
        QuantBoundary(slot=slot.name, policy="int8-activations-per-frame")
        for _, _, slot in slots
    ]


def int8_sparse_as_bspc(graph: LayerGraph) -> None:
    """Int8 has one sparse format: every ``"csr"`` slot of an int8 graph —
    the request, a tuner's pin or an artifact saved when int8 had a CSR
    kernel — becomes
    ``"bspc"`` on the slot's own grid.  The codes and scale are the same
    (the peak of the same nonzeros) and integer sums are exact, so the
    products are the same bytes."""
    if graph.scheme == "int8":
        for _, _, slot in graph.slots():
            if slot.format == "csr":
                slot.format = "bspc"
                slot.kernel = kernel_for(slot.op, "bspc", graph.scheme)


def select_formats_pass(graph: LayerGraph) -> LayerGraph:
    """Resolve undecided slot formats, record the graph's scheme on each
    slot, and mark quantize boundaries."""
    for _, _, slot in graph.slots():
        if slot.format is None:
            slot.format = _decide_format(slot, graph.options, graph.scheme)
        if slot.scheme is None:
            slot.scheme = slot_scheme(graph.scheme)
    int8_sparse_as_bspc(graph)
    _mark_boundaries(graph)
    return graph


def kernel_for(op: str, fmt: str, scheme) -> str:
    """The kernel a weight op lowers to: a key of
    :data:`repro.kernels.OPS`, or ``"blas_matmul"`` (the engine binds
    ``np.matmul`` for exactly this name at lowering)."""
    if fmt in ("csr", "bspc"):
        return "bspc_spmm_int8" if scheme == "int8" else f"{fmt}_spmm"
    if scheme == "int8":
        return "linear_int8_rowwise"
    # Dense float64 projections and recurrent steps run as plain BLAS
    # matmuls.
    return "blas_matmul"


def select_kernels_pass(graph: LayerGraph) -> LayerGraph:
    """Name the kernel each weight op lowers to (format + graph scheme)."""
    for _, _, slot in graph.slots():
        slot.kernel = kernel_for(slot.op, slot.format or "dense", graph.scheme)
    return graph


#: The analyses (they annotate, for the cost model) and the decisions
#: (format and kernel selection), each in order.
ANALYSIS_PASSES = (reorder_pass, load_elim_pass)
DECISION_PASSES = (select_formats_pass, select_kernels_pass)
PASS_PIPELINE = ANALYSIS_PASSES + DECISION_PASSES


def run_passes(graph: LayerGraph, analytic: bool = False) -> LayerGraph:
    """Run the decisions over ``graph`` in place and return it; with
    ``analytic``, the analyses first (the full :data:`PASS_PIPELINE`)."""
    for pass_fn in PASS_PIPELINE if analytic else DECISION_PASSES:
        pass_fn(graph)
    return graph


__all__ = [
    "slot_grid",
    "reorder_pass",
    "load_elim_pass",
    "select_formats_pass",
    "select_kernels_pass",
    "int8_sparse_as_bspc",
    "run_passes",
    "ANALYSIS_PASSES",
    "DECISION_PASSES",
    "PASS_PIPELINE",
]
