"""Analytic lowering: annotated weight slots → :class:`LayerPlan` kernels.

``lower_matrix`` runs the per-layer pipeline the paper's Figure 3 draws —
now as the shared pass pipeline over a single-slot layer graph:

1. matrix reorder (optional, on by default),
2. redundant-load-elimination analysis (optional, on by default),
3. storage-format selection (BSPC for block-structured weights, CSR for
   irregular ones, dense when unpruned),
4. kernel selection,

then :func:`layer_plan_from_slot` emits the layer statistics the mobile
cost model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.compiler.ir import (
    OP_LINEAR,
    GraphNode,
    GraphOptions,
    LayerGraph,
    LayerPlan,
    TileConfig,
    WeightSlot,
)
from repro.compiler.load_elim import naive_loads
from repro.compiler.passes import run_passes, slot_grid
from repro.errors import CompilationError
from repro.sparse.blocks import BlockGrid, grid_for
from repro.sparse.bspc import BSPCMatrix
from repro.sparse.csr import CSRMatrix
from repro.utils.validation import check_2d


@dataclass(frozen=True)
class CompileOptions:
    """Per-compilation switches (the ablation knobs of the framework)."""

    format_name: str = "bspc"  # "bspc", "csr", or "dense"
    enable_reorder: bool = True
    enable_load_elimination: bool = True
    num_row_strips: int = 4
    num_col_blocks: int = 8
    tile: TileConfig = TileConfig()

    def __post_init__(self) -> None:
        if self.format_name not in ("bspc", "csr", "dense"):
            raise CompilationError(f"unknown format {self.format_name!r}")

    def graph_options(self) -> GraphOptions:
        """The equivalent graph-level options for the pass pipeline."""
        return GraphOptions(
            sparse_format=self.format_name,
            num_row_strips=self.num_row_strips,
            num_col_blocks=self.num_col_blocks,
            enable_reorder=self.enable_reorder,
            enable_load_elimination=self.enable_load_elimination,
            demote_full_density=True,
            tile=self.tile,
        )


def layer_plan_from_slot(slot: WeightSlot) -> LayerPlan:
    """Emit the analytic :class:`LayerPlan` for a fully annotated slot.

    The slot must have been through the pass pipeline with
    ``analytic=True`` (reorder groups and load counts present, format
    decided); this function only does storage accounting.
    """
    weight = slot.array
    mask = weight != 0.0
    nnz = int(mask.sum())
    rows, cols = weight.shape
    value_bytes = slot.tile.value_bytes
    index_bytes = 2
    format_name = slot.format
    if format_name is None:
        raise CompilationError(
            f"slot {slot.name!r} has no decided format; run the pass pipeline"
        )

    if format_name == "dense":
        stored_values = rows * cols
        weight_bytes = stored_values * value_bytes
        metadata_bytes = 0
        kept_rows = rows
        unique_cols = cols
    elif format_name == "csr":
        csr = CSRMatrix.from_dense(weight)
        stored_values = csr.nnz
        weight_bytes = stored_values * value_bytes
        metadata_bytes = csr.nbytes(value_bytes, index_bytes) - weight_bytes
        kept_rows = int(np.any(mask, axis=1).sum())
        unique_cols = int(np.any(mask, axis=0).sum())
    else:
        bspc = BSPCMatrix.from_dense(weight, slot_grid(slot))
        stored_values = bspc.stored_values
        weight_bytes = stored_values * value_bytes
        metadata_bytes = bspc.nbytes(value_bytes, index_bytes) - weight_bytes
        if slot.reordered:
            # The mobile kernel ships the reorder permutation with the
            # matrix: one index per row.
            metadata_bytes += rows * index_bytes
        kept_rows = len(bspc.kept_row_indices())
        unique_cols = len(bspc.unique_col_indices())

    # Dense GEMV reads each input element exactly once; sparse formats
    # carry the load-elimination pass's annotations.
    if format_name == "dense":
        loads_naive = cols
        loads_after = cols
    else:
        loads_naive = (
            slot.act_loads_naive
            if slot.act_loads_naive is not None
            else naive_loads(mask)
        )
        loads_after = (
            slot.act_loads_per_step
            if slot.act_loads_per_step is not None
            else loads_naive
        )

    return LayerPlan(
        name=slot.name,
        shape=(rows, cols),
        format_name=format_name,
        nnz=nnz,
        stored_values=stored_values,
        kept_rows=kept_rows,
        unique_cols=unique_cols,
        flops_per_step=2 * nnz,
        weight_bytes=weight_bytes,
        metadata_bytes=metadata_bytes,
        act_loads_naive=loads_naive,
        act_loads_per_step=loads_after,
        output_writes_per_step=kept_rows,
        groups=slot.groups,
        tile=slot.tile,
        reordered=slot.reordered,
        row_permutation=slot.row_permutation,
    )


def lower_matrix(
    name: str,
    weight: np.ndarray,
    options: Optional[CompileOptions] = None,
    grid: Optional[BlockGrid] = None,
) -> LayerPlan:
    """Compile one pruned weight matrix into a :class:`LayerPlan`.

    ``weight`` carries its sparsity as exact zeros (the convention used by
    every pruner in :mod:`repro.pruning`).  Internally this wraps the
    matrix in a single-slot layer graph and runs the shared pass
    pipeline — the same passes the execution engine's lowering uses.
    """
    options = options or CompileOptions()
    weight = check_2d(np.asarray(weight), "weight")
    if grid is None:
        grid = grid_for(weight, options.num_row_strips, options.num_col_blocks)
    else:
        grid.validate_matrix(weight)
    slot = WeightSlot(
        name=name,
        op=OP_LINEAR,
        array=weight,
        grid=(options.num_row_strips, options.num_col_blocks),
        tile=options.tile,
        block_grid=grid,
    )
    graph = LayerGraph(
        nodes=[GraphNode(name=name, kind="linear", weights={"w": slot})],
        options=options.graph_options(),
    )
    run_passes(graph, analytic=True)
    return layer_plan_from_slot(slot)
