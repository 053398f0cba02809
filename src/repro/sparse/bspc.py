"""BSPC — Block-based Structured Pruning Compact storage format.

Section IV-B(c) of the paper: after BSP pruning, the surviving weights of
each block live only in certain rows and columns of that block, so instead
of one column index per nonzero (CSR), BSPC stores

* per row strip: the list of surviving (unpruned) global row indices,
* per block within the strip: the list of surviving global column indices,
* per block: a dense value panel of shape ``(kept_rows, kept_cols)``.

Index storage is therefore proportional to ``kept_rows + kept_cols`` per
block instead of ``nnz`` — the memory-footprint reduction the paper credits
for alleviating the memory-bound regime of RNN inference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.errors import SparsityError
from repro.kernels.plans import PlanCacheMixin
from repro.sparse.blocks import BlockGrid
from repro.utils.validation import check_2d


@dataclass
class BSPCBlock:
    """One block's payload: surviving column indices + dense value panel."""

    kept_cols: np.ndarray  # global column indices, sorted
    panel: np.ndarray  # (kept_rows_in_strip, len(kept_cols))

    def __post_init__(self) -> None:
        self.kept_cols = np.asarray(self.kept_cols, dtype=np.int64)
        self.panel = np.asarray(self.panel, dtype=np.float64)
        if self.panel.ndim != 2:
            raise SparsityError(f"panel must be 2-D, got {self.panel.shape}")
        if self.panel.shape[1] != len(self.kept_cols):
            raise SparsityError(
                f"panel has {self.panel.shape[1]} columns but "
                f"{len(self.kept_cols)} kept_cols"
            )


@dataclass
class BSPCStrip:
    """One row strip: surviving row indices + one block payload per block."""

    kept_rows: np.ndarray  # global row indices, sorted
    blocks: List[BSPCBlock] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.kept_rows = np.asarray(self.kept_rows, dtype=np.int64)


@dataclass
class BSPCMatrix(PlanCacheMixin):
    """A matrix stored in the BSPC format.

    Build with :meth:`from_dense`; the constructor validates structural
    consistency: panel shapes vs. kept rows/cols, and each strip's kept
    rows strictly increasing inside that strip's grid rows — so kept rows
    taken strip after strip are in output-row order, each row once, which
    the kernels' scatters rely on.  Compute dispatches
    through :mod:`repro.kernels`; reassigning a structural field drops
    the cached execution plan (see :class:`PlanCacheMixin`).
    """

    grid: BlockGrid
    strips: List[BSPCStrip]

    #: Op-name prefix :func:`repro.kernels.spmv`/``spmm`` read.
    kernel_prefix = "bspc"

    _STRUCTURAL_FIELDS = frozenset({"grid", "strips"})

    def __post_init__(self) -> None:
        if len(self.strips) != self.grid.num_row_strips:
            raise SparsityError(
                f"expected {self.grid.num_row_strips} strips, got {len(self.strips)}"
            )
        for index, (strip, (start, stop)) in enumerate(
            zip(self.strips, self.grid.row_bounds())
        ):
            rows = strip.kept_rows
            if rows.ndim != 1 or rows.size and (
                rows[0] < start or rows[-1] >= stop or (np.diff(rows) <= 0).any()
            ):
                raise SparsityError(
                    f"strip {index} kept_rows must strictly increase inside rows "
                    f"[{start}, {stop}), got {rows.tolist()}"
                )
            if len(strip.blocks) != self.grid.num_col_blocks:
                raise SparsityError(
                    f"every strip needs {self.grid.num_col_blocks} blocks, "
                    f"got {len(strip.blocks)}"
                )
            for block in strip.blocks:
                if block.panel.shape[0] != len(strip.kept_rows):
                    raise SparsityError(
                        f"panel rows {block.panel.shape[0]} != kept rows "
                        f"{len(strip.kept_rows)}"
                    )

    # -- construction -----------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray, grid: BlockGrid) -> "BSPCMatrix":
        """Encode a (pruned) dense matrix.

        Surviving rows are those with any nonzero in the strip; surviving
        columns of a block are those with any nonzero inside the block
        region restricted to surviving rows.  Encoding any matrix is legal —
        a poorly block-structured matrix simply yields panels padded with
        explicit zeros (its :meth:`fill` drops below 1), which is how the
        compiler quantifies how BSP-friendly a sparsity pattern is.
        """
        dense = grid.validate_matrix(check_2d(dense, "dense"))
        strips: List[BSPCStrip] = []
        for r0, r1 in grid.row_bounds():
            strip_rows = dense[r0:r1]
            local_kept = np.flatnonzero(np.any(strip_rows != 0.0, axis=1))
            kept_rows = local_kept + r0
            blocks: List[BSPCBlock] = []
            for c0, c1 in grid.col_bounds():
                region = strip_rows[local_kept][:, c0:c1]
                local_cols = np.flatnonzero(np.any(region != 0.0, axis=0))
                kept_cols = local_cols + c0
                panel = region[:, local_cols]
                blocks.append(BSPCBlock(kept_cols=kept_cols, panel=panel))
            strips.append(BSPCStrip(kept_rows=kept_rows, blocks=blocks))
        return cls(grid=grid, strips=strips)

    # -- conversion ------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Expand back to a dense matrix (exact round trip of from_dense)."""
        dense = np.zeros(self.grid.shape)
        for strip in self.strips:
            for block in strip.blocks:
                if strip.kept_rows.size and block.kept_cols.size:
                    dense[np.ix_(strip.kept_rows, block.kept_cols)] = block.panel
        return dense

    # -- queries -----------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of true nonzeros stored in the panels."""
        return int(sum(np.count_nonzero(b.panel) for s in self.strips for b in s.blocks))

    @property
    def stored_values(self) -> int:
        """Number of stored panel entries (>= nnz; zeros are padded)."""
        return int(sum(b.panel.size for s in self.strips for b in s.blocks))

    def fill(self) -> float:
        """Fraction of stored entries that are true nonzeros (1.0 = ideal).

        BSP-pruned matrices achieve fill 1.0 because pruning removes whole
        rows/columns per block; irregular patterns pad zeros and score lower.
        """
        stored = self.stored_values
        return self.nnz / stored if stored else 1.0

    def kept_row_indices(self) -> np.ndarray:
        """Sorted global indices of all surviving rows."""
        parts = [s.kept_rows for s in self.strips if s.kept_rows.size]
        return np.sort(np.concatenate(parts)) if parts else np.zeros(0, dtype=np.int64)

    def unique_col_indices(self) -> np.ndarray:
        """Sorted global indices of columns read by at least one block."""
        parts = [b.kept_cols for s in self.strips for b in s.blocks if b.kept_cols.size]
        return np.unique(np.concatenate(parts)) if parts else np.zeros(0, dtype=np.int64)

    # -- compute ---------------------------------------------------------
    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Matrix × vector using only the stored panels.

        This is the computation pattern the mobile kernels execute: gather
        the input elements a block needs, multiply the dense panel,
        scatter-accumulate into surviving output rows.  Runs
        :func:`repro.kernels.spmv`, which packs all panels into one batched
        GEMM at plan-build time.
        """
        from repro import kernels

        x = np.asarray(x)
        if x.shape != (self.grid.cols,):
            raise SparsityError(f"x must be ({self.grid.cols},), got {x.shape}")
        return kernels.spmv(self, x)

    def spmm(self, x: np.ndarray) -> np.ndarray:
        """Matrix × dense matrix; columns of ``x`` are independent inputs.

        The batched counterpart of :meth:`spmv` (one gather + batched panel
        GEMM for the whole batch), which is what batched inference uses.
        """
        from repro import kernels

        x = check_2d(x, "x")
        if x.shape[0] != self.grid.cols:
            raise SparsityError(
                f"inner dimensions disagree: {self.grid.shape} @ {x.shape}"
            )
        return kernels.spmm(self, x)

    # -- storage model ----------------------------------------------------
    def nbytes(self, value_bytes: int = 2, index_bytes: int = 2) -> int:
        """Model the stored size.

        values: ``stored_values * value_bytes``;
        metadata: per-strip kept-row indices + per-block kept-column indices
        + a fixed 8-byte header per block (panel dims) — all the kernel
        needs; no per-nonzero index is ever stored.
        """
        total = self.stored_values * value_bytes
        for strip in self.strips:
            total += len(strip.kept_rows) * index_bytes
            for block in strip.blocks:
                total += len(block.kept_cols) * index_bytes + 8
        return total
