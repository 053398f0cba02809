"""Execution plans: do the indexing work once, execute dense ops after.

This mirrors the paper's compiler philosophy — BSPC exists so the mobile
kernels never chase per-nonzero indices at run time.  The same idea applied
to our own numpy execution: a plan walks the sparse structure *once*,
packs it into contiguous arrays with precomputed gather/scatter index
vectors, and every subsequent ``spmv``/``spmm`` is a handful of vectorized
numpy ops.

Plans are cached on the matrix object (``matrix._kernel_plan``) and
invalidated automatically when a structural field is reassigned (the
matrices' ``__setattr__`` drops the cache).  Mutating a stored array
*in place* cannot be observed; call ``matrix.invalidate_plan()`` after
doing so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

PLAN_ATTR = "_kernel_plan"
INT8_PLAN_ATTR = "_int8_kernel_plan"
_PLAN_ATTRS = (PLAN_ATTR, INT8_PLAN_ATTR)


class PlanCacheMixin:
    """Plan caching for matrix classes: subclasses set ``_STRUCTURAL_FIELDS``.

    Reassigning any structural field drops the cached plans (float and
    int8); in-place mutation of a stored array is invisible — call
    :meth:`invalidate_plan` afterwards.
    """

    _STRUCTURAL_FIELDS: frozenset = frozenset()

    def __setattr__(self, name: str, value) -> None:
        if name in self._STRUCTURAL_FIELDS:
            for attr in _PLAN_ATTRS:
                self.__dict__.pop(attr, None)
        super().__setattr__(name, value)

    def invalidate_plan(self) -> None:
        """Drop the cached execution plans (call after in-place mutation)."""
        for attr in _PLAN_ATTRS:
            self.__dict__.pop(attr, None)


# ---------------------------------------------------------------------------
# CSR
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CSRPlan:
    """Segment layout for ``np.add.reduceat`` over ``row_ptr``.

    ``reduceat`` cannot express empty segments, so the plan records the
    nonempty rows and their segment starts; empty rows simply keep the
    zero the output buffer starts with.
    """

    shape: Tuple[int, int]
    nonempty_rows: np.ndarray  # rows with >= 1 stored value
    segment_starts: np.ndarray  # row_ptr[nonempty_rows], strictly increasing


def build_csr_plan(matrix) -> CSRPlan:
    """Precompute the reduceat segmentation of a :class:`CSRMatrix`."""
    nonempty = np.flatnonzero(np.diff(matrix.row_ptr))
    return CSRPlan(
        shape=matrix.shape,
        nonempty_rows=nonempty,
        segment_starts=matrix.row_ptr[nonempty],
    )


# ---------------------------------------------------------------------------
# BSPC
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BSPCPlan:
    """All block panels packed into one batched-GEMM operand.

    Per surviving strip the plan horizontally concatenates the block
    panels and their kept-column indices, then pads every strip to the
    common ``(max_rows, max_cols)`` so the whole matrix multiplies as a
    single ``(strips, max_rows, max_cols)`` batched matmul:

    * padded *columns* gather ``x[0]``, which the kernels zero out via
      ``pad_cols`` before the GEMM (zeroing, rather than relying on the
      zero panel entry, keeps a non-finite ``x[0]`` from turning
      ``0 * inf`` into NaN for whole strips);
    * padded *rows* scatter into a sink slot one past the real output
      (``scatter_rows == rows``) that is dropped before returning.

    The real scatter rows strictly increase strip after strip — a
    ``BSPCMatrix``'s strips are row ranges in order with increasing kept
    rows — so each output row is written at most once and the scatter is
    a plain fancy ``+=``.
    """

    shape: Tuple[int, int]
    panels: np.ndarray  # (strips, max_rows, max_cols) float64, zero padded
    gather_cols: np.ndarray  # (strips, max_cols) int64 indices into x
    pad_cols: Optional[np.ndarray]  # (strips, max_cols) bool; None if no padding
    scatter_rows: np.ndarray  # (strips, max_rows) int64; padding == shape[0]

    @property
    def flat_rows(self) -> np.ndarray:
        return self.scatter_rows.reshape(-1)


def build_bspc_plan(matrix) -> BSPCPlan:
    """Pack a :class:`BSPCMatrix`'s panels into a :class:`BSPCPlan`,
    one whole strip per panel."""
    shape = matrix.grid.shape
    packed = []  # (kept_rows, cols, panel) per surviving strip
    for strip in matrix.strips:
        if not strip.kept_rows.size:
            continue
        col_parts = [b.kept_cols for b in strip.blocks if b.kept_cols.size]
        if not col_parts:
            continue
        cols = np.concatenate(col_parts)
        panel = np.concatenate(
            [b.panel for b in strip.blocks if b.kept_cols.size], axis=1
        )
        packed.append((strip.kept_rows, cols, panel))
    if not packed:
        empty_i = np.zeros((0, 0), dtype=np.int64)
        return BSPCPlan(
            shape=shape,
            panels=np.zeros((0, 0, 0)),
            gather_cols=empty_i,
            pad_cols=None,
            scatter_rows=empty_i,
        )

    num = len(packed)
    max_rows = max(kept.size for kept, _, _ in packed)
    max_cols = max(cols.size for _, cols, _ in packed)
    panels = np.zeros((num, max_rows, max_cols))
    gather_cols = np.zeros((num, max_cols), dtype=np.int64)
    pad_cols = np.ones((num, max_cols), dtype=bool)
    scatter_rows = np.full((num, max_rows), shape[0], dtype=np.int64)
    for i, (kept, cols, panel) in enumerate(packed):
        panels[i, : kept.size, : cols.size] = panel
        gather_cols[i, : cols.size] = cols
        pad_cols[i, : cols.size] = False
        scatter_rows[i, : kept.size] = kept

    return BSPCPlan(
        shape=shape,
        panels=panels,
        gather_cols=gather_cols,
        pad_cols=pad_cols if pad_cols.any() else None,
        scatter_rows=scatter_rows,
    )


# ---------------------------------------------------------------------------
# Cache access
# ---------------------------------------------------------------------------
def csr_plan(matrix) -> CSRPlan:
    """Cached :class:`CSRPlan` for ``matrix`` (built on first use)."""
    plan = getattr(matrix, PLAN_ATTR, None)
    if plan is None:
        plan = build_csr_plan(matrix)
        setattr(matrix, PLAN_ATTR, plan)
    return plan


def bspc_plan(matrix) -> BSPCPlan:
    """Cached :class:`BSPCPlan` for ``matrix`` (built on first use)."""
    plan = getattr(matrix, PLAN_ATTR, None)
    if plan is None:
        plan = build_bspc_plan(matrix)
        setattr(matrix, PLAN_ATTR, plan)
    return plan
