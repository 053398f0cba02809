"""Compressed Sparse Row storage — the baseline format BSPC improves on.

The byte-size model follows the paper's storage accounting: values are
stored at ``value_bytes`` per element (2 for the fp16 mobile-GPU kernels),
column indices at ``index_bytes``, and row pointers at 4 bytes.  ESE-style
non-structured pruning must pay for one index per nonzero, which is exactly
the overhead Section III-A criticizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import SparsityError
from repro.kernels.plans import PlanCacheMixin
from repro.utils.validation import check_2d


@dataclass
class CSRMatrix(PlanCacheMixin):
    """CSR representation of a 2-D matrix.

    Compute (``spmv``/``spmm``) runs :mod:`repro.kernels`, which caches
    an execution plan on the instance.  Reassigning a storage field drops the cached plan; after
    mutating a stored array *in place*, call :meth:`invalidate_plan`.
    """

    shape: Tuple[int, int]
    values: np.ndarray
    col_indices: np.ndarray
    row_ptr: np.ndarray

    #: Op-name prefix :func:`repro.kernels.spmv`/``spmm`` read.
    kernel_prefix = "csr"

    _STRUCTURAL_FIELDS = frozenset({"shape", "values", "col_indices", "row_ptr"})

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        self.col_indices = np.asarray(self.col_indices, dtype=np.int64)
        self.row_ptr = np.asarray(self.row_ptr, dtype=np.int64)
        rows, cols = self.shape
        if self.row_ptr.shape != (rows + 1,):
            raise SparsityError(
                f"row_ptr must have length rows+1={rows + 1}, got {self.row_ptr.shape}"
            )
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != len(self.values):
            raise SparsityError("row_ptr must start at 0 and end at nnz")
        if np.any(np.diff(self.row_ptr) < 0):
            raise SparsityError("row_ptr must be non-decreasing")
        if len(self.col_indices) != len(self.values):
            raise SparsityError("col_indices and values must have equal length")
        if self.col_indices.size and (
            self.col_indices.min() < 0 or self.col_indices.max() >= cols
        ):
            raise SparsityError("col_indices out of range")

    # -- construction -----------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Build from a dense matrix, treating exact zeros as absent.

        ``np.nonzero`` scans row-major, so values/column indices come out
        already grouped by row with columns sorted; the row pointer is a
        cumulative sum of per-row counts.
        """
        dense = check_2d(dense, "dense")
        rows, cols = dense.shape
        row_idx, col_idx = np.nonzero(dense)
        row_ptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_idx, minlength=rows), out=row_ptr[1:])
        return cls(
            shape=(rows, cols),
            values=dense[row_idx, col_idx],
            col_indices=col_idx.astype(np.int64),
            row_ptr=row_ptr,
        )

    # -- conversion ------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Expand back to a dense matrix."""
        rows, cols = self.shape
        dense = np.zeros((rows, cols))
        row_idx = np.repeat(np.arange(rows), np.diff(self.row_ptr))
        dense[row_idx, self.col_indices] = self.values
        return dense

    # -- queries -----------------------------------------------------------
    @property
    def nnz(self) -> int:
        return len(self.values)

    def row_nnz(self) -> np.ndarray:
        """Number of nonzeros per row."""
        return np.diff(self.row_ptr)

    def density(self) -> float:
        """Fraction of stored entries."""
        rows, cols = self.shape
        return self.nnz / float(rows * cols)

    # -- compute ---------------------------------------------------------
    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix × dense vector (:func:`repro.kernels.spmv`)."""
        from repro import kernels

        x = np.asarray(x)
        if x.shape != (self.shape[1],):
            raise SparsityError(f"x must be ({self.shape[1]},), got {x.shape}")
        return kernels.spmv(self, x)

    def spmm(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix × dense matrix (columns are independent vectors)."""
        from repro import kernels

        x = check_2d(x, "x")
        if x.shape[0] != self.shape[1]:
            raise SparsityError(
                f"inner dimensions disagree: {self.shape} @ {x.shape}"
            )
        return kernels.spmm(self, x)

    # -- storage model ----------------------------------------------------
    def nbytes(self, value_bytes: int = 2, index_bytes: int = 2) -> int:
        """Model the stored size: values + column indices + row pointers."""
        return (
            self.nnz * value_bytes
            + self.nnz * index_bytes
            + len(self.row_ptr) * 4
        )
