"""Sparse-matrix storage formats: the CSR baseline and the paper's BSPC."""

from repro.sparse.blocks import BlockGrid, BlockRegion, grid_for
from repro.sparse.bspc import BSPCBlock, BSPCMatrix, BSPCStrip
from repro.sparse.csr import CSRMatrix

__all__ = [
    "BlockGrid",
    "BlockRegion",
    "grid_for",
    "CSRMatrix",
    "BSPCMatrix",
    "BSPCStrip",
    "BSPCBlock",
]
