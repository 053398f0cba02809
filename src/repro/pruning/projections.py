"""Projection operators onto sparsity-constraint sets.

These implement the ADMM Z-update (Eq. 4 of the paper): Euclidean
projection of ``W + U`` onto the constraint set ``S``.  Each function maps a
weight matrix to the *keep mask* of its projection; the projected matrix is
then simply ``mask * W`` since all sets here are coordinate subspaces.

Available sets:

* unstructured magnitude (ESE-style non-structured pruning),
* whole-matrix row pruning / column pruning (filter/channel analogues of
  Figure 2),
* block column pruning — BSP Step 1: inside each block of a
  :class:`~repro.sparse.blocks.BlockGrid`, keep the strongest columns,
* bank-balanced pruning (the BBS baseline).

All keep counts are computed with ``ceil`` so a requested compression rate
never over-prunes to zero, and ties are broken deterministically by index.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.pruning.mask import PruningMask
from repro.sparse.blocks import BlockGrid
from repro.utils.validation import check_2d


def _keep_count(total: int, rate: float) -> int:
    """How many of ``total`` items survive compression ``rate`` (>= 1)."""
    if rate < 1.0:
        raise ConfigError(f"compression rate must be >= 1, got {rate}")
    return max(1, int(np.ceil(total / rate)))


def _top_indices(scores: np.ndarray, keep: int) -> np.ndarray:
    """Indices of the ``keep`` largest scores; ties resolved by lower index."""
    if keep >= len(scores):
        return np.arange(len(scores))
    # argsort on (-score, index) gives deterministic tie-breaking.
    order = np.lexsort((np.arange(len(scores)), -scores))
    return np.sort(order[:keep])


def _top_mask_rows(scores: np.ndarray, keep: int) -> np.ndarray:
    """Per-row boolean mask keeping the ``keep`` largest of each row.

    Vectorized equivalent of calling :func:`_top_indices` on every row,
    with identical tie-breaking: ``np.argpartition`` finds each row's
    ``keep``-th largest value, every strictly larger entry is kept, and
    ties *at* that threshold are filled lowest-index-first (a cumulative
    count over the equal entries) until the row's quota is met.
    """
    rows, n = scores.shape
    if keep >= n:
        return np.ones((rows, n), dtype=bool)
    split = np.argpartition(scores, n - keep, axis=1)[:, n - keep]
    kth = scores[np.arange(rows), split][:, None]
    greater = scores > kth
    need_equal = keep - greater.sum(axis=1)
    equal = scores == kth
    tie_rank = np.cumsum(equal, axis=1)  # 1-based rank among a row's ties
    return greater | (equal & (tie_rank <= need_equal[:, None]))


def project_unstructured(weight: np.ndarray, rate: float) -> PruningMask:
    """Keep the ``1/rate`` fraction of weights with largest magnitude."""
    weight = np.asarray(weight)
    flat = np.abs(weight).reshape(-1)
    keep = _keep_count(flat.size, rate)
    mask = np.zeros(flat.size, dtype=bool)
    mask[_top_indices(flat, keep)] = True
    return PruningMask(mask.reshape(weight.shape))


def project_rows(weight: np.ndarray, rate: float) -> PruningMask:
    """Keep the ``1/rate`` fraction of rows with largest L2 norm.

    This is BSP Step 2 ('column-based row pruning' over the whole matrix)
    and also the classic filter-pruning baseline.
    """
    weight = check_2d(weight, "weight")
    norms = np.linalg.norm(weight, axis=1)
    keep_rows = _top_indices(norms, _keep_count(weight.shape[0], rate))
    mask = np.zeros(weight.shape, dtype=bool)
    mask[keep_rows, :] = True
    return PruningMask(mask)


def project_columns(weight: np.ndarray, rate: float) -> PruningMask:
    """Keep the ``1/rate`` fraction of whole columns with largest L2 norm
    (channel-pruning analogue)."""
    weight = check_2d(weight, "weight")
    norms = np.linalg.norm(weight, axis=0)
    keep_cols = _top_indices(norms, _keep_count(weight.shape[1], rate))
    mask = np.zeros(weight.shape, dtype=bool)
    mask[:, keep_cols] = True
    return PruningMask(mask)


def project_block_columns(
    weight: np.ndarray, grid: BlockGrid, rate: float
) -> PruningMask:
    """BSP Step 1: within every block region, keep the strongest columns.

    For each of the grid's ``Numr × Numc`` regions, column scores are the
    L2 norms of the column segments *inside that region*, so different row
    strips may keep different columns — the finer granularity that lets BSP
    out-compress whole-matrix structured pruning at equal accuracy.

    Vectorized: all per-strip column norms come from one
    ``np.add.reduceat`` over the squared matrix, blocks of equal width
    share one batched top-k (:func:`_top_mask_rows`), and the per-strip
    column mask expands to rows with a single ``np.repeat`` — this is the
    projection the ADMM Z-update runs every retraining epoch.
    """
    weight = grid.validate_matrix(check_2d(weight, "weight"))
    rows, cols = weight.shape
    strips = grid.num_row_strips
    row_starts = np.array([r0 for r0, _ in grid.row_bounds()], dtype=np.int64)
    scores = np.sqrt(np.add.reduceat(np.square(weight), row_starts, axis=0))
    col_mask = np.zeros((strips, cols), dtype=bool)
    by_width: dict = {}
    for c0, c1 in grid.col_bounds():
        by_width.setdefault(c1 - c0, []).append((c0, c1))
    for width, spans in by_width.items():
        keep = _keep_count(width, rate)
        cols_idx = np.concatenate([np.arange(c0, c1) for c0, c1 in spans])
        banks = scores[:, cols_idx].reshape(strips * len(spans), width)
        col_mask[:, cols_idx] = _top_mask_rows(banks, keep).reshape(
            strips, len(spans) * width
        )
    strip_sizes = np.diff(np.append(row_starts, rows))
    return PruningMask(np.repeat(col_mask, strip_sizes, axis=0))


def project_bank_balanced(
    weight: np.ndarray, bank_size: int, rate: float
) -> PruningMask:
    """Bank-balanced sparsity (BBS, Cao et al. 2019).

    Each row is split into consecutive banks of ``bank_size`` columns; the
    same number of largest-magnitude weights is kept in every bank, so all
    rows (and all banks) carry identical nonzero counts — load balance by
    construction, at the cost of coarser weight selection than BSP.
    """
    weight = check_2d(weight, "weight")
    rows, cols = weight.shape
    if bank_size < 1 or bank_size > cols:
        raise ConfigError(f"bank_size must be in [1, {cols}], got {bank_size}")
    scores = np.abs(weight)
    mask = np.zeros(weight.shape, dtype=bool)
    # All full banks reshape to one (rows * num_full, bank_size) batch and
    # share a single top-k pass; a ragged trailing bank (different width,
    # hence different keep count) gets its own pass.
    num_full, tail = divmod(cols, bank_size)
    if num_full:
        full_cols = num_full * bank_size
        banks = scores[:, :full_cols].reshape(rows * num_full, bank_size)
        keep = _keep_count(bank_size, rate)
        mask[:, :full_cols] = _top_mask_rows(banks, keep).reshape(rows, full_cols)
    if tail:
        keep = _keep_count(tail, rate)
        mask[:, num_full * bank_size :] = _top_mask_rows(
            scores[:, num_full * bank_size :], keep
        )
    return PruningMask(mask)

