"""Tests for projection operators (repro.pruning.projections)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.pruning.projections import (
    project_bank_balanced,
    project_block_columns,
    project_columns,
    project_rows,
    project_unstructured,
)
from repro.sparse.blocks import BlockGrid


class TestUnstructured:
    def test_keeps_largest_magnitudes(self):
        w = np.array([[1.0, -5.0], [0.1, 3.0]])
        mask = project_unstructured(w, rate=2.0)
        np.testing.assert_array_equal(mask.keep, [[False, True], [False, True]])

    def test_keep_count_ceil(self):
        w = np.arange(10.0).reshape(2, 5)
        assert project_unstructured(w, rate=3.0).nnz == 4  # ceil(10/3)

    def test_rate_one_keeps_all(self, rng):
        w = rng.standard_normal((4, 4))
        assert project_unstructured(w, rate=1.0).nnz == 16

    def test_rejects_rate_below_one(self):
        with pytest.raises(ConfigError):
            project_unstructured(np.ones((2, 2)), rate=0.5)

    def test_deterministic_tie_break(self):
        w = np.ones((1, 4))
        a = project_unstructured(w, rate=2.0)
        b = project_unstructured(w, rate=2.0)
        np.testing.assert_array_equal(a.keep, b.keep)
        np.testing.assert_array_equal(a.keep, [[True, True, False, False]])

    def test_never_empties(self):
        assert project_unstructured(np.ones((2, 2)), rate=1e9).nnz == 1


class TestRowsCols:
    def test_rows_keeps_largest_norm_rows(self):
        w = np.array([[1.0, 1.0], [5.0, 5.0], [0.1, 0.1], [3.0, 3.0]])
        mask = project_rows(w, rate=2.0)
        np.testing.assert_array_equal(mask.keep.any(axis=1), [False, True, False, True])

    def test_rows_kept_rows_are_full(self):
        w = np.random.default_rng(0).standard_normal((6, 4))
        mask = project_rows(w, rate=3.0)
        kept = mask.keep.any(axis=1)
        assert np.all(mask.keep[kept])  # surviving rows keep every column

    def test_cols_keeps_largest_norm_cols(self):
        w = np.array([[1.0, 5.0, 0.1], [1.0, 5.0, 0.1]])
        mask = project_columns(w, rate=3.0)
        np.testing.assert_array_equal(mask.keep.any(axis=0), [False, True, False])

    def test_rows_requires_2d(self):
        from repro.errors import ShapeError

        with pytest.raises(ShapeError):
            project_rows(np.ones(4), rate=2.0)


class TestBlockColumns:
    def test_per_block_keep_counts(self, rng):
        w = rng.standard_normal((8, 12))
        grid = BlockGrid(8, 12, 2, 3)  # blocks are 4 rows x 4 cols
        mask = project_block_columns(w, grid, rate=4.0)
        for region in grid.regions():
            rs, cs = region.slice()
            cols_kept = mask.keep[rs, cs].any(axis=0).sum()
            assert cols_kept == 1  # ceil(4/4)

    def test_kept_columns_full_within_block(self, rng):
        w = rng.standard_normal((8, 12))
        grid = BlockGrid(8, 12, 2, 3)
        mask = project_block_columns(w, grid, rate=2.0)
        for region in grid.regions():
            rs, cs = region.slice()
            block = mask.keep[rs, cs]
            kept_cols = block.any(axis=0)
            # A kept column is kept for *all* rows of the strip.
            assert np.all(block[:, kept_cols])

    def test_different_strips_may_keep_different_columns(self):
        w = np.zeros((4, 4))
        w[0:2, 0] = 10.0  # strip 0 favors column 0
        w[2:4, 3] = 10.0  # strip 1 favors column 3
        grid = BlockGrid(4, 4, 2, 1)
        mask = project_block_columns(w, grid, rate=4.0)
        assert mask.keep[0, 0] and not mask.keep[0, 3]
        assert mask.keep[2, 3] and not mask.keep[2, 0]

    def test_selects_by_block_local_norm(self):
        w = np.array([[3.0, 1.0, 0.5, 2.0]])
        grid = BlockGrid(1, 4, 1, 2)
        mask = project_block_columns(w, grid, rate=2.0)
        np.testing.assert_array_equal(mask.keep, [[True, False, False, True]])

    def test_shape_mismatch_rejected(self, rng):
        grid = BlockGrid(4, 4, 2, 2)
        with pytest.raises(ConfigError):
            project_block_columns(rng.standard_normal((4, 5)), grid, rate=2.0)

    def test_compression_close_to_rate(self, rng):
        w = rng.standard_normal((32, 64))
        grid = BlockGrid(32, 64, 4, 4)
        mask = project_block_columns(w, grid, rate=4.0)
        assert mask.compression_rate() == pytest.approx(4.0)


class TestBankBalanced:
    def test_equal_nnz_per_row(self, rng):
        w = rng.standard_normal((6, 16))
        mask = project_bank_balanced(w, bank_size=4, rate=2.0)
        row_counts = mask.keep.sum(axis=1)
        assert len(set(row_counts.tolist())) == 1

    def test_equal_nnz_per_bank(self, rng):
        w = rng.standard_normal((4, 16))
        mask = project_bank_balanced(w, bank_size=4, rate=4.0)
        for start in range(0, 16, 4):
            counts = mask.keep[:, start : start + 4].sum(axis=1)
            assert np.all(counts == 1)

    def test_keeps_largest_in_each_bank(self):
        w = np.array([[0.1, 9.0, 0.2, 0.3, 5.0, 0.1, 0.1, 0.1]])
        mask = project_bank_balanced(w, bank_size=4, rate=4.0)
        np.testing.assert_array_equal(
            mask.keep, [[False, True, False, False, True, False, False, False]]
        )

    def test_partial_trailing_bank(self, rng):
        w = rng.standard_normal((3, 10))
        mask = project_bank_balanced(w, bank_size=4, rate=2.0)
        # Banks: 4, 4, 2 → keeps 2 + 2 + 1 per row.
        assert np.all(mask.keep.sum(axis=1) == 5)

    def test_rejects_bad_bank_size(self, rng):
        with pytest.raises(ConfigError):
            project_bank_balanced(rng.standard_normal((2, 4)), bank_size=0, rate=2.0)
        with pytest.raises(ConfigError):
            project_bank_balanced(rng.standard_normal((2, 4)), bank_size=5, rate=2.0)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(2, 16),
    cols=st.integers(2, 16),
    rate=st.floats(1.0, 8.0),
    seed=st.integers(0, 1000),
)
def test_property_projection_idempotent(rows, cols, rate, seed):
    """Projecting an already-projected matrix changes nothing.

    This is the defining property of a Euclidean projection onto a
    coordinate subspace, and what the ADMM Z-update relies on.
    """
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((rows, cols))
    mask1 = project_unstructured(w, rate)
    projected = mask1.apply_to_array(w)
    mask2 = project_unstructured(projected, rate)
    np.testing.assert_array_equal(
        mask2.apply_to_array(projected), projected
    )


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(2, 12),
    cols=st.integers(2, 12),
    rate=st.floats(1.0, 6.0),
    seed=st.integers(0, 1000),
)
def test_property_block_projection_never_over_prunes(rows, cols, rate, seed):
    """Block-column projection keeps >= ceil(block_cols/rate) per block."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((rows, cols))
    strips = min(2, rows)
    blocks = min(2, cols)
    grid = BlockGrid(rows, cols, strips, blocks)
    mask = project_block_columns(w, grid, rate)
    for region in grid.regions():
        rs, cs = region.slice()
        kept = mask.keep[rs, cs].any(axis=0).sum()
        expected = max(1, int(np.ceil(region.shape[1] / rate)))
        assert kept == expected


# The seed's per-region / per-bank loops: the oracle the vectorised
# projections (one batched top-k per block width) must reproduce mask for
# mask, the lower index winning every tie.
def _top_indices(scores, rate):
    keep = max(1, int(np.ceil(len(scores) / rate)))
    return np.lexsort((np.arange(len(scores)), -scores))[:keep]


def _project_block_columns_loop(weight, grid, rate):
    mask = np.zeros(weight.shape, dtype=bool)
    for region in grid.regions():
        rs, cs = region.slice()
        norms = np.linalg.norm(weight[rs, cs], axis=0)
        mask[rs, region.col_start + _top_indices(norms, rate)] = True
    return mask


def _project_bank_balanced_loop(weight, bank_size, rate):
    mask = np.zeros(weight.shape, dtype=bool)
    for start in range(0, weight.shape[1], bank_size):
        for r, scores in enumerate(np.abs(weight[:, start : start + bank_size])):
            mask[r, start + _top_indices(scores, rate)] = True
    return mask


def _weights(rows, cols, tied, seed):
    rng = np.random.default_rng(seed)
    if tied:  # a few small integers: magnitudes and column norms tie exactly, and often
        return rng.integers(-2, 3, size=(rows, cols)).astype(np.float64)
    return rng.standard_normal((rows, cols))


_CASE = dict(rate=st.floats(1.0, 8.0), tied=st.booleans(), seed=st.integers(0, 1000))


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 16), split=st.data(), **_CASE)
def test_property_block_columns_equals_region_loop(rows, cols, split, rate, tied, seed):
    grid = BlockGrid(
        rows, cols, split.draw(st.integers(1, rows)), split.draw(st.integers(1, cols))
    )
    w = _weights(rows, cols, tied, seed)
    np.testing.assert_array_equal(
        project_block_columns(w, grid, rate).keep, _project_block_columns_loop(w, grid, rate)
    )


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 8), cols=st.integers(1, 24), bank=st.integers(1, 24), **_CASE)
def test_property_bank_balanced_equals_bank_loop(rows, cols, bank, rate, tied, seed):
    w = _weights(rows, cols, tied, seed)
    bank_size = min(bank, cols)  # full banks and a ragged tail both occur
    np.testing.assert_array_equal(
        project_bank_balanced(w, bank_size, rate).keep,
        _project_bank_balanced_loop(w, bank_size, rate),
    )
