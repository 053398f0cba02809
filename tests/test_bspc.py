"""Tests for the BSPC storage format (repro.sparse.bspc)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SparsityError
from repro.pruning.bsp import BSPConfig, bsp_project_masks
from repro.sparse.blocks import BlockGrid, grid_for
from repro.sparse.bspc import BSPCBlock, BSPCMatrix, BSPCStrip
from repro.sparse.csr import CSRMatrix


def bsp_pruned_matrix(rng, shape=(16, 24), col_rate=4.0, row_rate=2.0,
                      strips=4, blocks=3):
    w = rng.standard_normal(shape)
    masks = bsp_project_masks(
        {"w": w},
        BSPConfig(
            col_rate=col_rate,
            row_rate=row_rate,
            num_row_strips=strips,
            num_col_blocks=blocks,
        ),
    )
    return masks["w"].apply_to_array(w), grid_for(w, strips, blocks)


class TestRoundTrip:
    def test_bsp_pruned_round_trip(self, rng):
        pruned, grid = bsp_pruned_matrix(rng)
        bspc = BSPCMatrix.from_dense(pruned, grid)
        np.testing.assert_array_equal(bspc.to_dense(), pruned)

    def test_dense_matrix_round_trip(self, rng):
        w = rng.standard_normal((8, 12))
        grid = grid_for(w, 2, 3)
        np.testing.assert_array_equal(BSPCMatrix.from_dense(w, grid).to_dense(), w)

    def test_all_zero_round_trip(self):
        grid = BlockGrid(4, 6, 2, 2)
        bspc = BSPCMatrix.from_dense(np.zeros((4, 6)), grid)
        np.testing.assert_array_equal(bspc.to_dense(), np.zeros((4, 6)))
        assert bspc.nnz == 0

    def test_irregular_pattern_round_trip(self, rng):
        w = rng.standard_normal((8, 8))
        w[rng.random((8, 8)) > 0.3] = 0.0
        grid = grid_for(w, 2, 2)
        np.testing.assert_array_equal(BSPCMatrix.from_dense(w, grid).to_dense(), w)


class TestSpmv:
    def test_matches_dense_product(self, rng):
        pruned, grid = bsp_pruned_matrix(rng)
        x = rng.standard_normal(pruned.shape[1])
        np.testing.assert_allclose(
            BSPCMatrix.from_dense(pruned, grid).spmv(x), pruned @ x
        )

    def test_matches_csr(self, rng):
        pruned, grid = bsp_pruned_matrix(rng)
        x = rng.standard_normal(pruned.shape[1])
        np.testing.assert_allclose(
            BSPCMatrix.from_dense(pruned, grid).spmv(x),
            CSRMatrix.from_dense(pruned).spmv(x),
        )

    def test_rejects_wrong_length(self, rng):
        pruned, grid = bsp_pruned_matrix(rng)
        bspc = BSPCMatrix.from_dense(pruned, grid)
        with pytest.raises(SparsityError):
            bspc.spmv(np.zeros(pruned.shape[1] + 1))


class TestFill:
    def test_bsp_pattern_has_perfect_fill(self, rng):
        pruned, grid = bsp_pruned_matrix(rng)
        assert BSPCMatrix.from_dense(pruned, grid).fill() == 1.0

    def test_irregular_pattern_has_low_fill(self, rng):
        w = rng.standard_normal((16, 16))
        w[rng.random((16, 16)) > 0.1] = 0.0  # random 10% pattern
        grid = grid_for(w, 2, 2)
        bspc = BSPCMatrix.from_dense(w, grid)
        if bspc.stored_values:  # pattern non-empty
            assert bspc.fill() < 0.8

    def test_empty_fill_is_one(self):
        grid = BlockGrid(4, 4, 2, 2)
        assert BSPCMatrix.from_dense(np.zeros((4, 4)), grid).fill() == 1.0


class TestStructureQueries:
    def test_kept_rows(self, rng):
        pruned, grid = bsp_pruned_matrix(rng)
        expected = np.flatnonzero(np.any(pruned != 0, axis=1))
        np.testing.assert_array_equal(
            BSPCMatrix.from_dense(pruned, grid).kept_row_indices(), expected
        )

    def test_unique_cols(self, rng):
        pruned, grid = bsp_pruned_matrix(rng)
        expected = np.flatnonzero(np.any(pruned != 0, axis=0))
        np.testing.assert_array_equal(
            BSPCMatrix.from_dense(pruned, grid).unique_col_indices(), expected
        )

    def test_nnz_matches_dense(self, rng):
        pruned, grid = bsp_pruned_matrix(rng)
        assert BSPCMatrix.from_dense(pruned, grid).nnz == np.count_nonzero(pruned)


class TestStorageModel:
    def test_smaller_than_csr_for_block_patterns(self, rng):
        # The point of the format: per-block row/col indices beat
        # per-nonzero CSR indices for BSP patterns.
        pruned, grid = bsp_pruned_matrix(rng, shape=(48, 64), strips=4, blocks=4)
        bspc_bytes = BSPCMatrix.from_dense(pruned, grid).nbytes()
        csr_bytes = CSRMatrix.from_dense(pruned).nbytes()
        assert bspc_bytes < csr_bytes

    def test_value_bytes_scaling(self, rng):
        pruned, grid = bsp_pruned_matrix(rng)
        bspc = BSPCMatrix.from_dense(pruned, grid)
        assert bspc.nbytes(value_bytes=4) > bspc.nbytes(value_bytes=2)


class TestValidation:
    def test_wrong_strip_count_rejected(self):
        grid = BlockGrid(4, 4, 2, 2)
        with pytest.raises(SparsityError):
            BSPCMatrix(grid=grid, strips=[])

    def test_wrong_block_count_rejected(self):
        grid = BlockGrid(4, 4, 2, 2)
        strips = [BSPCStrip(kept_rows=np.array([r]), blocks=[]) for r in (0, 2)]
        with pytest.raises(SparsityError, match="blocks"):
            BSPCMatrix(grid=grid, strips=strips)

    @pytest.mark.parametrize(
        "kept",
        [
            ([0, 1, 2], [2, 3]),  # row 2 in both strips; strip 0 is rows 0-1
            ([0, 1], [1, 3]),
            ([1, 0], [2, 3]),
            ([0, 0], [3]),
            ([-1], [3]),
            ([[0, 1]], [3]),
        ],
    )
    def test_kept_rows_must_strictly_increase_inside_their_strip(self, kept):
        # the kernels write each kept row once, strip after strip, in order
        strips = [
            BSPCStrip(np.array(rows), [BSPCBlock(np.arange(4), np.ones((len(rows), 4)))])
            for rows in kept
        ]
        with pytest.raises(SparsityError, match="strictly increase"):
            BSPCMatrix(grid=BlockGrid(4, 4, 2, 1), strips=strips)

    def test_panel_row_mismatch_rejected(self):
        grid = BlockGrid(4, 4, 1, 1)
        bad = BSPCStrip(
            kept_rows=np.array([0, 1]),
            blocks=[BSPCBlock(kept_cols=np.array([0]), panel=np.zeros((3, 1)))],
        )
        with pytest.raises(SparsityError):
            BSPCMatrix(grid=grid, strips=[bad])

    def test_panel_col_mismatch_rejected(self):
        with pytest.raises(SparsityError):
            BSPCBlock(kept_cols=np.array([0, 1]), panel=np.zeros((2, 1)))


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(2, 20),
    cols=st.integers(2, 20),
    density=st.floats(0.05, 1.0),
    seed=st.integers(0, 10_000),
)
def test_property_bspc_round_trip_any_pattern(rows, cols, density, seed):
    """BSPC encodes *any* sparsity pattern losslessly."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((rows, cols))
    w[rng.random((rows, cols)) > density] = 0.0
    grid = BlockGrid(rows, cols, min(3, rows), min(3, cols))
    bspc = BSPCMatrix.from_dense(w, grid)
    np.testing.assert_array_equal(bspc.to_dense(), w)
    x = rng.standard_normal(cols)
    np.testing.assert_allclose(bspc.spmv(x), w @ x, atol=1e-12)
