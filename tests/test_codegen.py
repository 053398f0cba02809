"""Tests for lowering (repro.compiler.codegen) and the IR invariants."""

import numpy as np
import pytest

from repro.compiler.codegen import CompileOptions, lower_matrix
from repro.compiler.ir import KernelPlan, LayerPlan, RowGroup, TileConfig
from repro.errors import CompilationError
from repro.pruning.bsp import BSPConfig, bsp_project_masks


def pruned_weight(rng, shape=(24, 32), col_rate=4.0, row_rate=2.0):
    w = rng.standard_normal(shape)
    masks = bsp_project_masks(
        {"w": w},
        BSPConfig(col_rate=col_rate, row_rate=row_rate, num_row_strips=4,
                  num_col_blocks=4),
    )
    return masks["w"].apply_to_array(w)


class TestTileConfig:
    def test_value_bytes(self):
        assert TileConfig(use_fp16=True).value_bytes == 2
        assert TileConfig(use_fp16=False).value_bytes == 4

    def test_rejects_bad_rows(self):
        with pytest.raises(CompilationError):
            TileConfig(rows_per_thread=0)

    def test_rejects_bad_unroll(self):
        with pytest.raises(CompilationError):
            TileConfig(unroll=0)


class TestLowerMatrix:
    def test_basic_fields(self, rng):
        w = pruned_weight(rng)
        plan = lower_matrix("layer", w)
        assert plan.shape == (24, 32)
        assert plan.nnz == np.count_nonzero(w)
        assert plan.flops_per_step == 2 * plan.nnz
        assert plan.format_name == "bspc"

    def test_kept_rows_and_cols(self, rng):
        w = pruned_weight(rng)
        plan = lower_matrix("layer", w)
        assert plan.kept_rows == int(np.any(w != 0, axis=1).sum())
        assert plan.unique_cols == int(np.any(w != 0, axis=0).sum())

    def test_dense_weight_uses_dense_format(self, rng):
        w = rng.standard_normal((8, 8))
        plan = lower_matrix("layer", w)
        assert plan.format_name == "dense"
        assert plan.stored_values == 64
        assert plan.metadata_bytes == 0
        assert plan.act_loads_per_step == 8

    def test_csr_format_option(self, rng):
        w = pruned_weight(rng)
        plan = lower_matrix("layer", w, CompileOptions(format_name="csr"))
        assert plan.format_name == "csr"
        assert plan.metadata_bytes > 0
        assert plan.stored_values == plan.nnz

    def test_bspc_metadata_smaller_than_csr_for_bsp_patterns(self, rng):
        w = pruned_weight(rng, shape=(48, 64))
        bspc = lower_matrix("layer", w, CompileOptions(format_name="bspc"))
        csr = lower_matrix("layer", w, CompileOptions(format_name="csr"))
        assert bspc.metadata_bytes < csr.metadata_bytes

    def test_load_elimination_reduces_loads(self, rng):
        w = pruned_weight(rng)
        with_elim = lower_matrix(
            "layer", w, CompileOptions(enable_load_elimination=True)
        )
        without = lower_matrix(
            "layer", w, CompileOptions(enable_load_elimination=False)
        )
        assert with_elim.act_loads_per_step < without.act_loads_per_step
        assert without.act_loads_per_step == without.act_loads_naive
        assert with_elim.load_elimination_ratio > 0.0

    def test_reorder_toggle_changes_groups(self, rng):
        w = pruned_weight(rng)
        with_reorder = lower_matrix("layer", w, CompileOptions(enable_reorder=True))
        without = lower_matrix("layer", w, CompileOptions(enable_reorder=False))
        assert with_reorder.reordered
        assert not without.reordered
        assert len(without.groups) == 1
        assert len(with_reorder.groups) >= 1

    def test_reorder_permutation_costs_one_index_per_row(self, rng):
        w = pruned_weight(rng)
        with_reorder = lower_matrix("layer", w, CompileOptions(enable_reorder=True))
        without = lower_matrix("layer", w, CompileOptions(enable_reorder=False))
        assert with_reorder.metadata_bytes == without.metadata_bytes + 24 * 2

    def test_permutation_always_full(self, rng):
        w = pruned_weight(rng)
        plan = lower_matrix("layer", w)
        assert sorted(plan.row_permutation.tolist()) == list(range(24))

    def test_fp16_halves_weight_bytes(self, rng):
        w = pruned_weight(rng)
        fp16 = lower_matrix("l", w, CompileOptions(tile=TileConfig(use_fp16=True)))
        fp32 = lower_matrix("l", w, CompileOptions(tile=TileConfig(use_fp16=False)))
        assert fp32.weight_bytes == 2 * fp16.weight_bytes

    def test_output_writes_equal_kept_rows(self, rng):
        w = pruned_weight(rng)
        plan = lower_matrix("layer", w)
        assert plan.output_writes_per_step == plan.kept_rows

    def test_rejects_unknown_format(self, rng):
        with pytest.raises(CompilationError):
            CompileOptions(format_name="coo")

    def test_rejects_1d_weight(self):
        from repro.errors import ShapeError

        with pytest.raises(ShapeError):
            lower_matrix("layer", np.ones(4))


class TestIRValidation:
    def test_layer_plan_rejects_unknown_format(self):
        with pytest.raises(CompilationError):
            LayerPlan(
                name="x", shape=(2, 2), format_name="weird", nnz=1,
                stored_values=1, kept_rows=1, unique_cols=1, flops_per_step=2,
                weight_bytes=2, metadata_bytes=0, act_loads_naive=1,
                act_loads_per_step=1, output_writes_per_step=1,
            )

    def test_layer_plan_rejects_stored_below_nnz(self):
        with pytest.raises(CompilationError):
            LayerPlan(
                name="x", shape=(2, 2), format_name="csr", nnz=3,
                stored_values=2, kept_rows=1, unique_cols=1, flops_per_step=6,
                weight_bytes=6, metadata_bytes=0, act_loads_naive=3,
                act_loads_per_step=3, output_writes_per_step=1,
            )

    def test_layer_plan_rejects_load_increase(self):
        with pytest.raises(CompilationError):
            LayerPlan(
                name="x", shape=(2, 2), format_name="csr", nnz=2,
                stored_values=2, kept_rows=1, unique_cols=1, flops_per_step=4,
                weight_bytes=4, metadata_bytes=0, act_loads_naive=2,
                act_loads_per_step=3, output_writes_per_step=1,
            )

    def test_row_group_rejects_misaligned_arrays(self):
        with pytest.raises(CompilationError):
            RowGroup(
                rows=np.array([0, 1]),
                nnz_per_row=np.array([1]),
                pattern_key=(0,),
                unique_cols=1,
            )

    def test_kernel_plan_rejects_empty(self):
        with pytest.raises(CompilationError):
            KernelPlan(layers=[], timesteps=1)

    def test_kernel_plan_rejects_zero_timesteps(self, rng):
        plan = lower_matrix("l", pruned_weight(rng))
        with pytest.raises(CompilationError):
            KernelPlan(layers=[plan], timesteps=0)

    def test_kernel_plan_aggregates(self, rng):
        layer = lower_matrix("l", pruned_weight(rng))
        plan = KernelPlan(layers=[layer, layer], timesteps=10)
        assert plan.total_nnz == 2 * layer.nnz
        assert plan.total_params == 2 * 24 * 32
        assert plan.flops_per_inference == 2 * layer.flops_per_step * 10
        assert plan.compression_rate == pytest.approx(
            (2 * 24 * 32) / (2 * layer.nnz)
        )
        assert plan.gop_per_inference == pytest.approx(
            plan.flops_per_inference / 1e9
        )
