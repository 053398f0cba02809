"""Tests for plan visualization and the per-layer BSP driver."""

import numpy as np
import pytest

from repro.compiler.codegen import CompileOptions
from repro.compiler.pipeline import compile_weights
from repro.compiler.visualize import describe_plan, render_pattern
from repro.errors import ConfigError
from repro.nn.module import Parameter
from repro.pruning.bsp import BSPConfig, bsp_project_masks
from repro.pruning.per_layer import PerLayerBSPPruner
from repro.sparse.blocks import BlockGrid, grid_for


class TestRenderPattern:
    def test_dense_matrix_all_shaded(self, rng):
        out = render_pattern(rng.standard_normal((8, 8)))
        assert " " not in out.replace("\n", "")
        assert "#" in out

    def test_zero_matrix_all_blank(self):
        out = render_pattern(np.zeros((8, 8)))
        assert set(out.replace("\n", "")) <= {" "}

    def test_row_pruned_shows_blank_rows(self, rng):
        w = rng.standard_normal((8, 8))
        w[4:] = 0.0
        lines = render_pattern(w, max_rows=8, max_cols=8).split("\n")
        assert all(set(line) <= {" "} for line in lines[4:])
        assert all("#" in line for line in lines[:4])

    def test_downsampling_caps_size(self, rng):
        out = render_pattern(rng.standard_normal((200, 300)),
                             max_rows=16, max_cols=40)
        lines = out.split("\n")
        assert len(lines) <= 16
        assert max(len(line) for line in lines) <= 40

    def test_grid_draws_boundaries(self, rng):
        w = rng.standard_normal((8, 8))
        grid = BlockGrid(8, 8, 2, 2)
        out = render_pattern(w, max_rows=8, max_cols=8, grid=grid)
        assert "|" in out
        assert any(set(line) == {"-"} for line in out.split("\n"))

    def test_bsp_pattern_looks_blocky(self, rng):
        w = rng.standard_normal((16, 16))
        masks = bsp_project_masks(
            {"w": w},
            BSPConfig(col_rate=4, row_rate=2, num_row_strips=2, num_col_blocks=2),
        )
        pruned = masks["w"].apply_to_array(w)
        out = render_pattern(pruned, max_rows=16, max_cols=16)
        assert "#" in out and " " in out

    def test_rejects_1d(self):
        from repro.errors import ShapeError

        with pytest.raises(ShapeError):
            render_pattern(np.zeros(4))


class TestDescribePlan:
    def test_mentions_every_layer(self, rng):
        weights = {
            "a": rng.standard_normal((16, 16)),
            "b": rng.standard_normal((16, 16)),
        }
        plan = compile_weights(weights, CompileOptions(num_row_strips=2,
                                                       num_col_blocks=2),
                               timesteps=5)
        text = describe_plan(plan)
        assert "a:" in text and "b:" in text
        assert "2 layers" in text
        assert "GOP/frame" in text

    def test_reports_elimination(self, rng):
        w = rng.standard_normal((16, 16))
        masks = bsp_project_masks(
            {"w": w},
            BSPConfig(col_rate=4, row_rate=1, num_row_strips=2, num_col_blocks=2),
        )
        plan = compile_weights(
            {"w": masks["w"].apply_to_array(w)},
            CompileOptions(num_row_strips=2, num_col_blocks=2),
            timesteps=5,
        )
        assert "eliminated" in describe_plan(plan)


class TestPerLayerBSP:
    def make_params(self, rng):
        return {
            "a": Parameter(rng.standard_normal((8, 8))),
            "b": Parameter(rng.standard_normal((8, 8))),
        }

    def make_config(self, rate, admm=1, retrain=0):
        return BSPConfig(
            col_rate=rate, row_rate=1, num_row_strips=2, num_col_blocks=2,
            step1_admm_epochs=admm, step1_retrain_epochs=retrain,
            step2_admm_epochs=0, step2_retrain_epochs=0,
        )

    def drive(self, pruner, params, rng, epochs):
        for _ in range(epochs):
            for _ in range(2):
                for p in params.values():
                    p.grad = 0.01 * rng.standard_normal(p.data.shape)
                pruner.on_batch_backward()
                for p in params.values():
                    p.data -= 0.01 * p.grad
                pruner.on_batch_end()
            pruner.on_epoch_end()

    def test_different_rates_per_layer(self, rng):
        params = self.make_params(rng)
        pruner = PerLayerBSPPruner(
            params, {"a": self.make_config(2.0), "b": self.make_config(4.0)}
        )
        self.drive(pruner, params, rng, 2)
        assert pruner.finished
        masks = pruner.masks
        assert masks["a"].compression_rate() == pytest.approx(2.0, rel=0.2)
        assert masks["b"].compression_rate() == pytest.approx(4.0, rel=0.2)

    def test_unequal_phase_lengths(self, rng):
        params = self.make_params(rng)
        pruner = PerLayerBSPPruner(
            params,
            {"a": self.make_config(2.0, admm=1), "b": self.make_config(4.0, admm=3)},
        )
        self.drive(pruner, params, rng, 1)
        assert not pruner.finished  # b still pruning
        assert pruner.masks is None or pruner.masks is not None  # no crash
        self.drive(pruner, params, rng, 3)
        assert pruner.finished

    def test_missing_config_rejected(self, rng):
        params = self.make_params(rng)
        with pytest.raises(ConfigError):
            PerLayerBSPPruner(params, {"a": self.make_config(2.0)})

    def test_phase_summary(self, rng):
        params = self.make_params(rng)
        pruner = PerLayerBSPPruner(
            params, {"a": self.make_config(2.0), "b": self.make_config(2.0)}
        )
        summary = pruner.phase_summary()
        assert summary == {"a": "step1_admm", "b": "step1_admm"}

    def test_masks_enforced_on_weights(self, rng):
        params = self.make_params(rng)
        pruner = PerLayerBSPPruner(
            params, {"a": self.make_config(4.0), "b": self.make_config(4.0)}
        )
        self.drive(pruner, params, rng, 2)
        for name, param in params.items():
            assert np.all(param.data[~pruner.masks[name].keep] == 0.0)

