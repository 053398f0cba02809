"""Tests for repro.sweep: grid construction, chaos-resume bit-exactness
across quantization schemes, retry budgets, straggler kills, and
registry lineage."""

import json

import numpy as np
import pytest

from repro.engine.registry import PlanRegistry
from repro.errors import ConfigError, SweepError
from repro.sweep import (
    SweepCell,
    SweepConfig,
    build_grid,
    chaos_fault_for,
    load_cell_result,
    run_sweep,
)
from repro.sweep.cell import cell_dir

_TINY = dict(
    rates=((2.0, 1.25),),
    workers=2,
    hidden_size=12,
    num_train=6,
    num_test=2,
    batch_size=3,
    dense_epochs=1,
)


def _config(tmp_path, name="state", schemes=(None,), **overrides):
    settings = dict(_TINY, schemes=schemes)
    settings.update(overrides)
    return SweepConfig(state_dir=tmp_path / name, **settings)


class TestGrid:
    def test_cell_name_is_registry_safe(self):
        cell = SweepCell(col_rate=8.0, row_rate=1.25, scheme="int8")
        assert cell.name == "c8-r1.25-int8-g2x2"
        assert cell.nominal_compression == pytest.approx(10.0)

    def test_scheme_none_reads_float(self):
        assert "float" in SweepCell(2.0, 1.25, None).name

    def test_validation(self):
        with pytest.raises(ConfigError):
            SweepCell(col_rate=0.5, row_rate=1.25, scheme=None)
        with pytest.raises(ConfigError):
            SweepCell(col_rate=2.0, row_rate=1.25, scheme="fp32")
        with pytest.raises(ConfigError):
            SweepCell(2.0, 1.25, None, num_row_strips=0)

    @pytest.mark.parametrize("scheme", ["fp16", "mixed"])
    def test_a_removed_scheme_is_a_config_error(self, scheme):
        with pytest.raises(ConfigError, match=f"'{scheme}'"):
            SweepCell(col_rate=2.0, row_rate=1.25, scheme=scheme)

    @pytest.mark.parametrize("scheme", ["fp16", "mixed"])
    def test_a_grid_with_a_removed_scheme_is_a_config_error(self, tmp_path, scheme):
        with pytest.raises(ConfigError, match=f"'{scheme}'"):
            _config(tmp_path, schemes=(None, scheme)).grid()

    def test_build_grid_deterministic_order(self):
        grid = build_grid(
            rates=((2.0, 1.25), (4.0, 1.25)),
            schemes=(None, "int8"),
        )
        assert [cell.name for cell in grid] == [
            "c2-r1.25-float-g2x2",
            "c2-r1.25-int8-g2x2",
            "c4-r1.25-float-g2x2",
            "c4-r1.25-int8-g2x2",
        ]

    def test_build_grid_rejects_empty_axes(self):
        with pytest.raises(ConfigError):
            build_grid(rates=(), schemes=(None,))

    def test_chaos_fault_deterministic_and_in_range(self, tmp_path):
        config = _config(tmp_path)
        total_steps = config.total_cell_epochs * config.steps_per_epoch
        for index in range(8):
            fault = chaos_fault_for(config, index)
            assert fault == chaos_fault_for(config, index)
            # The crash step k = crash_after_chunks + 1 must leave a
            # checkpoint before it and work after it.
            assert 0 <= fault.crash_after_chunks < total_steps - 1


class TestCellResult:
    def test_load_rejects_missing_and_partial(self, tmp_path):
        assert load_cell_result(tmp_path) is None
        (tmp_path / "result.json").write_text("{not json")
        assert load_cell_result(tmp_path) is None
        (tmp_path / "result.json").write_text(json.dumps({"per": 1.0}))
        assert load_cell_result(tmp_path) is None


class TestSweepRobustness:
    def test_chaos_resume_bit_exact_across_schemes(self, tmp_path):
        """The acceptance property: a sweep whose every cell is crashed
        mid-training and resumed must be bit-identical to a clean sweep,
        for each scheme in {None, int8}."""
        schemes = (None, "int8")
        clean = run_sweep(_config(tmp_path, "clean", schemes=schemes))

        chaos_config = _config(
            tmp_path, "chaos", schemes=schemes, retry_budget=0
        )
        with pytest.raises(SweepError, match="failed permanently"):
            run_sweep(chaos_config, chaos=True)
        # Every cell crashed and none completed...
        for cell in chaos_config.grid():
            directory = cell_dir(chaos_config.state_dir, cell.name)
            assert load_cell_result(directory) is None
            assert (directory / "checkpoint.npz").exists()
        # ...and the resume pass finishes them from their checkpoints.
        resumed = run_sweep(_config(tmp_path, "chaos", schemes=schemes))
        assert [o.status for o in resumed.outcomes] == ["ok"] * len(schemes)

        for a, b in zip(clean.outcomes, resumed.outcomes):
            assert a.cell.name == b.cell.name
            assert a.result["weights_sha256"] == b.result["weights_sha256"]
            assert a.result["loss_curve"] == b.result["loss_curve"]
            assert a.result["per"] == b.result["per"]
            assert a.result["measured_rate"] == b.result["measured_rate"]

    def test_in_pass_retry_recovers(self, tmp_path):
        config = _config(tmp_path, retry_budget=1)
        result = run_sweep(config, chaos=True)
        outcome = result.outcomes[0]
        assert outcome.status == "ok"
        assert outcome.attempts == 2
        assert outcome.failures == ["crash (injected)"]

    def test_resume_skips_completed_cells(self, tmp_path):
        config = _config(tmp_path)
        first = run_sweep(config)
        assert [o.status for o in first.outcomes] == ["ok"]
        second = run_sweep(config)
        assert [o.status for o in second.outcomes] == ["cached"]
        assert second.outcomes[0].attempts == 0
        assert (
            second.outcomes[0].result["weights_sha256"]
            == first.outcomes[0].result["weights_sha256"]
        )

    def test_straggler_killed_and_reported(self, tmp_path):
        config = _config(tmp_path, retry_budget=0, cell_timeout_s=0.05)
        with pytest.raises(SweepError, match="straggler"):
            run_sweep(config)

    def test_summary_table_renders(self, tmp_path):
        result = run_sweep(_config(tmp_path))
        table = result.summary_table()
        assert "c2-r1.25-float-g2x2" in table
        assert "dense baseline" in table


class TestRegistryPublication:
    def test_lineage_and_provenance(self, tmp_path):
        config = _config(tmp_path, schemes=(None, "int8"))
        result = run_sweep(config)
        registry = PlanRegistry(config.registry_root())
        for outcome in result.outcomes:
            chain = registry.lineage(outcome.cell.name, "v2")
            assert [entry.version for entry in chain] == ["v1", "v2"]
            dense_entry, cell_entry = chain
            assert dense_entry.parent is None
            assert cell_entry.parent == "v1"
            assert dense_entry.meta["extra"]["role"] == "dense-baseline"
            extra = cell_entry.meta["extra"]
            assert extra["role"] == "sweep-cell"
            assert extra["cell"] == outcome.cell.to_dict()
            assert extra["per"] == outcome.result["per"]
            assert extra["weights_sha256"] == outcome.result["weights_sha256"]

    def test_publish_is_idempotent_on_resume(self, tmp_path):
        config = _config(tmp_path)
        run_sweep(config)
        run_sweep(config)  # cached cells must not create new versions
        registry = PlanRegistry(config.registry_root())
        assert registry.versions(config.grid()[0].name) == ["v1", "v2"]

    def test_published_plans_execute(self, tmp_path):
        from repro.engine.artifact import load_plan
        from repro.utils.rng import new_rng

        config = _config(tmp_path, schemes=("int8",))
        run_sweep(config)
        registry = PlanRegistry(config.registry_root())
        entry = registry.resolve(config.grid()[0].name, "v2")
        plan = load_plan(entry.artifact_path)
        logits = plan.forward_utterance(
            new_rng(0).standard_normal((10, plan.input_dim))
        )
        assert logits.shape[0] == 10
        assert np.all(np.isfinite(logits))
