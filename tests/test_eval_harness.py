"""Tests for the experiment harnesses (repro.eval)."""

import numpy as np
import pytest

from repro.eval.figure4 import figure4_from_table2, render_figure4, run_figure4
from repro.eval.paper_data import (
    BSP_SWEEP,
    TABLE1,
    TABLE2,
    figure4_paper_speedups,
)
from repro.eval.report import fmt, format_table
from repro.eval.table1 import Table1Config, Table1Entry, run_table1, render_table1
from repro.eval.table2 import (
    Table2Config,
    paper_scale_weights,
    render_table2,
    run_table2,
)

# A laptop-fast Table II configuration used throughout this module.  The
# hidden size must be large enough that compute (not launch overhead)
# dominates the dense model, or compression cannot show a speedup.
FAST_T2 = Table2Config(
    hidden_size=192,
    input_dim=40,
    num_row_strips=4,
    num_col_blocks=4,
    timesteps=20,
    sweep=((1.0, 1.0, 1.0), (10.0, 1.0, 10.0), (16.0, 16.0, 103.0)),
)


class TestPaperData:
    def test_table1_bsp_rows_sorted_by_rate(self):
        rates = [r.overall_rate for r in TABLE1 if r.method == "BSP"]
        assert rates == sorted(rates)

    def test_table1_degradation_consistent(self):
        for row in TABLE1:
            if row.per_baseline is not None and row.per_pruned is not None:
                assert row.per_degradation == pytest.approx(
                    row.per_pruned - row.per_baseline, abs=0.02
                )

    def test_table2_monotone_latency(self):
        gpu = [r.gpu_time_us for r in TABLE2]
        assert gpu == sorted(gpu, reverse=True)

    def test_table2_gop_decreases(self):
        gop = [r.gop for r in TABLE2]
        assert gop == sorted(gop, reverse=True)

    def test_sweep_matches_table2_labels(self):
        assert [s[2] for s in BSP_SWEEP] == [r.compression for r in TABLE2]

    def test_figure4_derivation(self):
        points = figure4_paper_speedups()
        assert points[0][1] == pytest.approx(1.0)
        assert points[-1][1] == pytest.approx(3590.12 / 79.13, rel=1e-6)


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = out.split("\n")
        assert len(lines) == 4
        assert lines[0].index("bb") == lines[2].index("2")

    def test_format_table_title(self):
        out = format_table(["x"], [["1"]], title="T")
        assert out.startswith("T\n")

    def test_format_table_rejects_ragged(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["1"]])

    def test_fmt_none(self):
        assert fmt(None) == "–"

    def test_fmt_float_precision(self):
        assert fmt(1.23456, 2) == "1.23"
        assert fmt(5, 2) == "5"


class TestTable2Harness:
    def test_runs_and_shapes(self):
        result = run_table2(FAST_T2)
        assert len(result.entries) == 3
        assert result.dense.label_rate == 1.0

    def test_latency_decreases_with_compression(self):
        result = run_table2(FAST_T2)
        gpu = [e.gpu_time_us for e in result.entries]
        assert gpu[0] > gpu[1] > gpu[2]
        cpu = [e.cpu_time_us for e in result.entries]
        assert cpu[0] > cpu[1] > cpu[2]

    def test_efficiency_increases_with_compression(self):
        result = run_table2(FAST_T2)
        eff = [e.gpu_efficiency for e in result.entries]
        assert eff[0] < eff[1] < eff[2]

    def test_gop_matches_compression(self):
        result = run_table2(FAST_T2)
        dense = result.entries[0]
        for entry in result.entries[1:]:
            assert entry.gop == pytest.approx(
                dense.gop / entry.measured_rate, rel=0.05
            )

    def test_paper_scale_weights_shapes(self):
        weights = paper_scale_weights(Table2Config(hidden_size=64, input_dim=24))
        assert weights["gru.cell0.weight_ih"].shape == (192, 24)
        assert weights["gru.cell1.weight_hh"].shape == (192, 64)

    def test_render_contains_paper_columns(self):
        out = render_table2(run_table2(FAST_T2))
        assert "paper" in out
        assert "103x" in out

    def test_deterministic(self):
        a = run_table2(FAST_T2)
        b = run_table2(FAST_T2)
        assert a.entries[1].gpu_time_us == b.entries[1].gpu_time_us


class TestFigure4Harness:
    def test_speedup_starts_at_one(self):
        figure = run_figure4(FAST_T2)
        assert figure.points[0].gpu_speedup == pytest.approx(1.0)
        assert figure.points[0].cpu_speedup == pytest.approx(1.0)

    def test_speedup_grows_with_compression(self):
        figure = run_figure4(FAST_T2)
        gpu = figure.gpu_series()
        assert gpu[-1] > gpu[1] > gpu[0]

    def test_derivation_from_table2_consistent(self):
        table2 = run_table2(FAST_T2)
        figure = figure4_from_table2(table2)
        assert figure.points[2].gpu_speedup == pytest.approx(
            table2.entries[0].gpu_time_us / table2.entries[2].gpu_time_us
        )

    def test_render(self):
        out = render_figure4(run_figure4(FAST_T2))
        assert "GPU speedup" in out
        assert "#" in out

    def test_plateau_ratio_defined(self):
        figure = run_figure4(FAST_T2)
        assert figure.plateau_ratio() > 0


class TestTable1Harness:
    """Uses a deliberately tiny configuration — paper-scale correctness is
    covered by ``benchmarks/bench_table1_*.py`` (the ``paper-tables`` CI
    job); here we verify mechanics."""

    TINY = Table1Config(
        hidden_size=24,
        num_train=8,
        num_test=4,
        noise_level=0.4,
        dense_epochs=2,
        admm_epochs=1,
        retrain_epochs=1,
        num_row_strips=2,
        num_col_blocks=2,
        bsp_sweep=((1.0, 1.0, 1.0), (4.0, 2.0, 8.0)),
        include_baselines=False,
    )

    def test_runs_and_entry_fields(self):
        result = run_table1(self.TINY)
        assert len(result.entries) == 2
        dense = result.entries[0]
        assert dense.measured_rate == 1.0
        assert dense.per_pruned == result.dense_per
        pruned = result.entries[1]
        assert pruned.measured_rate > 1.0
        assert pruned.params_kept < dense.params_kept

    def test_degradation_property(self):
        entry = Table1Entry(
            method="BSP", label_rate=8, measured_rate=8,
            per_baseline=10.0, per_pruned=12.5, params_kept=100,
        )
        assert entry.degradation == pytest.approx(2.5)

    def test_with_baselines(self):
        config = Table1Config(
            hidden_size=24, num_train=8, num_test=4, noise_level=0.4,
            dense_epochs=1, admm_epochs=1, retrain_epochs=0,
            num_row_strips=2, num_col_blocks=2,
            bsp_sweep=((1.0, 1.0, 1.0),), include_baselines=True,
        )
        result = run_table1(config)
        methods = {e.method for e in result.entries}
        assert "ESE-style magnitude" in methods
        assert "BBS" in methods
        assert "C-LSTM-style circulant" in methods
        assert "E-RNN-style ADMM circulant" in methods
        assert "Row-structured" in methods

    def test_render(self):
        out = render_table1(run_table1(self.TINY))
        assert "paper degrad" in out
        assert "BSP" in out

    def test_fast_preset_valid(self):
        config = Table1Config.fast()
        assert config.dense_epochs > 0
        assert len(config.bsp_sweep) == 3
