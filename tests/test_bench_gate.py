"""The perf gate's verdicts (tools/bench_gate.py) on synthetic runs: what
fails it, what passes it, and what it refuses to call either."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_gate", Path(__file__).resolve().parents[1] / "tools" / "bench_gate.py"
)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]
NOISY = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 65.0, 135.0, 75.0, 125.0]


def scaled(values, factor):
    return [value * factor for value in values]


class TestVerdict:
    def test_worse_beyond_the_bound_fails_either_direction(self):
        assert gate.verdict(STEADY, scaled(STEADY, 1.3), "lower", 0.25) == "moved worse"
        assert gate.verdict(STEADY, scaled(STEADY, 0.75), "higher", 0.2) == "moved worse"

    def test_inside_the_bound_passes(self):
        assert gate.verdict(STEADY, scaled(STEADY, 1.2), "lower", 0.25) == "not moved"
        assert gate.verdict(STEADY, scaled(STEADY, 0.85), "higher", 0.2) == "not moved"
        assert gate.verdict(STEADY, STEADY, "lower", 0.02) == "not moved"  # all ties

    def test_a_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_spread(self):
        assert gate.verdict(STEADY, scaled(STEADY, 1.1), "higher", 0.2) == "moved better"
        assert gate.verdict(STEADY, scaled(STEADY, 1.005), "higher", 0.2) == "not moved"
        two_losses = scaled(STEADY, 1.1)[:8] + [90.0, 90.0]
        assert gate.verdict(STEADY, two_losses, "higher", 0.2) == "not moved"

    def test_spread_wider_than_the_bound_is_unresolved_not_a_pass(self):
        assert gate.spread(NOISY) > 0.25 * 100.0
        assert gate.verdict(NOISY, NOISY[::-1], "lower", 0.25) == "unresolved"
        assert gate.verdict(NOISY, scaled(NOISY, 1.5), "lower", 0.25) == "unresolved"

    def test_unless_every_run_reads_on_one_side_of_every_parent_run(self):
        assert gate.verdict(NOISY, scaled(NOISY, 3.0), "lower", 0.25) == "moved worse"
        assert gate.verdict(NOISY, scaled(NOISY, 0.3), "lower", 0.25) == "moved better"

    def test_a_one_and_a_half_times_slowdown_fails_at_every_declared_bound(self):
        for metric in gate.SPEC["end_to_end"]:
            slower = scaled(STEADY, 1.5 if metric["better"] == "lower" else 1 / 1.5)
            assert gate.verdict(STEADY, slower, metric["better"], metric["bound"]) == "moved worse"


def run(failed=0, correct=True, **metrics):
    values = {metric["name"]: 100.0 for metric in gate.SPEC["end_to_end"]}
    values.update(metrics)
    return {"correct": correct, "attempted": 32, "failed": failed,
            "metrics": {name: {"value": value, "unit": "-"} for name, value in values.items()}}


class TestJudge:
    def test_equal_sides_pass_with_one_row_per_metric(self):
        rows, problems = gate.judge(gate.SPEC, {"w": [run()] * 4}, {"w": [run()] * 4})
        assert problems == []
        assert [row[1] for row in rows] == [m["name"] for m in gate.SPEC["end_to_end"]]
        assert {row[-1] for row in rows} == {"not moved"}

    def test_a_regression_is_named(self):
        slow = [run(frames_per_s=100.0 / 1.5)] * 4
        rows, problems = gate.judge(gate.SPEC, {"w": [run()] * 4}, {"w": slow})
        assert len(problems) == 1 and "w: frames_per_s moved worse" in problems[0]
        assert ("w", "frames_per_s", 100.0, 100.0 / 1.5, 0.0, "moved worse") in rows

    @pytest.mark.parametrize(
        "parent, change, message",
        [
            ({"w": [run()]}, {}, "w: no runs on the change side"),
            ({"w": [run()]}, {"w": [run(failed=3)]}, "w: change run 0: 3 of 32 operations failed"),
            ({"w": [run(correct=False)]}, {"w": [run()]}, "w: parent run 0: 0 of 32 operations failed, correct=False"),
        ],
    )
    def test_missing_failed_and_incorrect_runs_fail_by_name(self, parent, change, message):
        _, problems = gate.judge(gate.SPEC, parent, change)
        assert any(message in problem for problem in problems), problems

    def test_a_metric_the_change_does_not_report_fails_and_one_the_parent_lacks_is_new(self):
        partial = run()
        del partial["metrics"]["setup_s"]
        rows, problems = gate.judge(gate.SPEC, {"w": [run()]}, {"w": [partial]})
        assert problems == ["w: setup_s missing on the change side"]
        assert "setup_s" not in [row[1] for row in rows]
        rows, problems = gate.judge(gate.SPEC, {"w": [partial], "v": []}, {"w": [run()], "v": [run()]})
        assert problems == []
        new = [row[:2] for row in rows if row[-1] == "new (no parent)"]
        assert new == [("w", "setup_s")] + [("v", m["name"]) for m in gate.SPEC["end_to_end"]]
