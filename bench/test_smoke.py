"""Tier-1 smoke test of the benchmark: every workload at toy scale (H=32,
4 utterances, one pass), traced and untraced, through the same launcher
code the real runs use."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
HEADER_LINE = re.compile(r"^== (\S+  trace=[01])  ")
METRIC_LINE = re.compile(r"^(\S+)\s+\S+\s+(\S+)\s+\((higher|lower) is better\)$")


def run_bench(*args: str) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", *args],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-smoke")
    done = run_bench("--out", str(out))
    return done.stdout, json.loads((out / "results.json").read_text())


def test_printed_metrics_are_exactly_the_declared_ones(smoke):
    stdout, _ = smoke
    sections = {}
    current = []  # metric lines before the first header, if any, go nowhere
    for line in stdout.splitlines():
        header = HEADER_LINE.match(line)
        if header:
            current = sections.setdefault(header.group(1), [])
        elif line.startswith("== "):
            current = []
        match = METRIC_LINE.match(line)
        if match:
            current.append(match.groups())
    assert sorted(sections) == sorted(
        f"{name}  trace={trace}" for name in WORKLOADS for trace in (0, 1)
    )
    for key, printed in sections.items():
        declared = SPEC["per_layer"] if key.endswith("trace=1") else SPEC["end_to_end"]
        assert printed == [(m["name"], m["unit"], m["better"]) for m in declared], key


def test_every_workload_is_correct_and_derived_rows_are_printed(smoke):
    stdout, results = smoke
    assert sorted(results["runs"]) == sorted(
        f"{name}/trace{trace}" for name in WORKLOADS for trace in (0, 1)
    )
    for key, run in results["runs"].items():
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, key
        assert run["meta"]["blas_os_threads"] <= 1
    assert results["derived"]["paper_claim_x"] > 0
    assert "paper_claim_x" in stdout and "bench.trace_overhead_pct" in stdout


def test_trace_budgets_sum_to_wall_time(smoke):
    _, results = smoke
    for name in WORKLOADS:
        budget = results["runs"][f"{name}/trace1"]["budget"]
        assert abs(budget["sum_s"] - budget["wall_s"]) <= 0.05 * budget["wall_s"], name


def test_single_workload_run_ends_with_the_contract_object(tmp_path):
    done = run_bench("--workload", "stream_bsp_int8", "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--out", str(tmp_path))
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert list(last["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert last["metrics"][metric["name"]]["value"] > 0
