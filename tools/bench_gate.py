#!/usr/bin/env python3
"""The perf gate: a base revision against this checkout, on ``bench/run.py``.

    python3 tools/bench_gate.py --base REV [--pairs N] [--workloads W ...]

Checks REV out next to this tree (a git worktree under ``.bench_build/``), runs
``bench/run.py --workload W --seed i`` in both for N pairs, alternating which
side goes first, and gives every workload x end-to-end metric of
``BENCHMARK.json`` one verdict from that file's own ``better`` / ``bound``:

    moved worse   the change's median is worse than the parent's by more than ``bound``
    moved better  the change wins >= 9/10 of the pairs (ties count for neither)
                  and the medians differ by more than the distance between the
                  quartiles of the parent's runs
    unresolved    that distance is wider than the bound, and the runs neither
                  all read better than the parent's nor all read worse
    not moved     anything else

A metric or workload REV does not have is ``new (no parent)`` and gates nothing.
Exit 1 on a ``moved worse``, a failed operation, an incorrect run, or a metric
or workload the change does not report.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BASE_TREE = ROOT / ".bench_build" / "gate-base"
Runs = Dict[str, List[Dict]]  # workload -> one bench/run.py result object per pair


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    """One metric on one workload, ``parent[i]`` paired with ``change[i]``."""
    sign = 1.0 if better == "lower" else -1.0
    parent, change = [sign * p for p in parent], [sign * c for c in change]  # larger is worse
    base, quartiles = statistics.median(parent), spread(parent)
    worse_by = statistics.median(change) - base
    wins = sum(c < p for p, c in zip(parent, change))
    apart = max(change) < min(parent) or min(change) > max(parent)
    if quartiles > bound * abs(base) and not apart:
        return "unresolved"
    if worse_by > bound * abs(base):
        return "moved worse"
    if wins >= 0.9 * len(parent) and -worse_by > quartiles:
        return "moved better"
    return "not moved"


def judge(spec: Dict, parent: Runs, change: Runs) -> Tuple[List[Tuple], List[str]]:
    """Table rows ``(workload, metric, parent median, change median, parent
    spread, verdict)`` and everything that fails the gate, by name."""
    rows, problems = [], []
    for workload in dict.fromkeys([*parent, *change]):
        sides = {"parent": parent.get(workload, []), "change": change.get(workload, [])}
        for side, runs in sides.items():
            for pair, run in enumerate(runs):
                if run["failed"] or not run["correct"]:
                    problems.append(f"{workload}: {side} run {pair}: {run['failed']} of"
                                    f" {run['attempted']} operations failed, correct={run['correct']}")
        if not sides["change"]:
            problems.append(f"{workload}: no runs on the change side")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
                      for side, runs in sides.items()}
            if len(values["change"]) < len(sides["change"]):
                problems.append(f"{workload}: {name} missing on the change side")
                continue
            if len(values["parent"]) < max(len(sides["parent"]), 1):  # REV does not report it
                word, values["parent"] = "new (no parent)", [math.nan]
            else:
                word = verdict(values["parent"], values["change"], metric["better"], metric["bound"])
            medians = [statistics.median(values[side]) for side in ("parent", "change")]
            rows.append((workload, name, *medians, spread(values["parent"]), word))
            if word == "moved worse":
                problems.append(f"{workload}: {name} moved worse, {medians[0]:.6g} -> {medians[1]:.6g}"
                                f" {metric['unit']} (bound {metric['bound']:.0%})")
    return rows, problems


def run_once(tree: Path, workload: str, seed: int) -> Dict:
    command = [sys.executable, str(tree / "bench/run.py"), "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True)
    try:
        return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])
    except ValueError:  # it died before the result line: its own words, then a failed run
        print(done.stdout[-2000:], file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, metavar="REV")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args(argv)

    trees = {"parent": BASE_TREE, "change": ROOT}
    runs: Dict[str, Runs] = {side: {w: [] for w in args.workloads} for side in trees}
    git = ["git", "-C", str(ROOT), "worktree"]
    subprocess.run([*git, "remove", "--force", str(BASE_TREE)], stderr=subprocess.DEVNULL)
    if subprocess.run([*git, "add", "--detach", str(BASE_TREE), args.base]).returncode:
        return 2  # git has said why
    try:
        base_spec = json.loads((BASE_TREE / "BENCHMARK.json").read_text())
        new = set(args.workloads) - {w["name"] for w in base_spec["workloads"]}
        for pair in range(args.pairs):
            for workload in args.workloads:
                for side in ("change", "parent") if pair % 2 else ("parent", "change"):
                    if side == "parent" and workload in new:
                        continue  # the parent's run.py does not know the name
                    result = run_once(trees[side], workload, pair)
                    runs[side][workload].append(result)
                    print(f"pair {pair} {workload} {side}:", *(
                        f"{name}={metric['value']:.8g}" for name, metric in result["metrics"].items()
                    ), flush=True)
    finally:
        subprocess.run([*git, "remove", "--force", str(BASE_TREE)])

    rows, problems = judge(SPEC, runs["parent"], runs["change"])
    print(f"\n{args.pairs} pairs, {args.base} (parent) against {ROOT} (change)")
    print(f"{'workload':<20}{'metric':<16}{'parent':>12}{'change':>12}{'spread':>10}  verdict")
    for workload, name, parent, change, parent_spread, word in rows:
        print(f"{workload:<20}{name:<16}{parent:>12.8g}{change:>12.8g}{parent_spread:>10.3g}  {word}")
    print(sum(row[-1] == "unresolved" for row in rows), "of", len(rows), "rows unresolved")
    for problem in problems:
        print("FAIL:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
