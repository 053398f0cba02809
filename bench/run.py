#!/usr/bin/env python3
"""The repo benchmark.  See ``bench/README.md``.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
        one run of one workload; the last line of stdout is the result
        object BENCHMARK.json describes (end-to-end metrics untraced,
        per-layer metrics traced).
    python3 bench/run.py [--seed N]
        every workload, untraced then traced, one report, results.json.
    python3 bench/run.py --agree
        two untraced sets back to back, compared within each bound.
    python3 bench/run.py --smoke
        everything above at toy scale in this process (bench/test_smoke.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import host  # noqa: E402

# Before numpy is imported anywhere, here or in a child process.
host.pin_blas_threads()
BUILD = ROOT / ".bench_build"
# Whatever the program compiles lands inside the checkout and is built
# once per checkout, like any other build output.
os.environ.setdefault("REPRO_COMPILED_CACHE", str(BUILD / "cc"))
sys.path.insert(1, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
SEGMENTS = 3  # fresh processes per untraced run: set-up is their median
EXPECTED = json.loads((BENCH / "expected.json").read_text())
#: Points by which int8 decoding through the compiled plan may move PER
#: away from the float model it was compiled from.
QUANTIZATION_PER_MARGIN = 5.0
#: Points by which PER may move from the value recorded for a seed.
PER_DRIFT_MARGIN = 10.0


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------
def spawn_segment(name, seed, seconds, trace, out_dir, with_reference) -> Dict:
    """One segment in a fresh process.  Its chatter is passed through;
    its last stdout line is the segment's JSON."""
    command = [
        sys.executable, str(BENCH / "run.py"), "--segment",
        "--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(int(trace)), "--out", str(out_dir),
        "--spawned-at", repr(time.time()),
    ]
    if not with_reference:
        command.append("--no-reference")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        print(done.stdout, end="")
        raise SystemExit(f"segment of {name} exited with code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------
def check_training(name: str, seed: int, smoke: bool, segments, meta) -> List[str]:
    """Quality checks of ``prune_retrain``; returns what is wrong."""
    problems = []
    counts = segments[0]["counts"]
    if any(seg["counts"] != counts for seg in segments):
        problems.append("per_pct/compression_x differ between processes of one run")
    recorded = EXPECTED[name]["smoke" if smoke else "full"]
    if counts["compression_x"] != recorded["compression_x"]:
        problems.append(
            f"compression_x {counts['compression_x']} != recorded {recorded['compression_x']}"
        )
    if abs(counts["per_pct"] - counts["float_per_pct"]) > QUANTIZATION_PER_MARGIN:
        problems.append(
            f"int8 plan PER {counts['per_pct']:.2f} vs float model "
            f"{counts['float_per_pct']:.2f}: more than {QUANTIZATION_PER_MARGIN} points apart"
        )
    # Float training repeats bit for bit on one host and one commit (the
    # check above), not across BLAS builds or a change of reduction
    # order, so the recorded PER is held to a margin, not to equality.
    want = recorded["per_pct"].get(str(seed))
    if want is not None:
        drift = counts["per_pct"] - want
        meta["per_pct_vs_recorded"] = f"{drift:+.4f} points from {want:.4f}"
        if abs(drift) > PER_DRIFT_MARGIN:
            problems.append(f"per_pct moved {drift:+.2f} points from the recorded {want:.2f}")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 out_root: Path) -> Dict:
    out_dir = out_root / f"{name}-s{seed}-t{int(trace)}"
    out_dir.mkdir(parents=True, exist_ok=True)
    count = 1 if (trace or smoke) else SEGMENTS
    segments = []
    for index in range(count):
        if smoke:
            from segment import run_segment

            segments.append(run_segment(name, seed, 0.0, trace, True, out_dir))
        else:
            segments.append(
                spawn_segment(name, seed, seconds / count, trace, out_dir, index == 0)
            )
    first = segments[0]
    meta = {**host.launcher_meta(), **first["meta"], "seed": seed, "smoke": smoke,
            "segments": count, "passes": [seg["passes"] for seg in segments]}

    problems: List[str] = []
    attempted = sum(seg["ops"] for seg in segments)
    failed = sum(seg["failed"] for seg in segments)
    reference = first.get("reference")
    for seg in segments:
        if reference is not None:
            wrong = sum(1 for got, want in zip(seg["hyps"], reference) if got != want)
            failed += wrong * seg["passes"]
        if seg["hyps"] != first["hyps"]:
            problems.append("hypotheses differ between processes of one run")
        if not seg["counts_repeat"]:
            problems.append("exact counts differ between passes of one process")
        if seg["artifact_bytes"] != first["artifact_bytes"]:
            problems.append("artifact_bytes differs between processes of one run")
    if name == "prune_retrain":
        problems += check_training(name, seed, smoke, segments, meta)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")

    if trace:
        layers = first["layers"]
        unknown = sorted(set(layers) - set(PER_LAYER))
        if unknown:
            raise SystemExit(f"per-layer metrics not declared in BENCHMARK.json: {unknown}")
        # A layer that does not run in this workload spends 0 there.
        values = {key: float(layers.get(key, 0.0)) for key in PER_LAYER}
        declared = PER_LAYER
    else:
        # The traffic repeats, so unit i (a pass, or an epoch of one) and
        # operation i are the same work in every pass of every process:
        # each takes its median over the passes.  Throughput is then over
        # the sum of the units, latency percentiles over the operations.
        passes = [units for seg in segments for units in seg["units_s"]]
        units = [statistics.median(column) for column in zip(*passes)]
        rows = [row for seg in segments for row in seg["latencies_ms"]]
        latencies = [statistics.median(column) for column in zip(*rows)]
        values = {
            "setup_s": statistics.median(seg["setup_s"] for seg in segments),
            "frames_per_s": first["frames"] / sum(units),
            "latency_p50_ms": statistics.median(latencies),
            "latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
            "peak_rss_mb": statistics.median(seg["peak_rss_mb"] for seg in segments),
            "artifact_bytes": float(first["artifact_bytes"]),
        }
        declared = END_TO_END
        meta["samples"] = {
            "passes": len(passes),
            "units_per_pass": len(units),
            "operations_per_pass": len(latencies),
        }
        factors = [f for seg in segments for f in seg["host_factors"]]
        meta["host_factor"] = {
            "rulers": first["rulers"],
            "median": statistics.median(factors),
            "min": min(factors),
            "max": max(factors),
        }
        meta["frames_per_s_by_process"] = [
            statistics.median(seg["rates"]) for seg in segments
        ]
        meta["frames_per_s_as_read"] = statistics.median(
            rate / factor
            for seg in segments
            for rate, factor in zip(seg["rates"], seg["host_factors"])
        )
    if set(values) != set(declared):
        raise SystemExit(f"metrics {sorted(values)} != declared {sorted(declared)}")

    result = {
        "workload": name,
        "trace": int(trace),
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]["unit"]} for k, v in values.items()},
        "counts": first["counts"],
        "hyps": first["hyps"],
        "meta": meta,
    }
    if trace:
        result["budget"] = {
            "table": first["budget_table"],
            "sum_s": first["budget_sum_s"],
            "wall_s": first["traced_wall_s"],
            "traced_passes": first["traced_passes"],
        }
    (out_dir / "result.json").write_text(json.dumps(result, indent=1))
    return result


def print_result(result: Dict) -> None:
    declared = PER_LAYER if result["trace"] else END_TO_END
    meta = result["meta"]
    print(f"== {result['workload']}  trace={result['trace']}  seed={meta['seed']}"
          f"  passes per process={meta['passes']}")
    for key in ("cpu_model", "nproc", "python", "numpy", "blas", "blas_config",
                "thread_env", "blas_os_threads", "cc_version", "kernel_backends",
                "default_kernel_backend", "git_commit"):
        print(f"   {key}: {meta[key]}")
    for key in ("samples", "host_factor", "frames_per_s_as_read",
                "frames_per_s_by_process", "per_pct_vs_recorded"):
        if key in meta:
            print(f"   {key}: {meta[key]}")
    for key, metric in result["metrics"].items():
        print(f"{key:<38}{metric['value']:>16.6g} {metric['unit']:<9}"
              f"({declared[key]['better']} is better)")
    for key, value in result["counts"].items():
        print(f"{'exact ' + key:<38}{value:>16.6g}")
    print(f"{'failed_share':<38}{result['failed'] / result['attempted']:>16.6g} fraction "
          f"({result['failed']} of {result['attempted']} operations)")
    if "budget" in result:
        print(f"-- time budget, mean of {result['budget']['traced_passes']} traced passes")
        print(result["budget"]["table"])
    for problem in result["problems"]:
        print("INCORRECT:", problem)


def contract_line(result: Dict) -> str:
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


# ---------------------------------------------------------------------------
# Whole sets
# ---------------------------------------------------------------------------
def run_set(seed: int, seconds: float, smoke: bool, out_root: Path, traced: bool) -> Dict:
    results: Dict[str, Dict] = {}
    for name in WORKLOAD_NAMES:
        for trace in (False, True) if traced else (False,):
            result = run_workload(name, seed, seconds, trace, smoke, out_root)
            print_result(result)
            results[f"{name}/trace{int(trace)}"] = result
    return results


def report(seed: int, seconds: float, smoke: bool, out_root: Path) -> bool:
    results = run_set(seed, seconds, smoke, out_root, traced=True)
    ok = all(result["correct"] for result in results.values())
    if results["fabric_stream/trace0"]["hyps"] != results["stream_bsp_int8/trace0"]["hyps"]:
        print("INCORRECT: fabric_stream hypotheses differ from stream_bsp_int8's")
        ok = False

    def rate(name: str) -> float:
        return results[f"{name}/trace0"]["metrics"]["frames_per_s"]["value"]

    derived = {"paper_claim_x": rate("stream_bsp_int8") / rate("stream_dense_float")}
    print("== derived")
    print(f"{'paper_claim_x':<38}{derived['paper_claim_x']:>16.6g} x         "
          "(stream_bsp_int8 / stream_dense_float frames_per_s; higher is better)")
    for name in WORKLOAD_NAMES:
        overhead = results[f"{name}/trace1"]["metrics"]["bench.trace_overhead_pct"]["value"]
        print(f"{'bench.trace_overhead_pct ' + name:<46}{overhead:>8.3g} %")
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "results.json").write_text(
        json.dumps({"derived": derived, "runs": results}, indent=1)
    )
    print(f"wrote {out_root / 'results.json'}")
    return ok


def agree(seed: int, seconds: float, smoke: bool, out_root: Path) -> bool:
    first = run_set(seed, seconds, smoke, out_root / "agree-1", traced=False)
    second = run_set(seed, seconds, smoke, out_root / "agree-2", traced=False)
    ok = all(r["correct"] for r in list(first.values()) + list(second.values()))
    print("== agreement of two sets of runs")
    print(f"{'workload':<20}{'metric':<18}{'first':>14}{'second':>14}{'diff':>9}{'bound':>7}")
    for key in first:
        for metric, spec in END_TO_END.items():
            a = first[key]["metrics"][metric]["value"]
            b = second[key]["metrics"][metric]["value"]
            diff = abs(b - a) / a
            within = diff <= spec["bound"]
            ok = ok and within
            print(f"{first[key]['workload']:<20}{metric:<18}{a:>14.6g}{b:>14.6g}"
                  f"{diff:>9.2%}{spec['bound']:>7.0%}{'' if within else '  DISAGREE'}")
        if first[key]["counts"] != second[key]["counts"]:
            print(f"{first[key]['workload']:<20}exact counts differ  DISAGREE")
            ok = False
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=BUILD / "runs")
    parser.add_argument("--agree", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--segment", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--no-reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"nothing to measure: {ROOT / 'src' / 'repro'} is missing")

    if args.segment:
        from segment import run_segment

        print(json.dumps(run_segment(
            args.workload, args.seed, args.seconds, bool(args.trace), False,
            args.out, args.spawned_at, not args.no_reference,
        )))
        return 0
    if args.workload:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.out
        )
        print_result(result)
        print(contract_line(result))
        return 0 if result["correct"] else 1
    run = agree if args.agree else report
    return 0 if run(args.seed, args.seconds, args.smoke, args.out) else 1


if __name__ == "__main__":
    sys.exit(main())
