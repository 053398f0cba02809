"""One segment: set a workload up in this process, time passes, verify.

A run is made of segments so that set-up is measured several times per
run, each in a fresh process, and so that throughput samples come from
more than one process image (BLAS speed shifts by a few per cent with
heap and page alignment, which one long-lived process would bake in).
"""

from __future__ import annotations

import resource
import statistics
import time
from pathlib import Path
from time import perf_counter
from typing import Dict, Optional

import host
import spans
from workloads import WORKLOADS


def _ints(hyps):
    return [[int(p) for p in hyp] for hyp in hyps]


def run_segment(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    out_dir: Path,
    spawned_at: Optional[float] = None,
    with_reference: bool = True,
) -> Dict[str, object]:
    started = time.time() if spawned_at is None else spawned_at
    meta = host.program_meta()
    workload = WORKLOADS[name](smoke, seed, out_dir, trace)
    probe = workload.probe
    try:
        workload.setup()
        # As read, less the warm-up pass's ticks.  Set-up is imports,
        # packing and file writes, which no ruler tracks: read against
        # one it spread wider than as read on four workloads of five.
        setup_s = time.time() - started - probe.spent_s

        tracer = spans.Tracer() if trace else spans.NULL_TRACER
        plan = getattr(workload, "plan", None)
        proxy = spans.PlanProxy(plan, tracer) if trace and plan is not None else None
        # A traced run alternates traced and untraced passes, so the
        # tracing overhead is a paired difference inside one process.
        passes, traced_flags = [], []
        loop_start = perf_counter()
        while True:
            traced_now = trace and len(passes) % 2 == 0
            passes.append(
                workload.run_pass(tracer, proxy) if traced_now
                else workload.run_pass(spans.NULL_TRACER)
            )
            traced_flags.append(traced_now)
            elapsed = perf_counter() - loop_start
            typical = statistics.median(p.wall_s for p in passes)
            if len(passes) >= (2 if trace else 1) and elapsed + typical > seconds:
                break

        baseline = passes[0].hyps
        deviating = sum(
            1 for p in passes for got, want in zip(p.hyps, baseline) if got != want
        )
        untraced = [p for p, t in zip(passes, traced_flags) if not t]
        result: Dict[str, object] = {
            "setup_s": setup_s,
            "passes": len(passes),
            "frames": passes[0].frames,
            "units_s": [p.units_s for p in untraced],
            "rates": [p.rate for p in untraced],
            # One row per pass, one column per operation (the traffic
            # repeats, so column i is the same operation in every pass).
            "latencies_ms": [
                [s / p.host_factor * 1e3 for s in p.latencies_s] for p in untraced
            ],
            "rulers": "+".join(probe.rulers),
            "host_factors": [p.host_factor for p in untraced],
            "ops": sum(p.ops for p in passes),
            "failed": sum(p.failed for p in passes) + deviating,
            "hyps": _ints(baseline),
            "counts": passes[0].counts,
            "counts_repeat": all(p.counts == passes[0].counts for p in passes),
            "artifact_bytes": workload.artifact_bytes,
            "meta": meta,
        }
        if with_reference or trace:
            reference = workload.reference()
            result["reference"] = None if reference is None else _ints(reference)
        if trace:
            traced = [p for p, t in zip(passes, traced_flags) if t]
            rows = spans.budget(tracer.spans)
            layers = workload.layer_metrics(
                traced, tracer, rows, proxy.shapes if proxy else {}
            )
            wall = statistics.mean(p.wall_s for p in traced)
            untraced_rate = statistics.median(result["rates"])
            traced_rate = statistics.median(p.rate for p in traced)
            layers["bench.trace_overhead_pct"] = (
                (untraced_rate - traced_rate) / untraced_rate * 100.0
            )
            layers["bench.driver_self_s"] = rows["bench.pass"]["self_s"] / len(traced)
            spans.write_spans(out_dir / "spans.jsonl", tracer.spans)
            result.update(
                layers=layers,
                traced_passes=len(traced),
                traced_wall_s=wall,
                budget_sum_s=sum(row["self_s"] for row in rows.values()) / len(traced),
                budget_table=spans.format_budget(rows, len(traced), wall),
            )
    finally:
        workload.close()
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.has_children:  # reaped by close(): add the largest worker
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = usage / 1024.0
    return result
