"""Command-line experiment runner.

Regenerates the paper's tables/figures from the shell and archives the
results::

    python -m repro table1 --fast --json out/table1.json
    python -m repro table2 --csv out/table2.csv --engine
    python -m repro figure4
    python -m repro stream-bench --sessions 8 --chunk-frames 25
    python -m repro sweep --workers 2 --chaos --resume --expect-exact
    python -m repro all --out results/

Each subcommand prints the rendered measured-vs-paper table and optionally
writes JSON/CSV via :mod:`repro.eval.export`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro import kernels
from repro.eval.export import to_csv, to_json
from repro.eval.figure4 import figure4_from_table2, render_figure4
from repro.eval.table1 import Table1Config, render_table1, run_table1
from repro.eval.table2 import Table2Config, render_table2, run_table2


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", type=Path, help="write rows as JSON")
    parser.add_argument("--csv", type=Path, help="write rows as CSV")


def _export(result, args) -> None:
    if getattr(args, "json", None):
        args.json.parent.mkdir(parents=True, exist_ok=True)
        to_json(result, args.json)
        print(f"wrote {args.json}")
    if getattr(args, "csv", None):
        args.csv.parent.mkdir(parents=True, exist_ok=True)
        to_csv(result, args.csv)
        print(f"wrote {args.csv}")


def _run_table1(args) -> None:
    config = Table1Config.fast() if args.fast else Table1Config()
    result = run_table1(config)
    print(render_table1(result))
    _export(result, args)


def _run_table2(args) -> None:
    result = run_table2(Table2Config(), engine=args.engine)
    print(render_table2(result))
    _export(result, args)


def _run_figure4(args) -> None:
    figure = figure4_from_table2(run_table2(Table2Config(), engine=args.engine))
    print(render_figure4(figure))
    _export(figure, args)


def _run_stream_bench(args) -> None:
    from repro.eval.stream_bench import (
        StreamBenchConfig,
        render_stream_bench,
        run_stream_bench,
    )

    config = StreamBenchConfig(
        num_sessions=args.sessions,
        chunk_frames=args.chunk_frames,
        hidden_size=args.hidden_size,
        max_batch_size=args.max_batch,
        max_wait_frames=args.max_wait_frames,
        min_duration=args.min_duration,
        repeats=args.repeats,
        seed=args.seed,
        scheme=None if args.scheme == "none" else args.scheme,
        workers=args.workers,
        chaos=args.chaos,
        canary=args.canary,
    )
    result = run_stream_bench(config)
    print(render_stream_bench(result))
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(result.to_rows(), indent=2))
        print(f"wrote {args.json}")
    if args.expect_recovery:
        fabric_rows = [row for row in result.rows if row.path.startswith("fabric")]
        if not fabric_rows:
            raise SystemExit("--expect-recovery needs --workers >= 1")
        row = fabric_rows[-1]
        if row.decode_match < 1.0:
            raise SystemExit(
                f"fabric decode match {row.decode_match:.2%} < 100% — "
                "recovery was not byte-exact"
            )
        if not row.restarts:
            raise SystemExit(
                "no worker restarts observed — the chaos fault did not "
                "exercise recovery"
            )
        print(
            f"recovery OK: {row.restarts} restart(s), "
            f"{row.sessions_rehomed} session(s) re-homed, decode match 100%"
        )
        for row in (r for r in result.rows if r.path.startswith("canary")):
            expected = "rollback" if "divergent" in row.path else "promote"
            if row.canary_decision != expected:
                raise SystemExit(
                    f"{row.path}: decided {row.canary_decision!r}, "
                    f"expected {expected!r}"
                )
            if row.decode_match < 1.0:
                scope = (
                    "incumbent sessions"
                    if expected == "rollback"
                    else "all sessions"
                )
                raise SystemExit(
                    f"{row.path}: decode match {row.decode_match:.2%} < "
                    f"100% over {scope} — the rollout corrupted serving"
                )
            if args.chaos and not row.restarts:
                raise SystemExit(
                    f"{row.path}: no worker restarts observed — the chaos "
                    "fault did not exercise crash-during-rollout recovery"
                )
            print(
                f"{row.path}: {row.canary_decision} OK "
                f"(agreement {row.canary_agreement:.2f}, "
                f"{row.restarts or 0} restart(s), decode match 100%)"
            )


def _run_sweep_cmd(args) -> None:
    import tempfile

    from repro.eval.sweep_bench import (
        SweepBenchConfig,
        render_sweep_bench,
        run_sweep_bench,
    )

    state_dir = args.state_dir or Path(
        tempfile.mkdtemp(prefix="repro-sweep-")
    )
    config = SweepBenchConfig(
        state_dir=state_dir,
        workers=args.workers,
        chaos=args.chaos,
        resume=args.resume,
        seed=args.seed,
        hidden_size=args.hidden_size,
        num_train=args.utterances,
        num_test=max(2, args.utterances // 2),
        cell_timeout_s=args.cell_timeout,
    )
    result = run_sweep_bench(config)
    print(render_sweep_bench(result))
    print()
    print(result.resumed.summary_table())
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(result.to_rows(), indent=2))
        print(f"wrote {args.json}")
    if args.expect_exact:
        incomplete = [
            c.name
            for ref, c in zip(result.reference.outcomes, result.comparisons)
            if not ref.completed
        ] + [
            o.cell.name
            for o in result.resumed.outcomes
            if not o.completed
        ]
        if incomplete:
            raise SystemExit(
                f"--expect-exact: cells did not complete: {sorted(set(incomplete))}"
            )
        if args.chaos and result.chaos_failures == 0:
            raise SystemExit(
                "--expect-exact: no injected crashes observed — the chaos "
                "fault did not exercise resume"
            )
        drifted = [c.name for c in result.comparisons if not c.exact]
        if drifted:
            raise SystemExit(
                f"--expect-exact: chaos-resumed cells drifted from the "
                f"uninterrupted reference: {drifted}"
            )
        print(
            f"exactness OK: {len(result.comparisons)} cell(s) resumed "
            f"bit-identical after {result.chaos_failures} injected "
            "crash(es) (weights, loss curve, PER, probe logits)"
        )


def _run_tune(args) -> None:
    from repro.eval.tune import TuneConfig, render_tune, run_tune, save_and_verify

    schemes = tuple(
        None if name in ("none", "") else name
        for name in args.schemes.split(",")
    )
    if args.mixed and "mixed" not in schemes:
        schemes = schemes + ("mixed",)
    tiles = (
        ()
        if not args.tiles
        else tuple(int(rb) for rb in args.tiles.split(","))
    )
    config = TuneConfig(
        hidden_size=args.hidden_size,
        num_layers=args.layers,
        seq_len=args.frames,
        batch=args.batch,
        prune=not args.no_prune,
        col_rate=args.col_rate,
        row_rate=args.row_rate,
        schemes=schemes,
        backends=(None,) if args.backends is None
        else tuple(args.backends.split(",")),
        tiles=tiles,
        repeats=args.repeats,
        seed=args.seed,
    )
    outcome = run_tune(config)
    print(render_tune(outcome))
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        if not save_and_verify(outcome, args.save):
            raise SystemExit(
                f"artifact round-trip mismatch for {args.save}"
            )
        print(
            f"saved tuned plan to {args.save} "
            "(reload verified bit-identical)"
        )
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(outcome.to_rows(), indent=2))
        print(f"wrote {args.json}")


def _run_all(args) -> None:
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    start = time.time()
    table2 = run_table2(Table2Config())
    print(render_table2(table2))
    to_json(table2, out / "table2.json")
    figure4 = figure4_from_table2(table2)
    print(render_figure4(figure4))
    to_json(figure4, out / "figure4.json")
    config = Table1Config.fast() if args.fast else Table1Config()
    table1 = run_table1(config)
    print(render_table1(table1))
    to_json(table1, out / "table1.json")
    print(f"\nall artifacts in {out}/ ({time.time() - start:.0f}s)")


def _add_kernel_backend_arg(parser: argparse.ArgumentParser, top_level: bool) -> None:
    """Register --kernel-backend on a parser.

    The flag lives on the top-level parser *and* every subparser so both
    argument orders work.  The subparser copies default to SUPPRESS so an
    absent post-subcommand flag does not clobber a pre-subcommand value
    in the shared namespace.
    """
    # No argparse choices= here: validation goes through
    # kernels.resolve_backend so an unknown name raises the same typed
    # ConfigError (listing what is registered) as REPRO_KERNEL_BACKEND
    # and tune_plan, instead of argparse's exit-2 with a stale list.
    parser.add_argument(
        "--kernel-backend",
        default=None if top_level else argparse.SUPPRESS,
        help="execution backend for all kernel dispatches, one of: "
        f"{', '.join(kernels.registry.backends())} "
        f"(default: {kernels.get_default_backend()})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the RTMobile paper's tables and figures.",
    )
    _add_kernel_backend_arg(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("table1", help="compression vs. PER (trains models)")
    p1.add_argument("--fast", action="store_true",
                    help="endpoint sweep only (~1 min instead of ~5)")
    _add_output_args(p1)
    p1.set_defaults(func=_run_table1)

    p2 = sub.add_parser("table2", help="mobile latency / GOP/s / energy")
    p2.add_argument("--engine", action="store_true",
                    help="also compile each point through repro.engine and "
                    "measure host latency")
    _add_output_args(p2)
    p2.set_defaults(func=_run_table2)

    p4 = sub.add_parser("figure4", help="speedup vs. compression curves")
    p4.add_argument("--engine", action="store_true",
                    help="add the measured host-engine speedup curve")
    _add_output_args(p4)
    p4.set_defaults(func=_run_figure4)

    pst = sub.add_parser(
        "stream-bench",
        help="chunked streaming sessions vs whole utterances, one scheduler",
    )
    pst.add_argument("--sessions", type=int, default=8,
                     help="concurrent streaming sessions")
    pst.add_argument("--chunk-frames", type=int, default=25,
                     help="frames per fed chunk")
    pst.add_argument("--hidden-size", type=int, default=64)
    pst.add_argument("--max-batch", type=int, default=8,
                     help="sessions fused per run_chunk call")
    pst.add_argument("--max-wait-frames", type=int, default=175,
                     help="deadline: frames of other traffic a chunk may wait")
    pst.add_argument("--min-duration", type=int, default=2)
    pst.add_argument("--repeats", type=int, default=3)
    pst.add_argument("--seed", type=int, default=0)
    pst.add_argument("--scheme", choices=["none", "fp16", "int8"],
                     default="none", help="engine quantization scheme")
    pst.add_argument("--workers", type=int, default=0,
                     help="also serve through a multi-process fabric with "
                     "this many supervised workers (0 = skip)")
    pst.add_argument("--chaos", action="store_true",
                     help="arm a deterministic crash fault on worker 0 so "
                     "the fabric pass exercises restart + journal replay")
    pst.add_argument("--canary", action="store_true",
                     help="add registry-backed canary rollout passes: a "
                     "divergent candidate must auto-rollback and a clean "
                     "one must auto-promote (requires --workers >= 1)")
    pst.add_argument("--expect-recovery", action="store_true",
                     help="exit nonzero unless the fabric row recovered "
                     "(restarts >= 1) with decode match 100%% — the CI "
                     "chaos gate; with --canary also asserts the "
                     "rollback/promote decisions")
    pst.add_argument("--json", type=Path, help="write rows as JSON")
    pst.set_defaults(func=_run_stream_bench)

    psw = sub.add_parser(
        "sweep",
        help="fault-tolerant prune→retrain sweep over the reduced "
        "sparsity × scheme grid, with chaos/resume exactness gating",
    )
    psw.add_argument("--workers", type=int, default=2,
                     help="concurrent forked cell processes")
    psw.add_argument("--chaos", action="store_true",
                     help="crash every cell's first attempt at a seeded "
                     "mid-training step")
    psw.add_argument("--resume", action="store_true",
                     help="with --chaos: leave crashed cells incomplete "
                     "(zero retries), then resume them from checkpoints "
                     "in a second pass")
    psw.add_argument("--expect-exact", action="store_true",
                     help="exit nonzero unless every chaos-resumed cell "
                     "matches the uninterrupted reference bit-for-bit "
                     "(weights SHA-256, loss curve, PER, published-plan "
                     "probe logits) — the CI gate")
    psw.add_argument("--utterances", type=int, default=8,
                     help="synthetic training utterances per cell")
    psw.add_argument("--hidden-size", type=int, default=16)
    psw.add_argument("--seed", type=int, default=0)
    psw.add_argument("--cell-timeout", type=float, default=600.0,
                     help="straggler kill deadline per cell attempt (s)")
    psw.add_argument("--state-dir", type=Path,
                     help="sweep state root (default: fresh temp dir)")
    psw.add_argument("--json", type=Path, help="write rows as JSON")
    psw.set_defaults(func=_run_sweep_cmd)

    pt = sub.add_parser(
        "tune",
        help="measured autotune: search engine configs by timing the "
        "real compiled plan, optionally save the tuned artifact",
    )
    pt.add_argument("--hidden-size", type=int, default=64)
    pt.add_argument("--layers", type=int, default=2)
    pt.add_argument("--frames", type=int, default=100,
                    help="calibration-batch sequence length")
    pt.add_argument("--batch", type=int, default=16,
                    help="calibration-batch size")
    pt.add_argument("--no-prune", action="store_true",
                    help="tune the dense model instead of a BSP-pruned one")
    pt.add_argument("--col-rate", type=float, default=4.0)
    pt.add_argument("--row-rate", type=float, default=2.0)
    pt.add_argument("--schemes", default="none",
                    help="comma list of quantization schemes to search "
                    "(none,fp16,int8,mixed); schemes change numerics")
    pt.add_argument("--mixed", action="store_true",
                    help="add the per-slot 'mixed' scheme (int8 "
                    "projections, float recurrences) to the search")
    pt.add_argument("--tiles", default=None,
                    help="comma list of BSPC panel row-block sizes to "
                    "search (e.g. 4,8,16); off by default")
    pt.add_argument("--backends", default=None,
                    help="comma list of kernel backends to search "
                    "(default: registry default only)")
    pt.add_argument("--repeats", type=int, default=3)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--save", type=Path,
                    help="write the tuned plan artifact (.npz) and verify "
                    "the reload is bit-identical")
    pt.add_argument("--json", type=Path, help="write the measured trace")
    pt.set_defaults(func=_run_tune)

    pa = sub.add_parser("all", help="everything, archived to a directory")
    pa.add_argument("--out", type=Path, default=Path("results"))
    pa.add_argument("--fast", action="store_true")
    pa.set_defaults(func=_run_all)
    for sub_parser in (p1, p2, p4, pst, psw, pt, pa):
        _add_kernel_backend_arg(sub_parser, top_level=False)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.kernel_backend:
        kernels.set_default_backend(
            kernels.resolve_backend(args.kernel_backend, "--kernel-backend")
        )
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
