"""Streaming-serving benchmark: chunked sessions vs whole utterances.

Every row serves the same synthetic utterance stream through the one
serving path, a :class:`~repro.engine.streaming.StreamScheduler` (or a
fabric of them).  The *offline* row feeds each utterance as a single
chunk — maximum throughput, but a client hears nothing until its whole
utterance has been captured *and* decoded.  The *streaming* row trades
some throughput for bounded latency: concurrent sessions feed fixed-size
chunks, which the scheduler fuses across sessions by equal length under
a ``max_wait_frames`` deadline.

The harness reports what chunking costs and buys: wall clock and
sessions/sec, the per-chunk p50/p95 submit→decode latency, the
scheduler's mean fused batch size, and each row's ``decode_match`` — the
fraction of sessions whose hypothesis equals the reference, every
utterance decoded alone with ``decode_utterance(plan.forward_utterance(u))``
outside any scheduler (the chunk-exactness guarantee says all of them).

With ``workers >= 1`` the harness adds a third path: the same stream
served through a multi-process :class:`~repro.engine.fabric.ServingFabric`
(each worker loads the compiled artifact and runs its own scheduler).
``chaos=True`` arms a deterministic crash fault on worker 0 mid-run, so
the fabric row measures serving *through* a kill + restart + journal
replay — and its ``decode_match`` asserts recovery was byte-exact.

``canary=True`` adds two deployment-correctness rows on top: the
incumbent and a candidate plan are published into a throwaway
:class:`~repro.engine.registry.PlanRegistry` and the candidate is
canaried mid-run.  The *divergent* pass (candidate compiled from
different weights) must end in an automatic **rollback** with every
incumbent-routed session still decoding byte-exactly; the *clean* pass
(candidate recompiled from identical weights) must end in an automatic
**promote** that hot-swaps every live session mid-utterance with no
decode change.  Under ``chaos`` the divergent pass crashes a worker
mid-canary and the clean pass crashes a worker *on receipt of the
promote swap* — recovery has to replay sessions onto their correct
pre-/post-swap versions either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional

from repro.engine import StreamConfig, StreamScheduler, compile_model
from repro.errors import ConfigError
from repro.eval.report import fmt, format_table
from repro.speech.decoder import decode_utterance
from repro.speech.model import AcousticModelConfig, GRUAcousticModel
from repro.speech.synth import SynthConfig, make_dataset
from repro.utils.timing import timed_median

#: Synthetic utterances long enough to span several chunks (the default
#: SynthConfig's are mostly shorter than one 25-frame chunk).
STREAM_SYNTH = SynthConfig(min_phones=6, max_phones=18, min_duration=4, max_duration=10)


@dataclass(frozen=True)
class StreamBenchConfig:
    """Workload and measurement settings (defaults: laptop-scale GRU)."""

    num_sessions: int = 8
    chunk_frames: int = 25
    hidden_size: int = 64
    num_layers: int = 2
    max_batch_size: int = 8
    #: Lets a full batch of 8 co-arriving 25-frame chunks accumulate
    #: (7 × 25 frames of other traffic) before the deadline fires.
    max_wait_frames: int = 175
    min_duration: int = 2
    repeats: int = 3
    seed: int = 0
    scheme: Optional[str] = None
    #: 0 disables the multi-process fabric pass; >= 1 adds a fabric row
    #: served by that many supervised worker processes.
    workers: int = 0
    #: Arm a deterministic crash fault on worker 0 mid-run, so the
    #: fabric row measures recovery (restart + journal replay) too.
    chaos: bool = False
    #: Add the registry-backed canary rollout passes (divergent →
    #: rollback, clean → promote); requires ``workers >= 1``.
    canary: bool = False

    def __post_init__(self) -> None:
        if self.num_sessions < 1:
            raise ConfigError(
                f"num_sessions must be >= 1, got {self.num_sessions}"
            )
        if self.chunk_frames < 1:
            raise ConfigError(f"chunk_frames must be >= 1, got {self.chunk_frames}")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        if self.workers < 0:
            raise ConfigError(f"workers must be >= 0, got {self.workers}")
        if self.chaos and self.workers < 1:
            raise ConfigError("chaos requires workers >= 1")
        if self.canary and self.workers < 1:
            raise ConfigError("canary requires workers >= 1")


@dataclass
class StreamBenchRow:
    """One measured serving path."""

    path: str
    wall_s: float
    sessions_per_s: float
    speedup: float  # vs the whole-utterance row (< 1 = chunking cost)
    decode_match: float  # fraction of sessions matching the reference decode
    p50_latency_ms: Optional[float] = None
    p95_latency_ms: Optional[float] = None
    mean_batch_size: Optional[float] = None
    # Fabric rows only: fleet supervision counters for the pass.
    restarts: Optional[int] = None
    sessions_rehomed: Optional[int] = None
    chunks_shed: Optional[int] = None
    sessions_shed: Optional[int] = None
    crashes_detected: Optional[int] = None
    stalls_detected: Optional[int] = None
    plan_swaps: Optional[int] = None
    # Canary rows only: the automatic rollout decision for the pass.
    canary_decision: Optional[str] = None
    canary_agreement: Optional[float] = None


@dataclass
class StreamBenchResult:
    """All measured rows plus the workload description."""

    rows: List[StreamBenchRow]
    num_sessions: int
    total_frames: int
    total_chunks: int

    def to_rows(self) -> List[Dict[str, Any]]:
        """Plain dict rows for JSON archival."""
        return [
            {
                "path": row.path,
                "wall_s": row.wall_s,
                "sessions_per_s": row.sessions_per_s,
                "speedup": row.speedup,
                "decode_match": row.decode_match,
                "p50_latency_ms": row.p50_latency_ms,
                "p95_latency_ms": row.p95_latency_ms,
                "mean_batch_size": row.mean_batch_size,
                "restarts": row.restarts,
                "sessions_rehomed": row.sessions_rehomed,
                "chunks_shed": row.chunks_shed,
                "sessions_shed": row.sessions_shed,
                "crashes_detected": row.crashes_detected,
                "stalls_detected": row.stalls_detected,
                "plan_swaps": row.plan_swaps,
                "canary_decision": row.canary_decision,
                "canary_agreement": row.canary_agreement,
            }
            for row in self.rows
        ]


def build_stream_workload(config: StreamBenchConfig):
    """The ``stream-bench`` workload: ``(plan, features)``."""
    dataset = make_dataset(config.num_sessions, STREAM_SYNTH, seed=config.seed)
    features = [example.features for example in dataset.examples]
    return _build_plan(config, config.seed), features


def _build_plan(config: StreamBenchConfig, seed: int):
    """Compile the benchmark model from ``seed`` — the canary passes use
    ``config.seed`` for a weight-identical candidate and a different seed
    for a numerically divergent one."""
    model = GRUAcousticModel(
        AcousticModelConfig(
            hidden_size=config.hidden_size, num_layers=config.num_layers
        ),
        rng=seed,
    ).eval()
    return compile_model(model, scheme=config.scheme)


def _stream_config(config: StreamBenchConfig) -> StreamConfig:
    return StreamConfig(
        max_batch_size=config.max_batch_size,
        max_wait_frames=config.max_wait_frames,
        min_duration=config.min_duration,
    )


def _fabric_config(config: StreamBenchConfig, faults):
    from repro.engine.fabric import FabricConfig

    return FabricConfig(
        num_workers=config.workers,
        stream=_stream_config(config),
        backoff_base_s=0.01,
        rpc_timeout_s=60.0,
        faults=faults,
    )


def _round_robin(server, sids, features, chunk_frames, **feed_kwargs):
    """Feed each session its utterance ``chunk_frames`` at a time, one
    chunk per session per round, then finish them all; returns the
    hypotheses in ``sids`` order."""
    longest = max(len(utterance) for utterance in features)
    for start in range(0, longest, chunk_frames):
        for sid, utterance in zip(sids, features):
            chunk = utterance[start : start + chunk_frames]
            if len(chunk):
                server.feed(sid, chunk, **feed_kwargs)
    return [server.finish(sid) for sid in sids]


def _stream_pass(plan, features, config: StreamBenchConfig, chunk_frames: int):
    """One full workload through one scheduler."""
    scheduler = StreamScheduler(plan, _stream_config(config))
    sids = [scheduler.open() for _ in features]
    return _round_robin(scheduler, sids, features, chunk_frames), scheduler.stats


def _fabric_pass(artifact_path, features, config: StreamBenchConfig):
    """One full workload through the multi-process serving fabric."""
    from repro.engine.fabric import FaultConfig, ServingFabric

    faults = None
    if config.chaos:
        # Deterministic kill of worker 0 mid-stream; recovery replays
        # its journaled sessions on the restarted worker.
        faults = FaultConfig(crash_after_chunks=3, target_worker=0)
    with ServingFabric(artifact_path, _fabric_config(config, faults)) as fabric:
        sids = [fabric.open() for _ in features]
        hypotheses = _round_robin(
            fabric, sids, features, config.chunk_frames, block=True
        )
        fleet = fabric.stats()
    return hypotheses, fleet


def _canary_pass(features, config: StreamBenchConfig, divergent: bool):
    """One registry-backed canary rollout over the benchmark workload.

    Publishes the incumbent as ``v1`` and a candidate as ``v2`` into a
    throwaway registry, serves ``v1`` through the fabric, canaries
    ``v2`` at 50% of new sessions, and lets the fabric decide.  Returns
    ``(hypotheses, incumbent_sids, fleet, report, wall_s)`` — the caller
    scores ``decode_match`` over incumbent sessions (a rolled-back
    divergent candidate's sessions legitimately decode differently).
    """
    import tempfile
    import time
    from pathlib import Path

    from repro.engine.fabric import CanaryConfig, FaultConfig, ServingFabric
    from repro.engine.registry import PlanRegistry

    incumbent = _build_plan(config, config.seed)
    candidate = _build_plan(
        config, config.seed + 1 if divergent else config.seed
    )
    faults = None
    if config.chaos:
        # Divergent pass: kill a worker mid-canary (recovery must replay
        # sessions onto their correct versions).  Clean pass: kill it on
        # receipt of the promote swap (the deployment-time crash).
        faults = (
            FaultConfig(crash_after_chunks=3, target_worker=0)
            if divergent
            else FaultConfig(crash_on_swap=True, target_worker=0)
        )
    with tempfile.TemporaryDirectory(prefix="repro-canary-bench-") as tmp:
        registry = PlanRegistry(Path(tmp) / "registry")
        v1 = registry.publish("stream-bench", incumbent)
        registry.publish("stream-bench", candidate, parent=v1.version)
        incumbent_path = str(registry.resolve("stream-bench", "v1").artifact_path)
        start = time.perf_counter()
        with ServingFabric.from_registry(
            registry, "stream-bench", "v1", _fabric_config(config, faults)
        ) as fabric:
            fabric.start_canary(
                "v2",
                CanaryConfig(
                    fraction=0.5,
                    decide_after=max(1, config.num_sessions // 4),
                    # The candidate's first chunk pays a lazy
                    # artifact-load cold-start which dominates p95 at
                    # smoke scale; the smoke gates on decode agreement.
                    max_p95_ratio=50.0,
                ),
            )
            sids = [fabric.open() for _ in features]
            opened_on = {sid: fabric.session_version(sid) for sid in sids}
            hypotheses = _round_robin(
                fabric, sids, features, config.chunk_frames, block=True
            )
            if fabric.canary_report().decision is None:
                fabric.decide_canary(force=True)
            report = fabric.canary_report()
            fleet = fabric.stats()
        wall = time.perf_counter() - start
    incumbent_sids = [
        index
        for index, sid in enumerate(sids)
        if opened_on[sid] == incumbent_path
    ]
    return hypotheses, incumbent_sids, fleet, report, wall


def _decode_match(hypotheses, reference, indices=None) -> float:
    """Fraction of ``indices`` (default: all) whose hypothesis is the
    reference decode."""
    if indices is None:
        indices = range(len(reference))
    scored = [hypotheses[index] == reference[index] for index in indices]
    return sum(scored) / len(scored) if scored else 0.0


def _fleet_row(path, wall, match, fleet, config, offline_time, **extra):
    """A fabric or canary row: wall clock plus the fleet's counters."""
    return StreamBenchRow(
        path=path,
        wall_s=wall,
        sessions_per_s=config.num_sessions / wall,
        speedup=offline_time / wall,
        decode_match=match,
        p50_latency_ms=fleet.p50_latency_s * 1e3,
        p95_latency_ms=fleet.p95_latency_s * 1e3,
        mean_batch_size=fleet.mean_batch_size,
        restarts=fleet.restarts,
        sessions_rehomed=fleet.sessions_rehomed,
        chunks_shed=fleet.chunks_shed,
        sessions_shed=fleet.sessions_shed,
        crashes_detected=fleet.crashes_detected,
        stalls_detected=fleet.stalls_detected,
        plan_swaps=fleet.plan_swaps,
        **extra,
    )


def run_stream_bench(
    config: StreamBenchConfig = StreamBenchConfig(),
) -> StreamBenchResult:
    """Measure whole-utterance vs chunked serving on one workload."""
    plan, features = build_stream_workload(config)
    # The independent reference every row is scored against: each
    # utterance decoded alone, outside any scheduler, untimed.
    reference = [
        decode_utterance(plan.forward_utterance(utterance), config.min_duration)
        for utterance in features
    ]
    rows: List[StreamBenchRow] = []
    longest = max(len(utterance) for utterance in features)
    for path, chunk_frames in (
        ("offline whole-utterance", longest),
        (f"streaming chunk={config.chunk_frames}", config.chunk_frames),
    ):
        wall, (hyps, stats) = timed_median(
            partial(_stream_pass, plan, features, config, chunk_frames),
            config.repeats,
        )
        rows.append(
            StreamBenchRow(
                path=path,
                wall_s=wall,
                sessions_per_s=config.num_sessions / wall,
                speedup=(rows[0].wall_s if rows else wall) / wall,
                decode_match=_decode_match(hyps, reference),
                p50_latency_ms=stats.p50_latency_s * 1e3,
                p95_latency_ms=stats.p95_latency_s * 1e3,
                mean_batch_size=stats.mean_batch_size,
            )
        )
    offline_time = rows[0].wall_s
    suffix = " +chaos" if config.chaos else ""
    if config.workers >= 1:
        import tempfile
        from pathlib import Path

        from repro.engine.artifact import save_plan

        with tempfile.TemporaryDirectory(prefix="repro-stream-bench-") as tmp:
            artifact = Path(tmp) / "model.plan.npz"
            save_plan(artifact, plan)
            fabric_time, (fabric_hyps, fleet) = timed_median(
                lambda: _fabric_pass(artifact, features, config),
                config.repeats,
            )
        rows.append(
            _fleet_row(
                f"fabric workers={config.workers}{suffix}",
                fabric_time,
                _decode_match(fabric_hyps, reference),
                fleet,
                config,
                offline_time,
            )
        )
    if config.canary:
        # Correctness-gate rows (single pass each, not timed medians):
        # the asserted quantity is the automatic decision + exact decode,
        # not throughput.
        for divergent in (True, False):
            hyps, incumbent_sids, fleet, report, wall = _canary_pass(
                features, config, divergent
            )
            rows.append(
                _fleet_row(
                    f"canary {'divergent' if divergent else 'clean'} "
                    f"workers={config.workers}{suffix}",
                    wall,
                    _decode_match(
                        hyps, reference, incumbent_sids if divergent else None
                    ),
                    fleet,
                    config,
                    offline_time,
                    canary_decision=report.decision,
                    canary_agreement=report.agreement,
                )
            )
    return StreamBenchResult(
        rows=rows,
        num_sessions=config.num_sessions,
        total_frames=sum(len(utterance) for utterance in features),
        total_chunks=stats.chunks,  # of the streaming pass, the last above
    )


def render_stream_bench(result: StreamBenchResult) -> str:
    """Render the measured serving paths as a table."""
    rows = []
    for row in result.rows:
        rows.append(
            [
                row.path,
                fmt(row.wall_s * 1e3, 1),
                fmt(row.sessions_per_s, 1),
                fmt(row.speedup, 2) + "x",
                fmt(100.0 * row.decode_match, 1) + "%",
                fmt(row.p50_latency_ms, 2),
                fmt(row.p95_latency_ms, 2),
                fmt(row.mean_batch_size, 1),
                fmt(row.restarts, 0),
                fmt(row.sessions_rehomed, 0),
                fmt(row.plan_swaps, 0),
                row.canary_decision or "-",
            ]
        )
    return format_table(
        [
            "path",
            "wall ms",
            "sessions/s",
            "speedup",
            "decode match",
            "p50 ms",
            "p95 ms",
            "mean batch",
            "restarts",
            "rehomed",
            "swaps",
            "canary",
        ],
        rows,
        title=(
            f"Streaming benchmark: {result.num_sessions} concurrent sessions, "
            f"{result.total_frames} frames, {result.total_chunks} chunks"
        ),
    )
