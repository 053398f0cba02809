"""The serving fabric facade: supervised multi-process streaming.

:class:`ServingFabric` is the client-facing object.  It presents the
same session API as a single-process
:class:`~repro.engine.streaming.StreamScheduler` — ``open`` / ``feed`` /
``poll`` / ``finish`` — but shards sessions across supervised worker
processes and adds the three production behaviors a single process
cannot offer:

* **Fault tolerance.**  Every worker failure (crash or stall) is
  detected at a synchronous touchpoint (RPC timeout, dead process,
  broken pipe), the worker is restarted with exponential backoff, and
  its orphaned sessions are *re-homed*: their journaled feature chunks
  are replayed into the replacement worker.  Chunk-exactness makes the
  replayed decode byte-identical to an uninterrupted run, so the phones
  already delivered to a client form an exact prefix of the recovered
  stream — recovery is invisible apart from latency.
* **Admission control and backpressure.**  Per-worker in-flight queues
  are bounded in frames *and* chunks; past the bound the fabric sheds —
  new sessions at ``open`` and chunks at ``feed`` — with a typed
  :class:`~repro.errors.OverloadError` instead of queueing.  The frame
  bound defaults to ``max_wait_frames * max_batch_size``, i.e. a worker
  is never handed more queued work than its scheduler can retire within
  the latency deadline, so ``max_wait_frames`` survives saturation.
* **Fleet observability.**  :meth:`stats` rolls per-worker
  :class:`~repro.engine.streaming.StreamStats` snapshots into a
  :class:`FleetStats` with per-worker and aggregate p50/p95 latency,
  restart/shed/re-home counters.

Supervision is synchronous by design — there is no monitor thread.
Detection happens on the calls that already talk to a worker, plus the
explicit :meth:`check` heartbeat sweep a serving loop should call
periodically.  This keeps every fault-injection scenario deterministic
and replayable, which is how ``tests/test_fabric.py`` can assert
byte-identical recovery instead of "it usually works".
"""

from __future__ import annotations

import re
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.engine.fabric.canary import CanaryConfig, CanaryReport, CanaryState
from repro.utils.faults import FaultConfig
from repro.engine.fabric.journal import SessionJournal
from repro.engine.fabric.router import HashRing
from repro.engine.fabric.worker import WorkerHandle, worker_main
from repro.engine.plan import check_features
from repro.engine.streaming import StreamConfig
from repro.utils.stats import percentile
from repro.utils.supervise import Pool, WorkerFailure
from repro.errors import (
    ConfigError,
    FabricError,
    OverloadError,
    StreamError,
    SwapError,
)
from repro.speech.decoder import IncrementalDecoder

#: What counts as a registry version id (vs a filesystem artifact path)
#: in the version arguments of :meth:`ServingFabric.swap` /
#: :meth:`ServingFabric.start_canary` on a registry-backed fabric.
_VERSION_ID = re.compile(r"^(latest|v?[0-9]+)$")


@dataclass(frozen=True)
class FabricConfig:
    """Fabric-level knobs (the per-worker scheduler keeps its own
    :class:`~repro.engine.streaming.StreamConfig` under ``stream``).

    ``max_backlog_frames`` bounds each worker's in-flight queue (frames
    sent but not yet acknowledged); ``None`` derives the deadline-aware
    default ``stream.max_wait_frames * stream.max_batch_size`` — the
    most queued work the worker's scheduler can retire within one
    ``max_wait_frames`` window at full batches.  ``rpc_timeout_s`` and
    ``heartbeat_timeout_s`` are the stall detectors; restarts back off
    exponentially from ``backoff_base_s`` up to ``backoff_cap_s`` and a
    worker is abandoned (sessions permanently re-homed) after
    ``max_restarts``.
    """

    num_workers: int = 2
    stream: StreamConfig = StreamConfig()
    max_sessions_per_worker: int = 64
    max_backlog_frames: Optional[int] = None
    max_pending_chunks: int = 64
    rpc_timeout_s: float = 10.0
    heartbeat_timeout_s: float = 5.0
    max_restarts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    ring_replicas: int = 64
    faults: Optional[FaultConfig] = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ConfigError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.max_sessions_per_worker < 1:
            raise ConfigError("max_sessions_per_worker must be >= 1")
        if self.max_backlog_frames is not None and self.max_backlog_frames < 1:
            raise ConfigError("max_backlog_frames must be >= 1 (or None)")
        if self.max_pending_chunks < 1:
            raise ConfigError("max_pending_chunks must be >= 1")
        if self.rpc_timeout_s <= 0 or self.heartbeat_timeout_s <= 0:
            raise ConfigError("timeouts must be > 0")
        if self.max_restarts < 0:
            raise ConfigError(f"max_restarts must be >= 0, got {self.max_restarts}")

    @property
    def backlog_frames_bound(self) -> int:
        if self.max_backlog_frames is not None:
            return self.max_backlog_frames
        return max(self.stream.max_wait_frames * self.stream.max_batch_size, 1)


# One copy of the empty-safe percentile lives in repro.utils.stats; the
# fleet rollups and the canary report share it.
_percentile = percentile


@dataclass
class WorkerStats:
    """One worker's slice of the fleet rollup."""

    index: int
    alive: bool
    incarnation: int
    restarts: int
    snapshot: Optional[Dict] = None  # scheduler stats; None if unreachable

    def _latencies(self) -> List[float]:
        if not self.snapshot:
            return []
        return list(self.snapshot.get("latencies_s") or [])

    @property
    def p50_latency_s(self) -> float:
        return _percentile(self._latencies(), 50.0)

    @property
    def p95_latency_s(self) -> float:
        return _percentile(self._latencies(), 95.0)


@dataclass
class FleetStats:
    """Fleet-wide rollup: per-worker rows plus fabric counters."""

    workers: List[WorkerStats] = field(default_factory=list)
    sessions_opened: int = 0
    sessions_finished: int = 0
    sessions_rehomed: int = 0
    sessions_shed: int = 0
    chunks_shed: int = 0
    restarts: int = 0
    crashes_detected: int = 0
    stalls_detected: int = 0
    plan_swaps: int = 0
    max_backlog_frames_seen: int = 0
    backlog_frames_bound: int = 0

    def _all_latencies(self) -> List[float]:
        merged: List[float] = []
        for worker in self.workers:
            merged.extend(worker._latencies())
        return merged

    @property
    def p50_latency_s(self) -> float:
        return _percentile(self._all_latencies(), 50.0)

    @property
    def p95_latency_s(self) -> float:
        return _percentile(self._all_latencies(), 95.0)

    @property
    def chunks(self) -> int:
        return sum(w.snapshot.get("chunks", 0) for w in self.workers if w.snapshot)

    @property
    def batches(self) -> int:
        return sum(w.snapshot.get("batches", 0) for w in self.workers if w.snapshot)

    @property
    def mean_batch_size(self) -> float:
        batched = sum(
            w.snapshot.get("batched_chunks", 0)
            for w in self.workers
            if w.snapshot
        )
        return batched / self.batches if self.batches else 0.0

    def version_latencies(self, version: str) -> List[float]:
        """Chunk latencies of the schedulers serving one plan version —
        what canary shadow-scoring compares p95 on."""
        merged: List[float] = []
        for worker in self.workers:
            if not worker.snapshot:
                continue
            for row in worker.snapshot.get("schedulers", ()):
                if row.get("version") == version:
                    merged.extend(row.get("latencies_s") or [])
        return merged


class _Session:
    """A live session's parent-side record; :meth:`ServingFabric.finish`
    drops it."""

    __slots__ = ("worker", "version", "committed", "delivered")

    def __init__(self, worker: int, version: str) -> None:
        self.worker = worker
        self.version = version  # artifact path the session decodes under
        self.committed: List[int] = []
        self.delivered = 0


class ServingFabric:
    """Supervised multi-process streaming over one compiled artifact.

    Usage::

        fabric = ServingFabric("model.plan.npz", FabricConfig(num_workers=4))
        with fabric:
            sid = fabric.open()
            fabric.feed(sid, chunk)            # may raise OverloadError
            phones = fabric.poll(sid)
            phones += fabric.finish(sid)
            fleet = fabric.stats()

    Every worker process ``load_plan``\\ s ``artifact_path`` itself — the
    artifact (crash-safe on disk, checksummed on load) is the unit of
    deployment, and a restarted worker reloads it bit-identically.
    """

    def __init__(
        self,
        artifact_path: Union[str, Path],
        config: FabricConfig = FabricConfig(),
    ) -> None:
        self.config = config
        self._artifact_path = str(artifact_path)
        # Parent-side copy: shape validation + offline comparison hooks.
        from repro.engine.artifact import load_plan

        self._plan = load_plan(artifact_path)
        self._supervisor = Pool(
            config.num_workers,
            worker_main,
            (self._artifact_path, config.stream),
            faults=config.faults,
            max_restarts=config.max_restarts,
            backoff_base_s=config.backoff_base_s,
            backoff_cap_s=config.backoff_cap_s,
            child=WorkerHandle,
        )
        self._ring = HashRing(range(config.num_workers), config.ring_replicas)
        self._journal = SessionJournal()
        #: the live sessions only (ids below ``_next_sid`` not here have
        #: finished), and how many of them each worker holds
        self._sessions: Dict[int, _Session] = {}
        self._live = [0] * config.num_workers
        self._next_sid = 0
        self._closed = False
        self.sessions_opened = 0
        self.sessions_finished = 0
        self.sessions_rehomed = 0
        self.sessions_shed = 0
        self.chunks_shed = 0
        self.plan_swaps = 0
        self.max_backlog_frames_seen = 0
        self._tempdir: Optional[tempfile.TemporaryDirectory] = None
        #: The serving version: the artifact path new (non-canary)
        #: sessions open under; updated atomically by :meth:`swap`.
        self._version = self._artifact_path
        self._canary: Optional[CanaryState] = None
        self._canary_report: Optional[CanaryReport] = None
        # Registry backing (set by from_registry): lets swap/start_canary
        # take version ids and records deployment decisions back.
        self._registry = None
        self._registry_name: Optional[str] = None
        self._incumbent_id: Optional[str] = None

    @classmethod
    def from_plan(
        cls, plan, config: FabricConfig = FabricConfig()
    ) -> "ServingFabric":
        """Convenience: save ``plan`` to a temp artifact and serve it."""
        from repro.engine.artifact import save_plan

        tempdir = tempfile.TemporaryDirectory(prefix="repro-fabric-")
        path = Path(tempdir.name) / "model.plan.npz"
        save_plan(path, plan)
        fabric = cls(path, config)
        fabric._tempdir = tempdir  # keep the artifact alive with the fabric
        return fabric

    @classmethod
    def from_registry(
        cls,
        registry,
        name: str,
        version: str = "latest",
        config: FabricConfig = FabricConfig(),
    ) -> "ServingFabric":
        """Serve a :class:`~repro.engine.registry.PlanRegistry` version.

        The artifact is integrity-verified before the fleet spawns, and
        the fabric remembers the registry: :meth:`swap` and
        :meth:`start_canary` then accept version ids (``"v3"``,
        ``"latest"``) and record their promote/rollback/swap decisions
        into the version's registry metadata.
        """
        entry = registry.resolve(name, version)
        registry.verify(entry)
        fabric = cls(entry.artifact_path, config)
        fabric._registry = registry
        fabric._registry_name = name
        fabric._incumbent_id = entry.version
        return fabric

    # -- context management -------------------------------------------------
    def __enter__(self) -> "ServingFabric":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._supervisor.close()
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    # -- session API --------------------------------------------------------
    def _session(self, sid: int) -> _Session:
        session = self._sessions.get(sid)
        if session is None:
            if 0 <= sid < self._next_sid:
                raise StreamError(f"session {sid} already finished")
            raise StreamError(f"unknown session id {sid}")
        return session

    def _handle(self, session: _Session) -> WorkerHandle:
        return self._supervisor.children[session.worker]

    def open(self) -> int:
        """Open a new session; returns its fabric-wide id.

        Raises :class:`OverloadError` (the session is *not* created) if
        the consistent-hash target worker is at session capacity —
        shed-new-work-first is the degradation contract.
        """
        sid = self._next_sid
        target = self._ring.assign(sid, self._alive_or_raise())
        if self._live[target] >= self.config.max_sessions_per_worker:
            self.sessions_shed += 1
            raise OverloadError(
                f"worker {target} is at session capacity "
                f"({self.config.max_sessions_per_worker}); new session shed"
            )
        self._next_sid += 1
        # Canary routing: a deterministic stride of admitted opens goes
        # to the candidate version; everyone else stays incumbent.
        version = self._version
        if self._canary is not None and self._canary.route():
            version = self._canary.candidate_path
        self._journal.open(sid, version)
        session = _Session(worker=target, version=version)
        self._sessions[sid] = session
        self._live[target] += 1
        self.sessions_opened += 1
        try:
            self._handle(session).send(("open", sid, version))
        except WorkerFailure as failure:
            self._recover(failure)  # replay re-opens the empty session
        return sid

    def feed(self, sid: int, features: np.ndarray, block: bool = False) -> None:
        """Queue one ``(t, D)`` chunk.

        With ``block=False`` (the default) the call never waits on the
        worker: past the backlog bound it raises :class:`OverloadError`
        — and does *not* journal the chunk, so retrying the same chunk
        later is safe.  With ``block=True`` the call waits on the worker's
        pipe (up to ``rpc_timeout_s``) for the acks that free enough
        in-flight room to admit the chunk — backpressure instead of
        shedding, for clients that must not lose audio.
        """
        session = self._session(sid)
        features = check_features(features, "t", self._plan.input_dim, "feed")
        if len(features) == 0:
            return
        deadline = time.monotonic() + self.config.rpc_timeout_s
        while True:
            # Health of the current home first: a dead worker re-homes
            # the session (replaying its journal) before admission.
            while True:
                handle = self._handle(session)
                try:
                    handle.drain()
                    handle.check_alive()
                    break
                except WorkerFailure as failure:
                    self._recover(failure)
            # Admission: bounded per-worker in-flight queue, in frames
            # and chunks.  An idle worker always accepts one chunk
            # (progress guarantee); past the bound the chunk is shed —
            # or, when blocking, waited out.
            backlog = handle.inflight_frames
            self.max_backlog_frames_seen = max(
                self.max_backlog_frames_seen, backlog
            )
            if backlog == 0 or (
                backlog + len(features) <= self.config.backlog_frames_bound
                and handle.inflight_chunks < self.config.max_pending_chunks
            ):
                break
            if not block or time.monotonic() >= deadline:
                self.chunks_shed += 1
                raise OverloadError(
                    f"worker {session.worker} backlog is {backlog} frames / "
                    f"{handle.inflight_chunks} chunks (bound "
                    f"{self.config.backlog_frames_bound} frames, "
                    f"{self.config.max_pending_chunks} chunks): chunk shed "
                    "to keep the max_wait_frames="
                    f"{self.config.stream.max_wait_frames} deadline"
                )
            handle.wait(deadline)
        self._journal.record(sid, features)
        try:
            handle.feed(sid, features)
        except WorkerFailure as failure:
            # The chunk is journaled, so recovery's replay delivers it.
            self._recover(failure)

    def poll(self, sid: int) -> List[int]:
        """Drain the phones committed for ``sid`` since the last poll."""
        session = self._session(sid)
        try:
            phones = self._handle(session).request(
                "poll", self.config.rpc_timeout_s, sid
            )
            session.committed.extend(phones)
        except WorkerFailure as failure:
            self._recover(failure)  # replay refreshed session.committed
        return self._deliver(session)

    def finish(self, sid: int) -> List[int]:
        """Close ``sid``; returns the phones not yet polled."""
        session = self._session(sid)
        # Journal the finish *before* the RPC: if the worker dies inside
        # it, replay re-finishes and the tail phones are still exact.
        self._journal.mark_finished(sid)
        try:
            phones = self._handle(session).request(
                "finish", self.config.rpc_timeout_s, sid
            )
            session.committed.extend(phones)
        except WorkerFailure as failure:
            self._recover(failure)  # replay re-ran the finish
        del self._sessions[sid]
        self._live[session.worker] -= 1
        self.sessions_finished += 1
        undelivered = self._deliver(session)
        # Shadow-score a finished canary session (needs the journal, so
        # before close) — may trigger the promote/rollback decision.
        if (
            self._canary is not None
            and session.version == self._canary.candidate_path
        ):
            self._score_canary(sid, session)
        self._journal.close(sid)
        session.committed = []
        return undelivered

    def session_version(self, sid: int) -> str:
        """The plan version (artifact path) ``sid`` decodes under — the
        candidate during a canary, else the serving version (updated in
        place when a hot-swap carries the session across)."""
        return self._session(sid).version

    def _deliver(self, session: _Session) -> List[int]:
        undelivered = session.committed[session.delivered :]
        session.delivered = len(session.committed)
        return undelivered

    # -- supervision --------------------------------------------------------
    def check(self) -> List[int]:
        """Heartbeat sweep: ping every worker, recover the unresponsive.

        Returns the indices of workers that failed the sweep (each has
        been restarted or abandoned, with sessions re-homed).  A serving
        loop should call this periodically; stalls on idle workers are
        otherwise only caught at the next RPC.
        """
        failed: List[int] = []
        for index, handle in enumerate(self._supervisor.children):
            if index in self._supervisor.dead:
                continue
            try:
                handle.request("ping", self.config.heartbeat_timeout_s)
            except WorkerFailure as failure:
                failed.append(index)
                self._recover(failure)
        return failed

    def _alive_or_raise(self) -> List[int]:
        alive = [
            index
            for index, handle in enumerate(self._supervisor.children)
            if index not in self._supervisor.dead and handle.alive()
        ]
        if not alive:
            raise FabricError("no live workers left in the fabric")
        return alive

    def _recover(self, failure: WorkerFailure) -> None:
        """Restart/abandon failed workers and replay their sessions.

        Runs as a work queue because a replay can itself hit a second
        fault (e.g. a repeat-armed crash fault fires again mid-replay):
        each round restarts-or-abandons one worker, re-homes its
        sessions, and any worker that fails *during* replay is pushed
        back onto the queue.  Total rounds are bounded by the fleet's
        restart budget, with a hard cap as a backstop.
        """
        queue: List[WorkerFailure] = [failure]
        cap = self.config.num_workers * (self.config.max_restarts + 2) + 2
        rounds = 0
        while queue:
            rounds += 1
            if rounds > cap:
                raise FabricError(
                    f"recovery did not converge after {rounds - 1} rounds "
                    f"(last failure: {queue[-1]})"
                )
            current = queue.pop()
            handle = self._supervisor.restart(current)
            orphans = [
                sid
                for sid, session in sorted(self._sessions.items())
                if session.worker == current.index
            ]
            if handle is None:
                # Permanently dead: the ring spreads its slice over the
                # survivors (or FabricError if there are none).
                if orphans:
                    alive = self._alive_or_raise()
                    for sid in orphans:
                        session = self._sessions[sid]
                        self._live[session.worker] -= 1
                        session.worker = self._ring.assign(sid, alive)
                        self._live[session.worker] += 1
            failed_now: set = set()
            for sid in orphans:
                target = self._sessions[sid].worker
                if target in failed_now:
                    continue  # recollected when its failure is processed
                try:
                    self._replay(sid)
                except WorkerFailure as nested:
                    failed_now.add(nested.index)
                    if all(f.index != nested.index for f in queue):
                        queue.append(nested)

    def _replay(self, sid: int) -> None:
        """Re-home one session: journal replay onto its (new) worker.

        The worker's ``rehome`` RPC decodes the journal segment by
        segment — each run of chunks under the plan version that
        originally saw it (a session that lived through a hot-swap has a
        pre-swap and a post-swap segment) — then adopts the
        reconstructed state into its live scheduler for the session's
        current version.  Chunk-exactness + deterministic decode make
        the replayed stream byte-identical to the uninterrupted one; the
        phones the fabric had already received must therefore be an
        exact prefix of the recovered stream — verified here, because a
        silent divergence would mean the exactness contract broke.
        """
        session = self._sessions[sid]
        handle = self._handle(session)
        handle.check_alive()
        phones = list(
            handle.request(
                "rehome",
                self.config.rpc_timeout_s,
                sid,
                self._journal.segments(sid),
                self._journal.finished(sid),
                session.version,
            )
        )
        if (
            len(phones) < len(session.committed)
            or phones[: len(session.committed)] != session.committed
        ):
            raise FabricError(
                f"replay of session {sid} diverged from its delivered "
                f"prefix (chunk-exactness violation): had "
                f"{session.committed}, replay produced {phones}"
            )
        session.committed = phones
        self.sessions_rehomed += 1

    # -- deployment: hot-swap -----------------------------------------------
    def _resolve_version(self, version) -> tuple:
        """``(artifact_path, registry_version_id)`` for a swap/canary
        target: a registry id on a registry-backed fabric, else a path."""
        if self._registry is not None and (
            isinstance(version, int) or _VERSION_ID.match(str(version))
        ):
            entry = self._registry.resolve(self._registry_name, version)
            self._registry.verify(entry)
            return str(entry.artifact_path), entry.version
        return str(version), None

    def _record_decision(self, version_id, decision: Dict, status: str) -> None:
        if self._registry is not None and version_id is not None:
            self._registry.record_decision(
                self._registry_name, version_id, decision, status=status
            )

    def swap(self, version) -> None:
        """Hot-swap the whole fleet onto a new same-architecture version.

        ``version`` is a registry version id on a registry-backed fabric
        (``"v3"``, ``"latest"``) or an artifact path otherwise.  Every
        live session carries its recurrent state across the swap and
        continues mid-utterance; no in-flight batch mixes plans (each
        worker flushes before swapping).  Raises
        :class:`~repro.errors.SwapError` — with the fleet untouched — on
        an architecture mismatch or while a canary is still undecided.
        """
        if self._canary is not None:
            raise SwapError(
                "a canary rollout is active; let it decide (or call "
                "decide_canary(force=True)) before swapping directly"
            )
        path, version_id = self._resolve_version(version)
        self._swap_to(path)
        self._record_decision(
            version_id,
            {"event": "hot_swap", "from": self._incumbent_id},
            status="serving",
        )
        if version_id is not None:
            self._incumbent_id = version_id

    def _swap_to(self, path: str) -> None:
        """Propagate a validated swap to every worker and live session."""
        from repro.engine.artifact import load_plan

        candidate = load_plan(path)
        if candidate.signature() != self._plan.signature():
            raise SwapError(
                "cannot hot-swap the fleet: architecture mismatch "
                f"(incumbent {self._plan.signature()}, "
                f"candidate {candidate.signature()})"
            )
        # Commit the new version first: restarts during the swap come up
        # serving it, and new opens route to it.
        self._supervisor.args = (path, self.config.stream)
        self._plan = candidate
        self._version = path
        self.plan_swaps += 1
        cap = self.config.num_workers * (self.config.max_restarts + 2) + 2
        rounds = 0
        while True:
            # Workers still owing a swap: any with a live pre-swap
            # session, plus (first round) the whole alive fleet so
            # session-less workers converge too.
            stale = {
                session.worker
                for session in self._sessions.values()
                if session.version != path
                and session.worker not in self._supervisor.dead
            }
            if rounds == 0:
                stale |= set(self._alive_or_raise())
            elif not stale:
                break
            rounds += 1
            if rounds > cap:
                raise FabricError(
                    f"hot-swap did not converge after {rounds - 1} rounds"
                )
            for index in sorted(stale):
                if index in self._supervisor.dead:
                    continue
                try:
                    self._supervisor.children[index].request(
                        "swap", self.config.rpc_timeout_s, path
                    )
                except WorkerFailure as failure:
                    # Crash mid-swap: recovery replays this worker's
                    # sessions (pre-swap segments under the old plan)
                    # and the next round re-issues the swap.
                    self._recover(failure)
                    continue
                # Barrier + swap acknowledged: everything this worker
                # serves is now on the new plan — mark the journals so
                # later replays decode each chunk under the right plan.
                for sid, session in self._sessions.items():
                    if session.worker == index and session.version != path:
                        self._journal.mark_swap(sid, path)
                        session.version = path

    # -- deployment: canary rollout -----------------------------------------
    def start_canary(
        self, version, config: CanaryConfig = CanaryConfig()
    ) -> CanaryReport:
        """Start routing a fraction of new sessions to ``version``.

        The candidate must be architecture-compatible (checked now,
        :class:`~repro.errors.SwapError` otherwise — *numeric* drift is
        exactly what shadow-scoring is for and does not block the
        start).  Returns the live :class:`CanaryReport`; the decision
        fires automatically from :meth:`finish` once enough canary
        sessions were scored, or immediately on hopeless divergence.
        """
        from repro.engine.artifact import load_plan

        if self._canary is not None:
            raise SwapError("a canary rollout is already active")
        path, version_id = self._resolve_version(version)
        candidate = load_plan(path)
        if candidate.signature() != self._plan.signature():
            raise SwapError(
                "cannot canary: architecture mismatch "
                f"(incumbent {self._plan.signature()}, "
                f"candidate {candidate.signature()})"
            )
        self._canary = CanaryState(
            candidate_path=path,
            incumbent_path=self._version,
            shadow_plan=self._plan,
            config=config,
            candidate_version=version_id,
            incumbent_version=self._incumbent_id,
        )
        self._canary_report = self._canary.report
        return self._canary.report

    def canary_report(self) -> Optional[CanaryReport]:
        """The live (or last decided) canary report, if any."""
        return self._canary_report

    def _shadow_decode(self, chunks) -> List[int]:
        """Decode journaled chunks under the incumbent plan, parent-side
        — the reference stream canary agreement is scored against."""
        plan = self._canary.shadow_plan
        decoder = IncrementalDecoder(self.config.stream.min_duration)
        state = None
        phones: List[int] = []
        for chunk in chunks:
            logits, state = plan.run_chunk(chunk[:, None, :], state)
            phones.extend(decoder.push(logits[:, 0, :].argmax(axis=1)))
        return phones + decoder.finish()

    def _score_canary(self, sid: int, session: _Session) -> None:
        shadow = self._shadow_decode(self._journal.chunks(sid))
        self._canary.score(agreed=(shadow == session.committed))
        if self._canary.window_full() or self._canary.agreement_unreachable():
            self.decide_canary()

    def decide_canary(self, force: bool = False) -> CanaryReport:
        """Decide the active canary now (normally called internally).

        ``force=True`` decides on whatever evidence exists — the drain
        hook for harnesses whose traffic ended before the window filled;
        with no scored sessions it rolls back (no evidence, no
        promotion).  Promotion hot-swaps the fleet onto the candidate;
        rollback stops routing and lets live canary sessions drain on
        the candidate.  Either way the decision is recorded in the
        report and, when registry-backed, the candidate's metadata.
        """
        canary = self._canary
        if canary is None:
            raise SwapError("no canary rollout is active")
        report = canary.report
        if (
            not force
            and not canary.window_full()
            and not canary.agreement_unreachable()
        ):
            raise SwapError(
                f"canary window not full ({report.sessions_scored}/"
                f"{canary.config.decide_after} scored); use force=True"
            )
        fleet = self.stats()
        candidate_lat = fleet.version_latencies(canary.candidate_path)
        incumbent_lat = fleet.version_latencies(canary.incumbent_path)
        report.candidate_p95_s = _percentile(candidate_lat, 95.0)
        report.incumbent_p95_s = _percentile(incumbent_lat, 95.0)
        agreement_ok = (
            report.sessions_scored > 0
            and report.agreement >= canary.config.min_agreement
        )
        latency_ok = (
            not candidate_lat
            or not incumbent_lat
            or report.candidate_p95_s
            <= report.incumbent_p95_s * canary.config.max_p95_ratio
        )
        if agreement_ok and latency_ok:
            report.decision = "promote"
            report.reason = (
                f"agreement {report.agreement:.3f} over "
                f"{report.sessions_scored} sessions, candidate p95 "
                f"{report.candidate_p95_s * 1e3:.2f}ms vs incumbent "
                f"{report.incumbent_p95_s * 1e3:.2f}ms"
            )
        else:
            report.decision = "rollback"
            if not report.sessions_scored:
                report.reason = "no canary sessions scored"
            elif not agreement_ok:
                report.reason = (
                    f"decode divergence: agreement {report.agreement:.3f} "
                    f"< {canary.config.min_agreement:.3f} over "
                    f"{report.sessions_scored} sessions"
                )
            else:
                report.reason = (
                    f"latency regression: candidate p95 "
                    f"{report.candidate_p95_s * 1e3:.2f}ms > "
                    f"{canary.config.max_p95_ratio:.2f}x incumbent "
                    f"{report.incumbent_p95_s * 1e3:.2f}ms"
                )
        # Stop routing before any promote-swap so open() and the swap's
        # convergence loop see no active canary.
        self._canary = None
        self._canary_report = report
        if report.decision == "promote":
            self._swap_to(canary.candidate_path)
            self._record_decision(
                report.candidate_version, report.to_dict(), status="serving"
            )
            if report.candidate_version is not None:
                if self._incumbent_id is not None:
                    self._record_decision(
                        self._incumbent_id,
                        {
                            "event": "superseded",
                            "by": report.candidate_version,
                        },
                        status="superseded",
                    )
                self._incumbent_id = report.candidate_version
        else:
            self._record_decision(
                report.candidate_version, report.to_dict(), status="rolled_back"
            )
        return report

    # -- observability ------------------------------------------------------
    def stats(self) -> FleetStats:
        """Fleet rollup: per-worker scheduler snapshots + fabric counters.

        Unreachable workers get a ``snapshot=None`` row (and trigger
        recovery as a side effect, like any other touchpoint).
        """
        workers: List[WorkerStats] = []
        for index, handle in enumerate(self._supervisor.children):
            row = WorkerStats(
                index=index,
                alive=index not in self._supervisor.dead and handle.alive(),
                incarnation=handle.incarnation,
                restarts=self._supervisor.restarts[index],
            )
            if row.alive:
                try:
                    row.snapshot = handle.request(
                        "stats", self.config.rpc_timeout_s
                    )
                except WorkerFailure as failure:
                    row.alive = False
                    self._recover(failure)
            workers.append(row)
        return FleetStats(
            workers=workers,
            sessions_opened=self.sessions_opened,
            sessions_finished=self.sessions_finished,
            sessions_rehomed=self.sessions_rehomed,
            sessions_shed=self.sessions_shed,
            chunks_shed=self.chunks_shed,
            restarts=sum(self._supervisor.restarts.values()),
            crashes_detected=self._supervisor.crashes_detected,
            stalls_detected=self._supervisor.stalls_detected,
            plan_swaps=self.plan_swaps,
            max_backlog_frames_seen=self.max_backlog_frames_seen,
            backlog_frames_bound=self.config.backlog_frames_bound,
        )


__all__ = [
    "ServingFabric",
    "FabricConfig",
    "FleetStats",
    "WorkerStats",
    "CanaryConfig",
    "CanaryReport",
]
