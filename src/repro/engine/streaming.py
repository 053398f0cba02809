"""Stateful streaming inference: sessions, deadline batching, latency.

The paper's accelerator exists for *real-time* speech, and this module
is the one way a compiled :class:`~repro.engine.plan.ModelPlan` is
served: audio is decoded as it arrives, and a complete utterance is just
a stream of one chunk.

* :class:`StreamingSession` — one client stream.  Feed feature chunks
  (or raw audio through a :class:`~repro.speech.features.StreamingFrontend`)
  and receive incrementally committed phones.  The recurrent carry is
  threaded through :meth:`ModelPlan.run_chunk`, so an utterance fed in
  *any* chunk split decodes to exactly the phone sequence the offline
  ``decode_utterance`` path produces (see ``docs/serving.md`` for the
  precise exactness guarantee per scheme).
* :class:`StreamScheduler` — many concurrent sessions multiplexed onto
  one plan.  Queued chunks are grouped **by chunk length** (equal-length
  chunks stack into one padded-free ``(T, B, D)`` batch; padding a
  state-carrying chunk would corrupt the shorter sessions' state, so
  unequal lengths never share a batch) and a group runs as soon as it
  fills ``max_batch_size`` — or as soon as its oldest chunk has waited
  ``max_wait_frames`` frames of other traffic, the deadline that bounds
  tail latency under light load.
* :class:`StreamStats` — what the scheduler did: batch sizes, per-chunk
  wall-clock latency percentiles (p50/p95), and frames of deadline wait.

Plans compiled through the unified pipeline carry their layer graph and
any tuned kernel-backend choice with them, so a session driven by an
artifact reloaded via :func:`repro.engine.load_plan` streams chunk-exact
logits identical to the plan that was saved (``tests/test_artifact.py``
pins this, including the int8 bitwise guarantee).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

#: Sliding window for the latency distribution: long-lived schedulers
#: must not grow state per chunk, so percentiles cover the most recent
#: chunks only (128 KiB of floats at the cap).
LATENCY_WINDOW = 16384

import numpy as np

from repro.errors import ConfigError, StreamError, SwapError
from repro.engine.plan import ModelPlan, PlanState, check_features
from repro.speech.decoder import IncrementalDecoder
from repro.speech.features import StreamingFrontend
from repro.utils.stats import percentile as stats_percentile


@dataclass(frozen=True)
class StreamConfig:
    """Scheduler knobs.

    ``max_batch_size`` bounds how many sessions' chunks fuse into one
    ``run_chunk`` call; ``max_wait_frames`` is the batching deadline — a
    queued chunk never waits for more than this many frames of *other*
    sessions' traffic before its group runs, so latency stays bounded
    even when traffic is too light to fill batches.  ``min_duration`` is
    forwarded to each session's incremental decoder.
    """

    max_batch_size: int = 8
    max_wait_frames: int = 25
    min_duration: int = 1

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_wait_frames < 0:
            raise ConfigError(
                f"max_wait_frames must be >= 0, got {self.max_wait_frames}"
            )
        if self.min_duration < 1:
            raise ConfigError(f"min_duration must be >= 1, got {self.min_duration}")


@dataclass
class StreamStats:
    """What the stream scheduler did, including the latency distribution."""

    sessions_opened: int = 0
    sessions_finished: int = 0
    chunks: int = 0
    batches: int = 0
    batched_chunks: int = 0
    frames: int = 0
    wait_frames: int = 0  # total frames of other traffic chunks waited
    plan_swaps: int = 0  # hot-swaps carried out by swap_plan()
    #: Sliding window (most recent :data:`LATENCY_WINDOW` chunks) of
    #: wall-clock submit→decode latencies, so a long-lived scheduler's
    #: stats stay bounded.
    chunk_latency_s: Deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )

    @property
    def mean_batch_size(self) -> float:
        return self.batched_chunks / self.batches if self.batches else 0.0

    def latency_percentile(self, percentile: float) -> float:
        """Submit→decode latency percentile over the sliding window."""
        return stats_percentile(list(self.chunk_latency_s), percentile)

    @property
    def p50_latency_s(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p95_latency_s(self) -> float:
        return self.latency_percentile(95.0)


class StreamingSession:
    """One stateful decode stream over a compiled plan (unbatched).

    Usage::

        session = StreamingSession(plan, min_duration=2)
        for chunk in feature_chunks:        # (t, D) pieces, any sizes
            new_phones = session.feed(chunk)
        tail = session.finish()
        hypothesis = session.phones         # == offline decode_utterance

    With a :class:`~repro.speech.features.StreamingFrontend` attached,
    :meth:`feed_audio` accepts raw waveform pieces instead and featurizes
    them bit-exactly with the offline ``log_mel_spectrogram``.

    For many concurrent sessions, use :class:`StreamScheduler`, which
    fuses chunks across sessions into batched ``run_chunk`` calls.
    """

    def __init__(
        self,
        plan: ModelPlan,
        min_duration: int = 1,
        frontend: Optional[StreamingFrontend] = None,
    ) -> None:
        self.plan = plan
        self.frontend = frontend
        self._state: Optional[PlanState] = None
        self._decoder = IncrementalDecoder(min_duration)
        self._phones: List[int] = []
        self._frames = 0
        self._finished = False

    @property
    def phones(self) -> List[int]:
        """All phones committed so far (a copy)."""
        return list(self._phones)

    @property
    def frames_fed(self) -> int:
        return self._frames

    @property
    def finished(self) -> bool:
        return self._finished

    def _check_open(self) -> None:
        if self._finished:
            raise StreamError("session already finished; open a new one")

    def feed(self, features: np.ndarray) -> List[int]:
        """Feed a ``(t, D)`` feature chunk; returns newly committed phones."""
        self._check_open()
        features = check_features(features, "t", self.plan.input_dim, "feed")
        if len(features) == 0:
            return []
        logits, self._state = self.plan.run_chunk(
            features[:, None, :], self._state
        )
        self._frames += len(features)
        committed = self._decoder.push(logits[:, 0, :].argmax(axis=1))
        self._phones.extend(committed)
        return committed

    def feed_audio(self, samples: np.ndarray) -> List[int]:
        """Feed raw waveform samples through the attached frontend."""
        if self.frontend is None:
            raise StreamError(
                "session has no StreamingFrontend; construct it with "
                "frontend=StreamingFrontend(config) to feed raw audio"
            )
        self._check_open()
        return self.feed(self.frontend.push(samples))

    def finish(self) -> List[int]:
        """Close the stream; returns the phones committed by the tail."""
        self._check_open()
        committed: List[int] = []
        if self.frontend is not None:
            committed += self.feed(self.frontend.finish())
        self._finished = True
        tail = self._decoder.finish()
        self._phones.extend(tail)
        return committed + tail


@dataclass
class _Pending:
    """One queued chunk: features plus its submit timestamps."""

    features: np.ndarray
    submit_perf: float
    submit_clock: int  # frame clock just after this chunk's own frames


class _Entry:
    """Scheduler-side per-session record."""

    def __init__(self, min_duration: int) -> None:
        self.state: Optional[PlanState] = None
        self.decoder = IncrementalDecoder(min_duration)
        self.queue: Deque[_Pending] = deque()
        self.committed: List[int] = []  # drained by poll()
        self.frames = 0


class StreamScheduler:
    """Latency-aware batching of many streaming sessions on one plan.

    Usage::

        scheduler = StreamScheduler(plan, StreamConfig(max_batch_size=8))
        sids = [scheduler.open() for _ in range(8)]
        for sid, chunk in traffic:
            scheduler.feed(sid, chunk)
            new_phones = scheduler.poll(sid)
        hyps = {sid: scheduler.finish(sid) for sid in sids}

    Only the *head* chunk of each session is eligible for batching (a
    session's chunks are state-dependent, so two of its chunks can never
    share a batch); eligible chunks group by exact length and a group
    runs when it reaches ``max_batch_size`` or when its oldest member has
    waited ``max_wait_frames`` frames of subsequently arriving traffic.
    ``flush()``/``finish()`` run everything still queued.

    Every session's chunk occupies its own batch rows, so co-batched
    traffic can only reach a session through BLAS reduction order in the
    shared per-step recurrent GEMM — a float-epsilon effect (~1e-16)
    that never moves an argmax in practice: a scheduled session's phone
    hypothesis equals the offline ``decode_utterance`` result exactly,
    like an unbatched :class:`StreamingSession` (whose chunk splits are
    bitwise-exact for int8 plans; see ``docs/serving.md``).
    """

    def __init__(
        self,
        plan: ModelPlan,
        config: StreamConfig = StreamConfig(),
        journal=None,
    ) -> None:
        self.plan = plan
        self.config = config
        self.stats = StreamStats()
        self._entries: Dict[int, _Entry] = {}
        self._next_id = 0
        self._clock = 0  # total frames fed, all sessions
        #: Optional chunk journal (any object with ``open(sid)``,
        #: ``record(sid, features)``, ``mark_finished(sid)`` — e.g.
        #: :class:`repro.engine.fabric.SessionJournal`).  Every accepted
        #: chunk is recorded *after* validation, so replaying a journal
        #: into a fresh scheduler reproduces the stream exactly (the
        #: chunk-exactness guarantee makes the replay decode
        #: byte-identical).  The serving fabric builds crash recovery on
        #: this hook.
        self.journal = journal

    def open(self) -> int:
        """Open a new session; returns its id."""
        sid = self._next_id
        self._next_id += 1
        self._entries[sid] = _Entry(self.config.min_duration)
        self.stats.sessions_opened += 1
        if self.journal is not None:
            self.journal.open(sid)
        return sid

    def adopt(
        self,
        state: Optional[PlanState],
        decoder: Optional[IncrementalDecoder] = None,
        committed: Optional[List[int]] = None,
        frames: int = 0,
    ) -> int:
        """Install a mid-stream session that was decoded elsewhere.

        The crash-recovery path: a journal replay reconstructs a
        session's carry ``state``, incremental ``decoder``, and frame
        count outside the scheduler, then adopts them here so the
        session continues live from exactly where the replay left it.
        The state is adapted to this scheduler's plan (dtype cast for a
        scheme change; :class:`~repro.errors.ShapeError` on architecture
        mismatch).  ``committed`` seeds the un-polled phone buffer —
        re-homing callers that already delivered the replayed phones
        pass none.  Adopted sessions start a fresh journal entry; the
        caller owns the history that produced the state.
        """
        sid = self._next_id
        self._next_id += 1
        entry = _Entry(self.config.min_duration)
        if decoder is not None:
            entry.decoder = decoder
        if state is not None:
            entry.state = self.plan.adapt_state(state)
        entry.committed = list(committed) if committed else []
        entry.frames = frames
        self._entries[sid] = entry
        self.stats.sessions_opened += 1
        if self.journal is not None:
            self.journal.open(sid)
        return sid

    def swap_plan(self, plan: ModelPlan) -> ModelPlan:
        """Hot-swap every live session onto ``plan``; returns the old plan.

        The swap is a barrier: all queued chunks are flushed through the
        incumbent plan first, so no in-flight batch ever mixes plans.
        Then every live session's carry state is adapted to the new
        plan's compute dtypes (:meth:`ModelPlan.adapt_state
        <repro.engine.plan.ModelPlan.adapt_state>`) — ``PlanState``
        shapes are stable across same-architecture plans, so sessions
        continue mid-utterance without dropping a frame.

        Raises :class:`~repro.errors.SwapError` (before flushing or
        touching any session) when ``plan``'s architecture signature
        differs from the incumbent's; a rejected swap leaves the
        scheduler fully intact.
        """
        if plan.signature() != self.plan.signature():
            raise SwapError(
                "cannot hot-swap: architecture mismatch "
                f"(incumbent {self.plan.signature()}, "
                f"candidate {plan.signature()})"
            )
        self.flush()
        old = self.plan
        if plan is not old:
            for entry in self._entries.values():
                if entry.state is not None:
                    entry.state = plan.adapt_state(entry.state)
            self.plan = plan
        self.stats.plan_swaps += 1
        return old

    def _entry(self, sid: int) -> _Entry:
        entry = self._entries.get(sid)
        if entry is None:
            if 0 <= sid < self._next_id:
                raise StreamError(f"session {sid} already finished")
            raise StreamError(f"unknown session id {sid}")
        return entry

    def feed(self, sid: int, features: np.ndarray) -> None:
        """Queue a ``(t, D)`` chunk for ``sid``; may run ready batches."""
        entry = self._entry(sid)
        # a copy: the chunk waits in the queue, and the caller may refill
        # its buffer before the batch runs.  Checked before the journal
        # sees it: a rejected chunk is neither queued nor recorded.
        features = check_features(
            np.array(features, dtype=np.float64), "t", self.plan.input_dim, "feed"
        )
        if len(features) == 0:
            return
        if self.journal is not None:
            self.journal.record(sid, features)
        # The clock stamp excludes the chunk's own frames, so the
        # deadline measures frames of *other* traffic arriving while the
        # chunk waits.
        self._clock += len(features)
        entry.queue.append(
            _Pending(features, time.perf_counter(), self._clock)
        )
        self.stats.chunks += 1
        self.stats.frames += len(features)
        self._pump()

    def poll(self, sid: int) -> List[int]:
        """Drain the phones committed for ``sid`` since the last poll."""
        entry = self._entry(sid)
        committed, entry.committed = entry.committed, []
        return committed

    def pending(self) -> int:
        """Chunks queued but not yet run."""
        return sum(len(entry.queue) for entry in self._entries.values())

    def flush(self) -> None:
        """Run every queued chunk (deadline disregarded)."""
        while self.pending():
            self._run_ready(force=True)

    def finish(self, sid: int) -> List[int]:
        """Close ``sid``: run its queue, finish its decoder, return the
        phones not yet polled (earlier ``poll`` results are not repeated).
        """
        entry = self._entry(sid)
        while entry.queue:
            self._run_ready(force=True, only_sid=sid)
        entry.committed.extend(entry.decoder.finish())
        del self._entries[sid]
        self.stats.sessions_finished += 1
        if self.journal is not None:
            self.journal.mark_finished(sid)
        return entry.committed

    # -- batching core ----------------------------------------------------
    def _groups(self, only_sid: Optional[int] = None) -> Dict[int, List[int]]:
        """Eligible head chunks grouped by exact chunk length."""
        groups: Dict[int, List[int]] = {}
        for sid, entry in self._entries.items():
            if only_sid is not None and sid != only_sid:
                continue
            if entry.queue:
                groups.setdefault(len(entry.queue[0].features), []).append(sid)
        return groups

    def _pump(self) -> None:
        """Run groups that are full or past their deadline."""
        while self._run_ready(force=False):
            pass

    def _run_ready(self, force: bool, only_sid: Optional[int] = None) -> bool:
        for length, sids in sorted(self._groups(only_sid).items()):
            full = len(sids) >= self.config.max_batch_size
            expired = any(
                self._clock - self._entries[sid].queue[0].submit_clock
                >= self.config.max_wait_frames
                for sid in sids
            )
            if force or full or expired:
                self._run_group(sids)
                return True
        return False

    def _run_group(self, sids: List[int]) -> None:
        # Oldest submissions first when the group overfills the batch.
        sids = sorted(
            sids, key=lambda sid: self._entries[sid].queue[0].submit_clock
        )[: self.config.max_batch_size]
        entries = [self._entries[sid] for sid in sids]
        pendings = [entry.queue.popleft() for entry in entries]
        batch = np.stack([p.features for p in pendings], axis=1)
        states = PlanState.stack(
            [
                entry.state if entry.state is not None else self.plan.init_state(1)
                for entry in entries
            ]
        )
        logits, new_state = self.plan.run_chunk(batch, states)
        labels = logits.argmax(axis=2)  # (T, B)
        for b, (entry, pending) in enumerate(zip(entries, pendings)):
            entry.committed.extend(entry.decoder.push(labels[:, b]))
            entry.frames += len(pending.features)
            # Stamped after this session's decode: the percentiles cover
            # the full submit→decoded-phones path a client waits for.
            self.stats.chunk_latency_s.append(
                time.perf_counter() - pending.submit_perf
            )
            self.stats.wait_frames += self._clock - pending.submit_clock
        for entry, split in zip(entries, new_state.split()):
            entry.state = split
        self.stats.batches += 1
        self.stats.batched_chunks += len(entries)
