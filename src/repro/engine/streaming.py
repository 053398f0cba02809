"""Stateful streaming inference: sessions, deadline batching, latency.

The paper's accelerator exists for *real-time* speech, and this module
is the one way a compiled :class:`~repro.engine.plan.ModelPlan` is
served: audio is decoded as it arrives, and a complete utterance is just
a stream of one chunk.

* :class:`StreamingSession` — one client stream.  Feed feature chunks
  (or raw audio through a :class:`~repro.speech.features.StreamingFrontend`)
  and receive incrementally committed phones.  The recurrent carry is
  threaded from chunk to chunk through the plan, so an utterance fed in
  *any* chunk split decodes to exactly the phone sequence the offline
  ``decode_utterance`` path produces (see ``docs/serving.md`` for the
  precise exactness guarantee per scheme).
* :class:`StreamScheduler` — many concurrent sessions multiplexed onto
  one plan.  Queued chunks are grouped **by chunk length** (equal-length
  chunks run as one padding-free batch of ``B`` rows; padding a
  state-carrying chunk would corrupt the shorter sessions' state, so
  unequal lengths never share a batch) and a group runs as soon as it
  fills ``max_batch_size`` — or as soon as its oldest chunk has waited
  ``max_wait_frames`` frames of other traffic, the deadline that bounds
  tail latency under light load.  Each session's carry is one row of a
  per-layer slab, which a batch reads and writes in place.
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
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

#: Sliding window for the latency distribution: long-lived schedulers
#: must not grow state per chunk, so percentiles cover the most recent
#: chunks only (128 KiB of floats at the cap).
LATENCY_WINDOW = 16384

#: A scheduler's carry slabs start with this many rows and grow by
#: ``SLAB_GROWTH`` when every row holds a live session.
SLAB_ROWS = 8
SLAB_GROWTH = 2

import numpy as np

from repro.errors import ConfigError, ShapeError, StreamError, SwapError
from repro.engine.plan import ModelPlan, PlanState, check_features
from repro.speech.decoder import IncrementalDecoder
from repro.speech.features import StreamingFrontend
from repro.utils.stats import percentile as stats_percentile


@dataclass(frozen=True)
class StreamConfig:
    """Scheduler knobs.

    ``max_batch_size`` bounds how many sessions' chunks fuse into one
    batch (one call of the plan's serving entry); ``max_wait_frames`` is
    the batching deadline — a queued chunk never waits for more than this
    many frames of *other* sessions' traffic before its group runs, so
    latency stays bounded even when traffic is too light to fill batches.  ``min_duration`` is
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
    fuses chunks across sessions into batched chunks.
    """

    def __init__(
        self,
        plan: ModelPlan,
        min_duration: int = 1,
        frontend: Optional[StreamingFrontend] = None,
    ) -> None:
        self.plan = plan
        self.frontend = frontend
        #: per layer, the carry as a one-row slab in the layer's dtype
        self._slabs = plan.init_state(1).layer_states
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
        # checked once, above: the plan's serving entry checks nothing again
        labels = self.plan._serve([np.ascontiguousarray(features)], self._slabs, [0])
        self._frames += len(features)
        committed = self._decoder.push(labels[:, 0])
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
    """Scheduler-side per-session record; its carry is row ``row`` of the
    scheduler's slabs."""

    def __init__(self, min_duration: int, row: int) -> None:
        self.row = row
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

    A chunk is checked once, where :meth:`feed` takes it.  Each live
    session's carry is one row of a ``(capacity, H)`` slab per layer, in
    that layer's dtype: a row is claimed (zeroed) at :meth:`open` /
    :meth:`adopt` and released at :meth:`finish`, and the slabs grow by
    :data:`SLAB_GROWTH` when every row is taken.  A batch hands its queued
    chunks and its sessions' rows to the plan's serving entry, which
    updates the rows in place and returns each frame's label.  The ready
    head chunks are kept grouped by length as they arrive and leave, each
    group in submit order, so a feed does not regroup the sessions.

    Every session's chunk occupies its own batch rows.  In an int8 plan
    every row is computed on its own, so a session's bytes do not depend on
    which others share its batch.  In a float plan co-batched traffic can
    reach a session only through BLAS reduction order in the shared
    per-step recurrent GEMM — a float-epsilon effect (~1e-16) that never
    moves an argmax in practice.  Either way a scheduled session's phone
    hypothesis equals the offline ``decode_utterance`` result exactly,
    like an unbatched :class:`StreamingSession` (see ``docs/serving.md``).
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
        #: the ready sessions by the length of their head chunk, each group
        #: as ``(submit_clock, sid)`` in submit order (clocks are unique)
        self._groups: Dict[int, List[Tuple[int, int]]] = {}
        #: per layer, every session's carry as one row
        self._slabs = plan.init_state(SLAB_ROWS).layer_states
        self._free = list(range(SLAB_ROWS - 1, -1, -1))  # pop() takes the lowest
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

    @property
    def capacity(self) -> int:
        """Rows in each carry slab: live sessions plus free rows."""
        return len(self._slabs[0])

    def _claim(self) -> int:
        """A free slab row, zeroed; the slabs grow when none is left."""
        if not self._free:
            capacity = self.capacity
            grown = SLAB_GROWTH * capacity
            self._slabs = [
                np.concatenate([slab, np.zeros((grown - capacity, slab.shape[1]), slab.dtype)])
                for slab in self._slabs
            ]
            self._free = list(range(grown - 1, capacity - 1, -1))
        row = self._free.pop()
        for slab in self._slabs:
            slab[row] = 0
        return row

    def _install(self, entry: _Entry) -> int:
        sid = self._next_id
        self._next_id += 1
        self._entries[sid] = entry
        self.stats.sessions_opened += 1
        if self.journal is not None:
            self.journal.open(sid)
        return sid

    def open(self) -> int:
        """Open a new session; returns its id."""
        return self._install(_Entry(self.config.min_duration, self._claim()))

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
        mismatch, or unless it holds exactly one row).  ``committed``
        seeds the un-polled phone buffer — re-homing callers that already
        delivered the replayed phones pass none.  Adopted sessions start
        a fresh journal entry; the caller owns the history that produced
        the state.
        """
        carries = None if state is None else self.plan.adapt_state(state).layer_states
        if carries is not None and len(carries[0]) != 1:
            raise ShapeError(
                f"adopt takes one session's state, got {len(carries[0])} rows"
            )
        entry = _Entry(self.config.min_duration, self._claim())
        if carries is not None:
            for slab, carry in zip(self._slabs, carries):
                slab[entry.row] = carry[0]
        if decoder is not None:
            entry.decoder = decoder
        entry.committed = list(committed) if committed else []
        entry.frames = frames
        return self._install(entry)

    def swap_plan(self, plan: ModelPlan) -> ModelPlan:
        """Hot-swap every live session onto ``plan``; returns the old plan.

        The swap is a barrier: all queued chunks are flushed through the
        incumbent plan first, so no in-flight batch ever mixes plans.
        Then the carry slabs are adapted to the new plan's compute dtypes
        (:meth:`ModelPlan.adapt_state
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
            self._slabs = plan.adapt_state(PlanState(self._slabs)).layer_states
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
        # its buffer before the batch runs.  Row-major, whatever the
        # caller's layout: a program reads each chunk where it sits.
        # Checked before the journal sees it: a rejected chunk is neither
        # queued nor recorded.  The one check a chunk gets: the batch it
        # joins runs unchecked.
        features = check_features(
            np.array(features, dtype=np.float64, order="C"),
            "t",
            self.plan.input_dim,
            "feed",
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
        if len(entry.queue) == 1:  # the newest clock: last in its group
            self._groups.setdefault(len(features), []).append((self._clock, sid))
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
        return sum(
            len(self._entries[sid].queue)
            for group in self._groups.values()
            for _, sid in group
        )

    def flush(self) -> None:
        """Run every queued chunk (deadline disregarded)."""
        while self._groups:
            self._run_ready(force=True)

    def finish(self, sid: int) -> List[int]:
        """Close ``sid``: run its queue, finish its decoder, return the
        phones not yet polled (earlier ``poll`` results are not repeated).
        """
        entry = self._entry(sid)
        if entry.queue:  # its chunks run alone, in order: out of the groups
            head = entry.queue[0]
            group = self._groups[len(head.features)]
            group.remove((head.submit_clock, sid))
            if not group:
                del self._groups[len(head.features)]
        while entry.queue:
            self._run_batch([sid], regroup=False)
        entry.committed.extend(entry.decoder.finish())
        del self._entries[sid]
        self._free.append(entry.row)
        self.stats.sessions_finished += 1
        if self.journal is not None:
            self.journal.mark_finished(sid)
        return entry.committed

    # -- batching core ----------------------------------------------------
    def _pump(self) -> None:
        """Run groups that are full or past their deadline."""
        while self._run_ready(force=False):
            pass

    def _run_ready(self, force: bool) -> bool:
        """Run the shortest-length group that is full or whose oldest
        head chunk has waited ``max_wait_frames`` (any group, with
        ``force``): its oldest ``max_batch_size`` sessions."""
        limit, wait = self.config.max_batch_size, self.config.max_wait_frames
        for length in sorted(self._groups):
            group = self._groups[length]
            if force or len(group) >= limit or self._clock - group[0][0] >= wait:
                batch = group[:limit]
                del group[:limit]
                if not group:
                    del self._groups[length]
                self._run_batch([sid for _, sid in batch])
                return True
        return False

    def _run_batch(self, sids: List[int], regroup: bool = True) -> None:
        """Run the head chunks of ``sids``, in that row order; with
        ``regroup``, each session's next chunk joins its length's group."""
        entries = [self._entries[sid] for sid in sids]
        pendings = [entry.queue.popleft() for entry in entries]
        if regroup:
            for sid, entry in zip(sids, entries):
                if entry.queue:
                    head = entry.queue[0]
                    insort(
                        self._groups.setdefault(len(head.features), []),
                        (head.submit_clock, sid),
                    )
        # every chunk was checked in feed: the plan's serving entry, no
        # second check; each session's carry stays in its slab row
        labels = self.plan._serve(
            [p.features for p in pendings], self._slabs, [entry.row for entry in entries]
        )
        for b, (entry, pending) in enumerate(zip(entries, pendings)):
            entry.committed.extend(entry.decoder.push(labels[:, b]))
            entry.frames += len(pending.features)
            # Stamped after this session's decode: the percentiles cover
            # the full submit→decoded-phones path a client waits for.
            self.stats.chunk_latency_s.append(
                time.perf_counter() - pending.submit_perf
            )
            self.stats.wait_frames += self._clock - pending.submit_clock
        self.stats.batches += 1
        self.stats.batched_chunks += len(entries)
