"""Worker process: compiled artifacts behind per-version stream schedulers.

Each worker is a separate OS process — the fabric's unit of isolation
(a crash kills one worker's sessions, not the fleet) and of parallelism
(each process owns its own GIL).  A worker :func:`~repro.engine.artifact.load_plan`\\ s
the compiled artifacts it is told to serve and drives one local
:class:`~repro.engine.streaming.StreamScheduler` *per live plan
version* (normally one; two while a canary routes new sessions to a
candidate version), so everything the single-process runtime guarantees
(deadline batching, chunk-exact decode) holds *within* a worker
unchanged — and chunks of different plan versions never share a batch.

Transport is one duplex pipe per worker.  A feed travels as its raw
float64 frames behind a fixed header (:data:`_FEED`); every other
message, in either direction, is a pickled tuple.  The protocol is
deliberately asymmetric:

* ``open``/``feed`` are **fire-and-forget** — the router never blocks on
  the data path.  Each processed feed is acknowledged with a
  *cumulative* sequence number (``("ack", seq)``), which is what the
  router's backpressure accounting drains; cumulative acks mean a
  dropped ack message is healed by the next one.
* ``poll``/``finish``/``flush``/``stats``/``ping`` are **synchronous
  RPCs** tagged with a request id; the router's timeout on the reply
  doubles as the stall detector.
* ``swap`` is the hot-swap RPC: flush every scheduler (the barrier — no
  in-flight batch mixes plans), then
  :meth:`~repro.engine.streaming.StreamScheduler.swap_plan` each onto
  the target version, carrying all live sessions' state across.
* ``rehome`` is the recovery RPC: replay a crashed session's journaled
  chunks — segment by segment, each under the plan version that
  originally decoded it — then adopt the reconstructed state into the
  live scheduler and return the full phone stream for the fabric's
  delivered-prefix check.

The parent-side endpoint is :class:`WorkerHandle`, one per worker
incarnation: a :class:`~repro.utils.supervise.Child` (spawn, kill,
liveness, deadline-bounded receive) plus the fabric protocol over its
pipe.  Any transport problem (dead process, broken pipe, RPC timeout)
surfaces as :class:`~repro.utils.supervise.WorkerFailure` carrying the
worker index and a crash-vs-stall classification, which the fabric turns
into restart + re-home.
"""

from __future__ import annotations

import pickle
import struct
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.utils.faults import FaultConfig, FaultInjector
from repro.utils.supervise import Child, WorkerFailure
from repro.engine.streaming import StreamConfig, StreamScheduler
from repro.errors import FabricError


#: A feed on the wire: a tag byte no pickle starts with (a pickle's first
#: byte is its protocol opcode, ``\x80``), padding that keeps the frames
#: 8-byte aligned, then ``sid``, ``seq`` and ``t``; the chunk's ``t x D``
#: float64 frames follow, row-major.  One ``send_bytes`` message each.
_FEED = struct.Struct("<c7xqqq")
_FEED_TAG = b"F"


def _read(conn):
    """The next message off ``conn``: a feed as ``("feed", sid, frames,
    seq)``, its frames read in place; anything else unpickled."""
    data = conn.recv_bytes()
    if data[:1] != _FEED_TAG:
        return pickle.loads(data)
    _, sid, seq, frames = _FEED.unpack_from(data)
    features = np.frombuffer(data, np.float64, offset=_FEED.size)
    return ("feed", sid, features.reshape(frames, -1), seq)


def _stats_snapshot(
    schedulers: List[StreamScheduler], versions: List[str]
) -> Dict:
    """Picklable rollup of the worker-local scheduler stats.

    Top-level keys aggregate across the worker's schedulers (the shape
    single-version deployments always saw); ``schedulers`` breaks the
    same counters out per plan version — what canary shadow-scoring
    compares candidate-vs-incumbent latency on.
    """
    rows = []
    for scheduler, version in zip(schedulers, versions):
        stats = scheduler.stats
        rows.append(
            {
                "version": version,
                "sessions_opened": stats.sessions_opened,
                "sessions_finished": stats.sessions_finished,
                "chunks": stats.chunks,
                "batches": stats.batches,
                "batched_chunks": stats.batched_chunks,
                "frames": stats.frames,
                "wait_frames": stats.wait_frames,
                "plan_swaps": stats.plan_swaps,
                "latencies_s": list(stats.chunk_latency_s),
            }
        )
    merged: Dict = {
        key: sum(row[key] for row in rows)
        for key in (
            "sessions_opened",
            "sessions_finished",
            "chunks",
            "batches",
            "batched_chunks",
            "frames",
            "wait_frames",
            "plan_swaps",
        )
    }
    merged["latencies_s"] = [
        latency for row in rows for latency in row["latencies_s"]
    ]
    merged["schedulers"] = rows
    return merged


def worker_main(
    conn,
    worker_index: int,
    fault_config: Optional[FaultConfig],
    artifact_path: str,
    stream_config: StreamConfig,
) -> None:
    """Entry point of a worker process: serve until ``close`` or EOF."""
    # Import here: the child must not pay for (or depend on) anything the
    # parent happened to have imported beyond the serving stack.
    from repro.engine.artifact import load_plan
    from repro.speech.decoder import IncrementalDecoder

    injector = FaultInjector(fault_config)
    plans: Dict[str, object] = {}

    def plan_for(path: str):
        if path not in plans:
            plans[path] = load_plan(path)
        return plans[path]

    primary = str(artifact_path)
    try:
        plan_for(primary)
    except Exception as exc:  # surfaced to the fabric as a crash
        try:
            conn.send(("fatal", f"load_plan({artifact_path!r}) failed: {exc}"))
        finally:
            conn.close()
        return
    schedulers: List[StreamScheduler] = []
    versions: List[str] = []
    open_target: Dict[str, int] = {}  # version -> scheduler for new opens
    local: Dict[int, Tuple[int, int]] = {}  # fabric sid -> (sched, local sid)

    def scheduler_for(version: str) -> int:
        index = open_target.get(version)
        if index is None:
            schedulers.append(StreamScheduler(plan_for(version), stream_config))
            versions.append(version)
            index = len(schedulers) - 1
            open_target[version] = index
        return index

    scheduler_for(primary)
    while True:
        try:
            message = _read(conn)
        except (EOFError, OSError):
            break
        kind = message[0]
        try:
            if kind == "open":
                version = message[2] if len(message) > 2 else primary
                index = scheduler_for(version or primary)
                local[message[1]] = (index, schedulers[index].open())
            elif kind == "feed":
                _, sid, features, seq = message
                injector.on_chunk()
                index, local_sid = local[sid]
                schedulers[index].feed(local_sid, features)
                injector.before_send()
                if not injector.drop_ack():
                    conn.send(("ack", seq))
            elif kind == "poll":
                _, sid, rid = message
                index, local_sid = local[sid]
                injector.before_send()
                conn.send(("phones", rid, schedulers[index].poll(local_sid)))
            elif kind == "finish":
                _, sid, rid = message
                index, local_sid = local.pop(sid)
                phones = schedulers[index].finish(local_sid)
                injector.before_send()
                conn.send(("phones", rid, phones))
            elif kind == "flush":
                # Replay barrier: run everything queued so a follow-up
                # poll observes every journaled chunk's commitments.
                for scheduler in schedulers:
                    scheduler.flush()
                conn.send(("pong", message[1]))
            elif kind == "swap":
                _, to_version, rid = message
                injector.on_swap()
                plan = plan_for(to_version)
                # swap_plan flushes each scheduler first — the barrier
                # that keeps any in-flight batch on a single plan.
                for scheduler in schedulers:
                    scheduler.swap_plan(plan)
                for index in range(len(versions)):
                    versions[index] = to_version
                open_target = {
                    to_version: open_target.get(
                        to_version, open_target.get(primary, 0)
                    )
                }
                primary = to_version
                conn.send(("pong", rid))
            elif kind == "rehome":
                _, sid, segments, finished, target, rid = message
                state = None
                decoder = IncrementalDecoder(stream_config.min_duration)
                committed: List[int] = []
                frames = 0
                for version, chunks in segments:
                    plan = plan_for(version or primary)
                    if state is not None:
                        state = plan.adapt_state(state)
                    for chunk in chunks:
                        # Replayed chunks count as processed chunks for
                        # fault injection: a repeat-armed crash fault
                        # fires mid-replay too (the restart-budget path).
                        injector.on_chunk()
                        logits, state = plan.run_chunk(chunk[:, None, :], state)
                        committed.extend(
                            decoder.push(logits[:, 0, :].argmax(axis=1))
                        )
                        frames += len(chunk)
                if finished:
                    committed.extend(decoder.finish())
                else:
                    index = scheduler_for(target or primary)
                    local[sid] = (
                        index,
                        schedulers[index].adopt(
                            state, decoder, committed=None, frames=frames
                        ),
                    )
                injector.before_send()
                conn.send(("phones", rid, committed))
            elif kind == "stats":
                conn.send(
                    ("stats", message[1], _stats_snapshot(schedulers, versions))
                )
            elif kind == "ping":
                conn.send(("pong", message[1]))
            elif kind == "close":
                break
            else:  # unknown message: protocol bug, report and continue
                conn.send(("error", None, f"unknown message kind {kind!r}"))
        except (BrokenPipeError, OSError):
            break
        except Exception as exc:
            # One bad request must not kill the other sessions on this
            # worker: report and keep serving.
            try:
                conn.send(("error", None, f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                break
    conn.close()


class WorkerHandle(Child):
    """Parent-side endpoint of one worker incarnation.

    Lifecycle comes from :class:`~repro.utils.supervise.Child`; this
    class adds the fabric protocol: the request-id counter, the
    backpressure accounting (in-flight chunks/frames between ``feed``
    and its cumulative ack), and the worker's ``error``/``fatal``
    reports.
    """

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._next_seq = 0
        self._next_rid = 0
        #: ``(seq, frames)`` of each feed not yet acknowledged, oldest
        #: first, so a cumulative ack pops a prefix
        self._pending: Deque[Tuple[int, int]] = deque()
        #: their frames, a running total
        self.inflight_frames = 0
        self._replies: Dict[int, object] = {}
        self._errors: List[str] = []
        self._fatal: Optional[str] = None

    def alive(self) -> bool:
        return self._fatal is None and self.process.is_alive()

    @property
    def inflight_chunks(self) -> int:
        return len(self._pending)

    # -- transport ---------------------------------------------------------
    def _dispatch(self, message) -> None:
        kind = message[0]
        if kind == "ack":
            # Cumulative: everything at or below the acked seq is done.
            seq = message[1]
            pending = self._pending
            while pending and pending[0][0] <= seq:
                self.inflight_frames -= pending.popleft()[1]
        elif kind in ("phones", "stats", "pong"):
            self._replies[message[1]] = message[2] if len(message) > 2 else True
        elif kind == "error":
            self._errors.append(message[2])
        elif kind == "fatal":
            self._fatal = message[1]

    def drain(self) -> bool:
        """Dispatch every message already in the pipe (non-blocking);
        ``False`` once the pipe is torn."""
        try:
            while self.readable():
                self._dispatch(self.conn.recv())
        except (EOFError, OSError):
            return False
        return True

    def wait(self, deadline: float) -> None:
        """Wait on the pipe for the worker's next message, and dispatch it,
        until ``deadline`` (``time.monotonic()``) at most: how a blocked
        feed waits for the ack that frees room.  A torn pipe returns at
        once; :meth:`check_alive` reports the death."""
        if self.readable(deadline - time.monotonic()):
            try:
                self._dispatch(self.conn.recv())
            except (EOFError, OSError):
                pass

    def check_alive(self) -> None:
        """The one liveness check of a touchpoint: dispatch what the pipe
        holds, then raise :class:`WorkerFailure` (``"crash"``) if the
        worker reported a fatal error, its pipe is torn or its process
        has exited."""
        intact = self.drain()
        if self._fatal is not None:
            raise WorkerFailure(self.index, "crash", self._fatal)
        if not intact:
            raise WorkerFailure(self.index, "crash", "pipe closed")
        if not self.process.is_alive():
            raise WorkerFailure(
                self.index,
                "crash",
                f"process exited with code {self.process.exitcode}",
            )

    def _write(self, data: bytes) -> None:
        try:
            self.conn.send_bytes(data)
        except OSError as exc:
            raise WorkerFailure(
                self.index, "crash", f"pipe send failed: {exc}"
            ) from None

    def send(self, message) -> None:
        """Fire-and-forget send of a pickled message (``open``, an RPC's
        request), after :meth:`check_alive`."""
        self.check_alive()
        self._write(pickle.dumps(message))

    def feed(self, sid: int, features: np.ndarray) -> int:
        """Send one float64 ``(t, D)`` chunk as a raw frame; returns its
        seq after recording it in flight.  The caller has just run
        :meth:`check_alive` for its admission test, so a feed writes
        without checking again."""
        seq = self._next_seq
        self._next_seq += 1
        self._write(_FEED.pack(_FEED_TAG, sid, seq, len(features)) + features.tobytes())
        self._pending.append((seq, len(features)))
        self.inflight_frames += len(features)
        return seq

    def request(self, kind: str, timeout: float, *args):
        """Synchronous RPC: ``poll``/``finish``/``flush``/``stats``/
        ``ping``/``swap``/``rehome``.  ``args`` are the kind-specific
        operands (a session id, a swap target version, a replay payload),
        placed between the kind and the request id.

        The reply wait doubles as the heartbeat: no reply within
        ``timeout`` while the process is alive is classified as a stall.
        """
        rid = self._next_rid
        self._next_rid += 1
        self.send((kind, *args, rid))
        deadline = time.monotonic() + timeout
        while True:
            if self._fatal is not None:
                raise WorkerFailure(self.index, "crash", self._fatal)
            if self._errors:
                # The worker survived but a request raised inside it
                # (a protocol/validation bug, not a process fault): the
                # expected reply may never come, so surface it now.
                errors, self._errors = self._errors, []
                raise FabricError(
                    f"worker {self.index} reported: " + "; ".join(errors)
                )
            if rid in self._replies:
                return self._replies.pop(rid)
            self._dispatch(self.recv(deadline, f"{kind} reply"))


__all__ = ["WorkerHandle", "WorkerFailure", "worker_main"]
