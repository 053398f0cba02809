"""Serving-fabric robustness tests (repro.engine.fabric).

The contract under test: a supervised multi-process fabric where a
killed or stalled worker's sessions are re-homed by journal replay and
finish **byte-identical** to a single-process run (chunk-exactness makes
replay exact), overload sheds with a typed ``OverloadError`` while
admitted sessions keep decoding exactly, and every fault is injected
deterministically so each scenario replays identically.
"""

import collections
import os
import signal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import (
    FabricConfig,
    FaultConfig,
    ServingFabric,
    SessionJournal,
    StreamConfig,
    StreamScheduler,
    compile_model,
)
from repro.engine.fabric import HashRing, WorkerFailure
from repro.errors import (
    ConfigError,
    FabricError,
    OverloadError,
    ShapeError,
    StreamError,
)
from repro.speech.decoder import decode_utterance
from repro.speech.model import AcousticModelConfig, GRUAcousticModel

#: Both plan schemes: the float plan and int8, the paper's path, whose
#: carries are float32.
SCHEMES = (None, "int8")

STREAM = StreamConfig(max_batch_size=4, max_wait_frames=8, min_duration=2)


def small_plan(scheme=None, seed=0):
    config = AcousticModelConfig(input_dim=8, hidden_size=16, num_layers=2)
    model = GRUAcousticModel(config, rng=seed).eval()
    return compile_model(model, scheme=scheme)


def make_utterances(num, base_frames=46, rng_seed=1):
    rng = np.random.default_rng(rng_seed)
    return [rng.standard_normal((base_frames + 7 * i, 8)) for i in range(num)]


def fabric_config(**overrides):
    defaults = dict(
        num_workers=2,
        stream=STREAM,
        backoff_base_s=0.0,  # tests assert the schedule, not wall time
        rpc_timeout_s=20.0,
        heartbeat_timeout_s=20.0,
    )
    defaults.update(overrides)
    return FabricConfig(**defaults)


def offline_phones(plan, utterances):
    return [
        decode_utterance(
            plan.forward_utterance(u), min_duration=STREAM.min_duration
        )
        for u in utterances
    ]


def stream_all(fabric, utterances, chunk=13, homes=None):
    """Feed every utterance through the fabric; returns phones per sid.
    ``homes``, a dict, gets each session's worker as it was just before
    its finish (a finished session leaves the fabric's table)."""
    sids = [fabric.open() for _ in utterances]
    outs = {sid: [] for sid in sids}
    for utterance, sid in zip(utterances, sids):
        for start in range(0, len(utterance), chunk):
            fabric.feed(sid, utterance[start : start + chunk], block=True)
        outs[sid].extend(fabric.poll(sid))
    for sid in sids:
        if homes is not None:
            homes[sid] = fabric._sessions[sid].worker
        outs[sid].extend(fabric.finish(sid))
    return [outs[sid] for sid in sids]


def open_on_worker(fabric, worker, limit=64):
    """Open sessions until one lands on ``worker`` (consistent hashing
    makes the search deterministic and short)."""
    for _ in range(limit):
        sid = fabric.open()
        if fabric._sessions[sid].worker == worker:
            return sid
    raise AssertionError(f"no session routed to worker {worker} in {limit} tries")


class TestFabricBasics:
    def test_no_fault_decode_matches_single_process(self):
        plan = small_plan()
        utterances = make_utterances(4)
        with ServingFabric.from_plan(plan, fabric_config()) as fabric:
            streamed = stream_all(fabric, utterances)
            fleet = fabric.stats()
        assert streamed == offline_phones(plan, utterances)
        assert fleet.restarts == 0
        assert fleet.sessions_finished == 4
        assert fleet.chunks > 0

    def test_sessions_spread_across_workers(self):
        plan = small_plan()
        with ServingFabric.from_plan(
            plan, fabric_config(num_workers=2)
        ) as fabric:
            sids = [fabric.open() for _ in range(16)]
            homes = {fabric._sessions[sid].worker for sid in sids}
            for sid in sids:
                fabric.finish(sid)
        assert homes == {0, 1}

    def test_unknown_and_finished_sids_are_typed(self):
        plan = small_plan()
        with ServingFabric.from_plan(plan, fabric_config()) as fabric:
            with pytest.raises(StreamError, match="unknown session id 9"):
                fabric.poll(9)
            sid = fabric.open()
            fabric.finish(sid)
            for entry in (
                lambda: fabric.feed(sid, np.zeros((4, 8))),
                lambda: fabric.poll(sid),
                lambda: fabric.finish(sid),
                lambda: fabric.session_version(sid),
            ):
                with pytest.raises(
                    StreamError, match=f"session {sid} already finished"
                ):
                    entry()
            with pytest.raises(StreamError, match=f"unknown session id {sid + 1}"):
                fabric.session_version(sid + 1)

    def test_the_session_table_holds_only_live_sessions(self):
        """A finished session leaves the parent's table, so ``open``'s
        capacity check counts live sessions, not every session ever
        opened: after 2000 sessions only the live ones are held."""
        plan = small_plan()
        config = fabric_config(max_sessions_per_worker=8)
        with ServingFabric.from_plan(plan, config) as fabric:
            live = []
            for _ in range(2000):
                live.append(fabric.open())
                if len(live) > 5:
                    fabric.finish(live.pop(0))
            assert sorted(fabric._sessions) == live
            homes = [fabric._sessions[sid].worker for sid in live]
            assert fabric._live == [homes.count(w) for w in range(2)]
            for sid in live:
                fabric.finish(sid)
            assert not fabric._sessions and fabric._live == [0, 0]
            assert fabric.stats().sessions_finished == 2000

    def test_feed_validates_feature_shape(self):
        plan = small_plan()
        with ServingFabric.from_plan(plan, fabric_config()) as fabric:
            sid = fabric.open()
            with pytest.raises(ShapeError, match="features"):
                fabric.feed(sid, np.zeros((4, 5)))
            with pytest.raises(ShapeError, match="non-finite"):
                fabric.feed(sid, np.full((4, 8), np.inf))  # never journaled
            assert fabric.finish(sid) == []

    def test_empty_chunk_is_a_noop(self):
        plan = small_plan()
        with ServingFabric.from_plan(plan, fabric_config()) as fabric:
            sid = fabric.open()
            fabric.feed(sid, np.zeros((0, 8)))
            assert fabric.finish(sid) == []

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="num_workers"):
            FabricConfig(num_workers=0)
        with pytest.raises(ConfigError, match="max_restarts"):
            FabricConfig(max_restarts=-1)
        with pytest.raises(ConfigError, match="timeouts"):
            FabricConfig(rpc_timeout_s=0)

    def test_default_backlog_bound_is_deadline_aware(self):
        config = fabric_config()
        assert config.backlog_frames_bound == (
            STREAM.max_wait_frames * STREAM.max_batch_size
        )
        explicit = fabric_config(max_backlog_frames=7)
        assert explicit.backlog_frames_bound == 7


class TestCrashRecovery:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("crash_after", [1, 5])
    def test_killed_worker_sessions_rehome_byte_identical(
        self, scheme, crash_after
    ):
        """The headline guarantee: kill a worker mid-stream at a seeded
        point; its re-homed sessions finish byte-identical to a
        single-process run, for every quantization scheme."""
        plan = small_plan(scheme=scheme)
        utterances = make_utterances(4)
        config = fabric_config(
            faults=FaultConfig(crash_after_chunks=crash_after, target_worker=0)
        )
        with ServingFabric.from_plan(plan, config) as fabric:
            streamed = stream_all(fabric, utterances)
            fleet = fabric.stats()
        assert streamed == offline_phones(plan, utterances)
        assert fleet.crashes_detected >= 1
        assert fleet.restarts >= 1
        assert fleet.sessions_rehomed >= 1

    def test_crash_surfacing_in_finish_is_replayed(self):
        """A worker that dies after its last chunk still yields the
        exact tail: finish is journaled before its RPC, so recovery
        re-runs the finish on the replacement worker."""
        plan = small_plan()
        utterance = make_utterances(1, base_frames=30)[0]
        config = fabric_config(
            faults=FaultConfig(crash_after_chunks=2, target_worker=0)
        )
        with ServingFabric.from_plan(plan, config) as fabric:
            sid = open_on_worker(fabric, 0)
            for start in range(0, 30, 10):  # 3 chunks; dies on the 3rd
                fabric.feed(sid, utterance[start : start + 10])
            phones = fabric.finish(sid)
            fleet = fabric.stats()
        assert phones == offline_phones(plan, [utterance])[0]
        assert fleet.crashes_detected >= 1
        assert fleet.sessions_rehomed >= 1

    def test_rehome_replays_what_was_fed_not_the_reused_buffer(self):
        """A client refilling one audio buffer between feeds: the worker
        dies on the third chunk, after the buffer that carried the first
        two was overwritten, and the replay must still see their audio."""
        plan = small_plan()
        utterance = make_utterances(1, base_frames=30)[0]
        config = fabric_config(
            faults=FaultConfig(crash_after_chunks=2, target_worker=0)
        )
        buffer = np.empty((10, 8))
        with ServingFabric.from_plan(plan, config) as fabric:
            sid = open_on_worker(fabric, 0)
            for start in range(0, 30, 10):
                buffer[...] = utterance[start : start + 10]
                fabric.feed(sid, buffer)
            buffer[...] = 0.0
            phones = fabric.finish(sid)
            fleet = fabric.stats()
        assert phones == offline_phones(plan, [utterance])[0]
        assert fleet.sessions_rehomed >= 1

    def test_recovery_is_deterministic(self):
        """Same seed, same fault plan → identical fleet counters and
        identical phones across two independent runs."""
        plan = small_plan()
        utterances = make_utterances(3)
        config = fabric_config(
            faults=FaultConfig(crash_after_chunks=2, target_worker=0)
        )

        def run():
            with ServingFabric.from_plan(plan, config) as fabric:
                streamed = stream_all(fabric, utterances)
                fleet = fabric.stats()
            return streamed, (
                fleet.crashes_detected,
                fleet.restarts,
                fleet.sessions_rehomed,
            )

        first, second = run(), run()
        assert first == second

    def test_repeat_crash_exhausts_budget_and_rehomes_permanently(self):
        """A crash-looping worker burns its restart budget, is marked
        permanently dead, and the ring re-homes its slice onto the
        survivor — which still finishes everything byte-identically."""
        plan = small_plan()
        utterances = make_utterances(4)
        config = fabric_config(
            max_restarts=2,
            faults=FaultConfig(
                crash_after_chunks=1, target_worker=0, repeat=True
            ),
        )
        homes = {}
        with ServingFabric.from_plan(plan, config) as fabric:
            streamed = stream_all(fabric, utterances, homes=homes)
            fleet = fabric.stats()
            dead_rows = [w for w in fleet.workers if not w.alive]
        assert streamed == offline_phones(plan, utterances)
        assert len(dead_rows) == 1 and dead_rows[0].index == 0
        assert dead_rows[0].restarts == 2
        assert set(homes.values()) == {1}

    def test_backoff_schedule_is_exponential_and_capped(self):
        plan = small_plan()
        utterances = make_utterances(2)
        config = fabric_config(
            max_restarts=3,
            backoff_base_s=0.01,
            backoff_cap_s=0.02,
            faults=FaultConfig(
                crash_after_chunks=1, target_worker=0, repeat=True
            ),
        )
        with ServingFabric.from_plan(plan, config) as fabric:
            sid = open_on_worker(fabric, 0)
            utterance = make_utterances(1, base_frames=30)[0]
            for start in range(0, 30, 10):
                fabric.feed(sid, utterance[start : start + 10], block=True)
            fabric.finish(sid)
            history = list(fabric._supervisor.backoff_history)
        # base * 2**(n-1), capped: 0.01, 0.02, 0.02 (cap)
        assert history[:3] == [0.01, 0.02, 0.02]

    def test_all_workers_dead_raises_fabric_error(self):
        plan = small_plan()
        config = fabric_config(
            num_workers=1,
            max_restarts=1,
            faults=FaultConfig(
                crash_after_chunks=1, target_worker=0, repeat=True
            ),
        )
        utterance = make_utterances(1)[0]
        with ServingFabric.from_plan(plan, config) as fabric:
            sid = fabric.open()
            with pytest.raises(FabricError, match="no live workers"):
                for start in range(0, len(utterance), 7):
                    fabric.feed(sid, utterance[start : start + 7], block=True)
                fabric.finish(sid)


class TestStallDetection:
    def test_stalled_worker_is_killed_and_sessions_rehome(self):
        """A worker that hangs (alive but unresponsive) trips the RPC
        timeout, is classified as a stall, killed, restarted — and its
        sessions still finish byte-identically via replay."""
        plan = small_plan()
        utterance = make_utterances(1, base_frames=32)[0]
        config = fabric_config(
            rpc_timeout_s=0.75,
            faults=FaultConfig(
                stall_after_chunks=1, stall_seconds=60.0, target_worker=0
            ),
        )
        with ServingFabric.from_plan(plan, config) as fabric:
            sid = open_on_worker(fabric, 0)
            fabric.feed(sid, utterance[:16])
            fabric.feed(sid, utterance[16:])  # worker hangs on this one
            phones = fabric.poll(sid)  # trips the stall detector
            phones += fabric.finish(sid)
            fleet = fabric.stats()
        assert phones == offline_phones(plan, [utterance])[0]
        assert fleet.stalls_detected >= 1
        assert fleet.restarts >= 1
        assert fleet.sessions_rehomed >= 1

    def test_check_sweep_catches_stall_on_idle_worker(self):
        """The heartbeat sweep finds a stalled worker without any
        session traffic touching it."""
        plan = small_plan()
        config = fabric_config(
            heartbeat_timeout_s=0.75,
            faults=FaultConfig(
                stall_after_chunks=0, stall_seconds=60.0, target_worker=0
            ),
        )
        with ServingFabric.from_plan(plan, config) as fabric:
            sid = open_on_worker(fabric, 0)
            fabric.feed(sid, np.zeros((4, 8)))  # arms the stall
            failed = fabric.check()
            fleet = fabric.stats()
        assert failed == [0]
        assert fleet.stalls_detected == 1
        assert fleet.restarts == 1


class TestOverload:
    def test_saturated_worker_sheds_chunks_with_typed_error(self):
        """Acks never drain (drop_ack_rate=1), so in-flight work only
        grows: the fabric must shed with OverloadError once the
        deadline-aware frame bound is hit, and the bound must hold."""
        plan = small_plan()
        config = fabric_config(
            faults=FaultConfig(drop_ack_rate=1.0, seed=7, target_worker=0),
        )
        utterance = make_utterances(1, base_frames=200)[0]
        with ServingFabric.from_plan(plan, config) as fabric:
            sid = open_on_worker(fabric, 0)
            with pytest.raises(OverloadError, match="backlog"):
                for start in range(0, len(utterance), 8):
                    fabric.feed(sid, utterance[start : start + 8])
            fleet = fabric.stats()
        assert fleet.chunks_shed >= 1
        # The admission gate never let the queue exceed its bound.
        assert fleet.max_backlog_frames_seen <= fleet.backlog_frames_bound

    def test_session_capacity_sheds_new_sessions(self):
        plan = small_plan()
        config = fabric_config(num_workers=1, max_sessions_per_worker=3)
        with ServingFabric.from_plan(plan, config) as fabric:
            sids = [fabric.open() for _ in range(3)]
            with pytest.raises(OverloadError, match="session capacity"):
                fabric.open()
            fleet = fabric.stats()
            assert fleet.sessions_shed == 1
            # Finishing one frees a slot: graceful degradation, not a
            # latched failure.
            fabric.finish(sids[0])
            sids.append(fabric.open())
            for sid in sids[1:]:
                fabric.finish(sid)

    def test_survivors_unaffected_by_neighbor_overload(self):
        """Saturating worker 0 must not degrade worker 1's sessions:
        they stream to completion and decode byte-identically."""
        plan = small_plan()
        config = fabric_config(
            faults=FaultConfig(drop_ack_rate=1.0, seed=7, target_worker=0),
        )
        utterances = make_utterances(6)
        with ServingFabric.from_plan(plan, config) as fabric:
            sids = [fabric.open() for _ in utterances]
            survivors = [
                (utterance, sid)
                for utterance, sid in zip(utterances, sids)
                if fabric._sessions[sid].worker == 1
            ]
            assert survivors  # the hash ring spreads 6 sessions
            outs = {sid: [] for _, sid in survivors}
            for utterance, sid in survivors:
                for start in range(0, len(utterance), 13):
                    fabric.feed(sid, utterance[start : start + 13], block=True)
                outs[sid].extend(fabric.poll(sid))
            for _, sid in survivors:
                outs[sid].extend(fabric.finish(sid))
            fleet = fabric.stats()
        expected = offline_phones(plan, [u for u, _ in survivors])
        assert [outs[sid] for _, sid in survivors] == expected
        survivor_row = next(w for w in fleet.workers if w.index == 1)
        assert survivor_row.alive and survivor_row.snapshot is not None
        assert survivor_row.snapshot["chunks"] > 0

    def test_blocking_feed_waits_out_backpressure(self):
        """block=True converts shedding into backpressure: a fast
        producer completes losslessly against a healthy worker."""
        plan = small_plan()
        utterances = make_utterances(2, base_frames=120)
        config = fabric_config(max_backlog_frames=16, max_pending_chunks=2)
        with ServingFabric.from_plan(plan, config) as fabric:
            streamed = stream_all(fabric, utterances, chunk=8)
        assert streamed == offline_phones(plan, utterances)

    def test_a_blocked_feed_waits_on_the_pipe_for_the_ack(self, monkeypatch):
        """A feed blocked on a full backlog is admitted when the worker's
        ack arrives, read off the pipe: it never sleeps."""
        plan = small_plan()
        utterance = make_utterances(1)[0]
        config = fabric_config(
            num_workers=1,
            max_pending_chunks=1,
            faults=FaultConfig(delay_response_s=0.2),  # every ack 0.2 s late
        )
        with ServingFabric.from_plan(plan, config) as fabric:
            sid = fabric.open()
            handle = fabric._supervisor.children[0]
            waits = []
            wait = handle.wait
            monkeypatch.setattr(handle, "wait", lambda d: waits.append(d) or wait(d))

            def no_sleep(seconds):
                raise AssertionError(f"a blocked feed slept {seconds} s")

            monkeypatch.setattr("time.sleep", no_sleep)
            fabric.feed(sid, utterance[:10], block=True)  # idle: admitted at once
            fabric.feed(sid, utterance[10:20], block=True)  # waits out the first ack
            assert waits and handle.inflight_chunks == 1 and fabric.chunks_shed == 0
            monkeypatch.undo()
            phones = fabric.poll(sid) + fabric.finish(sid)
        assert phones == offline_phones(plan, [utterance[:20]])[0]


def chunk_layout(piece, layout):
    """``piece`` as a chunk of one memory layout the wire must flatten."""
    if layout == "F":
        return np.asfortranarray(piece)
    if layout == "strided":
        backing = np.zeros((2 * len(piece), 3 * piece.shape[1]))
        view = backing[::2, 1::3]
        view[...] = piece
        return view
    if layout == "float32":
        return piece.astype(np.float32)
    return np.ascontiguousarray(piece)


@st.composite
def laid_out_chunks(draw):
    """One utterance cut at random points, each chunk in a random layout."""
    frames = draw(st.integers(1, 60))
    cuts = draw(st.sets(st.integers(1, max(frames - 1, 1)), max_size=8))
    bounds = [0, *sorted(c for c in cuts if c < frames), frames]
    layouts = draw(
        st.lists(
            st.sampled_from(("C", "F", "strided", "float32")),
            min_size=len(bounds) - 1,
            max_size=len(bounds) - 1,
        )
    )
    utterance = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal(
        (frames, 8)
    )
    return [
        chunk_layout(utterance[a:b], layout)
        for a, b, layout in zip(bounds, bounds[1:], layouts)
    ]


class TestTransport:
    def test_a_feed_costs_one_readiness_check_one_liveness_check_one_write(
        self, monkeypatch
    ):
        plan = small_plan()
        utterance = make_utterances(1)[0]
        with ServingFabric.from_plan(plan, fabric_config(num_workers=1)) as fabric:
            sid = fabric.open()
            fabric.feed(sid, utterance[:10])
            fabric.poll(sid)  # the feed's ack arrives before the reply
            handle = fabric._supervisor.children[0]
            counts = collections.Counter()

            def count(owner, name, as_what):
                method = getattr(owner, name)

                def counted(*args, **kwargs):
                    counts[as_what] += 1
                    return method(*args, **kwargs)

                monkeypatch.setattr(owner, name, counted)

            count(handle, "readable", "readiness")
            count(handle.conn, "poll", "readiness")
            count(handle.process, "is_alive", "liveness")
            count(handle.conn, "send", "write")
            count(handle.conn, "send_bytes", "write")
            fabric.feed(sid, utterance[10:20])
            assert counts == {"readiness": 1, "liveness": 1, "write": 1}
            monkeypatch.undo()
            phones = fabric.poll(sid) + fabric.finish(sid)
        assert phones == offline_phones(plan, [utterance[:20]])[0]

    @pytest.mark.parametrize("touchpoint", ["feed", "poll", "finish"])
    def test_a_sigkilled_worker_is_a_crash_at_the_next_touchpoint(
        self, touchpoint, monkeypatch
    ):
        """SIGKILL leaves no fatal report, only a hung-up pipe: the next
        touchpoint's readiness check sees it, after dispatching the ack
        the worker sent before it died."""
        plan = small_plan()
        utterance = make_utterances(1)[0]
        with ServingFabric.from_plan(plan, fabric_config(num_workers=1)) as fabric:
            failures = []
            recover = fabric._recover
            monkeypatch.setattr(
                fabric, "_recover", lambda f: failures.append(f) or recover(f)
            )
            sid = fabric.open()
            fabric.feed(sid, utterance[:10])
            phones = fabric.poll(sid)
            fabric.feed(sid, utterance[10:20])
            handle = fabric._supervisor.children[0]
            assert handle.readable(10.0)  # the second feed's ack
            os.kill(handle.process.pid, signal.SIGKILL)
            handle.process.join(10.0)
            assert handle.inflight_chunks == 1 and not failures
            if touchpoint == "feed":
                fabric.feed(sid, utterance[20:30])
                fed = 30
            else:
                fed = 20
            if touchpoint != "finish":
                phones += fabric.poll(sid)
            phones += fabric.finish(sid)
            fleet = fabric.stats()
        assert [(f.index, f.reason, f.detail) for f in failures] == [
            (0, "crash", "pipe closed")
        ]
        assert handle.inflight_chunks == 0  # the ack, dispatched first
        assert fleet.crashes_detected == 1 and fleet.sessions_rehomed == 1
        assert phones == offline_phones(plan, [utterance[:fed]])[0]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_raw_frame_feeds_decode_like_the_scheduler_and_the_utterance(
        self, scheme
    ):
        """Any chunk split, any chunk layout: a one-worker fabric decodes
        what ``StreamScheduler`` and ``decode_utterance`` decode."""
        plan = small_plan(scheme=scheme)
        four_layouts = [
            chunk_layout(piece, layout)
            for piece, layout in zip(
                np.split(make_utterances(1, base_frames=24)[0], [5, 11, 18]),
                ("C", "F", "strided", "float32"),
            )
        ]
        with ServingFabric.from_plan(plan, fabric_config(num_workers=1)) as fabric:

            @settings(max_examples=12, deadline=None)
            @given(chunks=laid_out_chunks())
            @example(chunks=four_layouts)
            def decodes_alike(chunks):
                sid = fabric.open()
                scheduler = StreamScheduler(plan, STREAM)
                local = scheduler.open()
                for chunk in chunks:
                    fabric.feed(sid, chunk, block=True)
                    scheduler.feed(local, chunk)
                streamed = fabric.poll(sid) + fabric.finish(sid)
                scheduled = scheduler.poll(local) + scheduler.finish(local)
                whole = np.concatenate([np.asarray(c, np.float64) for c in chunks])
                assert streamed == scheduled == offline_phones(plan, [whole])[0]

            decodes_alike()


class TestHashRing:
    def test_assignment_is_deterministic(self):
        ring = HashRing(range(4))
        first = [ring.assign(sid, range(4)) for sid in range(64)]
        second = [HashRing(range(4)).assign(sid, range(4)) for sid in range(64)]
        assert first == second

    def test_removing_a_worker_only_moves_its_keys(self):
        ring = HashRing(range(4))
        alive = [0, 1, 2, 3]
        before = {sid: ring.assign(sid, alive) for sid in range(256)}
        after = {sid: ring.assign(sid, [0, 1, 3]) for sid in range(256)}
        for sid in range(256):
            if before[sid] != 2:
                assert after[sid] == before[sid]
            else:
                assert after[sid] != 2

    def test_revived_worker_reclaims_its_slice(self):
        ring = HashRing(range(3))
        before = {sid: ring.assign(sid, range(3)) for sid in range(128)}
        ring.assign(0, [0, 2])  # worker 1 "dies"...
        after = {sid: ring.assign(sid, range(3)) for sid in range(128)}
        assert after == before  # ...and its return restores the map

    def test_no_live_workers_is_typed(self):
        ring = HashRing(range(2))
        with pytest.raises(FabricError, match="no live workers"):
            ring.assign(0, [])

    def test_validation(self):
        with pytest.raises(ConfigError):
            HashRing([])
        with pytest.raises(ConfigError):
            HashRing([0], replicas=0)


class TestSessionJournal:
    def test_records_and_replays_in_order(self):
        journal = SessionJournal()
        journal.open(3)
        chunks = [np.full((2, 4), i, dtype=np.float64) for i in range(5)]
        for chunk in chunks:
            journal.record(3, chunk)
        assert journal.frames(3) == 10
        assert not journal.finished(3)
        replay = journal.chunks(3)
        assert len(replay) == 5
        for logged, original in zip(replay, chunks):
            np.testing.assert_array_equal(logged, original)
        journal.mark_finished(3)
        assert journal.finished(3)

    def test_double_open_and_post_finish_record_are_typed(self):
        journal = SessionJournal()
        journal.open(1)
        with pytest.raises(StreamError, match="already open"):
            journal.open(1)
        journal.mark_finished(1)
        with pytest.raises(StreamError, match="already finished"):
            journal.record(1, np.zeros((1, 4)))

    def test_unknown_sid_is_typed(self):
        journal = SessionJournal()
        with pytest.raises(StreamError, match="no journal for session id 7"):
            journal.record(7, np.zeros((1, 4)))

    def test_close_frees_the_log(self):
        journal = SessionJournal()
        journal.open(0)
        journal.record(0, np.zeros((3, 4)))
        assert 0 in journal
        journal.close(0)
        assert 0 not in journal
        journal.close(0)  # idempotent


class TestFaultConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultConfig(crash_after_chunks=-1)
        with pytest.raises(ConfigError):
            FaultConfig(drop_ack_rate=1.5)
        with pytest.raises(ConfigError):
            FaultConfig(stall_seconds=-1.0)

    def test_applies_only_to_first_incarnation_unless_repeat(self):
        fault = FaultConfig(crash_after_chunks=1, target_worker=2)
        assert fault.applies_to(2, 0)
        assert not fault.applies_to(2, 1)
        assert not fault.applies_to(0, 0)
        looping = FaultConfig(
            crash_after_chunks=1, target_worker=2, repeat=True
        )
        assert looping.applies_to(2, 5)


class TestWorkerFailure:
    def test_message_carries_index_and_classification(self):
        failure = WorkerFailure(3, "stall", "no poll reply within 0.50s")
        assert "worker 3 stall" in str(failure)


# ---------------------------------------------------------------------------
# Hot-swap across the fleet
# ---------------------------------------------------------------------------
def save_artifact(tmp_path, plan, name):
    from repro.engine import save_plan

    path = tmp_path / name
    save_plan(path, plan)
    return str(path)


def segment_decode(segments):
    """Parent-side reference: decode ``(plan, chunks)`` runs in order,
    carrying state across plan boundaries — what a session that lived
    through a hot-swap must have produced."""
    from repro.speech.decoder import IncrementalDecoder

    state, decoder, phones = None, IncrementalDecoder(STREAM.min_duration), []
    for plan, chunks in segments:
        if state is not None:
            state = plan.adapt_state(state)
        for chunk in chunks:
            logits, state = plan.run_chunk(chunk[:, None, :], state)
            phones.extend(decoder.push(logits[:, 0, :].argmax(axis=1)))
    return phones + decoder.finish()


class TestFleetHotSwap:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_swap_mid_stream_decodes_identically(self, scheme, tmp_path):
        # Identical weights recompiled into a second artifact: swapping
        # mid-utterance must be invisible in the decode.
        plan = small_plan(scheme)
        candidate = save_artifact(tmp_path, small_plan(scheme), "v2.npz")
        utterances = make_utterances(4)
        with ServingFabric.from_plan(plan, fabric_config()) as fabric:
            sids = [fabric.open() for _ in utterances]
            outs = {sid: [] for sid in sids}
            for sid, utterance in zip(sids, utterances):
                fabric.feed(sid, utterance[:20], block=True)
            fabric.swap(candidate)
            for sid in sids:
                assert fabric.session_version(sid) == candidate
            for sid, utterance in zip(sids, utterances):
                fabric.feed(sid, utterance[20:], block=True)
            for sid in sids:
                outs[sid].extend(fabric.finish(sid))
            fleet = fabric.stats()
        assert [outs[sid] for sid in sids] == offline_phones(plan, utterances)
        assert fleet.plan_swaps == 1
        assert fleet.restarts == 0

    def test_architecture_mismatch_rejected_fleet_intact(self, tmp_path):
        plan = small_plan()
        wrong_config = AcousticModelConfig(input_dim=8, hidden_size=32, num_layers=2)
        wrong = compile_model(GRUAcousticModel(wrong_config, rng=0).eval())
        candidate = save_artifact(tmp_path, wrong, "wrong.npz")
        utterances = make_utterances(2)
        with ServingFabric.from_plan(plan, fabric_config()) as fabric:
            sids = [fabric.open() for _ in utterances]
            for sid, utterance in zip(sids, utterances):
                fabric.feed(sid, utterance[:20], block=True)
            from repro.errors import SwapError

            with pytest.raises(SwapError, match="architecture mismatch"):
                fabric.swap(candidate)
            # Nothing moved: sessions finish exactly on the incumbent.
            for sid, utterance in zip(sids, utterances):
                fabric.feed(sid, utterance[20:], block=True)
            outs = [fabric.finish(sid) for sid in sids]
            assert fabric.stats().plan_swaps == 0
        assert outs == offline_phones(plan, utterances)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_crash_on_swap_recovers_byte_identical(self, scheme, tmp_path):
        # The deployment-time crash: worker 0 dies on receipt of the
        # swap command.  Recovery replays its sessions and the swap is
        # re-issued — the client-visible stream must be unchanged.
        plan = small_plan(scheme)
        candidate = save_artifact(tmp_path, small_plan(scheme), "v2.npz")
        utterances = make_utterances(4)
        config = fabric_config(
            faults=FaultConfig(crash_on_swap=True, target_worker=0)
        )
        with ServingFabric.from_plan(plan, config) as fabric:
            sids = [fabric.open() for _ in utterances]
            outs = {sid: [] for sid in sids}
            for sid, utterance in zip(sids, utterances):
                fabric.feed(sid, utterance[:20], block=True)
            fabric.swap(candidate)
            for sid, utterance in zip(sids, utterances):
                fabric.feed(sid, utterance[20:], block=True)
            for sid in sids:
                outs[sid].extend(fabric.finish(sid))
            fleet = fabric.stats()
        assert [outs[sid] for sid in sids] == offline_phones(plan, utterances)
        assert fleet.plan_swaps == 1
        assert fleet.crashes_detected >= 1
        assert fleet.restarts >= 1
        assert fleet.sessions_rehomed >= 1

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_crash_on_swap_divergent_candidate_replays_per_segment(
        self, scheme, tmp_path
    ):
        # Divergent candidate weights make per-version replay
        # observable: chunks fed before the swap must replay under the
        # old plan, chunks after under the new one — even for sessions
        # whose worker crashed mid-swap and were reconstructed entirely
        # from the journal.
        plan = small_plan(scheme)
        candidate_plan = small_plan(scheme, seed=1)
        candidate = save_artifact(tmp_path, candidate_plan, "v2.npz")
        utterances = make_utterances(4)
        config = fabric_config(
            faults=FaultConfig(crash_on_swap=True, target_worker=0)
        )
        chunk = 13
        with ServingFabric.from_plan(plan, config) as fabric:
            sids = [fabric.open() for _ in utterances]
            outs = {sid: [] for sid in sids}
            pre = {}
            for sid, utterance in zip(sids, utterances):
                pre[sid] = [
                    utterance[start : start + chunk]
                    for start in range(0, 20, chunk)
                ]
                for piece in pre[sid]:
                    fabric.feed(sid, piece, block=True)
            fabric.swap(candidate)
            post = {}
            for sid, utterance in zip(sids, utterances):
                post[sid] = [
                    utterance[start : start + chunk]
                    for start in range(20, len(utterance), chunk)
                ]
                for piece in post[sid]:
                    fabric.feed(sid, piece, block=True)
            for sid in sids:
                outs[sid].extend(fabric.finish(sid))
            fleet = fabric.stats()
        expected = [
            segment_decode([(plan, pre[sid]), (candidate_plan, post[sid])])
            for sid in sids
        ]
        assert [outs[sid] for sid in sids] == expected
        assert fleet.crashes_detected >= 1
        assert fleet.plan_swaps == 1


# ---------------------------------------------------------------------------
# Canary rollout + automatic rollback
# ---------------------------------------------------------------------------
def make_registry(tmp_path, incumbent, candidate):
    from repro.engine.registry import PlanRegistry

    registry = PlanRegistry(tmp_path / "registry")
    registry.publish("am", incumbent)
    registry.publish("am", candidate, parent="v1")
    return registry


def run_canary_workload(fabric, utterances, chunk=13):
    """Open/feed/finish every utterance; returns (hyps, opened_version)."""
    sids = [fabric.open() for _ in utterances]
    opened = {sid: fabric.session_version(sid) for sid in sids}
    outs = {sid: [] for sid in sids}
    for sid, utterance in zip(sids, utterances):
        for start in range(0, len(utterance), chunk):
            fabric.feed(sid, utterance[start : start + chunk], block=True)
    for sid in sids:
        outs[sid].extend(fabric.finish(sid))
    return [outs[sid] for sid in sids], [opened[sid] for sid in sids]


class TestCanaryRollout:
    def canary_config(self, **overrides):
        from repro.engine.fabric import CanaryConfig

        # The candidate's first chunk pays a lazy artifact-load
        # cold-start; with a handful of samples that dominates p95, so
        # the latency gate is opened wide — these tests pin decisions
        # on decode agreement, not timing.
        defaults = dict(fraction=0.5, decide_after=2, max_p95_ratio=1000.0)
        defaults.update(overrides)
        return CanaryConfig(**defaults)

    def test_fraction_routing_is_deterministic(self, tmp_path):
        incumbent = small_plan()
        registry = make_registry(tmp_path, incumbent, small_plan())
        fabric = ServingFabric.from_registry(
            registry, "am", "v1", fabric_config()
        )
        candidate_path = str(registry.resolve("am", "v2").artifact_path)
        with fabric:
            fabric.start_canary("v2", self.canary_config(decide_after=64))
            sids = [fabric.open() for _ in range(8)]
            routed = [
                sid
                for sid in sids
                if fabric.session_version(sid) == candidate_path
            ]
            assert len(routed) == 4  # floor-stride admits exactly 50%
            assert fabric.canary_report().sessions_routed == 4
            for sid in sids:
                fabric.finish(sid)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_divergent_candidate_rolls_back(self, scheme, tmp_path):
        incumbent = small_plan(scheme)
        registry = make_registry(tmp_path, incumbent, small_plan(scheme, seed=1))
        utterances = make_utterances(8)
        incumbent_path = str(registry.resolve("am", "v1").artifact_path)
        fabric = ServingFabric.from_registry(
            registry, "am", "v1", fabric_config()
        )
        with fabric:
            fabric.start_canary("v2", self.canary_config())
            hyps, opened = run_canary_workload(fabric, utterances)
            report = fabric.canary_report()
            fleet = fabric.stats()
            # New sessions after rollback route to the incumbent again.
            sid = fabric.open()
            assert fabric.session_version(sid) == incumbent_path
            fabric.finish(sid)
        assert report.decision == "rollback"
        assert report.agreement < 1.0
        assert fleet.plan_swaps == 0  # the incumbent was never touched
        offline = offline_phones(incumbent, utterances)
        incumbent_results = [
            (hyp, ref)
            for hyp, ref, version in zip(hyps, offline, opened)
            if version == incumbent_path
        ]
        assert incumbent_results  # the stride kept incumbent traffic
        assert all(hyp == ref for hyp, ref in incumbent_results)
        # The decision is durable in the registry.
        assert registry.resolve("am", "v2").status == "rolled_back"
        history = registry.resolve("am", "v2").meta["history"]
        assert history[-1]["decision"] == "rollback"

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_clean_candidate_promotes_and_swaps(self, scheme, tmp_path):
        incumbent = small_plan(scheme)
        registry = make_registry(tmp_path, incumbent, small_plan(scheme))
        utterances = make_utterances(8)
        candidate_path = str(registry.resolve("am", "v2").artifact_path)
        fabric = ServingFabric.from_registry(
            registry, "am", "v1", fabric_config()
        )
        with fabric:
            fabric.start_canary("v2", self.canary_config())
            hyps, _ = run_canary_workload(fabric, utterances)
            report = fabric.canary_report()
            fleet = fabric.stats()
            sid = fabric.open()  # post-promote traffic serves v2
            assert fabric.session_version(sid) == candidate_path
            fabric.finish(sid)
        assert report.decision == "promote"
        assert report.agreement == 1.0
        assert fleet.plan_swaps == 1
        # Identical weights: every session (canary, carried-across, and
        # incumbent) decodes exactly.
        assert hyps == offline_phones(incumbent, utterances)
        assert registry.resolve("am", "v2").status == "serving"
        assert registry.resolve("am", "v1").status == "superseded"

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_crash_during_canary_recovers_and_rolls_back(self, scheme, tmp_path):
        incumbent = small_plan(scheme)
        registry = make_registry(tmp_path, incumbent, small_plan(scheme, seed=1))
        utterances = make_utterances(6)
        incumbent_path = str(registry.resolve("am", "v1").artifact_path)
        fabric = ServingFabric.from_registry(
            registry,
            "am",
            "v1",
            fabric_config(
                faults=FaultConfig(crash_after_chunks=3, target_worker=0)
            ),
        )
        with fabric:
            fabric.start_canary("v2", self.canary_config())
            hyps, opened = run_canary_workload(fabric, utterances)
            report = fabric.canary_report()
            fleet = fabric.stats()
        assert report.decision == "rollback"
        assert fleet.crashes_detected >= 1
        assert fleet.restarts >= 1
        offline = offline_phones(incumbent, utterances)
        assert all(
            hyp == ref
            for hyp, ref, version in zip(hyps, offline, opened)
            if version == incumbent_path
        )

    def test_swap_blocked_while_canary_active(self, tmp_path):
        from repro.errors import SwapError

        registry = make_registry(tmp_path, small_plan(), small_plan())
        fabric = ServingFabric.from_registry(
            registry, "am", "v1", fabric_config()
        )
        with fabric:
            fabric.start_canary("v2", self.canary_config())
            with pytest.raises(SwapError, match="canary rollout is active"):
                fabric.swap("v2")
            with pytest.raises(SwapError, match="already active"):
                fabric.start_canary("v2", self.canary_config())

    def test_force_decide_without_evidence_rolls_back(self, tmp_path):
        from repro.errors import SwapError

        registry = make_registry(tmp_path, small_plan(), small_plan())
        fabric = ServingFabric.from_registry(
            registry, "am", "v1", fabric_config()
        )
        with fabric:
            fabric.start_canary("v2", self.canary_config())
            with pytest.raises(SwapError, match="window not full"):
                fabric.decide_canary()
            report = fabric.decide_canary(force=True)
        assert report.decision == "rollback"
        assert report.reason == "no canary sessions scored"

    def test_canary_arch_mismatch_rejected(self, tmp_path):
        from repro.errors import SwapError

        wrong_config = AcousticModelConfig(input_dim=8, hidden_size=32, num_layers=2)
        wrong = compile_model(GRUAcousticModel(wrong_config, rng=0).eval())
        registry = make_registry(tmp_path, small_plan(), wrong)
        fabric = ServingFabric.from_registry(
            registry, "am", "v1", fabric_config()
        )
        with fabric:
            with pytest.raises(SwapError, match="architecture mismatch"):
                fabric.start_canary("v2", self.canary_config())
            assert fabric.canary_report() is None

    def test_canary_config_validation(self):
        from repro.engine.fabric import CanaryConfig

        with pytest.raises(ConfigError):
            CanaryConfig(fraction=0.0)
        with pytest.raises(ConfigError):
            CanaryConfig(fraction=1.5)
        with pytest.raises(ConfigError):
            CanaryConfig(decide_after=0)
        with pytest.raises(ConfigError):
            CanaryConfig(min_agreement=-0.1)
        with pytest.raises(ConfigError):
            CanaryConfig(max_p95_ratio=0.0)


# ---------------------------------------------------------------------------
# FleetStats edge cases (empty fleets must report zeros, not crash)
# ---------------------------------------------------------------------------
class TestFleetStatsEdges:
    def test_empty_fleet_percentiles_and_batches_are_zero(self):
        from repro.engine.fabric import FleetStats, WorkerStats

        empty = FleetStats()
        assert empty.p50_latency_s == 0.0
        assert empty.p95_latency_s == 0.0
        assert empty.mean_batch_size == 0.0
        assert empty.chunks == 0
        assert empty.batches == 0
        assert empty.version_latencies("anything") == []
        unreachable = WorkerStats(
            index=0, alive=False, incarnation=0, restarts=0, snapshot=None
        )
        assert unreachable.p50_latency_s == 0.0
        assert unreachable.p95_latency_s == 0.0

    def test_partial_snapshots_do_not_divide_by_zero(self):
        from repro.engine.fabric import FleetStats, WorkerStats

        # A snapshot missing counters (an older worker, a torn stats
        # reply) must degrade to zeros, not KeyError/ZeroDivisionError.
        fleet = FleetStats(
            workers=[
                WorkerStats(
                    index=0, alive=True, incarnation=0, restarts=0,
                    snapshot={"latencies_s": []},
                )
            ]
        )
        assert fleet.mean_batch_size == 0.0
        assert fleet.p95_latency_s == 0.0

    def test_journal_segments_split_at_swap_marks(self, rng):
        journal = SessionJournal()
        journal.open(7, version="v1")
        a, b, c = (rng.standard_normal((4, 8)) for _ in range(3))
        journal.record(7, a)
        journal.mark_swap(7, "v2")
        journal.record(7, b)
        journal.record(7, c)
        segments = journal.segments(7)
        assert [(v, len(chunks)) for v, chunks in segments] == [
            ("v1", 1), ("v2", 2),
        ]
        assert journal.version(7) == "v2"
        # A swap before any chunk rewrites the open version instead of
        # splitting an empty segment.
        journal.open(8, version="v1")
        journal.mark_swap(8, "v2")
        journal.record(8, a)
        ((version, chunks),) = journal.segments(8)
        assert version == "v2" and len(chunks) == 1
        np.testing.assert_array_equal(chunks[0], a)  # a copy of it
        assert not np.shares_memory(chunks[0], a)
        # Consecutive marks with no chunks between collapse.
        journal.mark_swap(8, "v3")
        journal.mark_swap(8, "v4")
        assert [(v, len(chunks)) for v, chunks in journal.segments(8)] == [
            ("v2", 1), ("v4", 0),
        ]
