"""Tests for the streaming inference runtime.

The central contract — the *chunk-exactness sweep* — is that a streaming
session fed an utterance in arbitrary chunk splits produces byte-identical
phone sequences to the offline ``decode_utterance`` path, across kernel
backends (``reference``/``numpy``) and quantization schemes
(``None``/``fp16``/``int8``), for GRU and LSTM (cell-state) plans.  Logits
are asserted too, as far as each scheme permits: **bit-exact** for int8
(per-frame activation scales + order-exact integer accumulation) and to
BLAS-reduction-order tolerance for float64/fp16.

Around the sweep: the streaming feature frontend's bit-exactness with the
offline featurizer, the incremental decoder's equivalence with
``smooth_labels``+``collapse_frames``, the state-carrying ``run_chunk``
API, and the deadline-batching stream scheduler.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine, kernels
from repro.errors import ConfigError, ShapeError, StreamError
from repro.speech.decoder import IncrementalDecoder, decode_utterance, smooth_labels
from repro.speech.features import (
    FeatureConfig,
    StreamingFrontend,
    log_mel_spectrogram,
)
from repro.speech.metrics import collapse_frames
from repro.speech.model import AcousticModelConfig, GRUAcousticModel
from repro.speech.phones import SILENCE_ID

# The chunk-exactness sweep runs under every registered backend —
# "compiled" joins the matrix automatically on hosts with a C toolchain.
BACKENDS = tuple(kernels.backends())
SCHEMES = (None, "fp16", "int8", "mixed")
CHUNK_SIZES = (1, 7, 25, None)  # None = the whole utterance in one chunk


def tiny_model(cell_type="gru", input_dim=8, hidden=16, seed=0):
    config = AcousticModelConfig(
        input_dim=input_dim, hidden_size=hidden, num_layers=2, cell_type=cell_type
    )
    return GRUAcousticModel(config, rng=seed).eval()


def chunk_starts(total, size):
    return range(0, total, size)


# ---------------------------------------------------------------------------
# The chunk-exactness property sweep (the acceptance criterion)
# ---------------------------------------------------------------------------
class TestChunkExactnessSweep:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("cell_type", ["gru", "lstm"])
    def test_streaming_equals_offline(self, backend, scheme, cell_type, rng_factory):
        plan = engine.compile_model(tiny_model(cell_type), scheme=scheme)
        with kernels.use_backend(backend):
            for utt_index in range(2):
                rng = rng_factory(1000 * utt_index + 17)
                total = int(rng.integers(40, 70))
                utterance = rng.standard_normal((total, 8))
                offline_logits = plan.forward_utterance(utterance)
                offline = decode_utterance(offline_logits, min_duration=2)
                for size in CHUNK_SIZES:
                    size = total if size is None else size
                    session = engine.StreamingSession(plan, min_duration=2)
                    state, phones, pieces = None, [], []
                    for start in chunk_starts(total, size):
                        chunk = utterance[start : start + size]
                        phones += session.feed(chunk)
                        logits, state = plan.run_chunk(chunk[:, None, :], state)
                        pieces.append(logits[:, 0])
                    phones += session.finish()
                    # Labels: byte-identical with the offline decode.
                    assert phones == offline, (backend, scheme, cell_type, size)
                    assert session.phones == offline
                    # Logits: as exact as the scheme permits.
                    chunked = np.concatenate(pieces)
                    if scheme == "int8":
                        np.testing.assert_array_equal(chunked, offline_logits)
                    else:
                        atol = 1e-4 if scheme == "fp16" else 1e-9
                        np.testing.assert_allclose(
                            chunked, offline_logits, atol=atol
                        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("fmt", ["csr", "bspc"])
    def test_int8_sparse_plans_bitwise_chunk_exact(self, fmt, backend, rng_factory):
        # Per-column activation scales make even the sparse int8 spmm
        # paths bit-exact under chunking — and the integer accumulation
        # is reduction-order-free, so every backend (the compiled C one
        # included) must reproduce the *reference* offline logits bit for
        # bit under every chunk split.
        from repro.pruning.bsp import BSPConfig, bsp_project_masks

        model = tiny_model(hidden=24)
        masks = bsp_project_masks(
            model.prunable_weights(),
            BSPConfig(col_rate=4, row_rate=2, num_row_strips=4, num_col_blocks=4),
        )
        for name, param in model.prunable_parameters().items():
            param.data[...] = masks[name].apply_to_array(param.data)
        plan = engine.compile_model(
            model,
            scheme="int8",
            config=engine.EngineConfig(
                sparse_format=fmt, num_row_strips=4, num_col_blocks=4
            ),
        )
        rng = rng_factory(5)
        utterance = rng.standard_normal((41, 8))
        with kernels.use_backend("reference"):
            offline_logits = plan.forward_utterance(utterance)
        with kernels.use_backend(backend):
            for size in (1, 7, 41):
                state, pieces = None, []
                for start in chunk_starts(41, size):
                    logits, state = plan.run_chunk(
                        utterance[start : start + size][:, None, :], state
                    )
                    pieces.append(logits[:, 0])
                np.testing.assert_array_equal(
                    np.concatenate(pieces), offline_logits
                )


# ---------------------------------------------------------------------------
# run_chunk / PlanState
# ---------------------------------------------------------------------------
class TestRunChunkAPI:
    def make_plan(self, **kwargs):
        return engine.compile_model(tiny_model(**kwargs))

    def test_zero_length_chunk_passes_state_through(self, rng):
        plan = self.make_plan()
        _, state = plan.run_chunk(rng.standard_normal((5, 2, 8)))
        logits, state2 = plan.run_chunk(np.zeros((0, 2, 8)), state)
        assert logits.shape == (0, 2, plan.output.num_classes)
        for before, after in zip(state.layer_states, state2.layer_states):
            for a, b in zip(before, after):
                np.testing.assert_array_equal(a, b)
                assert a is not b  # pass-through still never aliases

    def test_state_batch_mismatch_rejected(self, rng):
        plan = self.make_plan()
        _, state = plan.run_chunk(rng.standard_normal((5, 2, 8)))
        with pytest.raises(ShapeError):
            plan.run_chunk(rng.standard_normal((5, 3, 8)), state)

    def test_rejects_wrong_rank_and_dim(self):
        plan = self.make_plan()
        with pytest.raises(ShapeError):
            plan.run_chunk(np.zeros((5, 8)))
        with pytest.raises(ShapeError):
            plan.run_chunk(np.zeros((5, 2, 9)))

    def test_fresh_state_matches_forward_batch(self, rng):
        plan = self.make_plan()
        x = rng.standard_normal((9, 3, 8))
        logits, _ = plan.run_chunk(x)
        np.testing.assert_array_equal(logits, plan.forward_batch(x))

    def test_lstm_cell_state_is_carried(self, rng):
        # Two components per layer, and chunked equals offline — the cell
        # state must actually flow between chunks for this to hold.
        plan = engine.compile_model(tiny_model("lstm"))
        state = plan.init_state(1)
        assert all(len(layer) == 2 for layer in state.layer_states)
        utterance = rng.standard_normal((23, 8))
        offline = plan.forward_utterance(utterance)
        pieces, carry = [], None
        for start in chunk_starts(23, 6):
            logits, carry = plan.run_chunk(
                utterance[start : start + 6][:, None, :], carry
            )
            pieces.append(logits[:, 0])
        np.testing.assert_allclose(np.concatenate(pieces), offline, atol=1e-9)

    def test_plan_state_stack_split_roundtrip(self, rng):
        plan = self.make_plan()
        _, s1 = plan.run_chunk(rng.standard_normal((4, 1, 8)))
        _, s2 = plan.run_chunk(rng.standard_normal((6, 1, 8)))
        stacked = engine.PlanState.stack([s1, s2])
        assert stacked.batch_size == 2
        parts = stacked.split()
        for original, part in zip((s1, s2), parts):
            for layer_a, layer_b in zip(original.layer_states, part.layer_states):
                for a, b in zip(layer_a, layer_b):
                    np.testing.assert_array_equal(a, b)

    def test_batched_sessions_independent_of_cobatching(self, rng):
        # Row b of a batched run_chunk carries session b's stream as if
        # it ran alone.  The per-step recurrent GEMM's row count is the
        # batch size, so co-batching can shift its BLAS reduction order
        # by float epsilon — logits agree to ~1e-12 and labels exactly
        # (chunk *splits* at fixed batch are bitwise for int8; see the
        # sweep above).
        plan = engine.compile_model(tiny_model(), scheme="int8")
        utterances = [rng.standard_normal((20, 8)) for _ in range(3)]
        solo = [plan.forward_utterance(u) for u in utterances]
        carry = None
        pieces = []
        batch = np.stack(utterances, axis=1)
        for start in chunk_starts(20, 5):
            logits, carry = plan.run_chunk(batch[start : start + 5], carry)
            pieces.append(logits)
        batched = np.concatenate(pieces)
        for b, expected in enumerate(solo):
            np.testing.assert_allclose(batched[:, b], expected, atol=1e-12)
            np.testing.assert_array_equal(
                batched[:, b].argmax(axis=1), expected.argmax(axis=1)
            )


# ---------------------------------------------------------------------------
# Streaming frontend
# ---------------------------------------------------------------------------
class TestStreamingFrontend:
    @pytest.mark.parametrize("total", [0, 1, 399, 400, 401, 4000, 7213])
    @pytest.mark.parametrize("split", [1, 160, 1024])
    def test_bit_exact_with_offline_featurizer(self, total, split, rng_factory):
        rng = rng_factory(total + split)
        signal = rng.standard_normal(total)
        config = FeatureConfig()
        offline = log_mel_spectrogram(signal, config)
        frontend = StreamingFrontend(config)
        pieces = [frontend.push(signal[i : i + split]) for i in range(0, total, split)]
        pieces.append(frontend.finish())
        np.testing.assert_array_equal(np.concatenate(pieces), offline)
        assert frontend.frames_emitted == len(offline)

    def test_push_before_full_frame_emits_nothing(self):
        frontend = StreamingFrontend(FeatureConfig())
        assert frontend.push(np.zeros(399)).shape == (0, 40)
        assert frontend.push(np.zeros(1)).shape == (1, 40)

    def test_finish_twice_raises(self):
        frontend = StreamingFrontend(FeatureConfig())
        frontend.finish()
        with pytest.raises(StreamError):
            frontend.finish()
        with pytest.raises(StreamError):
            frontend.push(np.zeros(10))

    def test_rejects_non_1d_samples(self):
        with pytest.raises(ConfigError):
            StreamingFrontend(FeatureConfig()).push(np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# Incremental decoder
# ---------------------------------------------------------------------------
class TestIncrementalDecoder:
    def offline(self, labels, min_duration):
        return collapse_frames(smooth_labels(np.asarray(labels), min_duration))

    def test_equals_offline_smooth_collapse_property(self, rng_factory):
        rng = rng_factory(99)
        for _ in range(150):
            length = int(rng.integers(0, 40))
            labels = rng.integers(0, 4, size=length)
            labels = np.where(labels == 3, SILENCE_ID, labels)
            for min_duration in (1, 2, 3):
                expected = self.offline(labels, min_duration)
                for split in (1, 3, max(length, 1)):
                    decoder = IncrementalDecoder(min_duration)
                    got = []
                    for i in range(0, length, split):
                        got += decoder.push(labels[i : i + split])
                    got += decoder.finish()
                    assert got == expected, (labels.tolist(), min_duration, split)

    def test_commits_as_soon_as_run_survives(self):
        decoder = IncrementalDecoder(min_duration=3)
        assert decoder.push(np.array([7])) == [7]  # first run always survives
        assert decoder.push(np.array([8, 8])) == []  # boundary run undecided
        assert decoder.pending
        assert decoder.push(np.array([8])) == [8]  # reached min_duration
        assert not decoder.pending
        assert decoder.finish() == []

    def test_short_boundary_run_inherits_and_vanishes(self):
        decoder = IncrementalDecoder(min_duration=3)
        decoder.push(np.array([7, 7, 7]))
        decoder.push(np.array([8]))  # too short, still open
        assert decoder.finish() == []  # inherits 7, merges away

    def test_silence_dropped(self):
        decoder = IncrementalDecoder(min_duration=1)
        got = decoder.push(np.array([SILENCE_ID, 5, 5, SILENCE_ID, 6]))
        got += decoder.finish()
        assert got == [5, 6]

    def test_push_after_finish_raises(self):
        decoder = IncrementalDecoder()
        decoder.finish()
        with pytest.raises(StreamError):
            decoder.push(np.array([1]))

    def test_validation(self):
        with pytest.raises(ConfigError):
            IncrementalDecoder(min_duration=0)
        with pytest.raises(ShapeError):
            IncrementalDecoder().push(np.zeros((2, 2), dtype=np.int64))


# ---------------------------------------------------------------------------
# Streaming sessions (client API)
# ---------------------------------------------------------------------------
class TestStreamingSession:
    def test_feed_after_finish_raises(self, rng):
        session = engine.StreamingSession(engine.compile_model(tiny_model()))
        session.finish()
        with pytest.raises(StreamError):
            session.feed(rng.standard_normal((4, 8)))

    def test_empty_chunk_is_a_no_op(self):
        session = engine.StreamingSession(engine.compile_model(tiny_model()))
        assert session.feed(np.zeros((0, 8))) == []
        assert session.frames_fed == 0

    def test_rejects_wrong_dim(self):
        session = engine.StreamingSession(engine.compile_model(tiny_model()))
        with pytest.raises(ShapeError):
            session.feed(np.zeros((4, 9)))

    def test_feed_audio_requires_frontend(self):
        session = engine.StreamingSession(engine.compile_model(tiny_model()))
        with pytest.raises(StreamError):
            session.feed_audio(np.zeros(100))

    def test_raw_audio_stream_matches_offline_pipeline(self, rng):
        # End to end: waveform chunks → StreamingFrontend → run_chunk →
        # incremental decode equals featurize-then-decode offline.
        config = FeatureConfig()
        plan = engine.compile_model(tiny_model(input_dim=config.num_mels))
        signal = rng.standard_normal(5000)
        offline_features = log_mel_spectrogram(signal, config)
        offline = decode_utterance(
            plan.forward_utterance(offline_features), min_duration=2
        )
        session = engine.StreamingSession(
            plan, min_duration=2, frontend=StreamingFrontend(config)
        )
        phones = []
        for start in range(0, len(signal), 700):
            phones += session.feed_audio(signal[start : start + 700])
        phones += session.finish()
        assert phones == offline


# ---------------------------------------------------------------------------
# Stream scheduler (deadline batching)
# ---------------------------------------------------------------------------
class TestStreamScheduler:
    def make(self, scheme=None, **config):
        plan = engine.compile_model(tiny_model(), scheme=scheme)
        defaults = dict(max_batch_size=4, max_wait_frames=1000, min_duration=2)
        defaults.update(config)
        return plan, engine.StreamScheduler(plan, engine.StreamConfig(**defaults))

    def test_concurrent_sessions_match_offline(self, rng_factory):
        plan, scheduler = self.make()
        rng = rng_factory(42)
        utterances = [
            rng.standard_normal((int(rng.integers(30, 60)), 8)) for _ in range(8)
        ]
        offline = [
            decode_utterance(plan.forward_utterance(u), min_duration=2)
            for u in utterances
        ]
        sids = [scheduler.open() for _ in utterances]
        collected = {sid: [] for sid in sids}
        for start in range(0, max(len(u) for u in utterances), 10):
            for sid, utterance in zip(sids, utterances):
                chunk = utterance[start : start + 10]
                if len(chunk):
                    scheduler.feed(sid, chunk)
            for sid in sids:
                collected[sid] += scheduler.poll(sid)
        for sid, utterance in zip(sids, utterances):
            collected[sid] += scheduler.finish(sid)
        assert [collected[sid] for sid in sids] == offline
        stats = scheduler.stats
        assert stats.sessions_opened == stats.sessions_finished == 8
        assert stats.frames == sum(len(u) for u in utterances)
        assert len(stats.chunk_latency_s) == stats.chunks
        assert stats.mean_batch_size > 1.0  # equal-length chunks did batch
        assert stats.p50_latency_s <= stats.p95_latency_s

    def test_full_group_runs_without_deadline(self, rng):
        _, scheduler = self.make(max_batch_size=2, max_wait_frames=10_000)
        a, b = scheduler.open(), scheduler.open()
        scheduler.feed(a, rng.standard_normal((5, 8)))
        assert scheduler.pending() == 1  # batch not full, deadline far
        scheduler.feed(b, rng.standard_normal((5, 8)))
        assert scheduler.pending() == 0  # group filled → ran
        assert scheduler.stats.batches == 1
        assert scheduler.stats.batched_chunks == 2

    def test_deadline_forces_partial_batch(self, rng):
        _, scheduler = self.make(max_batch_size=8, max_wait_frames=10)
        a, b = scheduler.open(), scheduler.open()
        scheduler.feed(a, rng.standard_normal((5, 8)))
        assert scheduler.pending() == 1
        scheduler.feed(b, rng.standard_normal((4, 8)))  # unequal length:
        assert scheduler.pending() == 2  # cannot share a's batch
        scheduler.feed(b, rng.standard_normal((7, 8)))  # a waited 11 > 10
        assert scheduler.stats.batches == 1  # a's group ran, forced solo
        assert scheduler.stats.batched_chunks == 1
        assert scheduler.pending() == 2  # b's two chunks still queued
        scheduler.flush()
        assert scheduler.pending() == 0

    def test_unequal_chunk_lengths_never_share_a_batch(self, rng):
        _, scheduler = self.make(max_batch_size=4, max_wait_frames=0)
        a, b = scheduler.open(), scheduler.open()
        scheduler.feed(a, rng.standard_normal((3, 8)))
        scheduler.feed(b, rng.standard_normal((4, 8)))
        assert scheduler.stats.batches == 2
        assert scheduler.stats.mean_batch_size == 1.0

    def test_sessions_chunks_run_in_order(self, rng):
        # A session's second chunk must never run before (or batch with)
        # its first: only head chunks are eligible.
        plan, scheduler = self.make(max_batch_size=4, max_wait_frames=10_000)
        sid = scheduler.open()
        utterance = rng.standard_normal((20, 8))
        scheduler.feed(sid, utterance[:10])
        scheduler.feed(sid, utterance[10:])
        assert scheduler.pending() == 2  # same session: no self-batching
        phones = scheduler.finish(sid)
        offline = decode_utterance(plan.forward_utterance(utterance), min_duration=2)
        assert phones == offline

    def test_unknown_session_raises(self):
        _, scheduler = self.make()
        with pytest.raises(StreamError):
            scheduler.feed(99, np.zeros((3, 8)))
        sid = scheduler.open()
        scheduler.finish(sid)
        with pytest.raises(StreamError):
            scheduler.poll(sid)

    def test_unknown_sid_message_names_the_sid(self):
        # Typed error, never a KeyError — and the message must carry the
        # offending sid so fleet logs are actionable.
        _, scheduler = self.make()
        for op in (
            lambda: scheduler.feed(42, np.zeros((3, 8))),
            lambda: scheduler.poll(42),
            lambda: scheduler.finish(42),
        ):
            with pytest.raises(StreamError, match="unknown session id 42"):
                op()

    def test_finished_sid_distinguished_from_unknown(self):
        _, scheduler = self.make()
        sid = scheduler.open()
        scheduler.finish(sid)
        for op in (
            lambda: scheduler.feed(sid, np.zeros((3, 8))),
            lambda: scheduler.poll(sid),
            lambda: scheduler.finish(sid),
        ):
            with pytest.raises(
                StreamError, match=f"session {sid} already finished"
            ):
                op()

    def test_feed_shape_validation_is_typed(self):
        from repro.errors import ShapeError as SE

        _, scheduler = self.make()
        sid = scheduler.open()
        with pytest.raises(SE):
            scheduler.feed(sid, np.zeros((3, 5)))  # wrong feature dim
        with pytest.raises(SE):
            scheduler.feed(sid, np.zeros(3))  # wrong rank

    def test_journal_hook_records_replayable_stream(self, rng):
        from repro.engine.fabric import SessionJournal

        plan = engine.compile_model(tiny_model())
        journal = SessionJournal()
        scheduler = engine.StreamScheduler(
            plan, engine.StreamConfig(min_duration=2), journal=journal
        )
        utterance = rng.standard_normal((30, 8))
        sid = scheduler.open()
        for start in range(0, 30, 7):
            scheduler.feed(sid, utterance[start : start + 7])
        scheduler.feed(sid, np.zeros((0, 8)))  # rejected chunks never journal
        phones = scheduler.finish(sid)
        assert journal.finished(sid)
        assert journal.frames(sid) == 30

        # Replaying the journal into a *fresh* scheduler reproduces the
        # stream byte-identically (this is what fabric re-homing does).
        replayed = engine.StreamScheduler(plan, engine.StreamConfig(min_duration=2))
        rid = replayed.open()
        for chunk in journal.chunks(sid):
            replayed.feed(rid, chunk)
        assert replayed.finish(rid) == phones

    def test_a_reused_feed_buffer_streams_the_offline_transcript(self, rng):
        # A client refilling one audio buffer between feeds: chunks wait
        # in the queue (nothing runs before finish here), so a queued
        # alias of the buffer would decode its last contents four times.
        from repro.engine.fabric import SessionJournal

        plan, _ = self.make()
        journal = SessionJournal()
        scheduler = engine.StreamScheduler(
            plan,
            engine.StreamConfig(max_batch_size=4, max_wait_frames=1000, min_duration=2),
            journal=journal,
        )
        utterance = rng.standard_normal((40, 8))
        offline = decode_utterance(plan.forward_utterance(utterance), min_duration=2)
        buffer = np.empty((10, 8))
        sid = scheduler.open()
        for start in range(0, 40, 10):
            buffer[...] = utterance[start : start + 10]
            scheduler.feed(sid, buffer)
        buffer[...] = 0.0
        assert scheduler.pending() == 4
        assert scheduler.finish(sid) == offline
        np.testing.assert_array_equal(np.concatenate(journal.chunks(sid)), utterance)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            engine.StreamConfig(max_batch_size=0)
        with pytest.raises(ConfigError):
            engine.StreamConfig(max_wait_frames=-1)
        with pytest.raises(ConfigError):
            engine.StreamConfig(min_duration=0)

    def test_stream_bench_harness_runs_and_matches_offline(self):
        from repro.eval.stream_bench import (
            StreamBenchConfig,
            render_stream_bench,
            run_stream_bench,
        )

        result = run_stream_bench(
            StreamBenchConfig(num_sessions=4, hidden_size=16, repeats=1)
        )
        assert len(result.rows) == 2
        offline, streamed = result.rows
        # both measured against per-utterance decodes outside the scheduler
        assert offline.decode_match == 1.0
        assert streamed.decode_match == 1.0  # the chunk-exactness guarantee
        assert streamed.p50_latency_ms is not None
        assert streamed.p50_latency_ms <= streamed.p95_latency_ms
        rendered = render_stream_bench(result)
        assert "offline whole-utterance" in rendered and "streaming chunk=" in rendered
        assert len(result.to_rows()) == 2

    def test_stream_bench_int8_rows_match_reference(self):
        from repro.eval.stream_bench import StreamBenchConfig, run_stream_bench

        result = run_stream_bench(
            StreamBenchConfig(num_sessions=4, hidden_size=16, repeats=1, scheme="int8")
        )
        assert [row.decode_match for row in result.rows] == [1.0, 1.0]
        assert result.rows[0].path == "offline whole-utterance"

    def test_stream_bench_decode_match_is_scored_against_the_reference(
        self, monkeypatch
    ):
        # The rows are measured, not asserted: a reference no row can
        # reproduce drives every row's decode_match to zero.
        import repro.eval.stream_bench as stream_bench

        real = stream_bench.decode_utterance
        monkeypatch.setattr(
            stream_bench,
            "decode_utterance",
            lambda logits, min_duration: real(logits, min_duration) + [-1],
        )
        result = stream_bench.run_stream_bench(
            stream_bench.StreamBenchConfig(num_sessions=3, hidden_size=16, repeats=1)
        )
        assert [row.decode_match for row in result.rows] == [0.0, 0.0]

    def test_ragged_whole_utterances_match_per_utterance(self, rng):
        plan, scheduler = self.make(max_batch_size=8, max_wait_frames=10_000)
        lengths = [1, 1, 7, 30, 30, 30, 2, 55, 16]
        utterances = [rng.standard_normal((t, 8)) for t in lengths]
        sids = [scheduler.open() for _ in utterances]
        for sid, utterance in zip(sids, utterances):
            scheduler.feed(sid, utterance)
        got = [scheduler.finish(sid) for sid in sids]
        assert got == [
            decode_utterance(plan.forward_utterance(u), min_duration=2)
            for u in utterances
        ]
        stats = scheduler.stats
        assert stats.sessions_finished == stats.chunks == len(lengths)
        assert stats.frames == sum(lengths)
        assert stats.batched_chunks == len(lengths)

    def test_equal_length_whole_utterances_fuse(self, rng):
        _, scheduler = self.make(max_batch_size=3, max_wait_frames=10_000)
        sids = [scheduler.open() for _ in range(4)]
        for sid, frames in zip(sids, (20, 10, 20, 20)):
            scheduler.feed(sid, rng.standard_normal((frames, 8)))
        # The three 20-frame utterances filled a batch and ran together.
        assert scheduler.stats.batches == 1
        assert scheduler.stats.batched_chunks == 3
        assert scheduler.pending() == 1
        for sid in sids:
            scheduler.finish(sid)
        assert scheduler.stats.batches == 2
        assert scheduler.stats.mean_batch_size == 2.0

    def test_whole_utterances_under_a_zero_deadline_decode_offline(self, rng):
        # Every utterance forced to run the moment it arrives.
        plan, scheduler = self.make(max_batch_size=8, max_wait_frames=0)
        utterances = [rng.standard_normal((t, 8)) for t in (12, 12, 3, 40)]
        sids = [scheduler.open() for _ in utterances]
        for sid, utterance in zip(sids, utterances):
            scheduler.feed(sid, utterance)
            assert scheduler.pending() == 0
        got = [scheduler.finish(sid) for sid in sids]
        assert got == [
            decode_utterance(plan.forward_utterance(u), min_duration=2)
            for u in utterances
        ]

    def test_lstm_whole_utterances_match_per_utterance(self, rng):
        # The cell state rides along with the hidden state in a fused batch.
        plan = engine.compile_model(tiny_model("lstm"))
        scheduler = engine.StreamScheduler(
            plan, engine.StreamConfig(max_batch_size=4, max_wait_frames=1000)
        )
        utterances = [rng.standard_normal((t, 8)) for t in (25, 25, 1, 25)]
        sids = [scheduler.open() for _ in utterances]
        for sid, utterance in zip(sids, utterances):
            scheduler.feed(sid, utterance)
        got = [scheduler.finish(sid) for sid in sids]
        min_duration = scheduler.config.min_duration
        assert got == [
            decode_utterance(plan.forward_utterance(u), min_duration)
            for u in utterances
        ]

    def test_empty_whole_utterance_decodes_to_nothing(self):
        _, scheduler = self.make()
        sid = scheduler.open()
        scheduler.feed(sid, np.zeros((0, 8)))
        assert scheduler.pending() == 0
        assert scheduler.finish(sid) == []
        assert scheduler.stats.chunks == scheduler.stats.frames == 0

    def test_rejected_feed_leaves_queued_utterances_alone(self, rng):
        plan, scheduler = self.make(max_batch_size=4, max_wait_frames=10_000)
        good = rng.standard_normal((6, 8))
        first, second = scheduler.open(), scheduler.open()
        scheduler.feed(first, good)
        for bad in (np.zeros(8), np.zeros((4, 2, 8)), np.zeros((4, 9))):
            with pytest.raises(ShapeError):
                scheduler.feed(second, bad)
            assert scheduler.pending() == 1
        assert scheduler.stats.chunks == 1
        scheduler.feed(second, good)
        expected = decode_utterance(plan.forward_utterance(good), min_duration=2)
        assert scheduler.finish(first) == scheduler.finish(second) == expected

    def test_int8_scheduler_bitwise_matches_solo_session(self, rng_factory):
        # Batched scheduling must not perturb a session's hypothesis:
        # with int8 plans the logits are bitwise identical, so this holds
        # by construction — assert it end to end.
        plan, scheduler = self.make(scheme="int8", max_batch_size=3)
        rng = rng_factory(7)
        utterances = [rng.standard_normal((30, 8)) for _ in range(3)]
        solo = []
        for utterance in utterances:
            session = engine.StreamingSession(plan, min_duration=2)
            phones = []
            for start in range(0, 30, 6):
                phones += session.feed(utterance[start : start + 6])
            solo.append(phones + session.finish())
        sids = [scheduler.open() for _ in utterances]
        for start in range(0, 30, 6):
            for sid, utterance in zip(sids, utterances):
                scheduler.feed(sid, utterance[start : start + 6])
        got = [scheduler.finish(sid) for sid in sids]
        assert got == solo


# ---------------------------------------------------------------------------
# Whole utterances through the scheduler: the offline decode, per utterance
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def scheme_plans():
    return {
        scheme: engine.compile_model(tiny_model(), scheme=scheme)
        for scheme in engine.plan.SCHEMES
    }


@st.composite
def ragged_traffic(draw):
    lengths = draw(st.lists(st.integers(1, 60), min_size=1, max_size=12))
    return (
        lengths, draw(st.integers(1, 8)),
        draw(st.sampled_from([1, 2])), draw(st.integers(0, 2**16)),
    )


@pytest.mark.parametrize("scheme", engine.plan.SCHEMES)
@settings(max_examples=3, deadline=2000)
@given(case=ragged_traffic())
def test_whole_utterances_through_the_scheduler_decode_offline(
    scheme_plans, scheme, case
):
    # Each utterance fed as one chunk, nothing forced by the deadline:
    # equal lengths fuse, every hypothesis is the per-utterance decode.
    # One property per scheme, so every scheme is exercised on every run.
    lengths, max_batch_size, min_duration, seed = case
    plan, rng = scheme_plans[scheme], np.random.default_rng(seed)
    utterances = [rng.standard_normal((t, 8)) for t in lengths]
    scheduler = engine.StreamScheduler(
        plan,
        engine.StreamConfig(
            max_batch_size=max_batch_size,
            max_wait_frames=sum(lengths),
            min_duration=min_duration,
        ),
    )
    sids = [scheduler.open() for _ in utterances]
    for sid, utterance in zip(sids, utterances):
        scheduler.feed(sid, utterance)
    got = [scheduler.finish(sid) for sid in sids]
    expected = [
        decode_utterance(plan.forward_utterance(u), min_duration) for u in utterances
    ]
    assert got == expected


# ---------------------------------------------------------------------------
# Non-finite features: refused at every way in
# ---------------------------------------------------------------------------
class TestNonFiniteFeatures:
    """A NaN or Inf feature would quantize to different int8 codes on each
    kernel backend, so it is a typed error at every entry — plan, session,
    scheduler — before anything runs, queues or is journaled."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_plan_and_session_entries_refuse_it(self, backend, bad):
        plan = engine.compile_model(tiny_model(), scheme="int8")
        features = np.zeros((4, 2, 8))
        features[2, 1, 3] = bad
        session = engine.StreamingSession(plan)
        with kernels.use_backend(backend):
            for call in (plan.run_chunk, plan.forward_batch):
                with pytest.raises(ShapeError, match=r"non-finite feature at \(2, 1, 3\)"):
                    call(features)
            with pytest.raises(ShapeError, match=r"non-finite feature at \(2, 3\)"):
                session.feed(features[:, 1])
            assert session.frames_fed == 0
            session.feed(features[:, 0])  # the session goes on
            assert session.frames_fed == 4

    def test_one_bad_chunk_is_not_journaled_and_leaves_the_batch_alone(self, rng):
        from repro.engine.fabric import SessionJournal

        plan = engine.compile_model(tiny_model(), scheme="int8")
        utterances = rng.standard_normal((8, 30, 8))
        config = engine.StreamConfig(max_batch_size=8, max_wait_frames=1000, min_duration=2)

        def serve(poisoned):
            journal = SessionJournal()
            scheduler = engine.StreamScheduler(plan, config, journal=journal)
            sids = [scheduler.open() for _ in utterances]
            for start in range(0, 30, 10):
                for sid, utterance in zip(sids, utterances):
                    chunk = utterance[start : start + 10]
                    if poisoned and sid == 3 and start == 10:
                        bad = chunk.copy()
                        bad[4, 0] = np.nan
                        with pytest.raises(ShapeError, match="non-finite"):
                            scheduler.feed(sid, bad)
                        assert journal.frames(sid) == 10
                        assert scheduler.pending() == 3  # its seven batch-mates
                    scheduler.feed(sid, chunk)
            assert scheduler.stats.batches == 3  # full batches of eight
            return [scheduler.finish(sid) for sid in sids], journal

        clean, clean_journal = serve(False)
        got, journal = serve(True)
        assert got == clean
        for sid in range(len(utterances)):
            np.testing.assert_array_equal(
                np.concatenate(journal.chunks(sid)), utterances[sid]
            )


# ---------------------------------------------------------------------------
# Hot-swap: carrying live session state across a plan swap
# ---------------------------------------------------------------------------
class TestHotSwap:
    """`StreamScheduler.swap_plan` contract: a same-architecture swap
    carries every live session's recurrent state across the new plan and
    — when the candidate has identical weights — decodes byte-identical
    to never having swapped, for every scheme and cell type.  A
    mismatched architecture raises a typed
    :class:`~repro.errors.SwapError` *before* any session is touched."""

    def compile_pair(self, scheme, cell_type, seed=0):
        """Two independently compiled plans of the same weights."""
        return (
            engine.compile_model(tiny_model(cell_type, seed=seed), scheme=scheme),
            engine.compile_model(tiny_model(cell_type, seed=seed), scheme=scheme),
        )

    def run_split(self, incumbent, candidate, utterances, swap_at):
        """Feed ``swap_at`` frames on ``incumbent``, swap to
        ``candidate`` mid-utterance, feed the rest; return hypotheses."""
        scheduler = engine.StreamScheduler(
            incumbent,
            engine.StreamConfig(max_batch_size=4, max_wait_frames=0, min_duration=2),
        )
        sids = [scheduler.open() for _ in utterances]
        for sid, utterance in zip(sids, utterances):
            scheduler.feed(sid, utterance[:swap_at])
        old = scheduler.swap_plan(candidate)
        assert old is incumbent
        assert scheduler.plan is candidate
        for sid, utterance in zip(sids, utterances):
            scheduler.feed(sid, utterance[swap_at:])
        return [scheduler.finish(sid) for sid in sids], scheduler

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("cell_type", ["gru", "lstm"])
    def test_mid_utterance_swap_decodes_identically(
        self, scheme, cell_type, rng_factory
    ):
        incumbent, candidate = self.compile_pair(scheme, cell_type)
        rng = rng_factory(99)
        utterances = [rng.standard_normal((44, 8)) for _ in range(3)]
        uninterrupted = [
            decode_utterance(incumbent.forward_utterance(u), min_duration=2)
            for u in utterances
        ]
        swapped, scheduler = self.run_split(
            incumbent, candidate, utterances, swap_at=20
        )
        assert swapped == uninterrupted, (scheme, cell_type)
        assert scheduler.stats.plan_swaps == 1

    def test_architecture_mismatch_raises_and_preserves_sessions(
        self, rng_factory
    ):
        from repro.errors import SwapError

        incumbent = engine.compile_model(tiny_model())
        wrong = engine.compile_model(tiny_model(hidden=24))
        rng = rng_factory(5)
        utterance = rng.standard_normal((40, 8))
        scheduler = engine.StreamScheduler(
            incumbent,
            engine.StreamConfig(max_batch_size=2, max_wait_frames=0, min_duration=2),
        )
        sid = scheduler.open()
        scheduler.feed(sid, utterance[:20])
        with pytest.raises(SwapError, match="architecture mismatch"):
            scheduler.swap_plan(wrong)
        # The rejected swap touched nothing: the session continues on the
        # incumbent and still decodes exactly.
        assert scheduler.plan is incumbent
        assert scheduler.stats.plan_swaps == 0
        scheduler.feed(sid, utterance[20:])
        offline = decode_utterance(
            incumbent.forward_utterance(utterance), min_duration=2
        )
        assert scheduler.finish(sid) == offline

    @pytest.mark.parametrize(
        "incumbent_scheme,candidate_scheme",
        [("fp16", None), (None, "int8"), ("mixed", None), ("int8", "mixed")],
    )
    def test_swap_across_schemes_rejected(
        self, incumbent_scheme, candidate_scheme, rng_factory
    ):
        # Per-slot (scheme, format) is part of the signature: a candidate
        # on a different quantization grid must NOT inherit live state —
        # the carried trajectory was produced by different numerics, so
        # the swap raises a typed SwapError and touches nothing.
        from repro.errors import SwapError

        incumbent = engine.compile_model(tiny_model(), scheme=incumbent_scheme)
        candidate = engine.compile_model(tiny_model(), scheme=candidate_scheme)
        assert incumbent.signature() != candidate.signature()
        rng = rng_factory(11)
        utterance = rng.standard_normal((40, 8))
        scheduler = engine.StreamScheduler(
            incumbent,
            engine.StreamConfig(max_batch_size=2, max_wait_frames=0, min_duration=2),
        )
        sid = scheduler.open()
        scheduler.feed(sid, utterance[:20])
        with pytest.raises(SwapError, match="architecture mismatch"):
            scheduler.swap_plan(candidate)
        # The rejected swap left the session on the incumbent, still exact.
        assert scheduler.plan is incumbent
        assert scheduler.stats.plan_swaps == 0
        scheduler.feed(sid, utterance[20:])
        offline = decode_utterance(
            incumbent.forward_utterance(utterance), min_duration=2
        )
        assert scheduler.finish(sid) == offline

    def test_swap_across_formats_rejected(self, rng_factory):
        # Same weights, same scheme, different sparse packing: formats
        # are part of the lowered contract too.
        from repro.errors import SwapError

        incumbent = engine.compile_model(tiny_model(), scheme=None)
        candidate = engine.compile_model(
            tiny_model(),
            scheme=None,
            config=engine.EngineConfig(sparse_format="bspc"),
        )
        assert incumbent.signature() != candidate.signature()
        scheduler = engine.StreamScheduler(
            incumbent,
            engine.StreamConfig(max_batch_size=2, max_wait_frames=0, min_duration=2),
        )
        with pytest.raises(SwapError, match="architecture mismatch"):
            scheduler.swap_plan(candidate)

    def test_identity_swap_counts_but_changes_nothing(self, rng_factory):
        plan = engine.compile_model(tiny_model())
        rng = rng_factory(3)
        utterance = rng.standard_normal((30, 8))
        scheduler = engine.StreamScheduler(
            plan,
            engine.StreamConfig(max_batch_size=2, max_wait_frames=0, min_duration=2),
        )
        sid = scheduler.open()
        scheduler.feed(sid, utterance[:15])
        scheduler.swap_plan(plan)  # no-op swap is legal
        scheduler.feed(sid, utterance[15:])
        offline = decode_utterance(
            plan.forward_utterance(utterance), min_duration=2
        )
        assert scheduler.finish(sid) == offline
        assert scheduler.stats.plan_swaps == 1

    def test_adopt_installs_replayed_session(self, rng_factory):
        # The fabric's re-home path: reconstruct a session externally
        # (bare run_chunk + IncrementalDecoder), adopt it mid-stream,
        # and the continuation must decode exactly.
        plan = engine.compile_model(tiny_model(), scheme="int8")
        rng = rng_factory(21)
        utterance = rng.standard_normal((40, 8))
        state, decoder = None, IncrementalDecoder(min_duration=2)
        committed = []
        for start in range(0, 20, 10):
            logits, state = plan.run_chunk(
                utterance[start : start + 10][:, None, :], state
            )
            committed += decoder.push(logits[:, 0, :].argmax(axis=1))
        scheduler = engine.StreamScheduler(
            plan,
            engine.StreamConfig(max_batch_size=2, max_wait_frames=0, min_duration=2),
        )
        # committed=None: the already-delivered prefix is tracked by the
        # caller (the fabric), not re-queued for delivery.
        sid = scheduler.adopt(state, decoder, committed=None, frames=20)
        scheduler.feed(sid, utterance[20:])
        phones = committed + scheduler.poll(sid) + scheduler.finish(sid)
        offline = decode_utterance(
            plan.forward_utterance(utterance), min_duration=2
        )
        assert phones == offline

    def test_plan_signature_and_adapt_state(self):
        from repro.errors import ShapeError

        gru = engine.compile_model(tiny_model("gru"))
        lstm = engine.compile_model(tiny_model("lstm"))
        assert gru.signature() != lstm.signature()
        assert gru.signature() == engine.compile_model(tiny_model("gru")).signature()
        state = gru.init_state(2)
        with pytest.raises(ShapeError):
            lstm.adapt_state(state)  # GRU state lacks the cell component
        adapted = gru.adapt_state(state)
        assert len(adapted.layer_states) == len(state.layer_states)
