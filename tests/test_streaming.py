"""Tests for the streaming inference runtime.

The central contract — the *chunk-exactness sweep* — is that a streaming
session fed an utterance in arbitrary chunk splits produces byte-identical
phone sequences to the offline ``decode_utterance`` path, on every route
(:mod:`routes`: the program, the generic loop, the oracle) and both plan
schemes (``None`` and ``int8``).  Logits are
asserted too, as far as each scheme permits: **bit-exact** for int8
(per-frame activation scales + order-exact integer accumulation) and to
BLAS-reduction-order tolerance for float64.

Around the sweep: the streaming feature frontend's bit-exactness with the
offline featurizer, the incremental decoder's equivalence with
``smooth_labels``+``collapse_frames``, the state-carrying ``run_chunk``
API, and the deadline-batching stream scheduler.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import engine
from repro.engine.streaming import SLAB_GROWTH, SLAB_ROWS
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
from repro.utils.rng import new_rng
from routes import ROUTES, on_route
from test_int8_routing import LabelLog, run_chunk as run_plan_chunk

SCHEMES = (None, "int8")
CHUNK_SIZES = (1, 7, 25, None)  # None = the whole utterance in one chunk
# Carry widths: 24 is not a multiple of 16, so the int8 gate sweep's
# padded tail runs as well as its whole 16-wide rows.
HIDDEN_SIZES = (16, 24)


def tiny_model(input_dim=8, hidden=16, seed=0):
    config = AcousticModelConfig(input_dim=input_dim, hidden_size=hidden, num_layers=2)
    return GRUAcousticModel(config, rng=seed).eval()


def chunk_starts(total, size):
    return range(0, total, size)


# ---------------------------------------------------------------------------
# The chunk-exactness property sweep (the acceptance criterion)
# ---------------------------------------------------------------------------
class TestChunkExactnessSweep:
    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("hidden", HIDDEN_SIZES)
    def test_streaming_equals_offline(self, route, scheme, hidden, rng_factory):
        plan = engine.compile_model(tiny_model(hidden=hidden), scheme=scheme)
        plan = on_route(plan, route)
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
                assert phones == offline, (route, scheme, hidden, size)
                assert session.phones == offline
                # Logits: as exact as the scheme permits.
                chunked = np.concatenate(pieces)
                if scheme == "int8":
                    np.testing.assert_array_equal(chunked, offline_logits)
                else:
                    np.testing.assert_allclose(
                        chunked, offline_logits, atol=1e-9
                    )

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("fmt", ["csr", "bspc"])
    def test_int8_sparse_plans_bitwise_chunk_exact(self, fmt, route, rng_factory):
        # Per-column activation scales make even the sparse int8 spmm
        # paths bit-exact under chunking — and the integer accumulation
        # is reduction-order-free, so every route must reproduce the
        # oracle's offline logits bit for
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
        offline_logits = on_route(plan, "reference").forward_utterance(utterance)
        plan = on_route(plan, route)
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
        for a, b in zip(state.layer_states, state2.layer_states):
            np.testing.assert_array_equal(a, b)
            assert a is not b  # pass-through still never aliases

    def test_state_batch_mismatch_rejected(self, rng):
        plan = self.make_plan()
        _, state = plan.run_chunk(rng.standard_normal((5, 2, 8)))
        with pytest.raises(ShapeError):
            plan.run_chunk(rng.standard_normal((5, 3, 8)), state)
        with pytest.raises(ShapeError):  # one layer short
            plan.run_chunk(rng.standard_normal((5, 2, 8)), engine.PlanState(state.layer_states[:1]))

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

    def test_concatenated_carries_continue_each_stream(self, rng):
        # a batched carry is the sessions' rows, concatenated; row b of
        # what it returns is session b's carry, as a row slice
        plan = self.make_plan()
        _, s1 = plan.run_chunk(rng.standard_normal((4, 1, 8)))
        _, s2 = plan.run_chunk(rng.standard_normal((6, 1, 8)))
        stacked = engine.PlanState(
            [np.concatenate(rows) for rows in zip(s1.layer_states, s2.layer_states)]
        )
        assert stacked.batch_size == 2
        x = rng.standard_normal((3, 2, 8))
        logits, carry = plan.run_chunk(x, stacked)
        for b, solo in enumerate((s1, s2)):
            want, want_carry = plan.run_chunk(x[:, b : b + 1], solo)
            np.testing.assert_allclose(logits[:, b], want[:, 0], atol=1e-12)
            for got, row in zip(carry.layer_states, want_carry.layer_states):
                np.testing.assert_allclose(got[b : b + 1], row, atol=1e-12)

    @pytest.mark.parametrize("route", ROUTES)
    def test_batched_sessions_independent_of_cobatching(self, route, rng):
        # Row b of a batched run_chunk carries session b's stream as if
        # it ran alone.  The per-step recurrent GEMM's row count is the
        # batch size, so co-batching can shift its BLAS reduction order
        # by float epsilon — logits agree to ~1e-12 and labels exactly
        # (chunk *splits* at fixed batch are bitwise for int8; see the
        # sweep above).
        plan = on_route(engine.compile_model(tiny_model(), scheme="int8"), route)
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


class TestOneArrayCarry:
    """A layer's carry is one ``(B, H)`` array in the layer's dtype, for
    every scheme and weight format; ``adapt_state`` moves those arrays
    and rejects any other shape."""

    @staticmethod
    def make_plan(scheme=None, fmt=None):
        config = engine.EngineConfig(
            sparse_format=fmt, num_row_strips=4, num_col_blocks=4
        )
        return engine.compile_model(tiny_model(), scheme=scheme, config=config)

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("fmt", [None, "csr", "bspc"])
    def test_every_carry_is_one_array_per_layer(self, scheme, fmt, route, rng):
        plan = on_route(self.make_plan(scheme, fmt), route)
        zero = plan.init_state(3)
        _, carry = plan.run_chunk(rng.standard_normal((6, 3, 8)), zero)
        for state in (zero, carry):
            assert state.batch_size == 3
            assert len(state.layer_states) == len(plan.layers)
            for layer, hidden in zip(plan.layers, state.layer_states):
                assert type(hidden) is np.ndarray
                assert hidden.shape == (3, layer.hidden_size)
                assert hidden.dtype == layer.dtype
        assert not any(np.any(hidden) for hidden in zero.layer_states)
        for hidden in carry.layer_states:
            assert np.any(hidden) and np.abs(hidden).max() <= 1.0

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("batches", [(1,), (1, 2), (3, 1, 2)])
    def test_a_concatenated_carry_runs_each_row_as_its_own(self, batches, route, rng):
        # int8 rows are bitwise independent: a carry concatenated from
        # sessions' rows runs each row to the bytes it runs to alone, and
        # the plan writes into none of the rows it was handed
        plan = on_route(self.make_plan("int8"), route)
        states = [
            plan.run_chunk(rng.standard_normal((4, b, 8)))[1] for b in batches
        ]
        stacked = engine.PlanState(
            [np.concatenate(rows) for rows in zip(*(s.layer_states for s in states))]
        )
        assert stacked.batch_size == sum(batches)
        kept = [layer.copy() for layer in stacked.layer_states]
        x = rng.standard_normal((3, sum(batches), 8))
        logits, carry = plan.run_chunk(x, stacked)
        for b in range(sum(batches)):
            row = engine.PlanState([layer[b : b + 1] for layer in stacked.layer_states])
            want, want_carry = plan.run_chunk(x[:, b : b + 1], row)
            assert logits[:, b : b + 1].tobytes() == want.tobytes()
            for layer, got, one in zip(plan.layers, carry.layer_states, want_carry.layer_states):
                assert got.dtype == one.dtype == layer.dtype
                assert got[b : b + 1].tobytes() == one.tobytes()
        for layer, want in zip(stacked.layer_states, kept):
            assert layer.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "mangle",
        [
            pytest.param(lambda layers: layers[:1], id="layer-short"),
            pytest.param(lambda layers: layers + layers[:1], id="layer-extra"),
            pytest.param(lambda layers: [layers[0], layers[1][:, :8]], id="narrow"),
            pytest.param(lambda layers: [(h,) for h in layers], id="tuple-carry"),
            pytest.param(lambda layers: [h[0] for h in layers], id="no-batch-axis"),
        ],
    )
    def test_a_misshapen_carry_is_a_shape_error(self, mangle, rng):
        plan = self.make_plan()
        _, state = plan.run_chunk(rng.standard_normal((3, 2, 8)))
        bad = engine.PlanState(mangle(list(state.layer_states)))
        with pytest.raises(ShapeError):
            plan.adapt_state(bad)
        with pytest.raises(ShapeError):
            plan.run_chunk(rng.standard_normal((3, 2, 8)), bad)

    @pytest.mark.parametrize(
        "source, target", [(None, None), (None, "int8"), ("int8", None), ("int8", "int8")]
    )
    def test_adapt_state_recasts_each_layer_to_its_dtype(self, source, target, rng):
        incumbent, candidate = self.make_plan(source), self.make_plan(target)
        _, state = incumbent.run_chunk(rng.standard_normal((3, 2, 8)))
        adapted = candidate.adapt_state(state)
        for layer, before, after in zip(
            candidate.layers, state.layer_states, adapted.layer_states
        ):
            assert after.dtype == layer.dtype and after is not before
            np.testing.assert_array_equal(after, before.astype(layer.dtype))

    @pytest.mark.parametrize("scheme", ["int8"])
    @pytest.mark.parametrize("route", ROUTES)
    def test_a_float64_carry_runs_as_its_adapted_state(self, scheme, route, rng):
        # a float32 plan handed a float64 carry narrows it by adapt_state's
        # rule (astype) before the chunk: the same bytes out, a float32 carry
        plan = on_route(self.make_plan(scheme, "bspc"), route)
        x = rng.standard_normal((5, 3, 8))
        wide = engine.PlanState(
            [rng.standard_normal((3, layer.hidden_size)) for layer in plan.layers]
        )
        got, carry = plan.run_chunk(x, wide)
        want, want_carry = plan.run_chunk(x, plan.adapt_state(wide))
        assert got.tobytes() == want.tobytes()
        for layer, a, b in zip(plan.layers, carry.layer_states, want_carry.layer_states):
            assert a.dtype == b.dtype == layer.dtype == np.float32
            assert a.tobytes() == b.tobytes()


#: Same-architecture plans of one model under both schemes, BSPC-packed
#: (so int8 lowers to the one-call program where there is a compiler).
@pytest.fixture(scope="module")
def swap_plans():
    config = engine.EngineConfig(sparse_format="bspc", num_row_strips=4, num_col_blocks=4)
    return {
        scheme: engine.compile_model(tiny_model(), scheme=scheme, config=config)
        for scheme in (None, "int8")
    }


@st.composite
def scheme_swaps(draw):
    """An utterance's frame count, the plans it runs on in order (int8 to
    float and back, or float to int8 and back) and where it swaps."""
    order = draw(st.sampled_from([("int8", None, "int8"), (None, "int8", None)]))
    frames = draw(st.integers(3, 30))
    cuts = sorted(draw(st.lists(st.integers(1, frames - 1), min_size=2, max_size=2)))
    return order, frames, cuts, draw(st.integers(0, 2**16))


@settings(max_examples=20, deadline=4000)
@given(case=scheme_swaps())
def test_a_swap_across_schemes_is_the_defined_bytes(swap_plans, case):
    # The defined bytes: each segment through the generic loop, from the
    # carry before it cast to its plan by adapt_state.  As served, each
    # plan — int8 through its program — takes the carry as the plan before
    # left it (float32 out of int8, float64 out of a float plan)
    # and casts it by that rule itself.
    order, frames, cuts, seed = case
    features = new_rng(seed).standard_normal((frames, 1, 8))
    segments = np.split(features, cuts)

    def stream(served):
        state, logits = None, []
        for scheme, chunk in zip(order, segments):
            plan = swap_plans[scheme]
            if state is not None and not served:
                state = plan.adapt_state(state)
            out, state = run_plan_chunk(plan, chunk, state, lowered=served)
            logits.append(out)
        return np.concatenate(logits), state

    want, want_state = stream(served=False)
    got, state = stream(served=True)
    assert got.tobytes() == want.tobytes()
    for a, b in zip(state.layer_states, want_state.layer_states):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert decode_utterance(got[:, 0], min_duration=2) == decode_utterance(
        want[:, 0], min_duration=2
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
    def make(self, scheme=None, route="program", **config):
        plan = on_route(engine.compile_model(tiny_model(), scheme=scheme), route)
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

    @pytest.mark.parametrize("route", ROUTES)
    def test_int8_scheduler_bitwise_matches_solo_session(self, route, rng_factory):
        # Batched scheduling must not perturb a session's hypothesis:
        # with int8 plans the logits are bitwise identical, so this holds
        # by construction — assert it end to end.
        plan, scheduler = self.make(scheme="int8", route=route, max_batch_size=3)
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
# Carry slabs: rows claimed, released, reused; the slabs grow and stay bounded
# ---------------------------------------------------------------------------
@st.composite
def slab_traffic(draw):
    """More sessions live at once than a slab's first rows, then sessions
    opened while earlier ones finish: per session an utterance length and
    chunk size, and an interleaving of every session's open, chunks and
    finish: the first ``SLAB_ROWS + 1`` or more open before any finishes,
    the rest only once one has."""
    first = draw(st.integers(SLAB_ROWS + 1, SLAB_ROWS + 4))
    later = draw(st.integers(1, 6))
    sessions = [
        (draw(st.integers(1, 12)), draw(st.integers(1, 5))) for _ in range(first + later)
    ]
    picks = draw(st.lists(st.integers(0, 2**16), min_size=200, max_size=200))
    config = (draw(st.integers(1, 8)), draw(st.sampled_from([0, 3, 40])))
    return first, sessions, picks, config, draw(st.integers(0, 2**16))


@pytest.mark.parametrize("scheme", engine.plan.SCHEMES)
@settings(max_examples=8, deadline=None)
@given(case=slab_traffic())
def test_interleaved_sessions_reuse_rows_and_decode_offline(scheme_plans, scheme, case):
    first, sessions, picks, (max_batch_size, max_wait), seed = case
    plan, rng = scheme_plans[scheme], np.random.default_rng(seed)
    utterances = [rng.standard_normal((t, 8)) for t, _ in sessions]
    scheduler = engine.StreamScheduler(
        plan,
        engine.StreamConfig(
            max_batch_size=max_batch_size, max_wait_frames=max_wait, min_duration=2
        ),
    )
    # per session: the events still to come, as offsets into its utterance
    # (``None``: finish); a later session is opened when first picked
    todo = [list(range(0, t, size)) + [None] for t, size in sessions]
    sids = {i: scheduler.open() for i in range(first)}
    hyps = {i: [] for i in range(len(sessions))}
    assert scheduler.capacity > SLAB_ROWS
    live, waiting = list(range(first)), list(range(first, len(sessions)))
    released, reused = set(), 0
    picks = iter(picks * 8)
    while live or waiting:
        choices = live + waiting[:1] if released else live
        i = choices[next(picks) % len(choices)]
        if i not in sids:
            sids[i] = scheduler.open()
            row = scheduler._entries[sids[i]].row
            reused += row in released
            assert not any(slab[row].any() for slab in scheduler._slabs)
            live.append(waiting.pop(0))
            continue
        offset = todo[i].pop(0)
        if offset is None:
            row = scheduler._entries[sids[i]].row
            hyps[i] += scheduler.finish(sids[i])
            # released as the session left it: the zeros above are the claim's
            assert any(slab[row].any() for slab in scheduler._slabs)
            released.add(row)
            live.remove(i)
        else:
            scheduler.feed(sids[i], utterances[i][offset : offset + sessions[i][1]])
            hyps[i] += scheduler.poll(sids[i])
    assert scheduler.pending() == 0
    assert [hyps[i] for i in range(len(sessions))] == [
        decode_utterance(plan.forward_utterance(u), 2) for u in utterances
    ]
    assert reused  # a later session opened into a released row


@pytest.mark.parametrize("scheme", engine.plan.SCHEMES)
@pytest.mark.parametrize("window", [1, SLAB_ROWS + 3])
def test_slab_capacity_is_bounded_by_the_peak_of_live_sessions(
    scheme_plans, scheme, window, rng
):
    # 2000 sessions, at most ``window`` live at a time: each opened, fed
    # and finished in turn, the oldest first
    plan = scheme_plans[scheme]
    scheduler = engine.StreamScheduler(
        plan, engine.StreamConfig(max_batch_size=4, max_wait_frames=6)
    )
    features = rng.standard_normal((2, 8))
    live, peak = [], 0
    for _ in range(2000):
        sid = scheduler.open()
        scheduler.feed(sid, features)
        live.append(sid)
        peak = max(peak, len(live))
        if len(live) == window:
            scheduler.finish(live.pop(0))
    for sid in live:
        scheduler.finish(sid)
    assert peak == window
    assert scheduler.capacity <= max(SLAB_ROWS, SLAB_GROWTH * peak)
    assert scheduler.stats.sessions_finished == 2000


def tied_plan(scheme):
    """A BSPC plan whose odd classes repeat the even class before them,
    weights and bias: every logit has a twin, the first of which is the
    label."""
    model = tiny_model()
    for param in (model.output.weight.data, model.output.bias.data):
        pairs = len(param) // 2
        param[1 : 2 * pairs : 2] = param[0 : 2 * pairs : 2]
    config = engine.EngineConfig(sparse_format="bspc", num_row_strips=4, num_col_blocks=4)
    return engine.compile_model(model, scheme=scheme, config=config)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("scheme", engine.plan.SCHEMES)
def test_tied_logits_decode_to_the_first_maximum_on_every_entry(scheme, route, rng):
    # every logit has a twin, and the label must be the first of the two,
    # however the chunk's logits were made (float32 in an int8 plan, on
    # any route) and decoded
    plan = on_route(tied_plan(scheme), route)
    utterances = [rng.standard_normal((t, 8)) for t in (13, 13, 7)]
    want = [plan.run_chunk(u[:, None, :])[0][:, 0] for u in utterances]
    for logits in want:
        labels = logits.argmax(-1)
        assert (labels % 2 == 0).all()
        assert (logits[np.arange(len(labels)), labels + 1] == logits.max(-1)).all()
    want = [logits.argmax(-1).tolist() for logits in want]

    got = []
    for utterance in utterances:
        session = engine.StreamingSession(plan, min_duration=2)
        session._decoder = LabelLog(2)
        for start in range(0, len(utterance), 4):
            session.feed(utterance[start : start + 4])
        got.append(session._decoder.labels)
    assert got == want

    scheduler = engine.StreamScheduler(
        plan, engine.StreamConfig(max_batch_size=3, max_wait_frames=100)
    )
    decoders = [LabelLog(1) for _ in utterances]
    sids = [scheduler.adopt(None, decoder) for decoder in decoders]
    for start in range(0, 13, 4):
        for sid, utterance in zip(sids, utterances):
            if start < len(utterance):
                scheduler.feed(sid, utterance[start : start + 4])
    for sid in sids:
        scheduler.finish(sid)
    assert [decoder.labels for decoder in decoders] == want
    assert scheduler.stats.mean_batch_size > 1.0


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("scheme", engine.plan.SCHEMES)
def test_serving_labels_are_the_logits_argmax_on_every_route(scheme, route, rng):
    # the serving entry's labels (the program's own, on a program) are
    # argmax of the logits run_chunk makes from the same carries, the first
    # of two tied maxima included; the carries land in the slab rows named
    plan = on_route(tied_plan(scheme), route)
    chunks = [rng.standard_normal((9, 8)) for _ in range(3)]
    slabs = [
        rng.standard_normal((5, layer.hidden_size)).astype(layer.dtype)
        for layer in plan.layers
    ]
    rows = [3, 0, 4]
    carries = engine.PlanState([slab[rows] for slab in slabs])
    logits, state = plan.run_chunk(np.stack(chunks, axis=1), carries)
    labels = plan._serve(chunks, slabs, rows)
    want = logits.argmax(axis=2)
    assert labels.dtype == want.dtype and labels.tobytes() == want.tobytes()
    assert (labels % 2 == 0).all()
    for slab, carry in zip(slabs, state.layer_states):
        assert slab[rows].tobytes() == carry.tobytes()


class _ParentPump:
    """The oracle of the scheduler's batching: its policy as it stood when
    the pump rebuilt its length groups from every ready session on each
    run (``_groups``), over chunk lengths, submit clocks and tags alone.
    ``batches`` lists each batch's chunk tags in row order."""

    def __init__(self, max_batch_size: int, max_wait_frames: int) -> None:
        self.limit, self.wait = max_batch_size, max_wait_frames
        self.queues = {}  # sid -> deque of (length, submit clock, tag)
        self.ready = {}  # sessions with a queued chunk, insertion-ordered
        self.clock = 0
        self.batches = []

    def feed(self, sid, length, tag):
        self.clock += length
        self.queues.setdefault(sid, deque()).append((length, self.clock, tag))
        self.ready[sid] = None
        while self.run_ready(force=False):
            pass

    def finish(self, sid):
        while self.queues.get(sid):
            self.run_ready(force=True, only_sid=sid)

    def flush(self):
        while self.ready:
            self.run_ready(force=True)

    def groups(self, only_sid=None):
        groups = {}
        for sid in self.ready if only_sid is None else (only_sid,):
            groups.setdefault(self.queues[sid][0][0], []).append(sid)
        return groups

    def run_ready(self, force, only_sid=None):
        for _, sids in sorted(self.groups(only_sid).items()):
            full = len(sids) >= self.limit
            expired = any(self.clock - self.queues[sid][0][1] >= self.wait for sid in sids)
            if force or full or expired:
                sids = sorted(sids, key=lambda sid: self.queues[sid][0][1])[: self.limit]
                self.batches.append([self.queues[sid].popleft()[2] for sid in sids])
                for sid in sids:
                    if not self.queues[sid]:
                        del self.ready[sid]
                return True
        return False


class _BatchLog:
    """Stands in for a plan: records each batch's chunk tags (a chunk's
    first feature) in row order, then serves it."""

    def __init__(self, plan) -> None:
        self._plan = plan
        self.batches = []

    def _serve(self, chunks, slabs, rows):
        self.batches.append([int(chunk[0, 0]) for chunk in chunks])
        return self._plan._serve(chunks, slabs, rows)

    def __getattr__(self, name):
        return getattr(self._plan, name)


@st.composite
def pump_traffic(draw):
    """Interleaved feeds (session, length), finishes and flushes over up
    to six sessions, so that sessions queue several chunks, and the
    scheduler's two batching knobs."""
    events = st.one_of(
        st.tuples(st.just("feed"), st.integers(0, 5), st.integers(1, 4)),
        st.tuples(st.sampled_from(["finish", "flush"]), st.integers(0, 5), st.just(0)),
    )
    return (
        draw(st.lists(events, min_size=1, max_size=80)),
        draw(st.integers(1, 6)),
        draw(st.one_of(st.integers(0, 12), st.integers(13, 200))),
        draw(st.integers(0, 2**16)),
    )


@settings(max_examples=80, deadline=None)
@given(case=pump_traffic())
# session 0's second chunk joins the 5-frame group after session 1's, older
@example(case=([("feed", 0, 3), ("feed", 0, 5), ("feed", 1, 5), ("flush", 0, 0)], 4, 100, 0))
def test_the_pump_forms_the_batches_of_the_regrouping_policy(scheme_plans, case):
    events, max_batch_size, max_wait, seed = case
    log = _BatchLog(scheme_plans[None])
    scheduler = engine.StreamScheduler(
        log, engine.StreamConfig(max_batch_size=max_batch_size, max_wait_frames=max_wait)
    )
    oracle = _ParentPump(max_batch_size, max_wait)
    rng, sids, tag = np.random.default_rng(seed), {}, 0
    for kind, session, length in events:
        if kind == "flush":
            scheduler.flush()
            oracle.flush()
        elif kind == "finish":
            if session in sids:
                scheduler.finish(sids[session])
                oracle.finish(sids.pop(session))
        else:
            sid = sids.setdefault(session, None)
            if sid is None:
                sid = sids[session] = scheduler.open()
            chunk = rng.standard_normal((length, 8))
            chunk[0, 0] = tag
            scheduler.feed(sid, chunk)
            oracle.feed(sid, length, tag)
            tag += 1
        assert log.batches == oracle.batches
        assert scheduler.pending() == sum(len(q) for q in oracle.queues.values())
    for session in sorted(sids):
        scheduler.finish(sids[session])
        oracle.finish(sids[session])
    assert log.batches == oracle.batches
    assert scheduler.stats.batches == len(oracle.batches)
    assert sorted(t for batch in log.batches for t in batch) == list(range(tag))


# ---------------------------------------------------------------------------
# Non-finite features: refused at every way in
# ---------------------------------------------------------------------------
class TestNonFiniteFeatures:
    """A NaN or Inf feature would quantize to different int8 codes on each
    route, so it is a typed error at every entry — plan, session,
    scheduler — before anything runs, queues or is journaled."""

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_plan_and_session_entries_refuse_it(self, route, bad):
        plan = on_route(engine.compile_model(tiny_model(), scheme="int8"), route)
        features = np.zeros((4, 2, 8))
        features[2, 1, 3] = bad
        session = engine.StreamingSession(plan)
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
    to never having swapped, for every scheme.  A
    mismatched architecture raises a typed
    :class:`~repro.errors.SwapError` *before* any session is touched."""

    def compile_pair(self, scheme, seed=0, hidden=16):
        """Two independently compiled plans of the same weights."""
        return (
            engine.compile_model(tiny_model(hidden=hidden, seed=seed), scheme=scheme),
            engine.compile_model(tiny_model(hidden=hidden, seed=seed), scheme=scheme),
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

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("hidden", HIDDEN_SIZES)
    def test_mid_utterance_swap_decodes_identically(self, scheme, hidden, route, rng_factory):
        # the candidate runs ``route``: a swap between routes of the same
        # weights is no swap at all
        incumbent, candidate = self.compile_pair(scheme, hidden=hidden)
        candidate = on_route(candidate, route)
        rng = rng_factory(99)
        utterances = [rng.standard_normal((44, 8)) for _ in range(3)]
        uninterrupted = [
            decode_utterance(incumbent.forward_utterance(u), min_duration=2)
            for u in utterances
        ]
        swapped, scheduler = self.run_split(
            incumbent, candidate, utterances, swap_at=20
        )
        assert swapped == uninterrupted, (scheme, hidden)
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
        [(None, "int8"), ("int8", None)],
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

    def test_adopt_takes_one_sessions_state(self):
        # a carry slab row holds one session: a batched state is refused
        # before any row is claimed
        plan = engine.compile_model(tiny_model(), scheme="int8")
        scheduler = engine.StreamScheduler(plan)
        with pytest.raises(ShapeError):
            scheduler.adopt(plan.init_state(2))
        assert scheduler.stats.sessions_opened == 0
        assert len(scheduler._free) == scheduler.capacity

    def test_plan_signature_and_adapt_state(self):
        from repro.errors import ShapeError

        plan = engine.compile_model(tiny_model())
        wider = engine.compile_model(tiny_model(hidden=24))
        assert plan.signature() != wider.signature()
        assert plan.signature() == engine.compile_model(tiny_model()).signature()
        state = plan.init_state(2)
        with pytest.raises(ShapeError):
            wider.adapt_state(state)  # 16-wide states, 24-wide layers
        with pytest.raises(ShapeError):
            plan.adapt_state(engine.PlanState(state.layer_states[:1]))  # one layer short
        adapted = plan.adapt_state(state)
        assert len(adapted.layer_states) == len(state.layer_states)
