"""The lowered int8 GRU program: one C call per ``run_chunk``.

``ModelPlan.program`` is the plan's ops as one flat descriptor that
``repro_plan_i8_chunk`` walks by *calling* the projection and layer-chunk
C entries, so everything here is an exactness test again: the generic loop
(the same plan with its program taken away) and the oracle (the generic
loop on :mod:`repro.kernels.reference`'s ops, :mod:`routes`) are ground
truth for logits and carry states, byte for byte.
"""

import ast
import os
import re
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import engine, kernels
from repro.errors import ShapeError
from repro.kernels import compiled
from repro.pruning.bsp import BSPConfig, bsp_project_masks
from repro.sparse.blocks import BlockGrid
from repro.sparse.bspc import BSPCBlock, BSPCStrip
from repro.speech.model import AcousticModelConfig, GRUAcousticModel
from repro.utils.rng import new_rng
from repro.utils.supervise import Child
from routes import ROUTES, bound_to_the_oracle, on_route, oracle
from test_int8_routing import bsp_int8_plan, bsp_matrix, requires_compiler, run_chunk


def bare_rnn_plan(hidden=(24, 24), col_rate=4):
    """BSP-pruned GRU layers of these widths and no output layer: logits
    are states."""
    rng, widths = new_rng(5), (8, *hidden)
    weights = {
        f"gru.cell{i}.weight_{side}": rng.standard_normal((3 * h, h if side == "hh" else widths[i]))
        for i, h in enumerate(hidden) for side in ("ih", "hh")
    }
    masks = bsp_project_masks(
        weights, BSPConfig(col_rate=col_rate, row_rate=2, num_row_strips=4, num_col_blocks=4)
    )
    pruned = {name: masks[name].apply_to_array(w) for name, w in weights.items()}
    config = engine.EngineConfig(sparse_format="bspc", num_row_strips=4, num_col_blocks=4)
    return engine.compile_rnn(pruned, scheme="int8", config=config)


def make_plans():
    """The plans the properties below run, by name."""
    return {
        "bspc": bsp_int8_plan(),
        "auto": bsp_int8_plan(sparse_format="auto"),
        "bare": bare_rnn_plan(),
        # layers of unequal widths: each layer's buffers at its own H
        "narrowing": bare_rnn_plan((24, 16)),
    }


@pytest.fixture(scope="module")
def plans():
    return make_plans()


def make_wide_plan():
    """Operands 5 and 100 wide, neither a multiple of 64, the 100-wide one
    gathered from one short 128-byte block; the neediest product, the dense
    5-column projection, stores its gathered codes up to the end of its
    scratch."""
    return bsp_int8_plan(hidden=100, sparse_format="auto", input_dim=5)


@pytest.fixture(scope="module")
def wide_plan():
    return make_wide_plan()


def make_wave_plans():
    """The five plan shapes wide enough for a one-row wavefront: H=512 (a
    narrowing 512 → 384, and a 500-wide one on a 5-wide input), pruned 2x
    by rows alone, so that a chunk of 6 to 8 steps has the estimated work
    of a two-core chunk and still fits the wavefront's ring
    (``compiled.WAVE_STEPS``)."""
    return {
        "bspc": bsp_int8_plan(hidden=512, col_rate=1),
        "auto": bsp_int8_plan(hidden=512, col_rate=1, sparse_format="auto"),
        "bare": bare_rnn_plan((512, 512), col_rate=1),
        "narrowing": bare_rnn_plan((512, 384), col_rate=1),
        "wide": bsp_int8_plan(hidden=500, col_rate=1, sparse_format="auto", input_dim=5),
    }


@pytest.fixture(scope="module")
def wave_plans():
    return make_wave_plans()


def stream(plan, chunks, state, lowered=True):
    """Per-chunk logits and the final carry, as bytes.  ``lowered=False``
    withholds the program from every chunk (:func:`run_chunk`): the
    generic loop."""
    parts = []
    for chunk in chunks:
        logits, state = run_chunk(plan, chunk, state, lowered)
        parts.append(logits)
    parts += state.layer_states
    return [part.tobytes() for part in parts]


@st.composite
def traffic(draw):
    # tiles are ceil(8 / B) steps: B = 1 crosses two tile boundaries at 20
    # frames, and 3, 5, 6, 7 leave a short 8-row block in every tile
    batch = draw(st.one_of(st.sampled_from([1, 3, 5, 6, 7]), st.integers(1, 40)))
    frames = draw(st.integers(1, 20))
    cuts = draw(st.lists(st.integers(0, frames), max_size=3))  # repeats: empty chunks
    return (
        draw(st.sampled_from(["bspc", "auto", "bare", "narrowing"])), batch, frames,
        sorted(cuts), draw(st.booleans()), draw(st.integers(0, 2**16)),
    )


@settings(max_examples=40, deadline=2000)
@given(case=traffic())
def test_any_split_equals_the_generic_loop_and_reference(plans, case):
    kind, batch, frames, cuts, carried, seed = case
    plan, rng = plans[kind], new_rng(seed)
    chunks = np.split(rng.standard_normal((frames, batch, 8)), cuts)
    state = None
    if carried:
        state = engine.PlanState(
            [rng.standard_normal((batch, layer.hidden_size)) for layer in plan.layers]
        )
    got = stream(plan, chunks, state)
    assert (plan.program is not None) == compiled.available()
    assert got == stream(plan, chunks, state, lowered=False)
    assert got == stream(oracle(plan), chunks, state)


def float32_valued(array):
    return array.dtype == np.float64 and np.array_equal(
        array.astype(np.float32).astype(np.float64), array
    )


@pytest.mark.parametrize("route", ROUTES)
def test_int8_gru_states_are_float32_values_on_every_route(plans, route, rng):
    # an int8 GRU layer computes and carries float32: init_state and
    # run_chunk's carries are float32 (B, H) arrays, and the logits are the
    # float32 sums widened once
    x = rng.standard_normal((3, 5, 8))
    for built in plans.values():
        plan = on_route(built, route)
        assert all(layer.dtype == np.float32 for layer in plan.layers)
        assert all(
            layer.dtype == np.float32 and layer.shape == (5, h.hidden_size)
            for layer, h in zip(plan.init_state(5).layer_states, plan.layers)
        )
        carry = engine.PlanState(
            [rng.standard_normal((5, layer.hidden_size)) for layer in plan.layers]
        )
        logits, state = plan.run_chunk(x, carry)
        for layer, h in zip(state.layer_states, plan.layers):
            assert layer.dtype == np.float32 and layer.shape == (5, h.hidden_size)
        assert float32_valued(logits)
    assert float32_valued(logits)  # the bare plan's logits are its states
    assert not float32_valued(carry.layer_states[0])  # ... and its input was not
    float_plan = dict(other_plans())["bspc"]
    assert float_plan.layers[0].dtype == np.float64
    assert not float32_valued(float_plan.run_chunk(x)[1].layer_states[0])


def cores():
    """How many threads a split chunk runs on here: 2 where the process
    may run on another CPU, else 1."""
    return min(len(os.sched_getaffinity(0)), 2) if hasattr(os, "sched_getaffinity") else 1


def split_steps(plan, batch):
    """The fewest steps at which a chunk of ``batch`` rows of ``plan``'s
    program is estimated to have the work of a split (``SPLIT_NS``)."""
    program = plan.program
    frame_ns = program._lib.repro_plan_i8_frame_ns(program._ops, len(program._ops))
    return -(-compiled.SPLIT_NS // (frame_ns * batch))


@contextmanager
def counted_threads():
    """How many threads each program chunk was run on inside the block."""
    lib, seen = compiled._library(), []
    entry = lib.repro_plan_i8_chunk
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lib, "repro_plan_i8_chunk", lambda *args: seen.append(entry(*args)) or seen[-1])
        yield seen


@pytest.fixture()
def chunk_threads():
    """How many threads each program chunk was run on while the test runs."""
    with counted_threads() as seen:
        yield seen


def guard_arenas(monkeypatch, guard=4096):
    """Every aligned buffer the kernels take from now on, as (raw, size):
    ``size`` bytes handed out, followed by ``guard`` bytes of 0xA5."""
    fresh, aligned = [], compiled._aligned

    def guarded(size):
        raw = aligned(size + guard)
        raw[size:] = 0xA5
        fresh.append((raw, size))
        return raw[:size]

    monkeypatch.setattr(compiled, "_aligned", guarded)
    return fresh


def scratch_bytes(program):
    """Bytes of the product's scratch, the last piece of each of the two
    one-row layouts the C lays side by side in a one-row arena (the
    wavefront helper's, then the one a row runs in on the caller, on the
    cache line after the first's): the arena's size is ``2 W + pad``, each
    layout ``W`` bytes — per tile of ``R`` rows the gate rows, gh, x's
    scales and codes and the staged logits, then per GRU two halves of
    scales, states and codes, each on a cache line, then the scratch — and
    ``pad`` rounds the first up to a line."""
    ops, line, rows = list(program._ops), 64, 8
    grus = [op.n for op in ops if op.kind == compiled.PLAN_GRU]
    width = ops[-1].rows if ops[-1].kind == compiled.PLAN_OUTPUT else 0
    pieces = [rows * 3 * max(grus) * 4, 3 * max(grus) * 4, rows * 8, rows * ops[0].n]
    pieces += [rows * width * 4] + [size for n in grus for _ in range(2) for size in (rows * 8, rows * n * 4, rows * n)]
    end = 0
    for size in pieces:
        end = -(-end // line) * line + size
    total = program.arena_size(1)
    (layout,) = [w for w in range(total // 2 - line, total // 2 + 1) if -(-w // line) * line + w == total]
    return layout - -(-end // line) * line


def neediest_scratch(plan):
    """Bytes of scratch the neediest of a BSPC plan's layer products takes
    at 8 rows: its sums, then its gathered codes, int32 (the output op, 40
    rows of 24 columns, needs less than any of them).  The sums take
    ``bspc_lda``'s room, ``panel.lda``: the lanes kernel's sums where the
    weight is packed for it, else a double per output row — every product
    on a build with ``compiled.lanes() == 0``."""
    needs = []
    for layer in plan.layers:
        for weight in (layer.input_proj, layer.recurrent):
            panel = compiled._plan_panel(kernels.int8_bspc_plan(weight.matrix))
            needs.append(4 * 8 * (panel.lda + (panel.sizes[2] + 1) // 2))
    return max(needs)


@pytest.fixture()
def c_calls(monkeypatch):
    """Every call into the C library, by entry name, while the test runs."""
    lib, seen = compiled._library(), []
    for name in re.findall(r"^API [^(]*?(\w+)\(", compiled._C_SOURCE, re.M):
        entry = getattr(lib, name)
        monkeypatch.setattr(
            lib, name, lambda *args, _e=entry, _n=name: (seen.append(_n), _e(*args))[1]
        )
    return seen


@requires_compiler
class TestOneCall:
    def test_a_non_empty_chunk_is_exactly_one_call_and_an_empty_one_none(self, plans, c_calls):
        for plan in plans.values():
            for batch in (1, 8, 15, 16, 17, 40):
                state = plan.init_state(batch) if batch % 2 else None
                del c_calls[:]
                _, state = plan.run_chunk(np.ones((4, batch, 8)), state)
                # the first chunk at a width also asks the C its arena's size
                assert c_calls in (
                    ["repro_plan_i8_chunk"], ["repro_plan_i8_arena", "repro_plan_i8_chunk"]
                )
                del c_calls[:]
                plan.forward_batch(np.ones((3, batch, 8)))
                assert c_calls == ["repro_plan_i8_chunk"]
            del c_calls[:]  # T = 0, B = 0: the state passes through
            logits, after = plan.run_chunk(np.zeros((0, 40, 8)), state)
            assert logits.shape[:2] == (0, 40)
            for a, b in zip(after.layer_states, state.layer_states):
                assert a.tobytes() == b.tobytes()
            logits, after = plan.run_chunk(np.zeros((5, 0, 8)))
            assert logits.shape[:2] == (5, 0)
            widths = [(0, layer.hidden_size) for layer in plan.layers]
            assert [layer.shape for layer in after.layer_states] == widths
            assert "repro_plan_i8_chunk" not in c_calls

    def test_a_session_chunk_and_a_scheduler_batch_are_one_call_each(self, plans, c_calls, rng):
        # the serving entry reads the queued chunks and the slab rows where
        # they sit: nothing but the one chunk entry (and the arena's size,
        # asked once per B) crosses into C
        for plan in plans.values():
            session = engine.StreamingSession(plan)
            scheduler = engine.StreamScheduler(
                plan, engine.StreamConfig(max_batch_size=3, max_wait_frames=100)
            )
            sids = [scheduler.open() for _ in range(3)]
            for round in (1, 2):
                del c_calls[:]
                session.feed(rng.standard_normal((5, 8)))
                for sid in sids:  # the third fills the batch
                    scheduler.feed(sid, rng.standard_normal((4, 8)))
                assert [c for c in c_calls if c != "repro_plan_i8_arena"] == [
                    "repro_plan_i8_chunk"
                ] * 2
                assert scheduler.stats.batches == round

    def test_the_arena_is_sized_by_the_batch_not_the_chunk(self, rng, monkeypatch):
        # tiles of ceil(8 / B) steps: what a chunk needs does not grow with T
        # (2000 steps of 3 rows: a chunk split across two cores, too)
        monkeypatch.setattr(compiled, "_SCRATCH", threading.local())  # nothing held yet
        plan = bare_rnn_plan()
        x = rng.standard_normal((2000, 3, 8))
        plan.run_chunk(x[:1])
        made = compiled._SCRATCH.arena[0]
        assert made.size == plan.program.arena_size(3)
        got = stream(plan, [x], None)
        assert compiled._SCRATCH.arena[0] is made
        assert got == stream(plan, [x], None, lowered=False)
        wide = rng.standard_normal((6, 40, 8))
        got = stream(plan, [wide], None)
        arena, at = compiled._SCRATCH.arena
        assert arena.size > made.size and at == arena.ctypes.data
        assert got == stream(plan, [wide], None, lowered=False)
        assert stream(plan, [x[:9]], None) == stream(plan, [x[:9]], None, lowered=False)

    @pytest.mark.parametrize(
        "steps, batch",
        [(t, b) for t in (1, 7, 25) for b in (1, 3, 8)]
        # split across two cores: one-row halves, an odd B, both halves > 8
        + [("split", 2), ("split", 3), ("split", 5), ("split", 40)]
        # a one-row wavefront, its ring full
        + [(compiled.WAVE_STEPS, "wave")],
    )
    def test_a_chunk_writes_nothing_past_the_arena_the_c_asks_for(
        self, plans, wide_plan, wave_plans, monkeypatch, chunk_threads, batch, steps
    ):
        # The C lays the arena out and says how many bytes it takes
        # (repro_plan_i8_arena): the tiles' buffers and, last, a product's
        # work scratch at 8 rows (lane sums, then the gathered codes, which
        # the gather stores ld bytes a row of), for the whole batch, for
        # each half of a split chunk and for each stage of a wavefront.  An
        # arena of exactly that size, followed by guard bytes, keeps its
        # guard through chunks of every tile shape, and the program takes no
        # other scratch.
        fresh = guard_arenas(monkeypatch)
        two = batch == "wave" or steps == "split"
        batch = 1 if batch == "wave" else batch
        for plan in wave_plans.values() if two and batch == 1 else (*plans.values(), wide_plan):
            t = split_steps(plan, batch) if steps == "split" else steps
            x = new_rng(batch + t).standard_normal((t, batch, plan.input_dim))
            monkeypatch.setattr(compiled, "_SCRATCH", threading.local())  # taken afresh
            state = plan.init_state(batch)
            for _ in range(2):  # from the zero carry, then from a carry
                _, state = plan.run_chunk(x, state)
            # the serving entry keeps no logits: each tile's stay in the arena
            chunks = [np.ascontiguousarray(x[:, b]) for b in range(batch)]
            plan._serve(chunks, state.layer_states, list(range(batch)))
            sizes = {raw.ctypes.data: size for raw, size in fresh}
            assert sizes[compiled._SCRATCH.arena[1]] == plan.program.arena_size(batch)
            assert not hasattr(compiled._SCRATCH, "work")
            if two:
                assert chunk_threads[-2:] == [cores()] * 2
        assert all((raw[size:] == 0xA5).all() for raw, size in fresh)

    def test_results_never_alias_the_arena_or_each_other(self, plans, rng):
        plan = plans["bare"]  # its logits are copied out of the arena itself
        x = rng.standard_normal((5, 3, 8))
        logits, state = plan.run_chunk(x)
        kept = [logits.copy()] + [layer.copy() for layer in state.layer_states]
        arena = compiled._SCRATCH.arena[0]
        assert arena.size
        arena[:] = 0xFF  # a NaN in every float
        again, again_state = plan.run_chunk(x)  # ... and running again
        results = [logits] + state.layer_states
        for got, want in zip(results, kept):
            assert got.tobytes() == want.tobytes()
        assert again.tobytes() == logits.tobytes() and again is not logits
        for a, b in zip(again_state.layer_states, state.layer_states):
            assert not np.shares_memory(a, b)
        assert not any(np.shares_memory(r, arena) for r in results)

    def test_scratch_is_sized_for_the_neediest_op_not_the_last(self, plans, rng):
        # the output op (40 rows of 24 columns) needs the least scratch of
        # the five; a thread that has only ever run this plan must still
        # have room for its widest projection and recurrence
        plan, x = plans["bspc"], rng.standard_normal((9, 15, 8))
        want, got = plan.run_chunk(x)[0].tobytes(), []
        worker = threading.Thread(  # a fresh thread: a fresh, empty arena
            target=lambda: got.append(plan.run_chunk(x)[0].tobytes())
        )
        worker.start()
        worker.join(timeout=60)
        assert got == [want]

        # the arena's scratch holds what the neediest product takes at 8
        # rows, exactly
        assert scratch_bytes(plan.program) == neediest_scratch(plan)


def split_bytes(plan, batch, steps, seed):
    """A chunk of ``steps`` x ``batch`` seeded frames from a seeded carry,
    then two more steps from its carry out, as bytes."""
    rng = new_rng(seed)
    state = engine.PlanState(
        [rng.standard_normal((batch, layer.hidden_size)) for layer in plan.layers]
    )
    x = rng.standard_normal((steps + 2, batch, plan.input_dim))
    return stream(plan, [x[:steps], x[steps:]], state)


#: (B, steps past the fewest at which a chunk splits): one-row halves at,
#: below and above the threshold, odd B, halves wider than a product's
#: eight rows, and B = 40.
SPLITS = [(2, -1), (2, 0), (2, 1), (3, 0), (13, 0), (40, 1)]


def served(plan, x, carry, row, lowered=True):
    """``plan._serve`` of one ``(T, D)`` chunk whose carries sit in row
    ``row`` of slabs of four rows, the others NaN: the labels, then each
    slab, as bytes.  The labels are the argmax of ``run_chunk``'s logits,
    and the row its carries."""
    capacity = 4
    slabs = []
    for layer, state in zip(plan.layers, carry):
        slab = np.full((capacity, layer.hidden_size), np.nan, np.float32)
        slab[row] = state
        slabs.append(slab)
    program = plan.program
    if not lowered:
        plan.program = None
    try:
        labels = plan._serve([x], slabs, [row])
    finally:
        plan.program = program
    logits, state = plan.run_chunk(x[:, None], engine.PlanState([c[None] for c in carry]))
    assert labels.tobytes() == logits.argmax(axis=2).tobytes()
    for slab, out in zip(slabs, state.layer_states):
        assert slab[row].tobytes() == out[0].tobytes()
        assert np.isnan(np.delete(slab, row, axis=0)).all()  # the free rows
    return [labels.tobytes()] + [slab.tobytes() for slab in slabs]


@st.composite
def wavefronts(draw):
    # a one-row chunk of 1 to WAVE_STEPS + 1 steps: below the work of a
    # two-core chunk, a wavefront of two or more blocks (an odd T ends on a
    # short one), and one step past what the ring holds
    return (
        draw(st.sampled_from(["bspc", "auto", "bare", "narrowing", "wide"])),
        draw(st.integers(1, compiled.WAVE_STEPS + 1)),
        draw(st.booleans()),  # a carried state, or zeros
        draw(st.sampled_from(["run", "serve"])),
        draw(st.integers(0, 2**16)),
    )


@requires_compiler
class TestTwoCores:
    """A chunk with the work of a split runs on two cores — its rows in two
    halves at B >= 2, its layers as a wavefront at B = 1 — the second run
    on the process's one helper thread, pinned to another CPU and joined
    before the call returns: the same bytes as one core, the generic loop
    and ``reference``."""

    @pytest.mark.parametrize("name", ["bspc", "auto", "bare", "narrowing", "wide"])
    def test_split_chunks_are_the_bytes_of_the_generic_loop_and_reference(
        self, plans, wide_plan, chunk_threads, name
    ):
        plan = wide_plan if name == "wide" else plans[name]
        for batch, past in SPLITS:
            steps = split_steps(plan, batch) + past
            rng = new_rng(steps)
            x = rng.standard_normal((steps, batch, plan.input_dim))
            carried = None if past else engine.PlanState(
                [rng.standard_normal((batch, layer.hidden_size)) for layer in plan.layers]
            )
            del chunk_threads[:]
            got = stream(plan, [x], carried)
            assert chunk_threads == [cores() if past >= 0 else 1]
            assert got == stream(plan, [x], carried, lowered=False)
            if not past:  # the generic loop is the oracle's bytes on every chunk
                assert got == stream(oracle(plan), [x], carried)

    @settings(max_examples=10, deadline=20000)
    @given(case=wavefronts())
    # the enumerated one-row cases: a step short of a two-core chunk (6 to
    # 8 steps here), at it and past it, the ring full, a step past it
    @example(case=("bspc", 5, True, "run", 0))
    @example(case=("bspc", 6, False, "run", 1))
    @example(case=("auto", 7, True, "serve", 2))
    @example(case=("bare", 16, True, "serve", 3))
    @example(case=("narrowing", 9, False, "run", 4))
    @example(case=("wide", 17, True, "run", 5))
    @example(case=("wide", 1, False, "serve", 6))
    def test_one_row_wavefronts_are_the_bytes_of_the_generic_loop_and_reference(
        self, wave_plans, case
    ):
        # the layers of a one-row chunk run as a wavefront, a block behind
        # each other: logits, carries and labels are the generic loop's and
        # reference's, and a serving call writes its own slab row, out of
        # order, and no other
        name, steps, carried, route, seed = case
        plan, row = wave_plans[name], seed % 4
        with counted_threads() as threads:
            two = split_steps(plan, 1) <= steps <= compiled.WAVE_STEPS
            rng = new_rng(seed)
            x = rng.standard_normal((steps, plan.input_dim))
            carry = [
                (rng.standard_normal(layer.hidden_size) if carried else np.zeros(layer.hidden_size))
                .astype(np.float32)
                for layer in plan.layers
            ]
            if route == "run":
                state = engine.PlanState([c[None] for c in carry])
                got = stream(plan, [x[:, None]], state)
                assert got == stream(plan, [x[:, None]], state, lowered=False)
            else:
                got = served(plan, x, carry, row)
                assert got == served(plan, x, carry, row, lowered=False)
            assert set(threads) == {cores() if two else 1}
        if route == "run":
            assert got == stream(oracle(plan), [x[:, None]], state)
        else:
            assert got == served(oracle(plan), x, carry, row)

    def test_one_resident_helper_runs_every_two_core_chunk_and_exits_when_idle(
        self, plans, wave_plans, c_calls, chunk_threads
    ):
        # one C call a chunk, and at most one OS thread besides the caller's
        # while two-core chunks keep coming: the helper the first one made.
        # Once chunks stop it exits, within the idle period and a margin.
        status = "/proc/self/status"
        if not os.path.exists(status):
            pytest.skip("no /proc: OS threads cannot be counted here")

        def threads():
            with open(status) as lines:
                return next(int(line.split()[1]) for line in lines if line.startswith("Threads:"))

        def settled(count):
            deadline = time.monotonic() + compiled.HELPER_IDLE_NS / 1e9 + 10
            while threads() != count and time.monotonic() < deadline:
                time.sleep(0.02)
            return threads()

        chunks = [  # wavefronts, then splits
            (plan, compiled.WAVE_STEPS, 1) for plan in wave_plans.values()
        ] + [(plan, None, batch) for plan in plans.values() for batch in (2, 17, 40)]
        plan, steps, batch = chunks[0]
        plan.run_chunk(np.ones((steps, batch, plan.input_dim)))  # the helper is there now
        alone = threads() - (cores() - 1)
        for plan, steps, batch in chunks:
            x = np.ones((steps or split_steps(plan, batch), batch, plan.input_dim))
            plan.run_chunk(x[:0])  # bound here, so lowered now
            plan.program.arena_size(batch)  # asked once per B
            del c_calls[:], chunk_threads[:]
            plan.run_chunk(x)
            assert c_calls == ["repro_plan_i8_chunk"]
            assert chunk_threads == [cores()]
            assert threads() == alone + cores() - 1
        assert settled(alone) == alone

    @pytest.mark.parametrize("name", ["bspc", "narrowing"])
    def test_a_batch_writes_its_own_slab_rows_and_no_other(self, plans, chunk_threads, name):
        # x rows from separate arrays, carries from slab rows out of order:
        # labels and carries are run_chunk's on the stacked chunk (and the
        # generic loop's), and the free rows keep their poisoned bytes
        plan = plans[name]
        for batch, past in SPLITS:
            steps = split_steps(plan, batch) + past
            rng = new_rng(batch + steps)
            chunks = [rng.standard_normal((steps, 8)) for _ in range(batch)]
            capacity = 2 * batch + 3
            rows = [int(r) for r in rng.permutation(capacity)[:batch]]
            slabs = []
            for layer in plan.layers:
                slab = np.full((capacity, layer.hidden_size), np.nan, np.float32)
                slab[rows] = rng.standard_normal((batch, layer.hidden_size))
                slabs.append(slab)
            kept = [slab.copy() for slab in slabs]
            logits, state = plan.run_chunk(
                np.stack(chunks, axis=1), engine.PlanState([slab[rows] for slab in slabs])
            )
            looped = [slab.copy() for slab in slabs]
            del chunk_threads[:]
            labels = plan._serve(chunks, slabs, rows)
            assert chunk_threads == [cores() if past >= 0 else 1]
            plan.program, program = None, plan.program  # the generic loop's
            try:
                assert plan._serve(chunks, looped, rows).tobytes() == labels.tobytes()
            finally:
                plan.program = program
            assert labels.tobytes() == logits.argmax(axis=2).tobytes()
            free = np.setdiff1d(np.arange(capacity), rows)
            for slab, loop, was, carry in zip(slabs, looped, kept, state.layer_states):
                assert slab[rows].tobytes() == carry.tobytes() == loop[rows].tobytes()
                assert slab[free].tobytes() == was[free].tobytes() == loop[free].tobytes()

    def test_two_python_threads_on_one_plan_give_the_sequential_bytes(self, plans):
        # each thread runs in an arena of its own (one arena per program
        # gave a few wrong chunks in every 300)
        plan, x = plans["bspc"], new_rng(4).standard_normal((25, 4, 8))
        want = plan.run_chunk(x)[0].tobytes()
        got = [[], []]

        def run(out):
            for _ in range(150):
                out.append(plan.run_chunk(x)[0].tobytes())

        workers = [threading.Thread(target=run, args=(out,)) for out in got]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert got == [[want] * 150] * 2

    def test_one_allowed_cpu_runs_every_chunk_whole_to_the_same_bytes(self, plans):
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no CPU affinity on this platform")
        cpu = min(os.sched_getaffinity(0))
        script = (
            "import os, sys\n"
            f"os.sched_setaffinity(0, {{{cpu}}})\n"
            "from repro.kernels import compiled\n"
            "from test_plan_program import make_plans, split_bytes, split_steps\n"
            "lib, threads = compiled._library(), []\n"
            "entry = lib.repro_plan_i8_chunk\n"
            "lib.repro_plan_i8_chunk = lambda *args: threads.append(entry(*args))\n"
            "plan = make_plans()['narrowing']\n"
            "got = split_bytes(plan, 5, split_steps(plan, 5), 2)\n"
            "sys.stdout.write(repr((got, threads)))\n"
        )
        here = Path(__file__).parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        got, threads = ast.literal_eval(done.stdout)
        assert threads == [1, 1]  # the split-sized chunk and the short one after it
        plan = plans["narrowing"]
        assert got == split_bytes(plan, 5, split_steps(plan, 5), 2)

    def test_a_child_forked_beside_a_live_helper_runs_two_core_chunks_of_its_own(
        self, plans, wave_plans, chunk_threads
    ):
        # the parent's helper is alive (it ran the chunks just now) when the
        # child is forked; the child has no helper of its own until its first
        # two-core chunk makes one: a one-row wavefront and a split batch
        cases = [(wave_plans["auto"], 1, compiled.WAVE_STEPS), (plans["auto"], 8, None)]
        want = [split_bytes(plan, batch, steps or split_steps(plan, batch), 3) for plan, batch, steps in cases]
        assert chunk_threads[::2] == [cores()] * 2
        child = Child(0, 0, _forked_two_cores, (cases,))
        try:
            assert child.recv(time.monotonic() + 120) == (want, [cores()] * 2)
        finally:
            child.close()


def _forked_two_cores(conn, index, fault, cases):
    lib = compiled._library()
    entry, threads = lib.repro_plan_i8_chunk, []
    lib.repro_plan_i8_chunk = lambda *args: threads.append(entry(*args)) or threads[-1]
    got = [split_bytes(plan, batch, steps or split_steps(plan, batch), 3) for plan, batch, steps in cases]
    conn.send((got, threads[::2]))


@requires_compiler
def test_the_narrow_kernel_refuses_more_columns_than_it_keeps_scales_for():
    # repro_bspc_i8_rows quantizes eight rows at a time, holding their
    # scales on its stack, into scratch sized for one such block
    panel = compiled._plan_panel(kernels.int8_bspc_plan(bsp_matrix()))
    compiled._narrow_call(panel, 64, 8)
    for batch in (9, 16):
        with pytest.raises(ShapeError):
            compiled._narrow_call(panel, 64, batch)


def other_plans():
    """Float plans: the only ones without a descriptor (every int8 plan
    lowers: ``test_artifact.py::test_every_int8_plan_lowers``)."""
    model = GRUAcousticModel(AcousticModelConfig(input_dim=8, hidden_size=24), rng=0).eval()
    for fmt in ("bspc", "csr"):
        yield fmt, engine.compile_model(model, config=engine.EngineConfig(sparse_format=fmt))


def test_plans_without_a_descriptor_run_the_generic_loop(rng):
    x = rng.standard_normal((4, 3, 8))
    for name, plan in other_plans():
        assert plan.program is None, name
        first, state = plan.run_chunk(x[:1])
        rest, _ = plan.run_chunk(x[1:], state)
        whole = plan.forward_batch(x)
        np.testing.assert_allclose(np.concatenate([first, rest]), whole, rtol=1e-5)


@requires_compiler
class TestStaleness:
    """The descriptor holds addresses into a weight's int8 plan: a plan
    invalidated between chunks is re-lowered, as the generic loop's
    kernels re-resolve it per call."""

    @pytest.fixture()
    def plan(self):
        return bsp_int8_plan()

    def check(self, plan, x, state):
        """The program's bytes: the oracle's on the same weights, and the
        generic loop's."""
        with bound_to_the_oracle(plan):
            want = stream(plan, [x], state, lowered=False)
        assert stream(plan, [x], state, lowered=False) == want
        assert stream(plan, [x], state) == want
        return want

    def test_invalidate_plan_between_chunks_is_observed(self, plan, rng):
        x = rng.standard_normal((3, 2, 8))
        _, state = plan.run_chunk(x)
        lowered = plan.program
        before = stream(plan, [x], state)
        assert plan.program is lowered  # nothing changed: nothing rebuilt
        matrix = plan.layers[1].recurrent.matrix
        matrix.strips[0].blocks[0].panel *= -0.5  # in place: unseen until ...
        assert stream(plan, [x], state) == before
        matrix.invalidate_plan()
        assert stream(plan, [x], state) != before
        assert plan.program is not None and plan.program is not lowered
        self.check(plan, x, state)

    def test_strips_reassignment_between_chunks_is_observed(self, plan, rng):
        x = rng.standard_normal((3, 2, 8))
        _, state = plan.run_chunk(x)
        before = self.check(plan, x, state)
        matrix = plan.layers[0].input_proj.matrix
        matrix.strips = [
            BSPCStrip(s.kept_rows, [BSPCBlock(b.kept_cols, 0.25 * b.panel) for b in s.blocks])
            for s in matrix.strips
        ]
        assert self.check(plan, x, state) != before

    def test_a_weight_repacked_to_another_shape_leaves_no_program(self, plan, rng):
        # the chain of widths no longer fits the program; the generic loop,
        # which reads kept columns only, runs the plan as the reference does
        x = rng.standard_normal((3, 2, 8))
        matrix = plan.layers[1].input_proj.matrix
        matrix.grid = BlockGrid(72, 32, 4, 4)  # eight columns nothing reads
        got, _ = plan.run_chunk(x)
        assert plan.program is None
        with bound_to_the_oracle(plan):
            want, _ = plan.run_chunk(x)
        assert got.tobytes() == want.tobytes()
