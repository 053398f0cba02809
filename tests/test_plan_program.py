"""The lowered int8 GRU program: one C call per ``run_chunk``.

``ModelPlan.program`` is the plan's ops as one flat descriptor that
``repro_plan_i8_chunk`` walks by *calling* the projection and layer-chunk
C entries, so everything here is an exactness test again: the generic loop
(the same plan with its program taken away) and the ``reference`` backend
are ground truth for logits and carry states, byte for byte.
"""

import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine, kernels
from repro.errors import ShapeError
from repro.kernels import compiled
from repro.pruning.bsp import BSPConfig, bsp_project_masks
from repro.sparse.blocks import BlockGrid
from repro.sparse.bspc import BSPCBlock, BSPCStrip
from repro.speech.model import AcousticModelConfig, GRUAcousticModel
from repro.utils.rng import new_rng
from test_int8_routing import bsp_int8_plan, bsp_matrix, requires_compiler, run_chunk


def bare_rnn_plan(hidden=(24, 24)):
    """BSP-pruned GRU layers of these widths and no output layer: logits
    are states."""
    rng, widths = new_rng(5), (8, *hidden)
    weights = {
        f"gru.cell{i}.weight_{side}": rng.standard_normal((3 * h, h if side == "hh" else widths[i]))
        for i, h in enumerate(hidden) for side in ("ih", "hh")
    }
    masks = bsp_project_masks(
        weights, BSPConfig(col_rate=4, row_rate=2, num_row_strips=4, num_col_blocks=4)
    )
    pruned = {name: masks[name].apply_to_array(w) for name, w in weights.items()}
    config = engine.EngineConfig(sparse_format="bspc", num_row_strips=4, num_col_blocks=4)
    return engine.compile_rnn(pruned, scheme="int8", config=config)


def make_plans():
    """The plans the properties below run, by name, lowered under routing."""
    with kernels.use_backend(None):
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


@pytest.fixture(scope="module")
def wide_plan():
    """Operands 5 and 100 wide, neither a multiple of 64, the 100-wide one
    gathered from one short 128-byte block; the neediest product, the dense
    5-column projection, stores its gathered codes up to the end of its
    scratch."""
    with kernels.use_backend(None):
        return bsp_int8_plan(hidden=100, sparse_format="auto", input_dim=5)


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
    with kernels.use_backend(None):
        got = stream(plan, chunks, state)
        if compiled.available():
            assert plan.program is not None  # re-bound, so lowered again
        assert got == stream(plan, chunks, state, lowered=False)
    with kernels.use_backend("reference"):
        assert got == stream(plan, chunks, state)
        assert plan.program is None  # an explicit choice re-binds, and drops it


def float32_valued(array):
    return array.dtype == np.float64 and np.array_equal(
        array.astype(np.float32).astype(np.float64), array
    )


@pytest.mark.parametrize("backend", [None, "numpy", "reference"])
def test_int8_gru_states_are_float32_values_on_every_route(plans, backend, rng):
    # an int8 GRU layer computes and carries float32: init_state and
    # run_chunk's carries are float32 (B, H) arrays, and the logits are the
    # float32 sums widened once
    x = rng.standard_normal((3, 5, 8))
    for plan in plans.values():
        assert all(layer.dtype == np.float32 for layer in plan.layers)
        assert all(
            layer.dtype == np.float32 and layer.shape == (5, h.hidden_size)
            for layer, h in zip(plan.init_state(5).layer_states, plan.layers)
        )
        carry = engine.PlanState(
            [rng.standard_normal((5, layer.hidden_size)) for layer in plan.layers]
        )
        with kernels.use_backend(backend):
            logits, state = plan.run_chunk(x, carry)
        for layer, h in zip(state.layer_states, plan.layers):
            assert layer.dtype == np.float32 and layer.shape == (5, h.hidden_size)
        assert float32_valued(logits)
    assert float32_valued(logits)  # the bare plan's logits are its states
    assert not float32_valued(carry.layer_states[0])  # ... and its input was not
    float_plan = dict(other_plans())["None"]
    assert float_plan.layers[0].dtype == np.float64
    assert not float32_valued(float_plan.run_chunk(x)[1].layer_states[0])


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
        with kernels.use_backend(None):
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

    def test_the_arena_is_sized_by_the_batch_not_the_chunk(self, rng):
        # tiles of ceil(8 / B) steps: what a chunk needs does not grow with T
        with kernels.use_backend(None):
            plan = bare_rnn_plan()  # a fresh program: nothing held yet
            x = rng.standard_normal((2000, 3, 8))
            plan.run_chunk(x[:1])
            made = plan.program.arena
            assert made.size == plan.program.arena_size(3)
            got = stream(plan, [x], None)
            assert plan.program.arena is made
            assert got == stream(plan, [x], None, lowered=False)
            wide = rng.standard_normal((6, 40, 8))
            got = stream(plan, [wide], None)
            assert plan.program.arena.size > made.size
            assert plan.program._arena_at == plan.program.arena.ctypes.data
            assert got == stream(plan, [wide], None, lowered=False)
            assert stream(plan, [x[:9]], None) == stream(plan, [x[:9]], None, lowered=False)

    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("steps", [1, 7, 25])
    def test_a_chunk_writes_nothing_past_the_arena_the_c_asks_for(
        self, plans, wide_plan, monkeypatch, batch, steps
    ):
        # The C lays the arena out and says how many bytes it takes
        # (repro_plan_i8_arena), and a product's work scratch is 8 *
        # program._work int32 (lane sums, then the gathered codes, which
        # the gather stores ld bytes a row of): buffers of exactly those
        # sizes, followed by guard bytes, keep their guard through chunks
        # of every tile shape.
        guard, fresh = 4096, []
        aligned = compiled._aligned

        def guarded(size):
            raw = aligned(size + guard)
            raw[size:] = 0xA5
            fresh.append((raw, size))
            return raw[:size]

        monkeypatch.setattr(compiled, "_aligned", guarded)
        with kernels.use_backend(None):
            for plan in (*plans.values(), wide_plan):
                x = new_rng(batch + steps).standard_normal((steps, batch, plan.input_dim))
                plan.program.arena = np.empty(0, dtype=np.uint8)  # taken afresh
                monkeypatch.setattr(compiled, "_SCRATCH", threading.local())  # ... and so is this
                state = plan.init_state(batch)
                for _ in range(2):  # from the zero carry, then from a carry
                    _, state = plan.run_chunk(x, state)
                sizes = {raw.ctypes.data: size for raw, size in fresh}
                assert sizes[plan.program.arena.ctypes.data] == plan.program.arena_size(batch)
                assert sizes[compiled._SCRATCH.work[1]] == 4 * 8 * plan.program._work
        assert all((raw[size:] == 0xA5).all() for raw, size in fresh)

    def test_results_never_alias_the_arena_or_each_other(self, plans, rng):
        plan = plans["bare"]  # its logits are copied out of the arena itself
        with kernels.use_backend(None):
            x = rng.standard_normal((5, 3, 8))
            logits, state = plan.run_chunk(x)
            kept = [logits.copy()] + [layer.copy() for layer in state.layer_states]
            assert plan.program.arena.size
            plan.program.arena[:] = 0xFF  # a NaN in every float
            again, again_state = plan.run_chunk(x)  # ... and running again
            results = [logits] + state.layer_states
            for got, want in zip(results, kept):
                assert got.tobytes() == want.tobytes()
            assert again.tobytes() == logits.tobytes() and again is not logits
            for a, b in zip(again_state.layer_states, state.layer_states):
                assert not np.shares_memory(a, b)
            assert not any(np.shares_memory(r, plan.program.arena) for r in results)

    def test_scratch_is_sized_for_the_neediest_op_not_the_last(self, plans, rng):
        # the output op (40 rows of 24 columns) needs the least scratch of
        # the five; a thread that has only ever run this plan must still
        # have room for its widest projection and recurrence
        plan, x = plans["bspc"], rng.standard_normal((9, 15, 8))
        with kernels.use_backend(None):
            want, got = plan.run_chunk(x)[0].tobytes(), []
            worker = threading.Thread(  # a fresh thread: a fresh, empty scratch
                target=lambda: got.append(plan.run_chunk(x)[0].tobytes())
            )
            worker.start()
            worker.join(timeout=60)
        assert got == [want]

        # what the product takes at 8 rows: lane sums and gathered codes (the
        # operand's codes are quantized into the arena, not the scratch)
        for layer in plan.layers:
            for weight in (layer.input_proj, layer.recurrent):
                panel = compiled._plan_panel(kernels.int8_bspc_plan(weight.matrix))
                assert plan.program._work >= panel.acc + (panel.sizes[2] + 1) // 2


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
    model = GRUAcousticModel(AcousticModelConfig(input_dim=8, hidden_size=24), rng=0).eval()
    yield "None", engine.compile_model(
        model, config=engine.EngineConfig(sparse_format="bspc")
    )
    yield "csr", engine.compile_model(
        model, scheme="int8", config=engine.EngineConfig(sparse_format="csr")
    )


def test_plans_without_a_descriptor_run_the_generic_loop(rng):
    x = rng.standard_normal((4, 3, 8))
    with kernels.use_backend(None):
        for name, plan in other_plans():
            assert plan.program is None, name
            first, state = plan.run_chunk(x[:1])
            rest, _ = plan.run_chunk(x[1:], state)
            whole = plan.forward_batch(x)
            if name == "csr":  # int8: chunk-exact to the byte
                assert np.concatenate([first, rest]).tobytes() == whole.tobytes()
            else:
                np.testing.assert_allclose(np.concatenate([first, rest]), whole, rtol=1e-5)


@requires_compiler
class TestStaleness:
    """The descriptor holds addresses into a weight's int8 plan: a plan
    invalidated between chunks is re-lowered, as the registry kernels
    re-resolve it per call."""

    @pytest.fixture()
    def plan(self):
        with kernels.use_backend(None):
            return bsp_int8_plan()

    def check(self, plan, x, state):
        with kernels.use_backend("reference"):
            want = stream(plan, [x], state)
        with kernels.use_backend(None):
            assert stream(plan, [x], state) == want
        return want

    def test_invalidate_plan_between_chunks_is_observed(self, plan, rng):
        x = rng.standard_normal((3, 2, 8))
        with kernels.use_backend(None):
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
        with kernels.use_backend(None):
            _, state = plan.run_chunk(x)
            before = self.check(plan, x, state)
            matrix = plan.layers[0].input_proj.matrix
            matrix.strips = [
                BSPCStrip(s.kept_rows, [BSPCBlock(b.kept_cols, 0.25 * b.panel) for b in s.blocks])
                for s in matrix.strips
            ]
            assert self.check(plan, x, state) != before

    def test_a_weight_repacked_to_another_shape_leaves_no_program(self, plan, rng):
        x = rng.standard_normal((3, 2, 8))
        matrix = plan.layers[1].input_proj.matrix
        matrix.grid = BlockGrid(72, 32, 4, 4)  # eight columns nothing reads
        with kernels.use_backend(None):
            with pytest.raises(ShapeError):
                plan.run_chunk(x)
            assert plan.program is None

    def test_rebinding_to_another_backend_drops_the_descriptor(self, plan, rng):
        x = rng.standard_normal((3, 2, 8))
        with kernels.use_backend(None):
            lowered, want = plan.program, stream(plan, [x], None)
        for backend in ("numpy", "reference"):
            with kernels.use_backend(backend):
                assert stream(plan, [x], None) == want
                assert plan.program is None
        with kernels.use_backend(None):
            assert stream(plan, [x], None) == want
            assert plan.program is not None and plan.program is not lowered
