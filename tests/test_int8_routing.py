"""Default per-op routing and the narrow-batch integer BSPC kernels.

When no backend was chosen explicitly the registry routes each op to the
backend recorded as winning it — compiled C for the sparse int8 ops (on
hosts with a compiler), numpy/BLAS for everything else — and the engine
binds exactly that choice into a plan at lowering.  None of it may change
a result bit, so everything here is an *exactness* test: the ``reference``
backend is ground truth and every route, activation layout, batch width,
chunk split and numeric edge must reproduce its int8 results bit for bit.
"""

import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine, kernels
from repro.kernels import compiled, quantized
from repro.kernels.quantized import F32_EXACT_INNER, int8_bspc_plan
from repro.kernels.registry import KernelRegistry
from repro.pruning.bsp import BSPConfig, bsp_project_masks
from repro.sparse.blocks import BlockGrid, grid_for
from repro.sparse.bspc import BSPCMatrix
from repro.speech.model import AcousticModelConfig, GRUAcousticModel
from repro.utils.rng import new_rng

requires_compiler = pytest.mark.skipif(
    not compiled.available(), reason="no working C compiler on this host"
)

#: ``None`` is "no backend chosen": the per-op routing default callers get.
ROUTES = (None,) + tuple(kernels.backends())
SPARSE_INT8_OPS = ("csr_spmv_int8", "csr_spmm_int8", "bspc_spmv_int8", "bspc_spmm_int8")


def bsp_matrix(seed=0, shape=(48, 64), strips=4, blocks=4):
    w = new_rng(seed).standard_normal(shape)
    masks = bsp_project_masks(
        {"w": w},
        BSPConfig(col_rate=4, row_rate=2, num_row_strips=strips, num_col_blocks=blocks),
    )
    pruned = masks["w"].apply_to_array(w)
    return BSPCMatrix.from_dense(pruned, grid_for(pruned, strips, blocks))


def full_matrix(weight, strips=1):
    """Every entry kept: ``strips`` strips of one block, ``mc = cols``."""
    return BSPCMatrix.from_dense(weight, grid_for(weight, strips, 1))


def bsp_int8_plan(cell_type="gru", hidden=24, seed=0):
    config = AcousticModelConfig(
        input_dim=8, hidden_size=hidden, num_layers=2, cell_type=cell_type
    )
    model = GRUAcousticModel(config, rng=seed).eval()
    masks = bsp_project_masks(
        model.prunable_weights(),
        BSPConfig(col_rate=4, row_rate=2, num_row_strips=4, num_col_blocks=4),
    )
    for name, param in model.prunable_parameters().items():
        param.data[...] = masks[name].apply_to_array(param.data)
    return engine.compile_model(
        model,
        scheme="int8",
        config=engine.EngineConfig(
            sparse_format="bspc", num_row_strips=4, num_col_blocks=4
        ),
    )


def sparse_weights(plan):
    return [w for w in plan._weights if w.matrix is not None]


# ---------------------------------------------------------------------------
# The registry's per-op routing
# ---------------------------------------------------------------------------
class TestRouting:
    def make(self):
        target = KernelRegistry()
        target.register("op", "numpy", lambda: "numpy")
        target.register("op", "fast", lambda: "fast")
        target.register("other", "numpy", lambda: "numpy")
        return target

    def test_routed_op_goes_to_its_backend_others_to_numpy(self):
        target = self.make()
        target.route("op", "fast")
        assert target.get("op")() == "fast"
        assert target.get("other")() == "numpy"
        assert target.chosen_backend is None
        assert target.default_backend == "numpy"

    def test_route_to_a_backend_that_did_not_register_falls_back(self):
        target = self.make()
        target.route("other", "fast")  # "fast" never registered "other"
        target.route("op", "absent")
        assert target.get("other")() == "numpy"
        assert target.get("op")() == "numpy"

    def test_explicit_choice_overrides_every_route(self):
        target = self.make()
        target.route("op", "fast")
        assert target.get("op", "numpy")() == "numpy"  # per call
        with target.use_backend("numpy"):  # lexical
            assert target.get("op")() == "numpy"
            assert target.chosen_backend == "numpy"
            with target.use_backend(None):  # and withdrawn again
                assert target.get("op")() == "fast"
            assert target.get("op")() == "numpy"
        assert target.get("op")() == "fast"
        target.set_default_backend("numpy")  # global
        assert target.get("op")() == "numpy"

    def test_process_registry_routes_sparse_int8_to_compiled(self):
        with kernels.use_backend(None):
            for op in SPARSE_INT8_OPS:
                winner = "compiled" if compiled.available() else "numpy"
                assert kernels.registry.get(op) is kernels.registry.get(op, winner)
            # ... and nothing else: dense int8, float sparse and the fused
            # sequences stay on numpy + BLAS.
            for op in kernels.registry.ops():
                if op not in SPARSE_INT8_OPS:
                    assert kernels.registry.get(op) is kernels.registry.get(op, "numpy")
            assert kernels.get_default_backend() == "numpy"

    def test_compiled_aliases_the_ops_it_never_won(self):
        # Under an explicit "compiled" choice these still dispatch — to
        # the numpy implementations.
        if not compiled.available():
            pytest.skip("no working C compiler on this host")
        for op in ("linear_int8", "linear_int8_rowwise", "gru_sequence",
                   "lstm_sequence", "gru_sequence_grad", "lstm_sequence_grad"):
            assert kernels.registry.get(op, "compiled") is kernels.registry.get(op, "numpy")


# ---------------------------------------------------------------------------
# Kernels bound into a plan at lowering
# ---------------------------------------------------------------------------
class TestBoundPlan:
    def test_default_lowering_binds_the_routed_kernels(self):
        with kernels.use_backend(None):
            plan = bsp_int8_plan()
            winner = "compiled" if compiled.available() else "numpy"
            sparse = sparse_weights(plan)
            assert sparse
            for weight in sparse:
                assert weight.op == "bspc_spmm_int8"
                assert weight.kernel is kernels.registry.get(weight.op, winner)
            assert plan.output.weight.kernel is quantized.linear_int8_rowwise

    def test_explicit_backend_rebinds_and_routing_returns(self, rng):
        features = rng.standard_normal((6, 3, 8))
        with kernels.use_backend(None):
            plan = bsp_int8_plan()
            routed = [w.kernel for w in sparse_weights(plan)]
            expected = plan.forward_batch(features)
            for backend in kernels.backends():
                with kernels.use_backend(backend):
                    np.testing.assert_array_equal(plan.forward_batch(features), expected)
                    for weight in sparse_weights(plan):
                        assert weight.kernel is kernels.registry.get(weight.op, backend)
            plan.forward_batch(features)
            assert [w.kernel for w in sparse_weights(plan)] == routed

    def test_tuned_plan_backend_wins_over_the_ambient_choice(self, rng):
        plan = bsp_int8_plan()
        plan.backend = "reference"
        with kernels.use_backend("numpy"):
            plan.forward_batch(rng.standard_normal((2, 1, 8)))
        for weight in sparse_weights(plan):
            assert weight.kernel is kernels.registry.get(weight.op, "reference")

    def test_compiler_hidden_host_is_bit_identical_and_silent(self, tmp_path):
        # The same plan lowered in a process that cannot build the C
        # kernels: numpy serves every op, no warning, same logits.
        script = (
            "import sys, numpy as np\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_int8_routing import bsp_int8_plan, probe_features\n"
            "from repro import kernels\n"
            "assert kernels.backends() == ('numpy', 'reference'), kernels.backends()\n"
            "logits = bsp_int8_plan().forward_batch(probe_features())\n"
            "sys.stdout.buffer.write(logits.tobytes())\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "REPRO_KERNEL_BACKEND"}
        env["REPRO_CC"] = "/nonexistent"
        env["REPRO_COMPILED_CACHE"] = str(tmp_path / "cold")
        src = Path(engine.__file__).resolve().parents[2]
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", script, str(Path(__file__).parent)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
        )
        assert done.returncode == 0, done.stderr.decode()
        assert not done.stderr, done.stderr.decode()
        with kernels.use_backend(None):
            expected = bsp_int8_plan().forward_batch(probe_features())
        assert done.stdout == expected.tobytes()


def probe_features():
    return new_rng(11).standard_normal((9, 3, 8))


# ---------------------------------------------------------------------------
# Chunk splits x co-batching x routes x cells (the property)
# ---------------------------------------------------------------------------
@st.composite
def traffic(draw):
    """A batch of equally long utterances, a chunk split of their frames,
    and per chunk a partition of the sessions into co-batched groups —
    batch widths 1-17 and ``T * B`` on both sides of the 16-column
    boundary between the narrow and the tile stamps."""
    sessions = draw(st.integers(1, 17))
    frames = draw(st.integers(1, 12))
    cuts = sorted(draw(st.sets(st.integers(1, frames - 1)))) if frames > 1 else []
    chunks = list(zip([0] + cuts, cuts + [frames]))
    groupings = []
    for _ in chunks:
        order = draw(st.permutations(range(sessions)))
        sizes, left = [], sessions
        while left:
            sizes.append(draw(st.integers(1, left)))
            left -= sizes[-1]
        groups, at = [], 0
        for size in sizes:
            groups.append(list(order[at : at + size]))
            at += size
        groupings.append(groups)
    return sessions, frames, chunks, groupings, draw(st.integers(0, 2**16))


@pytest.fixture(scope="module")
def property_plans():
    return {cell: bsp_int8_plan(cell) for cell in ("gru", "lstm")}


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("cell_type", ["gru", "lstm"])
@settings(max_examples=12, deadline=None)
@given(case=traffic())
def test_any_split_and_cobatching_equals_reference_offline(
    property_plans, route, cell_type, case
):
    sessions, frames, chunks, groupings, seed = case
    plan = property_plans[cell_type]
    utterances = new_rng(seed).standard_normal((sessions, frames, 8))
    with kernels.use_backend("reference"):
        offline = [plan.forward_utterance(u) for u in utterances]
    states = plan.init_state(sessions).split()
    pieces = [[] for _ in range(sessions)]
    with kernels.use_backend(route):
        for (start, stop), groups in zip(chunks, groupings):
            for group in groups:
                chunk = utterances[group, start:stop].transpose(1, 0, 2)
                logits, carry = plan.run_chunk(
                    chunk, engine.PlanState.stack([states[s] for s in group])
                )
                for column, (session, state) in enumerate(zip(group, carry.split())):
                    states[session] = state
                    pieces[session].append(logits[:, column])
    for session in range(sessions):
        np.testing.assert_array_equal(np.concatenate(pieces[session]), offline[session])


# ---------------------------------------------------------------------------
# Activation layout: C order and batch-major (F order) are the same bits
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("batch", [1, 2, 3, 4, 5, 8, 15, 16, 17, 33])
def test_c_and_f_ordered_activations_are_bit_identical(route, batch):
    matrix = bsp_matrix()
    x = new_rng(batch).standard_normal((64, batch))
    expected = kernels.spmm_int8(matrix, x, backend="reference")
    with kernels.use_backend(route):
        for operand in (x, np.asfortranarray(x), x[::1, ::-1][:, ::-1]):
            np.testing.assert_array_equal(kernels.spmm_int8(matrix, operand), expected)
        # a strided slice of a wider batch is neither order
        wide = new_rng(batch).standard_normal((64, 2 * batch))
        np.testing.assert_array_equal(
            kernels.spmm_int8(matrix, wide[:, ::2]),
            kernels.spmm_int8(matrix, wide[:, ::2].copy(), backend="reference"),
        )


@pytest.mark.parametrize("route", ROUTES)
def test_csr_int8_products_equal_reference_at_every_width(route):
    # one column runs the compiled spmv loop with the spmm dequant order
    from repro.sparse.csr import CSRMatrix

    matrix = CSRMatrix.from_dense(bsp_matrix().to_dense())
    for batch in (1, 2, 5, 16):
        x = new_rng(batch).standard_normal((64, batch))
        x[:, 0] *= 1e-3  # scales differ per column
        with kernels.use_backend(route):
            np.testing.assert_array_equal(
                kernels.spmm_int8(matrix, x),
                kernels.spmm_int8(matrix, x, backend="reference"),
            )
            np.testing.assert_array_equal(
                kernels.spmv_int8(matrix, x[:, 0]),
                kernels.spmv_int8(matrix, x[:, 0], backend="reference"),
            )


@requires_compiler
def test_compiled_int8_ops_reject_a_mis_sized_operand():
    # numpy's gathers raise on a short operand; the C loops would read
    # past it, and default routing sends every caller to them.
    from repro.errors import ShapeError
    from repro.sparse.csr import CSRMatrix

    bspc = bsp_matrix()
    for matrix in (bspc, CSRMatrix.from_dense(bspc.to_dense())):
        for rows in (63, 65):
            with pytest.raises(ShapeError):
                kernels.spmv_int8(matrix, np.ones(rows), backend="compiled")
            for batch in (1, 3, 16):
                with pytest.raises(ShapeError):
                    kernels.spmm_int8(matrix, np.ones((rows, batch)), backend="compiled")


@requires_compiler
def test_narrow_batches_answer_batch_major():
    # The engine's contract: hand over the transpose view of a row-major
    # (B, n) state, get back the transpose view of a row-major (B, rows).
    matrix = bsp_matrix()
    state = new_rng(0).standard_normal((5, 64))
    out = kernels.spmm_int8(matrix, state.T, backend="compiled")
    assert out.shape == (48, 5) and out.T.flags.c_contiguous


# ---------------------------------------------------------------------------
# Numeric edges (every backend, bitwise against the reference loops)
# ---------------------------------------------------------------------------
def assert_int8_products_equal_reference(matrix, x):
    """``x`` is ``(n, B)``: spmm on all of it, spmv on each column."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # reference on non-finite
        expected = kernels.spmm_int8(matrix, x, backend="reference")
        columns = [kernels.spmv_int8(matrix, c, backend="reference") for c in x.T]
        for route in ROUTES:
            with kernels.use_backend(route):
                np.testing.assert_array_equal(kernels.spmm_int8(matrix, x), expected)
                for column, want in zip(x.T, columns):
                    np.testing.assert_array_equal(kernels.spmv_int8(matrix, column), want)


BATCHES = (1, 5, 16, 19)  # one row, a register block and a tail, a tile, a tile and a tail


class TestNumericEdges:
    @pytest.mark.parametrize("batch", BATCHES)
    def test_zero_activations_take_scale_one(self, batch):
        matrix = bsp_matrix()
        x = new_rng(1).standard_normal((64, batch))
        x[:, 0] = 0.0
        assert_int8_products_equal_reference(matrix, x)
        for route in ROUTES:
            with kernels.use_backend(route):
                out = kernels.spmm_int8(matrix, x)
                assert not out[:, 0].any() and not np.signbit(out[:, 0]).any()

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("magnitude", [1e-300, 1e-310, 4e-322])
    def test_tiny_and_denormal_activations(self, batch, magnitude):
        # below 1e-250 the reciprocal-multiply quantizer must hand over to
        # a true divide; 4e-322 / 127 is still a nonzero (denormal) scale.
        matrix = bsp_matrix()
        x = new_rng(2).uniform(-1.0, 1.0, (64, batch)) * magnitude
        x[:, -1] = new_rng(3).standard_normal(64)  # next to an ordinary frame
        assert_int8_products_equal_reference(matrix, x)

    @pytest.mark.parametrize("total", [F32_EXACT_INNER - 1, F32_EXACT_INNER, F32_EXACT_INNER + 1])
    def test_row_reduction_at_the_f32_exactness_bound(self, total):
        # strips * mc on both sides of the bound that picks the float32
        # accumulator, with every product at its extreme 127 * 127.
        strips = next(s for s in (3, 4, 5) if total % s == 0)
        weight = np.ones((2 * strips, total // strips))
        matrix = full_matrix(weight, strips)
        plan = int8_bspc_plan(matrix)
        assert plan.base.panels.shape[0] * plan.base.panels.shape[2] == total
        for batch in BATCHES:
            x = np.ones((weight.shape[1], batch))
            x[::2, ::2] = -1.0
            assert_int8_products_equal_reference(matrix, x)

    @pytest.mark.parametrize("cols", [F32_EXACT_INNER + 1, 140_000])
    def test_inner_extents_past_the_float32_and_int32_bounds(self, cols):
        # 127 * 127 * 140 000 > 2**31: a single int32 accumulator wraps,
        # so the narrow stamps must flush partial sums on the way.
        assert 127 * 127 * 140_000 > 2**31
        matrix = full_matrix(np.ones((5, cols)))
        for batch in (1, 3, 16):
            assert_int8_products_equal_reference(matrix, np.ones((cols, batch)))

    def test_empty_and_one_by_one(self):
        one = full_matrix(np.array([[2.0]]))
        assert_int8_products_equal_reference(one, np.array([[-3.0, 0.0, 0.5]]))
        pruned = BSPCMatrix.from_dense(np.zeros((9, 7)), BlockGrid(9, 7, 3, 2))
        assert_int8_products_equal_reference(pruned, new_rng(0).standard_normal((7, 4)))
        for route in ROUTES:  # no columns at all
            with kernels.use_backend(route):
                assert kernels.spmm_int8(bsp_matrix(), np.zeros((64, 0))).shape == (48, 0)

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("batch", [2, 5, 16, 19])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, 5e-324, 1e-310])
    def test_a_bad_frame_leaves_the_other_frames_bit_unchanged(self, route, batch, bad):
        matrix = bsp_matrix()
        x = new_rng(4).standard_normal((64, batch))
        with kernels.use_backend(route), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            clean = kernels.spmm_int8(matrix, x)
            for position in (0, batch - 1):
                dirty = x.copy()
                dirty[3, position] = bad
                if bad == 0.0 or 0.0 < bad < 1.0:
                    dirty[:, position] = bad  # a silent / denormal frame
                out = kernels.spmm_int8(matrix, dirty)
                others = np.arange(batch) != position
                np.testing.assert_array_equal(out[:, others], clean[:, others])

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("cell_type", ["gru", "lstm"])
    def test_a_bad_session_leaves_cobatched_sessions_bit_unchanged(self, route, cell_type):
        plan = bsp_int8_plan(cell_type)
        features = new_rng(5).standard_normal((6, 4, 8))
        with kernels.use_backend(route), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            clean, clean_state = plan.run_chunk(features)
            for bad in (np.nan, np.inf, 0.0, 1e-310):
                dirty = features.copy()
                dirty[2, 1] = bad
                out, state = plan.run_chunk(dirty)
                np.testing.assert_array_equal(out[:, [0, 2, 3]], clean[:, [0, 2, 3]])
                for got, want in zip(state.layer_states, clean_state.layer_states):
                    for a, b in zip(got, want):
                        np.testing.assert_array_equal(a[[0, 2, 3]], b[[0, 2, 3]])


# ---------------------------------------------------------------------------
# The compiled backend's scratch buffers
# ---------------------------------------------------------------------------
@requires_compiler
class TestScratch:
    def test_buffers_are_keyed_by_name_and_dtype(self):
        a = compiled._scratch("t_keyed", 64, np.float32)
        b = compiled._scratch("t_keyed", 64, np.float64)
        assert a != b
        # alternating dtypes (or shrinking sizes) must not reallocate
        assert compiled._scratch("t_keyed", 64, np.float32) == a
        assert compiled._scratch("t_keyed", 8, np.float64) == b
        assert compiled._scratch("t_keyed", 128, np.float64) != b  # grown

    def test_buffers_are_per_thread(self):
        mine = compiled._scratch("t_thread", 16)
        theirs = []
        worker = threading.Thread(
            target=lambda: theirs.append(compiled._scratch("t_thread", 16))
        )
        worker.start()
        worker.join()
        assert theirs and theirs[0] != mine

    def test_interleaved_plans_on_different_stamps(self):
        # float32 codes (f32 stamp) and float64 codes (f64 stamp) share
        # scratch names; interleaving them must neither thrash the
        # buffers nor mix their contents.
        narrow = bsp_matrix()
        wide = full_matrix(new_rng(1).standard_normal((6, F32_EXACT_INNER + 8)))
        assert int8_bspc_plan(narrow).codes_f.dtype == np.float32
        assert int8_bspc_plan(wide).codes_f.dtype == np.float64
        xn = new_rng(2).standard_normal((64, 16))
        xw = new_rng(3).standard_normal((F32_EXACT_INNER + 8, 16))
        want_n = kernels.spmm_int8(narrow, xn, backend="reference")
        want_w = kernels.spmm_int8(wide, xw, backend="reference")
        kernels.spmm_int8(narrow, xn, backend="compiled")
        kernels.spmm_int8(wide, xw, backend="compiled")
        held = {key: value[1] for key, value in compiled._SCRATCH.__dict__.items()}
        for _ in range(3):
            np.testing.assert_array_equal(
                kernels.spmm_int8(narrow, xn, backend="compiled"), want_n
            )
            np.testing.assert_array_equal(
                kernels.spmm_int8(wide, xw, backend="compiled"), want_w
            )
        after = {key: value[1] for key, value in compiled._SCRATCH.__dict__.items()}
        assert after == held

    @pytest.mark.parametrize("batch", [3, 16])
    def test_threads_running_spmm_int8_concurrently(self, batch):
        # More threads than cores, each on its own matrix and operand;
        # the C calls release the GIL, so a shared scratch buffer would
        # mix one thread's packed activations into another's product.
        count = 2 * (os.cpu_count() or 2)
        matrices = [bsp_matrix(seed, (96, 128)) for seed in range(count)]
        inputs = [new_rng(seed).standard_normal((128, batch)) for seed in range(count)]
        wanted = [
            kernels.spmm_int8(m, x, backend="reference") for m, x in zip(matrices, inputs)
        ]
        finished, failures = [], []
        start = threading.Barrier(count)

        def run(index):
            start.wait(timeout=60)
            for _ in range(200):
                out = kernels.spmm_int8(matrices[index], inputs[index], backend="compiled")
                if not np.array_equal(out, wanted[index]):
                    failures.append(index)
                    return
            finished.append(index)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures and sorted(finished) == list(range(count))
