"""The generic loop's ops against their oracle, from one table.

:data:`OPS` lists each op the engine's generic loop and the training step
run — the entries of :data:`repro.kernels.OPS` and the two recurrent ones
— with numpy's implementation, the straight-line oracle of
:mod:`repro.kernels.reference`, a strategy drawing the op's arguments and
how the two must agree: bitwise for int8, to ``np.allclose`` for float.
The draws cover shape, block grid, batch (``B = 1`` included),
non-contiguous inputs and, for the float BSPC product, a non-finite
``x[0]`` that numpy's padded panels gather.  The hand-picked sparsity
patterns this suite once enumerated (empty strips and rows, fully pruned,
a single nonzero, ...) are each an ``@example``.  At plan level, a
property holds one plan's three routes (:mod:`routes`) to each other.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import engine, kernels
from repro.errors import KernelError
from repro.kernels import numpy_backend, quantized, reference
from repro.pruning.bsp import BSPConfig, bsp_project_masks
from repro.sparse.blocks import BlockGrid, grid_for
from repro.sparse.bspc import BSPCMatrix
from repro.sparse.csr import CSRMatrix
from repro.speech.model import AcousticModelConfig, GRUAcousticModel
from repro.utils.rng import new_rng
from routes import ROUTES, on_route
from test_int8_routing import INT8_KINDS, int8_plan

# ---------------------------------------------------------------------------
# Arguments
# ---------------------------------------------------------------------------
PATTERNS = ("bsp", "random", "empty_strip", "empty_blocks", "zeros", "dense", "single")


def sparse_weight(pattern, rows, cols, strips, blocks, seed):
    """A ``(rows, cols)`` weight of ``pattern`` on a ``strips x blocks``
    grid: BSP-pruned, 30 % random, strip 0 fully pruned, the right-hand
    blocks empty, all zeros, unpruned, or one nonzero."""
    rng = new_rng(seed)
    w = rng.standard_normal((rows, cols))
    if pattern == "bsp":
        config = BSPConfig(col_rate=4, row_rate=2, num_row_strips=strips, num_col_blocks=blocks)
        w = bsp_project_masks({"w": w}, config)["w"].apply_to_array(w)
    elif pattern == "random":
        w[rng.random(w.shape) > 0.3] = 0.0
    elif pattern == "empty_strip":
        w[rng.random(w.shape) > 0.5] = 0.0
        w[: max(1, rows // strips)] = 0.0
    elif pattern == "empty_blocks":
        w[:, cols // 2 :] = 0.0
    elif pattern == "zeros":
        w[...] = 0.0
    elif pattern == "single":
        w[...] = 0.0
        w[rows // 3, cols // 4] = 1.5
    return w


def laid_out(x, layout):
    """``x`` as a C-ordered, F-ordered, or strided (every other column of
    a wider array) operand of the same values."""
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "strided":
        wide = np.empty((x.shape[0], 2 * x.shape[1]))
        wide[:, ::2] = x
        wide[:, 1::2] = np.nan  # a kernel that reads between the columns shows
        return wide[:, ::2]
    return x


@st.composite
def sparse_cases(draw, bad_x0=False):
    """``(pattern, rows, cols, strips, blocks, batch, layout, bad, seed)``."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    strips = draw(st.integers(1, min(rows, 6)))
    blocks = draw(st.integers(1, min(cols, 6)))
    batch = draw(st.sampled_from([1, 1, 2, 3, 8, 16, 21]))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    bad = draw(st.sampled_from([None, np.inf, np.nan])) if bad_x0 else None
    pattern = draw(st.sampled_from(PATTERNS))
    return pattern, rows, cols, strips, blocks, batch, layout, bad, draw(st.integers(0, 2**16))


#: The patterns this suite enumerated before it drew them.
ENUMERATED = [
    ("bsp", 32, 48, 4, 3, 3, "C", None, 7),
    ("random", 17, 23, 3, 4, 1, "C", None, 7),  # uneven strip/block extents
    ("empty_strip", 12, 12, 3, 2, 16, "C", None, 7),  # strip 0 and its rows empty
    ("empty_blocks", 8, 10, 2, 2, 21, "C", None, 7),
    ("zeros", 9, 7, 3, 2, 2, "C", None, 7),  # fully pruned
    ("dense", 6, 5, 2, 2, 3, "C", None, 7),
    ("single", 10, 8, 2, 2, 1, "C", None, 7),
    ("bsp", 32, 48, 4, 3, 4, "strided", None, 7),  # non-contiguous input
    ("bsp", 32, 48, 4, 3, 1, "C", np.inf, 7),  # non-finite x[0] kept out of pads
    ("empty_blocks", 8, 10, 2, 2, 3, "C", np.nan, 7),
]


def sparse_args(case, matrix_of):
    pattern, rows, cols, strips, blocks, batch, layout, bad, seed = case
    w = sparse_weight(pattern, rows, cols, strips, blocks, seed)
    x = new_rng(seed + 1).standard_normal((cols, batch))
    if bad is not None:
        x[0] = bad
    return matrix_of(w, grid_for(w, strips, blocks)), laid_out(x, layout)


def csr_args(case):
    return sparse_args(case, lambda w, grid: CSRMatrix.from_dense(w))


def bspc_args(case):
    return sparse_args(case, BSPCMatrix.from_dense)


@st.composite
def rowwise_cases(draw):
    """``(rows, cols, count, layout, seed)``: codes ``(rows, cols)`` — wide
    enough to chunk the float32 sums past ``F32_EXACT_INNER`` — and
    ``count`` activation rows."""
    cols = draw(st.sampled_from([1, 3, 7, 40, quantized.F32_EXACT_INNER + 5]))
    count = draw(st.sampled_from([1, 1, 2, 4, 9, 17]))
    return draw(st.integers(1, 24)), cols, count, draw(st.sampled_from(["C", "F", "strided"])), draw(
        st.integers(0, 2**16)
    )


def rowwise_args(case):
    rows, cols, count, layout, seed = case
    rng = new_rng(seed)
    codes, scale = kernels.int8_codes(2.0 * rng.standard_normal((rows, cols)))
    x = rng.standard_normal((count, cols))
    if seed % 2:
        codes = codes.astype(np.float32)  # what a plan passes: the same integers
    return codes, scale, laid_out(x.T, layout).T


@st.composite
def sequence_cases(draw, packed=False):
    """``(T, B, D, H, strided, packed, seed)``."""
    steps, batch = draw(st.integers(1, 9)), draw(st.integers(1, 5))
    return (steps, batch, draw(st.integers(1, 8)), draw(st.integers(1, 9)),
            draw(st.booleans()), packed and draw(st.booleans()), draw(st.integers(0, 2**16)))


def gru_args(case):
    steps, batch, in_dim, hidden, strided, packed, seed = case
    rng = new_rng(seed)
    x = rng.standard_normal((2 * steps, batch, in_dim))
    x = x[::2] if strided else np.ascontiguousarray(x[:steps])
    weights = (
        rng.standard_normal((3 * hidden, in_dim)),
        0.3 * rng.standard_normal((3 * hidden, hidden)),
        rng.standard_normal(3 * hidden),
        rng.standard_normal(3 * hidden),
    )
    return (x, *weights, rng.standard_normal((batch, hidden)))


def gru_grad_args(case):
    """:func:`gru_args`, packed (rows of decreasing lengths, ``(N, D)``)
    where the case says, with ``batch_sizes`` last."""
    x, *weights, h0 = gru_args(case)
    steps, batch = x.shape[:2]
    if not case[5]:
        return (x, *weights, h0, None)
    lengths = np.sort(new_rng(case[-1]).integers(1, steps + 1, batch))[::-1]
    lengths[0] = steps  # every step has a live row
    sizes = (np.arange(steps)[:, None] < lengths[None, :]).sum(axis=1)
    real = np.arange(steps)[:, None] < lengths[None, :]
    return (x[real], *weights, h0, sizes)


def grad_run(fn, args):
    """Outputs, ``h_T`` and every gradient of ``fn``'s training step, for
    seeded output and final-state gradients."""
    out, h_T, backward = fn(*args)
    rng = new_rng(3)
    return [out, h_T, *backward(rng.standard_normal(out.shape), rng.standard_normal(h_T.shape))]


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------
EXACT = dict(rtol=0.0, atol=0.0)
FLOAT = dict(rtol=1e-9, atol=1e-10)

#: ``op: (numpy's, the oracle, cases, arguments of a case, tolerance)``;
#: ``gru_sequence_grad`` runs numpy's time loops (its C loops:
#: ``tests/test_training_kernels.py``).
OPS = {
    "csr_spmm": (kernels.OPS["csr_spmm"], reference.OPS["csr_spmm"],
                 sparse_cases(bad_x0=True), csr_args, FLOAT),
    "bspc_spmm": (kernels.OPS["bspc_spmm"], reference.OPS["bspc_spmm"],
                  sparse_cases(bad_x0=True), bspc_args, FLOAT),
    "bspc_spmm_int8": (kernels.OPS["bspc_spmm_int8"], reference.OPS["bspc_spmm_int8"],
                       sparse_cases(), bspc_args, EXACT),
    "linear_int8_rowwise": (kernels.OPS["linear_int8_rowwise"],
                            reference.OPS["linear_int8_rowwise"],
                            rowwise_cases(), rowwise_args, EXACT),
    "gru_sequence": (numpy_backend.gru_sequence, reference.gru_sequence,
                     sequence_cases(), gru_args, FLOAT),
    "gru_sequence_grad": (
        lambda *args: grad_run(numpy_backend.gru_sequence_grad, args),
        lambda *args: grad_run(reference.gru_sequence_grad, args),
        sequence_cases(packed=True), gru_grad_args, dict(rtol=1e-6, atol=1e-6),
    ),
}


def test_the_table_covers_every_op_of_the_generic_loop():
    assert set(kernels.OPS) == set(reference.OPS) <= set(OPS)
    assert set(OPS) - set(kernels.OPS) == {"gru_sequence", "gru_sequence_grad"}


def assert_agree(got, want, tolerance):
    got = got if isinstance(got, (list, tuple)) else [got]
    want = want if isinstance(want, (list, tuple)) else [want]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        if tolerance is EXACT:
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        else:
            np.testing.assert_allclose(a, b, **tolerance)


def check(op, case):
    numpy_op, oracle, _, make, tolerance = OPS[op]
    args = make(case)
    contiguous = [np.ascontiguousarray(a) if isinstance(a, np.ndarray) else a for a in args]
    with np.errstate(invalid="ignore"):  # 0 * inf of a non-finite x[0]
        assert_agree(numpy_op(*args), oracle(*contiguous), tolerance)


def sparse_examples(test):
    for case in ENUMERATED:
        test = example(case=case)(test)
    return test


def finite_examples(test):
    """:func:`sparse_examples` whose ``x`` is finite (int8 frames are
    checked finite before they reach a kernel)."""
    for case in ENUMERATED:
        if case[-2] is None:
            test = example(case=case)(test)
    return test


@settings(max_examples=25, deadline=None)
@given(case=OPS["csr_spmm"][2])
@sparse_examples
def test_csr_spmm(case):
    check("csr_spmm", case)


@settings(max_examples=25, deadline=None)
@given(case=OPS["bspc_spmm"][2])
@sparse_examples
def test_bspc_spmm(case):
    check("bspc_spmm", case)


@settings(max_examples=25, deadline=None)
@given(case=OPS["bspc_spmm_int8"][2])
@finite_examples
def test_bspc_spmm_int8(case):
    check("bspc_spmm_int8", case)


@settings(max_examples=25, deadline=None)
@given(case=OPS["linear_int8_rowwise"][2])
@example(case=(5, 7, 4, "C", 0))
@example(case=(3, 1, 4, "C", 1))
@example(case=(8, 3000, 4, "C", 2))  # 3000 chunks the float32 sums
def test_linear_int8_rowwise(case):
    check("linear_int8_rowwise", case)


@settings(max_examples=25, deadline=None)
@given(case=OPS["gru_sequence"][2])
@example(case=(1, 1, 3, 4, False, False, 11))  # one step, one row
@example(case=(7, 3, 5, 8, False, False, 11))
@example(case=(12, 2, 8, 8, False, False, 11))  # D == H
@example(case=(6, 2, 4, 5, True, False, 13))  # strided time axis
def test_gru_sequence(case):
    check("gru_sequence", case)


@settings(max_examples=25, deadline=None)
@given(case=OPS["gru_sequence_grad"][2])
@example(case=(1, 1, 3, 4, False, False, 5))
@example(case=(7, 4, 5, 6, False, True, 5))
@example(case=(6, 3, 4, 5, True, False, 5))
def test_gru_sequence_grad(case):
    check("gru_sequence_grad", case)


def test_the_product_entries_are_numpys():
    case = ENUMERATED[0]
    matrix, x = bspc_args(case)
    assert kernels.spmm(matrix, x).tobytes() == kernels.OPS["bspc_spmm"](matrix, x).tobytes()
    got = kernels.spmm_int8(matrix, x)
    assert got.tobytes() == quantized.bspc_spmm_int8(matrix, x).tobytes()
    np.testing.assert_allclose(kernels.spmv(matrix, x[:, 0]), got[:, 0], atol=0.05 * np.abs(got).max())
    csr, x = csr_args(case)
    np.testing.assert_allclose(kernels.spmv(csr, x[:, 0]), reference.csr_spmm(csr, x[:, :1])[:, 0],
                               **FLOAT)


# ---------------------------------------------------------------------------
# Plan level: program == generic loop == reference loop
# ---------------------------------------------------------------------------
FLOAT_FORMATS = [None, "csr", "bspc"]
_PLANS = {}


def route_plans(kind):
    """``kind``'s plan on every route: an int8 kind of
    :func:`~test_int8_routing.int8_plan`, or ``("float", fmt)``."""
    if kind not in _PLANS:
        if isinstance(kind, tuple):
            config = AcousticModelConfig(input_dim=8, hidden_size=24, num_layers=2)
            model = GRUAcousticModel(config, rng=0).eval()
            masks = bsp_project_masks(
                model.prunable_weights(),
                BSPConfig(col_rate=4, row_rate=2, num_row_strips=4, num_col_blocks=4),
            )
            for name, param in model.prunable_parameters().items():
                param.data[...] = masks[name].apply_to_array(param.data)
            plan = engine.compile_model(model, config=engine.EngineConfig(
                sparse_format=kind[1], num_row_strips=4, num_col_blocks=4))
        else:
            plan = int8_plan(kind)
        _PLANS[kind] = {route: on_route(plan, route) for route in ROUTES}
    return _PLANS[kind]


PLAN_KINDS = INT8_KINDS + [("float", fmt) for fmt in FLOAT_FORMATS]


@pytest.mark.parametrize("kind", PLAN_KINDS)
@settings(max_examples=4, deadline=None)
@given(
    frames=st.integers(1, 12),
    batch=st.sampled_from([1, 2, 3, 8, 9]),
    seed=st.integers(0, 2**16),
)
@example(frames=9, batch=3, seed=0)
def test_every_route_of_a_plan_runs_the_same_chunk(kind, frames, batch, seed):
    plans = route_plans(kind)
    features = new_rng(seed).standard_normal((frames, batch, 8))
    runs = {route: plan.run_chunk(features) for route, plan in plans.items()}
    want, want_state = runs["reference"]
    for route, (logits, state) in runs.items():
        got = [logits, *state.layer_states]
        expected = [want, *want_state.layer_states]
        assert_agree(got, expected, FLOAT if isinstance(kind, tuple) else EXACT)


# ---------------------------------------------------------------------------
# The rest of the kernel package
# ---------------------------------------------------------------------------
def bsp_pruned(rng, shape=(32, 48), strips=4, blocks=3):
    w = rng.standard_normal(shape)
    masks = bsp_project_masks(
        {"w": w},
        BSPConfig(col_rate=4, row_rate=2, num_row_strips=strips, num_col_blocks=blocks),
    )
    return masks["w"].apply_to_array(w), grid_for(w, strips, blocks)


class TestModuleFastPath:
    """GRU modules must produce tape-path results in eval mode."""

    def test_gru_eval_matches_train(self, rng):
        from repro.nn.rnn import GRU
        from repro.nn.tensor import Tensor

        gru = GRU(6, 9, num_layers=2, rng=0)
        x = Tensor(rng.standard_normal((8, 3, 6)))
        out_train, finals_train = gru(x)
        out_eval, finals_eval = gru.eval()(x)
        assert not out_eval.requires_grad
        np.testing.assert_allclose(out_eval.data, out_train.data, atol=1e-10)
        for a, b in zip(finals_train, finals_eval):
            np.testing.assert_allclose(b.data, a.data, atol=1e-10)

    def test_grad_requiring_input_uses_tape_in_eval(self, rng):
        from repro.nn.rnn import GRU
        from repro.nn.tensor import Tensor

        gru = GRU(4, 5, rng=0).eval()
        x = Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
        out, _ = gru(x)
        out.sum().backward()
        assert x.grad is not None  # fell back to the differentiable path


class TestInt8Helpers:
    def test_int8_close_to_float(self):
        # The whole point: quantized results track the float ones.
        for case in ENUMERATED:
            if case[-2] is not None:
                continue  # a non-finite frame tracks nothing
            matrix, x = bspc_args(case)
            expected = matrix.to_dense() @ x
            got = kernels.spmm_int8(matrix, x)
            scale = np.abs(expected).max() or 1.0
            assert np.abs(got - expected).max() <= 0.05 * scale + 1e-12, case

    def test_int8_codes_round_trip(self, rng):
        w = rng.standard_normal((6, 5))
        codes, scale = kernels.int8_codes(w)
        assert codes.dtype == np.int8
        assert np.abs(codes).max() <= 127
        np.testing.assert_allclose(codes * scale, w, atol=scale / 2 + 1e-12)

    def test_int8_codes_zero_matrix(self):
        codes, scale = kernels.int8_codes(np.zeros((3, 3)))
        assert scale == 1.0 and not codes.any()

    def test_int8_plan_cached_and_invalidated(self, rng):
        w, grid = bsp_pruned(rng)
        bspc = BSPCMatrix.from_dense(w, grid)
        x = rng.standard_normal((w.shape[1], 1))
        kernels.spmm_int8(bspc, x)
        plan = bspc._int8_kernel_plan
        kernels.spmm_int8(bspc, x)
        assert bspc._int8_kernel_plan is plan
        bspc.strips = list(bspc.strips)  # structural reassignment drops both
        assert not hasattr(bspc, "_int8_kernel_plan")
        assert not hasattr(bspc, "_kernel_plan")
        bspc.invalidate_plan()  # idempotent, also clears after in-place edits
        np.testing.assert_array_equal(
            kernels.spmm_int8(bspc, x), reference.bspc_spmm_int8(bspc, x)
        )

    def test_int8_has_no_csr_op(self, rng):
        # int8 has one sparse format: a CSR matrix has no int8 product
        csr = CSRMatrix.from_dense(bsp_pruned(rng)[0])
        with pytest.raises(KernelError, match="one sparse format"):
            kernels.spmm_int8(csr, np.ones((csr.shape[1], 2)))

    def test_a_matrix_without_a_known_prefix_is_a_kernel_error(self):
        with pytest.raises(KernelError, match="kernel_prefix"):
            kernels.spmm(np.eye(3), np.ones((3, 1)))


class TestPlanCaching:
    def test_plan_cached_and_reused(self, rng):
        w, grid = bsp_pruned(rng)
        bspc = BSPCMatrix.from_dense(w, grid)
        bspc.spmv(rng.standard_normal(w.shape[1]))
        plan = bspc._kernel_plan
        bspc.spmv(rng.standard_normal(w.shape[1]))
        assert bspc._kernel_plan is plan

    def test_field_reassignment_invalidates(self, rng):
        w, grid = bsp_pruned(rng)
        bspc = BSPCMatrix.from_dense(w, grid)
        bspc.spmv(rng.standard_normal(w.shape[1]))
        bspc.strips = bspc.strips
        assert not hasattr(bspc, "_kernel_plan")
        csr = CSRMatrix.from_dense(w)
        csr.spmv(rng.standard_normal(w.shape[1]))
        csr.values = csr.values * 2.0
        assert not hasattr(csr, "_kernel_plan")
        np.testing.assert_allclose(
            csr.spmv(np.ones(w.shape[1])), 2.0 * w @ np.ones(w.shape[1]), atol=1e-12
        )

    def test_invalidate_plan_after_inplace_mutation(self, rng):
        w, grid = bsp_pruned(rng)
        csr = CSRMatrix.from_dense(w)
        x = rng.standard_normal(w.shape[1])
        csr.spmv(x)
        csr.values[...] = 0.0
        csr.invalidate_plan()
        np.testing.assert_allclose(csr.spmv(x), np.zeros(w.shape[0]), atol=1e-12)


class TestNumericExecutor:
    def test_matches_dense_compute(self, rng):
        from repro.hw import NumericExecutor

        w, _ = bsp_pruned(rng)
        for fmt in ("bspc", "csr", "dense"):
            ex = NumericExecutor(
                {"w": w}, format_name=fmt, num_row_strips=4, num_col_blocks=3
            )
            x = rng.standard_normal(w.shape[1])
            np.testing.assert_allclose(ex.matvec("w", x), w @ x, atol=1e-12)
            batch = rng.standard_normal((w.shape[1], 4))
            np.testing.assert_allclose(ex.matmat("w", batch), w @ batch, atol=1e-12)

    def test_unknown_layer_rejected(self, rng):
        from repro.errors import SimulationError
        from repro.hw import NumericExecutor

        ex = NumericExecutor({})
        with pytest.raises(SimulationError):
            ex.matvec("missing", np.zeros(3))


def test_a_fully_pruned_grid_is_every_products_zeros():
    pruned = BSPCMatrix.from_dense(np.zeros((9, 7)), BlockGrid(9, 7, 3, 2))
    x = new_rng(0).standard_normal((7, 4))
    assert not kernels.spmm(pruned, x).any()
    assert not kernels.spmm_int8(pruned, x).any()
