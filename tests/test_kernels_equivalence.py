"""Backend equivalence suite for the kernel registry (repro.kernels).

The ``reference`` backend (the seed's straight-line loops) is ground
truth; every other backend must agree with it to ``np.allclose`` across
matrix shapes, sparsity patterns (including empty strips/rows and fully
pruned matrices), batch sizes, and non-contiguous inputs.
"""

import numpy as np
import pytest

from repro import kernels
from repro.errors import KernelError
from repro.kernels import compiled
from repro.pruning.bsp import BSPConfig, bsp_project_masks
from repro.sparse.blocks import BlockGrid, grid_for
from repro.sparse.bspc import BSPCMatrix
from repro.sparse.csr import CSRMatrix
from repro.utils.rng import new_rng
from test_int8_routing import spmm_int8, spmv_int8

# Everything registered beyond the ground-truth loops: "numpy".
FAST_BACKENDS = [b for b in kernels.registry.backends() if b != "reference"]
# ... and, in the int8 matrix, the compiled C product (compiled.product) on
# hosts where the C toolchain built and probed clean.
INT8_PRODUCTS = FAST_BACKENDS + (["compiled"] if compiled.available() else [])


def test_compiled_backend_present_or_skipped():
    """Surface (as a skip, not silence) hosts where the C library did not
    build; everywhere else its product must be in the int8 matrix."""
    if not compiled.available():
        pytest.skip(f"compiled library unavailable: {compiled.load_error()}")
    assert "compiled" in INT8_PRODUCTS


def random_sparse(rng, shape, density):
    w = rng.standard_normal(shape)
    w[rng.random(shape) > density] = 0.0
    return w


def bsp_pruned(rng, shape=(32, 48), strips=4, blocks=3):
    w = rng.standard_normal(shape)
    masks = bsp_project_masks(
        {"w": w},
        BSPConfig(col_rate=4, row_rate=2, num_row_strips=strips, num_col_blocks=blocks),
    )
    return masks["w"].apply_to_array(w), grid_for(w, strips, blocks)


def sparse_cases(rng):
    """(name, dense, grid) triples spanning the tricky structures."""
    cases = []
    pruned, grid = bsp_pruned(rng)
    cases.append(("bsp_pruned", pruned, grid))
    w = random_sparse(rng, (17, 23), 0.3)  # uneven strip/block extents
    cases.append(("irregular_uneven", w, grid_for(w, 3, 4)))
    w = random_sparse(rng, (12, 12), 0.5)
    w[0:4, :] = 0.0  # strip 0 fully pruned; rows 0-3 empty
    cases.append(("empty_strip", w, grid_for(w, 3, 2)))
    w = rng.standard_normal((8, 10))
    w[:, 5:] = 0.0  # right-hand blocks empty
    cases.append(("empty_blocks", w, grid_for(w, 2, 2)))
    cases.append(("fully_pruned", np.zeros((9, 7)), BlockGrid(9, 7, 3, 2)))
    cases.append(("dense", rng.standard_normal((6, 5)), grid_for(np.zeros((6, 5)), 2, 2)))
    w = np.zeros((10, 8))
    w[3, 2] = 1.5  # single nonzero
    cases.append(("single_nnz", w, grid_for(w, 2, 2)))
    return cases


@pytest.fixture(scope="module")
def cases():
    return sparse_cases(new_rng(7))


@pytest.mark.parametrize("backend", FAST_BACKENDS)
class TestSparseEquivalence:
    def test_csr_spmv(self, cases, backend):
        rng = new_rng(1)
        for name, w, _ in cases:
            csr = CSRMatrix.from_dense(w)
            x = rng.standard_normal(w.shape[1])
            expected = csr.spmv(x, backend="reference")
            np.testing.assert_allclose(
                csr.spmv(x, backend=backend), expected, atol=1e-12, err_msg=name
            )

    def test_csr_spmm(self, cases, backend):
        rng = new_rng(2)
        for name, w, _ in cases:
            csr = CSRMatrix.from_dense(w)
            for batch in (1, 4):
                x = rng.standard_normal((w.shape[1], batch))
                expected = csr.spmm(x, backend="reference")
                np.testing.assert_allclose(
                    csr.spmm(x, backend=backend), expected, atol=1e-12, err_msg=name
                )

    def test_bspc_spmv(self, cases, backend):
        rng = new_rng(3)
        for name, w, grid in cases:
            bspc = BSPCMatrix.from_dense(w, grid)
            x = rng.standard_normal(w.shape[1])
            expected = bspc.spmv(x, backend="reference")
            np.testing.assert_allclose(expected, w @ x, atol=1e-12, err_msg=name)
            np.testing.assert_allclose(
                bspc.spmv(x, backend=backend), expected, atol=1e-12, err_msg=name
            )

    def test_bspc_spmm(self, cases, backend):
        rng = new_rng(4)
        for name, w, grid in cases:
            bspc = BSPCMatrix.from_dense(w, grid)
            for batch in (1, 3, 8):
                x = rng.standard_normal((w.shape[1], batch))
                expected = bspc.spmm(x, backend="reference")
                np.testing.assert_allclose(expected, w @ x, atol=1e-12, err_msg=name)
                np.testing.assert_allclose(
                    bspc.spmm(x, backend=backend), expected, atol=1e-12, err_msg=name
                )

    def test_non_finite_x0_does_not_poison_padding(self, cases, backend):
        # BSPC plans pad short strips with gather index 0; a non-finite
        # x[0] must only affect rows that genuinely read column 0.
        rng = new_rng(9)
        with np.errstate(invalid="ignore"):  # 0*inf where a row reads col 0
            for name, w, grid in cases:
                bspc = BSPCMatrix.from_dense(w, grid)
                x = rng.standard_normal(w.shape[1])
                x[0] = np.inf
                expected = bspc.spmv(x, backend="reference")
                np.testing.assert_allclose(
                    bspc.spmv(x, backend=backend), expected, atol=1e-12, err_msg=name
                )
                batch = rng.standard_normal((w.shape[1], 3))
                batch[0, :] = np.nan
                expected_mm = bspc.spmm(batch, backend="reference")
                np.testing.assert_allclose(
                    bspc.spmm(batch, backend=backend), expected_mm, atol=1e-12,
                    err_msg=name,
                )

    def test_non_contiguous_inputs(self, cases, backend):
        rng = new_rng(5)
        for name, w, grid in cases:
            bspc = BSPCMatrix.from_dense(w, grid)
            csr = CSRMatrix.from_dense(w)
            x = rng.standard_normal(2 * w.shape[1])[::2]  # strided view
            assert not x.flags["C_CONTIGUOUS"]
            np.testing.assert_allclose(
                bspc.spmv(x, backend=backend),
                bspc.spmv(np.ascontiguousarray(x), backend="reference"),
                atol=1e-12,
                err_msg=name,
            )
            big = rng.standard_normal((w.shape[1], 6))
            xt = big.T[:3].T  # non-contiguous 2-D view
            np.testing.assert_allclose(
                csr.spmm(xt, backend=backend),
                csr.spmm(np.ascontiguousarray(xt), backend="reference"),
                atol=1e-12,
                err_msg=name,
            )


@pytest.mark.parametrize("backend", FAST_BACKENDS)
class TestRecurrentEquivalence:
    SHAPES = [
        (1, 1, 3, 4),  # single step, single batch
        (7, 3, 5, 8),
        (12, 2, 8, 8),  # D == H
    ]

    def _weights(self, rng, gates, d, h):
        w_ih = rng.standard_normal((gates * h, d))
        w_hh = rng.standard_normal((gates * h, h)) * 0.3
        return w_ih, w_hh

    def test_gru_sequence(self, backend):
        rng = new_rng(11)
        for t, b, d, h in self.SHAPES:
            x = rng.standard_normal((t, b, d))
            w_ih, w_hh = self._weights(rng, 3, d, h)
            b_ih, b_hh = rng.standard_normal(3 * h), rng.standard_normal(3 * h)
            h0 = rng.standard_normal((b, h))
            ref_out, ref_h = kernels.gru_sequence(
                x, w_ih, w_hh, b_ih, b_hh, h0, backend="reference"
            )
            out, h_final = kernels.gru_sequence(
                x, w_ih, w_hh, b_ih, b_hh, h0, backend=backend
            )
            np.testing.assert_allclose(out, ref_out, atol=1e-10)
            np.testing.assert_allclose(h_final, ref_h, atol=1e-10)

    def test_non_contiguous_sequence(self, backend):
        rng = new_rng(13)
        t, b, d, h = 6, 2, 4, 5
        x = rng.standard_normal((2 * t, b, d))[::2]  # strided time axis
        assert not x.flags["C_CONTIGUOUS"]
        w_ih, w_hh = self._weights(rng, 3, d, h)
        b_ih, b_hh = rng.standard_normal(3 * h), rng.standard_normal(3 * h)
        h0 = np.zeros((b, h))
        ref_out, _ = kernels.gru_sequence(
            np.ascontiguousarray(x), w_ih, w_hh, b_ih, b_hh, h0, backend="reference"
        )
        out, _ = kernels.gru_sequence(x, w_ih, w_hh, b_ih, b_hh, h0, backend=backend)
        np.testing.assert_allclose(out, ref_out, atol=1e-10)


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


class TestInt8Kernels:
    """The int8 numpy kernels and the compiled C product must agree
    *exactly* with the int64-accumulating reference implementations (same
    codes, same integer sums, same dequant multiply order), and closely
    with the float result."""

    @pytest.mark.parametrize("backend", INT8_PRODUCTS)
    def test_bspc_spmv_int8_exact_vs_reference(self, cases, backend):
        rng = new_rng(23)
        for name, w, grid in cases:
            bspc = BSPCMatrix.from_dense(w, grid)
            x = rng.standard_normal(w.shape[1])
            expected = kernels.spmv_int8(bspc, x, backend="reference")
            np.testing.assert_array_equal(spmv_int8(bspc, x, backend), expected, err_msg=name)

    @pytest.mark.parametrize("backend", INT8_PRODUCTS)
    def test_bspc_spmm_int8_exact_vs_reference(self, cases, backend):
        rng = new_rng(24)
        for name, w, grid in cases:
            bspc = BSPCMatrix.from_dense(w, grid)
            for batch in (1, 3, 16, 21):  # spans partial / full / multi tile
                x = rng.standard_normal((w.shape[1], batch))
                expected = kernels.spmm_int8(bspc, x, backend="reference")
                np.testing.assert_array_equal(
                    spmm_int8(bspc, x, backend), expected, err_msg=name
                )

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_linear_int8_exact_vs_reference(self, rng, backend):
        for m, k in [(5, 7), (3, 1), (8, 3000)]:  # 3000 forces chunking
            codes, scale = kernels.int8_codes(rng.standard_normal((m, k)) * 2)
            x = rng.standard_normal((4, k))
            expected = kernels.linear_int8(codes, scale, x, backend="reference")
            np.testing.assert_array_equal(
                kernels.linear_int8(codes, scale, x, backend=backend), expected
            )
            # pre-cast float32 codes (what compiled plans pass) agree too
            np.testing.assert_array_equal(
                kernels.linear_int8(codes.astype(np.float32), scale, x, backend=backend),
                expected,
            )


class TestInt8Helpers:
    def test_int8_close_to_float(self, cases):
        # The whole point: quantized results track the float ones.
        rng = new_rng(25)
        for name, w, grid in cases:
            bspc = BSPCMatrix.from_dense(w, grid)
            x = rng.standard_normal(w.shape[1])
            expected = w @ x
            got = kernels.spmv_int8(bspc, x)
            scale = np.abs(expected).max() or 1.0
            assert np.abs(got - expected).max() <= 0.05 * scale + 1e-12, name

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
        # Exercises the numpy plan cache specifically (the reference
        # kernels are plan-free), so the backend is pinned per call.
        w, grid = bsp_pruned(rng)
        bspc = BSPCMatrix.from_dense(w, grid)
        x = rng.standard_normal(w.shape[1])
        kernels.spmv_int8(bspc, x, backend="numpy")
        plan = bspc._int8_kernel_plan
        kernels.spmv_int8(bspc, x, backend="numpy")
        assert bspc._int8_kernel_plan is plan
        bspc.strips = list(bspc.strips)  # structural reassignment drops both
        assert not hasattr(bspc, "_int8_kernel_plan")
        assert not hasattr(bspc, "_kernel_plan")
        bspc.invalidate_plan()  # idempotent, also clears after in-place edits
        np.testing.assert_array_equal(
            kernels.spmv_int8(bspc, x, backend="numpy"),
            kernels.spmv_int8(bspc, x, backend="reference"),
        )

    def test_int8_has_no_csr_op(self, rng):
        # int8 has one sparse format: a CSR matrix has no int8 product
        csr = CSRMatrix.from_dense(bsp_pruned(rng)[0])
        for entry, x in ((kernels.spmv_int8, np.ones(csr.shape[1])),
                         (kernels.spmm_int8, np.ones((csr.shape[1], 2)))):
            for backend in kernels.backends():
                with pytest.raises(KernelError, match="unknown kernel op"):
                    entry(csr, x, backend=backend)


class TestPlanCaching:
    # Plan caching belongs to the numpy backend (reference kernels never
    # build plans), so these pin backend="numpy" on plan-building calls.
    def test_plan_cached_and_reused(self, rng):
        w, grid = bsp_pruned(rng)
        bspc = BSPCMatrix.from_dense(w, grid)
        bspc.spmv(rng.standard_normal(w.shape[1]), backend="numpy")
        plan = bspc._kernel_plan
        bspc.spmv(rng.standard_normal(w.shape[1]), backend="numpy")
        assert bspc._kernel_plan is plan

    def test_field_reassignment_invalidates(self, rng):
        w, grid = bsp_pruned(rng)
        bspc = BSPCMatrix.from_dense(w, grid)
        bspc.spmv(rng.standard_normal(w.shape[1]), backend="numpy")
        bspc.strips = bspc.strips
        assert not hasattr(bspc, "_kernel_plan")
        csr = CSRMatrix.from_dense(w)
        csr.spmv(rng.standard_normal(w.shape[1]), backend="numpy")
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


class TestRegistry:
    def test_unknown_op_rejected(self):
        with pytest.raises(KernelError):
            kernels.registry.get("nope")

    def test_unknown_backend_rejected(self):
        with pytest.raises(KernelError):
            kernels.registry.get("csr_spmv", backend="cuda")
        with pytest.raises(KernelError):
            kernels.set_default_backend("cuda")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(KernelError):
            kernels.registry.register("csr_spmv", "numpy", lambda m, x: x)

    def test_use_backend_restores_default(self, rng):
        before = kernels.get_default_backend()
        with kernels.use_backend("reference"):
            assert kernels.get_default_backend() == "reference"
        assert kernels.get_default_backend() == before

    def test_use_backend_restores_on_error(self):
        before = kernels.get_default_backend()
        with pytest.raises(RuntimeError):
            with kernels.use_backend("reference"):
                raise RuntimeError("boom")
        assert kernels.get_default_backend() == before


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
