"""Second builds of the C kernel library: mutants, and the paths this
host's own build skips.

Every test here builds and loads another ``.so`` (1-2 s each), so the file
is named outside pytest's ``test_*.py`` pattern and the tier-1 run
(``python -m pytest -x -q``) does not collect it.  Name it to run it::

    PYTHONPATH=src python -m pytest -q tests/second_builds.py

The ``compiled-backend-smoke`` CI job does, next to its own per-ISA
rebuilds, so every exactness claim made here stays pinned in CI.
"""

import os
import platform
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.errors import CompileBackendError
from repro.kernels import compiled, reference
from repro.sparse.bspc import BSPCMatrix
from repro.utils.rng import new_rng
from routes import on_route
from test_int8_routing import (
    GOLDEN,
    assert_states_equal,
    bsp_int8_plan,
    bsp_matrix,
    golden_digest,
    golden_plan,
    linear_int8_rowwise,
    ref_column,
    requires_compiler,
    spmm_int8,
    spmv_int8,
    streamed_bytes,
    wide_matrix,
)

requires_lanes = pytest.mark.skipif(
    not compiled.lanes(), reason="C library built without the rows-in-lanes kernel"
)
requires_vnni = pytest.mark.skipif(
    compiled.kgroup() != 4, reason="C library built without AVX-512 VNNI"
)


def host_has(flag):
    """Whether this host's CPU lists ``flag`` (``/proc/cpuinfo``)."""
    try:
        return f" {flag} " in Path("/proc/cpuinfo").read_text()
    except OSError:
        return False


def host_contracts_fma():
    """Whether ``-march=native`` lets this host's compiler emit FMAs."""
    return platform.machine().lower() in ("aarch64", "arm64") or host_has("fma")


#: The quad form's gather permutes where the build has AVX-512 VBMI.
requires_vbmi = pytest.mark.skipif(
    compiled.kgroup() != 4 or not host_has("avx512vbmi"),
    reason="C library built without the permuted gather (AVX-512 VNNI and VBMI)",
)


def packed_bytes():
    """Bytes the loaded library packs a 16 x 64 strip of a 64-wide operand
    in: its codes, and the selectors of its gather where it permutes."""
    return compiled._library().repro_i8_pack(1, 16, 64, 64, None, None, None)


def load_second_build(tmp_path, monkeypatch, edit=None, flags=None, probe=True):
    """Put another build of the kernel library in the process's place:
    ``edit`` rewrites the C source, ``flags`` stand in for -march=native;
    without ``probe`` a library whose products are wrong loads all the same."""
    if edit is not None:
        mutant = edit(compiled._C_SOURCE)
        assert mutant != compiled._C_SOURCE
        monkeypatch.setattr(compiled, "_C_SOURCE", mutant)
    if flags is not None:
        compile_ = compiled._compile

        def swapped(cc, src, out, given):
            keep = tuple(flag for flag in given if flag != "-march=native")
            compile_(cc, src, out, tuple(flags) + keep)

        monkeypatch.setattr(compiled, "_compile", swapped)
    if not probe:
        monkeypatch.setattr(compiled, "_sanity_probe", lambda lib: None)
    monkeypatch.setattr(compiled, "_LIB", compiled.build_library(cache=tmp_path))
    # a panel is packed by, and runs on, one library: the matrices made
    # before are packed afresh for this one
    monkeypatch.setattr(compiled, "_PANELS", {})


def load_wrong_build(tmp_path, monkeypatch, edit):
    """A mutant whose int8 products are wrong: refused at load, then —
    the same cached ``.so`` — loaded past the probe to show how wrong."""
    with pytest.raises(CompileBackendError, match="sanity probe"):
        load_second_build(tmp_path, monkeypatch, edit)
    load_second_build(tmp_path, monkeypatch, probe=False)


def streamed_auto_plan():
    """Logits and states of a freshly lowered plan with a dense layer 0."""
    plan = bsp_int8_plan(sparse_format="auto")
    assert plan.program is not None
    return streamed_bytes(plan)


def lowered_golden():
    """The golden digest through a freshly lowered program."""
    plan = golden_plan()
    assert plan.program is not None
    return golden_digest(plan)


# ---------------------------------------------------------------------------
# Mutants: each guard in the C source, dropped, changes bits
# ---------------------------------------------------------------------------
@requires_compiler
def test_contracting_the_gate_math_changes_bits(tmp_path, monkeypatch):
    # Mutation check of the contraction guard: the same C source built
    # with the guard removed lets the compiler fuse `a + b * c` in the gate
    # math into one FMA, which rounds once instead of twice.  The carry
    # state is compared as well as the logits: it diverges a chunk before
    # a logit does.
    if not host_contracts_fma():
        pytest.skip("no FMA on this host: contraction cannot change a bit")
    assert compiled._C_NO_CONTRACT in compiled._C_SOURCE
    chunks = new_rng(3).standard_normal((4, 6, 5, 8))

    def stream():
        plan, state, logits = bsp_int8_plan(), None, []
        assert plan.program is not None
        for chunk in chunks:
            out, state = plan.run_chunk(chunk, state)
            logits.append(out)
        return np.concatenate(logits), state

    plan, want_state, want = on_route(bsp_int8_plan(), "reference"), None, []
    for chunk in chunks:
        out, want_state = plan.run_chunk(chunk, want_state)
        want.append(out)
    guarded_logits, guarded_state = stream()
    np.testing.assert_array_equal(guarded_logits, np.concatenate(want))
    assert_states_equal(guarded_state, want_state)

    load_second_build(tmp_path, monkeypatch, lambda c: c.replace(compiled._C_NO_CONTRACT, ""))
    mutant_logits, mutant_state = stream()
    assert any(
        not np.array_equal(a, b)
        for a, b in zip(mutant_state.layer_states, want_state.layer_states)
    )
    assert not np.array_equal(mutant_logits, guarded_logits)


@requires_lanes
def test_dropping_the_quantizers_divide_guard_changes_codes(tmp_path, monkeypatch):
    # below MARKSTEIN_MIN the reciprocal overflows; only the guard keeps
    # the reciprocal sequence away from such a row
    if not host_contracts_fma():
        pytest.skip("no FMA on this host: the reciprocal sequence is compiled out")
    # the product is float32: a weight scale near 1e288 keeps the denormal
    # column's products (and, at activations near 1e-280, the others')
    # inside its range, so every code shows
    matrix = bsp_matrix()
    matrix = BSPCMatrix.from_dense(1e290 * matrix.to_dense(), matrix.grid)
    x = new_rng(2).uniform(-1.0, 1.0, (64, 4)) * 1e-280
    x[:, 1] *= 1e-30
    want = reference.bspc_spmm_int8(matrix, x)
    assert np.isfinite(want).all() and np.abs(want[want != 0]).min() > 1e-30
    assert want[:, 1].any()
    np.testing.assert_array_equal(spmm_int8(matrix, x, "compiled"), want)
    guard = "#define MARKSTEIN_MIN 1e-250"
    assert guard in compiled._C_SOURCE
    load_second_build(
        tmp_path, monkeypatch, lambda c: c.replace(guard, "#define MARKSTEIN_MIN 0.0")
    )
    got = spmm_int8(matrix, x, "compiled")
    assert not np.array_equal(got[:, 1], want[:, 1])
    np.testing.assert_array_equal(got[:, [0, 2, 3]], want[:, [0, 2, 3]])


@requires_lanes
def test_swapping_the_group_interleave_changes_the_product(tmp_path, monkeypatch):
    # the pack puts a row's codes of one k-group side by side, against the
    # activation group in the same order
    group = "LV(set1_epi32)(x)"
    assert compiled._C_SOURCE.count(group) == 1
    matrix = bsp_matrix()
    x = new_rng(5).standard_normal((64, 3))
    codes, scale = kernels.int8_codes(new_rng(6).standard_normal((20, 9)))
    rows = new_rng(7).standard_normal((4, 9))
    want = reference.bspc_spmm_int8(matrix, x)
    want_dense = reference.linear_int8_rowwise(codes, scale, rows)
    load_wrong_build(
        tmp_path,
        monkeypatch,
        lambda c: c.replace(
            group, "LV(set1_epi32)((i32)((uint32_t)x << 16 | (uint32_t)x >> 16))"
        ),
    )
    for batch in (1, 3):
        got = spmm_int8(matrix, x[:, :batch], "compiled")
        assert not np.array_equal(got, want[:, :batch])
    assert not np.array_equal(linear_int8_rowwise(codes, scale, rows, "compiled"), want_dense)
    # a strip past one int32 sum takes the register block, which reads the
    # plain codes
    wide = wide_matrix()
    signs = np.sign(new_rng(8).standard_normal((compiled.ACC_CHUNK + 1, 3)))
    np.testing.assert_array_equal(
        spmm_int8(wide, signs, "compiled"),
        reference.bspc_spmm_int8(wide, signs),
    )


@requires_vnni
def test_dropping_the_offset_initialiser_changes_the_product(tmp_path, monkeypatch):
    # vpdpbusd multiplies activation codes offset by 128; only starting each
    # sum at -128 * its row's code sum gives the reference's integers back
    start = "#define LANES_INIT(p) _mm512_loadu_si512(p)"
    assert compiled._C_SOURCE.count(start) == 1
    matrix = bsp_matrix()
    x = new_rng(5).standard_normal((64, 8))
    want = reference.bspc_spmm_int8(matrix, x)
    np.testing.assert_array_equal(spmm_int8(matrix, x, "compiled"), want)
    load_wrong_build(
        tmp_path,
        monkeypatch,
        lambda c: c.replace(start, "#define LANES_INIT(p) _mm512_setzero_si512()"),
    )
    for batch in (1, 8):
        got = spmm_int8(matrix, x[:, :batch], "compiled")
        assert not np.array_equal(got, want[:, :batch])
    got = spmv_int8(matrix, x[:, 0], "compiled")
    assert not np.array_equal(got, ref_column(matrix, x[:, 0]))


@requires_vbmi
def test_comparing_against_the_wrong_operand_block_fails_the_layout_property(
    tmp_path, monkeypatch
):
    # each permute of the gather takes the columns whose 128-byte block is
    # the one it loaded; picking the neighbouring block's columns gathers
    # the wrong codes (or none)
    from test_int8_routing import test_random_bspc_layouts_are_the_reference_bytes as layouts

    pick = "_mm512_set1_epi8((char)b)"
    assert compiled._C_SOURCE.count(pick) == 1
    layouts()
    load_wrong_build(
        tmp_path, monkeypatch, lambda c: c.replace(pick, "_mm512_set1_epi8((char)(b ^ 1))")
    )
    with pytest.raises(AssertionError):
        layouts()


@requires_compiler
def test_scratch_sized_for_the_last_op_writes_past_the_arena(tmp_path, monkeypatch):
    # the product's scratch is the arena's last piece: carved for the output
    # op (the least needy) instead of the neediest, the wider products write
    # into the guard bytes past the size the C asks for, and the scratch the
    # layout gives falls short of what test_plan_program pins it to
    from test_plan_program import guard_arenas, neediest_scratch, scratch_bytes

    load_second_build(
        tmp_path, monkeypatch,
        edit=lambda source: source.replace(
            "if (op_work(ops + i) > work) work = op_work(ops + i);",
            "if (i == count - 1) work = op_work(ops + i);",
        ),
    )
    fresh = guard_arenas(monkeypatch, guard=1 << 16)
    monkeypatch.setattr(compiled, "_SCRATCH", threading.local())
    plan = bsp_int8_plan()
    plan.run_chunk(new_rng(1).standard_normal((8, 1, 8)))
    assert scratch_bytes(plan.program) < neediest_scratch(plan)
    assert any((raw[size:] != 0xA5).any() for raw, size in fresh)


# ---------------------------------------------------------------------------
# The builds this host's own skips: the same bytes, the golden digest
# ---------------------------------------------------------------------------
@requires_vbmi
def test_the_build_without_vbmi_streams_the_same_bytes(tmp_path, monkeypatch):
    # the byte-by-byte gather of the quad form, which this host's own
    # build replaces with permutes; its packs hold no selectors
    native, permuted = streamed_auto_plan(), packed_bytes()
    load_second_build(tmp_path, monkeypatch, flags=("-march=native", "-mno-avx512vbmi"))
    assert (compiled.lanes(), compiled.kgroup()) == (16, 4)
    assert packed_bytes() < permuted
    assert streamed_auto_plan() == native
    assert lowered_golden() == GOLDEN
    for batch in (1, 2, 8, 9, 16):
        x = new_rng(batch).standard_normal((300, batch))
        for matrix in (bsp_matrix(), bsp_matrix(shape=(48, 300))):
            np.testing.assert_array_equal(
                spmm_int8(matrix, x[: matrix.grid.cols], "compiled"),
                reference.bspc_spmm_int8(matrix, x[: matrix.grid.cols]),
            )


@requires_vnni
def test_the_build_without_vnni_streams_the_same_bytes(tmp_path, monkeypatch):
    # the pair / pmaddwd form of the same microkernel, which this host's
    # own build leaves out
    native = streamed_auto_plan()
    load_second_build(tmp_path, monkeypatch, flags=("-march=native", "-mno-avx512vnni"))
    assert (compiled.lanes(), compiled.kgroup()) == (16, 2)
    assert streamed_auto_plan() == native
    assert lowered_golden() == GOLDEN
    for batch in (1, 2, 8, 9, 16):
        x = new_rng(batch).standard_normal((64, batch))
        np.testing.assert_array_equal(
            spmm_int8(bsp_matrix(), x, "compiled"),
            reference.bspc_spmm_int8(bsp_matrix(), x),
        )


@requires_compiler
def test_a_plain_o3_build_streams_the_same_bytes(tmp_path, monkeypatch):
    # No -march=native: the lanes kernel and the reciprocal quantizer are
    # compiled out, every product runs the portable register block and the
    # gate sweep's vectors are split into whatever the baseline ISA has —
    # the paths an AVX host's own build never takes.
    native = streamed_auto_plan()
    load_second_build(tmp_path, monkeypatch, flags=())
    assert (compiled.lanes(), compiled.kgroup()) == (0, 0)
    assert streamed_auto_plan() == native
    assert lowered_golden() == GOLDEN
    # ... and the product by itself, dense and sparse
    codes, scale = kernels.int8_codes(new_rng(6).standard_normal((20, 9)))
    rows = new_rng(7).standard_normal((4, 9))
    np.testing.assert_array_equal(
        linear_int8_rowwise(codes, scale, rows, "compiled"),
        reference.linear_int8_rowwise(codes, scale, rows),
    )
    x = new_rng(8).standard_normal((64, 3))
    np.testing.assert_array_equal(
        spmm_int8(bsp_matrix(), x, "compiled"),
        reference.bspc_spmm_int8(bsp_matrix(), x),
    )


@requires_compiler
def test_a_plain_o3_build_splits_chunks_to_the_same_bytes(tmp_path, monkeypatch):
    # the two halves of a split chunk on the portable register block
    from test_plan_program import cores, split_bytes, split_steps

    plan = bsp_int8_plan(sparse_format="auto")
    native = split_bytes(plan, 8, split_steps(plan, 8), 3)
    load_second_build(tmp_path, monkeypatch, flags=())
    lib = compiled._library()
    entry, threads = lib.repro_plan_i8_chunk, []
    monkeypatch.setattr(
        lib, "repro_plan_i8_chunk", lambda *args: threads.append(entry(*args)) or threads[-1]
    )
    plan = bsp_int8_plan(sparse_format="auto")
    assert split_bytes(plan, 8, split_steps(plan, 8), 3) == native
    assert threads[0] == cores()


@requires_lanes
def test_the_eight_row_build_streams_the_same_bytes(tmp_path, monkeypatch):
    # the same microkernel source at the AVX2 width, on a host whose own
    # build keeps sixteen rows
    if compiled.lanes() != 16:
        pytest.skip("this host's own build is the eight-row one")
    native = streamed_auto_plan()
    load_second_build(tmp_path, monkeypatch, flags=("-mavx2", "-mfma"))
    assert (compiled.lanes(), compiled.kgroup()) == (8, 2)
    assert streamed_auto_plan() == native
    assert lowered_golden() == GOLDEN
    for batch in (1, 2, 8, 9):
        x = new_rng(batch).standard_normal((64, batch))
        np.testing.assert_array_equal(
            spmm_int8(bsp_matrix(), x, "compiled"),
            reference.bspc_spmm_int8(bsp_matrix(), x),
        )


# ---------------------------------------------------------------------------
# The phase-counter build
# ---------------------------------------------------------------------------
@requires_compiler
def test_phase_counters_are_each_positive_and_nest_inside_the_chunk(tmp_path, monkeypatch):
    assert compiled.phase_ticks() is None  # the library a process loads has none
    # dequant and bias are one pass over the output rows
    assert compiled.PHASES == ("quantize", "gather", "mac", "epilogue", "gates", "chunk")
    monkeypatch.setattr(compiled, "_LIB", compiled.build_library(cache=tmp_path, phases=True))
    plan = bsp_int8_plan()
    assert plan.program is not None
    compiled.phase_ticks()  # read: cleared
    plan.run_chunk(np.ones((4, 3, 8)))
    ticks = compiled.phase_ticks()
    assert set(ticks) == set(compiled.PHASES)
    chunk = ticks.pop("chunk")
    assert all(count > 0 for count in ticks.values()), ticks
    assert sum(ticks.values()) <= chunk
    assert not any(compiled.phase_ticks().values())


@requires_compiler
def test_phase_counters_are_per_thread_and_a_split_chunk_counts_both_halves(
    tmp_path, monkeypatch
):
    # the helper of a split chunk adds its counters, `chunk` too, into its
    # caller's at the join: the five phases still nest inside `chunk`, and
    # they count the CPU ticks of both halves, about what the same chunk
    # takes on one core; a Python thread reads and clears its own counters
    from test_plan_program import cores, split_steps

    monkeypatch.setattr(compiled, "_LIB", compiled.build_library(cache=tmp_path, phases=True))
    plan = bsp_int8_plan()
    x = np.ones((split_steps(plan, 8), 8, 8))

    def phases(runs=5):
        compiled.phase_ticks()
        sums = []
        for _ in range(runs):
            plan.run_chunk(x)
            ticks = compiled.phase_ticks()
            chunk = ticks.pop("chunk")
            assert all(count > 0 for count in ticks.values()), ticks
            assert sum(ticks.values()) <= chunk
            sums.append(sum(ticks.values()))
        return np.median(sums)

    split = phases()
    if cores() == 2:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})  # this thread: the chunk runs whole
        try:
            whole = phases()
        finally:
            os.sched_setaffinity(0, allowed)
        assert split > 0.75 * whole, (split, whole)

    theirs = []
    worker = threading.Thread(
        target=lambda: (plan.run_chunk(x), theirs.append(compiled.phase_ticks()))
    )
    worker.start()
    worker.join(timeout=60)
    assert theirs and all(count > 0 for count in theirs[0].values())
    assert not any(compiled.phase_ticks().values())
