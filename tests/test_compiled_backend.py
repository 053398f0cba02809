"""The compiled C library's build/cache machinery and failure modes.

Numerical agreement lives in ``test_int8_routing.py`` and
``test_plan_program.py``; this file covers everything around it: content-
hash caching of the built ``.so``, the lazy first load, the typed
:class:`~repro.errors.CompileBackendError` degradation path when no
working compiler exists, and the measured tuner on the program.
"""

import ctypes
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from repro import engine
from repro.errors import CompileBackendError
from repro.kernels import compiled, reference
from repro.speech.model import AcousticModelConfig, GRUAcousticModel
from test_int8_routing import ref_column

requires_compiler = pytest.mark.skipif(
    not compiled.available(), reason="no working C compiler on this host"
)


@pytest.fixture
def fresh_state():
    """Run a test against pristine module state, then restore the
    process-wide handle (other tests rely on the loaded library)."""
    lib, err = compiled._LIB, compiled._LOAD_ERROR
    compiled._reset_for_tests()
    try:
        yield
    finally:
        compiled._LIB, compiled._LOAD_ERROR = lib, err


def tiny_model():
    return GRUAcousticModel(
        AcousticModelConfig(input_dim=8, hidden_size=12, num_layers=1), rng=0
    ).eval()


# ---------------------------------------------------------------------------
# Build + cache
# ---------------------------------------------------------------------------
@requires_compiler
class TestBuildCache:
    def test_so_cached_on_disk_and_reused(self, fresh_state, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED_CACHE", str(tmp_path))
        lib = compiled.build_library()
        assert isinstance(lib, ctypes.CDLL)
        sos = sorted(tmp_path.glob("repro_kernels_*.so"))
        assert len(sos) == 1
        stamp = sos[0].stat().st_mtime_ns
        compiled.build_library()  # cache hit: same file, no rebuild
        assert sorted(tmp_path.glob("repro_kernels_*.so")) == sos
        assert sos[0].stat().st_mtime_ns == stamp

    def test_cache_key_covers_source_and_compiler(self):
        key = compiled._source_key("cc", ("-O3",))
        assert key != compiled._source_key("clang", ("-O3",))
        assert key != compiled._source_key("cc", ("-O2",))

    def test_native_cache_key_covers_the_cpu_and_the_plain_key_does_not(
        self, monkeypatch
    ):
        # a -march=native .so from a cache another host filled may hold
        # instructions this one lacks; the portable build runs anywhere
        native, plain = ("-march=native", "-O3"), ("-O3",)
        assert compiled._host_isa().strip()
        keys = []
        for isa in ("flags\t: fpu avx2 avx512bw avx512_vnni\n", "flags\t: fpu avx2 avx512bw\n"):
            monkeypatch.setattr(compiled, "_host_isa", lambda isa=isa: isa)
            keys.append(
                (compiled._source_key("cc", native), compiled._source_key("cc", plain))
            )
        (native_a, plain_a), (native_b, plain_b) = keys
        assert native_a != native_b and plain_a == plain_b

    def test_library_handle_is_process_cached(self, fresh_state):
        assert compiled._library() is compiled._library()

    def test_corrupt_cached_so_raises_typed_error(self, fresh_state, tmp_path,
                                                  monkeypatch):
        # Plant garbage at the exact cache path *before* the first load:
        # a stale/corrupt cache entry must surface as the typed error,
        # not a raw OSError (and never silently rebuild over it).
        monkeypatch.setenv("REPRO_COMPILED_CACHE", str(tmp_path))
        cc = compiled.compiler_command()
        flags = ("-march=native", "-O3", "-shared", "-fPIC",
                 "-fvisibility=hidden")
        key = compiled._source_key(cc, flags)
        (tmp_path / f"repro_kernels_{key}.so").write_bytes(b"not an ELF")
        with pytest.raises(CompileBackendError):
            compiled._library()


@requires_compiler
def test_generated_source_has_no_orphans():
    # A static helper left without a caller fails here, not lingers; the
    # compiler cannot see an exported entry nothing binds, so those are
    # matched against the ctypes signature table, both ways.
    def check(*flags):
        return subprocess.run(
            [compiled.compiler_command(), "-O0", *flags, "-Werror=unused-function",
             "-c", "-o", os.devnull, "-x", "c", "-"],
            input=compiled._C_SOURCE.encode(), stderr=subprocess.PIPE, timeout=120,
        )

    done = check("-march=native")
    if done.returncode and b"unused-function" not in done.stderr:
        done = check()  # no -march=native here: the build falls back alike
    assert done.returncode == 0, done.stderr.decode()

    class Declared:
        def __init__(self):
            self.names = set()

        def __getattr__(self, name):
            self.names.add(name)
            return types.SimpleNamespace()

    lib = Declared()
    compiled._declare(lib)
    exported = re.findall(r"^API [^(]*?(\w+)\(", compiled._C_SOURCE, re.M)
    assert sorted(exported) == sorted(lib.names)


# ---------------------------------------------------------------------------
# Graceful degradation without a compiler
# ---------------------------------------------------------------------------
class TestDegradation:
    def test_broken_cc_records_typed_error_once(self, fresh_state, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_CC", str(tmp_path / "no-such-cc"))
        monkeypatch.setenv("REPRO_COMPILED_CACHE", str(tmp_path / "cache"))
        assert not compiled.available()
        err = compiled.load_error()
        assert isinstance(err, CompileBackendError)
        with pytest.raises(CompileBackendError):
            compiled._library()
        assert compiled.load_error() is err  # recorded once, not re-probed

    def test_failing_cc_surfaces_compiler_output(self, fresh_state, tmp_path,
                                                 monkeypatch):
        bad_cc = tmp_path / "bad-cc"
        bad_cc.write_text("#!/bin/sh\necho 'synthetic failure' >&2\nexit 1\n")
        bad_cc.chmod(0o755)
        monkeypatch.setenv("REPRO_CC", str(bad_cc))
        monkeypatch.setenv("REPRO_COMPILED_CACHE", str(tmp_path / "cache"))
        with pytest.raises(CompileBackendError, match="synthetic failure"):
            compiled.build_library()

    def test_import_builds_nothing_and_the_first_int8_lowering_records_why(
        self, tmp_path
    ):
        # A failing compiler and an empty cache: importing the library
        # neither builds nor loads the C, the first int8 lowering tries, and
        # the plan runs the generic loop with the typed error recorded.
        failing = tmp_path / "failing-cc"
        failing.write_text("#!/bin/sh\necho 'synthetic failure' >&2\nexit 1\n")
        failing.chmod(0o755)
        cache = tmp_path / "cache"
        script = (
            "import repro\n"
            "from repro import engine\n"
            "from repro.errors import CompileBackendError\n"
            "from repro.kernels import compiled\n"
            "from repro.speech.model import AcousticModelConfig, GRUAcousticModel\n"
            "assert compiled.load_error() is None and compiled._LIB is None\n"
            "model = GRUAcousticModel(AcousticModelConfig(input_dim=8, hidden_size=12,"
            " num_layers=1), rng=0).eval()\n"
            "engine.compile_model(model)  # a float plan asks for nothing\n"
            "assert compiled.load_error() is None\n"
            "plan = engine.compile_model(model, scheme='int8')\n"
            "assert plan.program is None\n"
            "assert isinstance(compiled.load_error(), CompileBackendError)\n"
            "assert 'synthetic failure' in str(compiled.load_error())\n"
        )
        env = dict(os.environ)
        src = Path(engine.__file__).resolve().parents[2]
        env.update(
            REPRO_CC=str(failing), REPRO_COMPILED_CACHE=str(cache),
            PYTHONPATH=os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")])),
        )
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert not done.stderr, done.stderr
        assert not list(cache.glob("*.so"))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: np.zeros((3, 4)), id="contiguous"),
        pytest.param(lambda: np.zeros((5, 4), np.float32)[2:], id="offset-view"),
        pytest.param(lambda: np.asfortranarray(np.zeros((3, 4))), id="fortran"),
        pytest.param(lambda: np.zeros((3, 8), np.int8)[:, ::2], id="strided"),
        pytest.param(lambda: np.zeros(0), id="empty"),
        pytest.param(lambda: np.broadcast_to(np.zeros(4), (4,)), id="read-only"),
    ],
)
def test_an_address_is_the_arrays_data_pointer(make):
    # the buffer-protocol address where it applies, .ctypes.data elsewhere
    array = make()
    assert compiled._p(array) == array.ctypes.data


# ---------------------------------------------------------------------------
# int8 BSPC microkernel dispatch (one kernel family, every batch width)
# ---------------------------------------------------------------------------
@requires_compiler
class TestAccumulatorStamps:
    """The float tile stamps are gone: every batch width runs the narrow
    integer kernel, whose int32 sums must stay exact — the rows-in-lanes
    microkernel while a strip's extent fits one accumulator
    (``mc <= ACC_CHUNK``), the chunk-flushing register block past it — and
    bitwise equal to the oracle either way."""

    def test_stamp_selection(self, monkeypatch):
        # Which path a shape takes, and that it is exact there: 16 columns
        # and more walk the same kernel in blocks of eight (the work
        # buffer is sized for eight: anything wider would overrun it), on
        # the packed lanes panel wherever the build has that microkernel.
        from repro.sparse.blocks import grid_for
        from repro.sparse.bspc import BSPCMatrix
        from repro.utils.rng import new_rng

        calls = []
        narrow_call = compiled._narrow_call

        def spy(panel, n, batch):
            calls.append((batch, panel.acc > 0))
            return narrow_call(panel, n, batch)

        monkeypatch.setattr(compiled, "_narrow_call", spy)
        chunk = compiled.ACC_CHUNK
        for cols, strips in ((341, 3), (512, 2), (1025, 1), (chunk, 1), (chunk + 1, 1)):
            lanes = bool(compiled.lanes()) and cols <= chunk
            rng = new_rng(cols)
            weight = rng.standard_normal((2 * strips, cols))
            weight[0] = np.abs(weight).max()  # a row of 127s: the largest sums
            m = BSPCMatrix.from_dense(weight, grid_for(weight, strips, 1))
            x = rng.standard_normal((cols, 17))
            x[:, 0] = 1.0  # every code 127
            del calls[:]
            for batch in (16, 17, 15, 1):
                np.testing.assert_array_equal(
                    compiled.product(m, x[:, :batch].T).T,
                    reference.bspc_spmm_int8(m, x[:, :batch]),
                )
            np.testing.assert_array_equal(
                compiled.product(m, x[None, :, 0])[0],
                ref_column(m, x[:, 0]),
            )
            assert calls == [(8, lanes)] * 3 + [(1, lanes)] * 2


# ---------------------------------------------------------------------------
# tune_plan on the program
# ---------------------------------------------------------------------------
@requires_compiler
def test_tune_plan_on_the_program_keeps_speedup_invariant(rng):
    from repro.compiler.autotune import tune_plan

    result = tune_plan(
        tiny_model(),
        rng.standard_normal((12, 2, 8)),
        schemes=("int8",),
        repeats=1,
    )
    # the tuned winner can never be slower than the measured baseline
    assert result.speedup >= 1.0
    assert result.plan.program is not None
