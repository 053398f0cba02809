"""pytest plugin: every build of the C kernel library under AddressSanitizer
and UndefinedBehaviorSanitizer.

Loaded with ``-p sanitize_plugin`` (``tools/`` on ``PYTHONPATH``) in a
process that preloads the sanitizer runtimes, because CPython itself is
not instrumented::

    LD_PRELOAD="$(gcc -print-file-name=libasan.so) $(gcc -print-file-name=libubsan.so)" \\
    ASAN_OPTIONS=detect_leaks=0 PYTHONPATH=src:tools \\
    python -m pytest -p sanitize_plugin -q tests/test_plan_program.py

Each build of the library swaps the library's ``-O3`` for :data:`FLAGS`
and goes to a cache directory of its own (``sanitized/`` under the
library's cache), so a sanitized ``.so`` never takes the name of a normal
one.  ``-O2``, not ``-O1``: at ``-O1`` an AVX-512 intrinsic's immediate is
not folded, the ``-march=native`` build fails and the library falls back,
silently, to the portable kernels.  A UB report aborts the process
(``-fno-sanitize-recover``), as an ASan report does by default.
"""

from __future__ import annotations

import os

FLAGS = (
    "-O2",
    "-g",
    "-fno-omit-frame-pointer",
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=undefined",
)


def sanitize() -> None:
    """Route every later build of the library through :data:`FLAGS`, into
    the sanitized cache directory (inherited by forked and spawned
    children through ``REPRO_COMPILED_CACHE``)."""
    from repro.kernels import compiled

    os.environ["REPRO_COMPILED_CACHE"] = str(compiled.cache_dir() / "sanitized")
    build = compiled._compile

    def sanitized(cc, src_path, out_path, flags):
        build(cc, src_path, out_path, tuple(f for f in flags if f != "-O3") + FLAGS)

    compiled._compile = sanitized


def pytest_configure(config) -> None:
    sanitize()
