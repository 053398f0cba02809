"""Host/meta block and the BLAS-thread pin.

The pins must be in the environment before numpy is first imported, so
:func:`pin_blas_threads` is called at the very top of ``run.py`` and the
environment is inherited by every subprocess it starts.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict

PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent


def pin_blas_threads() -> None:
    for name in PIN_VARS:
        os.environ[name] = "1"


def check_blas_pinned() -> int:
    """Hard error unless BLAS really runs single-threaded.

    A multi-threaded BLAS starts its worker pool on the first large
    matmul, which shows up as extra OS threads of this process; with the
    pins in effect the count stays at 1.  (On this 2-core box an unpinned
    OpenBLAS made the same stream pass read 120 ms or 17 ms at random.)
    """
    import numpy as np

    a = np.ones((256, 256))
    a @ a
    status = Path("/proc/self/status")
    if not status.exists():  # not Linux: the pins cannot be verified
        return 0
    threads = next(
        int(line.split()[1])
        for line in status.read_text().splitlines()
        if line.startswith("Threads:")
    )
    if threads != 1:
        raise SystemExit(
            f"BLAS thread pins did not take effect: {threads} OS threads after a "
            f"matmul (set {', '.join(PIN_VARS)}=1 before numpy is imported)"
        )
    return threads


def _first_line(command) -> str:
    try:
        out = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unavailable"


def launcher_meta() -> Dict[str, object]:
    """The part of the meta block that needs no numpy (one per run)."""
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "cc_version": _first_line([os.environ.get("REPRO_CC", "cc"), "--version"]),
        "git_commit": _first_line(["git", "rev-parse", "HEAD"]),
        "thread_env": {name: os.environ.get(name) for name in PIN_VARS},
    }


def program_meta() -> Dict[str, object]:
    """The part that describes numpy/BLAS and the program's kernels."""
    import numpy as np
    from repro import kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_os_threads": check_blas_pinned(),
        "kernel_backends": list(kernels.backends()),
        "default_kernel_backend": kernels.get_default_backend(),
        "compiled_cache": os.environ.get("REPRO_COMPILED_CACHE"),
    }

