"""Vectorized execution backend with a pluggable kernel registry.

Hot numerical paths of the library dispatch through this package:

* :func:`spmv` / :func:`spmm` — sparse matrix × vector/matrix for any
  matrix exposing a ``kernel_prefix`` (``CSRMatrix``, ``BSPCMatrix``),
* :func:`gru_sequence` — the fused full-sequence recurrent layer used by
  ``GRU.forward`` in eval mode.

Backend selection::

    from repro import kernels

    kernels.set_default_backend("reference")     # global
    with kernels.use_backend("reference"): ...   # lexical
    kernels.spmv(matrix, x, backend="numpy")     # per call

With none of these (and no ``REPRO_KERNEL_BACKEND``), every op dispatches
to numpy + BLAS.  The backends are ``numpy`` and ``reference``; the
compiled C (:mod:`repro.kernels.compiled`) is not one of them: an int8
engine plan lowers to it, one program per chunk, wherever a compiler exists
and no backend was chosen, and the choice of a backend is the choice of
the generic loop's (``docs/engine.md``); by the same rule
:func:`gru_sequence_grad` runs its two time loops in it
(``docs/training.md``).  Importing this package builds and loads nothing;
the first int8 lowering or training step does.  Int8 has one sparse format,
BSPC: there is no int8 CSR op (``spmv_int8`` of a ``CSRMatrix`` is a
:class:`~repro.errors.KernelError`), and an int8 engine plan packs every
sparse weight as BSPC panels.

See ``docs/kernels.md`` for the plan/registry design and how to add a
backend.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigError, KernelError
from repro.kernels import numpy_backend, quantized, reference  # noqa: F401  (register backends)
from repro.kernels import compiled  # noqa: F401  (registers nothing; builds nothing yet)
from repro.kernels.plans import (
    BSPCPlan,
    CSRPlan,
    bspc_plan,
    csr_plan,
)
from repro.kernels.quantized import (
    Int8BSPCPlan,
    int8_bspc_plan,
    int8_codes,
    int8_codes_axis,
)
from repro.kernels.registry import (
    KernelRegistry,
    get_default_backend,
    registry,
    set_default_backend,
    use_backend,
)

__all__ = [
    "KernelRegistry",
    "registry",
    "backends",
    "resolve_backend",
    "compiled",
    "set_default_backend",
    "get_default_backend",
    "use_backend",
    "CSRPlan",
    "BSPCPlan",
    "csr_plan",
    "bspc_plan",
    "Int8BSPCPlan",
    "int8_bspc_plan",
    "int8_codes",
    "int8_codes_axis",
    "spmv",
    "spmm",
    "spmv_int8",
    "spmm_int8",
    "linear_int8",
    "linear_int8_rowwise",
    "gru_sequence",
    "gru_sequence_grad",
]


def backends() -> Tuple[str, ...]:
    """The registered backend names (what a tuned plan's ``backend``
    attribute or the CLI ``--kernel-backend`` flag may name): the generic
    loop's, ``("numpy", "reference")``."""
    return tuple(registry.backends())


def _matrix_op(matrix, op: str) -> str:
    prefix = getattr(matrix, "kernel_prefix", None)
    if prefix is None:
        raise KernelError(
            f"{type(matrix).__name__} does not declare a kernel_prefix; "
            "cannot dispatch sparse kernels for it"
        )
    return f"{prefix}_{op}"


def spmv(matrix, x: np.ndarray, backend: Optional[str] = None) -> np.ndarray:
    """Sparse matrix × dense vector through the registry."""
    return registry.get(_matrix_op(matrix, "spmv"), backend)(matrix, x)


def spmm(matrix, x: np.ndarray, backend: Optional[str] = None) -> np.ndarray:
    """Sparse matrix × dense matrix through the registry."""
    return registry.get(_matrix_op(matrix, "spmm"), backend)(matrix, x)


def spmv_int8(matrix, x: np.ndarray, backend: Optional[str] = None) -> np.ndarray:
    """Int8 sparse matrix × dense vector (weights and activations
    quantized, integer accumulation, one dequant at the end: float32, by
    :func:`~repro.kernels.quantized.dequantize` on every backend)."""
    return registry.get(_matrix_op(matrix, "spmv_int8"), backend)(matrix, x)


def spmm_int8(matrix, x: np.ndarray, backend: Optional[str] = None) -> np.ndarray:
    """Int8 sparse matrix × dense matrix through the registry."""
    return registry.get(_matrix_op(matrix, "spmm_int8"), backend)(matrix, x)


def linear_int8(
    codes: np.ndarray, scale: float, x: np.ndarray, backend: Optional[str] = None
) -> np.ndarray:
    """Dense int8 projection ``x @ codes.T`` with integer accumulation
    and one activation scale per call."""
    return registry.get("linear_int8", backend)(codes, scale, x)


def linear_int8_rowwise(
    codes: np.ndarray, scale: float, x: np.ndarray, backend: Optional[str] = None
) -> np.ndarray:
    """Dense int8 projection with one activation scale per *row* of ``x``
    (per frame) — each row's result is independent of the rest of the
    batch, so int8 plans stay bitwise chunk-exact under streaming
    execution.  This is the op the engine's generic loop uses for dense
    int8 weights."""
    return registry.get("linear_int8_rowwise", backend)(codes, scale, x)


def gru_sequence(
    x: np.ndarray,
    w_ih: np.ndarray,
    w_hh: np.ndarray,
    b_ih: np.ndarray,
    b_hh: np.ndarray,
    h0: np.ndarray,
    backend: Optional[str] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One GRU layer over a ``(T, B, D)`` sequence → ``(outputs, h_T)``."""
    return registry.get("gru_sequence", backend)(x, w_ih, w_hh, b_ih, b_hh, h0)


def gru_sequence_grad(
    x: np.ndarray,
    w_ih: np.ndarray,
    w_hh: np.ndarray,
    b_ih: np.ndarray,
    b_hh: np.ndarray,
    h0: np.ndarray,
    batch_sizes: Optional[np.ndarray] = None,
    backend: Optional[str] = None,
):
    """Trainable GRU layer: full-sequence forward plus a BPTT closure.

    ``x`` is a packed batch, ``(N, D)`` frames with ``batch_sizes`` the
    live rows of each step (:mod:`repro.kernels.packed`), or with
    ``batch_sizes=None`` an equal-length ``(T, B, D)``.  Returns
    ``(outputs, h_T, backward)`` — outputs shaped like ``x``, ``h_T`` each
    row's state at its last step — where ``backward(grad_out,
    grad_h_T=None)`` yields ``(dx, dw_ih, dw_hh, db_ih, db_hh, dh0)``.  The
    ``reference`` backend runs the autograd tape (ground truth); ``numpy``
    is the fused stash-and-batch BPTT used by ``GRU.forward`` in training
    mode.  With no backend in force (none per call, none chosen) and the C
    library available, the same fused BPTT runs its two time loops in C —
    the int8 lowering's rule; otherwise numpy's loops run them.
    """
    if backend is None and registry.chosen_backend is None and compiled.available():
        return numpy_backend.gru_sequence_grad(
            x, w_ih, w_hh, b_ih, b_hh, h0, batch_sizes, compiled_loops=True
        )
    return registry.get("gru_sequence_grad", backend)(
        x, w_ih, w_hh, b_ih, b_hh, h0, batch_sizes
    )


def resolve_backend(name: str, source: str = "backend") -> str:
    """Validate a user-supplied backend name against the registry.

    Raises a typed :class:`~repro.errors.ConfigError` naming the
    available backends — the shared validation for
    ``REPRO_KERNEL_BACKEND``, ``--kernel-backend``, and ``tune_plan``'s
    backend axis, all of which take free-form strings from outside the
    library.
    """
    if name not in backends():
        raise ConfigError(
            f"{source} names unknown kernel backend {name!r}; "
            f"available: {', '.join(backends())}"
        )
    return name


# The REPRO_KERNEL_BACKEND environment variable selects the process-wide
# default backend at import time — how CI runs the whole test suite under
# each backend without touching test code.  An unknown name fails fast
# with a typed ConfigError listing what is registered.
_env_backend = os.environ.get("REPRO_KERNEL_BACKEND")
if _env_backend:
    set_default_backend(resolve_backend(_env_backend, "REPRO_KERNEL_BACKEND"))
del _env_backend
