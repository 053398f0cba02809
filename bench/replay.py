"""Per-kernel timings measured from outside, by replay.

The program has no tracing inside ``ModelPlan`` yet, so the split of
``run_chunk`` time into kernels and per-timestep dispatch is *estimated*:
every weight slot of the plan's public layer graph is re-packed the way
the plan packs it, the kernel the plan would call is replayed through the
public ``repro.kernels`` entry points at each column count the traced
passes actually used, and the medians are multiplied by the call counts.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro import kernels
from repro.compiler.ir import OP_RECURRENT_MATVEC
from repro.compiler.passes import slot_grid
from repro.sparse.bspc import BSPCMatrix

REPEATS = 9


def median_us(fn: Callable[[], object], repeats: int = REPEATS) -> float:
    fn()
    fn()
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        samples.append(perf_counter() - start)
    return statistics.median(samples) * 1e6


def slot_kernel(slot) -> Optional[Tuple[str, Callable[[int], Callable[[], object]]]]:
    """``(kernel name, n -> replay closure)`` for one weight slot, or
    ``None`` when the slot's (scheme, format) is one this file does not
    model (the estimate then simply leaves it out)."""
    rows, cols = slot.shape
    rng = np.random.default_rng(rows * 31 + cols)
    config = (slot.scheme, slot.format)
    if config == ("int8", "bspc"):
        matrix = BSPCMatrix.from_dense(slot.array, slot_grid(slot))
        kernels.int8_bspc_plan(matrix)

        def make(n: int):
            x = rng.standard_normal((cols, n))
            return lambda: kernels.spmm_int8(matrix, x)

        return "bspc_spmm_int8", make
    if config == ("int8", "dense") and slot.op != OP_RECURRENT_MATVEC:
        codes, scale = kernels.int8_codes(slot.array)
        codes_f = codes.astype(np.float32)

        def make(n: int):
            x = rng.standard_normal((n, cols))
            return lambda: kernels.linear_int8_rowwise(codes_f, scale, x)

        return "linear_int8", make
    if config == ("float", "dense"):
        # The plan keeps recurrent weights pre-transposed and contiguous
        # and projects inputs through the transposed view.
        weight_t = (
            np.ascontiguousarray(slot.array.T)
            if slot.op == OP_RECURRENT_MATVEC
            else slot.array.T
        )

        def make(n: int):
            x = rng.standard_normal((n, cols))
            out = np.empty((n, rows))
            return lambda: np.matmul(x, weight_t, out=out)

        return "dense_gemm", make
    return None


class KernelReplay:
    """Replays a plan's kernels; memoizes one median per (slot, n)."""

    def __init__(self, plan) -> None:
        self._slots = []
        self.unmodelled = []
        for _, _, slot in plan.graph.slots():
            kernel = slot_kernel(slot)
            if kernel is None:
                self.unmodelled.append(f"{slot.name}:{slot.scheme}/{slot.format}")
            else:
                self._slots.append((slot, kernel[0], kernel[1]))
        self._cache: Dict[Tuple[str, int], float] = {}

    def slot_us(self, slot, make, n: int) -> float:
        key = (slot.name, n)
        if key not in self._cache:
            self._cache[key] = median_us(make(n))
        return self._cache[key]

    def chunk_us(self, frames: int, batch: int) -> float:
        """Estimated kernel time of one ``run_chunk`` on ``(T, B)``:
        recurrent slots run T times on B columns, projections once on
        T·B columns."""
        total = 0.0
        for slot, _, make in self._slots:
            if slot.op == OP_RECURRENT_MATVEC:
                total += frames * self.slot_us(slot, make, batch)
            else:
                total += self.slot_us(slot, make, frames * batch)
        return total

    def named_us(self, name: str, recurrent: bool, n: int) -> float:
        """Median of the first slot lowered to kernel ``name`` (recurrent
        or projection), replayed on ``n`` columns; 0.0 if the plan has
        no such slot."""
        for slot, kernel, make in self._slots:
            if kernel == name and (slot.op == OP_RECURRENT_MATVEC) == recurrent:
                return self.slot_us(slot, make, n)
        return 0.0
