"""Analytic execution of a :class:`~repro.compiler.ir.KernelPlan` on a
:class:`~repro.hw.device.DeviceSpec`.

Per layer, the model charges:

* **compute time** — ``(flops + gather instructions) / (throughput ×
  parallel_efficiency × balance)``.  Gather instructions are the per-tile
  input loads left after the compiler's redundant-load-elimination pass
  (they hit on-chip cache, so they cost issue slots, not DRAM);
  ``parallel_efficiency`` captures small kernels failing to fill the
  machine; ``balance ≤ 1`` is the load-balance factor derived from the
  actual per-thread work distribution of the reorder pass's row groups
  (mean-thread work vs. max).  Without reorder, rows with divergent
  patterns share threads and the imbalance penalty appears — exactly the
  thread-divergence issue Section IV-B(a) describes.
* **memory time** — layer traffic (weights once, distinct activations and
  outputs per timestep) at sustained bandwidth.
* Compute and memory overlap (double buffering), so a layer costs
  ``max(compute, memory)``; each layer additionally pays one kernel launch
  per timestep.

The returned :class:`SimulationResult` carries the Table II quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Union

import numpy as np

from repro.compiler.ir import KernelPlan, LayerPlan
from repro.errors import SimulationError
from repro.hw.device import DeviceSpec
from repro.hw.memory import layer_traffic
from repro.sparse.blocks import grid_for
from repro.sparse.bspc import BSPCMatrix
from repro.sparse.csr import CSRMatrix


@dataclass(frozen=True)
class LayerTiming:
    """Cost breakdown for one layer over a full inference."""

    name: str
    compute_us: float
    memory_us: float
    overhead_us: float
    balance: float
    parallel_efficiency: float

    @property
    def busy_us(self) -> float:
        """Overlapped compute/memory time plus launch overhead."""
        return max(self.compute_us, self.memory_us) + self.overhead_us


@dataclass
class SimulationResult:
    """Outcome of simulating one inference frame."""

    device_name: str
    layers: List[LayerTiming]
    latency_us: float
    flops: int

    @property
    def gops(self) -> float:
        """Achieved giga-operations per second (Table II's GOP/s column)."""
        if self.latency_us == 0:
            return 0.0
        return self.flops / self.latency_us / 1e3

    @property
    def compute_us(self) -> float:
        return sum(layer.compute_us for layer in self.layers)

    @property
    def memory_us(self) -> float:
        return sum(layer.memory_us for layer in self.layers)

    @property
    def overhead_us(self) -> float:
        return sum(layer.overhead_us for layer in self.layers)


def thread_balance(layer: LayerPlan, num_threads: int) -> float:
    """Load-balance factor in (0, 1]: mean thread work / max thread work.

    Rows are assigned greedily in tile-sized chunks, longest-processing-
    time-first, group by group (tiles never mix groups).  With reorder,
    rows in a tile share patterns so chunk workloads are nearly equal;
    without it, a tile can pair a heavy row with empty ones.
    """
    if not layer.groups:
        return 1.0
    tile_rows = layer.tile.rows_per_thread
    chunks: List[int] = []
    for group in layer.groups:
        for start in range(0, group.num_rows, tile_rows):
            chunk_nnz = int(group.nnz_per_row[start : start + tile_rows].sum())
            chunks.append(chunk_nnz)
    if not chunks:
        return 1.0
    threads = np.zeros(num_threads)
    for work in sorted(chunks, reverse=True):
        threads[np.argmin(threads)] += work
    peak = threads.max()
    if peak == 0:
        return 1.0
    return float(threads.mean() / peak) if threads.mean() > 0 else 1.0


def simulate_layer(layer: LayerPlan, device: DeviceSpec, timesteps: int) -> LayerTiming:
    """Cost one layer across ``timesteps`` recurrence steps."""
    if timesteps < 1:
        raise SimulationError(f"timesteps must be >= 1, got {timesteps}")
    balance = thread_balance(layer, device.num_threads)
    efficiency = device.parallel_efficiency(layer.kept_rows)
    throughput = device.flops_per_us * efficiency * balance
    # Irregular (CSR) gathers pay the device's divergence/pointer-chasing
    # cost per load; structured formats stream loads at cost 1.
    load_cost = device.gather_cost if layer.format_name == "csr" else 1.0
    ops_per_step = layer.flops_per_step + load_cost * layer.act_loads_per_step
    compute_us = ops_per_step * timesteps / throughput if throughput else 0.0
    traffic = layer_traffic(layer, timesteps)
    memory_us = traffic.total_bytes / device.mem_bandwidth_bytes_per_us
    overhead_us = device.kernel_overhead_us * timesteps
    return LayerTiming(
        name=layer.name,
        compute_us=compute_us,
        memory_us=memory_us,
        overhead_us=overhead_us,
        balance=balance,
        parallel_efficiency=efficiency,
    )


class NumericExecutor:
    """Plan-then-execute on the host: real numerics for a compiled model.

    The analytic :func:`simulate` path answers "how fast would the mobile
    kernels be"; this executor answers "what do they compute".  Each pruned
    weight matrix is encoded *once* into its storage format (BSPC for
    block-structured weights, CSR when requested, dense otherwise) and every
    :meth:`matvec`/:meth:`matmat` afterwards runs :mod:`repro.kernels` —
    the same seam the sparse formats, RNN layers, and benchmarks use.
    """

    def __init__(
        self,
        weights: Dict[str, np.ndarray],
        format_name: str = "bspc",
        num_row_strips: int = 4,
        num_col_blocks: int = 8,
    ) -> None:
        if format_name not in ("bspc", "csr", "dense"):
            raise SimulationError(f"unknown format {format_name!r}")
        self._matrices: Dict[str, Union[np.ndarray, CSRMatrix, BSPCMatrix]] = {}
        for name, weight in weights.items():
            weight = np.asarray(weight, dtype=np.float64)
            if format_name == "dense" or np.count_nonzero(weight) == weight.size:
                self._matrices[name] = weight
            elif format_name == "csr":
                self._matrices[name] = CSRMatrix.from_dense(weight)
            else:
                grid = grid_for(weight, num_row_strips, num_col_blocks)
                self._matrices[name] = BSPCMatrix.from_dense(weight, grid)

    @classmethod
    def from_graph(cls, graph) -> "NumericExecutor":
        """Build an executor straight from a pass-decided layer graph.

        Each weight slot is encoded in the format the shared pipeline's
        format-selection pass chose for it (rather than one format for
        the whole model), so the numeric executor runs exactly the
        storage mix the cost model priced and the engine executes.
        """
        from repro.compiler.passes import run_passes, slot_grid

        if graph.undecided():
            run_passes(graph)
        executor = cls({})
        for _, _, slot in graph.slots():
            weight = np.asarray(slot.array, dtype=np.float64)
            if slot.format == "csr":
                executor._matrices[slot.name] = CSRMatrix.from_dense(weight)
            elif slot.format == "bspc":
                executor._matrices[slot.name] = BSPCMatrix.from_dense(
                    weight, slot_grid(slot)
                )
            else:
                executor._matrices[slot.name] = weight
        return executor

    @property
    def layer_names(self) -> List[str]:
        return list(self._matrices)

    def _layer(self, name: str):
        if name not in self._matrices:
            raise SimulationError(
                f"unknown layer {name!r}; have {self.layer_names}"
            )
        return self._matrices[name]

    def matvec(self, name: str, x: np.ndarray) -> np.ndarray:
        """Layer ``name`` × vector through :mod:`repro.kernels`."""
        matrix = self._layer(name)
        if isinstance(matrix, np.ndarray):
            return matrix @ np.asarray(x)
        return matrix.spmv(np.asarray(x))

    def matmat(self, name: str, x: np.ndarray) -> np.ndarray:
        """Layer ``name`` × dense matrix (batched inputs as columns)."""
        matrix = self._layer(name)
        if isinstance(matrix, np.ndarray):
            return matrix @ np.asarray(x)
        return matrix.spmm(np.asarray(x))


def simulate(plan: KernelPlan, device: DeviceSpec) -> SimulationResult:
    """Simulate one inference frame of ``plan`` on ``device``."""
    timings = [simulate_layer(layer, device, plan.timesteps) for layer in plan.layers]
    latency = sum(t.busy_us for t in timings)
    return SimulationResult(
        device_name=device.name,
        layers=timings,
        latency_us=latency,
        flops=plan.flops_per_inference,
    )
