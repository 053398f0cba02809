"""Device specifications for the analytic mobile cost model.

A :class:`DeviceSpec` captures the handful of parameters the executor
needs: achievable GEMV arithmetic throughput, sustained memory bandwidth,
per-kernel launch/dispatch overhead, thread count, and board power.

Values for the paper's platforms live in :mod:`repro.hw.profiles`; they are
calibrated once against the paper's *dense* baselines (Table II row 1) and
then fixed — every compressed-model prediction is derived, not fitted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class DeviceSpec:
    """An execution target for the simulator.

    Attributes
    ----------
    name:
        Human-readable device name.
    num_threads:
        Concurrent hardware threads the GEMV kernels use (CPU cores or GPU
        wavefront lanes effectively available to one kernel).
    flops_per_us:
        Achievable multiply-add operations per microsecond for well-shaped
        GEMV work (already discounted from peak for this kernel class).
    mem_bandwidth_bytes_per_us:
        Sustained DRAM bandwidth in bytes per microsecond.
    kernel_overhead_us:
        Fixed cost of launching one kernel (driver/dispatch); charged per
        layer per timestep.
    power_watts:
        Average board power draw while running inference.
    parallel_fill:
        Saturation constant of the parallel-efficiency model: a kernel with
        ``R`` output rows achieves efficiency ``R / (R + parallel_fill)``.
        Small kernels cannot fill the machine — the effect that makes GOP/s
        fall as compression rises (Table II).
    gather_cost:
        Issue-slot cost of one *irregular* (per-nonzero indexed, CSR-style)
        input gather relative to an arithmetic op.  Structured formats
        (dense rows, BSPC panels) load sequentially at cost 1; CSR's
        random gathers cause divergence and pointer chasing — the
        inefficiency Section III-A attributes to ESE's irregular pruning.
    """

    name: str
    num_threads: int
    flops_per_us: float
    mem_bandwidth_bytes_per_us: float
    kernel_overhead_us: float
    power_watts: float
    parallel_fill: float = 64.0
    gather_cost: float = 4.0

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise ConfigError(f"num_threads must be >= 1, got {self.num_threads}")
        for field_name in (
            "flops_per_us",
            "mem_bandwidth_bytes_per_us",
            "kernel_overhead_us",
            "power_watts",
            "parallel_fill",
        ):
            if getattr(self, field_name) < 0:
                raise ConfigError(f"{field_name} must be >= 0")
        if self.flops_per_us == 0 or self.mem_bandwidth_bytes_per_us == 0:
            raise ConfigError("throughput parameters must be positive")

    def parallel_efficiency(self, rows: int) -> float:
        """Fraction of peak throughput a kernel with ``rows`` outputs gets."""
        if rows <= 0:
            return 1.0
        return rows / (rows + self.parallel_fill)


@dataclass(frozen=True)
class ReferenceAccelerator:
    """A fixed published comparison point (not simulated).

    The paper normalizes energy efficiency against ESE's FPGA deployment:
    82.7 µs per frame at 41 W.  Only these two numbers are used.
    """

    name: str
    latency_us_per_frame: float
    power_watts: float

    def frames_per_joule(self) -> float:
        """Inference frames per joule — the normalization unit of Table II."""
        return 1.0 / (self.power_watts * self.latency_us_per_frame * 1e-6)
