"""Calibrated device profiles for the paper's experimental platforms.

Calibration procedure (documented in EXPERIMENTS.md):

* **Adreno 640** (Samsung Galaxy S10 GPU, fp16 kernels): effective GEMV
  throughput and kernel overhead set so the *dense* 9.6M-parameter GRU
  lands at Table II row 1 — 3590 µs/frame, 161.55 GOP/s — and the
  overhead floor matches the high-compression plateau (~79 µs at 301×).
  Power back-solved from the paper's own normalized energy-efficiency
  column (0.88× ESE at 1× compression ⇒ ≈1.07 W), consistent across all
  ten rows, so the paper evidently assumed constant GPU power.
* **Kryo 485** (fp32 NEON kernels): same procedure against the CPU columns
  (7130 µs dense, ~146 µs floor, 0.25× ESE ⇒ ≈1.9 W).
* **ESE FPGA**: used purely as the published reference point
  (82.7 µs/frame, 41 W), exactly as the paper does.
"""

from __future__ import annotations

from repro.hw.device import DeviceSpec, ReferenceAccelerator

#: Qualcomm Adreno 640 mobile GPU (Snapdragon 855), 16-bit float kernels.
ADRENO_640 = DeviceSpec(
    name="Adreno 640 (mobile GPU, fp16)",
    num_threads=128,
    flops_per_us=178_000.0,  # ≈178 effective GFLOP/s for GEMV at fp16
    mem_bandwidth_bytes_per_us=34_000.0,  # ≈34 GB/s LPDDR4X
    kernel_overhead_us=0.45,  # per weight-matrix kernel dispatch
    power_watts=1.073,
    parallel_fill=64.0,
    gather_cost=6.0,  # SIMT divergence makes random gathers expensive
)

#: Qualcomm Kryo 485 octa-core mobile CPU, 32-bit float NEON kernels.
KRYO_485 = DeviceSpec(
    name="Kryo 485 (mobile CPU, fp32)",
    num_threads=8,
    flops_per_us=89_000.0,  # ≈89 effective GFLOP/s across 8 cores
    mem_bandwidth_bytes_per_us=15_000.0,  # ≈15 GB/s from the CPU side
    kernel_overhead_us=1.0,  # thread-pool dispatch per kernel
    power_watts=1.9,
    parallel_fill=48.0,
    gather_cost=3.0,  # cache-missing indexed loads on NEON cores
)

#: ESE's FPGA deployment (Han et al., FPGA 2017) — published reference only.
ESE_FPGA = ReferenceAccelerator(
    name="ESE (XCKU060 FPGA)",
    latency_us_per_frame=82.7,
    power_watts=41.0,
)

