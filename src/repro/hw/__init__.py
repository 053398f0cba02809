"""Analytic mobile-hardware simulator (Adreno 640 / Kryo 485 / ESE ref)."""

from repro.hw.device import DeviceSpec, ReferenceAccelerator
from repro.hw.energy import EnergyReport, energy_report
from repro.hw.executor import (
    LayerTiming,
    NumericExecutor,
    SimulationResult,
    simulate,
    simulate_layer,
    thread_balance,
)
from repro.hw.memory import LayerTraffic, layer_traffic, plan_traffic, total_bytes
from repro.hw.profiles import ADRENO_640, ESE_FPGA, KRYO_485

__all__ = [
    "DeviceSpec",
    "ReferenceAccelerator",
    "ADRENO_640",
    "KRYO_485",
    "ESE_FPGA",
    "simulate",
    "simulate_layer",
    "thread_balance",
    "NumericExecutor",
    "SimulationResult",
    "LayerTiming",
    "LayerTraffic",
    "layer_traffic",
    "plan_traffic",
    "total_bytes",
    "EnergyReport",
    "energy_report",
]
