"""Supervised multi-process serving fabric.

Public surface: :class:`ServingFabric` (the client-facing facade) and
its config/stat types, the canary-rollout types, plus the building
blocks — session journal, consistent-hash router, worker transport —
and the deterministic fault-injection layer that the robustness tests
and ``stream-bench --chaos`` drive.  Worker lifecycle (spawn, restart
with backoff, give up) is the shared :class:`repro.utils.supervise.Pool`.
"""

from repro.engine.fabric.canary import CanaryConfig, CanaryReport
from repro.engine.fabric.fabric import (
    FabricConfig,
    FleetStats,
    ServingFabric,
    WorkerStats,
)
from repro.utils.faults import CRASH_EXIT_CODE, FaultConfig, FaultInjector
from repro.engine.fabric.journal import SessionJournal
from repro.engine.fabric.router import HashRing
from repro.engine.fabric.worker import WorkerFailure, WorkerHandle

__all__ = [
    "ServingFabric",
    "FabricConfig",
    "FleetStats",
    "WorkerStats",
    "CanaryConfig",
    "CanaryReport",
    "FaultConfig",
    "FaultInjector",
    "CRASH_EXIT_CODE",
    "SessionJournal",
    "HashRing",
    "WorkerFailure",
    "WorkerHandle",
]
