"""Worker lifecycle: spawn, heartbeat, restart with backoff, give up.

The supervisor owns every :class:`~repro.engine.fabric.worker.WorkerHandle`
and is the only code that spawns or kills worker processes.  Its policy:

* **Detection is synchronous.**  There is no supervisor thread: liveness
  is checked on the operations that already touch a worker (every RPC
  timeout is a heartbeat) plus an explicit :meth:`check` sweep that
  pings every worker.  Synchronous supervision keeps the fabric
  deterministic — fault-injection tests replay identically because
  nothing races the test's own calls.
* **Crashes and stalls converge to the same path.**  A stalled worker
  (alive but past the heartbeat timeout) is killed first; after that
  both cases are "process gone, sessions orphaned" and take the same
  restart + re-home path.
* **Restarts back off exponentially** (``backoff_base_s * 2**(n-1)``,
  capped) so a crash-looping artifact cannot hot-loop the host, and
  each worker has a restart budget (``max_restarts``); past it the
  worker is marked permanently dead and the hash ring routes its slice
  to the survivors.  Fault injection arms only in the incarnations its
  :meth:`~repro.utils.faults.FaultConfig.applies_to` selects, so
  a restarted worker is clean unless the fault plan says otherwise.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.utils.faults import FaultConfig
from repro.engine.fabric.worker import WorkerFailure, WorkerHandle
from repro.engine.streaming import StreamConfig


class Supervisor:
    """Spawns and restarts the worker fleet; tracks failure counters."""

    def __init__(
        self,
        ctx,
        num_workers: int,
        artifact_path: str,
        stream_config: StreamConfig,
        faults: Optional[FaultConfig],
        max_restarts: int,
        backoff_base_s: float,
        backoff_cap_s: float,
    ) -> None:
        self._artifact_path = artifact_path
        self._stream_config = stream_config
        self._faults = faults
        self._max_restarts = max_restarts
        self._backoff_base_s = backoff_base_s
        self._backoff_cap_s = backoff_cap_s
        self.handles: Dict[int, WorkerHandle] = {
            index: WorkerHandle(index, ctx) for index in range(num_workers)
        }
        self.dead: set = set()
        self.restarts: Dict[int, int] = {index: 0 for index in range(num_workers)}
        self.crashes_detected = 0
        self.stalls_detected = 0
        #: Backoff seconds actually slept before each restart, in order —
        #: the tests assert the schedule instead of timing sleeps.
        self.backoff_history: List[float] = []
        for index, handle in self.handles.items():
            handle.spawn(artifact_path, stream_config, self._fault_for(index, 0))

    def set_artifact(self, artifact_path: str) -> None:
        """Retarget future spawns/restarts at a new artifact version.

        Called at the *start* of a fabric hot-swap: a worker that crashes
        mid-swap restarts already serving the new version, and its
        orphaned sessions re-home with per-version journal segments.
        """
        self._artifact_path = str(artifact_path)

    @property
    def artifact_path(self) -> str:
        return self._artifact_path

    def _fault_for(self, index: int, incarnation: int) -> Optional[FaultConfig]:
        if self._faults is not None and self._faults.applies_to(index, incarnation):
            return self._faults
        return None

    def alive_indices(self) -> List[int]:
        return [
            index
            for index, handle in self.handles.items()
            if index not in self.dead and handle.alive()
        ]

    def backoff_for(self, restart_number: int) -> float:
        """The sleep before restart ``n`` (1-based): exponential, capped."""
        if self._backoff_base_s <= 0:
            return 0.0
        return min(
            self._backoff_base_s * (2.0 ** (restart_number - 1)),
            self._backoff_cap_s,
        )

    def handle_failure(self, failure: WorkerFailure) -> Optional[WorkerHandle]:
        """Restart the failed worker, or mark it dead past its budget.

        Returns the restarted handle, or ``None`` if the worker is now
        permanently dead (its sessions must re-home elsewhere).
        """
        index = failure.index
        handle = self.handles[index]
        if failure.reason == "stall":
            self.stalls_detected += 1
        else:
            self.crashes_detected += 1
        handle.kill()  # no-op for a crash; required for a stall
        if self.restarts[index] >= self._max_restarts:
            self.dead.add(index)
            return None
        self.restarts[index] += 1
        backoff = self.backoff_for(self.restarts[index])
        self.backoff_history.append(backoff)
        if backoff > 0:
            time.sleep(backoff)
        handle.spawn(
            self._artifact_path,
            self._stream_config,
            self._fault_for(index, handle.incarnation + 1),
        )
        return handle

    def ping(self, index: int, timeout: float) -> None:
        """Heartbeat one worker; raises :class:`WorkerFailure`."""
        self.handles[index].request("ping", timeout)

    def shutdown(self) -> None:
        for index, handle in self.handles.items():
            if index not in self.dead:
                handle.close()


__all__ = ["Supervisor"]
