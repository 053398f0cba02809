"""Deterministic fault injection for any supervised worker process.

Robustness claims that are only exercised by real crashes are not
testable claims.  :class:`FaultConfig` is a *seeded, deterministic*
fault plan handed to a worker process — a serving-fabric worker or a
sweep cell — and
:class:`FaultInjector` interprets it inside that worker.  Faults
modeled:

* **crash** — the process dies with ``os._exit`` (no cleanup, no
  ``atexit``, pipes torn mid-protocol) just *before* processing its
  Nth unit of work (a streamed chunk, a training step), so that unit is
  lost with the worker.  This is the hardest honest failure a single
  host can produce short of SIGKILL.
* **stall** — the worker sleeps mid-protocol (a wedged kernel call, a
  page-fault storm): the process stays alive but stops answering, which
  is exactly what heartbeat/RPC timeouts must catch.
* **message drop** — acknowledgements are dropped with a seeded
  Bernoulli rate; backpressure accounting must survive lost acks
  (cumulative sequence numbers make later acks self-healing).
* **message delay** — every worker→parent send is delayed by a fixed
  amount, inflating measured latency without breaking correctness.

Faults are scoped to one worker index (``target_worker``) and, by
default, to the worker's *first* incarnation — a crash-faulted worker
restarts clean, so recovery can be asserted.  ``repeat=True`` keeps the
fault across restarts, which is how restart-budget/permanent-death
paths are driven.  The serving fabric re-exports these names from
:mod:`repro.engine.fabric`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigError

#: Exit code of an injected crash, distinguishable from a real fault in
#: worker exit status while still reading as an abnormal death.
CRASH_EXIT_CODE = 87


@dataclass(frozen=True)
class FaultConfig:
    """A seeded, deterministic fault plan for one worker.

    ``crash_after_chunks=k`` / ``stall_after_chunks=k`` fire just before
    the worker processes its ``k+1``-th unit of work — a streamed chunk
    in the serving fabric, a training step in a sweep cell (the in-flight
    unit is lost with the crash).  ``None`` disables that
    fault.
    """

    crash_after_chunks: Optional[int] = None
    stall_after_chunks: Optional[int] = None
    #: Die (``os._exit``) on receiving a hot-swap command, before the
    #: flush barrier runs — the deployment-time crash: queued chunks and
    #: live state are lost mid-swap and must recover via journal replay.
    crash_on_swap: bool = False
    stall_seconds: float = 30.0
    drop_ack_rate: float = 0.0
    delay_response_s: float = 0.0
    seed: int = 0
    target_worker: Optional[int] = 0
    repeat: bool = False

    def __post_init__(self) -> None:
        for name in ("crash_after_chunks", "stall_after_chunks"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
        if not 0.0 <= self.drop_ack_rate <= 1.0:
            raise ConfigError(
                f"drop_ack_rate must be in [0, 1], got {self.drop_ack_rate}"
            )
        if self.stall_seconds < 0 or self.delay_response_s < 0:
            raise ConfigError("fault durations must be >= 0")

    def applies_to(self, worker_index: int, incarnation: int) -> bool:
        """Does this plan arm inside the given worker incarnation?"""
        if self.target_worker is not None and worker_index != self.target_worker:
            return False
        return self.repeat or incarnation == 0


class FaultInjector:
    """Worker-process-side interpreter of a :class:`FaultConfig`.

    Constructed with ``None`` (or a config that does not apply to this
    incarnation) it is inert, so the hot path pays one attribute check.
    """

    def __init__(self, config: Optional[FaultConfig]) -> None:
        self._config = config
        self._chunks = 0
        self._stalled = False
        self._rng = (
            np.random.default_rng(config.seed) if config is not None else None
        )

    def on_chunk(self) -> None:
        """Called before each unit of work is processed; may crash or stall."""
        if self._config is None:
            return
        self._chunks += 1
        config = self._config
        if (
            config.crash_after_chunks is not None
            and self._chunks > config.crash_after_chunks
        ):
            os._exit(CRASH_EXIT_CODE)
        if (
            config.stall_after_chunks is not None
            and not self._stalled
            and self._chunks > config.stall_after_chunks
        ):
            self._stalled = True
            time.sleep(config.stall_seconds)

    #: Training workers count steps, not chunks; the counter is the same.
    on_step = on_chunk

    def on_swap(self) -> None:
        """Called when the worker receives a hot-swap command."""
        if self._config is not None and self._config.crash_on_swap:
            os._exit(CRASH_EXIT_CODE)

    def before_send(self) -> None:
        """Called before each worker→parent send; may delay it."""
        if self._config is not None and self._config.delay_response_s > 0:
            time.sleep(self._config.delay_response_s)

    def drop_ack(self) -> bool:
        """Seeded Bernoulli: should this acknowledgement be dropped?"""
        if self._config is None or self._config.drop_ack_rate == 0.0:
            return False
        return bool(self._rng.random() < self._config.drop_ack_rate)


__all__ = ["FaultConfig", "FaultInjector", "CRASH_EXIT_CODE"]
