"""Supervised child processes: one fork + pipe primitive, one restart policy.

Every forked worker in the library — serving-fabric workers, gradient
workers, sweep cells — is a :class:`Child`: one ``fork`` process plus the
parent end of its duplex pipe.  The process runs
``target(conn, index, fault, *args)``, where ``fault`` is the
:class:`~repro.utils.faults.FaultConfig` if its
:meth:`~repro.utils.faults.FaultConfig.applies_to` selects this
``(index, incarnation)`` and ``None`` otherwise — the one place a fault
plan is armed.

A :class:`Pool` keeps a fixed set of indices alive.  Supervision is
synchronous: there is no monitor thread.  A caller that observes a
failure (a :class:`WorkerFailure` out of :meth:`Child.recv`, a broken
pipe) hands it to :meth:`Pool.restart`, which kills the child, sleeps a
capped exponential backoff (``backoff_base_s * 2**(n-1)``, at most
``backoff_cap_s``) and forks the next incarnation, or — past the
index's ``max_restarts`` — marks the index dead.  Crash and stall take
the same path once the stalled process is killed.

``fork`` is the start method because the children inherit what they
serve (a model and dataset, a loaded artifact path) without pickling it.
"""

from __future__ import annotations

import multiprocessing
import select
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

#: Slice of a deadline-bounded receive between liveness checks.
_POLL_SLICE_S = 0.05
#: How long :meth:`Child.close` waits for a clean exit, and a kill for
#: the process to be reaped.
_JOIN_TIMEOUT_S = 2.0


@dataclass
class WorkerFailure(Exception):
    """A child stopped serving: crashed (process dead, pipe torn) or
    stalled (alive but silent past a deadline)."""

    index: int
    reason: str  # "crash" | "stall"
    detail: str = ""

    def __str__(self) -> str:
        return f"worker {self.index} {self.reason}: {self.detail}"


@dataclass
class RestartEvent:
    """One restart :meth:`Pool.restart` performed, in order."""

    worker: int
    reason: str  # "crash" | "stall"
    incarnation: int  # of the replacement
    backoff_s: float


class Child:
    """One forked process and the parent end of its duplex pipe.

    The pipe's readiness is one ``select.poll`` registered for the
    child's life (:meth:`readable`); a hang-up or error counts as
    readable, so the receive that follows reports a torn pipe.
    """

    def __init__(
        self,
        index: int,
        incarnation: int,
        target: Callable,
        args: Sequence = (),
        faults=None,
    ) -> None:
        self.index = index
        self.incarnation = incarnation
        fault = (
            faults
            if faults is not None and faults.applies_to(index, incarnation)
            else None
        )
        fork = multiprocessing.get_context("fork")
        self.conn, child_conn = fork.Pipe(duplex=True)
        self.process = fork.Process(
            target=target,
            args=(child_conn, index, fault, *args),
            daemon=True,
        )
        try:
            self.process.start()
        except BaseException:
            self.conn.close()
            raise
        finally:
            child_conn.close()
        self._poller = select.poll()
        self._poller.register(self.conn, select.POLLIN)

    def readable(self, timeout_s: float = 0.0) -> bool:
        """Is a message (or a hang-up) waiting on the pipe?  Waits up to
        ``timeout_s`` (no less than 0) for one."""
        return bool(self._poller.poll(max(timeout_s, 0.0) * 1e3))

    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def exitcode(self) -> Optional[int]:
        return self.process.exitcode

    def recv(self, deadline: float, what: str = "a reply"):
        """The child's next message, waiting until ``deadline``
        (``time.monotonic()``).

        Raises :class:`WorkerFailure`: ``"crash"`` once the pipe is torn
        or the process is dead with nothing left to read — messages sent
        before the death are still delivered — and ``"stall"`` when the
        deadline passes with the process alive and silent.
        """
        while True:
            remaining = deadline - time.monotonic()
            if self.readable(min(remaining, _POLL_SLICE_S)):
                try:
                    return self.conn.recv()
                except (EOFError, OSError):
                    raise WorkerFailure(
                        self.index, "crash", f"pipe closed while waiting for {what}"
                    ) from None
            if not self.process.is_alive() and not self.readable():
                raise WorkerFailure(
                    self.index,
                    "crash",
                    f"process exited with code {self.process.exitcode} "
                    f"before {what}",
                )
            if remaining <= 0:
                raise WorkerFailure(
                    self.index, "stall", f"no {what} by the deadline"
                )

    def kill(self) -> None:
        """Hard-stop the process, reap it and close the pipe."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(_JOIN_TIMEOUT_S)
        self.conn.close()

    def close(self) -> None:
        """Graceful stop: send ``("close",)``, wait for the exit, then kill."""
        try:
            self.conn.send(("close",))
        except OSError:
            pass  # already dead or closed
        self.process.join(_JOIN_TIMEOUT_S)
        self.kill()


class Pool:
    """A fixed set of supervised children, one per index.

    ``child`` is the class each incarnation is built as (:class:`Child`
    or a subclass that speaks a protocol over its pipe); every child of
    index ``i`` runs ``target(conn, i, fault, *self.args)``.  ``args``
    may be reassigned: later restarts use the new value.
    """

    def __init__(
        self,
        size: int,
        target: Callable,
        args: Sequence = (),
        *,
        faults=None,
        max_restarts: int,
        backoff_base_s: float,
        backoff_cap_s: float,
        child: type = Child,
    ) -> None:
        self._target = target
        self.args = tuple(args)
        self._faults = faults
        self._max_restarts = max_restarts
        self._backoff_base_s = backoff_base_s
        self._backoff_cap_s = backoff_cap_s
        self._child = child
        self.children: List[Child] = []
        self.dead: set = set()
        self.restarts: Dict[int, int] = {index: 0 for index in range(size)}
        self.crashes_detected = 0
        self.stalls_detected = 0
        #: Backoff seconds slept before each restart, in order — tests
        #: assert the schedule instead of timing sleeps.
        self.backoff_history: List[float] = []
        self.restart_log: List[RestartEvent] = []
        try:
            for index in range(size):
                self.children.append(self._spawn(index, 0))
        except BaseException:
            for spawned in self.children:
                spawned.kill()
            raise

    def _spawn(self, index: int, incarnation: int) -> Child:
        return self._child(index, incarnation, self._target, self.args, self._faults)

    def restart(self, failure: WorkerFailure) -> Optional[Child]:
        """Kill the failed child and fork its next incarnation after the
        backoff; past the index's restart budget mark it dead instead.

        Returns the new child, or ``None`` if the index is now dead.
        """
        index = failure.index
        if failure.reason == "stall":
            self.stalls_detected += 1
        else:
            self.crashes_detected += 1
        failed = self.children[index]
        failed.kill()
        if self.restarts[index] >= self._max_restarts:
            self.dead.add(index)
            return None
        self.restarts[index] += 1
        backoff = 0.0
        if self._backoff_base_s > 0:
            backoff = min(
                self._backoff_base_s * 2.0 ** (self.restarts[index] - 1),
                self._backoff_cap_s,
            )
        self.backoff_history.append(backoff)
        self.restart_log.append(
            RestartEvent(index, failure.reason, failed.incarnation + 1, backoff)
        )
        if backoff > 0:
            time.sleep(backoff)
        self.children[index] = self._spawn(index, failed.incarnation + 1)
        return self.children[index]

    def close(self) -> None:
        """Stop every child; safe to call more than once."""
        for child in self.children:
            child.close()


__all__ = [
    "Child",
    "Pool",
    "RestartEvent",
    "WorkerFailure",
]
