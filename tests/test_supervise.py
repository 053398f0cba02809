"""Tests for repro.utils.supervise and the lifecycle corners of its
users: a sweep interrupted mid-flight and a cell that dies of an untyped
exception."""

import multiprocessing
import os
import signal
import time
import types

import pytest

from repro.sweep import SweepConfig, run_sweep
from repro.sweep import orchestrator
from repro.utils.faults import FaultConfig
from repro.utils.supervise import Child, Pool, WorkerFailure


def _say_then_exit(conn, index, fault):
    conn.send(("hello", index))
    conn.close()


def _silent(conn, index, fault):
    conn.recv()  # until the parent's goodbye


def _say_then_wait(conn, index, fault):
    conn.send(("hello", index))
    conn.recv()


class TestChild:
    def test_messages_before_death_arrive_then_crash(self):
        child = Child(0, 0, _say_then_exit)
        try:
            deadline = time.monotonic() + 10.0
            assert child.recv(deadline) == ("hello", 0)
            with pytest.raises(WorkerFailure) as failure:
                child.recv(deadline)
            assert failure.value.reason == "crash"
        finally:
            child.kill()

    def test_a_sigkilled_child_delivers_what_it_sent_then_is_a_crash(self):
        child = Child(2, 0, _say_then_wait)
        try:
            assert child.readable(10.0)
            os.kill(child.process.pid, signal.SIGKILL)
            child.process.join(10.0)
            assert child.readable()  # the message, then the hang-up
            deadline = time.monotonic() + 10.0
            assert child.recv(deadline) == ("hello", 2)
            with pytest.raises(WorkerFailure, match="worker 2 crash"):
                child.recv(deadline)
        finally:
            child.kill()

    def test_alive_and_silent_past_the_deadline_is_a_stall(self):
        child = Child(3, 0, _silent)
        try:
            with pytest.raises(WorkerFailure, match="worker 3 stall"):
                child.recv(time.monotonic() + 0.1)
        finally:
            child.close()
        assert not child.alive()
        child.close()  # idempotent

    def test_fault_arms_only_where_applies_to_selects(self):
        fault = FaultConfig(crash_after_chunks=0, target_worker=None)

        def armed(conn, index, fault):
            conn.send(fault is not None)

        for incarnation, expected in ((0, True), (1, False)):
            child = Child(0, incarnation, armed, (), fault)
            try:
                assert child.recv(time.monotonic() + 10.0) is expected
            finally:
                child.kill()


class _FailsOnSecond(Child):
    def __init__(self, index, *args):
        if index == 1:
            raise OSError("fork failed")
        super().__init__(index, *args)


class TestPool:
    def test_constructor_kills_spawned_children_when_a_spawn_raises(self):
        with pytest.raises(OSError, match="fork failed"):
            Pool(
                2, _silent, max_restarts=0, backoff_base_s=0.0,
                backoff_cap_s=0.0, child=_FailsOnSecond,
            )
        assert multiprocessing.active_children() == []


def _sweep_config(tmp_path, **overrides):
    settings = dict(
        state_dir=tmp_path / "state",
        rates=((2.0, 1.25),),
        schemes=(None, "int8"),
        workers=2,
        hidden_size=12,
        num_train=6,
        num_test=2,
        batch_size=3,
        dense_epochs=1,
    )
    settings.update(overrides)
    return SweepConfig(**settings)


class TestSweepLifecycle:
    def test_interrupted_sweep_leaves_no_live_cells(self, tmp_path, monkeypatch):
        calls = []

        def sleep(seconds):
            calls.append(seconds)
            if len(calls) == 3:
                raise KeyboardInterrupt

        monkeypatch.setattr(
            orchestrator,
            "time",
            types.SimpleNamespace(monotonic=time.monotonic, sleep=sleep),
        )
        with pytest.raises(KeyboardInterrupt):
            run_sweep(_sweep_config(tmp_path))
        assert multiprocessing.active_children() == []

    def test_untyped_exception_is_classified_with_its_type(
        self, tmp_path, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("repro.sweep.cell.run_cell", boom)
        result = run_sweep(
            _sweep_config(tmp_path, schemes=(None,), retry_budget=0),
            strict=False,
        )
        (outcome,) = result.outcomes
        assert outcome.status == "failed"
        assert "RuntimeError: boom" in outcome.error
