"""Fault-tolerant sweep orchestration over the prune→retrain grid.

:func:`run_sweep` fans a sparsity × scheme × block-size grid across a
bounded pool of forked cell processes.  Each cell trains a BSP
prune→retrain model from a shared dense baseline, evaluates it,
compiles a plan, and records its result atomically (see
:mod:`repro.sweep.cell`).  The orchestrator supplies the robustness
guarantees around that:

* **Crash containment + retries.**  A cell crash (injected or real)
  kills one forked attempt.  The orchestrator re-spawns it up to
  ``retry_budget`` times; the new attempt resumes from the cell's
  atomic checkpoint and — because training RNG is counter-based —
  finishes **bit-identical** to a never-interrupted run.
* **Straggler timeouts.**  A cell that exceeds ``cell_timeout_s`` is
  killed and retried like a crash.
* **Deterministic chaos.**  Under ``chaos=True`` every cell's *first*
  attempt is armed with a seeded :class:`~repro.utils.faults.FaultConfig`
  whose crash step derives from ``(chaos_seed, cell_index)`` — the same
  sweep always crashes at the same steps, so exactness is testable.
* **Resume.**  Re-running the same ``state_dir`` skips cells with a
  valid ``result.json`` and resumes incomplete ones from checkpoint;
  registry publishes are idempotent.

Every finished cell is published into a :class:`PlanRegistry`: the
dense baseline as ``v1`` of the cell's name and the pruned cell plan as
``v2`` with ``parent="v1"`` lineage plus tuning/sweep provenance in
``extra``.

This module deliberately does not import :mod:`repro.eval` (the eval
package's sweep benchmark imports *us*); the Table-1-style summary
renderer is local.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.artifact import load_plan
from repro.engine.plan import compile_model
from repro.engine.registry import PlanRegistry
from repro.errors import ConfigError, SweepError
from repro.speech.model import AcousticModelConfig, GRUAcousticModel
from repro.speech.synth import SynthConfig, make_corpus
from repro.speech.trainer import Trainer, TrainerConfig
from repro.sweep.cell import (
    CHECKPOINT_FILE,
    ERROR_FILE,
    PLAN_FILE,
    cell_dir,
    cell_process_main,
    load_cell_result,
)
from repro.sweep.grid import SweepCell, build_grid
from repro.training.checkpoint import CheckpointConfig, run_checkpointed
from repro.utils.atomic_write import atomic_write_json, content_checksum
from repro.utils.faults import CRASH_EXIT_CODE, FaultConfig
from repro.utils.rng import derive_seed
from repro.utils.supervise import Child


@dataclass(frozen=True)
class SweepConfig:
    """The full sweep specification: grid, budget, and training recipe."""

    state_dir: Path
    rates: Sequence[Tuple[float, float]] = ((2.0, 1.25),)
    schemes: Sequence[Optional[str]] = (None,)
    blocks: Sequence[Tuple[int, int]] = ((2, 2),)
    workers: int = 2
    retry_budget: int = 1
    cell_timeout_s: float = 600.0
    chaos_seed: int = 1234
    registry_dir: Optional[Path] = None
    # Training recipe shared by the dense baseline and every cell.
    seed: int = 0
    hidden_size: int = 24
    num_train: int = 12
    num_test: int = 6
    learning_rate: float = 3e-3
    batch_size: int = 4
    dense_epochs: int = 2
    admm_epochs: int = 1
    retrain_epochs: int = 1
    rho: float = 1e-2
    checkpoint_every_steps: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.retry_budget < 0:
            raise ConfigError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )
        if self.cell_timeout_s <= 0:
            raise ConfigError(
                f"cell_timeout_s must be positive, got {self.cell_timeout_s}"
            )
        if min(self.dense_epochs, self.admm_epochs, self.retrain_epochs) < 1:
            raise ConfigError("epoch counts must be >= 1")

    @property
    def total_cell_epochs(self) -> int:
        """Epochs one cell runs through all four BSP phases."""
        return 2 * (self.admm_epochs + self.retrain_epochs)

    @property
    def steps_per_epoch(self) -> int:
        return math.ceil(self.num_train / self.batch_size)

    def grid(self) -> List[SweepCell]:
        return build_grid(self.rates, self.schemes, self.blocks)

    def registry_root(self) -> Path:
        return Path(self.registry_dir or Path(self.state_dir) / "registry")


@dataclass
class CellOutcome:
    """What happened to one grid cell across all of its attempts."""

    cell: SweepCell
    index: int
    status: str = "pending"  # -> "ok" | "cached" | "failed"
    attempts: int = 0
    failures: List[str] = field(default_factory=list)
    result: Optional[Dict] = None
    error: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.status in ("ok", "cached")


@dataclass
class SweepResult:
    """Every cell outcome plus the dense baseline it forked from."""

    config: SweepConfig
    dense: Dict
    outcomes: List[CellOutcome]

    @property
    def completed(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.completed]

    @property
    def failed(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    def summary_table(self) -> str:
        """Table-1-style text summary of the sweep population."""
        header = (
            "cell", "rate", "measured", "scheme", "PER%", "kept",
            "tries", "status",
        )
        rows = [header]
        for outcome in self.outcomes:
            cell, result = outcome.cell, outcome.result or {}
            rows.append((
                cell.name,
                f"{cell.nominal_compression:g}x",
                f"{result.get('measured_rate', float('nan')):.2f}x"
                if result else "-",
                cell.scheme or "float",
                f"{result.get('per', float('nan')):.2f}" if result else "-",
                str(result.get("params_kept", "-")),
                str(outcome.attempts),
                outcome.status,
            ))
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = []
        for index, row in enumerate(rows):
            lines.append("  ".join(col.ljust(widths[i]) for i, col in enumerate(row)).rstrip())
            if index == 0:
                lines.append("  ".join("-" * w for w in widths))
        dense_per = self.dense.get("per", float("nan"))
        lines.append("")
        lines.append(
            f"dense baseline PER {dense_per:.2f}%  |  "
            f"{len(self.completed)}/{len(self.outcomes)} cells complete"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "dense": dict(self.dense),
            "cells": [
                {
                    "name": o.cell.name,
                    "index": o.index,
                    "status": o.status,
                    "attempts": o.attempts,
                    "failures": list(o.failures),
                    "error": o.error,
                    "result": o.result,
                }
                for o in self.outcomes
            ],
        }


def chaos_fault_for(config: SweepConfig, cell_index: int) -> FaultConfig:
    """The deterministic first-attempt crash plan for ``cell_index``.

    The crash lands on a global step in ``[1, total_steps - 1]`` so a
    checkpoint always precedes it and work always remains after it —
    the resume path is genuinely exercised, never trivially skipped.
    """
    total_steps = config.total_cell_epochs * config.steps_per_epoch
    step = 1 + derive_seed(config.chaos_seed, cell_index) % max(total_steps - 1, 1)
    # ``crash_after_chunks=k`` fires on the (k+1)-th on_step call, i.e.
    # just after optimizer step k+1 completed and was checkpointed.
    return FaultConfig(crash_after_chunks=step - 1, target_worker=None)


def _train_dense_baseline(config: SweepConfig) -> Tuple[GRUAcousticModel, Dict]:
    """Train (or resume) the shared dense baseline, parent-side."""
    dense_dir = Path(config.state_dir) / "dense"
    train_set, test_set = make_corpus(
        config.num_train, config.num_test, SynthConfig(), seed=config.seed
    )
    model = GRUAcousticModel(
        AcousticModelConfig(hidden_size=config.hidden_size), rng=config.seed
    )
    trainer = Trainer(
        model,
        train_set,
        test_set,
        TrainerConfig(
            learning_rate=config.learning_rate,
            batch_size=config.batch_size,
            seed=config.seed,
        ),
    )
    run_checkpointed(
        trainer,
        None,
        CheckpointConfig(
            path=dense_dir / CHECKPOINT_FILE,
            every_steps=config.checkpoint_every_steps,
        ),
        max_epochs=config.dense_epochs,
    )
    evaluation = trainer.evaluate()
    dense = {
        "per": float(evaluation.per),
        "frame_accuracy": float(evaluation.frame_accuracy),
        "loss_curve": [float(x) for x in trainer.log.losses],
        "weights_sha256": content_checksum({}, model.state_dict()),
        "epochs": config.dense_epochs,
        "seed": config.seed,
    }
    atomic_write_json(dense_dir / "result.json", dense)
    return model, dense


def _classify_exit(exitcode: Optional[int], directory: Path) -> str:
    if exitcode == CRASH_EXIT_CODE:
        return "crash (injected)"
    if exitcode == 1:
        try:
            with open(directory / ERROR_FILE, "r", encoding="utf-8") as handle:
                info = json.load(handle)
            return f"{info.get('error', 'error')}: {info.get('message', '')}"
        except (OSError, ValueError):
            return "exit code 1 (no diagnostics written)"
    return f"crash (exit code {exitcode})"


def _run_cells(
    config: SweepConfig, outcomes: List[CellOutcome], chaos: bool
) -> None:
    pending = [o for o in outcomes if o.status == "pending"]
    # (outcome, its attempt, the attempt's deadline)
    running: List[Tuple[CellOutcome, Child, float]] = []

    def _finish(outcome: CellOutcome, failure: Optional[str]) -> None:
        directory = cell_dir(config.state_dir, outcome.cell.name)
        if failure is None:
            result = load_cell_result(directory)
            if result is None:
                failure = "exited cleanly without a valid result.json"
            else:
                outcome.status = "ok"
                outcome.result = result
                return
        outcome.failures.append(failure)
        if len(outcome.failures) > config.retry_budget:
            outcome.status = "failed"
            outcome.error = (
                f"cell {outcome.cell.name} failed permanently after "
                f"{outcome.attempts} attempt(s) "
                f"(retry budget {config.retry_budget}): {failure}"
            )
        else:
            pending.append(outcome)

    try:
        while pending or running:
            while pending and len(running) < config.workers:
                outcome = pending.pop(0)
                # The chaos plan arms only the first attempt (incarnation 0).
                child = Child(
                    outcome.index,
                    outcome.attempts,
                    cell_process_main,
                    (config, outcome.cell),
                    chaos_fault_for(config, outcome.index) if chaos else None,
                )
                outcome.attempts += 1
                running.append(
                    (outcome, child, time.monotonic() + config.cell_timeout_s)
                )
            time.sleep(0.02)
            still_running = []
            for outcome, child, deadline in running:
                if child.alive() and time.monotonic() <= deadline:
                    still_running.append((outcome, child, deadline))
                    continue
                straggler = child.alive()
                child.kill()  # a straggler's stop; else reaps the exited attempt
                if straggler:
                    failure = f"straggler killed after {config.cell_timeout_s:g}s"
                elif child.exitcode == 0:
                    failure = None
                else:
                    failure = _classify_exit(
                        child.exitcode,
                        cell_dir(config.state_dir, outcome.cell.name),
                    )
                _finish(outcome, failure)
            running = still_running
    finally:
        # An exception out of the loop (an interrupt included) must not
        # leave attempts writing into state_dir after run_sweep raised.
        for _, child, _ in running:
            child.kill()


def _publish_outcomes(
    config: SweepConfig,
    dense_model: GRUAcousticModel,
    dense: Dict,
    outcomes: List[CellOutcome],
) -> None:
    """Idempotently publish dense (v1) + cell plan (v2, parent v1)."""
    registry = PlanRegistry(config.registry_root())
    dense_plan = None
    for outcome in outcomes:
        if not outcome.completed or outcome.result is None:
            continue
        name = outcome.cell.name
        versions = registry.versions(name)
        if "v1" not in versions:
            if dense_plan is None:
                dense_plan = compile_model(dense_model, scheme=None)
            registry.publish(
                name,
                dense_plan,
                version=1,
                extra={
                    "role": "dense-baseline",
                    "per": dense["per"],
                    "weights_sha256": dense["weights_sha256"],
                    "sweep_seed": config.seed,
                },
            )
        if "v2" not in versions:
            plan = load_plan(
                cell_dir(config.state_dir, name) / PLAN_FILE
            )
            registry.publish(
                name,
                plan,
                version=2,
                parent=1,
                extra={
                    "role": "sweep-cell",
                    "cell": outcome.cell.to_dict(),
                    "cell_index": outcome.index,
                    "per": outcome.result["per"],
                    "measured_rate": outcome.result["measured_rate"],
                    "params_kept": outcome.result["params_kept"],
                    "weights_sha256": outcome.result["weights_sha256"],
                    "attempts": outcome.attempts,
                    "sweep_seed": config.seed,
                },
            )
        outcome.result.setdefault("published", f"{name}/v2")


def run_sweep(
    config: SweepConfig, *, chaos: bool = False, strict: bool = True
) -> SweepResult:
    """Run (or resume) the full sweep; returns every cell's outcome.

    ``chaos=True`` arms each cell's first attempt with its deterministic
    crash plan.  ``strict=True`` raises :class:`~repro.errors.SweepError`
    if any cell fails permanently; ``strict=False`` records the failure
    and keeps going (the chaos pass of ``--chaos --resume`` uses this
    with ``retry_budget=0`` to leave cells mid-flight on purpose).
    """
    state_dir = Path(config.state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    dense_model, dense = _train_dense_baseline(config)

    outcomes = [
        CellOutcome(cell=cell, index=index)
        for index, cell in enumerate(config.grid())
    ]
    # Resume: a valid result.json *is* completion — skip those cells.
    for outcome in outcomes:
        cached = load_cell_result(cell_dir(state_dir, outcome.cell.name))
        if cached is not None:
            outcome.status = "cached"
            outcome.result = cached

    _run_cells(config, outcomes, chaos)
    _publish_outcomes(config, dense_model, dense, outcomes)

    result = SweepResult(config=config, dense=dense, outcomes=outcomes)
    atomic_write_json(state_dir / "sweep.json", result.to_dict())
    if strict and result.failed:
        names = ", ".join(o.cell.name for o in result.failed)
        raise SweepError(
            f"{len(result.failed)} sweep cell(s) failed permanently: {names}. "
            f"First error: {result.failed[0].error}"
        )
    return result


__all__ = [
    "CellOutcome",
    "SweepConfig",
    "SweepResult",
    "chaos_fault_for",
    "run_sweep",
]
