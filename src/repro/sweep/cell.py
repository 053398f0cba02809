"""One sweep cell: prune → ADMM retrain → evaluate → save_plan.

A cell runs in its own forked process so a crash (injected or real)
costs exactly one cell-attempt, never the orchestrator.  All of a
cell's durable state lives in its directory under the sweep state dir::

    <state_dir>/cells/<cell-name>/
        checkpoint.npz   atomic checksummed training checkpoint
        plan.npz         the compiled artifact (save_plan format)
        result.json      written atomically on success — its presence
                         with valid content *is* cell completion
        error.json       best-effort diagnostics (exception type and
                         message) for a failed attempt

Restartability falls out of :func:`repro.training.run_checkpointed`: a
re-spawned attempt finds the previous attempt's checkpoint and resumes
mid-epoch, bit-identically.  The recorded ``weights_sha256`` and loss
curve are what the ``--expect-exact`` gate compares between a clean and
a chaos-resumed sweep.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path
from typing import Dict, Optional

from repro.engine.plan import compile_model
from repro.engine.artifact import save_plan
from repro.pruning.bsp import BSPPruner
from repro.speech.model import AcousticModelConfig, GRUAcousticModel
from repro.speech.synth import SynthConfig, make_corpus
from repro.speech.trainer import Trainer, TrainerConfig
from repro.training.checkpoint import (
    CheckpointConfig,
    load_training_checkpoint,
    run_checkpointed,
)
from repro.utils.atomic_write import atomic_write_json, content_checksum
from repro.utils.faults import FaultConfig, FaultInjector
from repro.utils.rng import derive_seed

RESULT_FILE = "result.json"
PLAN_FILE = "plan.npz"
CHECKPOINT_FILE = "checkpoint.npz"
ERROR_FILE = "error.json"

#: Keys a result.json must carry to count as a completed cell.
_REQUIRED_RESULT_KEYS = ("cell", "per", "loss_curve", "weights_sha256")


def cell_dir(state_dir: Path, cell_name: str) -> Path:
    return Path(state_dir) / "cells" / cell_name


def load_cell_result(directory: Path) -> Optional[Dict]:
    """The cell's result if it completed (valid ``result.json``), else None."""
    path = Path(directory) / RESULT_FILE
    try:
        with open(path, "r", encoding="utf-8") as handle:
            result = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(result, dict):
        return None
    if any(key not in result for key in _REQUIRED_RESULT_KEYS):
        return None
    return result


def run_cell(config, cell, cell_index: int, fault: Optional[FaultConfig] = None) -> Dict:
    """Execute one cell to completion in the current process.

    Resumes from the cell's checkpoint when one exists.  Returns the
    result dict (also written atomically to ``result.json``).
    """
    directory = cell_dir(config.state_dir, cell.name)
    directory.mkdir(parents=True, exist_ok=True)
    injector = FaultInjector(fault)

    train_set, test_set = make_corpus(
        config.num_train, config.num_test, SynthConfig(), seed=config.seed
    )
    model = GRUAcousticModel(
        AcousticModelConfig(hidden_size=config.hidden_size), rng=config.seed
    )
    dense = load_training_checkpoint(
        Path(config.state_dir) / "dense" / CHECKPOINT_FILE
    )
    model.load_state_dict(dense.model_state())

    trainer_config = TrainerConfig(
        learning_rate=config.learning_rate,
        batch_size=config.batch_size,
        seed=derive_seed(config.seed, cell_index),
    )
    trainer = Trainer(model, train_set, test_set, trainer_config)
    pruner = BSPPruner(
        model.prunable_parameters(),
        cell.bsp_config(
            rho=config.rho,
            step1_admm_epochs=config.admm_epochs,
            step1_retrain_epochs=config.retrain_epochs,
            step2_admm_epochs=config.admm_epochs,
            step2_retrain_epochs=config.retrain_epochs,
        ),
    )
    epochs_run = run_checkpointed(
        trainer,
        pruner,
        CheckpointConfig(
            path=directory / CHECKPOINT_FILE,
            every_steps=config.checkpoint_every_steps,
        ),
        max_epochs=config.total_cell_epochs + 2,
        extra={"cell": cell.to_dict(), "cell_index": cell_index},
        on_step=lambda _global_step: injector.on_step(),
    )
    evaluation = trainer.evaluate()
    plan = compile_model(model, scheme=cell.scheme)
    save_plan(directory / PLAN_FILE, plan)
    masks = pruner.masks
    result = {
        "cell": cell.to_dict(),
        "name": cell.name,
        "cell_index": cell_index,
        "per": float(evaluation.per),
        "frame_accuracy": float(evaluation.frame_accuracy),
        "loss_curve": [float(x) for x in trainer.log.losses],
        "epochs": len(trainer.log.losses),
        "epochs_this_attempt": int(epochs_run),
        "measured_rate": float(masks.compression_rate()) if masks else 1.0,
        "params_kept": int(masks.total_nnz()) if masks else 0,
        "weights_sha256": content_checksum({}, model.state_dict()),
        "trainer_seed": trainer_config.seed,
    }
    atomic_write_json(directory / RESULT_FILE, result)
    return result


def cell_process_main(conn, cell_index: int, fault, config, cell) -> None:
    """Child-process entry: run the cell, exit 0, or record the exception
    in ``error.json`` and exit 1.  The attempt reports through its exit
    code and files, not the pipe."""
    conn.close()
    directory = cell_dir(config.state_dir, cell.name)
    try:
        run_cell(config, cell, cell_index, fault)
    except Exception as exc:
        traceback.print_exc()
        try:
            directory.mkdir(parents=True, exist_ok=True)
            atomic_write_json(
                directory / ERROR_FILE,
                {"error": type(exc).__name__, "message": str(exc)},
            )
        except OSError:
            pass
        sys.exit(1)
    sys.exit(0)


__all__ = [
    "CHECKPOINT_FILE",
    "ERROR_FILE",
    "PLAN_FILE",
    "RESULT_FILE",
    "cell_dir",
    "cell_process_main",
    "load_cell_result",
    "run_cell",
]
