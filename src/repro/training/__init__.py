"""Fault-tolerant training on top of the single-process
:class:`~repro.speech.trainer.Trainer`.

:mod:`repro.training.checkpoint` — atomic, SHA-256-checksummed training
checkpoints (weights + Adam moments + ADMM/BSP phase state + epoch/step
cursor + loss trace) with **bit-exact** resume, and
:func:`run_checkpointed` to drive a prune→retrain run that survives being
killed at any instant.

Quickstart::

    from repro import training

    training.run_checkpointed(
        trainer, bsp_pruner,
        training.CheckpointConfig(path="cell/checkpoint.npz", every_steps=2),
        max_epochs=20,
    )

See ``docs/training.md`` and ``docs/sweep.md``.
"""

from repro.training.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointConfig,
    TrainingCheckpoint,
    load_training_checkpoint,
    restore_training_checkpoint,
    run_checkpointed,
    save_training_checkpoint,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointConfig",
    "TrainingCheckpoint",
    "load_training_checkpoint",
    "restore_training_checkpoint",
    "run_checkpointed",
    "save_training_checkpoint",
]
