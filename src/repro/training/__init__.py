"""Fault-tolerant training: checkpoints and data-parallel workers.

Two pieces sit on top of the single-process
:class:`~repro.speech.trainer.Trainer`:

* :mod:`repro.training.checkpoint` — atomic, SHA-256-checksummed
  training checkpoints (weights + Adam moments + ADMM/BSP phase state +
  epoch/step cursor + loss trace) with **bit-exact** resume, and
  :func:`run_checkpointed` to drive a prune→retrain run that survives
  being killed at any instant.
* :mod:`repro.training.distributed` — :class:`DistributedTrainer`
  shards each batch across forked gradient workers with chunked
  all-reduce over pipes and crash/stall supervision by the shared
  :class:`~repro.utils.supervise.Pool`.

Quickstart::

    from repro import training

    trainer = training.DistributedTrainer(
        model, train_set, test_set, dist=training.DistConfig(num_workers=4)
    )
    training.run_checkpointed(
        trainer, bsp_pruner,
        training.CheckpointConfig(path="cell/checkpoint.npz", every_steps=2),
        max_epochs=20,
    )

See ``docs/training.md`` (distributed section) and ``docs/sweep.md``.
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
from repro.training.distributed import DistConfig, DistributedTrainer, RestartEvent

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointConfig",
    "TrainingCheckpoint",
    "load_training_checkpoint",
    "restore_training_checkpoint",
    "run_checkpointed",
    "save_training_checkpoint",
    "DistConfig",
    "DistributedTrainer",
    "RestartEvent",
]
