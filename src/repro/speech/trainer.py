"""Training and evaluation of the GRU acoustic model, with pruning hooks.

:class:`Trainer` owns the optimization loop and speaks the
:class:`~repro.pruning.base.PruningMethod` protocol, so dense training,
BSP (ADMM), and every baseline run through the same code path — mirroring
how the paper trains all Table I entries "using the same TIMIT dataset".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.errors import ConfigError
from repro.nn import functional as F
from repro.nn.data import DataLoader, Dataset, pack
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.pruning.base import PruningMethod
from repro.speech.decoder import decode_batch
from repro.speech.metrics import collapse_frames, frame_accuracy, phone_error_rate
from repro.speech.model import GRUAcousticModel
from repro.utils.rng import RngLike, derive_seed, new_rng


@dataclass(frozen=True)
class TrainerConfig:
    """Optimization settings."""

    learning_rate: float = 3e-3
    batch_size: int = 8
    grad_clip: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.grad_clip <= 0:
            raise ConfigError(f"grad_clip must be positive, got {self.grad_clip}")


@dataclass
class EvalResult:
    """Evaluation outcome on a dataset."""

    per: float  # phone error rate, percent
    frame_accuracy: float  # fraction of frames classified correctly
    num_utterances: int


@dataclass
class TrainLog:
    """Per-epoch training trace."""

    losses: List[float] = field(default_factory=list)

    def append(self, loss: float) -> None:
        self.losses.append(loss)

    @property
    def final_loss(self) -> Optional[float]:
        return self.losses[-1] if self.losses else None


class Trainer:
    """Adam training loop for :class:`GRUAcousticModel` with pruning hooks."""

    def __init__(
        self,
        model: GRUAcousticModel,
        train_set: Dataset,
        test_set: Dataset,
        config: TrainerConfig = TrainerConfig(),
    ) -> None:
        self.model = model
        self.train_set = train_set
        self.test_set = test_set
        self.config = config
        self.optimizer = Adam(model.parameters(), lr=config.learning_rate)
        self.log = TrainLog()
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """Completed-epoch counter; settable so a checkpoint restore can
        reposition the deterministic per-epoch shuffle."""
        return self._epoch

    @epoch.setter
    def epoch(self, value: int) -> None:
        if value < 0:
            raise ConfigError(f"epoch must be >= 0, got {value}")
        self._epoch = int(value)

    # -- single steps ---------------------------------------------------------
    def _clip_gradients(self) -> None:
        limit = self.config.grad_clip
        params = [p for p in self.model.parameters() if p.grad is not None]
        # vdot flattens and accumulates in one BLAS call per array — no
        # squared temporary per parameter.
        norm = np.sqrt(sum(float(np.vdot(p.grad, p.grad)) for p in params))
        if norm > limit:
            scale = limit / norm
            for param in params:
                param.grad *= scale

    def epoch_order(self) -> np.ndarray:
        """The example order of the *current* epoch.

        A pure function of ``(config.seed, epoch)`` — the same seeded
        shuffle :class:`~repro.nn.data.DataLoader` would apply — so any
        process (a resumed trainer, a sweep cell) can
        reconstruct exactly which utterances the Nth step of epoch E
        trains on.
        """
        indices = np.arange(len(self.train_set))
        new_rng(derive_seed(self.config.seed, self._epoch)).shuffle(indices)
        return indices

    def steps_per_epoch(self) -> int:
        n = len(self.train_set)
        return (n + self.config.batch_size - 1) // self.config.batch_size

    def _backward_on_batch(self, indices: np.ndarray) -> float:
        """Forward/backward one minibatch, packed (longest first, real
        frames only); leaves gradients on the model."""
        batch = pack([self.train_set[int(i)] for i in indices])
        logits = self.model(Tensor(batch.features), batch.batch_sizes)
        loss = F.cross_entropy(logits, batch.labels)
        loss.backward()
        return float(loss.data)

    def train_epoch(
        self,
        method: Optional[PruningMethod] = None,
        *,
        start_step: int = 0,
        prior_losses: Optional[List[float]] = None,
        on_step: Optional[Callable[[int, List[float]], None]] = None,
    ) -> float:
        """One pass over the training set; returns the mean batch loss.

        Every batch is packed (longest first, real frames only; see
        :func:`~repro.nn.data.pack`).  It runs through the fused training
        fast path: each recurrent layer is one ``gru_sequence_grad``
        forward + single-BPTT-backward kernel call (see
        ``docs/training.md``), so dense training and every
        ADMM/prune→retrain phase share the same accelerated loop.

        Step-granular resume: ``start_step`` skips that many leading
        batches (already trained before a checkpoint), ``prior_losses``
        re-seeds their recorded losses so the epoch mean is unchanged,
        and ``on_step(completed_steps, losses)`` fires after each
        optimizer step at a consistent state point — this is where the
        checkpoint writer hooks in.  Because the batch order is the
        deterministic :meth:`epoch_order`, a resumed epoch continues
        bit-identically.
        """
        if start_step and len(prior_losses or ()) != start_step:
            raise ConfigError(
                f"resume at step {start_step} needs exactly that many "
                f"prior losses, got {len(prior_losses or ())}"
            )
        self.model.train()
        order = self.epoch_order()
        batch_size = self.config.batch_size
        losses = list(prior_losses) if prior_losses else []
        for step, start in enumerate(range(0, len(order), batch_size)):
            if step < start_step:
                continue
            indices = order[start : start + batch_size]
            self.optimizer.zero_grad()
            loss = self._backward_on_batch(indices)
            if method is not None:
                method.on_batch_backward()
            self._clip_gradients()
            self.optimizer.step()
            if method is not None:
                method.on_batch_end()
            losses.append(loss)
            if on_step is not None:
                on_step(step + 1, losses)
        if method is not None:
            method.on_epoch_end()
        self._epoch += 1
        mean_loss = float(np.mean(losses)) if losses else 0.0
        self.log.append(mean_loss)
        return mean_loss

    # -- drivers --------------------------------------------------------------
    def train_dense(self, epochs: int) -> float:
        """Ordinary dense training for ``epochs``; returns final mean loss."""
        loss = 0.0
        for _ in range(epochs):
            loss = self.train_epoch()
        return loss

    def run_pruning(self, method: PruningMethod, max_epochs: int = 100) -> int:
        """Train until ``method.finished`` (or ``max_epochs``); returns epochs."""
        epochs = 0
        while not method.finished and epochs < max_epochs:
            self.train_epoch(method)
            epochs += 1
        return epochs

    # -- evaluation -------------------------------------------------------
    def evaluate(
        self, dataset: Optional[Dataset] = None, min_duration: int = 2
    ) -> EvalResult:
        """PER and frame accuracy on ``dataset`` (default: the test set).

        Runs the model in eval mode, so the recurrent layers take the
        fused no-grad fast path through :mod:`repro.kernels`; the previous
        train/eval mode is restored afterwards.
        """
        dataset = dataset if dataset is not None else self.test_set
        was_training = self.model.training
        self.model.eval()
        loader = DataLoader(
            dataset, batch_size=self.config.batch_size, shuffle=False
        )
        references: List[List[int]] = []
        hypotheses: List[List[int]] = []
        correct_frames = 0.0
        total_frames = 0
        try:
            for batch in loader:
                logits = self.model(Tensor(batch.features)).data
                hypotheses.extend(decode_batch(logits, batch.lengths, min_duration))
                predictions = logits.argmax(axis=2)
                correct_frames += frame_accuracy(
                    batch.labels, predictions, batch.mask
                ) * batch.num_frames()
                total_frames += batch.num_frames()
                for b, length in enumerate(batch.lengths):
                    references.append(collapse_frames(batch.labels[:length, b]))
        finally:
            if was_training:
                self.model.train()
        per = phone_error_rate(references, hypotheses)
        acc = correct_frames / total_frames if total_frames else 0.0
        return EvalResult(per=per, frame_accuracy=acc, num_utterances=len(dataset))
