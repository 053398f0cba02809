"""Data-parallel fused-BPTT training across supervised worker processes.

:class:`DistributedTrainer` is a drop-in :class:`~repro.speech.trainer.Trainer`
whose per-batch forward/backward fans out over forked gradient workers:

* The **parent owns all canonical state** — model weights, Adam slots,
  the ADMM/BSP phase machine, gradient clipping.  Workers are
  *stateless gradient servers*: each step the parent broadcasts the
  current flattened weights in bounded chunks over the worker's pipe
  together with the worker's shard of utterance indices; the worker
  (which inherited the dataset and model structure at fork) collates
  its shard, runs the fused-BPTT forward/backward, and streams the
  flattened gradient back chunk by chunk.
* **The reduction is exact and deterministic.**  Masked cross-entropy
  averages over real frames, so the full-batch gradient is
  ``Σ_w (M_w / M) · g_w`` with ``M_w`` the shard's frame count — the
  parent applies that scaling and sums the chunks in fixed worker
  order.  A run is therefore bit-identical run-to-run at a fixed worker
  count (shard-local padding means results *across* worker counts agree
  only to float tolerance, which is documented, not hidden).
* **Supervision is the shared pool's.**  The workers are a
  :class:`~repro.utils.supervise.Pool`, as in the serving fabric:
  failures are detected synchronously (RPC deadline as stall detector,
  dead process / broken pipe as crash detector) and restarts use its
  capped exponential backoff and per-worker restart budget.  Because
  workers are stateless, re-admission at the current step is literal:
  the replacement worker is simply re-sent the in-flight step request —
  weights and shard — and the step completes with the other workers'
  already-received gradients untouched.  Past the budget the trainer
  raises a typed :class:`~repro.errors.TrainingError`, on that step and
  on every later one.
* **Seeded per-worker RNG streams** (``spawn_rngs(seed, W)``) give each
  worker an independent deterministic stream for worker-local
  stochastic work (fault-injection jitter today, augmentation hooks
  tomorrow) without coupling it to the parent's shuffle, which remains
  the counter-based ``derive_seed(seed, epoch)``.

Fault injection: :class:`~repro.utils.faults.FaultConfig` plugs in
unchanged — ``crash_after_chunks=k`` kills the targeted gradient worker
just before its ``k+1``-th *step*, ``stall_after_chunks`` wedges it so
the RPC deadline must fire.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, TrainingError
from repro.nn import functional as F
from repro.nn.data import Dataset, collate
from repro.nn.tensor import Tensor
from repro.speech.model import GRUAcousticModel
from repro.speech.trainer import Trainer, TrainerConfig
from repro.utils.faults import FaultConfig, FaultInjector
from repro.utils.rng import new_rng, spawn_rngs
from repro.utils.supervise import Child, Pool, RestartEvent, WorkerFailure


@dataclass(frozen=True)
class DistConfig:
    """Settings of the data-parallel gradient fleet."""

    num_workers: int = 2
    #: Elements per pipe message when broadcasting weights / returning
    #: gradients — the chunked all-reduce granularity.
    chunk_elems: int = 1 << 15
    #: RPC deadline per step per worker; a worker silent past it is
    #: treated as stalled and restarted.
    rpc_timeout_s: float = 120.0
    max_restarts: int = 2
    backoff_base_s: float = 0.01
    backoff_cap_s: float = 1.0
    faults: Optional[FaultConfig] = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ConfigError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.chunk_elems < 1:
            raise ConfigError(f"chunk_elems must be >= 1, got {self.chunk_elems}")
        if self.rpc_timeout_s <= 0:
            raise ConfigError("rpc_timeout_s must be > 0")
        if self.max_restarts < 0:
            raise ConfigError(f"max_restarts must be >= 0, got {self.max_restarts}")


def _flatten(arrays: List[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.ascontiguousarray(a).ravel() for a in arrays])


def _chunk_bounds(total: int, chunk_elems: int) -> List[Tuple[int, int]]:
    return [
        (start, min(start + chunk_elems, total))
        for start in range(0, max(total, 1), chunk_elems)
    ]


def _shard_backward(model: GRUAcousticModel, batch) -> float:
    """Forward/backward the shard batch; gradients land on the model."""
    logits = model(Tensor(batch.features))
    t, b, c = logits.shape
    loss = F.cross_entropy(
        logits.reshape(t * b, c),
        batch.labels.reshape(-1),
        weight_mask=batch.mask.reshape(-1),
    )
    loss.backward()
    return float(loss.data)


def _gradient_worker_main(
    conn,
    worker_index: int,
    fault_config: Optional[FaultConfig],
    model: GRUAcousticModel,
    train_set: Dataset,
    num_workers: int,
    chunk_elems: int,
    seed: int,
) -> None:
    """Stateless gradient server: recv weights+shard, send gradients."""
    injector = FaultInjector(fault_config)
    # Seeded per-worker stream, independent of the parent's shuffle.
    _worker_rng = spawn_rngs(new_rng(seed), num_workers)[worker_index]
    model.train()
    params = list(model.parameters())
    sizes = [p.data.size for p in params]
    total = int(sum(sizes))
    bounds = _chunk_bounds(total, chunk_elems)
    flat = np.empty(total, dtype=np.float64)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            kind = message[0]
            if kind == "close":
                return
            if kind != "step":
                continue
            _, step_id, shard = message
            for index, (start, stop) in enumerate(bounds):
                chunk_msg = conn.recv()
                assert chunk_msg[0] == "wchunk" and chunk_msg[2] == index
                flat[start:stop] = chunk_msg[3]
            # The fault fires after the request is fully received: the
            # in-flight step is lost with the worker, exactly like a
            # fabric worker dying on a received-but-unprocessed chunk.
            injector.on_step()
            offset = 0
            for param, size in zip(params, sizes):
                param.data[...] = flat[offset : offset + size].reshape(
                    param.data.shape
                )
                offset += size
                param.zero_grad()
            batch = collate([train_set[int(i)] for i in shard])
            loss = _shard_backward(model, batch)
            grads = _flatten(
                [
                    p.grad if p.grad is not None else np.zeros_like(p.data)
                    for p in params
                ]
            )
            injector.before_send()
            for index, (start, stop) in enumerate(bounds):
                conn.send(("gchunk", step_id, index, grads[start:stop]))
            conn.send(("done", step_id, loss, int(batch.num_frames())))
    except (BrokenPipeError, OSError):
        return


class DistributedTrainer(Trainer):
    """Drop-in trainer that shards each batch across gradient workers.

    Everything outside the per-batch gradient computation — pruning
    hooks, ADMM penalties, clipping, the Adam step, evaluation, the
    epoch shuffle — runs in the parent through the inherited
    :class:`Trainer` code path, so checkpoints taken from a distributed
    run restore into a single-process trainer and vice versa.
    """

    def __init__(
        self,
        model: GRUAcousticModel,
        train_set: Dataset,
        test_set: Dataset,
        config: TrainerConfig = TrainerConfig(),
        dist: DistConfig = DistConfig(),
    ) -> None:
        super().__init__(model, train_set, test_set, config)
        self.dist = dist
        self._params = list(model.parameters())
        self._sizes = [p.data.size for p in self._params]
        self._total = int(sum(self._sizes))
        self._bounds = _chunk_bounds(self._total, dist.chunk_elems)
        self._step_id = 0
        self._pool = Pool(
            dist.num_workers,
            _gradient_worker_main,
            (model, train_set, dist.num_workers, dist.chunk_elems, config.seed),
            faults=dist.faults,
            max_restarts=dist.max_restarts,
            backoff_base_s=dist.backoff_base_s,
            backoff_cap_s=dist.backoff_cap_s,
        )

    # -- supervision: read through to the pool -----------------------------
    @property
    def restarts(self) -> Dict[int, int]:
        return self._pool.restarts

    @property
    def restart_log(self) -> List[RestartEvent]:
        return self._pool.restart_log

    @property
    def backoff_history(self) -> List[float]:
        return self._pool.backoff_history

    def _restart(self, failure: WorkerFailure) -> None:
        """Respawn a failed worker, or raise past its restart budget."""
        if self._pool.restart(failure) is None:
            raise TrainingError(
                f"gradient worker {failure.index} exceeded its restart "
                f"budget ({self.dist.max_restarts}) after a {failure.reason}"
            )

    # -- the distributed step ---------------------------------------------
    def _dispatch(self, w: int, shard: np.ndarray, flat: np.ndarray) -> None:
        """Send the step request, restarting the worker if the send fails
        (the pipe breaks when the target died before the dispatch)."""
        while True:
            conn = self._pool.children[w].conn
            try:
                conn.send(("step", self._step_id, shard))
                for index, (start, stop) in enumerate(self._bounds):
                    conn.send(("wchunk", self._step_id, index, flat[start:stop]))
                return
            except OSError as exc:
                self._restart(WorkerFailure(w, "crash", f"pipe send failed: {exc}"))

    def _collect(
        self, worker: Child, deadline: float
    ) -> Tuple[np.ndarray, float, int]:
        """Gather one worker's gradient chunks + loss; a torn stream is a
        crash, and :meth:`Child.recv` classifies the rest."""
        grads = np.empty(self._total, dtype=np.float64)
        received = 0
        while True:
            message = worker.recv(deadline, f"step {self._step_id} gradients")
            if message[1] != self._step_id:
                continue  # stale message from a pre-restart attempt
            if message[0] == "gchunk":
                start, stop = self._bounds[message[2]]
                grads[start:stop] = message[3]
                received += 1
            elif message[0] == "done":
                if received != len(self._bounds):
                    raise WorkerFailure(
                        worker.index, "crash", "torn gradient stream"
                    )
                return grads, float(message[2]), int(message[3])

    def _backward_on_batch(self, indices: np.ndarray) -> float:
        if self._pool.dead:
            raise TrainingError(
                f"gradient worker(s) {sorted(self._pool.dead)} exceeded "
                f"their restart budget ({self.dist.max_restarts})"
            )
        self._step_id += 1
        num_workers = self.dist.num_workers
        shards = [indices[w::num_workers] for w in range(num_workers)]
        frame_counts = [
            sum(len(self.train_set[int(i)]) for i in shard) for shard in shards
        ]
        total_frames = max(float(sum(frame_counts)), 1.0)
        flat = _flatten([p.data for p in self._params])
        active = [w for w in range(num_workers) if len(shards[w])]
        for w in active:
            self._dispatch(w, shards[w], flat)
        results: Dict[int, Tuple[np.ndarray, float, int]] = {}
        for w in active:
            deadline = time.monotonic() + self.dist.rpc_timeout_s
            while w not in results:
                try:
                    results[w] = self._collect(self._pool.children[w], deadline)
                except WorkerFailure as failure:
                    # Restart and re-admit at the current step: the
                    # replacement gets the same weights + shard resent.
                    self._restart(failure)
                    self._dispatch(w, shards[w], flat)
                    deadline = time.monotonic() + self.dist.rpc_timeout_s
        # Deterministic reduction: fixed worker order, frame-weighted.
        reduced = np.zeros(self._total, dtype=np.float64)
        loss = 0.0
        for w in active:
            grads, shard_loss, frames = results[w]
            if frames != frame_counts[w]:
                raise TrainingError(
                    f"worker {w} reported {frames} frames for a shard of "
                    f"{frame_counts[w]}"
                )
            scale = frame_counts[w] / total_frames
            reduced += scale * grads
            loss += scale * shard_loss
        offset = 0
        for param, size in zip(self._params, self._sizes):
            param.grad = reduced[offset : offset + size].reshape(
                param.data.shape
            ).copy()
            offset += size
        return loss

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self._pool.close()

    def __enter__(self) -> "DistributedTrainer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["DistConfig", "DistributedTrainer", "RestartEvent"]
