"""Dataset/DataLoader abstractions for variable-length sequence batches.

Speech utterances have different lengths.  :func:`collate` pads features
and labels to the batch maximum and returns a 0/1 frame mask that
downstream code uses to ignore padded frames (evaluation); :func:`pack`
keeps only the real frames, step-major and longest first (training).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.utils.rng import RngLike, new_rng


@dataclass
class SequenceExample:
    """One utterance: frame features ``(T, D)`` and per-frame labels ``(T,)``."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ShapeError(f"features must be (T, D), got {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ShapeError(
                f"labels shape {self.labels.shape} must be "
                f"({self.features.shape[0]},)"
            )

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class Batch:
    """A padded minibatch of utterances (time-major).

    Attributes
    ----------
    features: ``(T_max, B, D)`` padded frame features.
    labels:   ``(T_max, B)`` padded labels (padding value 0, masked out).
    mask:     ``(T_max, B)`` 1.0 for real frames, 0.0 for padding.
    lengths:  ``(B,)`` true utterance lengths.
    """

    features: np.ndarray
    labels: np.ndarray
    mask: np.ndarray
    lengths: np.ndarray

    @property
    def batch_size(self) -> int:
        return self.features.shape[1]

    @property
    def max_length(self) -> int:
        return self.features.shape[0]

    def num_frames(self) -> int:
        """Number of real (unpadded) frames in the batch."""
        return int(self.lengths.sum())


def _feature_dim(examples: Sequence[SequenceExample], caller: str) -> int:
    """The one feature width of a non-empty batch of examples."""
    if not examples:
        raise ValueError(f"{caller}() needs at least one example")
    dims = {ex.features.shape[1] for ex in examples}
    if len(dims) != 1:
        raise ShapeError(f"inconsistent feature dims in batch: {sorted(dims)}")
    return dims.pop()


def collate(examples: Sequence[SequenceExample]) -> Batch:
    """Pad a list of :class:`SequenceExample` into a time-major :class:`Batch`."""
    dim = _feature_dim(examples, "collate")
    lengths = np.array([len(ex) for ex in examples], dtype=np.int64)
    t_max = int(lengths.max())
    batch = len(examples)
    features = np.zeros((t_max, batch, dim))
    labels = np.zeros((t_max, batch), dtype=np.int64)
    mask = np.zeros((t_max, batch))
    for b, example in enumerate(examples):
        t = len(example)
        features[:t, b, :] = example.features
        labels[:t, b] = example.labels
        mask[:t, b] = 1.0
    return Batch(features=features, labels=labels, mask=mask, lengths=lengths)


@dataclass
class PackedBatch:
    """A minibatch of utterances packed step-major, longest first
    (:mod:`repro.kernels.packed`): only real frames, no mask.

    Attributes
    ----------
    features:    ``(N, D)`` the frames of every step, live rows in order.
    labels:      ``(N,)`` their labels.
    batch_sizes: ``(T,)`` rows live at each step, non-increasing.
    """

    features: np.ndarray
    labels: np.ndarray
    batch_sizes: np.ndarray


def pack(examples: Sequence[SequenceExample]) -> PackedBatch:
    """Sort ``examples`` longest-first (stably) and pack their frames
    step-major into a :class:`PackedBatch`; an equal-length batch packs to
    its padded ``(T, B)`` frames in the same order."""
    _feature_dim(examples, "pack")
    lengths = np.array([len(ex) for ex in examples], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    # (t, b) of each real frame in step-major order, and where it sits in
    # the utterances laid end to end
    steps, rows = np.nonzero(np.arange(lengths[0])[:, None] < lengths[None, :])
    source = (np.cumsum(lengths) - lengths)[rows] + steps
    features = np.concatenate([examples[i].features for i in order])[source]
    labels = np.concatenate([examples[i].labels for i in order])[source]
    batch_sizes = np.bincount(steps, minlength=lengths[0])
    return PackedBatch(features, labels, batch_sizes)


class Dataset:
    """In-memory sequence dataset."""

    def __init__(self, examples: Sequence[SequenceExample]) -> None:
        self.examples: List[SequenceExample] = list(examples)

    def __len__(self) -> int:
        return len(self.examples)

    def __getitem__(self, index: int) -> SequenceExample:
        return self.examples[index]


class DataLoader:
    """Iterate a :class:`Dataset` in shuffled, padded minibatches."""

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int = 8,
        shuffle: bool = True,
        rng: RngLike = None,
        drop_last: bool = False,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = new_rng(rng)

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Batch]:
        indices = np.arange(len(self.dataset))
        if self.shuffle:
            self._rng.shuffle(indices)
        for start in range(0, len(indices), self.batch_size):
            chunk = indices[start : start + self.batch_size]
            if self.drop_last and len(chunk) < self.batch_size:
                break
            yield collate([self.dataset[int(i)] for i in chunk])


def train_test_split(
    dataset: Dataset, test_fraction: float = 0.2, rng: RngLike = None
) -> Tuple[Dataset, Dataset]:
    """Randomly split a dataset into train/test subsets."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = new_rng(rng)
    indices = np.arange(len(dataset))
    rng.shuffle(indices)
    n_test = max(1, int(round(test_fraction * len(dataset))))
    test_idx = indices[:n_test]
    train_idx = indices[n_test:]
    return (
        Dataset([dataset[int(i)] for i in train_idx]),
        Dataset([dataset[int(i)] for i in test_idx]),
    )
