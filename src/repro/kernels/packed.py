"""The packed-sequence layout of the fused GRU training step.

A batch of utterances sorted longest-first is packed step-major, as
cuDNN and PyTorch's ``PackedSequence`` do: ``data (N, ·)`` holds the N
real frames, and ``batch_sizes (T,)`` the number of rows live at each
step — a prefix of the rows live at the step before, so ``batch_sizes``
is non-increasing.  Step ``t``'s frames are the ``batch_sizes[t]`` rows
of ``data`` after the ``batch_sizes[:t].sum()`` before them.  An
equal-length ``(T, B, ·)`` batch is ``data.reshape(T * B, ·)`` with
``batch_sizes = [B] * T``: the same memory.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def steps(batch_sizes, frames: int, batch: int) -> np.ndarray:
    """``batch_sizes`` as C-contiguous int64, once it packs ``frames``
    frames of ``batch`` rows: positive, non-increasing, ``batch`` live rows
    at the first step and ``frames`` in all — else a
    :class:`~repro.errors.ShapeError`.  (Every row a loop over such a
    batch addresses is inside buffers of that shape.)"""
    sizes = np.ascontiguousarray(batch_sizes, dtype=np.int64)
    if (
        sizes.ndim != 1 or not sizes.size or sizes[0] != batch or sizes[-1] < 1
        or int(sizes.sum()) != frames or (np.diff(sizes) > 0).any()
    ):
        raise ShapeError(
            f"batch_sizes {np.asarray(batch_sizes).tolist()} do not pack "
            f"{frames} frames of {batch} rows"
        )
    return sizes


def starts(sizes: np.ndarray) -> np.ndarray:
    """The first frame of each step."""
    return np.cumsum(sizes) - sizes


def last_frames(sizes: np.ndarray) -> np.ndarray:
    """The frame of each row's last step, rows in order: row ``b`` ends at
    the last step with more than ``b`` live rows."""
    first = starts(sizes)
    ends = np.append(sizes[1:], 0)  # rows still live a step later
    out = np.empty(sizes[0], dtype=np.int64)
    for t in np.flatnonzero(ends < sizes):
        rows = np.arange(ends[t], sizes[t])
        out[rows] = first[t] + rows
    return out


def previous_frames(sizes: np.ndarray) -> np.ndarray:
    """Where each frame's previous state sits in ``hs = [h0; states]``
    (``B + N`` rows): its row of ``h0`` at the first step, else its row of
    the step before."""
    first = starts(sizes)
    before = np.concatenate(([0], sizes[0] + first[:-1]))
    return np.repeat(before - first, sizes) + np.arange(int(sizes.sum()))
