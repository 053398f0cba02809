"""Per-session chunk journals: the replay log behind crash recovery.

The fabric's recovery guarantee rests on two facts: the streaming
runtime is *chunk-exact* (any chunk split of an utterance decodes
byte-identically — PR 4's sweep), and decoding is deterministic.  So if
the router keeps every feature chunk it ever accepted for a session, a
crashed worker's sessions can be re-homed by replaying their journals
into a fresh scheduler: the replayed phone stream is byte-identical to
the uninterrupted one, and the phones already delivered to the client
form an exact prefix of it — recovery just skips that prefix.

:class:`SessionJournal` is that log.  It also backs the optional journal
hook on :class:`~repro.engine.streaming.StreamScheduler` for
single-process deployments that want the same replayability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import StreamError


@dataclass
class _JournalEntry:
    chunks: List[np.ndarray] = field(default_factory=list)
    frames: int = 0
    finished: bool = False
    #: The plan version (artifact path) the session opened under, and
    #: the swap markers: ``(chunk_index, new_version)`` — chunks before
    #: the index were decoded under the previous version.
    version: Optional[str] = None
    marks: List[Tuple[int, str]] = field(default_factory=list)


class SessionJournal:
    """Ordered log of every accepted feature chunk, per session.

    Memory is bounded by the live sessions' fed audio: a journal entry
    is dropped by :meth:`close` once its session has finished *and* its
    phones have been delivered — at that point there is nothing left to
    recover.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, _JournalEntry] = {}

    def _entry(self, sid: int) -> _JournalEntry:
        entry = self._entries.get(sid)
        if entry is None:
            raise StreamError(f"no journal for session id {sid}")
        return entry

    def open(self, sid: int, version: Optional[str] = None) -> None:
        """Start ``sid``'s log; ``version`` records which plan version
        (artifact path) the session opened under, so a post-swap replay
        can decode each chunk under the plan that originally saw it."""
        if sid in self._entries:
            raise StreamError(f"journal for session {sid} already open")
        self._entries[sid] = _JournalEntry(version=version)

    def record(self, sid: int, features: np.ndarray) -> None:
        """Append an accepted chunk (call only after validation)."""
        entry = self._entry(sid)
        if entry.finished:
            raise StreamError(f"session {sid} already finished")
        # a copy: a replay must see what was accepted, whatever the caller
        # has done to its buffer since
        entry.chunks.append(np.array(features))
        entry.frames += len(features)

    def mark_finished(self, sid: int) -> None:
        self._entry(sid).finished = True

    def mark_swap(self, sid: int, version: str) -> None:
        """Record that chunks from here on decode under ``version``.

        Called by the fabric once the session's worker has acknowledged
        a hot-swap (flush barrier included), i.e. every chunk already
        journaled was decoded under the previous version.  Consecutive
        marks with no chunks in between collapse to the latest version.
        """
        entry = self._entry(sid)
        position = len(entry.chunks)
        if entry.marks and entry.marks[-1][0] == position:
            entry.marks[-1] = (position, version)
        elif not entry.marks and position == 0:
            entry.version = version
        else:
            entry.marks.append((position, version))

    def chunks(self, sid: int) -> Tuple[np.ndarray, ...]:
        """The replay log: every chunk accepted for ``sid``, in order."""
        return tuple(self._entry(sid).chunks)

    def version(self, sid: int) -> Optional[str]:
        """The plan version the session is currently decoding under."""
        entry = self._entry(sid)
        return entry.marks[-1][1] if entry.marks else entry.version

    def segments(self, sid: int) -> List[Tuple[Optional[str], Tuple[np.ndarray, ...]]]:
        """The replay log split at swap markers: ``(version, chunks)``
        runs in order.  Always at least one segment (possibly empty), so
        a replayer knows the version even for a chunkless session."""
        entry = self._entry(sid)
        segments: List[Tuple[Optional[str], Tuple[np.ndarray, ...]]] = []
        start, version = 0, entry.version
        for position, new_version in entry.marks:
            segments.append((version, tuple(entry.chunks[start:position])))
            start, version = position, new_version
        segments.append((version, tuple(entry.chunks[start:])))
        return segments

    def frames(self, sid: int) -> int:
        return self._entry(sid).frames

    def finished(self, sid: int) -> bool:
        return self._entry(sid).finished

    def sessions(self) -> List[int]:
        return list(self._entries)

    def __contains__(self, sid: int) -> bool:
        return sid in self._entries

    def close(self, sid: int) -> None:
        """Drop ``sid``'s log (nothing left to recover)."""
        self._entries.pop(sid, None)


__all__ = ["SessionJournal"]
