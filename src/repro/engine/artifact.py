"""Compiled-plan artifacts: serialize a tuned layer graph, reload, run.

The deployment story of the unified compiler: once a model is compiled
(and optionally tuned with :func:`repro.compiler.autotune.tune_plan`),
:func:`save_plan` writes the plan's layer graph — its arrays plus every
pass decision (per-slot sparse format, scheme, grids,
tiles) — into a single ``.npz`` file.  An int8 plan's weights are stored
as what it runs, each one's nonzero pattern, int8 codes and scale
(:func:`repro.compiler.ir.graph_to_arrays`); a float plan's weights and
every bias in full float64.
:func:`load_plan` rebuilds the graph with those decisions *pinned* and
lowers it through the same deterministic
:func:`~repro.engine.plan.lower_graph`, so the reloaded plan produces
**bit-identical logits** to the saved one, for every scheme and format,
including streaming state carry through
:meth:`~repro.engine.plan.ModelPlan.run_chunk`.

Crash safety: an always-on recognizer restarts by ``load_plan``-ing the
artifact a dead worker was serving, so a half-written file must never be
observable.  :func:`save_plan` therefore writes to a temporary file in
the destination directory, flushes and ``fsync``\\ s it, and publishes it
with an atomic ``os.replace`` — a reader sees either the complete old
artifact or the complete new one, never a torn write.  The header also
carries a SHA-256 over the graph metadata and every array's bytes;
:func:`load_plan` recomputes it and raises
:class:`~repro.errors.ArtifactError` (instead of surfacing a numpy/zip
traceback) on truncated, corrupted, or foreign files.

Format: an ``npz`` archive with one ``meta.json`` entry (the graph
header from :func:`repro.compiler.ir.graph_to_arrays` wrapped with the
checksum, UTF-8 JSON) and one entry per param array and float weight,
three per int8 weight (``.pattern``, ``.codes``, ``.scale``).
"""

from __future__ import annotations

import json
import struct
import zipfile
from pathlib import Path
from typing import Union

import numpy as np

from repro.compiler.ir import graph_from_arrays, graph_to_arrays
from repro.engine.plan import ModelPlan, lower_graph
from repro.errors import ArtifactError, ConfigError
from repro.utils.atomic_write import atomic_write, content_checksum

_META_KEY = "meta.json"
_CHECKSUM_KEY = "__checksum__"

# The checksum primitive is shared with training checkpoints; the old
# private name stays importable for callers inside the engine.
_content_checksum = content_checksum


def save_plan(path: Union[str, Path], plan: ModelPlan) -> Path:
    """Write ``plan``'s layer graph to ``path`` as a compiled artifact.

    The plan must have been compiled through the unified pipeline (every
    ``compile_model``/``compile_rnn``/``lower_graph`` plan is); a
    hand-assembled :class:`ModelPlan` without a graph cannot round-trip.

    The write is crash-safe: the archive lands in a temp file next to
    ``path``, is fsync'd, and is published with an atomic
    ``os.replace`` — a concurrent or post-crash reader never observes a
    partially written artifact.
    """
    if plan.graph is None:
        raise ConfigError(
            "plan has no layer graph attached; only plans compiled through "
            "the unified pipeline can be saved"
        )
    path = Path(path)
    meta, arrays = graph_to_arrays(plan.graph)
    header = {"graph": meta, _CHECKSUM_KEY: _content_checksum(meta, arrays)}
    payload = json.dumps(header).encode("utf-8")
    arrays[_META_KEY] = np.frombuffer(payload, dtype=np.uint8)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, lambda handle: np.savez_compressed(handle, **arrays))
    except OSError as exc:
        raise ArtifactError(f"cannot write artifact to {path}: {exc}") from exc
    return path


def load_plan(path: Union[str, Path]) -> ModelPlan:
    """Reload a compiled artifact into a ready-to-run :class:`ModelPlan`.

    The recorded format/scheme decisions are pinned, so no pass
    re-decides anything: lowering replays the saved compilation exactly
    and the returned plan's logits are bit-identical to the saved plan's.

    Raises :class:`~repro.errors.ArtifactError` if the file is missing,
    is not a compiled-plan artifact, is truncated, or fails its content
    checksum — never a raw numpy/zipfile traceback.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            if _META_KEY not in data:
                raise ArtifactError(f"{path} is not a compiled-plan artifact")
            header = json.loads(bytes(data[_META_KEY]).decode("utf-8"))
            arrays = {key: data[key] for key in data.files if key != _META_KEY}
    except ArtifactError:
        raise
    except (
        OSError,
        EOFError,
        ValueError,
        KeyError,
        struct.error,
        zipfile.BadZipFile,
    ) as exc:
        raise ArtifactError(
            f"{path} is not a readable compiled-plan artifact "
            f"(missing, truncated, or corrupted): {exc}"
        ) from exc
    if isinstance(header, dict) and "graph" in header:
        meta = header["graph"]
        recorded = header.get(_CHECKSUM_KEY)
        if recorded is not None:
            actual = _content_checksum(meta, arrays)
            if actual != recorded:
                raise ArtifactError(
                    f"{path} failed its content checksum "
                    f"(recorded {recorded[:12]}…, got {actual[:12]}…): "
                    "the artifact bytes were corrupted after save"
                )
    else:
        # Pre-checksum artifacts stored the bare graph header.
        meta = header
    try:
        graph = graph_from_arrays(meta, arrays)
    except Exception as exc:
        raise ArtifactError(
            f"{path} carries a malformed layer graph: {exc}"
        ) from exc
    return lower_graph(graph)


__all__ = ["save_plan", "load_plan"]
