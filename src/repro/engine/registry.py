"""Versioned on-disk registry of compiled-plan artifacts.

:mod:`repro.engine.artifact` moves one ``.npz`` by path; this module
turns those artifacts into a *population* of deployable model versions —
the bridge between the autotuning loop (every :func:`tune_plan` winner
or sweep grid cell can be published) and the serving fleet (the fabric
resolves plans by name/version and records its swap/canary decisions
back into the version's metadata).

Layout — one directory per published version::

    <root>/<name>/v<N>/
        plan.npz     the checksummed compiled artifact (save_plan format)
        meta.json    metadata: scheme, slot formats,
                     tune_plan trace summary, parent-version lineage,
                     artifact SHA-256, status + decision history

Guarantees:

* **Atomic publish.** A version is staged into a temp directory inside
  the registry root and published with one ``os.rename`` — a concurrent
  reader (or a crashed publisher) never observes a partial version.
  Version ids are dense (``v1``, ``v2``, …) and immutable: publishing
  an id that exists raises :class:`~repro.errors.RegistryError`.
* **Integrity on load.** ``meta.json`` records the artifact file's
  SHA-256 at publish; :meth:`PlanRegistry.load` re-hashes the bytes
  before handing them to :func:`load_plan` (which then verifies the
  inner content checksum), so bit rot surfaces as a typed
  :class:`~repro.errors.RegistryError`, never a numpy traceback.
* **Lineage.** Each version may name its ``parent`` version; canary and
  hot-swap decisions are appended to the version's ``history`` (with an
  atomic metadata rewrite), so ``why is v3 serving?`` is answerable
  from the registry alone.

See ``docs/registry.md`` for the swap/canary/rollback lifecycle.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.engine.artifact import load_plan, save_plan
from repro.engine.plan import ModelPlan
from repro.errors import ArtifactError, RegistryError
from repro.utils.atomic_write import atomic_write_json

ARTIFACT_FILE = "plan.npz"
METADATA_FILE = "meta.json"

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_VERSION_RE = re.compile(r"^v([1-9][0-9]*)$")


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _normalize_version(version: Union[str, int]) -> str:
    """``3`` / ``"3"`` / ``"v3"`` → ``"v3"``; anything else is an error."""
    if isinstance(version, int):
        version = f"v{version}"
    version = str(version)
    if not version.startswith("v"):
        version = f"v{version}"
    if not _VERSION_RE.match(version):
        raise RegistryError(f"malformed version id {version!r} (want 'v<N>')")
    return version


def summarize_tuning(result) -> Dict:
    """Compress a :class:`~repro.compiler.autotune.PlanTuningResult`
    into the JSON-safe trace summary stored in version metadata."""
    best = result.best
    return {
        "baseline_s": float(result.baseline_s),
        "tuned_s": float(best.measured_s),
        "speedup": float(result.speedup),
        "num_evaluated": int(result.num_evaluated),
        "best_label": best.label,
        "best_formats": best.describe_formats(),
    }


@dataclass(frozen=True)
class RegistryEntry:
    """One resolved version: where it lives and what was recorded."""

    name: str
    version: str
    path: Path  # the version directory
    artifact_path: Path  # the .npz inside it
    meta: Dict

    @property
    def parent(self) -> Optional[str]:
        return self.meta.get("parent")

    @property
    def status(self) -> str:
        return self.meta.get("status", "published")


class PlanRegistry:
    """A directory of named, versioned, integrity-checked model plans."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise RegistryError(
                f"cannot create registry root {self.root}: {exc}"
            ) from exc

    # -- publish ----------------------------------------------------------
    def publish(
        self,
        name: str,
        plan: ModelPlan,
        version: Optional[Union[str, int]] = None,
        parent: Optional[Union[str, int]] = None,
        tune: Optional[Union[Dict, object]] = None,
        extra: Optional[Dict] = None,
    ) -> RegistryEntry:
        """Publish ``plan`` as a new immutable version of ``name``.

        ``version`` defaults to the next dense id (``v1`` for a new
        name).  ``parent`` records lineage and must already exist.
        ``tune`` accepts a :class:`~repro.compiler.autotune.PlanTuningResult`
        (summarized via :func:`summarize_tuning`) or a pre-built dict.
        The publish is atomic: the version directory appears fully
        formed or not at all.
        """
        if not _NAME_RE.match(name):
            raise RegistryError(
                f"invalid model name {name!r} "
                "(want [A-Za-z0-9][A-Za-z0-9._-]*)"
            )
        existing = self.versions(name) if (self.root / name).is_dir() else []
        if version is None:
            version = f"v{len(existing) + 1}" if existing else "v1"
        version = _normalize_version(version)
        if version in existing:
            raise RegistryError(
                f"{name}/{version} already exists; versions are immutable"
            )
        if parent is not None:
            parent = _normalize_version(parent)
            if parent not in existing:
                raise RegistryError(
                    f"parent {name}/{parent} does not exist"
                )
        if tune is not None and not isinstance(tune, dict):
            tune = summarize_tuning(tune)

        meta = {
            "name": name,
            "version": version,
            "created_unix": time.time(),
            "scheme": plan.scheme,
            "input_dim": int(plan.input_dim),
            "hidden_size": int(plan.hidden_size),
            "num_layers": len(plan.layers),
            "nbytes": int(plan.nbytes()),
            "signature": _jsonable_signature(plan),
            "formats": dict(plan.graph.formats()) if plan.graph else {},
            "parent": parent,
            "tune": tune,
            "extra": dict(extra) if extra else {},
            "status": "published",
            "history": [],
        }

        try:
            staging = Path(
                tempfile.mkdtemp(dir=self.root, prefix=f".staging-{name}-")
            )
        except OSError as exc:
            raise RegistryError(
                f"cannot stage publish under {self.root}: {exc}"
            ) from exc
        try:
            artifact = staging / ARTIFACT_FILE
            save_plan(artifact, plan)
            meta["artifact_sha256"] = _file_sha256(artifact)
            _write_json(staging / METADATA_FILE, meta)
            target = self.root / name / version
            try:
                target.parent.mkdir(parents=True, exist_ok=True)
                # Plain rename (not replace): fails instead of
                # clobbering if the version raced into existence.
                os.rename(staging, target)
            except OSError as exc:
                raise RegistryError(
                    f"cannot publish {name}/{version}: {exc}"
                ) from exc
        except BaseException:
            _remove_tree(staging)
            raise
        return RegistryEntry(
            name=name,
            version=version,
            path=target,
            artifact_path=target / ARTIFACT_FILE,
            meta=meta,
        )

    # -- resolve / load ---------------------------------------------------
    def names(self) -> List[str]:
        """Every model name with at least one published version."""
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir()
            and _NAME_RE.match(entry.name)
            and self.versions(entry.name)
        )

    def versions(self, name: str) -> List[str]:
        """Published version ids of ``name``, oldest first."""
        model_dir = self.root / name
        if not model_dir.is_dir():
            return []
        found = []
        for entry in model_dir.iterdir():
            match = _VERSION_RE.match(entry.name)
            if (
                match
                and entry.is_dir()
                and (entry / METADATA_FILE).is_file()
                and (entry / ARTIFACT_FILE).is_file()
            ):
                found.append((int(match.group(1)), entry.name))
        return [version for _, version in sorted(found)]

    def resolve(
        self, name: str, version: Union[str, int] = "latest"
    ) -> RegistryEntry:
        """Look up ``name``/``version`` (``"latest"`` or a pin like
        ``"v2"``); raises :class:`~repro.errors.RegistryError` if the
        name or version is unknown."""
        published = self.versions(name)
        if not published:
            raise RegistryError(
                f"unknown model {name!r} in registry {self.root} "
                f"(known: {self.names() or 'none'})"
            )
        if version == "latest":
            version = published[-1]
        else:
            version = _normalize_version(version)
            if version not in published:
                raise RegistryError(
                    f"unknown version {name}/{version} "
                    f"(published: {', '.join(published)})"
                )
        path = self.root / name / version
        return RegistryEntry(
            name=name,
            version=version,
            path=path,
            artifact_path=path / ARTIFACT_FILE,
            meta=self._read_meta(path),
        )

    def load(
        self, name: str, version: Union[str, int] = "latest"
    ) -> ModelPlan:
        """Resolve, verify integrity, and reload the plan.

        The artifact's bytes are re-hashed against the SHA-256 recorded
        at publish before :func:`load_plan` runs, so silent corruption
        of the registry directory raises a typed
        :class:`~repro.errors.RegistryError` — as does an intact artifact
        :func:`load_plan` refuses (a removed scheme, say).
        """
        entry = self.resolve(name, version)
        self.verify(entry)
        try:
            return load_plan(entry.artifact_path)
        except ArtifactError as exc:
            raise RegistryError(f"{entry.name}/{entry.version}: {exc}") from exc

    def verify(self, entry: RegistryEntry) -> None:
        """Check the artifact file against its published SHA-256."""
        recorded = entry.meta.get("artifact_sha256")
        if recorded is None:
            raise RegistryError(
                f"{entry.name}/{entry.version} metadata carries no "
                "artifact checksum"
            )
        try:
            actual = _file_sha256(entry.artifact_path)
        except OSError as exc:
            raise RegistryError(
                f"cannot read {entry.artifact_path}: {exc}"
            ) from exc
        if actual != recorded:
            raise RegistryError(
                f"{entry.name}/{entry.version} failed integrity "
                f"verification (published {recorded[:12]}…, "
                f"on disk {actual[:12]}…)"
            )

    def lineage(
        self, name: str, version: Union[str, int] = "latest"
    ) -> List[RegistryEntry]:
        """The parent chain of ``version``, oldest ancestor first."""
        chain = [self.resolve(name, version)]
        seen = {chain[0].version}
        while chain[-1].parent is not None:
            parent = chain[-1].parent
            if parent in seen:  # defensive: corrupt metadata cycle
                raise RegistryError(
                    f"lineage cycle at {name}/{parent}"
                )
            chain.append(self.resolve(name, parent))
            seen.add(parent)
        return list(reversed(chain))

    # -- decisions --------------------------------------------------------
    def record_decision(
        self,
        name: str,
        version: Union[str, int],
        decision: Dict,
        status: Optional[str] = None,
    ) -> Dict:
        """Append a deployment decision (canary verdict, hot-swap, …) to
        the version's history, optionally moving its ``status``.

        The metadata file is rewritten atomically (temp + ``os.replace``)
        so a crash mid-record leaves the previous metadata intact.
        Returns the updated metadata dict.
        """
        entry = self.resolve(name, version)
        meta = dict(entry.meta)
        record = dict(decision)
        record.setdefault("recorded_unix", time.time())
        meta.setdefault("history", [])
        meta["history"] = list(meta["history"]) + [record]
        if status is not None:
            meta["status"] = status
        _write_json(entry.path / METADATA_FILE, meta)
        return meta

    # -- internals --------------------------------------------------------
    def _read_meta(self, version_dir: Path) -> Dict:
        try:
            with open(version_dir / METADATA_FILE, "r", encoding="utf-8") as f:
                meta = json.load(f)
        except (OSError, ValueError) as exc:
            raise RegistryError(
                f"unreadable registry metadata in {version_dir}: {exc}"
            ) from exc
        if not isinstance(meta, dict):
            raise RegistryError(
                f"registry metadata in {version_dir} is not a JSON object"
            )
        return meta


def _jsonable_signature(plan: ModelPlan) -> List:
    layers, classes = plan.signature()
    return [[list(layer) for layer in layers], classes]


def _write_json(path: Path, payload: Dict) -> None:
    """Durable atomic JSON write (temp file + fsync + ``os.replace``)."""
    try:
        atomic_write_json(path, payload)
    except (OSError, TypeError, ValueError) as exc:
        # TypeError/ValueError: a non-JSON-serializable payload — surface
        # typed like any other failed registry write.
        raise RegistryError(f"cannot write {path}: {exc}") from exc


def _remove_tree(root: Path) -> None:
    """Best-effort cleanup of an abandoned staging directory."""
    import shutil

    shutil.rmtree(root, ignore_errors=True)


__all__ = [
    "ARTIFACT_FILE",
    "METADATA_FILE",
    "PlanRegistry",
    "RegistryEntry",
    "summarize_tuning",
]
