"""Versioned artifact registry tests (repro.engine.registry).

The deployment contract: a publish is atomic (a reader never sees a
partial version, a crashed publish leaves no version), version ids are
dense and immutable, resolution pins or follows ``latest``, every load
is integrity-verified against the SHA-256 recorded at publish, lineage
is walkable, and deployment decisions append to version history with an
atomic metadata rewrite.  Every failure is a typed
:class:`~repro.errors.RegistryError` (an :class:`ArtifactError`
subclass), never a bare ``OSError``/``KeyError``/json traceback.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import engine
from repro.engine.registry import (
    ARTIFACT_FILE,
    METADATA_FILE,
    PlanRegistry,
    summarize_tuning,
)
from repro.errors import ArtifactError, RegistryError
from repro.speech.model import AcousticModelConfig, GRUAcousticModel
from test_artifact import with_removed_scheme, write_artifact


def small_plan(scheme=None, seed=0, hidden=16):
    config = AcousticModelConfig(input_dim=8, hidden_size=hidden, num_layers=2)
    model = GRUAcousticModel(config, rng=seed).eval()
    return engine.compile_model(model, scheme=scheme)


@pytest.fixture
def registry(tmp_path):
    return PlanRegistry(tmp_path / "registry")


class TestPublishResolve:
    def test_publish_assigns_dense_versions(self, registry):
        first = registry.publish("am", small_plan())
        second = registry.publish("am", small_plan(seed=1))
        assert (first.version, second.version) == ("v1", "v2")
        assert registry.versions("am") == ["v1", "v2"]
        assert registry.names() == ["am"]

    def test_resolve_latest_and_pin(self, registry):
        registry.publish("am", small_plan())
        registry.publish("am", small_plan(seed=1))
        assert registry.resolve("am").version == "v2"
        assert registry.resolve("am", "latest").version == "v2"
        # Pins accept "v1", "1", and 1 spellings.
        assert registry.resolve("am", "v1").version == "v1"
        assert registry.resolve("am", "1").version == "v1"
        assert registry.resolve("am", 1).version == "v1"

    def test_version_directory_layout(self, registry):
        entry = registry.publish("am", small_plan())
        assert entry.path == registry.root / "am" / "v1"
        assert (entry.path / ARTIFACT_FILE).is_file()
        assert (entry.path / METADATA_FILE).is_file()

    def test_load_round_trips_bit_identical(self, registry, rng):
        plan = small_plan(scheme="int8")
        registry.publish("am", plan)
        reloaded = registry.load("am")
        utterance = rng.standard_normal((30, 8))
        np.testing.assert_array_equal(
            plan.forward_utterance(utterance),
            reloaded.forward_utterance(utterance),
        )

    def test_metadata_records_plan_facts(self, registry):
        entry = registry.publish("am", small_plan(scheme="int8"))
        meta = registry.resolve("am").meta
        assert meta["scheme"] == "int8"
        assert meta["hidden_size"] == 16
        assert meta["num_layers"] == 2
        assert meta["nbytes"] > 0
        assert [layer[:2] for layer in meta["signature"][0]] == [[8, 16], [16, 16]]
        assert meta["status"] == "published"
        assert meta["history"] == []
        assert entry.status == "published"

    def test_tune_summary_rides_in_metadata(self, registry):
        from repro.compiler.autotune import tune_plan

        config = AcousticModelConfig(input_dim=8, hidden_size=16, num_layers=2)
        model = GRUAcousticModel(config, rng=0).eval()
        result = tune_plan(
            model, np.zeros((20, 2, 8)), repeats=1, schemes=(None,)
        )
        registry.publish(
            "am", small_plan(), tune=summarize_tuning(result)
        )
        tune = registry.resolve("am").meta["tune"]
        assert set(tune) >= {"baseline_s", "tuned_s", "speedup", "best_label"}
        assert tune["num_evaluated"] >= 1


class TestTypedErrors:
    def test_unknown_name(self, registry):
        with pytest.raises(RegistryError, match="unknown model"):
            registry.resolve("ghost")

    def test_unknown_version(self, registry):
        registry.publish("am", small_plan())
        with pytest.raises(RegistryError, match="unknown version"):
            registry.resolve("am", "v9")

    def test_malformed_version_id(self, registry):
        registry.publish("am", small_plan())
        with pytest.raises(RegistryError, match="malformed version"):
            registry.resolve("am", "v0")
        with pytest.raises(RegistryError, match="malformed version"):
            registry.publish("am", small_plan(), version="canary!")

    def test_duplicate_version_is_immutable(self, registry):
        registry.publish("am", small_plan(), version="v1")
        with pytest.raises(RegistryError, match="immutable"):
            registry.publish("am", small_plan(seed=1), version="v1")
        # The original artifact was not clobbered.
        assert registry.versions("am") == ["v1"]
        registry.load("am", "v1")

    def test_invalid_model_name(self, registry):
        with pytest.raises(RegistryError, match="invalid model name"):
            registry.publish("../escape", small_plan())

    def test_missing_parent(self, registry):
        with pytest.raises(RegistryError, match="parent .* does not exist"):
            registry.publish("am", small_plan(), parent="v1")

    def test_registry_error_is_artifact_error(self, registry):
        # Callers guarding artifact loads catch registry failures with
        # the same except clause.
        with pytest.raises(ArtifactError):
            registry.resolve("ghost")


class TestIntegrity:
    def test_corrupted_artifact_fails_verification(self, registry):
        entry = registry.publish("am", small_plan())
        blob = bytearray(entry.artifact_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        entry.artifact_path.write_bytes(bytes(blob))
        with pytest.raises(RegistryError, match="integrity"):
            registry.load("am")

    @pytest.mark.parametrize("scheme", ["fp16", "mixed"])
    def test_a_removed_scheme_version_is_a_registry_error(self, registry, scheme):
        # a version published under a scheme that no longer exists: its
        # artifact and metadata as that publish wrote them, checksums intact
        plan = small_plan()
        entry = registry.publish("am", plan)
        write_artifact(entry.artifact_path, *with_removed_scheme(plan.graph, scheme))
        meta_path = entry.path / METADATA_FILE
        meta = json.loads(meta_path.read_text())
        meta["scheme"] = scheme
        meta["artifact_sha256"] = hashlib.sha256(entry.artifact_path.read_bytes()).hexdigest()
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(RegistryError, match=f"'{scheme}'"):
            registry.load("am")

    def test_deleted_artifact_surfaces_typed(self, registry):
        entry = registry.publish("am", small_plan())
        entry.artifact_path.unlink()
        # The version directory no longer qualifies as published.
        with pytest.raises(RegistryError):
            registry.load("am", "v1")

    def test_unreadable_metadata_surfaces_typed(self, registry):
        entry = registry.publish("am", small_plan())
        (entry.path / METADATA_FILE).write_text("{not json")
        with pytest.raises(RegistryError, match="unreadable"):
            registry.resolve("am")

    def test_publish_leaves_no_staging_droppings(self, registry):
        registry.publish("am", small_plan())
        registry.publish("am", small_plan(seed=1))
        leftovers = [
            entry
            for entry in registry.root.iterdir()
            if entry.name.startswith(".staging-")
        ]
        assert leftovers == []

    def test_failed_publish_is_invisible(self, registry, monkeypatch):
        # Crash the publish mid-stage: no version appears, no staging
        # directory survives, and the next publish still gets v1.
        import repro.engine.registry as registry_module

        def boom(path, plan):
            raise OSError("disk full")

        monkeypatch.setattr(registry_module, "save_plan", boom)
        with pytest.raises(OSError):
            registry.publish("am", small_plan())
        monkeypatch.undo()
        assert registry.versions("am") == []
        assert not any(
            entry.name.startswith(".staging-")
            for entry in registry.root.iterdir()
        )
        assert registry.publish("am", small_plan()).version == "v1"


class TestLineageAndDecisions:
    def test_lineage_walks_oldest_first(self, registry):
        registry.publish("am", small_plan())
        registry.publish("am", small_plan(seed=1), parent="v1")
        registry.publish("am", small_plan(seed=2), parent="v2")
        chain = registry.lineage("am", "v3")
        assert [entry.version for entry in chain] == ["v1", "v2", "v3"]

    def test_lineage_cycle_is_detected(self, registry):
        registry.publish("am", small_plan())
        entry = registry.publish("am", small_plan(seed=1), parent="v1")
        # Corrupt the metadata into a cycle; lineage must not spin.
        meta = json.loads((entry.path / METADATA_FILE).read_text())
        meta["parent"] = "v2"
        (entry.path / METADATA_FILE).write_text(json.dumps(meta))
        with pytest.raises(RegistryError, match="cycle"):
            registry.lineage("am", "v2")

    def test_record_decision_appends_history(self, registry):
        registry.publish("am", small_plan())
        registry.record_decision(
            "am", "v1", {"event": "canary", "decision": "promote"},
            status="serving",
        )
        registry.record_decision(
            "am", "v1", {"event": "hot_swap"},
        )
        entry = registry.resolve("am", "v1")
        events = [record["event"] for record in entry.meta["history"]]
        assert events == ["canary", "hot_swap"]
        assert entry.status == "serving"  # second record kept the status
        assert all("recorded_unix" in r for r in entry.meta["history"])

    def test_record_decision_rewrite_is_atomic(self, registry):
        entry = registry.publish("am", small_plan())
        before = (entry.path / METADATA_FILE).read_bytes()
        with pytest.raises(RegistryError):
            registry.record_decision(
                "am", "v1", {"bad": object()},  # unserializable payload
            )
        assert (entry.path / METADATA_FILE).read_bytes() == before


class TestUnwritableRoot:
    def test_root_creation_failure_is_typed(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")  # a *file* where the root dir must go
        with pytest.raises(RegistryError, match="registry root"):
            PlanRegistry(blocker / "registry")
