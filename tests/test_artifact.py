"""Compiled-artifact round-trip tests (repro.engine.artifact).

The deployment contract: ``save_plan`` → ``load_plan`` reproduces
**bit-identical logits** for both schemes × every sparse format on
every route (:mod:`routes`: the program, the generic loop, the oracle's
loop), and the reloaded plan carries streaming state (``run_chunk``) exactly
like the original — including the int8 bitwise chunk-exactness.
"""

import hashlib
import json
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine
from repro.kernels import compiled
from repro.compiler.ir import (
    _ZERO_CODE,
    _scale_round_trips,
    graph_from_arrays,
    graph_to_arrays,
)
from repro.engine.plan import SPARSE_FORMATS
from repro.errors import ArtifactError, ConfigError
from repro.kernels.quantized import int8_codes
from repro.pruning.bsp import BSPConfig, bsp_project_masks
from repro.speech.model import AcousticModelConfig, GRUAcousticModel
from repro.utils.atomic_write import content_checksum
from repro.utils.rng import new_rng
from routes import ROUTES, on_route

SCHEMES = (None, "int8")
FORMATS = (None, "csr", "bspc")


def laptop_model(seed=0):
    config = AcousticModelConfig(input_dim=8, hidden_size=24, num_layers=2)
    return GRUAcousticModel(config, rng=seed).eval()


def bsp_masks(weights):
    return bsp_project_masks(
        weights, BSPConfig(col_rate=4, row_rate=2, num_row_strips=4, num_col_blocks=4)
    )


def prune_model(model):
    masks = bsp_masks(model.prunable_weights())
    for name, param in model.prunable_parameters().items():
        param.data[...] = masks[name].apply_to_array(param.data)
    return model


def write_artifact(path, meta, arrays):
    """An artifact of this graph header and these arrays, checksummed as
    ``save_plan`` checksums one."""
    header = {"graph": meta, "__checksum__": content_checksum(meta, arrays)}
    payload = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(path, **arrays, **{"meta.json": payload})
    return path


class TestRoundTrip:
    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_bit_identical_logits(self, scheme, fmt, route, tmp_path, rng_factory):
        # dense (None) stays unpruned; forced formats get a pruned model
        # so the sparse packings actually hold sparse patterns.  The plan
        # and its reload run the same route.
        model = laptop_model()
        if fmt is not None:
            prune_model(model)
        config = engine.EngineConfig(
            sparse_format=fmt, num_row_strips=4, num_col_blocks=4
        )
        plan = engine.compile_model(model, scheme=scheme, config=config)
        x = rng_factory(7).standard_normal((13, 3, 8))
        expected = on_route(plan, route).forward_batch(x)

        path = tmp_path / "plan.npz"
        engine.save_plan(path, plan)
        reloaded = engine.load_plan(path)
        np.testing.assert_array_equal(on_route(reloaded, route).forward_batch(x), expected)
        # The reloaded plan advertises the same compilation decisions.
        assert reloaded.scheme == plan.scheme
        assert reloaded.graph.formats() == plan.graph.formats()

    def test_compile_rnn_round_trip(self, tmp_path, rng):
        model = prune_model(laptop_model())
        weights = {
            name: p.data.copy()
            for name, p in model.named_parameters()
            if name.startswith("gru.") and p.data.ndim == 2
        }
        plan = engine.compile_rnn(
            weights,
            config=engine.EngineConfig(sparse_format="auto", num_row_strips=4,
                                       num_col_blocks=4),
        )
        x = rng.standard_normal((6, 2, 8))
        engine.save_plan(tmp_path / "rnn.npz", plan)
        np.testing.assert_array_equal(
            engine.load_plan(tmp_path / "rnn.npz").forward_batch(x),
            plan.forward_batch(x),
        )


@st.composite
def plan_cases(draw):
    """1-2 GRU layers 8-24 wide, any scheme and sparse format, BSP-pruned
    or not, with the output layer (one width) or without it (each layer
    its own width), and a weight seed."""
    layers = draw(st.integers(1, 2))
    widths = draw(st.lists(st.sampled_from([8, 16, 24]), min_size=layers, max_size=layers))
    return (
        widths,
        draw(st.sampled_from(SCHEMES)),
        draw(st.sampled_from(SPARSE_FORMATS)),
        draw(st.booleans()),  # the output layer: compile_model, else compile_rnn
        draw(st.booleans()),  # BSP-pruned
        draw(st.integers(0, 2**16)),
    )


def compile_case(widths, scheme, sparse_format, output, pruned, seed):
    config = engine.EngineConfig(
        sparse_format=sparse_format, num_row_strips=4, num_col_blocks=4
    )
    if output:
        model = GRUAcousticModel(
            AcousticModelConfig(input_dim=8, hidden_size=widths[0], num_layers=len(widths)),
            rng=seed,
        ).eval()
        if pruned:
            prune_model(model)
        return engine.compile_model(model, scheme=scheme, config=config)
    rng, inputs = new_rng(seed), (8, *widths)
    weights = {
        f"gru.cell{i}.weight_{side}": rng.standard_normal(
            (3 * h, h if side == "hh" else inputs[i])
        )
        for i, h in enumerate(widths)
        for side in ("ih", "hh")
    }
    if pruned:
        masks = bsp_masks(weights)
        weights = {name: masks[name].apply_to_array(w) for name, w in weights.items()}
    return engine.compile_rnn(weights, scheme=scheme, config=config)


@pytest.fixture(scope="module")
def property_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("round-trip")


@settings(max_examples=30, deadline=2000)
@given(case=plan_cases())
def test_any_plan_round_trips_through_its_arrays_and_its_artifact(property_dir, case):
    plan = compile_case(*case)
    path = engine.save_plan(property_dir / "plan.npz", plan)
    x = new_rng(3).standard_normal((6, 2, 8))
    want = plan.forward_batch(x).tobytes()
    for copy in (
        engine.lower_graph(graph_from_arrays(*graph_to_arrays(plan.graph))),
        engine.load_plan(path),
    ):
        assert copy.signature() == plan.signature()
        assert copy.nbytes() == plan.nbytes()
        assert copy.forward_batch(x).tobytes() == want


@pytest.mark.skipif(not compiled.available(), reason="no working C compiler on this host")
@settings(max_examples=30, deadline=None)
@given(case=plan_cases())
def test_every_int8_plan_lowers(case):
    # every sparse format, pruned or not, with the output layer or without:
    # one program wherever the C library loads
    widths, _, sparse_format, output, pruned, seed = case
    plan = compile_case(widths, "int8", sparse_format, output, pruned, seed)
    assert plan.program is not None


def masked_model(masking):
    """``laptop_model`` with a BSP pattern on a 4 x 4 grid, or a random
    one keeping a quarter of each prunable weight (irregular panels)."""
    if masking == "bsp":
        return prune_model(laptop_model())
    model, rng = laptop_model(), new_rng(4)
    for param in model.prunable_parameters().values():
        param.data[...] *= rng.uniform(size=param.data.shape) < 0.25
    return model


def streamed_digest(plan):
    """sha256 of the logits of seeded frames fed as a 4- and a 5-frame
    chunk, then of the carries."""
    x, state = new_rng(7).standard_normal((9, 3, 8)), None
    digest = hashlib.sha256()
    for chunk in (x[:4], x[4:]):
        logits, state = plan.run_chunk(chunk, state)
        digest.update(logits.tobytes())
    for layer in state.layer_states:
        digest.update(layer.tobytes())
    return digest.hexdigest()


class TestLegacyArtifacts:
    """Headers written before the GRU became the only cell: each carries
    a ``"cell_type"`` key, and the key is not read."""

    @staticmethod
    def with_legacy_cell_type(meta, cell_type="gru"):
        """Give a graph header the cell-type key older artifacts carry;
        returns ``meta``."""
        meta["cell_type"] = cell_type
        return meta

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_a_cell_type_key_loads_to_the_same_bytes(self, scheme, fmt, route, tmp_path, rng):
        config = engine.EngineConfig(sparse_format=fmt, num_row_strips=4, num_col_blocks=4)
        plan = engine.compile_model(prune_model(laptop_model()), scheme=scheme, config=config)
        current = engine.save_plan(tmp_path / "current.npz", plan)
        meta, arrays = graph_to_arrays(plan.graph)
        legacy = write_artifact(
            tmp_path / "legacy.npz", self.with_legacy_cell_type(meta), arrays
        )
        x = rng.standard_normal((9, 3, 8))
        old, new = engine.load_plan(legacy), engine.load_plan(current)
        assert old.signature() == new.signature()
        old, new = on_route(old, route), on_route(new, route)
        assert old.forward_batch(x).tobytes() == new.forward_batch(x).tobytes()

    def test_an_lstm_artifact_is_a_typed_error(self, tmp_path):
        # an LSTM layer's arrays: 4H-tall weights (gates i, f, g, o), one bias
        meta, arrays = graph_to_arrays(engine.compile_model(laptop_model()).graph)
        rng = new_rng(0)
        for i, node in enumerate(meta["nodes"]):
            if node["kind"] != "gru_cell":
                continue
            node["kind"], node["params"] = "lstm_cell", ["bias"]
            for key in ("ih", "hh"):
                width = arrays[f"n{i}.w.{key}"].shape[1]
                arrays[f"n{i}.w.{key}"] = rng.standard_normal((4 * 24, width))
            del arrays[f"n{i}.p.bias_ih"], arrays[f"n{i}.p.bias_hh"]
            arrays[f"n{i}.p.bias"] = np.zeros(4 * 24)
        path = write_artifact(
            tmp_path / "lstm.npz", self.with_legacy_cell_type(meta, "lstm"), arrays
        )
        with pytest.raises(ArtifactError, match="'lstm_cell'"):
            engine.load_plan(path)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_a_header_records_the_scheme_older_versions_wrote(self, scheme, fmt, tmp_path):
        # "float" or "int8" on the graph's every slot, int8 boundaries on an
        # int8 graph only: the records older artifacts carry, so they load
        plan = compile_case([24, 24], scheme, fmt, True, fmt is not None, 0)
        path = engine.save_plan(tmp_path / "plan.npz", plan)
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta.json"]).decode("utf-8"))["graph"]
        assert meta["scheme"] == scheme
        slots = [slot for node in meta["nodes"] for slot in node["weights"].values()]
        assert [slot["scheme"] for slot in slots] == [scheme or "float"] * 5
        policies = {b["policy"] for b in meta["boundaries"]}
        assert policies == ({"int8-activations-per-frame"} if scheme == "int8" else set())

    #: :func:`streamed_digest` of the artifact of an int8 ``"csr"`` plan of
    #: :func:`masked_model`, saved and loaded when int8 CSR had kernels of its
    #: own: what the same artifact loads to now, packed as BSPC.
    INT8_CSR = {
        "bsp": "c997f6160c5675e1f88bcc5d28e91ef285c8111bbc7c275ebb2484a95032235e",
        "random": "b33ec960e3412cb6d1715f5e32b6ba44e6072a6d39f15738fde5df56c7b7025b",
    }

    @pytest.mark.parametrize("masking", sorted(INT8_CSR))
    def test_an_int8_csr_artifact_loads_as_bspc_to_the_same_bytes(self, masking, tmp_path):
        config = engine.EngineConfig(sparse_format="csr", num_row_strips=4, num_col_blocks=4)
        plan = engine.compile_model(masked_model(masking), scheme="int8", config=config)
        meta, arrays = graph_to_arrays(plan.graph)
        # the header as it was written: CSR slots and kernels, and a
        # recurrence's boundary as the dequantized-weights policy
        for node in meta["nodes"]:
            for slot in node["weights"].values():
                if slot["format"] == "bspc":
                    slot["format"], slot["kernel"] = "csr", "csr_spmm_int8"
        for boundary in meta["boundaries"]:
            if boundary["slot"].endswith("weight_hh"):
                boundary["policy"] = "int8-weights-dequantized"
        legacy = engine.load_plan(write_artifact(tmp_path / "csr.npz", meta, arrays))
        # re-packed as BSPC on the slot's grid, and recorded so
        assert [slot.format for _, _, slot in legacy.graph.slots()] == ["bspc"] * 4 + ["dense"]
        assert legacy.signature() == plan.signature()
        assert streamed_digest(legacy) == self.INT8_CSR[masking]
        assert streamed_digest(on_route(legacy, "reference")) == self.INT8_CSR[masking]

    #: :func:`streamed_digest` of an int8 ``"auto"`` plan of
    #: :func:`masked_model`, saved with every weight a float64 array (header
    #: version 1) and loaded, when artifacts were written so.  The same
    #: digests as :attr:`INT8_CSR`: the requests pack the same panels.
    INT8_FLOAT64 = {
        "bsp": "c997f6160c5675e1f88bcc5d28e91ef285c8111bbc7c275ebb2484a95032235e",
        "random": "b33ec960e3412cb6d1715f5e32b6ba44e6072a6d39f15738fde5df56c7b7025b",
    }

    @pytest.mark.parametrize("masking", sorted(INT8_FLOAT64))
    def test_a_float64_int8_artifact_loads_to_the_same_bytes(self, masking, tmp_path):
        config = engine.EngineConfig(sparse_format="auto", num_row_strips=4, num_col_blocks=4)
        plan = engine.compile_model(masked_model(masking), scheme="int8", config=config)
        legacy = engine.load_plan(write_artifact(tmp_path / "v1.npz", *version_1(plan.graph)))
        current = engine.load_plan(engine.save_plan(tmp_path / "v2.npz", plan))
        for route in ("program", "reference"):
            assert streamed_digest(on_route(legacy, route)) == self.INT8_FLOAT64[masking]
            assert streamed_digest(on_route(current, route)) == self.INT8_FLOAT64[masking]

    @pytest.mark.parametrize("scheme", ["fp16", "mixed"])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_a_removed_scheme_artifact_is_a_typed_error(self, scheme, fmt, tmp_path):
        plan = compile_case([24, 24], None, fmt, True, fmt is not None, 0)
        path = write_artifact(
            tmp_path / f"{scheme}.npz", *with_removed_scheme(plan.graph, scheme)
        )
        with pytest.raises(ArtifactError, match=f"'{scheme}'"):
            engine.load_plan(path)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_a_slot_recording_another_scheme_is_a_typed_error(self, scheme, tmp_path):
        plan = engine.compile_model(laptop_model(), scheme=scheme)
        meta, arrays = graph_to_arrays(plan.graph)
        other = "float" if scheme == "int8" else "int8"
        meta["nodes"][-1]["weights"]["w"]["scheme"] = other
        path = write_artifact(tmp_path / "disagrees.npz", meta, arrays)
        with pytest.raises(ArtifactError, match=f"records scheme '{other}'"):
            engine.load_plan(path)


def version_1(graph):
    """The header and arrays of ``graph`` as header version 1 stored them:
    every weight a float64 array, an int8 graph's too."""
    meta, arrays = graph_to_arrays(graph)
    meta["version"] = 1
    for i, node in enumerate(graph.nodes):
        for key, slot in node.weights.items():
            slot_meta = meta["nodes"][i]["weights"][key]
            if slot_meta.pop("encoding", None):
                del slot_meta["shape"]
                for part in ("pattern", "codes", "scale"):
                    del arrays[f"n{i}.w.{key}.{part}"]
            arrays[f"n{i}.w.{key}"] = slot.array
    return meta, arrays


def with_removed_scheme(graph, scheme):
    """The header and arrays of ``graph`` (a float plan's) as an artifact
    of a removed scheme records them: ``"fp16"`` on the graph and every
    slot, or ``"mixed"`` on the graph with int8 projections over float
    recurrences."""
    meta, arrays = graph_to_arrays(graph)
    meta["scheme"] = scheme
    for node in meta["nodes"]:
        for slot in node["weights"].values():
            if scheme == "fp16":
                slot["scheme"] = "fp16"
            else:
                slot["scheme"] = "int8" if slot["op"] == "linear" else "float"
    return meta, arrays


class TestStreamingStateCarry:
    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_run_chunk_carry_matches_original(self, scheme, route, tmp_path, rng_factory):
        model = prune_model(laptop_model())
        config = engine.EngineConfig(
            sparse_format="auto", num_row_strips=4, num_col_blocks=4
        )
        plan = engine.compile_model(model, scheme=scheme, config=config)
        engine.save_plan(tmp_path / "s.npz", plan)
        reloaded = on_route(engine.load_plan(tmp_path / "s.npz"), route)
        plan = on_route(plan, route)

        x = rng_factory(11).standard_normal((20, 2, 8))
        state_a, state_b = None, None
        for chunk in (x[:7], x[7:8], x[8:]):
            logits_a, state_a = plan.run_chunk(chunk, state_a)
            logits_b, state_b = reloaded.run_chunk(chunk, state_b)
            np.testing.assert_array_equal(logits_b, logits_a)
        for layer_a, layer_b in zip(state_a.layer_states, state_b.layer_states):
            np.testing.assert_array_equal(layer_b, layer_a)

    def test_chunked_reload_equals_offline_original(self, tmp_path, rng):
        # Cross guarantee: reloaded streaming == original offline batch.
        plan = engine.compile_model(laptop_model(), scheme="int8")
        engine.save_plan(tmp_path / "c.npz", plan)
        reloaded = engine.load_plan(tmp_path / "c.npz")
        x = rng.standard_normal((15, 2, 8))
        offline = plan.forward_batch(x)
        state = None
        chunks = []
        for start in range(0, 15, 4):
            logits, state = reloaded.run_chunk(x[start:start + 4], state)
            chunks.append(logits)
        np.testing.assert_array_equal(np.concatenate(chunks, axis=0), offline)


class TestArtifactValidation:
    def test_save_requires_graph(self, tmp_path):
        plan = engine.compile_model(laptop_model())
        plan.graph = None  # a hand-assembled plan cannot round-trip
        with pytest.raises(ConfigError):
            engine.save_plan(tmp_path / "x.npz", plan)

    def test_load_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, data=np.zeros(3))
        with pytest.raises(ArtifactError):
            engine.load_plan(path)

    def test_save_creates_parent_dirs(self, tmp_path):
        plan = engine.compile_model(laptop_model())
        path = tmp_path / "nested" / "dir" / "plan.npz"
        engine.save_plan(path, plan)
        assert path.exists()

    def test_unwritable_target_raises_artifact_error(self, tmp_path):
        # A *file* where the parent directory must go: the OS raises
        # NotADirectoryError, callers must see a typed ArtifactError.
        # (chmod-based unwritability is no good here — the suite runs
        # as root, which ignores permission bits.)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        plan = engine.compile_model(laptop_model())
        with pytest.raises(ArtifactError, match="cannot write artifact"):
            engine.save_plan(blocker / "plan.npz", plan)
        assert blocker.read_text() == ""  # the blocker was not clobbered


class TestCrashSafety:
    """The artifact contract of the serving fabric: a reader sees either
    a complete artifact or a clear :class:`ArtifactError` — never a
    numpy/zipfile traceback, never a torn write."""

    def test_missing_file_raises_artifact_error(self, tmp_path):
        with pytest.raises(ArtifactError, match="missing, truncated"):
            engine.load_plan(tmp_path / "nope.npz")

    def test_truncated_artifact_raises_artifact_error(self, tmp_path):
        path = tmp_path / "plan.npz"
        engine.save_plan(path, engine.compile_model(laptop_model()))
        whole = path.read_bytes()
        # Every truncation point must fail *cleanly*, not with a numpy
        # internal error: sweep a few cut points including mid-header.
        for keep in (0, 1, 10, len(whole) // 3, len(whole) - 7):
            path.write_bytes(whole[:keep])
            with pytest.raises(ArtifactError):
                engine.load_plan(path)

    def test_corrupted_bytes_fail_checksum(self, tmp_path):
        path = tmp_path / "plan.npz"
        engine.save_plan(path, engine.compile_model(laptop_model()))
        blob = bytearray(path.read_bytes())
        # npz members are stored deflated, so a flipped byte usually
        # breaks the zip CRC first; both detection paths must surface as
        # ArtifactError.  Flip a byte in the middle of the archive.
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError):
            engine.load_plan(path)

    def test_checksum_catches_array_swap(self, tmp_path):
        # Rewrite one weight array through the zip layer (valid zip,
        # valid npz, wrong bytes): only the content checksum can catch
        # this class of corruption.
        path = tmp_path / "plan.npz"
        engine.save_plan(path, engine.compile_model(laptop_model()))
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        victim = next(
            key
            for key in arrays
            if key != "meta.json" and arrays[key].dtype == np.float64
            and arrays[key].size
        )
        arrays[victim] = arrays[victim] + 1.0
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        with pytest.raises(ArtifactError, match="checksum"):
            engine.load_plan(path)

    def test_atomic_save_replaces_existing(self, tmp_path):
        path = tmp_path / "plan.npz"
        plan_a = engine.compile_model(laptop_model(seed=0))
        plan_b = engine.compile_model(laptop_model(seed=1))
        engine.save_plan(path, plan_a)
        engine.save_plan(path, plan_b)  # atomic os.replace over the old
        x = np.zeros((3, 1, 8))
        np.testing.assert_array_equal(
            engine.load_plan(path).forward_batch(x), plan_b.forward_batch(x)
        )
        # No temp files left behind by either save.
        assert [p.name for p in tmp_path.iterdir()] == ["plan.npz"]


def int8_artifact_parts():
    """The header and arrays of a BSP-pruned int8 ``"auto"`` plan."""
    config = engine.EngineConfig(sparse_format="auto", num_row_strips=4, num_col_blocks=4)
    plan = engine.compile_model(prune_model(laptop_model()), scheme="int8", config=config)
    return graph_to_arrays(plan.graph)


def members(path):
    """Every member of an ``.npz`` archive, by name, as stored bytes."""
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


class TestInt8Codes:
    """An int8 artifact stores each weight as what its lowering runs: the
    nonzero pattern of its codes, the nonzero int8 codes and the scale.
    Forged or truncated parts are typed errors, never another plan."""

    def test_an_int8_artifact_holds_no_float64_weight(self, tmp_path):
        path = engine.save_plan(
            tmp_path / "plan.npz", engine.compile_model(laptop_model(), scheme="int8")
        )
        with np.load(path) as data:
            kinds = {key: data[key].dtype for key in data.files if ".w." in key}
        assert sorted({key.rsplit(".", 1)[1] for key in kinds}) == ["codes", "pattern", "scale"]
        assert all(kind != np.float64 for key, kind in kinds.items() if not key.endswith("scale"))

    def test_save_load_save_writes_the_same_bytes(self, tmp_path):
        config = engine.EngineConfig(sparse_format="auto", num_row_strips=4, num_col_blocks=4)
        plan = engine.compile_model(masked_model("random"), scheme="int8", config=config)
        first = engine.save_plan(tmp_path / "first.npz", plan)
        second = engine.save_plan(tmp_path / "second.npz", engine.load_plan(first))
        assert members(second) == members(first)

    def test_a_pattern_whose_popcount_is_not_its_codes_is_a_typed_error(self, tmp_path):
        meta, arrays = int8_artifact_parts()
        pattern = arrays["n1.w.hh.pattern"].copy()
        unset = np.flatnonzero(np.unpackbits(pattern) == 0)[0]
        pattern[unset // 8] |= 0x80 >> (unset % 8)  # one more entry, no more codes
        arrays["n1.w.hh.pattern"] = pattern
        path = write_artifact(tmp_path / "forged.npz", meta, arrays)
        with pytest.raises(ArtifactError, match="pattern sets"):
            engine.load_plan(path)

    def test_a_scale_that_does_not_round_trip_is_a_typed_error(self, tmp_path):
        meta, arrays = int8_artifact_parts()
        arrays["n1.w.hh.scale"] = np.array(1.1756209101917684e-09)
        path = write_artifact(tmp_path / "forged.npz", meta, arrays)
        with pytest.raises(ArtifactError, match="does not round-trip"):
            engine.load_plan(path)

    @pytest.mark.parametrize("forge", ["-128", "halved"])
    def test_codes_that_do_not_peak_at_127_are_a_typed_error(self, forge, tmp_path):
        meta, arrays = int8_artifact_parts()
        codes = arrays["n1.w.hh.codes"].copy()
        if forge == "-128":
            codes[0] = -128
        else:
            codes //= 2
        arrays["n1.w.hh.codes"] = codes
        path = write_artifact(tmp_path / "forged.npz", meta, arrays)
        with pytest.raises(ArtifactError, match="peak at 127"):
            engine.load_plan(path)

    @pytest.mark.parametrize("part", ["pattern", "codes", "scale"])
    def test_a_truncated_part_is_a_typed_error(self, part, tmp_path):
        # checksummed after the cut, so the arrays' own checks fire
        meta, arrays = int8_artifact_parts()
        key = f"n1.w.hh.{part}"
        arrays[key] = arrays[key].reshape(-1)[:-1]
        path = write_artifact(tmp_path / "truncated.npz", meta, arrays)
        with pytest.raises(ArtifactError, match=r"n1\.w\.hh: (malformed|its pattern)"):
            engine.load_plan(path)

    @pytest.mark.parametrize("part", ["pattern", "codes", "scale"])
    def test_a_flipped_byte_is_a_typed_error(self, part, tmp_path):
        meta, arrays = int8_artifact_parts()
        header = {"graph": meta, "__checksum__": content_checksum(meta, arrays)}
        key = f"n1.w.hh.{part}"
        flipped = bytearray(arrays[key].tobytes())
        flipped[len(flipped) // 2] ^= 0x10
        arrays[key] = np.frombuffer(bytes(flipped), arrays[key].dtype).reshape(arrays[key].shape)
        payload = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(tmp_path / "flipped.npz", **arrays, **{"meta.json": payload})
        with pytest.raises(ArtifactError, match="checksum"):
            engine.load_plan(tmp_path / "flipped.npz")

    def test_a_scale_that_would_not_round_trip_keeps_its_array(self):
        # the float64 peak: 127 x (peak / 127) overflows, so the slot ships
        # its float64 array, and loads to it
        graph = engine.compile_model(laptop_model(), scheme="int8").graph
        slot = graph.slot("cell0.weight_ih")
        slot.array = slot.array / np.abs(slot.array).max() * np.finfo(np.float64).max
        meta, arrays = graph_to_arrays(graph)
        assert "encoding" not in meta["nodes"][0]["weights"]["ih"]
        assert "encoding" in meta["nodes"][0]["weights"]["hh"]
        restored = graph_from_arrays(meta, arrays).slot("cell0.weight_ih").array
        assert restored.tobytes() == slot.array.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    peak=st.floats(
        min_value=127 * np.finfo(np.float64).tiny,
        max_value=np.nextafter(np.finfo(np.float64).max, 0),
    ),
    codes=st.lists(st.integers(-127, 127), max_size=40),
    sign=st.sampled_from([-127, 127]),
)
def test_any_scale_of_a_peak_round_trips_its_codes(peak, codes, sign):
    # s = peak / 127 passes the O(1) check, and the codes rebuilt on s (a
    # code of 0 as the least positive float) quantize back to (codes, s):
    # the condition under which an int8 slot ships its codes
    scale = peak / 127.0
    assert _scale_round_trips(scale)
    codes = np.array([sign, *codes], dtype=np.int8)
    rebuilt = np.where(codes != 0, codes * scale, _ZERO_CODE)
    got_codes, got_scale = int8_codes(rebuilt)
    assert got_scale == scale
    np.testing.assert_array_equal(got_codes, codes)
