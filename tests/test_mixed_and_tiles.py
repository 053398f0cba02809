"""Slot scheme records, tile serialization and the joint autotune.

* A plan has one of two schemes, float (``None``) or ``"int8"``; the pass
  pipeline records it on every weight slot, the record is carried through
  ``graph_to_arrays`` → ``graph_from_arrays`` bit-exactly, tiles
  included (and tile dicts of older artifacts still load), and a slot
  that records another scheme than its graph's is a typed error;
* BSPC plans pack one panel per whole strip, however short the strips
  are, and tile annotations never change what a lowered plan computes;
* ``tune_plan`` searches scheme × format jointly and is never slower
  than the default configuration; its simulator pre-filter prices on
  ``ADRENO_640`` unless given a device.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro import engine, kernels
from repro.compiler.autotune import tune_execution_config, tune_plan
from repro.compiler.codegen import CompileOptions
from repro.compiler.ir import (
    LayerGraph,
    TileConfig,
    WeightSlot,
    graph_from_arrays,
    graph_to_arrays,
)
from repro.compiler.passes import run_passes
from repro.compiler.pipeline import build_layer_graph
from repro.errors import CompilationError, ConfigError
from repro.hw.profiles import ADRENO_640, KRYO_485
from repro.kernels import reference
from repro.pruning.bsp import BSPConfig, bsp_project_masks
from repro.sparse.blocks import grid_for
from repro.sparse.bspc import BSPCMatrix
from repro.speech.model import AcousticModelConfig, GRUAcousticModel
from test_int8_routing import PRODUCTS, ref_column, spmm_int8, spmv_int8

#: The float sparse ops, numpy's and the oracle's.
FLOAT_OPS = {"numpy": kernels.OPS, "reference": reference.OPS}


def small_model(seed=0, pruned=True):
    model = GRUAcousticModel(
        AcousticModelConfig(input_dim=8, hidden_size=16, num_layers=2),
        rng=seed,
    ).eval()
    if pruned:
        masks = bsp_project_masks(
            model.prunable_weights(),
            BSPConfig(col_rate=4, row_rate=2, num_row_strips=4, num_col_blocks=4),
        )
        for name, param in model.prunable_parameters().items():
            param.data[...] = masks[name].apply_to_array(param.data)
    return model


#: Strip heights of the packing tests: one row, two, a few, the whole
#: 16-row window — short strips are where panels pad most.
STRIP_ROWS = [1, 2, 4, 16]


def bsp_matrix(rng, strip_rows, shape=(32, 48)):
    """A BSP-pruned weight (4 strips x 3 blocks), stored on a grid of
    ``strip_rows``-row strips."""
    w = rng.standard_normal(shape)
    masks = bsp_project_masks(
        {"w": w},
        BSPConfig(col_rate=4, row_rate=2, num_row_strips=4, num_col_blocks=3),
    )
    pruned = masks["w"].apply_to_array(w)
    return BSPCMatrix.from_dense(pruned, grid_for(pruned, shape[0] // strip_rows, 3))


def with_legacy_panel_rows(meta, rows):
    """Give every tile dict of a graph header the row-block key older
    artifacts carry (BSPC strips split into ``rows``-row panels over the
    same columns); returns ``meta``."""
    tiles = [meta["options"]["tile"]] + [
        slot_meta["tile"]
        for node in meta["nodes"]
        for slot_meta in node["weights"].values()
    ]
    for tile_meta in tiles:
        tile_meta["row_block"] = rows
    return meta


def passed_graph(scheme, fmt=None):
    """``small_model``'s graph under ``scheme`` and format request ``fmt``,
    through the pass pipeline."""
    options = engine.EngineConfig(sparse_format=fmt).graph_options()
    return run_passes(build_layer_graph(small_model(), scheme=scheme, options=options))


#: The kernel each (scheme, format) names, for a projection and a recurrence.
KERNELS = {
    (None, None): ("blas_matmul", "blas_matmul"),
    (None, "csr"): ("csr_spmm", "csr_spmm"),
    (None, "bspc"): ("bspc_spmm", "bspc_spmm"),
    ("int8", None): ("linear_int8_rowwise", "linear_int8_rowwise"),
    ("int8", "csr"): ("bspc_spmm_int8", "bspc_spmm_int8"),  # int8 packs no CSR
    ("int8", "bspc"): ("bspc_spmm_int8", "bspc_spmm_int8"),
}


class TestPerSlotScheme:
    @pytest.mark.parametrize("scheme, recorded", [(None, "float"), ("int8", "int8")])
    @pytest.mark.parametrize("fmt", [None, "csr", "bspc"])
    def test_passes_record_the_graph_scheme_on_every_slot(self, scheme, recorded, fmt):
        graph = passed_graph(scheme, fmt)
        assert [slot.scheme for _, _, slot in graph.slots()] == [recorded] * 5

    @pytest.mark.parametrize("scheme, fmt", list(KERNELS))
    def test_kernels_follow_the_graph_scheme(self, scheme, fmt):
        for _, _, slot in passed_graph(scheme, fmt).slots():
            # the output projection is packed dense under any request
            dense = slot.name == "output.weight"
            projection, recurrence = KERNELS[scheme, None if dense else fmt]
            want = projection if slot.op == "linear" else recurrence
            assert slot.kernel == want, slot.name

    @pytest.mark.parametrize("scheme", [None, "int8"])
    def test_only_an_int8_graph_marks_quantize_boundaries(self, scheme):
        graph = passed_graph(scheme)
        want = [(slot.name, "int8-activations-per-frame") for _, _, slot in graph.slots()]
        got = [(b.slot, b.policy) for b in graph.boundaries]
        assert got == (want if scheme == "int8" else [])

    @pytest.mark.parametrize("scheme", [None, "int8"])
    @pytest.mark.parametrize(
        "slot", ["cell0.weight_ih", "cell1.weight_hh", "output.weight"]
    )
    def test_a_slot_recording_another_scheme_is_a_compilation_error(self, scheme, slot):
        other = "float" if scheme == "int8" else "int8"
        graph = build_layer_graph(small_model(), scheme=scheme)
        graph.slot(slot).scheme = other  # recorded before the passes
        with pytest.raises(CompilationError, match=f"records scheme '{other}'"):
            engine.lower_graph(graph)
        graph = run_passes(build_layer_graph(small_model(), scheme=scheme))
        graph.slot(slot).scheme = other  # ... after them
        with pytest.raises(CompilationError, match=repr(slot)):
            engine.lower_graph(graph)
        meta, arrays = graph_to_arrays(graph)
        with pytest.raises(CompilationError, match=repr(slot)):
            graph_from_arrays(meta, arrays)

    @pytest.mark.parametrize("scheme", ["fp16", "mixed"])
    def test_a_removed_scheme_is_no_graph_or_slot_scheme(self, scheme):
        with pytest.raises(CompilationError, match=f"'{scheme}'"):
            build_layer_graph(small_model(), scheme=scheme)
        with pytest.raises(CompilationError, match=f"'{scheme}'"):
            WeightSlot("w", "linear", np.zeros((2, 2)), scheme=scheme)

    def test_signatures_distinguish_slot_schemes(self):
        model = small_model()
        signatures = {
            scheme: engine.compile_model(model, scheme=scheme).signature()
            for scheme in (None, "int8")
        }
        assert len(set(signatures.values())) == 2

    @pytest.mark.parametrize("scheme", [None, "int8"])
    @pytest.mark.parametrize("legacy_panel_rows", [None, 4])
    def test_slot_scheme_and_tile_survive_serialization(
        self, scheme, legacy_panel_rows, rng
    ):
        graph = build_layer_graph(
            small_model(),
            scheme=scheme,
            options=engine.EngineConfig(sparse_format="bspc").graph_options(),
        )
        tile = TileConfig(rows_per_thread=8, unroll=2)
        for _, _, slot in graph.slots():
            slot.tile = tile
        run_passes(graph)
        meta, arrays = graph_to_arrays(graph)
        if legacy_panel_rows is not None:
            # Older artifacts load as whole-strip plans with the same logits.
            with_legacy_panel_rows(meta, legacy_panel_rows)
        restored = graph_from_arrays(meta, arrays)
        for (_, _, a), (_, _, b) in zip(graph.slots(), restored.slots()):
            assert b.scheme == a.scheme
            assert b.tile == a.tile
        x = rng.standard_normal((7, 2, 8))
        np.testing.assert_array_equal(
            engine.lower_graph(restored).forward_batch(x),
            engine.lower_graph(graph).forward_batch(x),
        )

    def test_legacy_graph_without_slot_schemes_falls_back(self, rng):
        # Artifacts written before the per-slot attribute carry
        # slot.scheme=None; lowering reads the graph scheme, to the
        # identical computation.
        model = small_model()
        graph = build_layer_graph(model, scheme="int8")
        run_passes(graph)
        reference = engine.lower_graph(graph)
        for _, _, slot in graph.slots():
            slot.scheme = None
        legacy = engine.lower_graph(graph)
        x = rng.standard_normal((6, 2, 8))
        np.testing.assert_array_equal(
            legacy.forward_batch(x), reference.forward_batch(x)
        )


class TestLegacyTileDicts:
    """Every row-block value older ``tune`` runs could save (the measured
    sweep's 4-64, and 128, which never split a 96-row strip) loads as the
    tile it was saved with, and is not written back."""

    @pytest.fixture(scope="class")
    def saved(self):
        graph = build_layer_graph(
            small_model(),
            scheme="int8",
            options=engine.EngineConfig(sparse_format="bspc").graph_options(),
        )
        for _, _, slot in graph.slots():
            slot.tile = TileConfig(rows_per_thread=2, unroll=8, use_fp16=False)
        run_passes(graph)
        return graph, graph_to_arrays(graph)

    @pytest.mark.parametrize("rows", [4, 8, 16, 32, 48, 64, 128])
    def test_old_tile_dict_loads_as_its_tile(self, saved, rows):
        graph, (meta, arrays) = saved
        legacy = with_legacy_panel_rows(copy.deepcopy(meta), rows)
        restored = graph_from_arrays(legacy, arrays)
        assert restored.options.tile == graph.options.tile
        assert "bspc" in restored.formats().values()
        for (_, _, a), (_, _, b) in zip(graph.slots(), restored.slots()):
            assert b.tile == a.tile
            assert b.format == a.format
        # written back, the header is the whole-strip one
        assert graph_to_arrays(restored)[0] == meta


class TestWholeStripPacking:
    """A BSPC plan is one panel per surviving strip; its products equal
    the dense weight's on every route, whatever the strip height."""

    @pytest.mark.parametrize("strip_rows", STRIP_ROWS)
    def test_one_panel_per_surviving_strip(self, strip_rows, rng_factory):
        matrix = bsp_matrix(rng_factory(strip_rows), strip_rows)
        rows = matrix.grid.shape[0]
        kept = [
            strip for strip in matrix.strips
            if strip.kept_rows.size and any(b.kept_cols.size for b in strip.blocks)
        ]
        assert 0 < len(kept) <= rows // strip_rows
        plan = kernels.bspc_plan(matrix)
        assert plan.panels.shape[0] == len(kept)
        assert plan.panels.shape[1] == max(s.kept_rows.size for s in kept) <= strip_rows
        for scatter, strip in zip(plan.scatter_rows, kept):
            n = strip.kept_rows.size
            np.testing.assert_array_equal(scatter[:n], strip.kept_rows)
            assert (scatter[n:] == rows).all()  # padding lands in the sink

    @pytest.mark.parametrize("by", FLOAT_OPS)
    @pytest.mark.parametrize("strip_rows", STRIP_ROWS)
    def test_float_products_match_dense(self, by, strip_rows, rng_factory):
        matrix = bsp_matrix(rng_factory(strip_rows), strip_rows)
        dense = matrix.to_dense()
        x = rng_factory(100 + strip_rows).standard_normal((48, 3))
        spmm = FLOAT_OPS[by]["bspc_spmm"]
        np.testing.assert_allclose(spmm(matrix, x), dense @ x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            spmm(matrix, x[:, :1])[:, 0], dense @ x[:, 0], rtol=1e-12, atol=1e-12,
        )
        np.testing.assert_allclose(
            kernels.spmv(matrix, x[:, 0]), dense @ x[:, 0], rtol=1e-12, atol=1e-12,
        )

    @pytest.mark.parametrize("by", PRODUCTS)
    @pytest.mark.parametrize("strip_rows", STRIP_ROWS)
    def test_int8_products_are_the_reference_bytes(self, by, strip_rows, rng_factory):
        matrix = bsp_matrix(rng_factory(strip_rows), strip_rows)
        x = rng_factory(200 + strip_rows).standard_normal((48, 3))
        x[:, 0] *= 1e-3  # scales differ per column
        want = reference.bspc_spmm_int8(matrix, x)
        np.testing.assert_array_equal(spmm_int8(matrix, x, by), want)
        np.testing.assert_array_equal(
            spmv_int8(matrix, x[:, 1], by),
            ref_column(matrix, x[:, 1]),
        )
        # ... and the reference is the float product up to int8 rounding
        exact = matrix.to_dense() @ x
        assert np.linalg.norm(want - exact) <= 0.05 * np.linalg.norm(exact)


class TestTileAnnotationsLeaveExecutionAlone:
    """Tiles price the simulator; the executed plan packs whole strips
    whatever tile a slot carries."""

    @pytest.mark.parametrize("scheme", [None, "int8"])
    def test_tiled_plan_matches_the_default_plan(self, scheme, rng):
        model = small_model()
        config = engine.EngineConfig(sparse_format="bspc")
        expected = engine.compile_model(model, scheme=scheme, config=config)
        graph = build_layer_graph(model, scheme=scheme, options=config.graph_options())
        for _, _, slot in graph.slots():
            slot.tile = TileConfig(rows_per_thread=1, unroll=1, use_fp16=False)
        run_passes(graph)
        tiled = engine.lower_graph(graph, config)
        x = rng.standard_normal((8, 2, 8))
        np.testing.assert_array_equal(tiled.forward_batch(x), expected.forward_batch(x))


class TestJointTune:
    def sample(self, seed=1):
        return np.random.default_rng(seed).standard_normal((10, 2, 8))

    def test_joint_scheme_format_search_never_slower(self):
        result = tune_plan(
            small_model(), self.sample(), schemes=(None, "int8"), repeats=1,
        )
        assert result.speedup >= 1.0
        assert any(c.scheme == "int8" for c in result.trace)
        # A configuration is never measured twice.
        seen = set()
        for c in result.trace:
            key = (c.scheme, tuple(sorted(c.formats.items())))
            assert key not in seen, f"duplicate measurement: {c.label}"
            seen.add(key)

    @pytest.mark.parametrize("scheme", ["fp16", "mixed"])
    def test_a_removed_scheme_is_a_config_error(self, scheme):
        with pytest.raises(ConfigError, match=f"'{scheme}'"):
            tune_plan(small_model(), self.sample(), schemes=(scheme,), repeats=1)

    @pytest.mark.parametrize("device", [None, ADRENO_640, KRYO_485])
    def test_prefilter_prices_on_the_given_device(self, device, monkeypatch):
        import repro.compiler.autotune as autotune

        priced = []
        simulate = autotune._simulated_slot_us

        def spy(slot, fmt, on):
            priced.append(on)
            return simulate(slot, fmt, on)

        monkeypatch.setattr(autotune, "_simulated_slot_us", spy)
        kwargs = {} if device is None else {"device": device}
        tune_plan(
            small_model(), self.sample(), formats=("dense", "bspc"), repeats=1, **kwargs
        )
        assert priced and all(on is (device or ADRENO_640) for on in priced)


class TestTuneExecutionConfigReplace:
    """Regression for the tuner dropping CompileOptions fields: candidate
    options must be built with ``dataclasses.replace`` so any field —
    including ones added after the tuner was written — survives."""

    def test_new_option_field_survives(self, monkeypatch, rng):
        Extended = dataclasses.make_dataclass(
            "ExtendedOptions",
            [("new_knob", int, dataclasses.field(default=7))],
            bases=(CompileOptions,),
            frozen=True,
        )
        base = Extended(
            format_name="csr",
            enable_reorder=False,
            enable_load_elimination=False,
            num_row_strips=2,
            num_col_blocks=3,
            new_knob=13,
        )
        captured = []

        class FakeCompiled:
            def simulate(self, device):
                return dataclasses.make_dataclass("S", [("latency_us", float)])(1.0)

        def fake_compile(named_weights, options, **kwargs):
            captured.append(options)
            return FakeCompiled()

        import repro.compiler.autotune as autotune

        monkeypatch.setattr(autotune, "compile_for_simulation", fake_compile)
        tile = TileConfig(rows_per_thread=8)
        tune_execution_config(
            {"w": rng.standard_normal((8, 8))}, ADRENO_640,
            base_options=base, tile_space=[tile],
        )
        assert captured == [dataclasses.replace(base, tile=tile)]
        assert captured[0].new_knob == 13
        assert captured[0].format_name == "csr"
        assert captured[0].enable_reorder is False
        assert captured[0].num_col_blocks == 3
