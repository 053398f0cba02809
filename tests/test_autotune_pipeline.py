"""Tests for compile pipeline + auto-tuner (repro.compiler.pipeline/autotune)."""

import numpy as np
import pytest

from repro.compiler.autotune import (
    TuningCandidate,
    default_tile_space,
    find_best_block_size,
    tune_execution_config,
    tune_plan,
)
from repro.compiler.codegen import CompileOptions
from repro.compiler.ir import TileConfig
from repro.compiler.pipeline import CompiledModel, compile_for_simulation, compile_weights
from repro.errors import CompilationError, ConfigError
from repro.hw.profiles import ADRENO_640, KRYO_485
from repro.pruning.bsp import BSPConfig, bsp_project_masks


def pruned_weights(rng, compression=8.0):
    weights = {
        "a": rng.standard_normal((24, 32)),
        "b": rng.standard_normal((24, 24)),
    }
    if compression <= 1.0:
        return weights
    masks = bsp_project_masks(
        weights,
        BSPConfig(col_rate=compression / 2, row_rate=2.0, num_row_strips=4,
                  num_col_blocks=4),
    )
    return {n: masks[n].apply_to_array(w) for n, w in weights.items()}


class TestCompileWeights:
    def test_plan_has_one_layer_per_matrix(self, rng):
        plan = compile_weights(pruned_weights(rng), timesteps=10)
        assert [l.name for l in plan.layers] == ["a", "b"]
        assert plan.timesteps == 10

    def test_rejects_empty(self):
        with pytest.raises(CompilationError):
            compile_weights({})

    def test_compiled_model_properties(self, rng):
        compiled = compile_for_simulation(pruned_weights(rng), timesteps=10)
        assert isinstance(compiled, CompiledModel)
        assert compiled.compression_rate > 1.0
        assert compiled.gop_per_frame == compiled.plan.gop_per_inference

    def test_simulate_and_energy(self, rng):
        compiled = compile_for_simulation(pruned_weights(rng), timesteps=10)
        sim = compiled.simulate(ADRENO_640)
        report = compiled.energy(ADRENO_640)
        assert report.latency_us == pytest.approx(sim.latency_us)
        assert report.normalized_efficiency > 0

    def test_dense_compression_is_one(self, rng):
        compiled = compile_for_simulation(pruned_weights(rng, compression=1.0), timesteps=10)
        assert compiled.compression_rate == pytest.approx(1.0)

    def test_ablation_passes_affect_latency(self, rng):
        """Disabling reorder + load elimination must not make the model
        faster — the ablation direction of the paper's Section IV-B."""
        weights = pruned_weights(rng, compression=16.0)
        full = compile_for_simulation(weights, CompileOptions(), timesteps=10)
        stripped = compile_for_simulation(
            weights,
            CompileOptions(enable_reorder=False, enable_load_elimination=False),
            timesteps=10,
        )
        assert (
            full.simulate(KRYO_485).latency_us
            <= stripped.simulate(KRYO_485).latency_us + 1e-9
        )


class TestTileSpace:
    def test_default_space_nonempty(self):
        space = default_tile_space()
        assert len(space) >= 6
        assert all(isinstance(t, TileConfig) for t in space)

    def test_max_rows_respected(self):
        space = default_tile_space(max_rows_per_thread=4)
        assert max(t.rows_per_thread for t in space) == 4


class TestTuneExecutionConfig:
    def test_best_is_minimum_of_trace(self, rng):
        result = tune_execution_config(pruned_weights(rng), ADRENO_640)
        assert result.best.latency_us == min(c.latency_us for c in result.trace)
        assert result.num_evaluated == len(default_tile_space())

    def test_explicit_space(self, rng):
        space = [TileConfig(rows_per_thread=1), TileConfig(rows_per_thread=8)]
        result = tune_execution_config(
            pruned_weights(rng), ADRENO_640, tile_space=space
        )
        assert result.num_evaluated == 2
        assert result.best.tile in space

    def test_empty_space_rejected(self, rng):
        with pytest.raises(CompilationError):
            tune_execution_config(pruned_weights(rng), ADRENO_640, tile_space=[])

    def test_candidate_score(self):
        cand = TuningCandidate(
            tile=TileConfig(), num_row_strips=4, num_col_blocks=4,
            latency_us=100.0, accuracy_proxy=0.9,
        )
        assert cand.score() == 100.0
        assert cand.score(accuracy_weight=10.0) == pytest.approx(91.0)


class TestBlockSizeSearch:
    def test_returns_feasible_grid(self, rng):
        weights = {
            "a": rng.standard_normal((16, 16)),
            "b": rng.standard_normal((16, 16)),
        }
        result = find_best_block_size(
            weights, ADRENO_640, col_rate=4.0, row_rate=2.0,
            strip_choices=(2, 4), block_choices=(2, 4),
        )
        assert result.best.num_row_strips in (2, 4)
        assert result.best.num_col_blocks in (2, 4)
        assert result.num_evaluated == 4

    def test_accuracy_proxy_in_unit_interval(self, rng):
        weights = {"a": rng.standard_normal((16, 16))}
        result = find_best_block_size(
            weights, ADRENO_640, col_rate=4.0, row_rate=1.0,
            strip_choices=(2,), block_choices=(2, 4),
        )
        for cand in result.trace:
            assert 0.0 <= cand.accuracy_proxy <= 1.0

    def test_infeasible_grids_skipped(self, rng):
        weights = {"a": rng.standard_normal((4, 4))}
        result = find_best_block_size(
            weights, ADRENO_640, col_rate=2.0, row_rate=1.0,
            strip_choices=(2, 64), block_choices=(2, 64),
        )
        assert result.num_evaluated == 1  # only (2, 2) feasible

    def test_all_infeasible_rejected(self, rng):
        weights = {"a": rng.standard_normal((4, 4))}
        with pytest.raises(CompilationError):
            find_best_block_size(
                weights, ADRENO_640, col_rate=2.0, row_rate=1.0,
                strip_choices=(64,), block_choices=(64,),
            )

    def test_accuracy_weight_changes_choice_possible(self, rng):
        # With a huge accuracy weight, the best grid is the one with the
        # highest retained-energy proxy.
        weights = {"a": rng.standard_normal((32, 32))}
        result = find_best_block_size(
            weights, ADRENO_640, col_rate=8.0, row_rate=1.0,
            strip_choices=(1, 8), block_choices=(1, 8),
            accuracy_weight=1e9,
        )
        best_proxy = max(c.accuracy_proxy for c in result.trace)
        assert result.best.accuracy_proxy == pytest.approx(best_proxy)


class TestMeasuredTunePlan:
    """tune_plan measures the real engine; all assertions here are about
    the search structure, not about which candidate happens to win on
    this machine."""

    def make_workload(self, pruned=True, seed=0):
        from repro.pruning.bsp import bsp_project_masks as project
        from repro.speech.model import AcousticModelConfig, GRUAcousticModel

        model = GRUAcousticModel(
            AcousticModelConfig(input_dim=8, hidden_size=16, num_layers=2),
            rng=seed,
        ).eval()
        if pruned:
            masks = project(
                model.prunable_weights(),
                BSPConfig(col_rate=4, row_rate=2, num_row_strips=4,
                          num_col_blocks=4),
            )
            for name, param in model.prunable_parameters().items():
                param.data[...] = masks[name].apply_to_array(param.data)
        sample = np.random.default_rng(seed + 1).standard_normal((10, 2, 8))
        return model, sample

    def test_tuned_never_slower_than_default(self):
        model, sample = self.make_workload()
        result = tune_plan(model, sample, repeats=1)
        assert result.speedup >= 1.0
        assert result.best.measured_s == min(c.measured_s for c in result.trace)
        assert result.trace[0].label == "default"
        assert result.baseline_s == result.trace[0].measured_s

    def test_winner_plan_runs_and_matches_its_graph(self):
        from repro import engine

        model, sample = self.make_workload()
        result = tune_plan(model, sample, repeats=1)
        logits = result.plan.forward_batch(sample)
        assert logits.shape == (10, 2, model.config.num_classes)
        # The winning graph relowers to the identical computation.
        relowered = engine.lower_graph(result.graph)
        np.testing.assert_array_equal(relowered.forward_batch(sample), logits)

    def test_trace_covers_prefilter_refinements_without_duplicates(self):
        model, sample = self.make_workload()
        result = tune_plan(model, sample, repeats=1, prefilter_top=2)
        # At most: default + sim-best + one runner-up per tunable slot
        # (4 cells × 2 matrices at this scale, output pinned dense);
        # fewer when a candidate repeats an already-measured config —
        # a configuration is never timed twice.
        assert 2 <= result.num_evaluated <= 1 + 1 + 4
        seen = set()
        for cand in result.trace:
            key = (cand.scheme, tuple(sorted(cand.formats.items())))
            assert key not in seen, f"duplicate measurement: {cand.label}"
            seen.add(key)

    def test_prefilter_top_one_skips_refinement(self):
        model, sample = self.make_workload()
        result = tune_plan(model, sample, repeats=1, prefilter_top=1)
        assert result.num_evaluated <= 2  # default + sim-best at most

    def test_dense_duplicate_of_baseline_not_remeasured(self):
        # formats=("dense",) pins every candidate to the baseline's
        # configuration: nothing but the default is ever measured, so a
        # noisy re-sample can't masquerade as a tuning "speedup".
        model, sample = self.make_workload(pruned=False)
        result = tune_plan(model, sample, formats=("dense",), repeats=1)
        assert result.num_evaluated == 1
        assert result.best.label == "default"
        assert result.speedup == 1.0

    def test_an_int8_csr_pin_is_its_bspc_twin_and_timed_once(self):
        # int8 packs a CSR pin as BSPC: a CSR and a BSPC pin are one plan
        model, sample = self.make_workload()
        result = tune_plan(
            model, sample, schemes=("int8",), formats=("csr", "bspc"), repeats=1
        )
        seen = set()
        for cand in result.trace:
            assert "csr" not in cand.formats.values(), cand.label
            key = (cand.scheme, tuple(sorted(cand.formats.items())))
            assert key not in seen, f"duplicate measurement: {cand.label}"
            seen.add(key)

    def test_scheme_sweep_recorded(self):
        model, sample = self.make_workload(pruned=False)
        result = tune_plan(
            model, sample, schemes=(None, "int8"), formats=("dense",), repeats=1,
        )
        # the float all-dense plan IS the baseline, so it is not re-timed;
        # the int8 one is.
        assert [c.scheme for c in result.trace] == [None, "int8"]
        assert result.trace[1].label == "sim-best[int8]"

    def test_validation(self):
        model, sample = self.make_workload()
        with pytest.raises(ConfigError):
            tune_plan(model, sample, schemes=())
        with pytest.raises(ConfigError):
            tune_plan(model, sample, formats=("sparse?",))
        with pytest.raises(ConfigError):
            tune_plan(model, sample[0], repeats=1)  # wrong rank

    def test_tuned_artifact_round_trip(self, tmp_path):
        from repro import engine

        model, sample = self.make_workload()
        result = tune_plan(model, sample, repeats=1)
        engine.save_plan(tmp_path / "tuned.npz", result.plan)
        reloaded = engine.load_plan(tmp_path / "tuned.npz")
        np.testing.assert_array_equal(
            reloaded.forward_batch(sample), result.plan.forward_batch(sample)
        )
