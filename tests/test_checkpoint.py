"""Tests for repro.utils.atomic_write / stats / faults and
repro.training.checkpoint: atomic write discipline, optimizer and ADMM
state round trips, and bit-exact checkpointed resume."""

import json
import os

import numpy as np
import pytest

from repro.errors import CheckpointError, ConfigError
from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam, Optimizer
from repro.pruning.admm import ADMMPruner, ADMMTarget
from repro.pruning.bsp import BSPConfig, BSPPruner
from repro.pruning.mask import PruningMask
from repro.speech.model import AcousticModelConfig, GRUAcousticModel
from repro.speech.synth import SynthConfig, make_corpus
from repro.speech.trainer import Trainer, TrainerConfig
from repro.training import (
    CheckpointConfig,
    load_training_checkpoint,
    restore_training_checkpoint,
    run_checkpointed,
    save_training_checkpoint,
)
from repro.utils.atomic_write import (
    atomic_write,
    atomic_write_json,
    content_checksum,
)
from repro.utils.stats import Summary, percentile, summarize


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write(path, lambda handle: handle.write(b"payload"))
        assert path.read_bytes() == b"payload"

    def test_replaces_existing(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        atomic_write(path, lambda handle: handle.write(b"new"))
        assert path.read_bytes() == b"new"

    def test_text_mode(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write(path, lambda handle: handle.write("héllo"), text=True)
        assert path.read_text(encoding="utf-8") == "héllo"

    def test_failure_keeps_original_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"original")

        def boom(handle):
            handle.write(b"partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_write(path, boom)
        assert path.read_bytes() == b"original"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_json_round_trip_sorted(self, tmp_path):
        path = tmp_path / "r.json"
        atomic_write_json(path, {"b": 2, "a": [1, 2]})
        text = path.read_text(encoding="utf-8")
        assert json.loads(text) == {"a": [1, 2], "b": 2}
        assert text.index('"a"') < text.index('"b"')


class TestContentChecksum:
    def test_stable_across_key_order(self):
        arrays = {"w": np.arange(4.0), "b": np.zeros(2)}
        reordered = {"b": np.zeros(2), "w": np.arange(4.0)}
        assert content_checksum({"x": 1}, arrays) == content_checksum(
            {"x": 1}, reordered
        )

    def test_sensitive_to_bytes_and_meta(self):
        arrays = {"w": np.arange(4.0)}
        base = content_checksum({"x": 1}, arrays)
        assert content_checksum({"x": 2}, arrays) != base
        assert content_checksum({"x": 1}, {"w": np.arange(1, 5.0)}) != base

    def test_sensitive_to_dtype_and_shape(self):
        a = np.zeros(4, dtype=np.float64)
        assert content_checksum({}, {"w": a}) != content_checksum(
            {}, {"w": a.astype(np.float32)}
        )
        assert content_checksum({}, {"w": a}) != content_checksum(
            {}, {"w": a.reshape(2, 2)}
        )


class TestStats:
    def test_percentile_empty_is_zero(self):
        assert percentile([], 95) == 0.0

    def test_percentile_single(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 95) == 7.0

    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == pytest.approx(2.5)
        assert percentile(values, 100) == 4.0

    def test_summarize_empty_all_zero(self):
        summary = summarize([])
        assert summary == Summary(
            count=0, mean=0.0, p50=0.0, p95=0.0, min=0.0, max=0.0
        )

    def test_summarize_values(self):
        summary = summarize([2.0, 4.0, 6.0])
        assert summary.count == 3
        assert summary.mean == pytest.approx(4.0)
        assert summary.min == 2.0 and summary.max == 6.0
        assert set(summary.to_dict()) == {
            "count", "mean", "p50", "p95", "min", "max"
        }


class TestFaultsAlias:
    def test_fabric_module_reexports_shared_faults(self):
        from repro.engine import fabric as fabric_faults
        from repro.utils import faults as shared

        assert fabric_faults.FaultConfig is shared.FaultConfig
        assert fabric_faults.FaultInjector is shared.FaultInjector
        assert fabric_faults.CRASH_EXIT_CODE == shared.CRASH_EXIT_CODE

    def test_on_step_is_on_chunk(self):
        from repro.utils.faults import FaultInjector

        assert FaultInjector.on_step is FaultInjector.on_chunk


def _grads_for(step: int, shape) -> np.ndarray:
    rng = np.random.default_rng(1000 + step)
    return rng.standard_normal(shape)


class TestOptimizerState:
    def test_base_optimizer_stateless(self):
        param = Parameter(np.ones(3))
        opt = Optimizer([param])
        assert opt.state_dict() == {}
        with pytest.raises(ValueError):
            opt.load_state_dict({"0.m": np.zeros(3)})

    @pytest.mark.parametrize("make", [
        lambda p: SGD([p], lr=0.1, momentum=0.9),
        lambda p: Adam([p], lr=0.1),
    ])
    def test_round_trip_continues_bit_identically(self, make):
        param = Parameter(np.linspace(-1, 1, 6).reshape(2, 3))
        opt = make(param)
        for step in range(3):
            param.grad = _grads_for(step, param.data.shape)
            opt.step()
        state = {k: v.copy() for k, v in opt.state_dict().items()}
        snapshot = param.data.copy()

        for step in range(3, 5):  # the uninterrupted branch
            param.grad = _grads_for(step, param.data.shape)
            opt.step()
        expected = param.data.copy()

        fresh = Parameter(snapshot.copy())
        opt2 = make(fresh)
        opt2.load_state_dict(state)
        for step in range(3, 5):  # the restored branch, same grads
            fresh.grad = _grads_for(step, fresh.data.shape)
            opt2.step()
        np.testing.assert_array_equal(fresh.data, expected)

    def test_adam_state_has_moments_and_timestep(self):
        param = Parameter(np.ones(4))
        opt = Adam([param], lr=0.1)
        param.grad = np.ones(4)
        opt.step()
        state = opt.state_dict()
        assert set(state) == {"0.m", "0.v", "0.t"}
        assert int(state["0.t"]) == 1

    def test_adam_load_rejects_missing_and_mismatched(self):
        param = Parameter(np.ones(4))
        opt = Adam([param], lr=0.1)
        param.grad = np.ones(4)
        opt.step()
        state = opt.state_dict()
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(4))], lr=0.1).load_state_dict(
                {k: v for k, v in state.items() if k != "0.t"}
            )
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(5))], lr=0.1).load_state_dict(state)


def _make_admm(param: Parameter) -> ADMMPruner:
    projection = lambda w: PruningMask(np.abs(w) >= np.median(np.abs(w)))
    return ADMMPruner([ADMMTarget("w", param, projection)], rho=0.1)


class TestADMMState:
    def test_round_trip_continues_bit_identically(self):
        param = Parameter(np.linspace(-2, 2, 8).reshape(2, 4))
        pruner = _make_admm(param)
        param.data += 0.1
        pruner.dual_update()
        state = {k: v.copy() for k, v in pruner.state_dict().items()}
        snapshot = param.data.copy()

        param.data += 0.05
        pruner.dual_update()
        expected_z = pruner.variables["w"].z.copy()
        expected_u = pruner.variables["w"].u.copy()

        fresh = Parameter(snapshot.copy())
        restored = _make_admm(fresh)
        restored.load_state_dict(state)
        np.testing.assert_array_equal(restored.variables["w"].z, state["w::z"])
        fresh.data += 0.05
        restored.dual_update()
        np.testing.assert_array_equal(restored.variables["w"].z, expected_z)
        np.testing.assert_array_equal(restored.variables["w"].u, expected_u)

    def test_load_rejects_wrong_keys_and_shapes(self):
        param = Parameter(np.ones((2, 4)))
        pruner = _make_admm(param)
        state = pruner.state_dict()
        with pytest.raises(ConfigError):
            _make_admm(Parameter(np.ones((2, 4)))).load_state_dict(
                {"w::z": state["w::z"]}
            )
        with pytest.raises(ConfigError):
            _make_admm(Parameter(np.ones((2, 4)))).load_state_dict(
                {"w::z": np.ones((3, 4)), "w::u": np.ones((3, 4))}
            )


_SMALL = dict(num_train=6, num_test=2, hidden=12, batch=3, seed=0)


def _build_training(with_method: bool = True):
    train_set, test_set = make_corpus(
        _SMALL["num_train"], _SMALL["num_test"], SynthConfig(),
        seed=_SMALL["seed"],
    )
    model = GRUAcousticModel(
        AcousticModelConfig(hidden_size=_SMALL["hidden"]), rng=_SMALL["seed"]
    )
    trainer = Trainer(
        model, train_set, test_set,
        TrainerConfig(batch_size=_SMALL["batch"], seed=_SMALL["seed"]),
    )
    method = None
    if with_method:
        method = BSPPruner(
            model.prunable_parameters(),
            BSPConfig(
                col_rate=2, row_rate=1.25,
                step1_admm_epochs=1, step1_retrain_epochs=1,
                step2_admm_epochs=1, step2_retrain_epochs=1,
            ),
        )
    return model, trainer, method


class TestTrainingCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        model, trainer, method = _build_training()
        path = tmp_path / "ckpt.npz"
        save_training_checkpoint(path, trainer, method, extra={"cell": "x"})
        loaded = load_training_checkpoint(path)
        assert loaded.epoch == 0 and loaded.step == 0
        assert loaded.meta["method_class"] == "BSPPruner"
        assert loaded.meta["extra"] == {"cell": "x"}
        assert loaded.meta["rng"] == {"seed": 0, "epoch": 0}
        np.testing.assert_array_equal(
            loaded.model_state()["gru.cell0.weight_ih"],
            model.state_dict()["gru.cell0.weight_ih"],
        )

    def test_step_must_match_losses(self, tmp_path):
        _, trainer, _ = _build_training(with_method=False)
        with pytest.raises(ConfigError):
            save_training_checkpoint(
                tmp_path / "c.npz", trainer, step=2, epoch_losses=[1.0]
            )

    def test_missing_file_raises_typed(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_training_checkpoint(tmp_path / "nope.npz")

    def test_truncated_raises_typed(self, tmp_path):
        _, trainer, _ = _build_training(with_method=False)
        path = tmp_path / "ckpt.npz"
        save_training_checkpoint(path, trainer)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointError, match="missing, truncated"):
            load_training_checkpoint(path)

    def test_bitflip_fails_checksum(self, tmp_path):
        _, trainer, _ = _build_training(with_method=False)
        path = tmp_path / "ckpt.npz"
        save_training_checkpoint(path, trainer)
        # Corrupt one byte inside a *stored* array member, re-zipping so
        # the container stays readable and only the content changed.
        import io
        import zipfile

        with np.load(path) as data:
            arrays = {key: data[key].copy() for key in data.files}
        victim = next(k for k in arrays if k.startswith("model::"))
        buffer = arrays[victim]
        buffer.reshape(-1)[0] += 1e-9
        with zipfile.ZipFile(path, "w") as archive:
            for key, value in arrays.items():
                entry = io.BytesIO()
                np.save(entry, value)
                archive.writestr(f"{key}.npy", entry.getvalue())
        with pytest.raises(CheckpointError, match="checksum"):
            load_training_checkpoint(path)

    def test_foreign_npz_raises_typed(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, stuff=np.ones(3))
        with pytest.raises(CheckpointError, match="not a training checkpoint"):
            load_training_checkpoint(path)

    def test_restore_method_class_mismatch(self, tmp_path):
        _, trainer, method = _build_training()
        path = tmp_path / "ckpt.npz"
        save_training_checkpoint(path, trainer, method)
        _, fresh_trainer, _ = _build_training(with_method=False)
        with pytest.raises(CheckpointError, match="BSPPruner"):
            restore_training_checkpoint(path, fresh_trainer, None)

    def test_restore_shape_mismatch(self, tmp_path):
        _, trainer, _ = _build_training(with_method=False)
        path = tmp_path / "ckpt.npz"
        save_training_checkpoint(path, trainer)
        other_model = GRUAcousticModel(
            AcousticModelConfig(hidden_size=16), rng=0
        )
        other = Trainer(
            other_model, trainer.train_set, trainer.test_set,
            TrainerConfig(batch_size=3, seed=0),
        )
        with pytest.raises(CheckpointError, match="does not match"):
            restore_training_checkpoint(path, other, None)


class TestRunCheckpointed:
    def test_dense_resume_bit_exact(self, tmp_path):
        clean_model, clean_trainer, _ = _build_training(with_method=False)
        run_checkpointed(
            clean_trainer, None,
            CheckpointConfig(path=tmp_path / "clean.npz"), max_epochs=2,
        )

        class Boom(Exception):
            pass

        def crash(step):
            if step == 3:  # mid-epoch: 2 steps per epoch at these sizes
                raise Boom()

        model, trainer, _ = _build_training(with_method=False)
        config = CheckpointConfig(path=tmp_path / "chaos.npz")
        with pytest.raises(Boom):
            run_checkpointed(
                trainer, None, config, max_epochs=2, on_step=crash
            )
        model, trainer, _ = _build_training(with_method=False)
        run_checkpointed(trainer, None, config, max_epochs=2)
        assert trainer.log.losses == clean_trainer.log.losses
        for name, value in clean_model.state_dict().items():
            np.testing.assert_array_equal(value, model.state_dict()[name])

    @pytest.mark.parametrize("crash_step", [1, 3, 5])
    def test_bsp_prune_retrain_resume_bit_exact(self, tmp_path, crash_step):
        clean_model, clean_trainer, clean_method = _build_training()
        run_checkpointed(
            clean_trainer, clean_method,
            CheckpointConfig(path=tmp_path / "clean.npz"), max_epochs=10,
        )
        assert clean_method.finished

        class Boom(Exception):
            pass

        def crash(step):
            if step == crash_step:
                raise Boom()

        model, trainer, method = _build_training()
        config = CheckpointConfig(path=tmp_path / "chaos.npz")
        with pytest.raises(Boom):
            run_checkpointed(
                trainer, method, config, max_epochs=10, on_step=crash
            )
        # A fresh process would rebuild everything from scratch.
        model, trainer, method = _build_training()
        run_checkpointed(trainer, method, config, max_epochs=10)
        assert method.finished
        assert trainer.log.losses == clean_trainer.log.losses
        for name, value in clean_model.state_dict().items():
            np.testing.assert_array_equal(value, model.state_dict()[name])

    def test_every_steps_validated(self, tmp_path):
        with pytest.raises(ConfigError):
            CheckpointConfig(path=tmp_path / "c.npz", every_steps=0)

    def test_trainer_start_step_guard(self):
        _, trainer, _ = _build_training(with_method=False)
        with pytest.raises(ConfigError):
            trainer.train_epoch(start_step=2, prior_losses=[1.0])

    def test_trainer_epoch_setter_guard(self):
        _, trainer, _ = _build_training(with_method=False)
        with pytest.raises(ConfigError):
            trainer.epoch = -1
