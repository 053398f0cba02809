"""Tests for the E-RNN baseline."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.nn.module import Parameter
from repro.pruning.block_circulant import project_block_circulant
from repro.pruning.ernn import ERNNCompressor, ERNNConfig


def drive(pruner, params, rng, epochs, batches=3, lr=0.01):
    for _ in range(epochs):
        for _ in range(batches):
            for p in params.values():
                p.grad = 0.01 * rng.standard_normal(p.data.shape)
            pruner.on_batch_backward()
            for p in params.values():
                p.data -= lr * p.grad
            pruner.on_batch_end()
        pruner.on_epoch_end()


class TestERNN:
    def make_params(self, rng):
        return {"w": Parameter(rng.standard_normal((16, 16)))}

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ERNNConfig(block_size=0)
        with pytest.raises(ConfigError):
            ERNNConfig(rho=0.0)
        with pytest.raises(ConfigError):
            ERNNConfig(admm_epochs=-1)

    def test_phase_progression(self, rng):
        params = self.make_params(rng)
        pruner = ERNNCompressor(params, ERNNConfig(block_size=4, admm_epochs=2,
                                                   retrain_epochs=1))
        assert not pruner.finished
        drive(pruner, params, rng, 2)
        assert pruner._hardened
        assert not pruner.finished
        drive(pruner, params, rng, 1)
        assert pruner.finished

    def test_hardened_weights_exactly_circulant(self, rng):
        params = self.make_params(rng)
        pruner = ERNNCompressor(params, ERNNConfig(block_size=4, admm_epochs=1,
                                                   retrain_epochs=1))
        drive(pruner, params, rng, 2)
        w = params["w"].data
        np.testing.assert_allclose(project_block_circulant(w, 4), w, atol=1e-12)
        assert pruner.primal_residual() == pytest.approx(0.0, abs=1e-10)

    def test_admm_reduces_residual(self, rng):
        """On a pure quadratic pull toward a fixed target, the convex-set
        ADMM drives the weights toward circulant structure."""
        params = self.make_params(rng)
        target = rng.standard_normal((16, 16))
        pruner = ERNNCompressor(params, ERNNConfig(block_size=4, rho=0.5,
                                                   admm_epochs=100,
                                                   retrain_epochs=0))
        initial = pruner.primal_residual()
        for _ in range(60):
            for _ in range(3):
                params["w"].grad = 0.2 * (params["w"].data - target)
                pruner.on_batch_backward()
                params["w"].data -= 0.05 * params["w"].grad
                pruner.on_batch_end()
            pruner.on_epoch_end()
        assert pruner.primal_residual() < 0.5 * initial

    def test_compression_rate(self, rng):
        params = self.make_params(rng)
        pruner = ERNNCompressor(params, ERNNConfig(block_size=4))
        assert pruner.compression_rate() == pytest.approx(4.0)

    def test_masks_all_ones(self, rng):
        params = self.make_params(rng)
        pruner = ERNNCompressor(params, ERNNConfig(block_size=4))
        assert pruner.masks["w"].nnz == 256

    def test_penalty_added_to_grads(self, rng):
        params = self.make_params(rng)
        pruner = ERNNCompressor(params, ERNNConfig(block_size=4, rho=1.0))
        params["w"].grad = None
        pruner.on_batch_backward()
        expected = params["w"].data - pruner._z["w"]
        np.testing.assert_allclose(params["w"].grad, expected)
