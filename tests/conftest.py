"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.nn.tensor import Tensor


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Fail any test that leaves a live child process behind (and stop
    the leaked processes so the next test starts clean)."""
    yield
    leaked = multiprocessing.active_children()
    for process in leaked:
        process.kill()
        process.join(5.0)
    if leaked:
        pytest.fail(f"test left live child processes: {leaked}")


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def rng_factory():
    """Seeded generator factory for tests that sweep many cases.

    Each case derives its own generator from an explicit seed, so a
    failure report names the exact stream that broke and the sweep stays
    reproducible case by case.
    """

    def make(seed: int = 12345) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make


def numeric_gradient(func, array: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``func`` w.r.t. ``array``."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        plus = func(array)
        flat[i] = original - epsilon
        minus = func(array)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * epsilon)
    return grad


def check_gradient(build, array: np.ndarray, atol: float = 1e-6) -> None:
    """Assert autograd gradient of ``build(Tensor)`` matches numeric.

    ``build`` maps a Tensor to a scalar Tensor.
    """
    tensor = Tensor(array.copy(), requires_grad=True)
    out = build(tensor)
    out.backward()

    def scalar(arr: np.ndarray) -> float:
        return float(build(Tensor(arr.copy())).data)

    numeric = numeric_gradient(scalar, array.copy())
    np.testing.assert_allclose(tensor.grad, numeric, atol=atol, rtol=1e-4)
