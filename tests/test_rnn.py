"""Tests for the GRU cell and sequence wrapper (repro.nn.rnn)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.rnn import GRU, GRUCell
from repro.nn.tensor import Tensor


def manual_gru_step(cell: GRUCell, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Reference numpy implementation of the paper's GRU equations."""
    hs = cell.hidden_size
    w_ih, w_hh = cell.weight_ih.data, cell.weight_hh.data
    b_ih, b_hh = cell.bias_ih.data, cell.bias_hh.data
    gx = x @ w_ih.T + b_ih
    gh = h @ w_hh.T + b_hh
    sigmoid = lambda v: 1.0 / (1.0 + np.exp(-v))
    z = sigmoid(gx[:, :hs] + gh[:, :hs])
    r = sigmoid(gx[:, hs : 2 * hs] + gh[:, hs : 2 * hs])
    h_tilde = np.tanh(gx[:, 2 * hs :] + r * gh[:, 2 * hs :])
    return (1 - z) * h + z * h_tilde


class TestGRUCell:
    def test_output_shape(self, rng):
        cell = GRUCell(6, 10, rng=0)
        h = cell(Tensor(rng.standard_normal((4, 6))), cell.init_hidden(4))
        assert h.shape == (4, 10)

    def test_matches_manual_equations(self, rng):
        cell = GRUCell(5, 7, rng=0)
        x = rng.standard_normal((3, 5))
        h = rng.standard_normal((3, 7))
        out = cell(Tensor(x), Tensor(h)).data
        np.testing.assert_allclose(out, manual_gru_step(cell, x, h), atol=1e-12)

    def test_weight_shapes(self):
        cell = GRUCell(5, 7, rng=0)
        assert cell.weight_ih.data.shape == (21, 5)
        assert cell.weight_hh.data.shape == (21, 7)
        assert cell.bias_ih.data.shape == (21,)

    def test_init_hidden_zero(self):
        cell = GRUCell(5, 7, rng=0)
        assert np.all(cell.init_hidden(3).data == 0.0)

    def test_rejects_wrong_input_size(self, rng):
        cell = GRUCell(5, 7, rng=0)
        with pytest.raises(ShapeError):
            cell(Tensor(rng.standard_normal((3, 4))), cell.init_hidden(3))

    def test_hidden_stays_bounded(self, rng):
        # GRU hidden state is a convex combination of h and tanh output,
        # so it stays in [-1, 1] when started at zero.
        cell = GRUCell(4, 8, rng=0)
        h = cell.init_hidden(2)
        for _ in range(50):
            h = cell(Tensor(rng.standard_normal((2, 4)) * 3), h)
        assert np.all(np.abs(h.data) <= 1.0)

    def test_gradients_flow(self, rng):
        cell = GRUCell(4, 6, rng=0)
        h = cell(Tensor(rng.standard_normal((2, 4))), cell.init_hidden(2))
        h.sum().backward()
        for name in ("weight_ih", "weight_hh", "bias_ih", "bias_hh"):
            assert getattr(cell, name).grad is not None, name

    def test_deterministic_init(self):
        a = GRUCell(4, 6, rng=9)
        b = GRUCell(4, 6, rng=9)
        np.testing.assert_array_equal(a.weight_hh.data, b.weight_hh.data)


class TestGRUSequence:
    def test_output_shapes(self, rng):
        gru = GRU(5, 8, num_layers=2, rng=0)
        out, finals = gru(Tensor(rng.standard_normal((7, 3, 5))))
        assert out.shape == (7, 3, 8)
        assert len(finals) == 2
        assert finals[0].shape == (3, 8)

    def test_last_output_equals_final_hidden(self, rng):
        gru = GRU(5, 8, num_layers=2, rng=0)
        out, finals = gru(Tensor(rng.standard_normal((7, 3, 5))))
        np.testing.assert_allclose(out.data[-1], finals[-1].data)

    def test_matches_unrolled_cells(self, rng):
        gru = GRU(4, 6, num_layers=1, rng=0)
        x = rng.standard_normal((5, 2, 4))
        out, _ = gru(Tensor(x))
        h = np.zeros((2, 6))
        for t in range(5):
            h = manual_gru_step(gru.cells[0], x[t], h)
            np.testing.assert_allclose(out.data[t], h, atol=1e-12)

    def test_rejects_2d_input(self, rng):
        gru = GRU(4, 6, rng=0)
        with pytest.raises(ShapeError):
            gru(Tensor(rng.standard_normal((5, 4))))

    def test_rejects_wrong_h0_count(self, rng):
        gru = GRU(4, 6, num_layers=2, rng=0)
        with pytest.raises(ShapeError):
            gru(Tensor(rng.standard_normal((5, 2, 4))), h0=[gru.cells[0].init_hidden(2)])

    def test_custom_h0_used(self, rng):
        gru = GRU(4, 6, num_layers=1, rng=0)
        x = rng.standard_normal((1, 2, 4))
        h0 = rng.standard_normal((2, 6))
        out, _ = gru(Tensor(x), h0=[Tensor(h0)])
        np.testing.assert_allclose(
            out.data[0], manual_gru_step(gru.cells[0], x[0], h0), atol=1e-12
        )

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            GRU(4, 6, num_layers=0)

    def test_gradient_through_time(self, rng):
        gru = GRU(3, 5, num_layers=2, rng=0)
        out, _ = gru(Tensor(rng.standard_normal((6, 2, 3))))
        out.sum().backward()
        for cell in gru.cells:
            assert cell.weight_hh.grad is not None
            assert np.linalg.norm(cell.weight_hh.grad) > 0

    def test_layers_have_independent_weights(self):
        gru = GRU(6, 6, num_layers=2, rng=0)
        assert not np.allclose(
            gru.cells[0].weight_hh.data, gru.cells[1].weight_hh.data
        )

