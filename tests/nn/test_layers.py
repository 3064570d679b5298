"""Gradient-checked tests for Embedding, Linear, Dropout and Module."""

import numpy as np
import pytest

from repro.nn import Dropout, Embedding, Linear, Module, Parameter
from repro.nn import init as nn_init

from ..helpers import numerical_grad


def rng():
    return np.random.default_rng(42)


class TestInit:
    def test_uniform_bounds(self):
        w = nn_init.uniform((100, 10), 0.3, rng())
        assert np.abs(w).max() <= 0.3

    def test_xavier_limit(self):
        w = nn_init.xavier_uniform((50, 30), rng())
        limit = np.sqrt(6.0 / 80)
        assert np.abs(w).max() <= limit

    def test_orthogonal_is_orthogonal(self):
        w = nn_init.orthogonal((16, 16), rng(), dtype=np.float64)
        np.testing.assert_allclose(w @ w.T, np.eye(16), atol=1e-10)

    def test_orthogonal_rectangular(self):
        w = nn_init.orthogonal((4, 8), rng(), dtype=np.float64)
        np.testing.assert_allclose(w @ w.T, np.eye(4), atol=1e-10)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            nn_init.uniform((2,), -1.0, rng())
        with pytest.raises(ValueError):
            nn_init.xavier_uniform((2, 3, 4), rng())  # type: ignore[arg-type]


class TestModule:
    def test_parameter_auto_registration(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.zeros((2, 2)))

        m = M()
        assert list(m.parameters()) == [m.w]
        assert m.w.name == "w"

    def test_submodule_traversal(self):
        class Inner(Module):
            def __init__(self):
                super().__init__()
                self.a = Parameter(np.zeros(3))

        class Outer(Module):
            def __init__(self):
                super().__init__()
                self.inner = Inner()
                self.b = Parameter(np.zeros(2))

        m = Outer()
        names = dict(m.named_parameters())
        assert set(names) == {"b", "inner.a"}
        assert sum(p.data.size for p in m.parameters()) == 5

    def test_train_eval_propagates(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                self.drop = Dropout(0.5, rng())

        m = M()
        m.eval()
        assert not m.drop.training
        m.train()
        assert m.drop.training

    def test_duplicate_registration_rejected(self):
        m = Module()
        m.register_parameter("x", Parameter(np.zeros(1)))
        with pytest.raises(ValueError):
            m.register_parameter("x", Parameter(np.zeros(1)))

    def test_zero_grad_recursive(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.zeros(2))

        m = M()
        m.w.accumulate_grad(np.ones(2))
        m.zero_grad()
        assert m.w.grad is None


class TestEmbedding:
    def test_forward_gathers_rows(self):
        emb = Embedding(5, 3, rng())
        ids = np.array([[1, 4], [4, 0]])
        out, _ = emb.forward(ids)
        assert out.shape == (2, 2, 3)
        np.testing.assert_allclose(out[0, 1], emb.weight.data[4])
        np.testing.assert_allclose(out[1, 0], emb.weight.data[4])

    def test_out_of_range_ids_rejected(self):
        emb = Embedding(5, 3, rng())
        with pytest.raises(ValueError):
            emb.forward(np.array([5]))
        with pytest.raises(ValueError):
            emb.forward(np.array([-1]))
        with pytest.raises(ValueError):
            emb.forward(np.array([0.5]))

    def test_backward_emits_token_level_sparse_grad(self):
        emb = Embedding(10, 2, rng())
        ids = np.array([[3, 3, 7]])
        out, cache = emb.forward(ids)
        grad = np.ones_like(out)
        emb.backward(grad, cache)
        (sg,) = emb.weight.sparse_grads
        np.testing.assert_array_equal(sg.indices, [3, 3, 7])
        assert sg.values.shape == (3, 2)

    def test_gradient_matches_finite_difference(self):
        emb = Embedding(6, 3, rng(), dtype=np.float64)
        ids = np.array([[0, 2, 2], [5, 0, 1]])
        g_out = np.random.default_rng(1).standard_normal((2, 3, 3))

        def loss():
            out, _ = emb.forward(ids)
            return float((out * g_out).sum())

        out, cache = emb.forward(ids)
        emb.backward(g_out, cache)
        analytic = emb.weight.merged_sparse_grad().to_dense(6)
        numeric = numerical_grad(loss, emb.weight.data)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)

    def test_grad_shape_mismatch_rejected(self):
        emb = Embedding(6, 3, rng())
        _, cache = emb.forward(np.array([[1]]))
        with pytest.raises(ValueError):
            emb.backward(np.zeros((1, 2, 3)), cache)


class TestLinear:
    def test_forward_shape_and_bias(self):
        lin = Linear(4, 6, rng())
        x = np.ones((2, 3, 4))
        y, _ = lin.forward(x)
        assert y.shape == (2, 3, 6)
        np.testing.assert_allclose(
            y[0, 0], x[0, 0] @ lin.weight.data + lin.bias.data
        )

    def test_no_bias_option(self):
        lin = Linear(4, 6, rng(), bias=False)
        assert lin.bias is None
        assert sum(p.data.size for p in lin.parameters()) == 24

    def test_gradients_match_finite_difference(self):
        lin = Linear(3, 2, rng(), dtype=np.float64)
        x = np.random.default_rng(5).standard_normal((4, 3))
        g_out = np.random.default_rng(6).standard_normal((4, 2))

        def loss():
            y, _ = lin.forward(x)
            return float((y * g_out).sum())

        y, cache = lin.forward(x)
        dx = lin.backward(g_out, cache)
        numeric_w = numerical_grad(loss, lin.weight.data)
        np.testing.assert_allclose(lin.weight.grad, numeric_w, rtol=1e-6, atol=1e-9)
        numeric_b = numerical_grad(loss, lin.bias.data)
        np.testing.assert_allclose(lin.bias.grad, numeric_b, rtol=1e-6, atol=1e-9)
        numeric_x = numerical_grad(loss, x)
        np.testing.assert_allclose(dx, numeric_x, rtol=1e-6, atol=1e-9)

    def test_input_dim_validation(self):
        lin = Linear(3, 2, rng())
        with pytest.raises(ValueError):
            lin.forward(np.zeros((2, 4)))


class TestDropout:
    def test_eval_mode_is_identity(self):
        d = Dropout(0.5, rng())
        d.eval()
        x = np.ones((10, 10))
        out, _ = d.forward(x)
        np.testing.assert_array_equal(out, x)

    def test_training_preserves_expectation(self):
        d = Dropout(0.3, np.random.default_rng(0))
        x = np.ones((200, 200))
        out, _ = d.forward(x)
        assert out.mean() == pytest.approx(1.0, abs=0.02)

    def test_mask_reused_in_backward(self):
        d = Dropout(0.5, np.random.default_rng(0))
        x = np.ones((8, 8))
        out, cache = d.forward(x)
        g = d.backward(np.ones_like(x), cache)
        # Zeros in forward must be zeros in backward, scaled values match.
        np.testing.assert_array_equal(g == 0, out == 0)

    def test_p_zero_noop(self):
        d = Dropout(0.0, rng())
        x = np.random.default_rng(1).standard_normal((4, 4))
        out, cache = d.forward(x)
        np.testing.assert_array_equal(out, x)
        np.testing.assert_array_equal(d.backward(x, cache), x)

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            Dropout(1.0, rng())
        with pytest.raises(ValueError):
            Dropout(-0.1, rng())
