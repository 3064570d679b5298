"""Tests for Adam with lazy sparse updates."""

import numpy as np
import pytest

from repro.nn.parameter import Parameter, SparseGrad
from repro.optim import Adam


def sparse(indices, values):
    return SparseGrad(np.asarray(indices, np.int64), np.asarray(values, float))


class TestDense:
    def test_first_step_magnitude(self):
        """With bias correction, step 1 moves by ~lr regardless of grad scale."""
        p = Parameter(np.zeros(1))
        p.accumulate_grad(np.array([1e-3]))
        Adam([p], lr=0.1).step()
        assert p.data[0] == pytest.approx(-0.1, rel=1e-3)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.5)
        for _ in range(200):
            p.accumulate_grad(2 * p.data)  # d/dx x^2
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_weight_decay_shrinks_params(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.1, weight_decay=0.5)
        p.accumulate_grad(np.array([0.0]))
        opt.step()
        assert p.data[0] == pytest.approx(0.95)


class TestLazySparse:
    def test_untouched_rows_unchanged(self):
        p = Parameter(np.ones((5, 2)))
        p.accumulate_sparse_grad(sparse([1, 3], [[1, 1], [1, 1]]))
        Adam([p], lr=0.1).step()
        np.testing.assert_allclose(p.data[[0, 2, 4]], 1.0)
        assert (p.data[[1, 3]] < 1.0).all()

    def test_per_row_bias_correction(self):
        """A row first touched at global step 10 gets step-1 correction."""
        p = Parameter(np.zeros((2, 1)))
        opt = Adam([p], lr=0.1)
        for _ in range(9):
            p.accumulate_sparse_grad(sparse([0], [[1.0]]))
            opt.step()
        before = p.data[1, 0]
        p.accumulate_sparse_grad(sparse([1], [[1e-3]]))
        opt.step()
        # Row 1's very first update moves by ~lr, as a fresh Adam would.
        assert p.data[1, 0] - before == pytest.approx(-0.1, rel=1e-3)

    def test_duplicate_indices_coalesced(self):
        p1 = Parameter(np.zeros((3, 1)))
        p2 = Parameter(np.zeros((3, 1)))
        p1.accumulate_sparse_grad(sparse([0, 0], [[1.0], [1.0]]))
        p2.accumulate_sparse_grad(sparse([0], [[2.0]]))
        Adam([p1], lr=0.1).step()
        Adam([p2], lr=0.1).step()
        np.testing.assert_allclose(p1.data, p2.data, rtol=1e-12)

    def test_sparse_weight_decay_touched_rows_only(self):
        p = Parameter(np.ones((3, 1)))
        opt = Adam([p], lr=0.1, weight_decay=0.5)
        p.accumulate_sparse_grad(sparse([2], [[0.0]]))
        opt.step()
        assert p.data[0, 0] == 1.0
        assert p.data[2, 0] == pytest.approx(0.95)


class TestValidation:
    def test_bad_hyperparameters(self):
        p = [Parameter(np.zeros(1))]
        with pytest.raises(ValueError):
            Adam(p, lr=0.0)
        with pytest.raises(ValueError):
            Adam(p, lr=0.1, beta1=1.0)
        with pytest.raises(ValueError):
            Adam(p, lr=0.1, beta2=-0.1)
        with pytest.raises(ValueError):
            Adam(p, lr=0.1, weight_decay=-1.0)
        with pytest.raises(ValueError):
            Adam([], lr=0.1)
