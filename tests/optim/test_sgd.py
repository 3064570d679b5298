"""Tests for sparse-aware SGD."""

import numpy as np
import pytest

from repro.nn.parameter import Parameter, SparseGrad
from repro.optim import SGD


def sparse(indices, values):
    return SparseGrad(np.asarray(indices, np.int64), np.asarray(values, float))


class TestDenseUpdates:
    def test_basic_step(self):
        p = Parameter(np.ones(3))
        p.accumulate_grad(np.array([1.0, 2.0, 3.0]))
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.9, 0.8, 0.7])

    def test_grads_cleared_after_step(self):
        p = Parameter(np.ones(3))
        p.accumulate_grad(np.ones(3))
        SGD([p], lr=0.1).step()
        assert p.grad is None

    def test_step_without_grad_is_noop(self):
        p = Parameter(np.ones(3))
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, 1.0)


class TestSparseUpdates:
    def test_duplicate_rows_summed_once(self):
        p = Parameter(np.zeros((4, 2)))
        p.accumulate_sparse_grad(sparse([1, 1, 3], [[1, 1], [1, 1], [2, 2]]))
        SGD([p], lr=1.0).step()
        np.testing.assert_allclose(p.data[1], [-2, -2])
        np.testing.assert_allclose(p.data[3], [-2, -2])
        np.testing.assert_allclose(p.data[0], 0)

    def test_sparse_equals_densified_update(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 6, 20)
        vals = rng.standard_normal((20, 3))
        p_sparse = Parameter(np.ones((6, 3)))
        p_dense = Parameter(np.ones((6, 3)))
        p_sparse.accumulate_sparse_grad(sparse(idx, vals))
        p_dense.accumulate_grad(sparse(idx, vals).to_dense(6))
        SGD([p_sparse], lr=0.05).step()
        SGD([p_dense], lr=0.05).step()
        np.testing.assert_allclose(p_sparse.data, p_dense.data, rtol=1e-12)


class TestClipping:
    def test_clip_rescales_large_gradients(self):
        p = Parameter(np.zeros(2))
        p.accumulate_grad(np.array([3.0, 4.0]))  # norm 5
        SGD([p], lr=1.0, clip_norm=1.0).step()
        np.testing.assert_allclose(np.linalg.norm(p.data), 1.0, rtol=1e-6)

    def test_clip_leaves_small_gradients(self):
        p = Parameter(np.zeros(2))
        p.accumulate_grad(np.array([0.3, 0.4]))
        SGD([p], lr=1.0, clip_norm=1.0).step()
        np.testing.assert_allclose(p.data, [-0.3, -0.4])

    def test_clip_covers_sparse_grads(self):
        p = Parameter(np.zeros((3, 1)))
        p.accumulate_sparse_grad(sparse([0], [[30.0]]))
        SGD([p], lr=1.0, clip_norm=3.0).step()
        assert abs(p.data[0, 0]) == pytest.approx(3.0, rel=1e-6)


class TestValidation:
    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.0)

    def test_nonpositive_clip_rejected(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, clip_norm=0.0)
