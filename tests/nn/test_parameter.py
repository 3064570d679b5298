"""Tests for Parameter and SparseGrad."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.nn.parameter import Parameter, SparseGrad


def sparse(indices, values=None, dim=2):
    indices = np.asarray(indices, dtype=np.int64)
    if values is None:
        values = np.arange(indices.size * dim, dtype=float).reshape(-1, dim)
    return SparseGrad(indices=indices, values=values)


class TestSparseGrad:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SparseGrad(indices=np.zeros((2, 2), np.int64), values=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            SparseGrad(indices=np.zeros(2, np.int64), values=np.zeros(2))
        with pytest.raises(ValueError):
            SparseGrad(indices=np.zeros(3, np.int64), values=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            SparseGrad(indices=np.zeros(2, float), values=np.zeros((2, 3)))

    def test_coalesce_sums_duplicates(self):
        g = sparse([3, 1, 3], values=np.array([[1.0, 2], [3, 4], [5, 6]]))
        c = g.coalesce()
        np.testing.assert_array_equal(c.indices, [1, 3])
        np.testing.assert_allclose(c.values, [[3, 4], [6, 8]])

    def test_coalesce_idempotent(self):
        g = sparse([5, 5, 2, 0, 2])
        once = g.coalesce()
        twice = once.coalesce()
        np.testing.assert_array_equal(once.indices, twice.indices)
        np.testing.assert_allclose(once.values, twice.values)

    def test_coalesce_preserves_total_mass(self):
        rng = np.random.default_rng(0)
        g = sparse(rng.integers(0, 5, 30), values=rng.standard_normal((30, 4)))
        np.testing.assert_allclose(
            g.coalesce().values.sum(axis=0), g.values.sum(axis=0)
        )

    def test_to_dense_accumulates(self):
        g = sparse([0, 2, 0], values=np.array([[1.0, 1], [2, 2], [3, 3]]))
        dense = g.to_dense(4)
        np.testing.assert_allclose(dense[0], [4, 4])
        np.testing.assert_allclose(dense[2], [2, 2])
        np.testing.assert_allclose(dense[[1, 3]], 0)

    def test_to_dense_range_checks(self):
        g = sparse([3])
        with pytest.raises(ValueError):
            g.to_dense(3)
        with pytest.raises(ValueError):
            sparse([-1]).to_dense(5)

    @given(
        idx=st.lists(st.integers(0, 9), min_size=1, max_size=40),
        seed=st.integers(0, 1000),
    )
    def test_coalesce_dense_equivalence(self, idx, seed):
        rng = np.random.default_rng(seed)
        g = sparse(np.array(idx), values=rng.standard_normal((len(idx), 3)))
        np.testing.assert_allclose(
            g.to_dense(10), g.coalesce().to_dense(10), rtol=1e-12, atol=1e-12
        )


class TestParameter:
    def test_requires_float(self):
        with pytest.raises(ValueError):
            Parameter(np.zeros(3, np.int64))

    def test_dense_accumulation(self):
        p = Parameter(np.zeros((2, 2)))
        p.accumulate_grad(np.ones((2, 2)))
        p.accumulate_grad(np.ones((2, 2)))
        np.testing.assert_allclose(p.grad, 2.0)

    def test_dense_shape_mismatch_rejected(self):
        p = Parameter(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            p.accumulate_grad(np.ones((3, 2)))

    def test_sparse_accumulation_and_merge(self):
        p = Parameter(np.zeros((10, 2)))
        p.accumulate_sparse_grad(sparse([1, 1], values=np.ones((2, 2))))
        p.accumulate_sparse_grad(sparse([1, 4], values=np.ones((2, 2))))
        merged = p.merged_sparse_grad()
        np.testing.assert_array_equal(merged.indices, [1, 4])
        np.testing.assert_allclose(merged.values, [[3, 3], [1, 1]])

    def test_sparse_on_1d_param_rejected(self):
        p = Parameter(np.zeros(5))
        with pytest.raises(ValueError):
            p.accumulate_sparse_grad(sparse([0], dim=1))

    def test_sparse_dim_mismatch_rejected(self):
        p = Parameter(np.zeros((5, 3)))
        with pytest.raises(ValueError):
            p.accumulate_sparse_grad(sparse([0], dim=2))

    def test_sparse_index_out_of_range_rejected(self):
        p = Parameter(np.zeros((5, 2)))
        with pytest.raises(ValueError):
            p.accumulate_sparse_grad(sparse([5]))

    def test_zero_grad_clears_everything(self):
        p = Parameter(np.zeros((3, 2)))
        p.accumulate_grad(np.ones((3, 2)))
        p.accumulate_sparse_grad(sparse([0]))
        p.zero_grad()
        assert p.grad is None
        assert p.sparse_grads == []
        assert p.merged_sparse_grad() is None
