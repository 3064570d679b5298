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


class TestReplicateFrom:
    """``replicate_from`` copies what the other optimizer's step changed —
    bit-equal to stepping this one independently on equal gradients."""

    ROWS = 40  # rows_touched * 4 < ROWS: the row-copy branch

    def pair(self, **kwargs):
        """(params, optimizer) twice over: equal data, equal gradients."""
        sides = []
        for _ in range(2):
            rng = np.random.default_rng(0)
            dense = Parameter(rng.standard_normal((3, 2)))
            table = Parameter(rng.standard_normal((self.ROWS, 2)))
            tied = Parameter(rng.standard_normal((self.ROWS, 2)))
            idle = Parameter(rng.standard_normal((5,)))
            params = [dense, table, tied, idle]
            sides.append((params, SGD(params, lr=0.1, **kwargs)))
        return sides

    @staticmethod
    def load_grads(params, step):
        rng = np.random.default_rng(100 + step)
        dense, table, tied, _idle = params
        dense.grad = rng.standard_normal(dense.shape)
        table.sparse_grads = [sparse([7, 2, 7], rng.standard_normal((3, 2)))]
        tied.grad = rng.standard_normal(tied.shape)
        tied.sparse_grads = [
            sparse([1], rng.standard_normal((1, 2))),
            sparse([30, 1], rng.standard_normal((2, 2))),
        ]

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("clip_norm", [None, 0.5])
    def test_equals_an_independent_step(self, momentum, clip_norm):
        (src_params, src), (dst_params, dst) = self.pair(
            momentum=momentum, clip_norm=clip_norm
        )
        (ref_params, ref), _ = self.pair(momentum=momentum, clip_norm=clip_norm)
        for step in range(3):
            for params in (src_params, dst_params, ref_params):
                self.load_grads(params, step)
            src.step()
            dst.replicate_from(src)
            ref.step()
            for got, want in zip(dst_params, ref_params):
                np.testing.assert_array_equal(got.data, want.data)
                assert got.grad is None and got.sparse_grads == []
            if momentum:
                for got, want in zip(dst._velocity, ref._velocity):
                    np.testing.assert_array_equal(got, want)

    def test_sparse_grad_copies_only_the_touched_rows(self):
        (src_params, src), (dst_params, dst) = self.pair(momentum=0.9)
        table = dst_params[1]
        table.data[[0, 11]] = 123.0  # untouched rows that differ stay put
        dst._velocity[1][[0, 11]] = 5.0
        for params in (src_params, dst_params):
            self.load_grads(params, 0)
        src.step()
        dst.replicate_from(src)
        np.testing.assert_array_equal(table.data[[2, 7]], src_params[1].data[[2, 7]])
        np.testing.assert_array_equal(table.data[[0, 11]], 123.0)
        np.testing.assert_array_equal(dst._velocity[1][[0, 11]], 5.0)
        np.testing.assert_array_equal(
            dst._velocity[1][[2, 7]], src._velocity[1][[2, 7]]
        )

    def test_mostly_touched_table_is_copied_whole(self):
        (src_params, src), (dst_params, dst) = self.pair()
        rows = np.arange(0, self.ROWS, 2)  # half the rows: past the crossover
        for params in (src_params, dst_params):
            params[1].sparse_grads = [sparse(rows, np.ones((rows.size, 2)))]
        src.step()
        dst.replicate_from(src)
        np.testing.assert_array_equal(dst_params[1].data, src_params[1].data)

    def test_parameter_without_grad_is_untouched(self):
        (src_params, src), (dst_params, dst) = self.pair()
        idle = dst_params[3]
        idle.data[:] = -7.0  # differs from the source on purpose
        kept = idle.data
        for params in (src_params, dst_params):
            self.load_grads(params, 0)
        src.step()
        dst.replicate_from(src)
        assert idle.data is kept
        np.testing.assert_array_equal(idle.data, -7.0)

    def test_reads_rows_before_clearing_and_keeps_array_identity(self):
        (src_params, src), (dst_params, dst) = self.pair()
        arrays = [p.data for p in dst_params]
        for params in (src_params, dst_params):
            self.load_grads(params, 0)
        src.lr = 0.05
        src.step()
        dst.replicate_from(src)
        assert dst.lr == 0.05
        assert all(p.data is a for p, a in zip(dst_params, arrays))
        assert all(p.grad is None and not p.sparse_grads for p in dst_params)

    def test_mismatched_optimizers_rejected(self):
        (_, src), (dst_params, _) = self.pair()
        with pytest.raises(ValueError, match="parameter counts"):
            SGD(dst_params[:2], lr=0.1).replicate_from(src)
        with pytest.raises(ValueError, match="mismatched shape"):
            SGD(dst_params[::-1], lr=0.1).replicate_from(src)


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
