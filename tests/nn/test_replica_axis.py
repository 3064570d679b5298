"""The layers' leading replica axis: one stacked call == R separate calls.

Every layer the LMs are built from accepts ``(R, ...)`` activations over
its one set of weights and leaves ``(R, *param.shape)`` gradient blocks
(``(R, N)``-indexed sparse gradients) in ``Parameter.stacked_grads``.
Slice ``r`` of everything it returns or emits must be **bit-identical**
to calling the same layer on replica ``r``'s arrays alone — down to
degenerate shapes, where a flattened gemm would pick another kernel.
"""

import numpy as np
import pytest

from repro.nn import (
    LSTM,
    RHN,
    Dropout,
    Embedding,
    FullSoftmaxLoss,
    Linear,
    SampledSoftmaxLoss,
    functional,
)
from repro.nn.parameter import Parameter, SparseGrad

F64 = np.float64


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def per_replica_grads(layer, run_one, replicas):
    """Each parameter's ordinary gradients from ``R`` separate calls."""
    dense, sparse = [], []
    for r in range(replicas):
        layer.zero_grad()
        run_one(r)
        dense.append([None if p.grad is None else p.grad for p in layer.parameters()])
        sparse.append([list(p.sparse_grads) for p in layer.parameters()])
        assert not any(p.stacked_grads for p in layer.parameters())
    layer.zero_grad()
    return dense, sparse


def assert_stacked_grads_match(layer, dense, sparse):
    """``stacked_grads`` of one stacked call against the per-replica lists."""
    for k, p in enumerate(layer.parameters()):
        assert p.grad is None and not p.sparse_grads  # blocks never land here
        blocks = [g for g in p.stacked_grads if not isinstance(g, SparseGrad)]
        stacks = [g for g in p.stacked_grads if isinstance(g, SparseGrad)]
        if dense[0][k] is None:
            assert not blocks
        else:
            (block,) = blocks
            for r, grads in enumerate(dense):
                same_bits(block[r], grads[k])
        assert len(stacks) == len(sparse[0][k])
        for j, stack in enumerate(stacks):
            for r, grads in enumerate(sparse):
                same_bits(stack.indices[r], grads[k][j].indices)
                same_bits(stack.values[r], grads[k][j].values)


SHAPES = [(3, 2, 4), (2, 1, 1), (5, 1, 3), (2, 3, 1), (4, 2, 2)]  # (R, B, T)


class TestParameterRouting:
    def test_block_and_stacked_sparse_wait_in_stacked_grads(self):
        p = Parameter(np.zeros((4, 2)))
        block = np.ones((3, 4, 2))
        p.accumulate_grad(block)
        stack = SparseGrad(np.zeros((3, 5), np.int64), np.ones((3, 5, 2)))
        p.accumulate_sparse_grad(stack)
        assert p.grad is None and p.sparse_grads == []
        assert p.stacked_grads[0] is block and p.stacked_grads[1] is stack
        p.zero_grad()
        assert p.stacked_grads == []

    def test_wrong_shapes_still_rejected(self):
        p = Parameter(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            p.accumulate_grad(np.ones((3, 4, 3)))
        with pytest.raises(ValueError):
            p.accumulate_grad(np.ones((2, 3, 4, 2)))
        with pytest.raises(ValueError):
            p.accumulate_sparse_grad(
                SparseGrad(np.full((3, 5), 4, np.int64), np.ones((3, 5, 2)))
            )
        with pytest.raises(ValueError):
            SparseGrad(np.zeros((3, 5), np.int64), np.ones((3, 4, 2)))


@pytest.mark.parametrize("R,B,T", SHAPES)
class TestRecurrentAndFeedForwardLayers:
    def test_embedding(self, R, B, T):
        rng = np.random.default_rng(R)
        layer = Embedding(9, 3, rng, F64)
        ids = rng.integers(0, 9, size=(R, B, T))
        grad = rng.standard_normal((R, B, T, 3))

        def one(r):
            out, cache = layer.forward(ids[r])
            layer.backward(grad[r], cache)
            return out

        outs = [one(r) for r in range(R)]
        dense, sparse = per_replica_grads(layer, one, R)
        out, cache = layer.forward(ids, stacked=True)
        layer.backward(grad, cache)
        for r in range(R):
            same_bits(out[r], outs[r])
        assert_stacked_grads_match(layer, dense, sparse)

    @pytest.mark.parametrize("bias", [True, False])
    def test_linear(self, R, B, T, bias):
        rng = np.random.default_rng(R + 10)
        layer = Linear(3, 2, rng, bias=bias, dtype=F64)
        x = rng.standard_normal((R, B, T, 3))
        grad = rng.standard_normal((R, B, T, 2))
        results = {}

        def one(r):
            out, cache = layer.forward(x[r])
            results[r] = (out, layer.backward(grad[r], cache))

        dense, sparse = per_replica_grads(layer, one, R)
        out, cache = layer.forward(x, stacked=True)
        dx = layer.backward(grad, cache)
        for r in range(R):
            same_bits(out[r], results[r][0])
            same_bits(dx[r], results[r][1])
        assert_stacked_grads_match(layer, dense, sparse)

    @pytest.mark.parametrize("carried", [False, True])
    @pytest.mark.parametrize("hidden", [1, 3])
    def test_lstm(self, R, B, T, hidden, carried):
        rng = np.random.default_rng(R + 20)
        layer = LSTM(2, hidden, rng, F64)
        x = rng.standard_normal((R, B, T, 2))
        grad = rng.standard_normal((R, B, T, hidden))
        state = None
        if carried:
            state = tuple(rng.standard_normal((R, B, hidden)) for _ in "hc")
        results = {}

        def one(r):
            own = None if state is None else (state[0][r], state[1][r])
            hs, cache = layer.forward(x[r], state=own)
            final = cache["final_state"]
            results[r] = (hs, final, layer.backward(grad[r], cache))

        dense, sparse = per_replica_grads(layer, one, R)
        hs, cache = layer.forward(x, state=state)
        final = cache["final_state"]
        dx = layer.backward(grad, cache)
        for r in range(R):
            same_bits(hs[r], results[r][0])
            same_bits(final[0][r], results[r][1][0])
            same_bits(final[1][r], results[r][1][1])
            same_bits(dx[r], results[r][2])
        assert_stacked_grads_match(layer, dense, sparse)

    @pytest.mark.parametrize("carried", [False, True])
    @pytest.mark.parametrize("hidden,depth", [(1, 1), (3, 2)])
    def test_rhn(self, R, B, T, hidden, depth, carried):
        rng = np.random.default_rng(R + 30)
        layer = RHN(2, hidden, depth, rng, F64)
        x = rng.standard_normal((R, B, T, 2))
        grad = rng.standard_normal((R, B, T, hidden))
        state = rng.standard_normal((R, B, hidden)) if carried else None
        results = {}

        def one(r):
            out, cache = layer.forward(x[r], state=None if state is None else state[r])
            final = cache["final_state"]
            results[r] = (out, final, layer.backward(grad[r], cache))

        dense, sparse = per_replica_grads(layer, one, R)
        out, cache = layer.forward(x, state=state)
        final = cache["final_state"]
        dx = layer.backward(grad, cache)
        for r in range(R):
            same_bits(out[r], results[r][0])
            same_bits(final[r], results[r][1])
            same_bits(dx[r], results[r][2])
        assert_stacked_grads_match(layer, dense, sparse)

    def test_dropout_draws_each_replicas_mask_from_its_own_stream(self, R, B, T):
        x = np.random.default_rng(R + 40).standard_normal((R, B, T, 3))
        layer = Dropout(0.4, np.random.default_rng(99))
        stacked_rngs = [np.random.default_rng((5, r)) for r in range(R)]
        out, cache = layer.forward(x, stacked_rngs)
        dx = layer.backward(x, cache)
        for r in range(R):
            own = np.random.default_rng((5, r))
            want, want_cache = Dropout(0.4, own).forward(x[r])
            same_bits(out[r], want)
            same_bits(dx[r], x[r] * want_cache["mask"])
            # consumed exactly the draws the separate call consumed
            assert (
                stacked_rngs[r].bit_generator.state == own.bit_generator.state
            )
        # the layer's own stream was not touched
        assert (
            layer._rng.bit_generator.state
            == np.random.default_rng(99).bit_generator.state
        )


def loss_case(rng, R, N, P, V, S):
    hidden = rng.standard_normal((R, N, P))
    targets = rng.integers(0, V, size=(R, N))
    return hidden, targets


@pytest.mark.parametrize("block_bytes", [1 << 20, 64, 1])
@pytest.mark.parametrize("loss_scale", [1.0, 128.0])
class TestLossLayers:
    """``block_bytes`` forces the walk over the replica axis into one
    block, a few uneven blocks, and one block per replica."""

    def test_full_softmax(self, block_bytes, loss_scale, monkeypatch):
        monkeypatch.setattr(functional, "_BLOCK_BYTES", block_bytes)
        for case in range(25):
            rng = np.random.default_rng((1, case))
            R, N, H, V = (int(rng.integers(lo, hi)) for lo, hi in ((2, 6), (1, 5), (1, 4), (2, 7)))
            layer = FullSoftmaxLoss(V, H, rng, F64)
            layer.bias.data[:] = rng.standard_normal(V)
            hidden, targets = loss_case(rng, R, N, H, V, 0)
            results = {}

            def one(r):
                loss, cache = layer.forward(hidden[r], targets[r])
                results[r] = (loss, layer.backward(cache, loss_scale))

            dense, sparse = per_replica_grads(layer, one, R)
            losses, cache = layer.forward(hidden, targets)
            dhidden = layer.backward(cache, loss_scale)
            assert losses.shape == (R,)
            for r in range(R):
                assert isinstance(results[r][0], float)
                assert float(losses[r]) == results[r][0]
                same_bits(dhidden[r], results[r][1])
            assert_stacked_grads_match(layer, dense, sparse)

    def test_sampled_softmax_on_degenerate_shapes(
        self, block_bytes, loss_scale, monkeypatch
    ):
        monkeypatch.setattr(functional, "_BLOCK_BYTES", block_bytes)
        for case in range(70):
            rng = np.random.default_rng((2, case))
            R, N, P = (int(rng.integers(lo, hi)) for lo, hi in ((2, 6), (1, 7), (1, 5)))
            V = int(rng.integers(3, 12))
            S = int(rng.integers(1, V))
            layer = SampledSoftmaxLoss(V, P, S, rng, F64)
            hidden, targets = loss_case(rng, R, N, P, V, S)
            # Equal-state generators for one seed group: equal candidates.
            seeds = [int(s) for s in rng.integers(0, 3, size=R)]
            results = {}

            def one(r):
                own = np.random.default_rng((case, seeds[r]))
                loss, cache = layer.forward(hidden[r], targets[r], own)
                results[r] = (
                    loss,
                    layer.backward(cache, loss_scale),
                    cache["sampled_ids"],
                    own.bit_generator.state,
                )

            dense, sparse = per_replica_grads(layer, one, R)
            rngs = [np.random.default_rng((case, s)) for s in seeds]
            losses, cache = layer.forward(hidden, targets, rngs)
            dhidden = layer.backward(cache, loss_scale)
            for r in range(R):
                assert float(losses[r]) == results[r][0]
                same_bits(dhidden[r], results[r][1])
                same_bits(cache["sampled_ids"][r], results[r][2])
                assert rngs[r].bit_generator.state == results[r][3]
            assert_stacked_grads_match(layer, dense, sparse)

    def test_sampled_ids_override_takes_a_row_per_replica(
        self, block_bytes, loss_scale, monkeypatch
    ):
        monkeypatch.setattr(functional, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(3)
        layer = SampledSoftmaxLoss(10, 3, 4, rng, F64)
        hidden, targets = loss_case(rng, 3, 5, 3, 10, 4)
        ids = np.stack([rng.permutation(10)[:4] for _ in range(3)])
        losses, _ = layer.forward(hidden, targets, None, sampled_ids=ids)
        for r in range(3):
            want, _ = layer.forward(hidden[r], targets[r], None, sampled_ids=ids[r])
            assert float(losses[r]) == want
        with pytest.raises(ValueError, match="sampled_ids"):
            layer.forward(hidden, targets, None, sampled_ids=ids[0])
        with pytest.raises(ValueError, match="sampled_ids"):
            layer.forward(hidden[0], targets[0], None, sampled_ids=ids)


def test_replica_blocks_cover_the_stack_in_order():
    assert functional.replica_blocks((), 10**9) == [...]
    blocks = functional.replica_blocks((7,), functional._BLOCK_BYTES // 3)
    assert [(b.start, b.stop) for b in blocks] == [(0, 3), (3, 6), (6, 9)]
    assert np.arange(7)[blocks[-1]].tolist() == [6]
    one_each = functional.replica_blocks((3,), functional._BLOCK_BYTES * 5)
    assert [(b.start, b.stop) for b in one_each] == [(0, 1), (1, 2), (2, 3)]
