"""Tests for the exchange strategies: baseline vs unique."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Communicator, DeviceOOMError, DeviceSpec
from repro.core.wire.policy import WirePolicy
from repro.core.sparse_exchange import AllGatherExchange, UniqueExchange
from repro.nn.parameter import SparseGrad


def comm(world=4, **kw):
    kw.setdefault("track_memory", False)
    return Communicator(world, **kw)


def random_grads(world, vocab, tokens, dim, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return [
        SparseGrad(
            indices=rng.integers(0, vocab, tokens),
            values=rng.standard_normal((tokens, dim)).astype(dtype),
        )
        for _ in range(world)
    ]


class TestEquivalence:
    """The central invariant: strategies differ in cost, not semantics."""

    @given(
        world=st.integers(1, 5),
        vocab=st.integers(2, 30),
        tokens=st.integers(1, 20),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=40)
    def test_same_applied_update(self, world, vocab, tokens, seed):
        grads = random_grads(world, vocab, tokens, 3, seed=seed)
        base = AllGatherExchange().exchange(comm(world), grads)
        uniq = UniqueExchange().exchange(comm(world), grads)
        np.testing.assert_allclose(
            base[0].to_dense(vocab), uniq[0].to_dense(vocab), rtol=1e-9, atol=1e-12
        )

    def test_every_rank_gets_same_result(self):
        grads = random_grads(3, 20, 8, 2)
        for strategy in (AllGatherExchange(), UniqueExchange()):
            results = strategy.exchange(comm(3), grads)
            assert len(results) == 3
            for r in results[1:]:
                np.testing.assert_array_equal(r.indices, results[0].indices)
                np.testing.assert_allclose(r.values, results[0].values)


class TestCostSeparation:
    def test_unique_moves_fewer_bytes_with_duplicates(self):
        """With a Zipf-heavy batch, unique exchange must win on volume."""
        world, dim = 8, 64
        rng = np.random.default_rng(1)
        # Heavy duplication: 256 tokens drawn from only 20 types.
        grads = [
            SparseGrad(
                indices=rng.integers(0, 20, 256),
                values=rng.standard_normal((256, dim)),
            )
            for _ in range(world)
        ]
        c_base, c_uniq = comm(world), comm(world)
        AllGatherExchange().exchange(c_base, grads)
        UniqueExchange().exchange(c_uniq, grads)
        assert (
            c_uniq.ledger.total_wire_bytes_per_rank
            < c_base.ledger.total_wire_bytes_per_rank / 4
        )

    def test_baseline_can_oom_where_unique_fits(self):
        """Reproduces the Table III/IV '*' cells in miniature."""
        device = DeviceSpec(name="small", memory_bytes=300_000, peak_flops=1e12)
        world, tokens, dim = 8, 80, 64
        # Heavy duplication (50 types): Ug stays tiny while the baseline
        # must hold all 8 * 80 dense rows.
        grads = random_grads(world, 50, tokens, dim, seed=2)
        with pytest.raises(DeviceOOMError):
            AllGatherExchange().exchange(
                Communicator(world, device_spec=device), grads
            )
        UniqueExchange().exchange(
            Communicator(world, device_spec=device), grads
        )  # must not raise

    def test_unique_peak_memory_below_baseline(self):
        world, tokens, dim = 4, 100, 32
        grads = random_grads(world, 50, tokens, dim, seed=3)
        c_base = Communicator(world)
        c_uniq = Communicator(world)
        AllGatherExchange().exchange(c_base, grads)
        UniqueExchange().exchange(c_uniq, grads)
        assert c_uniq.peak_bytes_per_rank < c_base.peak_bytes_per_rank


class TestAsyncExchange:
    @pytest.mark.parametrize(
        "strategy_cls", [AllGatherExchange, UniqueExchange]
    )
    def test_iexchange_matches_blocking(self, strategy_cls):
        grads = random_grads(3, 20, 10, 3, seed=6)
        blocking = strategy_cls().exchange(comm(3), grads)
        pending = strategy_cls().iexchange(comm(3), grads)
        overlapped = pending.wait()
        assert pending.wait() is overlapped
        for b, o in zip(blocking, overlapped):
            np.testing.assert_array_equal(b.indices, o.indices)
            np.testing.assert_allclose(b.values, o.values, rtol=1e-12)

    @pytest.mark.parametrize(
        "strategy_cls", [AllGatherExchange, UniqueExchange]
    )
    def test_wait_is_idempotent(self, strategy_cls):
        grads = random_grads(2, 10, 6, 2, seed=7)
        pending = strategy_cls().iexchange(comm(2), grads)
        assert pending.wait() is pending.wait()

    def test_allgather_defers_value_stage_to_wait(self):
        """Only the index allgather is in flight after issue: the value
        allgather is deferred so the blocking peak-memory profile (one
        Θ(G·K·D) buffer at a time) is preserved byte-for-byte."""
        c = comm(3)
        pending = AllGatherExchange().iexchange(
            c, random_grads(3, 20, 8, 4, seed=8)
        )
        assert len(c.pending_work) == 1
        pending.wait()
        assert c.pending_work == ()

    def test_iexchange_peak_memory_matches_blocking(self):
        world, tokens, dim = 4, 100, 32
        grads = random_grads(world, 50, tokens, dim, seed=9)
        c_block = Communicator(world)
        c_async = Communicator(world)
        AllGatherExchange().exchange(c_block, grads)
        AllGatherExchange().iexchange(c_async, grads).wait()
        assert c_async.peak_bytes_per_rank == c_block.peak_bytes_per_rank

    def test_validation_fires_at_issue(self):
        with pytest.raises(ValueError):
            AllGatherExchange().iexchange(comm(3), random_grads(2, 10, 4, 2))


class TestCompression:
    def test_fp16_equivalence_within_tolerance(self):
        grads = random_grads(4, 25, 16, 4, seed=4, dtype=np.float32)
        exact = UniqueExchange().exchange(comm(4), grads)
        lossy = UniqueExchange(wire=WirePolicy.from_spec("fp16")).exchange(comm(4), grads)
        np.testing.assert_allclose(
            exact[0].to_dense(25), lossy[0].to_dense(25), atol=5e-3
        )

    def test_fp16_halves_baseline_value_traffic(self):
        grads = random_grads(4, 25, 16, 4, seed=5, dtype=np.float32)
        c_plain, c_fp16 = comm(4), comm(4)
        AllGatherExchange().exchange(c_plain, grads)
        AllGatherExchange(wire=WirePolicy.from_spec("fp16")).exchange(c_fp16, grads)
        # Index traffic unchanged; value traffic halved.
        plain = c_plain.ledger.bytes_by_op()["allgather"]
        fp16 = c_fp16.ledger.bytes_by_op()["allgather"]
        idx_bytes = 3 * 16 * 8  # (G-1) * tokens * int64
        assert (fp16 - idx_bytes) * 2 == plain - idx_bytes


class TestValidation:
    def test_rank_count_checked(self):
        with pytest.raises(ValueError):
            AllGatherExchange().exchange(comm(3), random_grads(2, 10, 4, 2))

    def test_dim_mismatch_checked(self):
        grads = [
            SparseGrad(np.array([0]), np.ones((1, 2))),
            SparseGrad(np.array([0]), np.ones((1, 3))),
        ]
        with pytest.raises(ValueError):
            AllGatherExchange().exchange(comm(2), grads)

    def test_strategy_names(self):
        assert AllGatherExchange().name == "allgather"
        assert UniqueExchange().name == "unique"
