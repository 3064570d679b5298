"""Tests for gradient bucketing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Communicator
from repro.core.bucketing import bucketed_allreduce, plan_buckets
from repro.core.compression import Fp16Codec


def comm(world=4):
    return Communicator(world, track_memory=False)


class TestPlanBuckets:
    def test_greedy_grouping(self):
        buckets = plan_buckets([100, 100, 100], bucket_bytes=250)
        assert [b.tensor_indices for b in buckets] == [(0, 1), (2,)]
        assert buckets[0].nbytes == 200

    def test_oversized_tensor_gets_own_bucket(self):
        buckets = plan_buckets([1000, 10], bucket_bytes=100)
        assert [b.tensor_indices for b in buckets] == [(0,), (1,)]

    def test_order_preserved(self):
        buckets = plan_buckets([10, 20, 30, 40], bucket_bytes=35)
        flat = [i for b in buckets for i in b.tensor_indices]
        assert flat == [0, 1, 2, 3]

    def test_empty_input(self):
        assert plan_buckets([], 100) == []

    def test_single_oversized_tensor_is_one_bucket(self):
        (bucket,) = plan_buckets([10_000], bucket_bytes=64)
        assert bucket.tensor_indices == (0,)
        assert bucket.nbytes == 10_000

    def test_tensor_exactly_bucket_bytes_fills_one_bucket(self):
        buckets = plan_buckets([100, 1], bucket_bytes=100)
        assert [b.tensor_indices for b in buckets] == [(0,), (1,)]

    def test_zero_byte_tensors_never_force_split(self):
        buckets = plan_buckets([50, 0, 0, 50, 0], bucket_bytes=100)
        assert [b.tensor_indices for b in buckets] == [(0, 1, 2, 3, 4)]
        assert buckets[0].nbytes == 100

    def test_all_zero_byte_tensors_fit_one_bucket(self):
        buckets = plan_buckets([0, 0, 0], bucket_bytes=1)
        assert [b.tensor_indices for b in buckets] == [(0, 1, 2)]
        assert buckets[0].nbytes == 0

    def test_zero_byte_tensor_after_full_bucket(self):
        """A zero-byte tensor lands in the already-full bucket (adding it
        cannot exceed the budget) rather than opening a new one."""
        buckets = plan_buckets([100, 0], bucket_bytes=100)
        assert [b.tensor_indices for b in buckets] == [(0, 1)]

    @given(
        sizes=st.lists(st.integers(0, 500), max_size=30),
        bucket=st.integers(1, 1000),
    )
    @settings(max_examples=60)
    def test_property_partition(self, sizes, bucket):
        buckets = plan_buckets(sizes, bucket)
        flat = [i for b in buckets for i in b.tensor_indices]
        assert flat == list(range(len(sizes)))
        for b in buckets:
            # Either within the budget, or a single oversized tensor.
            assert b.nbytes <= bucket or len(b.tensor_indices) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_buckets([10], 0)
        with pytest.raises(ValueError):
            plan_buckets([-1], 10)


class TestBucketedAllreduce:
    def make_tensors(self, world, shapes, seed=0):
        rng = np.random.default_rng(seed)
        return [
            [rng.standard_normal(s) for s in shapes] for _ in range(world)
        ]

    def test_matches_per_tensor_allreduce(self):
        world = 3
        shapes = [(4,), (2, 3), (5,), (1, 1)]
        tensors = self.make_tensors(world, shapes)
        out = bucketed_allreduce(comm(world), tensors, bucket_bytes=64)
        for i in range(len(shapes)):
            expected = sum(tensors[r][i] for r in range(world))
            for r in range(world):
                np.testing.assert_allclose(out[r][i], expected, rtol=1e-12)

    def test_fewer_collectives_than_tensors(self):
        world = 2
        shapes = [(8,)] * 10
        tensors = self.make_tensors(world, shapes)
        c = comm(world)
        bucketed_allreduce(c, tensors, bucket_bytes=8 * 8 * 4)
        assert len(c.ledger.events) < 10

    def test_latency_amortized(self):
        """Bucketing pays (G-1) latency hops per bucket, not per tensor."""
        world = 8
        shapes = [(16,)] * 20
        tensors = self.make_tensors(world, shapes)
        c_bucketed = comm(world)
        bucketed_allreduce(c_bucketed, tensors, bucket_bytes=10**6)
        c_per_tensor = comm(world)
        for i in range(20):
            c_per_tensor.allreduce([tensors[r][i] for r in range(world)])
        assert c_bucketed.ledger.total_time_s < c_per_tensor.ledger.total_time_s

    def test_codec_applied_per_bucket(self):
        world = 2
        shapes = [(64,), (64,)]
        tensors = [
            [t.astype(np.float32) for t in rank_tensors]
            for rank_tensors in self.make_tensors(world, shapes)
        ]
        c = comm(world)
        out = bucketed_allreduce(
            c, tensors, bucket_bytes=10**6, codec=Fp16Codec(512.0)
        )
        expected = tensors[0][0] + tensors[1][0]
        np.testing.assert_allclose(out[0][0], expected, atol=5e-3)
        # Wire bytes halved relative to fp32.
        fp32_bytes = 2 * 64 * 4  # message bytes of the fused fp32 bucket
        assert c.ledger.events[0].wire_bytes_per_rank < fp32_bytes

    def test_empty_tensor_list(self):
        out = bucketed_allreduce(comm(2), [[], []])
        assert out == [[], []]

    def test_structure_validation(self):
        world = 2
        with pytest.raises(ValueError):
            bucketed_allreduce(comm(world), [[np.ones(3)]])  # wrong rank count
        with pytest.raises(ValueError):
            bucketed_allreduce(
                comm(world), [[np.ones(3)], [np.ones(4)]]
            )  # shape mismatch
        with pytest.raises(ValueError):
            bucketed_allreduce(
                comm(world), [[np.ones(3)], [np.ones(3), np.ones(3)]]
            )  # count mismatch

