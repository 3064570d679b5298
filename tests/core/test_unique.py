"""Tests for the uniqueness technique (Section III-A)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Communicator, collectives, hybrid_mesh
from repro.core.wire.policy import WirePolicy
from repro.core.unique import (
    global_unique,
    igather_indices,
    iunique_exchange,
    local_unique_reduce,
    unique_exchange,
)
from repro.nn.parameter import SparseGrad


def comm(world=4, **kw):
    return Communicator(world, track_memory=False, **kw)


def random_grads(world, vocab, tokens, dim, seed=0):
    rng = np.random.default_rng(seed)
    return [
        SparseGrad(
            indices=rng.integers(0, vocab, tokens),
            values=rng.standard_normal((tokens, dim)),
        )
        for _ in range(world)
    ]


class TestLocalUniqueReduce:
    def test_figure4_example(self):
        """GPU1 of Figure 4: indices [5, 3, 9] with 3 repeated."""
        g = SparseGrad(
            indices=np.array([5, 3, 9, 3], np.int64),
            values=np.array([[1.0], [2.0], [3.0], [4.0]]),
        )
        reduced = local_unique_reduce(g)
        np.testing.assert_array_equal(reduced.indices, [3, 5, 9])
        np.testing.assert_allclose(reduced.values, [[6.0], [1.0], [3.0]])


class TestExchangeCorrectness:
    def test_matches_dense_sum(self):
        world, vocab, dim = 4, 30, 3
        grads = random_grads(world, vocab, tokens=12, dim=dim)
        result = unique_exchange(comm(world), grads)
        expected = sum(g.to_dense(vocab) for g in grads)
        np.testing.assert_allclose(
            result.as_sparse_grad().to_dense(vocab), expected, rtol=1e-12
        )

    def test_global_indices_sorted_unique(self):
        grads = random_grads(3, 20, 15, 2, seed=1)
        result = unique_exchange(comm(3), grads)
        gi = result.global_indices
        assert (np.diff(gi) > 0).all()
        union = np.unique(np.concatenate([g.indices for g in grads]))
        np.testing.assert_array_equal(gi, union)

    def test_ug_bounds(self):
        """Ui <= Ug <= min(G*K, |V|) — the Section III-A inequality."""
        world, vocab, tokens = 4, 25, 10
        grads = random_grads(world, vocab, tokens, 2, seed=2)
        result = unique_exchange(comm(world), grads)
        ug = result.num_global_unique
        assert max(result.local_unique_counts) <= ug
        assert ug <= min(world * tokens, vocab)

    def test_disjoint_ranks(self):
        """No overlap across GPUs: Ug = sum of Ui."""
        grads = [
            SparseGrad(
                indices=np.arange(r * 5, r * 5 + 5),
                values=np.full((5, 2), float(r + 1)),
            )
            for r in range(3)
        ]
        result = unique_exchange(comm(3), grads)
        assert result.num_global_unique == 15

    def test_fully_overlapping_ranks(self):
        """All GPUs hold the same word: Ug = 1, values sum across ranks."""
        grads = [
            SparseGrad(indices=np.array([7] * 4), values=np.ones((4, 2)))
            for _ in range(3)
        ]
        result = unique_exchange(comm(3), grads)
        assert result.num_global_unique == 1
        np.testing.assert_allclose(result.reduced_values, [[12.0, 12.0]])

    def test_variable_token_counts_across_ranks(self):
        grads = [
            SparseGrad(indices=np.array([1, 2]), values=np.ones((2, 2))),
            SparseGrad(indices=np.array([2, 3, 4, 2]), values=np.ones((4, 2))),
        ]
        result = unique_exchange(comm(2), grads)
        dense = result.as_sparse_grad().to_dense(5)
        np.testing.assert_allclose(dense[2], [3.0, 3.0])

    def test_world_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            unique_exchange(comm(3), random_grads(2, 10, 5, 2))

    def test_dim_mismatch_rejected(self):
        grads = [
            SparseGrad(indices=np.array([0]), values=np.ones((1, 2))),
            SparseGrad(indices=np.array([0]), values=np.ones((1, 3))),
        ]
        with pytest.raises(ValueError):
            unique_exchange(comm(2), grads)

    @given(
        world=st.integers(1, 5),
        vocab=st.integers(2, 40),
        tokens=st.integers(1, 25),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40)
    def test_property_equivalence_with_dense(self, world, vocab, tokens, seed):
        grads = random_grads(world, vocab, tokens, 2, seed=seed)
        result = unique_exchange(comm(world), grads)
        expected = sum(g.to_dense(vocab) for g in grads)
        np.testing.assert_allclose(
            result.as_sparse_grad().to_dense(vocab), expected, rtol=1e-9, atol=1e-12
        )


class TestAsyncExchange:
    def test_matches_blocking_result(self):
        grads = random_grads(3, 20, 12, 4, seed=7)
        blocking = unique_exchange(comm(3), grads)
        pending = iunique_exchange(comm(3), grads)
        overlapped = pending.wait()[0]
        np.testing.assert_array_equal(
            overlapped.global_indices, blocking.global_indices
        )
        np.testing.assert_allclose(
            overlapped.reduced_values, blocking.reduced_values, rtol=1e-12
        )

    def test_index_allgather_issued_eagerly(self):
        c = comm(3)
        pending = iunique_exchange(c, random_grads(3, 20, 8, 2, seed=8))
        # Only the index allgather is in flight; the value allreduce is
        # deferred to wait() so one scratch buffer is live at a time.
        assert len(c.pending_work) == 1
        assert c.pending_work[0].op == "allgather"
        pending.wait()
        assert c.pending_work == ()

    def test_wait_is_idempotent(self):
        pending = iunique_exchange(comm(2), random_grads(2, 10, 6, 2, seed=9))
        assert pending.wait() is pending.wait()

    def test_blocking_is_issue_plus_wait(self):
        """unique_exchange and iunique_exchange().wait() move identical
        bytes under identical op tags."""
        grads = random_grads(4, 30, 10, 3, seed=10)
        c_block, c_async = comm(4), comm(4)
        unique_exchange(c_block, grads)
        iunique_exchange(c_async, grads).wait()
        assert c_block.ledger.bytes_by_op() == c_async.ledger.bytes_by_op()

    def test_validation_fires_at_issue(self):
        with pytest.raises(ValueError):
            iunique_exchange(comm(3), random_grads(2, 10, 5, 2))

    @given(
        rows=st.lists(st.integers(1, 30), min_size=1, max_size=4),
        tokens=st.integers(0, 12),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40)
    def test_packed_gather_cuts_each_members_lone_type_set(
        self, rows, tokens, seed
    ):
        """A pack's one unique, cut at the row-count offsets, is each
        member's lone step 4 bit for bit — per ring on a mesh, with
        ragged and empty rank vectors — and its one record costs one
        ring over each rank's members together."""
        rng = np.random.default_rng(seed)
        c = Communicator(8, mesh=hybrid_mesh("pipe=2,tensor=1,data=4", 8))
        data = c.axis("data")
        grads = [
            [
                SparseGrad(
                    rng.integers(0, n, k := int(rng.integers(0, tokens + 1))),
                    np.zeros((k, 1)),
                )
                for _ in range(8)
            ]
            for n in rows
        ]
        pending = [
            iunique_exchange(data, g, tag=f"m{i}", num_rows=n)
            for i, (g, n) in enumerate(zip(grads, rows))
        ]
        assert c.pending_work == ()  # the caller owns every gather
        igather_indices(data, [p.gather for p in pending])
        (event,) = c.ledger.events
        assert event.tag == "data:" + "+".join(
            f"m{i}:indices" for i in range(len(rows))
        )
        biggest = max(
            sum(g[r].indices.nbytes for g in grads) for r in range(8)
        )
        assert event.time_s == collectives.ring_allgather_time(
            4, biggest, data.link
        )
        for p, g in zip(pending, grads):
            lone = [
                global_unique(np.concatenate([g[r].indices for r in ranks]))
                for ranks in data.groups
            ]
            got = p.gather.uniques()
            assert [(a.dtype, a.tobytes()) for a in got] == [
                (b.dtype, b.tobytes()) for b in lone
            ]


class TestExchangeCost:
    def test_wire_bytes_formula(self):
        """Index allgather Θ(G·K) + value ring-allreduce Θ(Ug·D)."""
        world, tokens, dim = 4, 10, 3
        grads = random_grads(world, 50, tokens, dim, seed=3)
        c = comm(world)
        result = unique_exchange(c, grads)
        ug = result.num_global_unique
        by_op = c.ledger.bytes_by_op()
        assert by_op["allgather"] == (world - 1) * tokens * 8  # int64 indices
        expected_ar = int(np.ceil(2 * (world - 1) / world * ug * dim * 8))
        assert by_op["allreduce"] == expected_ar

    def test_scratch_memory_is_sub_dense(self):
        """Unique exchange must spike memory far less than the dense path."""
        world, tokens, dim, vocab = 4, 64, 32, 10_000
        grads = random_grads(world, vocab, tokens, dim, seed=4)
        c = Communicator(world)  # memory tracking on
        unique_exchange(c, grads)
        dense_scratch = world * tokens * dim * 8
        assert c.peak_bytes_per_rank < dense_scratch

    def test_compression_halves_value_bytes(self):
        world = 4
        grads = random_grads(world, 40, 16, 8, seed=5)
        c_plain, c_fp16 = comm(world), comm(world)
        unique_exchange(c_plain, [SparseGrad(g.indices, g.values.astype(np.float32)) for g in grads])
        unique_exchange(
            c_fp16,
            [SparseGrad(g.indices, g.values.astype(np.float32)) for g in grads],
            wire=WirePolicy.from_spec("fp16:1024"),
        )
        plain_val = c_plain.ledger.bytes_by_op()["allreduce"]
        fp16_val = c_fp16.ledger.bytes_by_op()["allreduce"]
        assert fp16_val * 2 == plain_val

    def test_compressed_values_close_to_exact(self):
        grads = random_grads(3, 30, 20, 4, seed=6)
        grads32 = [SparseGrad(g.indices, g.values.astype(np.float32)) for g in grads]
        exact = unique_exchange(comm(3), grads32)
        compressed = unique_exchange(
            comm(3), grads32, wire=WirePolicy.from_spec("fp16")
        )
        np.testing.assert_allclose(
            compressed.reduced_values, exact.reduced_values, rtol=0, atol=5e-3
        )


class TestFp16ExchangeEqualsPerRankForm:
    """The K-row encode + populated-row fold is the per-rank form, bit
    for bit: every rank's zero-padded Ug x D matrix encoded on its own,
    the encoded stack summed by ``np.add.reduce``."""

    @staticmethod
    def per_rank_form(data, grads, codec, tag="embedding"):
        """Reference exchange on ``data``; one (Î, M̂) pair per ring."""
        local = [local_unique_reduce(g) for g in grads]
        gathered = data.iallgather(
            [g.indices for g in grads], tag=f"{tag}:indices"
        ).wait()
        uniques = [np.unique(gathered[ranks[0]]) for ranks in data.groups]
        encoded = [None] * len(grads)
        for uniq, ranks in zip(uniques, data.groups):
            for r in ranks:
                padded = np.zeros((uniq.size, local[r].dim), dtype=np.float32)
                padded[np.searchsorted(uniq, local[r].indices)] = local[r].values
                encoded[r] = codec.encode(padded)
        data.iallreduce(
            encoded,
            tag=f"{tag}:values",
            payload_bytes=max(u.size for u in uniques) * local[0].dim * 4,
        ).wait()
        return [
            (uniq, codec.decode(
                np.add.reduce(np.stack([encoded[r] for r in ranks]), axis=0),
                np.float32,
            ))
            for uniq, ranks in zip(uniques, data.groups)
        ]

    @pytest.mark.parametrize(
        "world, mesh", [(4, None), (16, "pipe=2,tensor=2,data=4")],
        ids=["flat", "mesh-2x2x4"],
    )
    def test_values_ledger_and_peak(self, world, mesh, monkeypatch):
        rng = np.random.default_rng(8)
        grads = [
            SparseGrad(
                indices=rng.zipf(1.1, 300) % 20_000,
                values=rng.standard_normal((300, 64)).astype(np.float32),
            )
            for _ in range(world)
        ]
        # A -0.0 row on every rank, and values that saturate the wire.
        for g in grads:
            g.values[g.indices == g.indices[0]] = -0.0
            g.values[0, :4] = 1e6
        wire = WirePolicy.from_spec("fp16")
        restricted = []
        fold = collectives._restricted_fold
        monkeypatch.setattr(
            collectives, "_restricted_fold",
            lambda *a: restricted.append(1) or fold(*a),
        )
        comms = []
        for _ in range(2):
            c = Communicator(world)
            if mesh is not None:
                c.mesh = hybrid_mesh(mesh, world)
            comms.append(c)
        with np.errstate(over="ignore"):  # saturated cells sum to inf
            got = iunique_exchange(
                comms[0].axis("data"), grads, wire=wire
            ).wait()
            want = self.per_rank_form(
                comms[1].axis("data"), grads, wire.value_codec
            )
        assert len(restricted) == len(comms[0].axis("data").groups)
        assert np.isinf(got[0].reduced_values).any()
        for (uniq, values), ranks in zip(want, comms[1].axis("data").groups):
            for r in ranks:
                assert np.array_equal(got[r].global_indices, uniq)
                assert got[r].reduced_values.dtype == np.float32
                assert got[r].reduced_values.tobytes() == values.tobytes()
        assert comms[0].ledger.events == comms[1].ledger.events
        assert comms[0].peak_bytes_per_rank == comms[1].peak_bytes_per_rank > 0
