"""Tests for the data-axis gradient sync on a hybrid mesh: shard layout
and the synchronizer's per-parameter exchange over ``S > 1`` shards."""

import numpy as np
import pytest

from repro.cluster import Communicator, DeviceMesh, hybrid_mesh
from repro.core import GradientSynchronizer, UniqueExchange
from repro.core.mesh_exchange import (
    shard_dense,
    shard_sparse,
    unshard_dense,
    unshard_sparse,
)
from repro.nn.parameter import Parameter, SparseGrad


def mesh_comm(spec, world):
    return Communicator(
        world, track_memory=False, mesh=hybrid_mesh(spec, world)
    )


def sparse_grads(n, vocab, tokens, dim, seed=0):
    rng = np.random.default_rng(seed)
    return [
        SparseGrad(
            indices=rng.integers(0, vocab, tokens),
            values=rng.standard_normal((tokens, dim)),
        )
        for _ in range(n)
    ]


def sync_dense(comm, grads, tag="w"):
    """One dense parameter's replicas through the synchronizer."""
    params = [Parameter(np.zeros_like(g)) for g in grads]
    for p, g in zip(params, grads):
        p.grad = g.copy()
    GradientSynchronizer(comm, UniqueExchange()).sync_dense(params, tag=tag)
    return [p.grad for p in params]


def sync_sparse(comm, grads, vocab, tag="emb"):
    """One embedding parameter's replicas through the synchronizer."""
    params = [Parameter(np.zeros((vocab, g.dim))) for g in grads]
    for p, g in zip(params, grads):
        p.sparse_grads = [g]
    GradientSynchronizer(comm, UniqueExchange()).sync_sparse(params, tag=tag)
    return [p.sparse_grads[0] for p in params]


class TestLayout:
    def test_shard_and_data_coordinates(self):
        groups = mesh_comm("pipe=2,tensor=2,data=2", 8).axis("data").groups
        assert len(groups) == 4 and all(len(g) == 2 for g in groups)
        rng = np.random.default_rng(0)
        grads = [rng.standard_normal((3, 5)) for _ in range(2)]
        pieces = shard_dense(grads, groups)
        assert len(pieces) == 8
        # Rank groups[s][k] carries shard s of replica k; reassembling a
        # replica's own pieces gives its gradient back exactly.
        for k, grad in enumerate(grads):
            own = [None] * 8
            for ranks in groups:
                own[ranks[0]] = pieces[ranks[k]]
            np.testing.assert_array_equal(
                unshard_dense(own, groups, grad.shape), grad
            )

    def test_sparse_shards_are_coalesced_row_ranges(self):
        groups = mesh_comm("pipe=2,tensor=2,data=2", 8).axis("data").groups
        grads = sparse_grads(2, 21, 30, 3, seed=1)
        pieces = shard_sparse(grads, groups, 21)
        for k, grad in enumerate(grads):
            own = [None] * 8
            for ranks in groups:
                own[ranks[0]] = pieces[ranks[k]]
                piece = pieces[ranks[k]]
                assert piece.coalesce().indices is piece.indices
            whole = unshard_sparse(own, groups)
            np.testing.assert_array_equal(
                whole.indices, grad.coalesce().indices
            )
            np.testing.assert_array_equal(
                whole.values, grad.coalesce().values
            )

    def test_one_shard_is_the_identity(self):
        groups = Communicator(4).axis("data").groups
        grads = sparse_grads(4, 10, 5, 2)
        assert shard_sparse(grads, groups, 10) is grads
        assert unshard_sparse(grads, groups) is grads[0]

    def test_requires_hybrid_axes(self):
        # The sync rides the mesh's ``data`` axis; a mesh without one
        # (here the hierarchical node/local layout) cannot be synced.
        comm = Communicator(4, mesh=DeviceMesh(("node", "local"), (2, 2)))
        with pytest.raises(ValueError, match="unknown mesh axis 'data'"):
            sync_dense(comm, [np.ones(4)] * 4)


class TestDenseExchange:
    def test_hybrid_mesh_sums_per_data_subgroup(self):
        mc = mesh_comm("pipe=2,tensor=2,data=2", 8)
        rng = np.random.default_rng(1)
        grads = [rng.standard_normal((4, 3)) for _ in range(2)]
        out = sync_dense(mc, grads)
        for o in out:
            np.testing.assert_array_equal(o, (grads[0] + grads[1]) / 2)

    def test_average_divides_by_data_size(self):
        mc = mesh_comm("pipe=2,tensor=1,data=2", 4)
        out = sync_dense(mc, [np.full(6, 1.0) for _ in range(2)])
        np.testing.assert_array_equal(out[0], np.ones(6))

    def test_replica_count_checked(self):
        mc = mesh_comm("pipe=2,tensor=1,data=2", 4)
        with pytest.raises(ValueError, match="replica"):
            sync_dense(mc, [np.ones(4)] * 4)

    def test_shape_preserved(self):
        mc = mesh_comm("pipe=2,tensor=1,data=2", 4)
        out = sync_dense(mc, [np.ones((3, 2, 5)) for _ in range(2)])
        assert out[0].shape == (3, 2, 5)

    def test_replicas_get_one_result_object(self):
        # Equal by construction, so there is one array: whoever scales
        # it in place (accumulation, loss scaling) does so once.
        mc = mesh_comm("pipe=2,tensor=1,data=2", 4)
        out = sync_dense(mc, [np.full(8, 3.0) for _ in range(2)])
        assert out[1] is out[0]
        np.testing.assert_array_equal(out[0], np.full(8, 3.0))

    def test_charges_data_axis_collective(self):
        mc = mesh_comm("pipe=2,tensor=1,data=2", 4)
        sync_dense(mc, [np.ones(8)] * 2, tag="w")
        ev = mc.ledger.events[-1]
        assert ev.op == "allreduce"
        assert ev.tag == "data:w"
        # One event for both shard groups, costed on one 4-element shard.
        assert len(mc.ledger.events) == 1
        assert ev.wire_bytes_per_rank == 4 * 8


class TestSparseExchange:
    def test_indices_globally_sorted_and_unique(self):
        mc = mesh_comm("pipe=2,tensor=2,data=2", 8)
        out = sync_sparse(mc, sparse_grads(2, 40, 20, 3, seed=2), 40)
        for o in out:
            assert np.all(np.diff(o.indices) > 0)

    def test_hybrid_mesh_sums_per_data_subgroup(self):
        vocab = 25
        mc = mesh_comm("pipe=2,tensor=1,data=2", 4)
        grads = sparse_grads(2, vocab, 10, 3, seed=3)
        out = sync_sparse(mc, grads, vocab)
        expected = (grads[0].to_dense(vocab) + grads[1].to_dense(vocab)) / 2
        for o in out:
            np.testing.assert_allclose(
                o.to_dense(vocab), expected, rtol=1e-12
            )

    def test_matches_flat_exchange_over_the_data_replicas(self):
        # The sharded exchange is bit-equal to the flat one over the d
        # replicas: row-range cuts commute with coalescing and ranges
        # ascend, so the reassembled rows are the flat result's rows.
        vocab = 31
        grads = sparse_grads(3, vocab, 24, 4, seed=5)
        flat = sync_sparse(Communicator(3, track_memory=False), grads, vocab)
        mesh = sync_sparse(mesh_comm("pipe=2,tensor=2,data=3", 12), grads, vocab)
        for f, m in zip(flat, mesh):
            np.testing.assert_array_equal(m.indices, f.indices)
            np.testing.assert_array_equal(m.values, f.values)

    def test_average_divides_by_data_size(self):
        mc = mesh_comm("tensor=2,data=2", 4)
        grads = [
            SparseGrad(indices=np.array([1]), values=np.ones((1, 2)))
            for _ in range(2)
        ]
        out = sync_sparse(mc, grads, 10)
        np.testing.assert_array_equal(out[0].values, np.ones((1, 2)))

    def test_replica_count_checked(self):
        mc = mesh_comm("pipe=2,tensor=1,data=2", 4)
        with pytest.raises(ValueError, match="replica"):
            sync_sparse(mc, sparse_grads(4, 10, 5, 2), 10)

    def test_empty_contributions_are_fine(self):
        mc = mesh_comm("pipe=2,tensor=2,data=2", 8)
        grads = [
            SparseGrad(
                indices=np.empty(0, dtype=np.int64),
                values=np.empty((0, 3)),
            )
            for _ in range(2)
        ]
        for o in sync_sparse(mc, grads, 20):
            assert o.indices.size == 0

    def test_uses_allgather_then_allreduce_on_data_axis(self):
        mc = mesh_comm("pipe=1,tensor=2,data=2", 4)
        sync_sparse(mc, sparse_grads(2, 12, 6, 2), 12, tag="emb")
        ops = [(e.op, e.tag) for e in mc.ledger.events]
        assert ops == [
            ("allgather", "data:emb:indices"),
            ("allreduce", "data:emb:values"),
        ]
