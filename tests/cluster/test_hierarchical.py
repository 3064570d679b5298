"""Tests for the hierarchical two-level allreduce."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import Sanitizer
from repro.cluster import Communicator
from repro.cluster.hierarchical import (
    hierarchical_allreduce,
    hierarchical_allreduce_time,
)
from repro.cluster.interconnect import Interconnect, PAPER_CLUSTER_FABRIC
from repro.cluster.collectives import (
    ring_allgather_time,
    ring_allreduce_time,
    ring_reduce_scatter_time,
)

FABRIC4 = Interconnect(gpus_per_node=4)


def comm(world, fabric=FABRIC4):
    return Communicator(world, fabric=fabric, track_memory=False)


class TestSemantics:
    def test_matches_flat_allreduce(self):
        world = 8  # 2 nodes of 4
        rng = np.random.default_rng(0)
        arrays = [rng.standard_normal((8, 3)) for _ in range(world)]
        out = hierarchical_allreduce(comm(world), arrays)
        expected = sum(arrays)
        for o in out:
            np.testing.assert_allclose(o, expected, rtol=1e-12)

    def test_single_node_falls_back_to_flat(self):
        world = 4
        c = comm(world)
        arrays = [np.ones(4) for _ in range(world)]
        out = hierarchical_allreduce(c, arrays)
        np.testing.assert_allclose(out[0], 4.0)
        assert c.ledger.events[-1].op == "allreduce"

    def test_multi_node_records_hierarchical_op(self):
        """Three plain per-axis events, tagged by the axis they ran on."""
        world = 8
        c = comm(world)
        hierarchical_allreduce(c, [np.ones(8) for _ in range(world)], tag="g")
        assert [(e.op, e.tag) for e in c.ledger.events] == [
            ("reduce_scatter", "local:g"),
            ("allreduce", "node:g"),
            ("allgather", "local:g"),
        ]
        assert c.mesh.axis_names == ("data",)  # caller's mesh untouched

    def test_shape_preserved(self):
        world = 8
        arrays = [np.ones((4, 2, 3)) for _ in range(world)]
        out = hierarchical_allreduce(comm(world), arrays)
        assert out[0].shape == (4, 2, 3)

    @given(
        nodes=st.integers(2, 4),
        rows_per_gpu=st.integers(1, 4),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=25)
    def test_property_equals_sum(self, nodes, rows_per_gpu, seed):
        local = 4
        world = nodes * local
        rng = np.random.default_rng(seed)
        arrays = [
            rng.standard_normal((rows_per_gpu * local, 2)) for _ in range(world)
        ]
        out = hierarchical_allreduce(comm(world), arrays)
        np.testing.assert_allclose(out[0], sum(arrays), rtol=1e-9)

    def test_indivisible_leading_dim_rejected(self):
        world = 8
        with pytest.raises(ValueError):
            hierarchical_allreduce(comm(world), [np.ones(6)] * world)

    def test_partial_node_rejected(self):
        with pytest.raises(ValueError):
            hierarchical_allreduce(comm(6), [np.ones(4)] * 6)

    def test_rank_count_checked(self):
        with pytest.raises(ValueError):
            hierarchical_allreduce(comm(8), [np.ones(4)] * 7)


class TestCostModel:
    def test_beats_flat_ring_across_nodes(self):
        """The whole point: the slow tier only carries 1/L of the bytes."""
        nbytes = 100 * 1024 * 1024
        fabric = PAPER_CLUSTER_FABRIC
        for world in (16, 32, 64):
            flat = ring_allreduce_time(world, nbytes, fabric.ring_link(world))
            hier = hierarchical_allreduce_time(world, nbytes, fabric)
            assert hier < flat

    def test_single_node_identical_to_flat(self):
        nbytes = 10**6
        fabric = PAPER_CLUSTER_FABRIC
        assert hierarchical_allreduce_time(
            8, nbytes, fabric
        ) == ring_allreduce_time(8, nbytes, fabric.intra_node)

    def test_same_volume_better_placement(self):
        """Hierarchy moves the *same* total bytes per rank as a flat ring
        — the win is that only 1/L of them cross the slow tier, which
        shows up as time, not volume."""
        world = 16
        c_flat = Communicator(world, track_memory=False)
        c_hier = Communicator(world, track_memory=False)
        # Bandwidth-bound message: for tiny (latency-bound) messages the
        # extra phases make hierarchy *slower*, which is expected.
        arrays = [np.ones(1 << 20, np.float32) for _ in range(world)]
        c_flat.allreduce([a.copy() for a in arrays])
        hierarchical_allreduce(c_hier, [a.copy() for a in arrays])
        assert (
            c_hier.ledger.total_wire_bytes_per_rank
            == c_flat.ledger.total_wire_bytes_per_rank
        )
        assert c_hier.ledger.total_time_s < c_flat.ledger.total_time_s

    @pytest.mark.parametrize("world", [16, 64])
    def test_phase_events_sum_to_the_model_exactly(self, world):
        """The funnel's three events *are* the analytic model: same
        terms, same order, on the same links — and every observer on
        the communicator sees each phase."""
        fabric = PAPER_CLUSTER_FABRIC
        c = Communicator(world, track_memory=False)
        san = Sanitizer(c)
        arrays = [np.ones((1 << 10, 3), np.float32) for _ in range(world)]
        with c.timeline.scope("sync"):
            out = hierarchical_allreduce(c, arrays)
        np.testing.assert_array_equal(out[world - 1], world * arrays[0])

        scatter, reduce, gather = c.ledger.events
        nbytes = arrays[0].nbytes
        local, nodes = fabric.gpus_per_node, world // fabric.gpus_per_node
        assert scatter.time_s + reduce.time_s + gather.time_s == (
            hierarchical_allreduce_time(world, nbytes, fabric)
        )
        assert scatter.time_s == ring_reduce_scatter_time(
            local, nbytes, fabric.intra_node
        )
        assert reduce.time_s == ring_allreduce_time(
            nodes, nbytes // local, fabric.inter_node
        )
        assert gather.time_s == ring_allgather_time(
            local, nbytes // local, fabric.intra_node
        )
        assert c.timeline.makespan == c.ledger.total_time_s

        assert san.collectives_checked == 3
        san.finish()

    def test_invalid_world(self):
        with pytest.raises(ValueError):
            hierarchical_allreduce_time(0, 100, PAPER_CLUSTER_FABRIC)
