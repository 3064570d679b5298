"""Tests for process groups and rank partitioning."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cluster import Communicator, DeviceMesh
from repro.cluster.process_group import ProcessGroup, partition_ranks


class TestProcessGroup:
    def test_basic_properties(self):
        g = ProcessGroup(parent_world=8, ranks=(2, 3, 5))
        assert g.size == 3
        assert g.ranks == (2, 3, 5)
        assert g.parent_world == 8

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(ValueError):
            ProcessGroup(parent_world=4, ranks=(1, 1))

    def test_out_of_range_rank_rejected(self):
        with pytest.raises(ValueError):
            ProcessGroup(parent_world=4, ranks=(4,))

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            ProcessGroup(parent_world=4, ranks=())


class TestPartition:
    def test_even_split(self):
        groups = partition_ranks(8, 4)
        assert [g.size for g in groups] == [2, 2, 2, 2]
        assert groups[0].ranks == (0, 1)
        assert groups[3].ranks == (6, 7)

    def test_uneven_split_front_loaded(self):
        groups = partition_ranks(10, 3)
        assert [g.size for g in groups] == [4, 3, 3]

    def test_single_group(self):
        (g,) = partition_ranks(5, 1)
        assert g.ranks == tuple(range(5))

    def test_too_many_groups_rejected(self):
        with pytest.raises(ValueError):
            partition_ranks(3, 4)

    @given(world=st.integers(1, 64), m=st.integers(1, 64))
    def test_partition_covers_all_ranks_once(self, world, m):
        if m > world:
            with pytest.raises(ValueError):
                partition_ranks(world, m)
            return
        groups = partition_ranks(world, m)
        all_ranks = [r for g in groups for r in g.ranks]
        assert sorted(all_ranks) == list(range(world))
        sizes = [g.size for g in groups]
        assert max(sizes) - min(sizes) <= 1


class TestSubCommunicator:
    """Subgroup collectives are axis views of the one communicator."""

    def test_shares_parent_ledger(self):
        parent = Communicator(
            8, track_memory=False, mesh=DeviceMesh(("node", "local"), (2, 4))
        )
        child = parent.axis("local")
        out = child.allreduce([np.full(10, float(r)) for r in range(8)])
        assert child.ledger is parent.ledger
        assert len(parent.ledger.events) == 1
        assert parent.ledger.events[0].tag == "local:"
        # Each node's four ranks reduced among themselves only.
        assert out[0][0] == 0 + 1 + 2 + 3 and out[7][0] == 4 + 5 + 6 + 7

    def test_world_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Communicator(8, mesh=DeviceMesh(("node", "local"), (2, 2)))
