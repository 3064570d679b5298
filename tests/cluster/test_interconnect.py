"""Tests for the two-tier interconnect model."""

import pytest

from repro.cluster.interconnect import (
    INFINIBAND_FDR,
    PAPER_CLUSTER_FABRIC,
    PCIE_GEN3,
    Interconnect,
    LinkSpec,
)


class TestLinkSpec:
    def test_table_ii_bandwidths_are_half_duplex(self):
        # Table II quotes bidirectional; the model stores unidirectional.
        assert PCIE_GEN3.bandwidth == pytest.approx(16e9)
        assert INFINIBAND_FDR.bandwidth == pytest.approx(7.5e9)

    def test_transfer_time_includes_latency(self):
        link = LinkSpec(bandwidth=1e9, latency=1e-6)
        assert link.transfer_time(1e9) == pytest.approx(1.0 + 1e-6)

    def test_zero_bytes_costs_latency_only(self):
        link = LinkSpec(bandwidth=1e9, latency=2e-6)
        assert link.transfer_time(0) == pytest.approx(2e-6)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            PCIE_GEN3.transfer_time(-1)

    @pytest.mark.parametrize("bw,lat", [(0, 0), (-1, 0), (1, -1)])
    def test_invalid_links_rejected(self, bw, lat):
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=bw, latency=lat)


class TestTopology:
    def test_node_of_packs_ranks(self):
        fab = Interconnect(gpus_per_node=8)
        assert fab.node_of(0) == 0
        assert fab.node_of(7) == 0
        assert fab.node_of(8) == 1
        assert fab.node_of(23) == 2

    def test_num_nodes_ceiling(self):
        fab = Interconnect(gpus_per_node=8)
        assert fab.num_nodes(1) == 1
        assert fab.num_nodes(8) == 1
        assert fab.num_nodes(9) == 2
        assert fab.num_nodes(64) == 8
        assert fab.num_nodes(192) == 24

    def test_single_node_ring_uses_intra_link(self):
        fab = PAPER_CLUSTER_FABRIC
        assert fab.ring_link(8) is fab.intra_node
        assert not fab.spans_nodes(8)

    def test_multi_node_ring_bound_by_inter_link(self):
        fab = PAPER_CLUSTER_FABRIC
        assert fab.ring_link(16) is fab.inter_node
        assert fab.spans_nodes(16)

    def test_invalid_inputs(self):
        fab = Interconnect(gpus_per_node=4)
        with pytest.raises(ValueError):
            fab.node_of(-1)
        with pytest.raises(ValueError):
            fab.num_nodes(0)
        with pytest.raises(ValueError):
            Interconnect(gpus_per_node=0)

    def test_paper_fabric_is_8_wide(self):
        assert PAPER_CLUSTER_FABRIC.gpus_per_node == 8
