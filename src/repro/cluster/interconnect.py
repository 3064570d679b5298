"""Interconnect topology and bandwidth model.

The paper's cluster (Table II) has two communication tiers:

* **intra-node**: 8 GPUs per node on PCIe at 32 GB/s bidirectional;
* **inter-node**: Infiniband FDR at 15 GB/s bidirectional.

A flat ring is bottlenecked by the *slowest link on the ring*, so once
a job spans more than one node its bandwidth is the Infiniband share;
a two-level schedule keeps most hops on PCIe and crosses nodes in
``log2 M`` recursive halving/doubling rounds (``M`` a power of two;
else a ring), but its peer groups share the node's one Infiniband link
(``Interconnect.inter_node``), so it saves inter-node hops rather than
inter-node bandwidth.  This module holds the
topology (ranks → nodes) and the per-tier link speeds both are priced
on (:func:`~repro.cluster.collectives.collective_time`).

All bandwidths are *unidirectional* bytes/s as seen by one direction of
a ring; the bidirectional figures from Table II are halved on
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "INFINIBAND_FDR",
    "Interconnect",
    "LinkSpec",
    "NVLINK_V100",
    "PAPER_CLUSTER_FABRIC",
    "PCIE_GEN3",
    "V100_FABRIC",
]


@dataclass(frozen=True)
class LinkSpec:
    """One communication tier: bandwidth (bytes/s, unidirectional) + latency."""

    bandwidth: float
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")

    def transfer_time(self, nbytes: float) -> float:
        """Time to push ``nbytes`` through this link once."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.latency + nbytes / self.bandwidth


def _half_duplex(bidirectional_bytes_per_s: float) -> float:
    return bidirectional_bytes_per_s / 2.0


#: PCIe 3.0 x16 as in Table II: 32 GB/s bidirectional.
PCIE_GEN3 = LinkSpec(bandwidth=_half_duplex(32e9), latency=5e-6)

#: Infiniband FDR as in Table II: 15 GB/s bidirectional.
INFINIBAND_FDR = LinkSpec(bandwidth=_half_duplex(15e9), latency=1.5e-6)

#: NVLink (V100 systems of the compared prior work), ~300 GB/s bidirectional.
NVLINK_V100 = LinkSpec(bandwidth=_half_duplex(300e9), latency=2e-6)


@dataclass(frozen=True)
class Interconnect:
    """Two-tier topology: ``gpus_per_node`` ranks share the intra-node link.

    Parameters
    ----------
    intra_node:
        Link between GPUs on the same node (PCIe / NVLink).
    inter_node:
        A node's one link to the other nodes (Infiniband / Ethernet);
        the peer groups of a two-level schedule share it.
    gpus_per_node:
        Number of ranks co-located per node; the paper uses 8.
    """

    intra_node: LinkSpec = PCIE_GEN3
    inter_node: LinkSpec = INFINIBAND_FDR
    gpus_per_node: int = 8

    def __post_init__(self) -> None:
        if self.gpus_per_node <= 0:
            raise ValueError("gpus_per_node must be positive")

    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank`` (ranks are packed node-by-node)."""
        if rank < 0:
            raise ValueError("rank must be non-negative")
        return rank // self.gpus_per_node

    def num_nodes(self, world_size: int) -> int:
        """Number of nodes a job of ``world_size`` ranks occupies."""
        if world_size <= 0:
            raise ValueError("world_size must be positive")
        return -(-world_size // self.gpus_per_node)  # ceil division

    def ring_link(self, world_size: int) -> LinkSpec:
        """The binding link for a ring over ``world_size`` ranks.

        A ring ordered by rank crosses a node boundary iff the job spans
        more than one node; the steady-state ring throughput is then set
        by the slower inter-node hop (every chunk must traverse it).
        For a single-node job the ring stays on the intra-node fabric.
        """
        if self.num_nodes(world_size) > 1:
            return self.inter_node
        return self.intra_node


#: The exact fabric of the paper's 50-node evaluation cluster.
PAPER_CLUSTER_FABRIC = Interconnect(
    intra_node=PCIE_GEN3, inter_node=INFINIBAND_FDR, gpus_per_node=8
)

#: NVLink/V100 fabric of the prior work compared against in Section V-D.
V100_FABRIC = Interconnect(
    intra_node=NVLINK_V100, inter_node=INFINIBAND_FDR, gpus_per_node=8
)
