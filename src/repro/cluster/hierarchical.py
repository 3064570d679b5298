"""Hierarchical (two-level) allreduce over the PCIe/Infiniband fabric.

A flat ring over a multi-node job pushes *all* traffic through the slow
inter-node links.  The hierarchical scheme exploits the fast intra-node
tier (Table II: PCIe at 32 GB/s vs FDR at 15 GB/s bidirectional):

1. intra-node ring **reduce-scatter** — each of the ``L`` GPUs in a node
   ends up with a 1/L shard of the node's sum (PCIe);
2. inter-node ring **allreduce** of each shard across nodes — GPU ``i``
   of every node forms a ring with its peers (Infiniband, message n/L);
3. intra-node ring **allgather** — shards recombine inside each node
   (PCIe).

Total inter-node bytes per GPU drop from ``2 n (G-1)/G`` to
``2 (n/L) (M-1)/M`` for ``M`` nodes — an ``~L x`` reduction on the slow
tier.  This is the structure NCCL/Horovod hierarchical allreduce uses;
the paper's flat CUDA-aware-MPI rings are the baseline it is compared
against in ``benchmarks/bench_hierarchical.py``.

The three phases are the funnel's own collectives on a 2-axis
:class:`~repro.cluster.mesh.DeviceMesh` ``("node", "local")``: phases 1
and 3 run on the ``local`` axis (the GPUs of one node) and phase 2 on
the ``node`` axis (GPU *i* of every node), so each phase is one ledger
event, one timeline collective and one hook observation.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .collectives import (
    ring_allgather_time,
    ring_allreduce_time,
    ring_reduce_scatter_time,
)
from .communicator import Communicator
from .interconnect import Interconnect
from .mesh import DeviceMesh

__all__ = ["hierarchical_allreduce_time", "hierarchical_allreduce"]


@lru_cache(maxsize=4096)
def hierarchical_allreduce_time(
    world: int, nbytes: int, fabric: Interconnect
) -> float:
    """Alpha-beta time of the three-phase hierarchical allreduce.

    Falls back to a flat intra-node ring when the job fits on one node.
    For simplicity the model assumes full nodes (world divisible by the
    node width); partially-filled nodes are rounded to the slower case.
    Memoized: pure in (world, nbytes, fabric), and the trainer calls it
    with an identical key for every bucket of every step.
    """
    if world <= 0:
        raise ValueError("world must be positive")
    local = min(world, fabric.gpus_per_node)
    nodes = fabric.num_nodes(world)
    if nodes == 1:
        return ring_allreduce_time(world, nbytes, fabric.intra_node)
    shard = nbytes / local
    return (
        ring_reduce_scatter_time(local, nbytes, fabric.intra_node)
        + ring_allreduce_time(nodes, int(shard), fabric.inter_node)
        + ring_allgather_time(local, int(shard), fabric.intra_node)
    )


def hierarchical_allreduce(
    comm: Communicator, arrays: Sequence[np.ndarray], tag: str = ""
) -> list[np.ndarray]:
    """Sum-allreduce with hierarchical semantics and cost accounting.

    Functionally identical to :meth:`Communicator.allreduce` (every rank
    receives the global sum); the ledger records the three phases, whose
    times sum to :func:`hierarchical_allreduce_time`.  Requires the
    leading dimension to be divisible by the node-local group size when
    the job spans nodes (the shard constraint of phase 1).
    """
    fabric = comm.fabric
    world = comm.world_size
    local = min(world, fabric.gpus_per_node)
    nodes = fabric.num_nodes(world)
    if nodes == 1:
        return comm.allreduce(arrays, tag=tag)
    if world % local != 0:
        raise ValueError(
            f"hierarchical allreduce needs full nodes: {world} ranks with "
            f"{local} per node"
        )
    # Rank n*local + l sits at mesh coordinate (node=n, local=l) — the
    # mesh's row-major layout matches the fabric's physical placement.
    # The view shares the caller's ledger, timeline, devices and hooks.
    view = copy.copy(comm._root)
    view.mesh = DeviceMesh(("node", "local"), (nodes, local))
    shards = view.axis("local").reduce_scatter(
        [np.atleast_1d(a) for a in arrays], tag=tag
    )
    reduced = view.axis("node").allreduce(shards, tag=tag)
    gathered = view.axis("local").allgather(reduced, tag=tag)
    return [out.reshape(a.shape) for out, a in zip(gathered, arrays)]
