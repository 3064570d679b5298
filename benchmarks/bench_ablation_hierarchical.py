"""Ablation: flat ring vs hierarchical (two-level) allreduce.

The paper's implementation uses flat CUDA-aware-MPI rings (Table II);
NCCL-style hierarchical collectives exploit the PCIe/Infiniband tier gap
instead.  This bench quantifies, on the paper's exact fabric, how much
of the dense-gradient allreduce time (the char LM's 852 MB per step)
hierarchy would recover — and verifies the small-message regime where it
loses.
"""

import numpy as np

from repro.cluster import Communicator, ring_allreduce_time
from repro.cluster.hierarchical import (
    hierarchical_allreduce,
    hierarchical_allreduce_time,
)
from repro.cluster.interconnect import PAPER_CLUSTER_FABRIC
from repro.report import format_table

CHAR_LM_GRAD_BYTES = 213_000_000 * 4  # the char LM's dense gradient


def model_sweep():
    rows = []
    for world in (8, 16, 32, 64, 192):
        link = PAPER_CLUSTER_FABRIC.ring_link(world)
        flat = ring_allreduce_time(world, CHAR_LM_GRAD_BYTES, link)
        hier = hierarchical_allreduce_time(
            world, CHAR_LM_GRAD_BYTES, PAPER_CLUSTER_FABRIC
        )
        rows.append(
            [world, f"{flat * 1e3:.0f}", f"{hier * 1e3:.0f}",
             f"{flat / hier:.2f}x" if world > 8 else "1.00x (single node)"]
        )
    return rows


def test_ablation_hierarchical(benchmark, report):
    rows = benchmark.pedantic(model_sweep, rounds=1, iterations=1)
    table = format_table(
        ["GPUs", "flat ring (ms)", "hierarchical (ms)", "speedup"],
        rows,
        title="Dense 852 MB gradient allreduce on the paper's fabric "
        "(PCIe 32 GB/s intra-node, FDR IB 15 GB/s inter-node)",
    )

    # Functional spot-check at 16 ranks.
    world = 16
    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal(4096).astype(np.float32) for _ in range(world)]
    c = Communicator(world, track_memory=False)
    out = hierarchical_allreduce(c, arrays)
    # Different reduction order than a flat sum: fp32-roundoff tolerance.
    np.testing.assert_allclose(out[0], sum(arrays), rtol=1e-3, atol=1e-5)
    # The three per-axis ledger events *are* the analytic model.
    assert [e.op for e in c.ledger.events] == [
        "reduce_scatter", "allreduce", "allgather"
    ]
    assert sum(e.time_s for e in c.ledger.events) == (
        hierarchical_allreduce_time(
            world, arrays[0].nbytes, PAPER_CLUSTER_FABRIC
        )
    )

    small = hierarchical_allreduce_time(64, 1024, PAPER_CLUSTER_FABRIC)
    small_flat = ring_allreduce_time(
        64, 1024, PAPER_CLUSTER_FABRIC.ring_link(64)
    )
    footer = (
        f"\nSmall-message check (1 KB at 64 GPUs): flat "
        f"{small_flat * 1e6:.0f} us vs hierarchical {small * 1e6:.0f} us — "
        "extra phases lose when latency dominates."
    )
    report("ablation_hierarchical", table + footer)

    # Hierarchy must win for the large multi-node messages.
    for row in rows:
        if row[0] in (16, 32, 64, 192):
            assert float(row[1]) > float(row[2])
