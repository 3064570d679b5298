"""Ablation: flat ring vs two-level (hierarchical) ring.

The paper's implementation uses flat CUDA-aware-MPI rings (Table II), and
``PerfModel``'s Tables III-V keep them.  The communicator funnel charges
every allreduce, allgather and reduce-scatter the cheaper of the flat
ring and the NCCL-style two-level ring (PCIe inside a node, FDR IB among
the nodes' peers, whose peer rings share the node's one IB link).  This
bench prices the char LM's 852 MB dense-gradient allreduce both ways on
the paper's exact fabric, finds from the numbers where each schedule
wins, and checks that an allreduce executed through the funnel is
charged exactly ``min(ring, two-level)`` with the ring's wire bytes.
"""

import numpy as np

from repro.cluster import Communicator, Interconnect, ring_allreduce_time
from repro.cluster.collectives import (
    RING,
    TWO_LEVEL,
    allreduce_wire_bytes,
    two_level_time,
)
from repro.cluster.interconnect import PAPER_CLUSTER_FABRIC
from repro.report import format_table

FABRIC = PAPER_CLUSTER_FABRIC
LOCAL = FABRIC.gpus_per_node
CHAR_LM_GRAD_BYTES = 213_000_000 * 4  # the char LM's dense gradient
WORLDS = (16, 32, 64, 512)
SIZES = (1 << 10, 32 << 10, 256 << 10, 4 << 20)


def flat_and_two_level(world, nbytes):
    """Flat-ring and two-level allreduce seconds at ``world`` ranks."""
    flat = ring_allreduce_time(world, nbytes, FABRIC.ring_link(world))
    two = two_level_time("allreduce", LOCAL, world // LOCAL, nbytes, FABRIC)
    return flat, two


def crossover(world):
    """Where the two-level ring is strictly cheaper: ``"always"``,
    ``"never"`` or the message size past which the winner flips.  Both
    costs are affine in the message size up to the shard's rounding, so
    there is at most one flip and the search is binary."""
    def wins(nbytes):
        flat, two = flat_and_two_level(world, nbytes)
        return two < flat

    lo, hi = 0, CHAR_LM_GRAD_BYTES
    small = wins(lo)
    if wins(hi) == small:
        return "always" if small else "never"
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if wins(mid) == small else (lo, mid)
    return f"{'below' if small else 'from'} {hi / 1e3:.1f} KB"


def model_sweep():
    rows = []
    for world in (8, 16, 32, 64, 192):
        if world <= LOCAL:
            flat = ring_allreduce_time(
                world, CHAR_LM_GRAD_BYTES, FABRIC.intra_node
            )
            rows.append([world, f"{flat * 1e3:.0f}", f"{flat * 1e3:.0f}",
                         "ring (single node)"])
            continue
        flat, two = flat_and_two_level(world, CHAR_LM_GRAD_BYTES)
        winner = f"two-level {flat / two:.2f}x" if two < flat else "ring"
        rows.append([world, f"{flat * 1e3:.0f}", f"{two * 1e3:.0f}", winner])
    return rows


def crossover_rows():
    rows = []
    for world in WORLDS:
        cells = []
        for nbytes in SIZES:
            flat, two = flat_and_two_level(world, nbytes)
            winner = "two-level" if two < flat else "ring"
            cells.append(f"{flat * 1e6:.1f} / {two * 1e6:.1f} {winner}")
        rows.append([world, world // LOCAL, *cells, crossover(world)])
    return rows


def executed_allreduce(world, count):
    """One float32 allreduce through the funnel on the paper fabric,
    against one rank per node (every ring flat): its one event."""
    rng = np.random.default_rng(0)
    arrays = [
        rng.standard_normal(count).astype(np.float32) for _ in range(world)
    ]
    c = Communicator(world, track_memory=False)
    flat = Communicator(
        world, fabric=Interconnect(gpus_per_node=1), track_memory=False
    )
    np.testing.assert_array_equal(
        c.allreduce(arrays)[0], flat.allreduce(arrays)[0]
    )
    (event,) = c.ledger.events
    return event, arrays[0].nbytes


def test_ablation_hierarchical(benchmark, report):
    rows = benchmark.pedantic(model_sweep, rounds=1, iterations=1)
    table = format_table(
        ["GPUs", "flat ring (ms)", "two-level (ms)", "charged"],
        rows,
        title="Dense 852 MB gradient allreduce on the paper's fabric "
        "(PCIe 32 GB/s intra-node, FDR IB 15 GB/s inter-node)",
    )
    crossover_table = format_table(
        ["GPUs", "nodes"]
        + [f"{n >> 10} KiB flat / two-level (us)" for n in SIZES]
        + ["two-level wins"],
        crossover_rows(),
        title="Allreduce crossover: the funnel charges the cheaper column",
    )

    # The funnel charges min(ring, two-level) and the ring's bytes: a
    # 16 KiB message keeps the ring over 2 nodes and goes two-level
    # over 8.
    for world, schedule in ((16, RING), (64, TWO_LEVEL)):
        event, nbytes = executed_allreduce(world, 4096)
        flat, two = flat_and_two_level(world, nbytes)
        assert event.time_s == min(flat, two)
        assert event.schedule == schedule
        assert event.wire_bytes_per_rank == allreduce_wire_bytes(world, nbytes)

    small = {world: flat_and_two_level(world, 1 << 10) for world in WORLDS}
    losing = [w for w, (flat, two) in small.items() if two >= flat]
    large_wins = [
        row[0] for row in rows if row[3].startswith("two-level")
    ]
    footer = "\nSmall-message check (1 KiB): " + "; ".join(
        f"G={w} flat {flat * 1e6:.0f} us vs two-level {two * 1e6:.0f} us"
        for w, (flat, two) in small.items()
    ) + (
        " — the two-level ring wins at every G here."
        if not losing else
        f" — the two-level ring loses only at G = "
        f"{', '.join(map(str, losing))}, where the group spans "
        f"{', '.join(str(w // LOCAL) for w in losing)} nodes: its extra "
        f"PCIe hops ({FABRIC.intra_node.latency * 1e6:.1f} us each) cost "
        f"more than the IB hops ({FABRIC.inter_node.latency * 1e6:.1f} us "
        "each) they save."
    ) + (
        "\nLarge-message check (852 MB): the two-level ring wins only at "
        f"G = {', '.join(map(str, large_wins))}. A node's {LOCAL} peer "
        "rings share its one IB link, so the bytes crossing it fall only "
        "from 2(G-1)/G to 2(M-1)/M of the message, and that saving repays "
        "the two PCIe phases (2(L-1)/L of it) only where M = 2."
    )
    report(
        "ablation_hierarchical", table + "\n" + crossover_table + footer
    )

    # Small messages go two-level once the group spans more than two
    # nodes (the hop count), and stay on the ring over two ...
    assert losing == [16]
    # ... while a large one goes two-level only over two nodes.
    assert large_wins == [16]
