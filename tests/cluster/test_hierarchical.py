"""Tests for the funnel's two-level (hierarchical) schedule.

Every plain allreduce, allgather and reduce-scatter is charged the
cheaper of the flat ring and the two-level ring
(:func:`repro.cluster.collectives.collective_time`): where each ring
holds the same ``L > 1`` ranks on each of ``M > 1`` nodes, intra-node
phases around a ring among the ``M`` peers with one local index, whose
``L`` peer rings share their node's inter-node link.  Both schedules
move the ring's wire bytes and the numerics are the one rank-order
fold, so only time may differ.
``Interconnect(gpus_per_node=1)`` places one rank per node — ``L = 1``
for every ring — and is the flat-ring reference throughout.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import Sanitizer
from repro.cluster import Communicator, hybrid_mesh
from repro.cluster.collectives import (
    RING,
    TWO_LEVEL,
    collective_time,
    ring_allgather_time,
    ring_allreduce_time,
    ring_reduce_scatter_time,
)
from repro.cluster.interconnect import (
    Interconnect,
    LinkSpec,
    PAPER_CLUSTER_FABRIC,
)
from repro.data import BatchSpec, ONE_BILLION_WORD, make_corpus
from repro.optim import SGD
from repro.train import (
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
)

FABRIC4 = Interconnect(gpus_per_node=4)
#: One rank per node: every ring is flat (L = 1) on the same links.
FLAT = Interconnect(gpus_per_node=1)

RING_TIME = {
    "allreduce": ring_allreduce_time,
    "allgather": ring_allgather_time,
    "reduce_scatter": ring_reduce_scatter_time,
}


def comm(world, fabric=FABRIC4):
    return Communicator(world, fabric=fabric, track_memory=False)


def two_level_phases(op, local, nodes, nbytes, fabric):
    """The two-level schedule's phases, summed in order, written out: the
    node's ``local`` peer rings share its one inter-node link."""
    intra = fabric.intra_node
    inter = LinkSpec(
        fabric.inter_node.bandwidth / local, fabric.inter_node.latency
    )
    shard = -(-nbytes // local)
    if op == "allreduce":
        return (
            ring_reduce_scatter_time(local, nbytes, intra)
            + ring_allreduce_time(nodes, shard, inter)
            + ring_allgather_time(local, shard, intra)
        )
    if op == "allgather":
        return (
            ring_allgather_time(nodes, nbytes, inter)
            + ring_allgather_time(local, nodes * nbytes, intra)
        )
    return (
        ring_reduce_scatter_time(local, nbytes, intra)
        + ring_reduce_scatter_time(nodes, shard, inter)
    )


class TestSemantics:
    def test_matches_flat_allreduce(self):
        world = 16  # 4 nodes of 4: a small message takes the two-level ring
        rng = np.random.default_rng(0)
        arrays = [rng.standard_normal((8, 3)) for _ in range(world)]
        c = comm(world)
        out = c.allreduce(arrays)
        assert c.ledger.events[-1].schedule == TWO_LEVEL
        flat = comm(world, FLAT).allreduce(arrays)
        np.testing.assert_array_equal(out[0], flat[0])
        np.testing.assert_allclose(out[0], sum(arrays), rtol=1e-12)

    def test_single_node_falls_back_to_flat(self):
        world = 4
        c = comm(world)
        out = c.allreduce([np.ones(4) for _ in range(world)])
        np.testing.assert_allclose(out[0], 4.0)
        (event,) = c.ledger.events
        assert event.schedule == RING
        assert event.time_s == ring_allreduce_time(4, 32, FABRIC4.intra_node)

    def test_multi_node_records_hierarchical_op(self):
        """One plain event, under the caller's tag, naming its schedule."""
        world = 16
        c = comm(world)
        c.allreduce([np.ones(8) for _ in range(world)], tag="g")
        (event,) = c.ledger.events
        assert (event.op, event.tag, event.schedule) == (
            "allreduce", "g", TWO_LEVEL
        )
        assert event.time_s == two_level_phases("allreduce", 4, 4, 64, FABRIC4)
        assert event.time_s < ring_allreduce_time(16, 64, FABRIC4.inter_node)
        assert c.mesh.axis_names == ("data",)  # caller's mesh untouched

    def test_shape_preserved(self):
        world = 16
        arrays = [np.ones((4, 2, 3)) for _ in range(world)]
        out = comm(world).allreduce(arrays)
        assert out[0].shape == (4, 2, 3)

    @given(
        nodes=st.integers(2, 4),
        rows_per_gpu=st.integers(1, 4),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=25)
    def test_property_equals_sum(self, nodes, rows_per_gpu, seed):
        world = nodes * 4
        rng = np.random.default_rng(seed)
        arrays = [
            rng.standard_normal((rows_per_gpu * 4, 2)) for _ in range(world)
        ]
        out = comm(world).allreduce(arrays)
        np.testing.assert_array_equal(
            out[0], comm(world, FLAT).allreduce(arrays)[0]
        )
        np.testing.assert_allclose(out[0], sum(arrays), rtol=1e-9)

    def test_indivisible_leading_dim_rejected(self):
        """A reduce-scatter's shard constraint holds on either schedule."""
        world = 8
        with pytest.raises(ValueError, match="not divisible"):
            comm(world).reduce_scatter([np.ones(6)] * world)

    def test_partial_node_rejected(self):
        """6 ranks on nodes of 4 hold 4 + 2: the two-level schedule needs
        even nodes, so the collective is charged exactly the ring."""
        c = comm(6)
        assert c.local == 1
        c.allreduce([np.ones(4)] * 6)
        (event,) = c.ledger.events
        assert event.schedule == RING
        assert event.time_s == ring_allreduce_time(6, 32, FABRIC4.inter_node)

    def test_rank_count_checked(self):
        with pytest.raises(ValueError):
            comm(8).allreduce([np.ones(4)] * 7)


class TestCostModel:
    def test_beats_flat_ring_across_nodes(self):
        """Where inter-node hops dominate the two-level ring wins (M - 1
        IB hops instead of G - 1); for a large message at M >= 4 the
        ring is kept: the node's peer rings share its one IB link, so
        the two-level ring saves no IB bandwidth and adds PCIe phases."""
        fabric = PAPER_CLUSTER_FABRIC
        for world in (32, 64, 512):
            link = fabric.ring_link(world)
            for op, ring_time in RING_TIME.items():
                time_s, schedule = collective_time(
                    op, world, 1 << 10, link, fabric, 8
                )
                assert schedule == TWO_LEVEL
                assert time_s < ring_time(world, 1 << 10, link)
                big = 100 * 1024 * 1024
                assert collective_time(op, world, big, link, fabric, 8) == (
                    ring_time(world, big, link), RING
                )

    def test_single_node_identical_to_flat(self):
        nbytes = 10**6
        fabric = PAPER_CLUSTER_FABRIC
        assert collective_time(
            "allreduce", 8, nbytes, fabric.intra_node, fabric, 8
        ) == (ring_allreduce_time(8, nbytes, fabric.intra_node), RING)

    def test_same_volume_better_placement(self):
        """Two-level moves the *same* bytes per rank as the flat ring —
        the win is fewer hops on the slow tier, which shows up as time,
        not volume.  (A group spanning 16 ranks, two nodes, keeps the
        ring below ~3.8 MB: its PCIe hops cost 5 us against an IB hop's
        1.5 us, and the funnel never charges more than the ring.)"""
        world = 32
        c_flat = comm(world, FLAT)
        c_two = comm(world, PAPER_CLUSTER_FABRIC)
        arrays = [np.ones(1 << 12, np.float32) for _ in range(world)]
        flat = c_flat.allreduce(arrays)
        two = c_two.allreduce(arrays)
        np.testing.assert_array_equal(flat[0], two[0])
        assert (
            c_two.ledger.total_wire_bytes_per_rank
            == c_flat.ledger.total_wire_bytes_per_rank
        )
        assert c_two.ledger.events[0].schedule == TWO_LEVEL
        assert c_two.ledger.total_time_s < c_flat.ledger.total_time_s

    @pytest.mark.parametrize("world", [16, 64])
    def test_phase_events_sum_to_the_model_exactly(self, world):
        """The one event is charged min(ring, the three phases summed in
        order on their links) — a 12 KiB message keeps the ring over two
        nodes and goes two-level over eight — and every observer on the
        communicator sees it once."""
        fabric = PAPER_CLUSTER_FABRIC
        c = Communicator(world, track_memory=False)
        san = Sanitizer(c)
        arrays = [np.ones((1 << 10, 3), np.float32) for _ in range(world)]
        with c.timeline.scope("sync"):
            out = c.allreduce(arrays)
        np.testing.assert_array_equal(out[world - 1], world * arrays[0])

        (event,) = c.ledger.events
        nbytes = arrays[0].nbytes
        local, nodes = fabric.gpus_per_node, world // fabric.gpus_per_node
        ring = ring_allreduce_time(world, nbytes, fabric.inter_node)
        phases = two_level_phases("allreduce", local, nodes, nbytes, fabric)
        assert event.time_s == min(ring, phases)
        assert event.schedule == (TWO_LEVEL if phases < ring else RING)
        assert event.schedule == {16: RING, 64: TWO_LEVEL}[world]
        assert event.wire_bytes_per_rank == 2 * (world - 1) * nbytes // world
        assert c.timeline.makespan == c.ledger.total_time_s

        assert san.collectives_checked == 1
        san.finish()

    def test_invalid_world(self):
        with pytest.raises(ValueError):
            collective_time(
                "allreduce", 0, 100, PAPER_CLUSTER_FABRIC.inter_node,
                PAPER_CLUSTER_FABRIC, 8,
            )


class TestChargedSchedule:
    @given(
        op=st.sampled_from(sorted(RING_TIME)),
        local=st.integers(1, 8),
        nodes=st.integers(1, 64),
        per_rank=st.integers(0, 40_000),
        uneven=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_above_the_ring_and_the_same_bytes(
        self, op, local, nodes, per_rank, uneven
    ):
        """Over op, L, M and n (0 and n not divisible by L included): the
        charged time is at most the ring's, the wire bytes are the
        ring's, and a one-node, L = 1 or uneven ring is charged exactly
        the ring."""
        world = local * nodes - (1 if uneven and local * nodes > 2 else 0)
        fabric = Interconnect(gpus_per_node=local)
        if op == "reduce_scatter":
            per_rank -= per_rank % world  # the shard constraint
        arrays = [np.zeros(per_rank, np.uint8) for _ in range(world)]
        charged, flat = comm(world, fabric), comm(world, FLAT)
        for c in (charged, flat):
            getattr(c, op)(arrays)
        (event,), (flat_event,) = charged.ledger.events, flat.ledger.events
        assert flat_event.schedule == RING
        assert event.wire_bytes_per_rank == flat_event.wire_bytes_per_rank
        ring_s = RING_TIME[op](world, per_rank, fabric.ring_link(world))
        assert event.time_s <= ring_s
        if nodes == 1 or local == 1 or world != local * nodes:
            assert (event.time_s, event.schedule) == (ring_s, RING)
        else:
            assert event.time_s == min(
                ring_s, two_level_phases(op, local, nodes, per_rank, fabric)
            )

    def test_a_mesh_axis_flips_with_message_size(self):
        """``pipe=2,tensor=2,data=16``: each data ring holds 8 ranks on
        each of 2 nodes.  Its 28 us of extra latency is repaid past
        ~3.84 MB, where the two-level ring's bandwidth terms win: n over
        IB (8 peer rings of n/8 share it) and 2 * 7n/8 over PCIe, against
        2 * 15/16 n over IB."""
        fabric = PAPER_CLUSTER_FABRIC
        c = Communicator(64, track_memory=False)
        c.mesh = hybrid_mesh("pipe=2,tensor=2,data=16", 64)
        data = c.axis("data")
        assert (data.ring_size, data.local) == (16, 8)
        assert c.axis("tensor").local == 1  # a tensor pair spans 2 nodes
        picks = {
            n: data.collective_time("allreduce", n)[1]
            for n in (1 << 10, 3_800_000, 3_900_000, 1 << 24)
        }
        assert picks == {
            1 << 10: RING, 3_800_000: RING, 3_900_000: TWO_LEVEL,
            1 << 24: TWO_LEVEL,
        }
        assert data.collective_time("allreduce", 3_900_000)[0] == (
            two_level_phases("allreduce", 8, 2, 3_900_000, fabric)
        )
        rows = [np.ones(128) for _ in range(64)]
        data.allreduce(rows, tag="g")
        (event,) = c.ledger.events
        assert (event.tag, event.schedule) == ("data:g", RING)
        assert event.time_s == ring_allreduce_time(
            16, 1 << 10, fabric.inter_node
        )


WORD = WordLMConfig(
    vocab_size=60, embedding_dim=4, hidden_dim=6, projection_dim=4,
    num_samples=8,
)
CORPUS = make_corpus(ONE_BILLION_WORD.scaled(60), 6000, seed=0)


def word_trainer(fabric):
    config = TrainConfig(world_size=64, batch=BatchSpec(1, 4), base_lr=0.3)
    return DistributedTrainer(
        lambda rng, rank: WordLanguageModel(WORD, rng),
        lambda params, lr: SGD(params, lr),
        CORPUS.train, CORPUS.valid, config,
        comm=Communicator(64, fabric=fabric),
    )


def test_a_flat_word_lm_trains_the_same_in_less_simulated_time():
    """A flat G = 64 word LM on the paper fabric (8 nodes of 8) against
    one rank per node: the same collectives, bytes, peak and losses, bit
    for bit, and a strictly shorter schedule."""
    paper, flat = word_trainer(PAPER_CLUSTER_FABRIC), word_trainer(FLAT)
    losses = [(paper.train_step(), flat.train_step()) for _ in range(3)]
    assert all(a == b for a, b in losses)

    def events(trainer):
        return [
            (e.op, e.tag, e.scope, e.wire_bytes_per_rank)
            for e in trainer.comm.ledger.events
        ]

    assert events(paper) == events(flat)
    assert paper.comm.peak_bytes_per_rank == flat.comm.peak_bytes_per_rank
    assert {e.schedule for e in flat.comm.ledger.events} == {RING}
    assert TWO_LEVEL in {e.schedule for e in paper.comm.ledger.events}
    assert paper.comm.timeline.makespan < flat.comm.timeline.makespan
