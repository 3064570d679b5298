"""Tests for the device mesh and its per-axis subgroup collectives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sanitizer import Sanitizer
from repro.cluster import (
    ChaosCommunicator,
    Communicator,
    DeviceMesh,
    FaultEvent,
    FaultKind,
    FaultPlan,
    HYBRID_AXES,
    TransientLinkError,
    hybrid_mesh,
    parse_mesh_spec,
)
from repro.cluster.interconnect import Interconnect


def comm(world, **kw):
    kw.setdefault("track_memory", False)
    return Communicator(world, **kw)


def mesh_comm(spec, world, **kw):
    return comm(world, mesh=hybrid_mesh(spec, world), **kw)


class TestDeviceMesh:
    def test_last_axis_varies_fastest(self):
        m = DeviceMesh(("pipe", "tensor", "data"), (2, 2, 2))
        assert m.coords(0) == (0, 0, 0)
        assert m.coords(1) == (0, 0, 1)
        assert m.coords(2) == (0, 1, 0)
        assert m.coords(7) == (1, 1, 1)

    def test_coords_rank_roundtrip(self):
        m = DeviceMesh(("a", "b", "c"), (3, 2, 4))
        for rank in range(m.size):
            assert m.rank_at(m.coords(rank)) == rank

    def test_shape_accessors(self):
        m = DeviceMesh(("pipe", "data"), (2, 3))
        assert m.size == 6
        assert m.ndim == 2
        assert m.axis_size("data") == 3
        assert m.axis_index("pipe") == 0
        assert m.describe() == "pipe=2,data=3"

    def test_unknown_axis_rejected(self):
        m = DeviceMesh(("data",), (4,))
        with pytest.raises(ValueError, match="unknown mesh axis"):
            m.axis_size("tensor")

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one axis"):
            DeviceMesh((), ())
        with pytest.raises(ValueError, match="duplicate"):
            DeviceMesh(("a", "a"), (2, 2))
        with pytest.raises(ValueError, match="positive"):
            DeviceMesh(("a",), (0,))
        with pytest.raises(ValueError):
            DeviceMesh(("a", "b"), (2,))

    def test_rank_bounds_checked(self):
        m = DeviceMesh(("a",), (4,))
        with pytest.raises(ValueError):
            m.coords(4)
        with pytest.raises(ValueError):
            m.rank_at((4,))
        with pytest.raises(ValueError):
            m.rank_at((0, 0))

    @given(
        p=st.integers(1, 3),
        t=st.integers(1, 3),
        d=st.integers(1, 3),
        axis=st.sampled_from(HYBRID_AXES),
    )
    @settings(max_examples=40)
    def test_groups_partition_ranks_exactly(self, p, t, d, axis):
        m = DeviceMesh(HYBRID_AXES, (p, t, d))
        groups = m.groups(axis)
        assert len(groups) == m.size // m.axis_size(axis)
        seen = [r for g in groups for r in g.ranks]
        assert sorted(seen) == list(range(m.size))
        for g in groups:
            assert g.size == m.axis_size(axis)

    @given(
        p=st.integers(1, 3),
        t=st.integers(1, 3),
        d=st.integers(1, 3),
        axis=st.sampled_from(HYBRID_AXES),
    )
    @settings(max_examples=40)
    def test_group_members_agree_on_other_coords(self, p, t, d, axis):
        m = DeviceMesh(HYBRID_AXES, (p, t, d))
        i = m.axis_index(axis)
        for g in m.groups(axis):
            others = {
                tuple(c for j, c in enumerate(m.coords(r)) if j != i)
                for r in g.ranks
            }
            assert len(others) == 1
            assert [m.coords(r)[i] for r in g.ranks] == list(range(g.size))

    def test_axis_link_intra_vs_inter_node(self):
        fabric = Interconnect(gpus_per_node=4)
        m = DeviceMesh(("node", "local"), (2, 4))
        c = Communicator(8, fabric=fabric, mesh=m)
        assert c.axis("local").link is fabric.intra_node
        assert c.axis("node").link is fabric.inter_node


class TestSpecParsing:
    def test_literal_and_g_forms(self):
        m = parse_mesh_spec("pipe=2,tensor=2,data=G/4", 16)
        assert m.axis_sizes == (2, 2, 4)
        assert parse_mesh_spec("data=G", 8).axis_sizes == (8,)

    def test_inference(self):
        m = parse_mesh_spec("pipe=2,data=", 8)
        assert m.axis_sizes == (2, 4)

    @pytest.mark.parametrize(
        "spec, match",
        [
            ("", "empty mesh spec"),
            ("pipe", "expected '<name>=<size>'"),
            ("=4", "empty axis name"),
            ("a=2,a=2", "duplicate mesh axis"),
            ("a=0", "must be positive"),
            ("a=G/0", "G/<positive int>"),
            ("a=G/3", "does not divide"),
            ("a=x", "must be an integer"),
            ("a=,b=", "at most one"),
            ("a=3,b=", "does not divide world size"),
            ("a=3", "axis sizes must multiply"),
        ],
    )
    def test_parse_errors(self, spec, match):
        with pytest.raises(ValueError, match=match):
            parse_mesh_spec(spec, 8)

    def test_hybrid_fills_omitted_axes(self):
        m = hybrid_mesh("data=G", 8)
        assert m.axis_names == HYBRID_AXES
        assert m.axis_sizes == (1, 1, 8)

    def test_hybrid_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown training-mesh axis"):
            hybrid_mesh("node=2,local=4", 8)

    def test_hybrid_rejects_partial_cover(self):
        with pytest.raises(ValueError, match="must multiply"):
            hybrid_mesh("pipe=2,tensor=2", 16)


class TestMeshCollectives:
    def test_world_size_must_match(self):
        with pytest.raises(ValueError, match="world"):
            comm(4, mesh=hybrid_mesh("data=G", 8))

    def test_allreduce_sums_per_subgroup(self):
        mc = mesh_comm("pipe=2,tensor=2,data=2", 8)
        rng = np.random.default_rng(0)
        arrays = [rng.standard_normal((3, 2)) for _ in range(8)]
        out = mc.axis("data").allreduce(arrays)
        for g in mc.mesh.groups("data"):
            expected = sum(arrays[r] for r in g.ranks)
            for r in g.ranks:
                np.testing.assert_array_equal(out[r], expected)

    def test_allgather_concatenates_in_member_order(self):
        mc = mesh_comm("pipe=1,tensor=2,data=2", 4)
        arrays = [np.full(r + 1, float(r)) for r in range(4)]
        out = mc.axis("tensor").allgather(arrays)
        for g in mc.mesh.groups("tensor"):
            expected = np.concatenate([arrays[r] for r in g.ranks])
            for r in g.ranks:
                np.testing.assert_array_equal(out[r], expected)

    def test_reduce_scatter_splits_the_sum(self):
        mc = mesh_comm("data=G", 4)
        arrays = [np.arange(8.0) + r for r in range(4)]
        out = mc.axis("data").reduce_scatter(arrays)
        total = sum(arrays)
        np.testing.assert_array_equal(
            np.concatenate([out[r] for r in range(4)]), total
        )

    def test_trivial_axis_is_identity(self):
        mc = mesh_comm("pipe=1,tensor=1,data=G", 4)
        arrays = [np.full(2, float(r)) for r in range(4)]
        out = mc.axis("tensor").allreduce(arrays)
        for r in range(4):
            np.testing.assert_array_equal(out[r], arrays[r])
        # ... and an axis spanning the world is the communicator itself.
        assert mc.axis("data") is mc

    def test_single_ledger_event_per_collective(self):
        mc = mesh_comm("pipe=2,tensor=2,data=2", 8)
        before = len(mc.ledger.events)
        mc.axis("data").allreduce([np.ones(4)] * 8, tag="g")
        events = mc.ledger.events[before:]
        assert len(events) == 1
        assert events[0].op == "allreduce"
        assert events[0].tag == "data:g"

    def test_rank_count_checked(self):
        mc = mesh_comm("data=G", 4)
        with pytest.raises(ValueError, match="per-rank arrays"):
            mc.axis("data").allreduce([np.ones(2)] * 3)

    def test_transfer_charges_ledger(self):
        mc = mesh_comm("pipe=2,tensor=1,data=2", 4)
        mc.axis("pipe").transfer(1024, tag="act")
        ev = mc.ledger.events[-1]
        assert ev.op == "transfer"
        assert ev.wire_bytes_per_rank == 1024
        assert ev.tag == "pipe:act"
        assert mc.pending_work == ()
        with pytest.raises(ValueError, match=">= 0"):
            mc.axis("pipe").transfer(-1)

    @given(
        p=st.integers(1, 2),
        t=st.integers(1, 2),
        d=st.integers(1, 3),
        seed=st.integers(0, 20),
        axis=st.sampled_from(HYBRID_AXES),
    )
    @settings(max_examples=30)
    def test_property_subgroup_sums(self, p, t, d, seed, axis):
        world = p * t * d
        mc = comm(world, mesh=DeviceMesh(HYBRID_AXES, (p, t, d)))
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(5) for _ in range(world)]
        out = mc.axis(axis).allreduce(arrays)
        for g in mc.mesh.groups(axis):
            expected = sum(arrays[r] for r in g.ranks)
            for r in g.ranks:
                np.testing.assert_allclose(out[r], expected, rtol=1e-12)


class TestAxisVerifiers:
    """The sanitizer on the funnel checks every axis view's rings."""

    def test_uniform_subgroups_verify_clean(self):
        mc = mesh_comm("pipe=2,tensor=2,data=2", 8)
        san = Sanitizer(mc)
        with mc.timeline.scope("sync"):
            mc.axis("data").allreduce([np.ones(4)] * 8, tag="g")
            mc.axis("tensor").allreduce([np.ones(2)] * 8, tag="h")
        san.finish()
        assert san.collectives_checked == 2

    def test_subgroup_shapes_may_differ_across_groups(self):
        # Each model-parallel shard carries its own envelope: subgroup 0
        # reduces (2, 2) while subgroup 1 reduces (3,), and each ring is
        # checked among its own members only.
        mc = mesh_comm("pipe=2,tensor=1,data=2", 4)
        san = Sanitizer(mc)
        groups = mc.mesh.groups("data")
        arrays: list[np.ndarray] = [None] * 4
        for r in groups[0].ranks:
            arrays[r] = np.ones((2, 2))
        for r in groups[1].ranks:
            arrays[r] = np.ones(3)
        with mc.timeline.scope("sync"):
            mc.axis("data").allreduce(arrays, tag="g")
        san.finish()
        assert san.collectives_checked == 1

    def test_ragged_allgather_is_legal(self):
        # allgatherv: member contributions may differ in length (the
        # counts travel first on a real cluster), on a subgroup ring or
        # on the one ring of the whole world.
        mc = mesh_comm("pipe=2,tensor=1,data=2", 4)
        san = Sanitizer(mc)
        arrays = [np.arange(r + 1) for r in range(4)]
        with mc.timeline.scope("gather"):
            mc.axis("data").allgather(arrays, tag="idx")
            mc.allgather(arrays, tag="idx")
        san.finish()
        assert san.collectives_checked == 2

    def test_global_verifier_composes_with_mesh_ops(self):
        c = mesh_comm("pipe=2,tensor=2,data=2", 8)
        san = Sanitizer(c)
        with c.timeline.scope("sync"):
            c.axis("data").allreduce([np.ones((2, 3)) for _ in range(8)])
            c.axis("tensor").allgather([np.arange(r + 1) for r in range(8)])
        san.finish()
        assert san.collectives_checked == 2


class TestFaultComposition:
    def test_transient_link_fault_fires_on_mesh_op(self):
        plan = FaultPlan(
            [
                FaultEvent(
                    FaultKind.TRANSIENT_LINK,
                    collective_index=0,
                    rank=1,
                    retries=1,
                )
            ],
            seed=0,
        )
        c = ChaosCommunicator(
            4, plan=plan, track_memory=False,
            mesh=hybrid_mesh("tensor=2,data=2", 4),
        )
        with pytest.raises(TransientLinkError):
            c.axis("data").allreduce([np.ones(2)] * 4)
        assert c.ledger.events == []
        # The retry meets an exhausted budget and goes through.
        c.axis("data").allreduce([np.ones(2)] * 4)
        assert c.replay.collectives_issued == 1

    def test_clean_plan_leaves_numerics_alone(self):
        c = ChaosCommunicator(
            4, plan=FaultPlan([]), track_memory=False,
            mesh=hybrid_mesh("tensor=2,data=2", 4),
        )
        out = c.axis("data").allreduce([np.ones(2)] * 4)
        np.testing.assert_array_equal(out[0], np.full(2, 2.0))
