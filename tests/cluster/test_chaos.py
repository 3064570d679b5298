"""Tests for the declarative fault plans and the chaos communicator."""

import numpy as np
import pytest

from repro.cluster import (
    ChaosCommunicator,
    Communicator,
    FaultEvent,
    FaultKind,
    FaultPlan,
    RankFailureError,
    TransientLinkError,
)

from ..helpers import only_transient, permanent_events, transient_events


def arrays_for(world, shape=(4,), seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape) for _ in range(world)]


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=-1)
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=0, rank=-2)
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=0, retries=0)
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.STRAGGLER, collective_index=0, slowdown=0.5)

    def test_dict_roundtrip(self):
        ev = FaultEvent(
            FaultKind.TRANSIENT_LINK, collective_index=3, rank=1, retries=2
        )
        assert FaultEvent.from_dict(ev.to_dict()) == ev

    def test_from_dict_defaults(self):
        ev = FaultEvent.from_dict(
            {"kind": "rank_loss", "collective_index": 5}
        )
        assert ev.kind is FaultKind.RANK_LOSS
        assert ev.rank == 0
        assert ev.retries == 1


class TestFaultPlan:
    def test_events_sorted_by_collective_index(self):
        plan = FaultPlan(
            [
                FaultEvent(FaultKind.RANK_LOSS, collective_index=9),
                FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=2),
            ]
        )
        assert [e.collective_index for e in plan.events] == [2, 9]
        assert len(plan) == 2

    def test_kind_subsets_and_only_transient(self):
        plan = FaultPlan(
            [
                FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=1),
                FaultEvent(FaultKind.RANK_LOSS, collective_index=4),
                FaultEvent(FaultKind.STRAGGLER, collective_index=2),
            ],
            seed=11,
        )
        assert len(transient_events(plan)) == 1
        assert len(permanent_events(plan)) == 1
        stripped = only_transient(plan)
        assert permanent_events(stripped) == ()
        assert len(stripped) == 2
        assert stripped.seed == 11

    def test_json_roundtrip(self, tmp_path):
        plan = FaultPlan.random(
            seed=3, world_size=4, num_collectives=20, n_transient=2,
            n_rank_loss=1, n_straggler=1,
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = FaultPlan.load(path)
        assert loaded.seed == plan.seed
        assert loaded.events == plan.events

    def test_random_is_deterministic_in_seed(self):
        a = FaultPlan.random(seed=5, world_size=3, num_collectives=30)
        b = FaultPlan.random(seed=5, world_size=3, num_collectives=30)
        c = FaultPlan.random(seed=6, world_size=3, num_collectives=30)
        assert a.events == b.events
        assert a.events != c.events

    def test_random_rank_loss_lands_in_second_half(self):
        for seed in range(10):
            plan = FaultPlan.random(
                seed=seed, world_size=4, num_collectives=40,
                n_transient=0, n_rank_loss=1,
            )
            (loss,) = permanent_events(plan)
            assert 20 <= loss.collective_index < 40

    def test_random_validation(self):
        with pytest.raises(ValueError):
            FaultPlan.random(seed=0, world_size=0, num_collectives=10)
        with pytest.raises(ValueError):
            FaultPlan.random(seed=0, world_size=2, num_collectives=0)


class TestChaosCommunicator:
    def test_empty_plan_is_a_plain_communicator(self):
        chaos = ChaosCommunicator(2, track_memory=False)
        plain = Communicator(2, track_memory=False)
        arrays = arrays_for(2)
        np.testing.assert_array_equal(
            chaos.allreduce(arrays)[0], plain.allreduce(arrays)[0]
        )
        assert chaos.replay.collectives_issued == 1
        assert chaos.replay.injected == []

    def test_transient_fires_retries_times_then_succeeds(self):
        plan = FaultPlan(
            [FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=1,
                        rank=1, retries=2)]
        )
        comm = ChaosCommunicator(2, plan=plan, track_memory=False)
        arrays = arrays_for(2)
        comm.allreduce(arrays)  # collective 0: clean
        for attempt in (1, 2):
            with pytest.raises(TransientLinkError) as exc:
                comm.allreduce(arrays)
            assert exc.value.attempt == attempt
            assert exc.value.rank == 1
            # A faulted issue does not advance the collective counter.
            assert comm.replay.collectives_issued == 1
        comm.allreduce(arrays)  # budget exhausted: goes through
        assert comm.replay.collectives_issued == 2
        assert len(comm.replay.injected) == 2

    def test_rank_loss_fires_once(self):
        plan = FaultPlan(
            [FaultEvent(FaultKind.RANK_LOSS, collective_index=0, rank=1)]
        )
        comm = ChaosCommunicator(2, plan=plan, track_memory=False)
        with pytest.raises(RankFailureError) as exc:
            comm.allgather(arrays_for(2))
        assert exc.value.rank == 1
        # The permanent event fired; subsequent issues are clean.
        comm.allgather(arrays_for(2))
        assert comm.replay.collectives_issued == 1

    def test_straggler_scales_timeline_without_raising(self):
        plan = FaultPlan(
            [FaultEvent(FaultKind.STRAGGLER, collective_index=0, rank=1,
                        slowdown=2.5)]
        )
        comm = ChaosCommunicator(2, plan=plan, track_memory=False)
        comm.allreduce(arrays_for(2))
        assert comm.timeline.compute_scale[1] == 2.5
        assert len(comm.replay.injected) == 1
        assert comm.replay.collectives_issued == 1

    def test_fault_fires_before_any_state_mutation(self):
        plan = FaultPlan(
            [FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=0)]
        )
        comm = ChaosCommunicator(2, plan=plan)
        with pytest.raises(TransientLinkError):
            comm.iallreduce(arrays_for(2))
        # No scratch charged, nothing scheduled, nothing recorded.
        assert comm.pending_work == ()
        assert comm.peak_bytes_per_rank == 0
        assert len(comm.ledger.events) == 0
        assert comm.timeline.makespan == 0.0

    def test_due_events_fire_even_if_index_was_skipped(self):
        # An event keyed at index 1 is still due when the counter jumps
        # straight past it (events trigger "at or after" their index).
        plan = FaultPlan(
            [FaultEvent(FaultKind.RANK_LOSS, collective_index=1, rank=0)]
        )
        comm = ChaosCommunicator(2, plan=plan, track_memory=False)
        comm.allreduce(arrays_for(2))
        with pytest.raises(RankFailureError):
            comm.reduce_scatter(arrays_for(2))
        assert comm.replay.injected[0][1] == "reduce_scatter"

    def test_every_op_is_plan_checked(self):
        arrays = arrays_for(2)
        for op_name in ("allreduce", "allgather", "reduce_scatter"):
            plan = FaultPlan(
                [FaultEvent(FaultKind.TRANSIENT_LINK, collective_index=0)]
            )
            comm = ChaosCommunicator(2, plan=plan, track_memory=False)
            issue = getattr(comm, f"i{op_name}")
            with pytest.raises(TransientLinkError) as exc:
                issue(arrays)
            assert exc.value.op == op_name
