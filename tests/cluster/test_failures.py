"""Tests for fault injection and checkpoint/restart recovery."""

import numpy as np
import pytest

from repro.cluster import (
    ChaosCommunicator,
    FaultEvent,
    FaultKind,
    ring_allreduce_time,
)
from repro.cluster.failures import RankFailureError, degrade_fabric
from repro.cluster.interconnect import PAPER_CLUSTER_FABRIC
from repro.train import load_checkpoint, save_checkpoint

from ..conformance.reference import word_trainer
from ..helpers import assert_same_state, crashing_comm


def trainer_with(comm=None, world=2):
    return word_trainer(world, comm)


class TestDegradedFabric:
    def test_bandwidth_reduced_latency_kept(self):
        slow = degrade_fabric(PAPER_CLUSTER_FABRIC, inter_factor=4.0)
        assert slow.inter_node.bandwidth == pytest.approx(
            PAPER_CLUSTER_FABRIC.inter_node.bandwidth / 4
        )
        assert slow.inter_node.latency == PAPER_CLUSTER_FABRIC.inter_node.latency
        assert slow.intra_node.bandwidth == PAPER_CLUSTER_FABRIC.intra_node.bandwidth

    def test_degradation_slows_collectives(self):
        slow = degrade_fabric(PAPER_CLUSTER_FABRIC, inter_factor=2.0)
        n = 10**8
        t_healthy = ring_allreduce_time(
            16, n, PAPER_CLUSTER_FABRIC.ring_link(16)
        )
        t_slow = ring_allreduce_time(16, n, slow.ring_link(16))
        assert t_slow == pytest.approx(2 * t_healthy, rel=0.01)

    def test_upgrades_rejected(self):
        with pytest.raises(ValueError):
            degrade_fabric(PAPER_CLUSTER_FABRIC, intra_factor=0.5)


class TestFailingCommunicator:
    """A node crash mid-step: a one-event ``RANK_LOSS`` fault plan."""

    def test_fails_after_budget(self):
        comm = crashing_comm(2, crash_at=2, track_memory=False)
        arrays = [np.ones(4) for _ in range(2)]
        comm.allreduce(arrays)
        comm.allgather(arrays)
        with pytest.raises(RankFailureError) as exc:
            comm.allreduce(arrays)
        assert exc.value.collective_index == 2
        assert exc.value.op == "allreduce"

    def test_no_budget_never_fails(self):
        comm = ChaosCommunicator(2, track_memory=False)  # empty plan
        for _ in range(10):
            comm.allreduce([np.ones(2)] * 2)

    def test_failure_before_state_mutation(self):
        comm = crashing_comm(2, crash_at=0, track_memory=False)
        with pytest.raises(RankFailureError):
            comm.allreduce([np.ones(2)] * 2)
        assert len(comm.ledger.events) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.RANK_LOSS, collective_index=-1)
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.RANK_LOSS, collective_index=0, rank=-1)


class TestElasticRecovery:
    def test_crash_surfaces_from_training(self):
        comm = crashing_comm(2, crash_at=3, track_memory=False)
        tr = trainer_with(comm=comm)
        with pytest.raises(RankFailureError):
            for _ in range(10):
                tr.train_step()

    def test_checkpoint_restart_matches_uninterrupted_run(self, tmp_path):
        """The full elastic story: train, checkpoint, crash, restore on a
        fresh communicator, continue — bit-identical to a run that never
        crashed."""
        straight = trainer_with()
        for _ in range(6):
            straight.train_step()

        # Interrupted run: checkpoint at step 4, crash during step 5
        # (two collectives into it; every step issues the same count).
        per_step = len(straight.comm.ledger.events) // 6
        flaky_comm = crashing_comm(
            2, crash_at=4 * per_step + 2, track_memory=False
        )
        victim = trainer_with(comm=flaky_comm)
        for _ in range(4):
            victim.train_step()
        ckpt = tmp_path / "elastic.npz"
        save_checkpoint(ckpt, victim)
        with pytest.raises(RankFailureError):
            victim.train_step()

        # Replacement job: fresh hardware, restore, run the last 2 steps.
        revived = trainer_with()
        assert load_checkpoint(ckpt, revived) == 4
        for _ in range(2):
            revived.train_step()

        assert_same_state(
            straight.replicas[0].state_dict(), revived.replicas[0].state_dict()
        )
