"""Tests for hybrid-mesh training: equivalence, chaos, elastic shrink.

The regression pins, per the mesh design:

* **Trivial mesh**: a ``(pipe=1, tensor=1, data=G)`` mesh *is* the flat
  data-parallel run (one code path; the bit-exactness cells live in
  ``tests/conformance``) — including the configured exchange strategy,
  which the mesh sync once ignored.
* **Hybrid consistency**: a ``(2, 2, 2)`` world of 8 keeps its data
  replicas bit-synchronized, sanitizes cleanly on every axis ring, and
  charges pipeline/tensor traffic to the shared ledger.
* **Elastic mesh shrink**: a rank loss collapses the data axis only
  (``(p, t, d) -> (p, t, d-1)``); ``data=1`` refuses to shrink.
"""

import numpy as np
import pytest

from repro.analysis import Sanitizer
from repro.cluster import (
    ChaosCommunicator,
    FaultEvent,
    FaultKind,
    FaultPlan,
    TransientLinkError,
)
from repro.train import (
    ResilientRunner,
    TrainConfig,
    assert_replicas_synchronized,
    load_checkpoint,
    save_checkpoint,
)

from ..conformance.cells import conform
from ..conformance.reference import BATCH, word_trainer
from ..helpers import assert_same_state


class TestTrivialMeshEquivalence:
    """(1, 1, G) *is* the flat path (the composition table in
    test_sync_composition.py pins the unique-exchange cells); these cover
    the configured strategy on a mesh."""

    def test_baseline_exchange_matches_to_rounding(self):
        # Regression: the mesh sync used to ignore use_unique=False and
        # run (and bill) the uniqueness exchange.  The baseline on the
        # trivial mesh is the flat baseline — weights and the ledger's
        # ops, bytes and seconds alike (the conformance ledger class).
        mesh = conform(use_unique=False, mesh="data=G", world_size=4)
        assert "allreduce" in mesh.comm.ledger.bytes_by_op()

    def test_baseline_on_hybrid_mesh_gathers_more_than_unique(self):
        # The baseline ships token-level rows (in the flat order, so it
        # stays bit-exact); the unique path ships locally-unique ones.
        def gathered(use_unique):
            tr = word_trainer(
                world=8, use_unique=use_unique, mesh="pipe=2,tensor=2,data=G/4"
            )
            for _ in range(2):
                tr.train_step()
            assert_replicas_synchronized(tr.replicas, atol=0.0)
            return tr.comm.ledger.bytes_by_op()

        base, uniq = gathered(False), gathered(True)
        # The baseline gathers value rows; the unique path gathers
        # indices only and allreduces the aligned rows instead.
        assert base["allgather"] > uniq["allgather"]
        assert uniq["allreduce"] > base["allreduce"]

    def test_mesh_run_keeps_replica_count(self):
        tr = word_trainer(mesh="data=G")
        assert tr.data_parallel == 4
        assert len(tr.rank_streams) == 4
        assert tr.batched_executor.width == 4


class TestHybridMesh:
    def test_replicas_stay_synchronized(self):
        tr = word_trainer(world=8, mesh="pipe=2,tensor=2,data=")
        assert tr.data_parallel == 2
        assert tr.batched_executor.width == 2
        for _ in range(4):
            loss = tr.train_step()
            assert np.isfinite(loss)
        assert_replicas_synchronized(tr.replicas, atol=0.0)

    def test_gradient_sync_runs_on_data_axis_only(self):
        tr = word_trainer(world=8, mesh="pipe=2,tensor=2,data=")
        tr.train_step()
        events = tr.comm.ledger.events
        assert events, "the sync issued no collectives"
        assert all(e.tag.startswith("data:") for e in events)

    def test_per_axis_verifiers_stay_clean(self):
        tr = word_trainer(world=8, mesh="pipe=2,tensor=2,data=")
        san = Sanitizer(tr.comm)
        for _ in range(3):
            tr.train_step()
        san.finish()
        assert san.collectives_checked == len(tr.comm.ledger.events) > 0
        assert len(tr.comm.axis("data").groups) == 4

    def test_differential_chaos_transient_fault_is_survivable(self):
        """Acceptance: hybrid mesh + sanitizer + chaos plan — a retried
        transient fault leaves the run where the reference puts it."""
        plan = FaultPlan([FaultEvent(FaultKind.TRANSIENT_LINK, 2, rank=3)])
        faulted = conform(
            plan=plan, mesh="pipe=2,tensor=2,data=", observer="sanitize",
            compute_seconds_per_step=None, steps=4,
        )
        replay = faulted.comm.replay
        # Pinned replay position: the step's one dense run (its
        # projection.weight member), four collectives per step (one
        # gather stage, then three allreduces).
        assert [(i, op) for i, op, _ in replay.injected] == [(2, "allreduce")]
        assert replay.collectives_issued == 18

    def test_transient_fault_fires_through_mesh_collectives(self):
        plan = FaultPlan([FaultEvent(FaultKind.TRANSIENT_LINK, 0)])
        comm = ChaosCommunicator(8, plan=plan, track_memory=False)
        tr = word_trainer(world=8, comm=comm, mesh="pipe=2,tensor=2,data=")
        with pytest.raises(TransientLinkError):
            tr.train_step()


class TestMeshCheckpoint:
    def test_roundtrip_preserves_mesh_run(self, tmp_path):
        tr = word_trainer(world=8, mesh="pipe=2,tensor=2,data=")
        tr.train_step()
        save_checkpoint(tmp_path / "c.npz", tr)
        fresh = word_trainer(world=8, mesh="pipe=2,tensor=2,data=")
        step = load_checkpoint(tmp_path / "c.npz", fresh)
        assert step == 1
        assert_same_state(
            fresh.replicas[0].state_dict(), tr.replicas[0].state_dict()
        )

    def test_model_axes_must_match(self, tmp_path):
        tr = word_trainer(world=8, mesh="pipe=2,tensor=2,data=")
        save_checkpoint(tmp_path / "c.npz", tr)
        other = word_trainer(world=8, mesh="pipe=4,tensor=1,data=")
        with pytest.raises(ValueError, match="re-cut"):
            load_checkpoint(tmp_path / "c.npz", other)

    def test_flat_checkpoint_rejects_model_parallel_trainer(self, tmp_path):
        tr = word_trainer(world=8)
        save_checkpoint(tmp_path / "c.npz", tr)
        other = word_trainer(world=8, mesh="pipe=2,tensor=2,data=")
        with pytest.raises(ValueError, match="re-cut"):
            load_checkpoint(tmp_path / "c.npz", other)

    def test_flat_checkpoint_loads_into_trivial_mesh(self, tmp_path):
        tr = word_trainer(world=4)
        tr.train_step()
        save_checkpoint(tmp_path / "c.npz", tr)
        mesh = word_trainer(world=4, mesh="data=G")
        assert load_checkpoint(tmp_path / "c.npz", mesh) == 1

    def test_elastic_load_may_shrink_data_axis_only(self, tmp_path):
        tr = word_trainer(world=8, mesh="pipe=2,tensor=2,data=2")
        tr.train_step()
        save_checkpoint(tmp_path / "c.npz", tr)
        shrunk = word_trainer(world=4, mesh="pipe=2,tensor=2,data=1")
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path / "c.npz", shrunk)  # not elastic
        assert load_checkpoint(
            tmp_path / "c.npz", shrunk, elastic=True
        ) == 1


class TestElasticMeshShrink:
    def runner(self, tmp_path, plan, world, mesh):
        comm = ChaosCommunicator(world, plan=plan, track_memory=False)
        return ResilientRunner(
            lambda cfg, comm: word_trainer(cfg.world_size, comm, mesh=cfg.mesh),
            TrainConfig(world_size=world, batch=BATCH, base_lr=0.2, mesh=mesh),
            tmp_path / "ckpt.npz", comm=comm, checkpoint_every=2,
        )

    def test_rank_loss_collapses_data_axis(self, tmp_path):
        plan = FaultPlan(
            [FaultEvent(FaultKind.RANK_LOSS, collective_index=5, rank=7)]
        )
        runner = self.runner(
            tmp_path, plan, world=8, mesh="pipe=2,tensor=2,data=2"
        )
        trainer = runner.run(5)
        assert trainer.config.world_size == 4
        assert trainer.config.mesh == "pipe=2,tensor=2,data=1"
        assert trainer.config.mesh_shape == (2, 2, 1)
        assert runner.lr_scale == pytest.approx(0.5)
        assert trainer.global_step == 5
        assert_replicas_synchronized(trainer.replicas, atol=0.0)

    def test_data_axis_of_one_refuses_to_shrink(self, tmp_path):
        plan = FaultPlan(
            [FaultEvent(FaultKind.RANK_LOSS, collective_index=2, rank=0)]
        )
        runner = self.runner(
            tmp_path, plan, world=4, mesh="pipe=2,tensor=2,data=1"
        )
        with pytest.raises(ValueError, match="data axis"):
            runner.run(4)
