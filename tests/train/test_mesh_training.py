"""Tests for hybrid-mesh training: equivalence, chaos, elastic shrink.

The regression pins, per the mesh design:

* **Trivial mesh**: a ``(pipe=1, tensor=1, data=G)`` mesh *is* the flat
  data-parallel run (one code path; the bit-exactness table lives in
  ``test_sync_composition.py``) — including the configured exchange
  strategy, which the mesh sync once ignored.
* **Hybrid consistency**: a ``(2, 2, 2)`` world of 8 keeps its data
  replicas bit-synchronized, verifies cleanly on every axis ring, and
  charges pipeline/tensor traffic to the shared ledger.
* **Elastic mesh shrink**: a rank loss collapses the data axis only
  (``(p, t, d) -> (p, t, d-1)``); ``data=1`` refuses to shrink.
"""

import numpy as np
import pytest

from repro.cluster import (
    ChaosCommunicator,
    FaultEvent,
    FaultKind,
    FaultPlan,
    LockstepVerifier,
    TransientLinkError,
)
from repro.data import BatchSpec, ONE_BILLION_WORD, make_corpus
from repro.optim import SGD
from repro.train import (
    DistributedTrainer,
    ResilientRunner,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
    assert_replicas_synchronized,
    load_checkpoint,
    save_checkpoint,
)

VOCAB = 60
WORD_CFG = WordLMConfig(
    vocab_size=VOCAB, embedding_dim=6, hidden_dim=8, projection_dim=6,
    num_samples=8,
)
CORPUS = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 6000, seed=0)


def word_trainer(world=4, comm=None, **cfg_overrides):
    cfg = TrainConfig(
        world_size=world, batch=BatchSpec(2, 6), base_lr=0.2,
        **cfg_overrides,
    )
    return DistributedTrainer(
        lambda rng, rank: WordLanguageModel(WORD_CFG, rng),
        lambda params, lr: SGD(params, lr),
        CORPUS.train, CORPUS.valid, cfg, comm=comm,
    )


def weights(trainer):
    return {
        name: p.data.copy()
        for name, p in trainer.replicas[0].named_parameters()
    }


class TestTrivialMeshEquivalence:
    """(1, 1, G) *is* the flat path (the composition table in
    test_sync_composition.py pins the unique-exchange cells); these cover
    the configured strategy on a mesh."""

    def test_baseline_exchange_matches_to_rounding(self):
        # Regression: the mesh sync used to ignore use_unique=False and
        # run (and bill) the uniqueness exchange.  The baseline on the
        # trivial mesh is the flat baseline — weights, ledger ops and
        # wire bytes alike.
        flat = word_trainer(use_unique=False)
        mesh = word_trainer(use_unique=False, mesh="data=G")
        for _ in range(3):
            flat.train_step()
            mesh.train_step()
        fw, mw = weights(flat), weights(mesh)
        for name in fw:
            np.testing.assert_array_equal(mw[name], fw[name])
        assert mesh.comm.ledger.events == flat.comm.ledger.events
        assert "allreduce" in flat.comm.ledger.bytes_by_op()
        assert (
            mesh.comm.ledger.bytes_by_op() == flat.comm.ledger.bytes_by_op()
        )

    def test_baseline_on_hybrid_mesh_gathers_more_than_unique(self):
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
        assert len(tr.replicas) == 4


class TestHybridMesh:
    def test_replicas_stay_synchronized(self):
        tr = word_trainer(world=8, mesh="pipe=2,tensor=2,data=")
        assert tr.data_parallel == 2
        assert len(tr.replicas) == 2
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
        verifier = LockstepVerifier.attach(tr.comm)
        for _ in range(3):
            tr.train_step()
        verifier.check("test: end of run")
        rings = verifier.axis_rings["data"]
        assert len(rings) == 4
        assert all(r.check("test").verified > 0 for r in rings)

    def test_differential_chaos_transient_fault_is_survivable(
        self, tmp_path
    ):
        """Acceptance: hybrid mesh + per-axis verifiers + chaos plan —
        a retried transient fault leaves the weights bit-identical to
        the fault-free arm."""
        world = 8
        plan = FaultPlan(
            [
                FaultEvent(
                    FaultKind.TRANSIENT_LINK, collective_index=5,
                    rank=3, retries=1,
                )
            ],
            seed=0,
        )

        def factory(cfg, comm):
            return DistributedTrainer(
                lambda rng, rank: WordLanguageModel(WORD_CFG, rng),
                lambda params, lr: SGD(params, lr),
                CORPUS.train, CORPUS.valid, cfg, comm=comm,
            )

        cfg = TrainConfig(
            world_size=world, batch=BatchSpec(2, 6), base_lr=0.2,
            mesh="pipe=2,tensor=2,data=",
        )
        chaos_comm = ChaosCommunicator(world, plan=plan, track_memory=False)
        verifier = LockstepVerifier.attach(chaos_comm)
        runner = ResilientRunner(
            factory, cfg, tmp_path / "ckpt.npz", comm=chaos_comm,
            checkpoint_every=3,
        )
        faulted = runner.run(4)
        verifier.check("test: after chaos")
        assert verifier.axis_rings["data"]
        assert any(e.kind == "retry" for e in runner.events)
        # Same replay position as before the funnel hooks existed.
        assert [(i, op) for i, op, _ in chaos_comm.injected] == [
            (5, "allreduce")
        ]
        assert chaos_comm.collectives_issued == 41

        clean = word_trainer(world=world, mesh="pipe=2,tensor=2,data=")
        for _ in range(4):
            clean.train_step()
        fw, cw = weights(faulted), weights(clean)
        for name in cw:
            np.testing.assert_array_equal(fw[name], cw[name])

    def test_transient_fault_fires_through_mesh_collectives(self):
        plan = FaultPlan(
            [
                FaultEvent(
                    FaultKind.TRANSIENT_LINK, collective_index=0,
                    rank=0, retries=1,
                )
            ],
            seed=0,
        )
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
        fw, tw = weights(fresh), weights(tr)
        for name in tw:
            np.testing.assert_array_equal(fw[name], tw[name])

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
        cfg = TrainConfig(
            world_size=world, batch=BatchSpec(2, 6), base_lr=0.2,
            mesh=mesh,
        )

        def factory(cfg, comm):
            return DistributedTrainer(
                lambda rng, rank: WordLanguageModel(WORD_CFG, rng),
                lambda params, lr: SGD(params, lr),
                CORPUS.train, CORPUS.valid, cfg, comm=comm,
            )

        comm = ChaosCommunicator(world, plan=plan, track_memory=False)
        return ResilientRunner(
            factory, cfg, tmp_path / "ckpt.npz", comm=comm,
            checkpoint_every=2,
        )

    def test_rank_loss_collapses_data_axis(self, tmp_path):
        plan = FaultPlan(
            [FaultEvent(FaultKind.RANK_LOSS, collective_index=9, rank=7)]
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
            [FaultEvent(FaultKind.RANK_LOSS, collective_index=3, rank=0)]
        )
        runner = self.runner(
            tmp_path, plan, world=4, mesh="pipe=2,tensor=2,data=1"
        )
        with pytest.raises(ValueError, match="data axis"):
            runner.run(4)
