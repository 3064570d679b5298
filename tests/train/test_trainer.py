"""Tests for the SPMD distributed trainer."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.seeding import SeedStrategy
from repro.data import BatchSpec
from repro.optim import SGD
from repro.train import (
    CharLanguageModel,
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    assert_replicas_synchronized,
    max_replica_divergence,
)

from ..conformance.cells import conform
from ..conformance.reference import CHAR_CFG, CORPUS, WORD_CFG, word_trainer


class TestReplicaConsistency:
    """The core invariant: replicas stay bit-identical through training."""

    # Conformance cells: each also asserts the replicas bit-synchronized.
    @pytest.mark.parametrize("use_unique", [True, False])
    def test_word_lm_replicas_stay_synchronized(self, use_unique):
        conform(use_unique=use_unique, world_size=4, steps=4)

    def test_char_lm_replicas_stay_synchronized(self):
        conform(model="char", optimizer="adam", world_size=2, steps=4)

    def test_fp16_codec_keeps_replicas_synchronized(self):
        """Compression is lossy but *identical* on all ranks."""
        conform(wire_codec="fp16", world_size=4)

    @staticmethod
    def unshared_pair():
        """Two hand-built equal models, each with its own arrays."""
        return [
            WordLanguageModel(WORD_CFG, np.random.default_rng(7))
            for _ in range(2)
        ]

    def test_divergence_helper(self):
        pair = self.unshared_pair()
        assert max_replica_divergence(pair) == 0.0
        pair[1].embedding.weight.data[0, 0] += 1.0
        assert max_replica_divergence(pair) == pytest.approx(1.0)
        with pytest.raises(AssertionError):
            assert_replicas_synchronized(pair)

    def test_divergence_helper_sees_nan(self):
        """``max(0.0, nan)`` is ``0.0``: a NaN facing a number must not
        read as agreement; the same NaN on both sides is agreement."""
        pair = self.unshared_pair()
        pair[1].embedding.weight.data[3, 1] = np.nan
        assert max_replica_divergence(pair) == np.inf
        with pytest.raises(AssertionError):
            assert_replicas_synchronized(pair)
        pair[0].embedding.weight.data[3, 1] = np.nan
        assert max_replica_divergence(pair) == 0.0

    def test_divergence_helper_compares_bits(self):
        pair = self.unshared_pair()
        pair[0].embedding.weight.data[0, 0] = 0.0
        pair[1].embedding.weight.data[0, 0] = -0.0
        assert max_replica_divergence(pair) > 0.0

    def test_shared_world_is_compared_by_identity(self):
        """Arrays bound to rank 0's are equal without being read — a NaN
        there is no divergence — so a rebound array is what diverges.  A
        trainer's replica list is its one model."""
        tr = word_trainer(world=3)
        assert tr.replicas == [tr.model]
        assert max_replica_divergence(tr.replicas) == 0.0
        pair = self.unshared_pair()
        for (_, p), (_, q) in zip(
            pair[0].named_parameters(), pair[1].named_parameters()
        ):
            q.data = p.data
        pair[0].embedding.weight.data[0, 0] = np.nan  # both see it
        assert max_replica_divergence(pair) == 0.0
        weight = pair[1].embedding.weight
        weight.data = weight.data.copy()
        weight.data[0, 0] = 1.0
        assert max_replica_divergence(pair) == np.inf

    def test_unequal_factory_is_a_typed_error(self):
        """Ranks must start equal: a per-rank build (made for a model
        with module streams) that seeds its weights off ``rank`` used to
        train G different models silently."""
        with pytest.raises(ValueError, match="embedding.weight.*start equal"):
            DistributedTrainer(
                lambda rng, rank: CharLanguageModel(
                    CHAR_CFG, np.random.default_rng(rank)
                ),
                lambda params, lr: SGD(params, lr),
                CORPUS.train,
                CORPUS.valid,
                TrainConfig(world_size=2, batch=BatchSpec(2, 6), base_lr=0.2),
            )


class TestExchangeEquivalence:
    def test_unique_and_baseline_train_identically(self):
        """Strategy choice must not change the learned model (float64)."""
        tr_u = word_trainer(use_unique=True)
        tr_b = word_trainer(use_unique=False)
        for _ in range(4):
            tr_u.train_step()
            tr_b.train_step()
        for (n, pu), (_, pb) in zip(
            tr_u.replicas[0].named_parameters(),
            tr_b.replicas[0].named_parameters(),
        ):
            np.testing.assert_allclose(
                pu.data, pb.data, rtol=1e-9, atol=1e-12, err_msg=n
            )


class TestTraining:
    def test_epoch_improves_perplexity(self):
        tr = word_trainer(world=2)
        start = np.exp(tr.evaluate())
        stats = tr.train_epoch(max_steps=40, evals_per_epoch=1)
        assert stats.eval_points[-1].perplexity < start

    def test_lr_schedule_applied_per_epoch(self):
        tr = word_trainer(world=2)
        s0 = tr.train_epoch(max_steps=2)
        s1 = tr.train_epoch(max_steps=2)
        assert s1.lr == pytest.approx(s0.lr * 0.9)
        assert tr.optimizer.lr == s1.lr

    def test_eval_points_recorded(self):
        tr = word_trainer(world=2)
        stats = tr.train_epoch(max_steps=6, evals_per_epoch=3)
        assert len(stats.eval_points) == 3
        assert stats.eval_points[-1].epoch == pytest.approx(1.0)

    def test_history_accumulates(self):
        tr = word_trainer(world=2)
        tr.train_epoch(max_steps=2)
        tr.train_epoch(max_steps=2)
        assert [s.epoch for s in tr.history] == [0, 1]

    def test_global_step_advances(self):
        tr = word_trainer(world=2)
        tr.train_step()
        tr.train_step()
        assert tr.global_step == 2

    def test_max_steps_validation(self):
        tr = word_trainer(world=2)
        with pytest.raises(ValueError):
            tr.train_epoch(max_steps=0)

    def test_dropped_overlap_trainer_dies_with_its_last_reference(self):
        """The backward-slice hook must not tie trainer and synchronizer
        into a cycle: a world of replicas would then wait for the cyclic
        collector (and pile up between collections)."""
        gc.collect()
        gc.disable()
        try:
            tr = word_trainer(
                world=2, overlap=True, compute_seconds_per_step=0.01
            )
            tr.train_step()
            assert any(
                e.name.startswith("bwd:") for e in tr.comm.timeline.events
            )
            ref = weakref.ref(tr)
            del tr
            assert ref() is None
        finally:
            gc.enable()


class TestSeeding:
    def test_all_same_strategy_shares_candidates(self):
        tr = word_trainer(world=4, seed_strategy=SeedStrategy.ALL_SAME)
        gens = tr.seed_assignment.rank_generators(step=0)
        draws = [g.integers(0, 1000, 5).tolist() for g in gens]
        assert all(d == draws[0] for d in draws)

    def test_per_rank_strategy_differs(self):
        tr = word_trainer(world=4, seed_strategy=SeedStrategy.PER_RANK)
        gens = tr.seed_assignment.rank_generators(step=0)
        draws = {tuple(g.integers(0, 1000, 5).tolist()) for g in gens}
        assert len(draws) > 1

    def test_shared_seeds_shrink_output_exchange(self):
        """ALL_SAME must move fewer output-embedding bytes than PER_RANK."""
        tr_same = word_trainer(world=4, seed_strategy=SeedStrategy.ALL_SAME)
        tr_diff = word_trainer(world=4, seed_strategy=SeedStrategy.PER_RANK)
        for _ in range(2):
            tr_same.train_step()
            tr_diff.train_step()

        def out_bytes(tr):
            return tr.comm.ledger.bytes_by_scope()["sync/loss_layer.weight"]

        assert out_bytes(tr_same) < out_bytes(tr_diff)

    def test_packed_bytes_are_credited_to_their_members(self):
        """The two embeddings' index gathers ride one packed allgather;
        each member is credited its own share, so the seeding strategy
        moves the output embedding's bytes only."""
        credited = {}
        for strategy in (SeedStrategy.ALL_SAME, SeedStrategy.PER_RANK):
            tr = word_trainer(world=4, seed_strategy=strategy)
            for _ in range(2):
                tr.train_step()
            ledger = tr.comm.ledger
            pack = "sync/embedding.weight+loss_layer.weight"
            assert pack in {e.scope for e in ledger.events}
            by_scope = ledger.bytes_by_scope()
            assert pack not in by_scope  # split among its members
            assert sum(by_scope.values()) == ledger.total_wire_bytes_per_rank
            credited[strategy] = by_scope
        same, diff = (
            credited[s] for s in (SeedStrategy.ALL_SAME, SeedStrategy.PER_RANK)
        )
        assert same["sync/embedding.weight"] == diff["sync/embedding.weight"]
        assert same["sync/loss_layer.weight"] != diff["sync/loss_layer.weight"]


class TestValidation:
    def test_comm_world_mismatch_rejected(self):
        from repro.cluster import Communicator

        cfg = TrainConfig(world_size=4, batch=BatchSpec(2, 6), base_lr=0.2)
        with pytest.raises(ValueError):
            DistributedTrainer(
                lambda rng, rank: WordLanguageModel(WORD_CFG, rng),
                lambda params, lr: SGD(params, lr),
                CORPUS.train,
                CORPUS.valid,
                cfg,
                comm=Communicator(2, track_memory=False),
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(world_size=0, batch=BatchSpec(1, 1), base_lr=0.1)
        with pytest.raises(ValueError):
            TrainConfig(world_size=1, batch=BatchSpec(1, 1), base_lr=0.0)

    def test_num_nodes(self):
        cfg = TrainConfig(world_size=12, batch=BatchSpec(1, 1), base_lr=0.1)
        assert cfg.num_nodes == 2
