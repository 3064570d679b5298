"""End-to-end integration tests tying the substrates together.

These exercise the full paper pipeline at miniature scale: Zipfian data
-> sharded batching -> SPMD training with all three techniques -> the
accuracy and cost claims, plus the OOM reproduction that motivates the
whole paper.
"""

import numpy as np
import pytest

from repro.cluster import Communicator, DeviceOOMError, DeviceSpec
from repro.core import SeedStrategy
from repro.data import BatchSpec, ONE_BILLION_WORD, TIEBA, make_corpus
from repro.optim import SGD, Adam
from repro.train import (
    CharLanguageModel,
    CharLMConfig,
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
    assert_replicas_synchronized,
    perplexity,
)

VOCAB = 80
WORD_CFG = WordLMConfig(
    vocab_size=VOCAB, embedding_dim=8, hidden_dim=10, projection_dim=8, num_samples=12
)
CORPUS = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 20_000, seed=5)


def make_word_trainer(world, steps_cfg=None, **overrides):
    cfg = TrainConfig(
        world_size=world, batch=BatchSpec(2, 8), base_lr=0.3, **overrides
    )
    return DistributedTrainer(
        lambda rng, rank: WordLanguageModel(WORD_CFG, rng),
        lambda params, lr: SGD(params, lr),
        CORPUS.train,
        CORPUS.valid,
        cfg,
    )


class TestFullTrainingPipeline:
    def test_techniques_train_to_same_quality_as_baseline(self):
        """Headline accuracy claim: uniqueness+compression achieve the
        baseline's perplexity (Figure 5 / Section V-A)."""
        base = make_word_trainer(4, use_unique=False)
        full = make_word_trainer(
            4,
            use_unique=True,
            wire_codec="fp16",
            seed_strategy=SeedStrategy.ZIPF_FREQ,
        )
        initial = perplexity(full.evaluate())
        for tr in (base, full):
            tr.train_epoch(max_steps=50, evals_per_epoch=1)
        p_base = base.history[-1].final_perplexity
        p_full = full.history[-1].final_perplexity
        assert p_full == pytest.approx(p_base, rel=0.05)
        # Both actually learned something.
        assert p_full < initial * 0.9

    def test_techniques_move_fewer_bytes(self):
        """Headline cost claim: same training, much less traffic."""
        base = make_word_trainer(4, use_unique=False)
        full = make_word_trainer(4, use_unique=True, wire_codec="fp16")
        for tr in (base, full):
            for _ in range(5):
                tr.train_step()

        def embedding_bytes(tr):
            return sum(
                b
                for scope, b in tr.comm.ledger.bytes_by_scope().items()
                if "embedding" in scope or "loss_layer" in scope
            )

        assert embedding_bytes(full) < embedding_bytes(base) / 2

    def test_more_gpus_same_convergence_with_lr_scaling(self):
        """Figure 5 shape: bigger G starts behind, converges comparably."""
        small = make_word_trainer(2)
        large = make_word_trainer(8)
        for tr in (small, large):
            for _ in range(60):
                tr.train_step()
        p_small = perplexity(small.evaluate())
        p_large = perplexity(large.evaluate())
        assert p_large < VOCAB  # learned
        assert p_large == pytest.approx(p_small, rel=0.35)

    def test_char_lm_pipeline_on_tieba_preset(self):
        """Weak-scaling substrate: Chinese-sized vocab char LM trains."""
        vocab = 120
        # Tieba's 1000:1 split needs a long stream for a usable validation
        # slice at this batch shape.
        corpus = make_corpus(TIEBA.scaled(vocab), 30_000, seed=1)
        cfg = TrainConfig(
            world_size=2, batch=BatchSpec(2, 6), base_lr=2e-3
        )
        char_cfg = CharLMConfig(
            vocab_size=vocab, embedding_dim=6, hidden_dim=8, depth=2, dropout=0.0
        )
        tr = DistributedTrainer(
            lambda rng, rank: CharLanguageModel(
                char_cfg, rng, dropout_rng=np.random.default_rng(rank)
            ),
            lambda params, lr: Adam(params, lr),
            corpus.train,
            corpus.valid,
            cfg,
        )
        before = perplexity(tr.evaluate())
        tr.train_epoch(max_steps=40, evals_per_epoch=1)
        after = tr.history[-1].final_perplexity
        assert after < before
        assert_replicas_synchronized(tr.replicas, atol=0.0)


class TestOOMReproduction:
    """The motivating failure: baseline ALLGATHER exhausts device memory
    as G grows; the unique exchange does not."""

    DEVICE = DeviceSpec(name="mini-gpu", memory_bytes=250_000, peak_flops=1e12)

    def run_steps(self, world, use_unique):
        cfg = TrainConfig(
            world_size=world,
            batch=BatchSpec(4, 16),
            base_lr=0.1,
            use_unique=use_unique,
        )
        big_cfg = WordLMConfig(
            vocab_size=VOCAB,
            embedding_dim=48,
            hidden_dim=16,
            projection_dim=48,
            num_samples=16,
        )
        comm = Communicator(world, device_spec=self.DEVICE)
        tr = DistributedTrainer(
            lambda rng, rank: WordLanguageModel(big_cfg, rng),
            lambda params, lr: SGD(params, lr),
            CORPUS.train,
            CORPUS.valid,
            cfg,
            comm=comm,
        )
        tr.train_step()
        return comm

    def test_baseline_ooms_at_scale(self):
        with pytest.raises(DeviceOOMError):
            self.run_steps(world=12, use_unique=False)

    def test_unique_survives_same_scale(self):
        comm = self.run_steps(world=12, use_unique=True)
        assert comm.peak_bytes_per_rank < self.DEVICE.memory_bytes

    def test_baseline_fits_at_small_scale(self):
        """Matches the paper: the baseline is viable at few GPUs."""
        comm = self.run_steps(world=2, use_unique=False)
        assert comm.peak_bytes_per_rank < self.DEVICE.memory_bytes


class TestSeedingAccuracySpectrum:
    """Figure 7 in miniature: shared seeds lose accuracy, Zipf-freq
    seeding matches per-rank seeds."""

    @staticmethod
    def train_with(strategy, steps=60):
        tr = make_word_trainer(8, seed_strategy=strategy, data_seed=17)
        for _ in range(steps):
            tr.train_step()
        return perplexity(tr.evaluate())

    def test_zipf_freq_matches_per_rank(self):
        p_full = self.train_with(SeedStrategy.PER_RANK)
        p_zipf = self.train_with(SeedStrategy.ZIPF_FREQ)
        assert p_zipf == pytest.approx(p_full, rel=0.10)

    def test_all_strategies_learn(self):
        for strategy in (SeedStrategy.ALL_SAME, SeedStrategy.LOG2):
            assert self.train_with(strategy, steps=40) < VOCAB
