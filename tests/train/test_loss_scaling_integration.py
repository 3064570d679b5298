"""Tests for loss scaling wired through the distributed trainer."""

import numpy as np
import pytest

from repro.data import BatchSpec, ONE_BILLION_WORD, make_corpus
from repro.optim import SGD
from repro.train import (
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
    assert_replicas_synchronized,
)

VOCAB = 60
MODEL = WordLMConfig(
    vocab_size=VOCAB, embedding_dim=6, hidden_dim=8, projection_dim=6,
    num_samples=8,
)
CORPUS = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 6000, seed=0)


def make_trainer(loss_scale=None):
    cfg = TrainConfig(
        world_size=2, batch=BatchSpec(2, 6), base_lr=0.2, loss_scale=loss_scale
    )
    return DistributedTrainer(
        lambda rng, rank: WordLanguageModel(MODEL, rng),
        lambda params, lr: SGD(params, lr),
        CORPUS.train, CORPUS.valid, cfg,
    )


class TestConfig:
    def test_valid_options(self):
        for value in (None, 512.0, 1024, "dynamic"):
            make_trainer(loss_scale=value)

    def test_invalid_options(self):
        with pytest.raises(ValueError):
            make_trainer(loss_scale="adaptive")
        with pytest.raises(ValueError):
            make_trainer(loss_scale=0.5)


class TestStaticScaling:
    def test_scaled_training_equals_unscaled(self):
        """Scale-then-unscale is exact in fp64: trajectories match."""
        plain = make_trainer(loss_scale=None)
        scaled = make_trainer(loss_scale=512.0)
        for _ in range(4):
            plain.train_step()
            scaled.train_step()
        for (n, a), (_, b) in zip(
            plain.replicas[0].named_parameters(),
            scaled.replicas[0].named_parameters(),
        ):
            np.testing.assert_allclose(a.data, b.data, rtol=1e-10, err_msg=n)

    def test_no_steps_skipped_when_finite(self):
        tr = make_trainer(loss_scale=512.0)
        for _ in range(3):
            tr.train_step()
        assert tr.skipped_steps == 0
        assert_replicas_synchronized(tr.replicas, atol=0.0)


class TestDynamicScaling:
    def test_scale_grows_over_clean_steps(self):
        tr = make_trainer(loss_scale="dynamic")
        tr.scaler.growth_interval = 2
        s0 = tr.scaler.scale
        for _ in range(4):
            tr.train_step()
        assert tr.scaler.scale > s0
        assert tr.skipped_steps == 0

    def test_overflow_skips_update_and_backs_off(self):
        tr = make_trainer(loss_scale="dynamic")
        before = {
            n: p.data.copy()
            for n, p in tr.replicas[0].named_parameters()
        }
        s0 = tr.scaler.scale
        # Poison one parameter so the backward produces non-finite grads.
        for replica in tr.replicas:
            replica.projection.weight.data[0, 0] = np.inf
        tr.train_step()
        assert tr.skipped_steps == 1
        assert tr.scaler.scale == s0 / 2
        # No parameter moved (the poisoned value aside, which the update
        # skipping preserved too).
        after = dict(tr.replicas[0].named_parameters())
        for n, data in before.items():
            if n == "projection.weight":
                continue
            np.testing.assert_array_equal(after[n].data, data, err_msg=n)
        # Gradients were cleared for the next step.
        assert all(
            p.grad is None and not p.sparse_grads
            for r in tr.replicas
            for p in r.parameters()
        )

    def test_replicas_synchronized_through_skip(self):
        tr = make_trainer(loss_scale="dynamic")
        for replica in tr.replicas:
            replica.projection.weight.data[0, 0] = np.inf
        s0 = tr.scaler.scale
        tr.train_step()
        assert tr.skipped_steps == 1 and tr.scaler.scale == s0 / 2
        for replica in tr.replicas:
            replica.projection.weight.data[0, 0] = 0.0
        for _ in range(2):
            tr.train_step()
        assert_replicas_synchronized(tr.replicas, atol=0.0)
