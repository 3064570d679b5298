"""Tests for tied embeddings and gradient accumulation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.data import BatchSpec, ONE_BILLION_WORD, make_corpus
from repro.data.batching import Batch
from repro.optim import SGD
from repro.train import (
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
    assert_replicas_synchronized,
)

from ..conformance.cells import conform
from ..helpers import model_step

VOCAB = 60
TIED_CFG = WordLMConfig(
    vocab_size=VOCAB, embedding_dim=8, hidden_dim=10, projection_dim=8,
    num_samples=8, tie_embeddings=True,
)
CORPUS = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 8000, seed=0)


def n_params(model) -> int:
    return sum(p.data.size for p in model.parameters())


def full_grad(p) -> np.ndarray:
    """Dense plus densified sparse gradient of one parameter."""
    total = np.zeros_like(p.data) if p.grad is None else p.grad.copy()
    merged = p.merged_sparse_grad()
    if merged is not None:
        np.add.at(total, merged.indices, merged.values)
    return total


def batch(seed=0, shape=(2, 5)):
    rng = np.random.default_rng(seed)
    return Batch(
        inputs=rng.integers(0, VOCAB, shape), targets=rng.integers(0, VOCAB, shape)
    )


class TestTiedEmbeddings:
    def test_weight_is_shared_object(self):
        m = WordLanguageModel(TIED_CFG, np.random.default_rng(0))
        assert m.loss_layer.weight is m.embedding.weight

    def test_parameters_deduplicated(self):
        tied = WordLanguageModel(TIED_CFG, np.random.default_rng(0))
        untied = WordLanguageModel(
            replace(TIED_CFG, tie_embeddings=False), np.random.default_rng(0)
        )
        assert (
            n_params(untied) - n_params(tied)
            == VOCAB * TIED_CFG.embedding_dim
        )
        names = [n for n, _ in tied.named_parameters()]
        assert len(names) == len(set(names))
        params = list(tied.parameters())
        assert len({id(p) for p in params}) == len(params)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WordLMConfig(
                vocab_size=50, embedding_dim=8, hidden_dim=10,
                projection_dim=12, num_samples=8, tie_embeddings=True,
            )

    def test_both_paths_contribute_gradients(self):
        """One step must leave sparse grads from the input lookup AND
        the sampled-softmax output on the single shared matrix."""
        m = WordLanguageModel(TIED_CFG, np.random.default_rng(0))
        model_step(m, batch(), np.random.default_rng(1))
        # Input path: one contribution; output path: two (targets +
        # candidates) -> at least three sparse entries on the tied param.
        assert len(m.embedding.weight.sparse_grads) >= 3

    def test_optimizer_updates_tied_weight_once(self):
        """A single SGD step with a known sparse grad must apply exactly
        once even though the parameter is reachable via two modules."""
        m = WordLanguageModel(TIED_CFG, np.random.default_rng(0))
        w = m.embedding.weight
        before = w.data[5].copy()
        from repro.nn.parameter import SparseGrad

        w.accumulate_sparse_grad(
            SparseGrad(np.array([5], np.int64), np.ones((1, 8)))
        )
        SGD(list(m.parameters()), lr=1.0).step()
        np.testing.assert_allclose(w.data[5], before - 1.0)

    def test_distributed_training_with_tied_weights(self):
        cfg = TrainConfig(world_size=3, batch=BatchSpec(2, 6), base_lr=0.2)
        trainer = DistributedTrainer(
            lambda rng, rank: WordLanguageModel(TIED_CFG, rng),
            lambda params, lr: SGD(params, lr),
            CORPUS.train, CORPUS.valid, cfg,
        )
        before = trainer.evaluate()
        trainer.train_epoch(max_steps=25, evals_per_epoch=1)
        assert_replicas_synchronized(trainer.replicas, atol=0.0)
        assert trainer.history[-1].eval_points[-1].nll < before


class TestGradientAccumulation:
    @staticmethod
    def make_trainer(world, accum, batch_spec):
        cfg = TrainConfig(
            world_size=world, batch=batch_spec, base_lr=0.2,
            accumulation_steps=accum,
        )
        model_cfg = WordLMConfig(
            vocab_size=VOCAB, embedding_dim=6, hidden_dim=8,
            projection_dim=6, num_samples=8,
        )
        return DistributedTrainer(
            lambda rng, rank: WordLanguageModel(model_cfg, rng),
            lambda params, lr: SGD(params, lr),
            CORPUS.train, CORPUS.valid, cfg,
        )

    def test_consumes_accum_windows_per_step(self):
        tr = self.make_trainer(2, accum=3, batch_spec=BatchSpec(2, 6))
        tr.train_step()
        assert tr.global_step == 1
        assert tr.data_step == 3

    def test_replicas_stay_synchronized(self):
        conform(accumulation_steps=2, world_size=2)  # a conformance cell

    def test_accumulation_equals_larger_batch(self):
        """Two accumulated micro-batches == one batch twice as large
        along the batch axis (mean-of-means with equal sizes).  Uses the
        char LM's deterministic full softmax so gradients are exactly
        comparable."""
        from repro.train import CharLanguageModel, CharLMConfig

        char_cfg = CharLMConfig(
            vocab_size=VOCAB, embedding_dim=6, hidden_dim=8, depth=2,
            dropout=0.0,
        )
        model_a = CharLanguageModel(
            char_cfg, np.random.default_rng(0),
            dropout_rng=np.random.default_rng(1),
        )
        model_b = CharLanguageModel(
            char_cfg, np.random.default_rng(0),
            dropout_rng=np.random.default_rng(1),
        )
        b1, b2 = batch(seed=1, shape=(2, 5)), batch(seed=2, shape=(2, 5))
        merged = Batch(
            inputs=np.concatenate([b1.inputs, b2.inputs]),
            targets=np.concatenate([b1.targets, b2.targets]),
        )
        # A: accumulate two micro-steps, then halve (mean of means).
        model_step(model_a, b1)
        model_step(model_a, b2)
        for p in model_a.parameters():
            if p.grad is not None:
                p.grad *= 0.5
            for s in p.sparse_grads:
                s.values *= 0.5
        # B: one merged step.
        model_step(model_b, merged)
        for (n, pa), (_, pb) in zip(
            model_a.named_parameters(), model_b.named_parameters()
        ):
            np.testing.assert_allclose(
                full_grad(pa), full_grad(pb), rtol=1e-9, atol=1e-12,
                err_msg=n,
            )

    def test_epoch_length_scales_down(self):
        tr1 = self.make_trainer(2, accum=1, batch_spec=BatchSpec(2, 6))
        tr4 = self.make_trainer(2, accum=4, batch_spec=BatchSpec(2, 6))
        s1 = tr1.train_epoch(evals_per_epoch=1)
        s4 = tr4.train_epoch(evals_per_epoch=1)
        assert tr4.global_step * 4 <= tr1.global_step + 4
        assert s1.epoch == s4.epoch == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(
                world_size=1, batch=BatchSpec(1, 1), base_lr=0.1,
                accumulation_steps=0,
            )
