"""Tests for the n-gram baseline LM."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import ONE_BILLION_WORD, make_corpus
from repro.train.ngram import NGramModel


def stream(vocab=20, n=20_000, seed=0):
    return make_corpus(ONE_BILLION_WORD.scaled(vocab), n, seed=seed)


def next_token_distribution(m: NGramModel, context: np.ndarray) -> np.ndarray:
    """Full P(. | context): ``prob`` over every target."""
    last = context[len(context) - (m.order - 1):] if m.order > 1 else []
    ctx = np.tile(np.asarray(last, np.int64), (m.vocab_size, 1))
    return m.prob(ctx, np.arange(m.vocab_size))


class TestFitting:
    def test_unigram_counts(self):
        m = NGramModel(5, order=1).fit(np.array([0, 1, 1, 2, 2, 2]))
        p = m.prob(np.zeros((3, 0), np.int64), np.array([0, 1, 2]))
        assert p[2] > p[1] > p[0]

    def test_fit_returns_self(self):
        m = NGramModel(5, order=1)
        assert m.fit(np.array([0, 1, 2])) is m

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            NGramModel(5).prob(np.zeros((1, 1), np.int64), np.array([0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            NGramModel(1)
        with pytest.raises(ValueError):
            NGramModel(5, order=4)
        with pytest.raises(ValueError):
            NGramModel(5, add_k=0.0)
        with pytest.raises(ValueError):
            NGramModel(5, order=2, interpolation=(0.5, 0.4))
        with pytest.raises(ValueError):
            NGramModel(5).fit(np.array([9]))  # out of range + too short


class TestProbabilities:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_distribution_sums_to_one(self, order):
        corpus = stream()
        m = NGramModel(20, order=order).fit(corpus.train)
        dist = next_token_distribution(m, corpus.train[:5])
        assert dist.min() > 0
        assert dist.sum() == pytest.approx(1.0, rel=1e-9)

    def test_bigram_learns_transitions(self):
        # Deterministic cycle 0 -> 1 -> 2 -> 0: bigram nails it.
        tokens = np.tile([0, 1, 2], 500)
        m = NGramModel(
            3, order=2, add_k=1e-4, interpolation=(0.95, 0.05)
        ).fit(tokens)
        dist = next_token_distribution(m, np.array([0]))
        assert dist.argmax() == 1
        assert dist[1] > 0.9

    def test_trigram_beats_bigram_on_longer_context(self):
        # Sequence where the next token depends on *two* predecessors:
        # 0,1 -> 2 but 3,1 -> 4.
        block = [0, 1, 2, 3, 1, 4]
        tokens = np.tile(block, 400)
        bi = NGramModel(5, order=2, add_k=1e-3).fit(tokens)
        tri = NGramModel(5, order=3, add_k=1e-3).fit(tokens)
        assert tri.nll(tokens) < bi.nll(tokens)


class TestEvaluation:
    def test_perplexity_bounded_by_vocab(self):
        corpus = stream()
        m = NGramModel(20, order=2).fit(corpus.train)
        ppl = m.perplexity(corpus.valid)
        assert 1.0 < ppl < 20

    def test_bigram_beats_unigram_on_zipf_stream(self):
        corpus = stream(vocab=50, n=50_000)
        uni = NGramModel(50, order=1).fit(corpus.train)
        bi = NGramModel(50, order=2).fit(corpus.train)
        # An i.i.d. stream has no transition structure beyond frequency,
        # so bigram ~ unigram; it must never be substantially worse.
        assert bi.perplexity(corpus.valid) < uni.perplexity(corpus.valid) * 1.05

    def test_sanity_anchor_for_neural_model(self):
        """The library's sanity check: a trained neural LM should land in
        the same perplexity regime as the n-gram on an i.i.d. stream."""
        from repro.data import BatchSpec
        from repro.optim import SGD
        from repro.train import (
            DistributedTrainer,
            TrainConfig,
            WordLanguageModel,
            WordLMConfig,
            perplexity,
        )

        corpus = stream(vocab=60, n=30_000, seed=3)
        ngram = NGramModel(60, order=1).fit(corpus.train)
        anchor = ngram.perplexity(corpus.valid)

        cfg = TrainConfig(world_size=2, batch=BatchSpec(2, 8), base_lr=0.3)
        model_cfg = WordLMConfig(
            vocab_size=60, embedding_dim=8, hidden_dim=10, projection_dim=8,
            num_samples=12,
        )
        trainer = DistributedTrainer(
            lambda rng, rank: WordLanguageModel(model_cfg, rng),
            lambda params, lr: SGD(params, lr),
            corpus.train, corpus.valid, cfg,
        )
        for _ in range(150):
            trainer.train_step()
        neural = perplexity(trainer.evaluate())
        # On an i.i.d. stream the unigram distribution is the optimum;
        # the neural model should approach (not dramatically beat) it.
        assert neural < anchor * 1.3

    def test_too_short_stream_rejected(self):
        m = NGramModel(5, order=3).fit(np.array([0, 1, 2, 3, 4]))
        with pytest.raises(ValueError):
            m.nll(np.array([0, 1]))

    @given(
        order=st.integers(1, 3),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=15)
    def test_probabilities_valid_fuzz(self, order, seed):
        rng = np.random.default_rng(seed)
        tokens = rng.integers(0, 10, 500)
        m = NGramModel(10, order=order).fit(tokens)
        n_ctx = max(1, order - 1)
        ctx = rng.integers(0, 10, (30, n_ctx))
        targets = rng.integers(0, 10, 30)
        p = m.prob(ctx, targets)
        assert (p > 0).all() and (p <= 1).all()
