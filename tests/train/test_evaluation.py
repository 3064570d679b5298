"""Tests for per-frequency-bucket evaluation."""

import numpy as np
import pytest

from repro.data import BatchSpec, ONE_BILLION_WORD, make_corpus, make_eval_batches
from repro.optim import SGD
from repro.train import (
    DistributedTrainer,
    TrainConfig,
    WordLanguageModel,
    WordLMConfig,
    bucketed_nll,
    frequency_buckets,
)

VOCAB = 200
MODEL = WordLMConfig(
    vocab_size=VOCAB, embedding_dim=10, hidden_dim=14, projection_dim=10,
    num_samples=20,
)
CORPUS = make_corpus(ONE_BILLION_WORD.scaled(VOCAB), 40_000, seed=17)


class TestFrequencyBuckets:
    def test_log_spacing(self):
        bounds = frequency_buckets(10_000, 5)
        assert bounds[-1] == 10_000
        assert (np.diff(bounds) > 0).all()
        # Head buckets cover far fewer ids than tail buckets.
        assert bounds[0] < bounds[-1] - bounds[-2]

    def test_single_bucket(self):
        np.testing.assert_array_equal(frequency_buckets(100, 1), [100])

    def test_validation(self):
        with pytest.raises(ValueError):
            frequency_buckets(1, 1)
        with pytest.raises(ValueError):
            frequency_buckets(10, 0)
        with pytest.raises(ValueError):
            frequency_buckets(10, 11)


class TestBucketedNLL:
    @pytest.fixture(scope="class")
    def trained(self):
        cfg = TrainConfig(world_size=2, batch=BatchSpec(2, 10), base_lr=0.3)
        trainer = DistributedTrainer(
            lambda rng, rank: WordLanguageModel(MODEL, rng),
            lambda params, lr: SGD(params, lr),
            CORPUS.train, CORPUS.valid, cfg,
        )
        for _ in range(150):
            trainer.train_step()
        return trainer.replicas[0]

    @pytest.fixture(scope="class")
    def eval_batches(self):
        return make_eval_batches(CORPUS.valid, BatchSpec(2, 10), max_batches=8)

    def test_token_counts_follow_zipf(self, trained, eval_batches):
        report = bucketed_nll(trained, eval_batches, n_buckets=4)
        total = sum(report.token_counts)
        # The head bucket holds a dominant share of running text.
        assert report.token_counts[0] > total * 0.3

    def test_head_modelled_better_than_tail(self, trained, eval_batches):
        """The Zipf learning asymmetry: frequent words get lower NLL."""
        report = bucketed_nll(trained, eval_batches, n_buckets=4)
        valid = [
            (n, c) for n, c in zip(report.nll, report.token_counts) if c > 10
        ]
        assert len(valid) >= 2
        head_nll = valid[0][0]
        tail_nll = valid[-1][0]
        assert head_nll < tail_nll

    def test_overall_matches_model_eval(self, trained, eval_batches):
        report = bucketed_nll(trained, eval_batches, n_buckets=4)
        direct = trained.eval_nll(eval_batches)
        overall = sum(
            n * c for n, c in zip(report.nll, report.token_counts)
        ) / sum(report.token_counts)
        assert overall == pytest.approx(direct, rel=1e-9)

    def test_perplexity_view(self, trained, eval_batches):
        report = bucketed_nll(trained, eval_batches, n_buckets=3)
        for nll, ppl in zip(report.nll, report.perplexity):
            if not np.isnan(nll):
                assert ppl == pytest.approx(np.exp(nll))

    def test_char_model_supported(self):
        from repro.train import CharLanguageModel, CharLMConfig

        cfg = CharLMConfig(
            vocab_size=60, embedding_dim=6, hidden_dim=8, depth=2, dropout=0.0
        )
        model = CharLanguageModel(
            cfg, np.random.default_rng(0), dropout_rng=np.random.default_rng(1)
        )
        corpus = make_corpus(ONE_BILLION_WORD.scaled(60), 5000, seed=0)
        batches = make_eval_batches(corpus.valid, BatchSpec(1, 8), max_batches=3)
        report = bucketed_nll(model, batches, n_buckets=3)
        assert sum(report.token_counts) == sum(b.n_tokens for b in batches)

    def test_empty_batches_rejected(self, trained):
        with pytest.raises(ValueError):
            bucketed_nll(trained, [])
