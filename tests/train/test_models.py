"""Tests for the word and char LM assemblies."""

from dataclasses import replace

import numpy as np
import pytest

from repro.data.batching import Batch
from repro.train.char_lm import CharLanguageModel
from repro.train.config import (
    PAPER_CHAR_LM,
    PAPER_WORD_LM,
    CharLMConfig,
    WordLMConfig,
)
from repro.train.word_lm import WordLanguageModel

from ..helpers import model_step

WORD_CFG = WordLMConfig(
    vocab_size=50, embedding_dim=8, hidden_dim=12, projection_dim=8, num_samples=10
)
CHAR_CFG = CharLMConfig(
    vocab_size=20, embedding_dim=6, hidden_dim=10, depth=2, dropout=0.0
)


def word_model(seed=0):
    return WordLanguageModel(WORD_CFG, np.random.default_rng(seed))


def char_model(seed=0, dropout=0.0):
    cfg = replace(CHAR_CFG, dropout=dropout)
    return CharLanguageModel(
        cfg, np.random.default_rng(seed), dropout_rng=np.random.default_rng(1)
    )


def batch(vocab, shape=(2, 5), seed=0):
    rng = np.random.default_rng(seed)
    return Batch(
        inputs=rng.integers(0, vocab, shape), targets=rng.integers(0, vocab, shape)
    )


class TestConfigs:
    def test_paper_word_lm_dimensions(self):
        assert PAPER_WORD_LM.vocab_size == 100_000
        assert PAPER_WORD_LM.hidden_dim == 2048
        assert PAPER_WORD_LM.projection_dim == 512
        assert PAPER_WORD_LM.num_samples == 1024

    def test_paper_char_lm_dimensions(self):
        assert PAPER_CHAR_LM.vocab_size == 98
        assert PAPER_CHAR_LM.hidden_dim == 1792
        assert PAPER_CHAR_LM.depth == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            WordLMConfig(vocab_size=10, num_samples=10)
        with pytest.raises(ValueError):
            CharLMConfig(dropout=1.0)


class TestWordLM:
    def test_step_returns_finite_loss_and_grads(self):
        m = word_model()
        loss = model_step(m, batch(50), np.random.default_rng(1))
        assert np.isfinite(loss) and loss > 0
        # Every parameter received a gradient of some kind.
        for name, p in m.named_parameters():
            has = p.grad is not None or p.sparse_grads
            assert has, f"{name} got no gradient"

    def test_embedding_grads_are_sparse(self):
        m = word_model()
        model_step(m, batch(50), np.random.default_rng(1))
        assert m.embedding.weight.grad is None
        assert m.embedding.weight.sparse_grads
        assert m.loss_layer.weight.grad is None
        assert m.loss_layer.weight.sparse_grads

    def test_identical_seeds_identical_models(self):
        """Replica precondition: same init rng state, same parameters."""
        a, b = word_model(7), word_model(7)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_training_reduces_loss(self):
        from repro.optim import SGD

        m = word_model()
        opt = SGD(list(m.parameters()), lr=0.5)
        b = batch(50, shape=(4, 6))
        first = model_step(m, b, np.random.default_rng(0))
        opt.step()
        for i in range(30):
            model_step(m, b, np.random.default_rng(i + 1))
            opt.step()
        last = model_step(m, b, np.random.default_rng(99))
        m.zero_grad()
        assert last < first

    def test_eval_nll_deterministic(self):
        m = word_model()
        batches = [batch(50, seed=i) for i in range(3)]
        assert m.eval_nll(batches) == m.eval_nll(batches)

    def test_eval_requires_batches(self):
        with pytest.raises(ValueError):
            word_model().eval_nll([])


class TestCharLM:
    def test_step_returns_finite_loss(self):
        m = char_model()
        loss = model_step(m, batch(20))
        assert np.isfinite(loss) and loss > 0

    def test_full_softmax_grads_are_dense(self):
        m = char_model()
        model_step(m, batch(20))
        assert m.loss_layer.weight.grad is not None
        assert not m.loss_layer.weight.sparse_grads
        # Input embedding still sparse.
        assert m.embedding.weight.sparse_grads

    def test_dropout_only_in_training(self):
        m = char_model(dropout=0.5)
        b = batch(20)
        m.eval()
        nll1 = m.eval_nll([b])
        nll2 = m.eval_nll([b])
        assert nll1 == nll2

    def test_training_reduces_loss(self):
        from repro.optim import Adam

        m = char_model()
        opt = Adam(list(m.parameters()), lr=3e-3)
        b = batch(20, shape=(4, 6))
        first = model_step(m, b)
        opt.step()
        for _ in range(40):
            model_step(m, b)
            opt.step()
        last = model_step(m, b)
        m.zero_grad()
        assert last < first

    def test_loss_scale_flows_to_grads(self):
        m1, m2 = char_model(3), char_model(3)
        b = batch(20)
        model_step(m1, b, loss_scale=1.0)
        model_step(m2, b, loss_scale=128.0)
        np.testing.assert_allclose(
            m2.rhn.r.grad, 128.0 * m1.rhn.r.grad, rtol=1e-9
        )

    def test_initial_loss_near_uniform(self):
        """Untrained model NLL should be close to log(V)."""
        m = char_model()
        nll = m.eval_nll([batch(20, shape=(8, 10))])
        assert nll == pytest.approx(np.log(20), rel=0.25)
