"""Tests for the full-softmax and sampled-softmax output layers."""

import numpy as np
import pytest

from repro.nn import FullSoftmaxLoss, LogUniformSampler, SampledSoftmaxLoss

from ..helpers import numerical_grad


def rng(seed=0):
    return np.random.default_rng(seed)


class TestFullSoftmaxLoss:
    def test_loss_positive_and_reasonable(self):
        layer = FullSoftmaxLoss(10, 4, rng())
        hidden = rng(1).standard_normal((6, 4))
        loss, _ = layer.forward(hidden, np.arange(6) % 10)
        assert 0 < loss < 10

    def test_gradients_match_finite_difference(self):
        layer = FullSoftmaxLoss(5, 3, rng(2), dtype=np.float64)
        hidden = rng(3).standard_normal((4, 3))
        targets = np.array([0, 4, 2, 2])

        def loss_fn():
            loss, _ = layer.forward(hidden, targets)
            return loss

        loss, cache = layer.forward(hidden, targets)
        dhidden = layer.backward(cache)
        np.testing.assert_allclose(
            layer.weight.grad, numerical_grad(loss_fn, layer.weight.data),
            rtol=1e-5, atol=1e-8,
        )
        np.testing.assert_allclose(
            layer.bias.grad, numerical_grad(loss_fn, layer.bias.data),
            rtol=1e-5, atol=1e-8,
        )
        np.testing.assert_allclose(
            dhidden, numerical_grad(loss_fn, hidden), rtol=1e-5, atol=1e-8
        )

    def test_loss_scale_multiplies_gradients(self):
        layer = FullSoftmaxLoss(5, 3, rng(2))
        hidden = rng(3).standard_normal((4, 3))
        targets = np.array([0, 1, 2, 3])
        _, cache = layer.forward(hidden, targets)
        layer.backward(cache)
        g1 = layer.weight.grad.copy()
        layer.zero_grad()
        _, cache = layer.forward(hidden, targets)
        layer.backward(cache, loss_scale=256.0)
        np.testing.assert_allclose(layer.weight.grad, 256.0 * g1, rtol=1e-12)

    def test_shape_validation(self):
        layer = FullSoftmaxLoss(5, 3, rng())
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 4)), np.array([0, 1]))
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 3)), np.array([0]))


class TestLogUniformSampler:
    def test_probs_decrease_with_rank(self):
        s = LogUniformSampler(1000)
        p = s.probs(np.arange(1000))
        assert (np.diff(p) < 0).all()
        assert p.sum() == pytest.approx(1.0, rel=1e-9)

    def test_sample_unique_and_in_range(self):
        s = LogUniformSampler(50)
        ids = s.sample(30, rng(0))
        assert len(set(ids.tolist())) == 30
        assert ids.min() >= 0 and ids.max() < 50

    def test_sample_full_vocab(self):
        s = LogUniformSampler(10)
        ids = s.sample(10, rng(1))
        assert sorted(ids.tolist()) == list(range(10))

    def test_sample_empirical_skew(self):
        """Small ids (frequent words) must be sampled far more often."""
        s = LogUniformSampler(10_000)
        g = rng(2)
        draws = np.concatenate([s.sample(50, g) for _ in range(200)])
        head = (draws < 100).mean()
        tail = (draws >= 5000).mean()
        assert head > tail * 2

    def test_expected_log_count_monotone(self):
        s = LogUniformSampler(1000)
        logc = s.expected_log_count(np.arange(1000), 64)
        assert (np.diff(logc) < 0).all()
        assert (logc <= 0).all()

    @staticmethod
    def looped_sample(sampler, n, rng):
        """The per-draw dedup loop ``sample`` vectorised — its reference."""
        chosen, seen = [], set()
        while len(chosen) < n:
            need = n - len(chosen)
            draws = np.exp(rng.random(need * 2 + 8) * sampler._log_range) - 1.0
            ids = np.minimum(draws.astype(np.int64), sampler.vocab_size - 1)
            for k in ids:
                if int(k) not in seen:
                    seen.add(int(k))
                    chosen.append(int(k))
                    if len(chosen) == n:
                        break
        return np.asarray(chosen, dtype=np.int64)

    @pytest.mark.parametrize(
        "vocab,n",
        [(2000, 128), (20_000, 512), (50, 49), (50, 1), (7, 6), (3, 2), (40, 40)],
    )
    def test_sample_matches_the_dedup_loop(self, vocab, n):
        """Same ids in the same order, same generator state afterwards —
        including ``n = V - 1`` (many rejection rounds) and ``n = 1``."""
        sampler = LogUniformSampler(vocab)
        for seed in range(200):
            fast, slow = rng(seed), rng(seed)
            got = sampler.sample(n, fast)
            want = self.looped_sample(sampler, n, slow)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            assert fast.bit_generator.state == slow.bit_generator.state

    def test_multi_round_rejection_is_exercised(self):
        """``n = V - 1`` cannot finish in one round of ``2n + 8`` draws."""
        sampler = LogUniformSampler(50)
        one_round = rng(0)
        one_round.random(49 * 2 + 8)
        after = rng(0)
        sampler.sample(49, after)
        assert after.bit_generator.state != one_round.bit_generator.state

    def test_invalid_requests(self):
        s = LogUniformSampler(10)
        with pytest.raises(ValueError):
            s.sample(11, rng(0))
        with pytest.raises(ValueError):
            s.sample(0, rng(0))
        with pytest.raises(ValueError):
            LogUniformSampler(1)


class TestSampledSoftmaxLoss:
    def make(self, v=20, h=3, s=6, seed=4):
        # Gradient checks need double precision; the library default is FP32.
        return SampledSoftmaxLoss(v, h, s, rng(seed), dtype=np.float64)

    def test_loss_finite(self):
        layer = self.make()
        hidden = rng(5).standard_normal((7, 3))
        loss, _ = layer.forward(hidden, np.arange(7), rng(6))
        assert np.isfinite(loss) and loss > 0

    def test_same_rng_state_gives_same_candidates(self):
        """The seeding technique's foundation: equal seeds, equal samples."""
        layer = self.make()
        hidden = rng(5).standard_normal((4, 3))
        t = np.array([1, 2, 3, 4])
        _, c1 = layer.forward(hidden, t, np.random.default_rng(99))
        _, c2 = layer.forward(hidden, t, np.random.default_rng(99))
        np.testing.assert_array_equal(c1["sampled_ids"], c2["sampled_ids"])

    def test_different_seeds_give_different_candidates(self):
        layer = self.make(v=1000, s=20)
        hidden = rng(5).standard_normal((2, 3))
        t = np.array([0, 1])
        _, c1 = layer.forward(hidden, t, np.random.default_rng(1))
        _, c2 = layer.forward(hidden, t, np.random.default_rng(2))
        assert set(c1["sampled_ids"]) != set(c2["sampled_ids"])

    def test_gradients_match_finite_difference(self):
        layer = self.make(v=12, h=3, s=5, seed=7)
        hidden = rng(8).standard_normal((4, 3))
        targets = np.array([0, 3, 3, 11])
        sampled = np.array([1, 2, 5, 7, 9])

        def loss_fn():
            loss, _ = layer.forward(hidden, targets, rng(0), sampled_ids=sampled)
            return loss

        loss, cache = layer.forward(hidden, targets, rng(0), sampled_ids=sampled)
        dhidden = layer.backward(cache)
        analytic_w = layer.weight.merged_sparse_grad().to_dense(12)
        np.testing.assert_allclose(
            analytic_w, numerical_grad(loss_fn, layer.weight.data),
            rtol=1e-5, atol=1e-8,
        )
        np.testing.assert_allclose(
            dhidden, numerical_grad(loss_fn, hidden), rtol=1e-5, atol=1e-8
        )

    def test_accidental_hits_masked(self):
        """A negative equal to the target must contribute no gradient."""
        layer = self.make(v=12, h=3, s=4, seed=9)
        hidden = rng(10).standard_normal((2, 3))
        targets = np.array([5, 6])
        sampled = np.array([5, 1, 2, 3])  # 5 collides with row 0's target
        loss, cache = layer.forward(hidden, targets, rng(0), sampled_ids=sampled)
        assert np.isfinite(loss)
        layer.backward(cache)
        merged = layer.weight.merged_sparse_grad()
        dense = merged.to_dense(12)
        # Row 5 receives the true-target path of row 0 plus the candidate
        # path of row 1 — but NOT row 0's masked candidate contribution.
        d_true_row0 = cache["dlogits"][0, 0]
        d_samp_row1 = cache["dlogits"][1, 1]  # candidate 5 for row 1
        expected = d_true_row0 * hidden[0] + d_samp_row1 * hidden[1]
        np.testing.assert_allclose(dense[5], expected, rtol=1e-10)
        assert cache["hit_mask"][0, 0] and not cache["hit_mask"][1, 0]

    def test_sparse_grad_only_touches_candidates_and_targets(self):
        layer = self.make(v=30, h=3, s=5)
        hidden = rng(11).standard_normal((3, 3))
        targets = np.array([20, 21, 22])
        loss, cache = layer.forward(hidden, targets, rng(12))
        layer.backward(cache)
        merged = layer.weight.merged_sparse_grad()
        touched = set(merged.indices.tolist())
        allowed = set(targets.tolist()) | set(cache["sampled_ids"].tolist())
        assert touched <= allowed

    def test_full_nll_matches_full_softmax_definition(self):
        layer = self.make(v=8, h=3)
        hidden = rng(13).standard_normal((5, 3))
        targets = np.array([0, 1, 2, 3, 4])
        nll = layer.full_nll(hidden, targets)
        logits = hidden @ layer.weight.data.T
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        expected = -logp[np.arange(5), targets].mean()
        assert nll == pytest.approx(expected, rel=1e-9)

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            SampledSoftmaxLoss(10, 3, 10, rng())
        with pytest.raises(ValueError):
            SampledSoftmaxLoss(10, 0, 5, rng())
