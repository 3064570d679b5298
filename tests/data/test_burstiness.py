"""Tests for the bursty (cache-model) token generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import ZipfMandelbrot, batch_duplication, make_bursty_tokens
from repro.data.stats import types_at


def dist(vocab=5000, s=1.56, q=10.0):
    return ZipfMandelbrot(vocab_size=vocab, exponent=s, shift=q)


class TestGeneration:
    def test_zero_repeat_is_iid(self):
        rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(0)
        a = make_bursty_tokens(dist(), 1000, rng_a, p_repeat=0.0)
        b = dist().sample(1000, rng_b)
        np.testing.assert_array_equal(a, b)

    def test_range_and_dtype(self):
        out = make_bursty_tokens(dist(100), 5000, np.random.default_rng(1),
                                 p_repeat=0.4)
        assert out.dtype == np.int64
        assert out.min() >= 0 and out.max() < 100

    def test_validation(self):
        with pytest.raises(ValueError):
            make_bursty_tokens(dist(), 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            make_bursty_tokens(dist(), 10, np.random.default_rng(0), p_repeat=1.0)
        with pytest.raises(ValueError):
            make_bursty_tokens(dist(), 10, np.random.default_rng(0), window=0)


class TestBurstinessEffects:
    def test_repetition_raises_batch_duplication(self):
        """The headline effect: bursty streams duplicate more within a
        batch, so the uniqueness technique saves more than on i.i.d."""
        rng = np.random.default_rng(2)
        iid = make_bursty_tokens(dist(), 50_000, rng, p_repeat=0.0)
        bursty = make_bursty_tokens(
            dist(), 50_000, np.random.default_rng(2), p_repeat=0.4, window=50
        )
        assert batch_duplication(bursty, 512) > batch_duplication(iid, 512) * 1.2

    def test_duplication_monotone_in_p_repeat(self):
        dups = []
        for p in (0.0, 0.2, 0.5):
            toks = make_bursty_tokens(
                dist(), 30_000, np.random.default_rng(3), p_repeat=p
            )
            dups.append(batch_duplication(toks, 256))
        assert dups[0] < dups[1] < dups[2]

    def test_global_frequencies_stay_zipfian(self):
        """The cache redistributes locally but the head stays the head."""
        toks = make_bursty_tokens(
            dist(1000), 100_000, np.random.default_rng(4), p_repeat=0.3
        )
        counts = np.bincount(toks, minlength=1000)
        assert counts[:20].sum() > counts[500:520].sum() * 3

    def test_types_grow_slower_than_iid(self):
        rng = np.random.default_rng(5)
        iid = make_bursty_tokens(dist(), 40_000, rng, p_repeat=0.0)
        bursty = make_bursty_tokens(
            dist(), 40_000, np.random.default_rng(5), p_repeat=0.5, window=200
        )
        n = np.array([40_000])
        assert types_at(bursty, n)[0] < types_at(iid, n)[0]


class TestBatchDuplication:
    def test_constant_stream(self):
        assert batch_duplication(np.zeros(100, np.int64), 10) == 10.0

    def test_all_distinct(self):
        assert batch_duplication(np.arange(100), 10) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            batch_duplication(np.arange(5), 10)
        with pytest.raises(ValueError):
            batch_duplication(np.arange(5), 0)

    @given(
        p=st.floats(0.0, 0.8),
        seed=st.integers(0, 30),
    )
    @settings(max_examples=20)
    def test_duplication_at_least_one(self, p, seed):
        toks = make_bursty_tokens(
            dist(200), 2000, np.random.default_rng(seed), p_repeat=p
        )
        assert batch_duplication(toks, 100) >= 1.0


class TestDegenerateStreams:
    """Edge cases the serving traffic model leans on (PR-8)."""

    def test_single_token_stream(self):
        """n_tokens=1: position 0 can never repeat, any p_repeat."""
        out = make_bursty_tokens(
            dist(100), 1, np.random.default_rng(0), p_repeat=0.9
        )
        assert out.shape == (1,)
        assert 0 <= out[0] < 100

    def test_window_one_copies_immediate_predecessor(self):
        out = make_bursty_tokens(
            dist(1000), 5000, np.random.default_rng(1), p_repeat=0.6, window=1
        )
        # window=1 repeats duplicate the previous token: runs abound
        runs = np.mean(out[1:] == out[:-1])
        iid = make_bursty_tokens(
            dist(1000), 5000, np.random.default_rng(1), p_repeat=0.0
        )
        iid_runs = np.mean(iid[1:] == iid[:-1])
        assert runs > iid_runs + 0.3

    def test_single_type_vocab_is_constant(self):
        out = make_bursty_tokens(
            dist(1), 1000, np.random.default_rng(2), p_repeat=0.5
        )
        assert (out == 0).all()

    def test_max_skew_base_distribution(self):
        """Extreme-alpha base: stream collapses to the head type."""
        extreme = ZipfMandelbrot(vocab_size=100, exponent=50.0)
        out = make_bursty_tokens(
            extreme, 2000, np.random.default_rng(3), p_repeat=0.3
        )
        assert (out == 0).all()

    def test_p_repeat_just_below_one(self):
        """Near-total repetition still terminates and stays in range."""
        out = make_bursty_tokens(
            dist(50), 2000, np.random.default_rng(4), p_repeat=0.999
        )
        assert out.min() >= 0 and out.max() < 50
        assert np.unique(out).size < 20  # almost everything is a copy
