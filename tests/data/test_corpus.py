"""Tests for synthetic corpus presets and generation."""

import numpy as np
import pytest

from repro.data.corpus import (
    AMAZON_REVIEWS,
    FIGURE1_PRESETS,
    GUTENBERG,
    ONE_BILLION_WORD,
    PRESETS,
    TIEBA,
    make_corpus,
)
from repro.data.stats import fit_heaps_law, type_token_curve


class TestPresets:
    def test_table_i_metadata(self):
        assert ONE_BILLION_WORD.full_words == pytest.approx(0.78e9)
        assert GUTENBERG.full_chars == pytest.approx(8.90e9)
        assert AMAZON_REVIEWS.full_bytes == pytest.approx(37.04 * 1024**3)
        assert TIEBA.language == "Chinese"
        assert TIEBA.full_words is None

    def test_tieba_vocabulary_matches_section_vc(self):
        assert TIEBA.vocab_size == 15_437
        assert TIEBA.unit == "char"

    def test_splits_match_section_iv(self):
        assert ONE_BILLION_WORD.train_split == 99
        assert GUTENBERG.train_split == 99
        assert AMAZON_REVIEWS.train_split == 1000
        assert TIEBA.train_split == 1000

    def test_registry_complete(self):
        assert set(PRESETS) == {"1b", "gb", "cc", "ar", "tieba"}
        assert len(FIGURE1_PRESETS) == 4

    def test_scaled_override(self):
        small = ONE_BILLION_WORD.scaled(500)
        assert small.vocab_size == 500
        assert small.zipf_exponent == ONE_BILLION_WORD.zipf_exponent


class TestGeneration:
    def test_deterministic_by_seed(self):
        a = make_corpus(ONE_BILLION_WORD.scaled(100), 1000, seed=7)
        b = make_corpus(ONE_BILLION_WORD.scaled(100), 1000, seed=7)
        np.testing.assert_array_equal(a.tokens, b.tokens)
        np.testing.assert_array_equal(a.valid, b.valid)

    def test_different_seeds_differ(self):
        a = make_corpus(ONE_BILLION_WORD.scaled(100), 1000, seed=1)
        b = make_corpus(ONE_BILLION_WORD.scaled(100), 1000, seed=2)
        assert not np.array_equal(a.tokens, b.tokens)

    def test_split_ratio(self):
        c = make_corpus(ONE_BILLION_WORD.scaled(100), 10_000, seed=0)
        assert c.valid.size == 10_000 // 100  # 99:1 split
        assert c.train.size + c.valid.size == 10_000

    def test_tieba_split_ratio(self):
        c = make_corpus(TIEBA.scaled(200), 10_010, seed=0)
        assert c.valid.size == 10_010 // 1001

    def test_tokens_in_range(self):
        preset = GUTENBERG.scaled(300)
        c = make_corpus(preset, 5000, seed=3)
        assert c.tokens.min() >= 0
        assert c.tokens.max() < 300

    def test_ids_are_frequency_ranks(self):
        """Lower ids must be (statistically) more frequent."""
        c = make_corpus(ONE_BILLION_WORD.scaled(1000), 100_000, seed=4)
        counts = np.bincount(c.tokens, minlength=1000)
        head = counts[:10].sum()
        tail = counts[500:510].sum()
        assert head > tail * 5

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            make_corpus(ONE_BILLION_WORD, 0)


class TestHeapsCalibration:
    @pytest.mark.parametrize("preset", FIGURE1_PRESETS, ids=lambda p: p.name)
    def test_heaps_exponent_near_paper_value(self, preset):
        """Each Figure-1 preset must measure U ~ N^0.64 (+- tolerance)."""
        scaled = preset.scaled(min(preset.vocab_size, 400_000))
        corpus = make_corpus(scaled, 400_000, seed=11)
        ns, us = type_token_curve(corpus.tokens, num_points=12)
        fit = fit_heaps_law(ns, us)
        assert 0.5 < fit.exponent < 0.8, fit
        assert fit.r_squared > 0.99

    def test_types_well_below_tokens(self):
        """The Figure-1 gap: U is far below N at scale."""
        corpus = make_corpus(ONE_BILLION_WORD.scaled(100_000), 200_000, seed=5)
        u = np.unique(corpus.tokens).size
        assert u < corpus.tokens.size / 5
