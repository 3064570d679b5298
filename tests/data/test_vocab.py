"""Tests for vocabulary construction and coverage."""

import numpy as np
import pytest

from repro.data.vocab import Vocabulary, coverage_of_top_k
from repro.data.zipf import ZipfMandelbrot


class TestConstruction:
    def test_frequency_ranked(self):
        v = Vocabulary.from_counts(
            raw_ids=np.array([10, 20, 30]), counts=np.array([5, 50, 7])
        )
        # Most frequent raw id (20) gets vocab id 0.
        assert v.encode(np.array([20]))[0] == 0
        assert v.encode(np.array([30]))[0] == 1
        assert v.encode(np.array([10]))[0] == 2

    def test_truncation_plus_unk(self):
        v = Vocabulary.from_counts(
            raw_ids=np.arange(10), counts=np.arange(10, 0, -1), max_size=4
        )
        assert len(v) == 5
        assert v.unk_id == 4

    def test_from_token_ids(self):
        tokens = np.array([7, 7, 7, 3, 3, 9])
        v = Vocabulary.from_token_ids(tokens)
        assert len(v) == 4  # 3 types + unk
        np.testing.assert_array_equal(v.encode(np.array([7, 3, 9])), [0, 1, 2])

    def test_duplicate_raw_ids_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary.from_counts(np.array([1, 1]), np.array([2, 3]))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary.from_counts(np.array([1]), np.array([-1]))


class TestEncoding:
    def test_oov_maps_to_unk(self):
        v = Vocabulary.from_token_ids(np.array([1, 1, 2]), max_size=1)
        out = v.encode(np.array([1, 2, 99]))
        assert out[0] == 0
        assert out[1] == v.unk_id
        assert out[2] == v.unk_id

    def test_encode_2d_preserves_shape(self):
        v = Vocabulary.from_token_ids(np.array([5, 6, 5]))
        out = v.encode(np.array([[5, 6], [6, 5]]))
        assert out.shape == (2, 2)

    def test_coverage_computation(self):
        v = Vocabulary.from_token_ids(np.array([1, 1, 1, 2]), max_size=1)
        assert v.coverage(np.array([1, 1, 2, 3])) == pytest.approx(0.5)

    def test_coverage_of_empty_rejected(self):
        v = Vocabulary.from_token_ids(np.array([1]))
        with pytest.raises(ValueError):
            v.coverage(np.array([], dtype=np.int64))


class TestZipfCoverage:
    def test_small_head_covers_most_text(self):
        """The paper's claim: 100K of 2M-24M types covers ~99% of tokens.

        Scaled down: under Zipf, the top 5% of types covers the large
        majority of a corpus.
        """
        z = ZipfMandelbrot(vocab_size=20_000, exponent=1.5)
        tokens = z.sample(300_000, np.random.default_rng(0))
        counts = np.bincount(tokens, minlength=20_000)
        cov = coverage_of_top_k(counts, k=1000)
        assert cov > 0.95

    def test_top_k_formula(self):
        counts = np.array([50, 30, 15, 5])
        assert coverage_of_top_k(counts, 2) == pytest.approx(0.8)
        assert coverage_of_top_k(counts, 10) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            coverage_of_top_k(np.array([1.0]), 0)
        with pytest.raises(ValueError):
            coverage_of_top_k(np.array([]), 1)
        with pytest.raises(ValueError):
            coverage_of_top_k(np.array([0.0, 0.0]), 1)
        with pytest.raises(ValueError):
            coverage_of_top_k(np.array([-1.0, 1.0]), 1)
