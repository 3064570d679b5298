"""Tests for the real-text tokenization/encoding front end."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.text import (
    CharTokenizer,
    WordTokenizer,
    encode_corpus,
)

SAMPLE = (
    "To be, or not to be, that is the question: Whether 'tis nobler in "
    "the mind to suffer the slings and arrows of outrageous fortune, or "
    "to take arms against a sea of troubles."
)


class TestWordTokenizer:
    def test_lower_cases(self):
        assert WordTokenizer().tokenize("To Be") == ["to", "be"]

    def test_punctuation_split_off(self):
        tokens = WordTokenizer().tokenize("to be, or not")
        assert tokens == ["to", "be", ",", "or", "not"]

    def test_contractions_kept_together(self):
        assert "'tis" not in WordTokenizer().tokenize("it's fine")
        assert WordTokenizer().tokenize("it's fine") == ["it's", "fine"]

    def test_numbers(self):
        assert WordTokenizer().tokenize("top 100 words") == ["top", "100", "words"]

    def test_paper_example_counts(self):
        """'to be or not to be': four types, six tokens."""
        tokens = WordTokenizer().tokenize("to be or not to be")
        assert len(tokens) == 6
        assert len(set(tokens)) == 4


class TestCharTokenizer:
    def test_every_char_is_a_token(self):
        assert CharTokenizer().tokenize("ab c") == ["a", "b", " ", "c"]

    def test_case_folding_toggle(self):
        assert CharTokenizer(lower=True).tokenize("Ab") == ["a", "b"]
        assert CharTokenizer(lower=False).tokenize("Ab") == ["A", "b"]


class TestEncodeCorpus:
    def test_ids_are_frequency_ranks(self):
        corpus = encode_corpus(SAMPLE)
        # "to" is the most frequent word in the sample.
        assert corpus.itos[0] == "to"
        assert corpus.counts[0] == corpus.counts.max()

    def test_counts_match_stream(self):
        corpus = encode_corpus(SAMPLE)
        ids, c = np.unique(corpus.tokens, return_counts=True)
        np.testing.assert_array_equal(corpus.counts[ids], c)

    def test_truncation_and_coverage(self):
        full = encode_corpus(SAMPLE)
        cut = encode_corpus(SAMPLE, max_vocab=5)
        assert cut.vocab_size == 6  # 5 + <unk>
        cut_coverage = (cut.tokens != cut.unk_id).mean()
        assert cut_coverage < 1.0
        assert (full.tokens != full.unk_id).all()
        # Zipf: a small head still covers a meaningful share.
        assert cut_coverage > 0.2

    def test_stoi_roundtrip(self):
        corpus = encode_corpus(SAMPLE)
        for word in ("to", "be", "question"):
            assert corpus.itos[corpus.stoi(word)] == word

    def test_oov_maps_to_unk(self):
        corpus = encode_corpus(SAMPLE, max_vocab=3)
        assert corpus.stoi("xylophone") == corpus.unk_id

    def test_decode(self):
        corpus = encode_corpus("a b a")
        text = corpus.decode(corpus.tokens)
        assert text == "a b a"

    def test_char_level_encoding(self):
        corpus = encode_corpus("hello world", tokenizer=CharTokenizer())
        assert corpus.tokens.size == len("hello world")
        # 'l' is most frequent (3 occurrences) -> id 0.
        assert corpus.itos[0] == "l"

    def test_deterministic_tie_breaking(self):
        a = encode_corpus("x y z x y z")
        b = encode_corpus("x y z x y z")
        assert a.itos == b.itos

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            encode_corpus("   ")
        with pytest.raises(ValueError):
            encode_corpus("a b", max_vocab=0)

    def test_encoded_stream_feeds_training_stack(self):
        """The text path plugs into the batcher directly."""
        from repro.data import BatchSpec, ShardedBatcher

        corpus = encode_corpus(SAMPLE * 20)
        batcher = ShardedBatcher(corpus.tokens, BatchSpec(2, 5), world_size=2)
        batch = batcher.batch(0, 0)
        assert batch.inputs.max() < corpus.vocab_size

    @given(
        words=st.lists(
            st.text(alphabet="abcde", min_size=1, max_size=4),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50)
    def test_property_roundtrip_and_ranking(self, words):
        text = " ".join(words)
        corpus = encode_corpus(text)
        # Decoding reproduces the (normalized) token stream.
        assert corpus.decode(corpus.tokens).split() == words
        # Counts are non-increasing across frequency-ranked ids.
        in_vocab = corpus.counts[:-1]
        assert (np.diff(in_vocab) <= 0).all()
