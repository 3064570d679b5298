"""Vocabulary construction: frequency-ranked, truncated, with coverage.

The paper (Section IV-A) builds word vocabularies by keeping the 100,000
most frequent words after lower-casing/tokenization, noting that although
the corpora contain 2M-24M distinct words, this simple truncation covers
99% of the running text — another direct consequence of Zipf's law.
Character vocabularies are used whole (98 symbols for English, ~15K for
Chinese).

Out-of-vocabulary tokens map to a reserved ``<unk>`` id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Vocabulary", "coverage_of_top_k"]

UNK_TOKEN = "<unk>"


@dataclass
class Vocabulary:
    """Frequency-ranked vocabulary mapping type ids to counts.

    Built via :meth:`from_counts` or :meth:`from_token_ids`.  Internally
    types are numpy integer ids; ``id_map`` maps a raw (corpus) type id
    to its vocabulary id (frequency rank, 0 = most frequent), with OOV
    raw ids mapped to :attr:`unk_id`.
    """

    counts: np.ndarray
    raw_ids: np.ndarray
    unk_id: int
    _lookup: dict[int, int] = field(default_factory=dict, repr=False)

    @classmethod
    def from_counts(
        cls, raw_ids: np.ndarray, counts: np.ndarray, max_size: int | None = None
    ) -> "Vocabulary":
        """Build from parallel arrays of raw type ids and their counts.

        ``max_size`` truncates to the most frequent types (the paper's
        100K cut); an ``<unk>`` slot is appended after truncation, so the
        resulting size is ``min(max_size, len(raw_ids)) + 1``.
        """
        raw_ids = np.asarray(raw_ids, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if raw_ids.shape != counts.shape or raw_ids.ndim != 1:
            raise ValueError("raw_ids and counts must be 1-D and parallel")
        if np.unique(raw_ids).size != raw_ids.size:
            raise ValueError("raw_ids must be unique")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        order = np.argsort(-counts, kind="stable")
        raw_ids, counts = raw_ids[order], counts[order]
        if max_size is not None:
            if max_size <= 0:
                raise ValueError("max_size must be positive")
            raw_ids, counts = raw_ids[:max_size], counts[:max_size]
        unk_id = raw_ids.size
        vocab = cls(
            counts=np.concatenate([counts, [0]]),
            raw_ids=np.concatenate([raw_ids, [-1]]),
            unk_id=unk_id,
        )
        vocab._lookup = {int(r): i for i, r in enumerate(raw_ids)}
        return vocab

    @classmethod
    def from_token_ids(
        cls, tokens: np.ndarray, max_size: int | None = None
    ) -> "Vocabulary":
        """Count a raw token id stream and build the vocabulary from it."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1:
            raise ValueError("tokens must be 1-D")
        raw_ids, counts = np.unique(tokens, return_counts=True)
        return cls.from_counts(raw_ids, counts, max_size=max_size)

    def __len__(self) -> int:
        return int(self.counts.size)

    @property
    def size(self) -> int:
        return len(self)

    def encode(self, tokens: np.ndarray) -> np.ndarray:
        """Map raw token ids to vocabulary ids, OOV -> ``unk_id``.

        Vectorized: builds a searchsorted index over in-vocab raw ids.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        in_vocab_raw = self.raw_ids[: self.unk_id]
        order = np.argsort(in_vocab_raw)
        sorted_raw = in_vocab_raw[order]
        pos = np.searchsorted(sorted_raw, tokens)
        pos = np.clip(pos, 0, sorted_raw.size - 1)
        hit = sorted_raw[pos] == tokens
        out = np.full(tokens.shape, self.unk_id, dtype=np.int64)
        out[hit] = order[pos[hit]]
        return out

    def coverage(self, tokens: np.ndarray) -> float:
        """Fraction of a raw token stream covered by in-vocab types."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.size == 0:
            raise ValueError("empty token stream")
        encoded = self.encode(tokens)
        return float((encoded != self.unk_id).mean())


def coverage_of_top_k(counts: np.ndarray, k: int) -> float:
    """Fraction of running text the top-``k`` most frequent types cover.

    Reproduces the paper's observation that a 100K cut of a multi-million
    type corpus covers ~99% of tokens.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("counts must be a non-empty 1-D array")
    if (counts < 0).any():
        raise ValueError("counts must be non-negative")
    if k <= 0:
        raise ValueError("k must be positive")
    total = counts.sum()
    if total == 0:
        raise ValueError("counts sum to zero")
    top = np.sort(counts)[::-1][:k]
    return float(top.sum() / total)
