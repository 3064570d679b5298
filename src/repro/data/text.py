"""Real-text front end: tokenization and corpus encoding.

The synthetic Zipf generators stand in for the paper's corpora, but a
downstream user adopting this library has *text*.  This module provides
the paper's preprocessing (Section IV-A): lower-casing, word
tokenization [37], frequency-ranked vocabulary truncation, and
character-level encoding — producing the integer token streams the rest
of the stack consumes.

Word ids are frequency ranks (0 = most frequent), matching the synthetic
corpora's convention, so the log-uniform candidate sampler and the
Zipf-freq seeding remain correctly calibrated on real text.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = ["WordTokenizer", "CharTokenizer", "TextCorpus", "encode_corpus"]

_WORD_RE = re.compile(r"[a-z0-9]+(?:'[a-z]+)?|[^\sa-z0-9]")


class WordTokenizer:
    """Lower-casing word tokenizer in the spirit of the paper's NLTK use.

    Splits on alphanumeric runs (keeping simple apostrophe contractions
    together) and emits punctuation as individual tokens.
    """

    def tokenize(self, text: str) -> list[str]:
        return _WORD_RE.findall(text.lower())


class CharTokenizer:
    """Character tokenizer: every character is a token.

    ``lower`` folds case, matching how the paper sizes the 98-symbol
    English character vocabulary.
    """

    def __init__(self, lower: bool = True):
        self.lower = lower

    def tokenize(self, text: str) -> list[str]:
        return list(text.lower() if self.lower else text)


@dataclass
class TextCorpus:
    """An encoded text corpus: id stream + the id<->string mapping.

    Attributes
    ----------
    tokens:
        The encoded stream (int64), OOV mapped to ``unk_id``.
    itos:
        id -> surface string, frequency-ranked; last entry is ``<unk>``.
    counts:
        Training-frequency of each id (``<unk>`` holds the OOV mass).
    """

    tokens: np.ndarray
    itos: list[str]
    counts: np.ndarray
    _stoi: dict[str, int] = field(default_factory=dict, repr=False)

    @property
    def vocab_size(self) -> int:
        return len(self.itos)

    @property
    def unk_id(self) -> int:
        return len(self.itos) - 1

    def stoi(self, token: str) -> int:
        """Surface string -> id (``unk_id`` when unseen)."""
        if not self._stoi:
            self._stoi = {s: i for i, s in enumerate(self.itos)}
        return self._stoi.get(token, self.unk_id)

    def decode(self, ids: np.ndarray, sep: str = " ") -> str:
        """Ids back to text (diagnostics and sampling demos)."""
        return sep.join(self.itos[int(i)] for i in np.asarray(ids).reshape(-1))


def encode_corpus(
    text: str,
    tokenizer: WordTokenizer | CharTokenizer | None = None,
    max_vocab: int | None = None,
) -> TextCorpus:
    """Tokenize text and encode it against a frequency-ranked vocabulary.

    Parameters
    ----------
    text:
        Raw corpus text.
    tokenizer:
        Defaults to :class:`WordTokenizer`.
    max_vocab:
        Keep only the most frequent types (the paper's 100K cut); an
        ``<unk>`` slot is appended.

    Ties in frequency are broken lexicographically so encoding is
    deterministic across runs and platforms.
    """
    tokenizer = tokenizer if tokenizer is not None else WordTokenizer()
    surface = tokenizer.tokenize(text)
    if not surface:
        raise ValueError("text produced no tokens")
    freq = Counter(surface)
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    if max_vocab is not None:
        if max_vocab <= 0:
            raise ValueError("max_vocab must be positive")
        ranked = ranked[:max_vocab]
    itos = [s for s, _ in ranked] + ["<unk>"]
    stoi = {s: i for i, s in enumerate(itos[:-1])}
    unk = len(itos) - 1
    tokens = np.fromiter(
        (stoi.get(s, unk) for s in surface), dtype=np.int64, count=len(surface)
    )
    counts = np.zeros(len(itos), dtype=np.int64)
    ids, c = np.unique(tokens, return_counts=True)
    counts[ids] = c
    corpus = TextCorpus(tokens=tokens, itos=itos, counts=counts)
    corpus._stoi = stoi | {"<unk>": unk}
    return corpus
