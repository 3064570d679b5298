"""Synthetic corpora standing in for the paper's datasets (Table I).

The paper evaluates on four corpora — One-Billion-Word (1b), Gutenberg
(gb), Amazon Reviews (ar) and Baidu Tieba — plus Common Crawl (cc) for
the Figure-1 type/token study.  None are redistributable here (and Tieba
is proprietary), so each is replaced by a **Zipf–Mandelbrot synthetic
stream** whose distributional parameters are chosen to reproduce the
properties the paper's results depend on:

* the Heaps-law type growth ``U ∝ N^~0.64`` (Figure 1, and the
  asymptotic-complexity reduction of the uniqueness technique);
* the vocabulary regime (98-char English, ~15K-char Chinese, 100K-word
  truncated word vocabularies);
* the corpus-scale ratios used in weak scaling (Tieba 3 GB : 12 GB :
  93 GB ≈ 1 : 4 : 32).

Full-scale sizes from Table I are carried as metadata so Table-I and
perf benches can report paper-scale numbers, while the actual generated
streams are shrunk to tractable lengths via ``n_tokens``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .zipf import ZipfMandelbrot

__all__ = [
    "DatasetPreset",
    "SyntheticCorpus",
    "ONE_BILLION_WORD",
    "GUTENBERG",
    "COMMON_CRAWL",
    "AMAZON_REVIEWS",
    "TIEBA",
    "PRESETS",
    "FIGURE1_PRESETS",
    "make_corpus",
]


@dataclass(frozen=True)
class DatasetPreset:
    """Generation parameters + full-scale metadata for one corpus.

    Attributes
    ----------
    name, language:
        Identification, as in Table I.
    unit:
        ``"word"`` or ``"char"`` — the token unit of the synthetic stream.
    vocab_size:
        Number of distinct types the generator can emit.  For word
        streams this models the *underlying* type inventory (millions in
        the real corpora — scaled down here); model vocabularies then
        truncate it.
    zipf_exponent, zipf_shift:
        Zipf–Mandelbrot shape.  Exponents near ``1/0.64 = 1.56`` yield
        the paper's Heaps exponent; per-dataset variation separates the
        four curves of Figure 1.
    full_chars, full_words, full_bytes:
        Table I full-scale statistics (``None`` where the paper reports
        NA).
    train_split:
        Train fraction numerator of the paper's split (99:1 for 1b/gb,
        1000:1 for ar/tieba).
    """

    name: str
    language: str
    unit: str
    vocab_size: int
    zipf_exponent: float
    zipf_shift: float
    full_chars: float | None
    full_words: float | None
    full_bytes: float | None
    train_split: int = 99

    def __post_init__(self) -> None:
        if self.unit not in ("word", "char"):
            raise ValueError(f"unit must be 'word' or 'char', got {self.unit!r}")
        if self.vocab_size <= 1:
            raise ValueError("vocab_size must exceed 1")
        if self.train_split < 1:
            raise ValueError("train_split must be >= 1")

    def distribution(self) -> ZipfMandelbrot:
        return ZipfMandelbrot(
            vocab_size=self.vocab_size,
            exponent=self.zipf_exponent,
            shift=self.zipf_shift,
        )

    def scaled(self, vocab_size: int) -> "DatasetPreset":
        """A copy shrunk to ``vocab_size`` types (test-scale runs).

        The Mandelbrot shift scales proportionally with the vocabulary so
        the *shape* of the distribution (relative head flatness, hence
        duplication behaviour) is preserved: a 100-shift over 800K types
        and a 0.0125-shift over 100 types put the same relative mass in
        the head.
        """
        if vocab_size <= 1:
            raise ValueError("vocab_size must exceed 1")
        ratio = vocab_size / self.vocab_size
        return replace(
            self, vocab_size=vocab_size, zipf_shift=self.zipf_shift * ratio
        )


# --- Word-level presets (Figure 1 curves; Table I rows) --------------------
# Exponents hover around 1.56 (=> Heaps exponent ~0.64) and Mandelbrot
# shifts around 100 (which sets the Heaps *coefficient*: real text's head
# is far flatter than pure Zipf, and q ~ 100 reproduces the paper's
# U = 7.02 N^0.64 fit almost exactly).  Dataset-specific variation —
# curated book text (gb) steeper, web text (cc) flatter — splays the
# four Figure-1 curves as in the paper.

ONE_BILLION_WORD = DatasetPreset(
    name="1b",
    language="English",
    unit="word",
    vocab_size=800_000,
    zipf_exponent=1.58,
    zipf_shift=90.0,
    full_chars=4.19e9,
    full_words=0.78e9,
    full_bytes=3.94 * 1024**3,
    train_split=99,
)

GUTENBERG = DatasetPreset(
    name="gb",
    language="English",
    unit="word",
    vocab_size=2_000_000,
    zipf_exponent=1.66,
    zipf_shift=75.0,
    full_chars=8.90e9,
    full_words=1.81e9,
    full_bytes=8.29 * 1024**3,
    train_split=99,
)

COMMON_CRAWL = DatasetPreset(
    name="cc",
    language="English",
    unit="word",
    vocab_size=24_000_000,
    zipf_exponent=1.52,
    zipf_shift=130.0,
    full_chars=None,
    full_words=None,
    full_bytes=None,
    train_split=99,
)

AMAZON_REVIEWS = DatasetPreset(
    name="ar",
    language="English",
    unit="word",
    vocab_size=12_000_000,
    zipf_exponent=1.56,
    zipf_shift=105.0,
    full_chars=38.76e9,
    full_words=7.01e9,
    full_bytes=37.04 * 1024**3,
    train_split=1000,
)

#: Chinese character stream: vocabulary of 15,437 symbols as in §V-C.
TIEBA = DatasetPreset(
    name="tieba",
    language="Chinese",
    unit="char",
    vocab_size=15_437,
    zipf_exponent=1.25,
    zipf_shift=1.0,
    full_chars=34.36e9,
    full_words=None,
    full_bytes=93.12 * 1024**3,
    train_split=1000,
)

PRESETS: dict[str, DatasetPreset] = {
    p.name: p
    for p in (ONE_BILLION_WORD, GUTENBERG, COMMON_CRAWL, AMAZON_REVIEWS, TIEBA)
}

#: The four word-level curves shown in Figure 1.
FIGURE1_PRESETS = (ONE_BILLION_WORD, GUTENBERG, COMMON_CRAWL, AMAZON_REVIEWS)


@dataclass(frozen=True)
class SyntheticCorpus:
    """A generated token-id stream with its train/validation split.

    Token ids are frequency ranks under the preset's distribution
    (0 = most frequent), so a frequency-ordered model vocabulary is the
    identity truncation.
    """

    preset: DatasetPreset
    tokens: np.ndarray
    train: np.ndarray
    valid: np.ndarray


def make_corpus(
    preset: DatasetPreset, n_tokens: int, seed: int = 0
) -> SyntheticCorpus:
    """Generate a synthetic corpus of ``n_tokens`` under ``preset``.

    The split follows the paper (Section IV-A): ``train_split:1`` with a
    fixed random seed, sampled without replacement — realized here as a
    seeded permutation of contiguous blocks so both splits keep local
    sequence structure.
    """
    if n_tokens <= 0:
        raise ValueError("n_tokens must be positive")
    rng = np.random.default_rng(seed)
    tokens = preset.distribution().sample(n_tokens, rng)

    denom = preset.train_split + 1
    n_valid = max(1, n_tokens // denom)
    # Hold out one contiguous block chosen by the seeded rng: contiguity
    # preserves sequence statistics for validation perplexity.
    start_max = n_tokens - n_valid
    start = int(rng.integers(0, start_max + 1))
    valid = tokens[start : start + n_valid]
    train = np.concatenate([tokens[:start], tokens[start + n_valid :]])
    return SyntheticCorpus(preset=preset, tokens=tokens, train=train, valid=valid)
