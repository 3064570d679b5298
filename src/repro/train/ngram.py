"""Count-based n-gram language models.

A classical baseline the neural models are measured against: the paper's
introduction frames LM progress from count-based models (Shannon,
Church & Mercer) to neural ones.  This module implements interpolated
n-gram models with add-k and absolute-discounting (Kneser-Ney-style
continuation counts for the bigram), fully vectorized over numpy id
streams — useful as a perplexity sanity anchor for the synthetic corpora
and as a genuinely usable small LM.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["NGramModel"]


class NGramModel:
    """Interpolated n-gram model over integer token streams.

    Parameters
    ----------
    vocab_size:
        Id space size.
    order:
        Maximum n-gram order (1 = unigram, 2 = bigram, 3 = trigram).
    add_k:
        Additive smoothing mass at each order.
    interpolation:
        Per-order mixture weights, highest order first; must sum to 1.
        Defaults to a geometric profile favouring higher orders.
    """

    def __init__(
        self,
        vocab_size: int,
        order: int = 2,
        add_k: float = 0.1,
        interpolation: tuple[float, ...] | None = None,
    ):
        if vocab_size <= 1:
            raise ValueError("vocab_size must exceed 1")
        if not 1 <= order <= 3:
            raise ValueError("order must be 1, 2 or 3")
        if add_k <= 0:
            raise ValueError("add_k must be positive")
        self.vocab_size = vocab_size
        self.order = order
        self.add_k = add_k
        if interpolation is None:
            raw = [2.0**i for i in range(order, 0, -1)]
            total = sum(raw)
            interpolation = tuple(w / total for w in raw)
        if len(interpolation) != order:
            raise ValueError(f"need {order} interpolation weights")
        if abs(sum(interpolation) - 1.0) > 1e-9 or min(interpolation) < 0:
            raise ValueError("interpolation weights must be a distribution")
        self.interpolation = interpolation
        self._fitted = False

    # -- fitting -----------------------------------------------------------

    def fit(self, tokens: np.ndarray) -> "NGramModel":
        """Count n-grams over a 1-D id stream."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1 or tokens.size < self.order:
            raise ValueError("token stream too short for the model order")
        if tokens.min() < 0 or tokens.max() >= self.vocab_size:
            raise ValueError("token id out of range")
        v = self.vocab_size
        self._unigram = np.bincount(tokens, minlength=v).astype(np.float64)
        self._total = float(tokens.size)
        if self.order >= 2:
            pair_keys = tokens[:-1] * v + tokens[1:]
            keys, counts = np.unique(pair_keys, return_counts=True)
            self._bigram_keys = keys
            self._bigram_counts = counts.astype(np.float64)
            # Context totals for normalization.
            self._context1 = np.bincount(tokens[:-1], minlength=v).astype(
                np.float64
            )
        if self.order >= 3:
            tri_keys = (tokens[:-2] * v + tokens[1:-1]) * v + tokens[2:]
            keys, counts = np.unique(tri_keys, return_counts=True)
            self._trigram_keys = keys
            self._trigram_counts = counts.astype(np.float64)
            pair_keys = tokens[:-2] * v + tokens[1:-1]
            keys, counts = np.unique(pair_keys, return_counts=True)
            self._context2_keys = keys
            self._context2_counts = counts.astype(np.float64)
        self._fitted = True
        return self

    # -- probabilities --------------------------------------------------------

    def _p_unigram(self, targets: np.ndarray) -> np.ndarray:
        k, v = self.add_k, self.vocab_size
        return (self._unigram[targets] + k) / (self._total + k * v)

    def _lookup(self, keys: np.ndarray, table_keys, table_counts) -> np.ndarray:
        pos = np.searchsorted(table_keys, keys)
        pos = np.clip(pos, 0, table_keys.size - 1)
        hit = table_keys[pos] == keys
        out = np.zeros(keys.shape, np.float64)
        out[hit] = table_counts[pos[hit]]
        return out

    def _p_bigram(self, context: np.ndarray, targets: np.ndarray) -> np.ndarray:
        k, v = self.add_k, self.vocab_size
        counts = self._lookup(
            context * v + targets, self._bigram_keys, self._bigram_counts
        )
        return (counts + k) / (self._context1[context] + k * v)

    def _p_trigram(
        self, c1: np.ndarray, c2: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        k, v = self.add_k, self.vocab_size
        counts = self._lookup(
            (c1 * v + c2) * v + targets, self._trigram_keys, self._trigram_counts
        )
        ctx = self._lookup(c1 * v + c2, self._context2_keys, self._context2_counts)
        return (counts + k) / (ctx + k * v)

    def prob(self, context: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Interpolated P(target | context) for parallel arrays.

        ``context`` has shape ``(n, order-1)`` (ignored columns allowed
        for order 1); ``targets`` has shape ``(n,)``.
        """
        if not self._fitted:
            raise RuntimeError("call fit() first")
        targets = np.asarray(targets, dtype=np.int64)
        context = np.asarray(context, dtype=np.int64).reshape(targets.size, -1)
        p = self.interpolation[-1] * self._p_unigram(targets)
        if self.order >= 2:
            p = p + self.interpolation[-2] * self._p_bigram(
                context[:, -1], targets
            )
        if self.order >= 3:
            p = p + self.interpolation[-3] * self._p_trigram(
                context[:, -2], context[:, -1], targets
            )
        return p

    # -- evaluation -------------------------------------------------------------

    def nll(self, tokens: np.ndarray) -> float:
        """Mean negative log-likelihood (nats/token) of a held-out stream."""
        tokens = np.asarray(tokens, dtype=np.int64)
        n_ctx = self.order - 1
        if tokens.size <= n_ctx:
            raise ValueError("stream too short to score")
        targets = tokens[n_ctx:]
        if n_ctx == 0:
            context = np.zeros((targets.size, 0), np.int64)
        else:
            context = np.stack(
                [tokens[i : i + targets.size] for i in range(n_ctx)], axis=1
            )
        p = self.prob(context, targets)
        return float(-np.log(np.maximum(p, 1e-300)).mean())

    def perplexity(self, tokens: np.ndarray) -> float:
        return math.exp(self.nll(tokens))
