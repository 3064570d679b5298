"""Extended evaluation: per-frequency-bucket perplexity.

Zipf's law shapes *learning*, not just communication: head words are
seen thousands of times per epoch and learn quickly, tail words barely
at all.  Bucketed perplexity makes that visible — and quantifies what
vocabulary truncation (Section IV-A) actually costs, since the truncated
mass is exactly the worst-modelled tail.

Works with any model exposing the trainer protocol plus full-vocabulary
scoring (both LM families here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.batching import Batch
from ..nn.functional import log_softmax
from .char_lm import CharLanguageModel
from .word_lm import WordLanguageModel

__all__ = ["BucketReport", "frequency_buckets", "bucketed_nll"]


@dataclass(frozen=True)
class BucketReport:
    """Per-bucket evaluation: token shares and NLL (nats/token)."""

    boundaries: tuple[int, ...]       # bucket upper bounds (vocab ids)
    token_counts: tuple[int, ...]
    nll: tuple[float, ...]

    @property
    def perplexity(self) -> tuple[float, ...]:
        return tuple(float(np.exp(x)) for x in self.nll)


def frequency_buckets(vocab_size: int, n_buckets: int) -> np.ndarray:
    """Log-spaced id boundaries over a frequency-ranked vocabulary.

    Returns ``n_buckets`` upper bounds; bucket i covers ids in
    ``[bounds[i-1], bounds[i])``.  Log spacing matches Zipf structure:
    the head buckets are small in types but huge in tokens.
    """
    if vocab_size <= 1:
        raise ValueError("vocab_size must exceed 1")
    if not 1 <= n_buckets <= vocab_size:
        raise ValueError("need 1 <= n_buckets <= vocab_size")
    bounds = np.unique(
        np.geomspace(1, vocab_size, n_buckets).astype(np.int64)
    )
    bounds[-1] = vocab_size
    return bounds


def _token_logprobs(
    model: WordLanguageModel | CharLanguageModel, batch: Batch
) -> np.ndarray:
    """Per-token log P(target) over the full vocabulary."""
    targets = batch.targets.reshape(-1)
    if isinstance(model, WordLanguageModel):
        hidden, _ = model._forward_hidden(batch.inputs)
        logits = hidden @ model.loss_layer.weight.data.T
    else:
        emb, _ = model.embedding.forward(batch.inputs)
        hs, _ = model.rhn.forward(emb)
        hidden = hs.reshape(-1, model.config.hidden_dim)
        logits = hidden @ model.loss_layer.weight.data.T + model.loss_layer.bias.data
    logp = log_softmax(logits, axis=1)
    return logp[np.arange(targets.size), targets]


def bucketed_nll(
    model: WordLanguageModel | CharLanguageModel,
    batches: list[Batch],
    n_buckets: int = 5,
) -> BucketReport:
    """Evaluate NLL separately per frequency bucket of the *target* id.

    Token ids are assumed frequency-ranked (the convention throughout
    this library), so bucket 0 is the head.
    """
    if not batches:
        raise ValueError("no evaluation batches")
    vocab = (
        model.config.vocab_size
        if hasattr(model, "config")
        else int(max(b.targets.max() for b in batches)) + 1
    )
    bounds = frequency_buckets(vocab, n_buckets)
    was_training = model.training
    model.eval()
    try:
        all_logp = []
        all_targets = []
        for batch in batches:
            all_logp.append(_token_logprobs(model, batch))
            all_targets.append(batch.targets.reshape(-1))
    finally:
        model.train(was_training)
    logp = np.concatenate(all_logp)
    targets = np.concatenate(all_targets)

    bucket_of = np.searchsorted(bounds, targets, side="right")
    bucket_of = np.minimum(bucket_of, bounds.size - 1)
    counts, nlls = [], []
    for i in range(bounds.size):
        mask = bucket_of == i
        n = int(mask.sum())
        counts.append(n)
        nlls.append(float(-logp[mask].mean()) if n else float("nan"))
    return BucketReport(
        boundaries=tuple(int(b) for b in bounds),
        token_counts=tuple(counts),
        nll=tuple(nlls),
    )
