"""Batch-invariant decode kernels over the existing language models.

A decoder adapts a trained model to the serving engine's protocol:

* ``vocab_size`` / ``embedding_weight`` — the ``(V, D)`` input
  embedding the replica-sharded lookup gathers rows from;
* ``init_state()`` — a fresh per-request state, a tuple of 1-D rows;
* ``advance(x, states)`` — the recurrent update of one time step over
  a batch: ``(B, D)`` embedded rows plus stacked states in, new states
  out.  Prefill folds prompts through this alone;
* ``step(x, states)`` — one decode time step: ``advance`` plus the
  logit head, returning ``(B, V)`` logits and the new states.

The load-bearing property is **batch invariance**: row ``r`` of every
``advance`` / ``step`` output is a pure function of row ``r`` of its
inputs, bitwise, whatever the batch composition.  BLAS gemm does *not*
provide this (its blocking depends on ``B``), so all matmuls run through
:func:`repro.nn.functional.row_matmul` via the ``step`` kernels on
:class:`~repro.nn.lstm.LSTM` and :class:`~repro.nn.rhn.RHN`.  That is
what makes continuous batching a pure scheduling optimization — the
differential suite asserts token-identical output against naive
one-request-at-a-time decode.

Sampling is schedule-independent too: token choices draw from
``default_rng((seed, request_id, position))``, so a request's stream
never depends on which batch (or which post-recovery generation) served
it.
"""

from __future__ import annotations

import numpy as np

from ..nn.functional import log_softmax, row_matmul
from ..train.char_lm import CharLanguageModel
from ..train.word_lm import WordLanguageModel

__all__ = [
    "CharLMDecoder",
    "WordLMDecoder",
    "fold_histories",
    "sample_token",
    "stack_states",
]


#: One request's state rows, or the same components batched ``(B, ...)``.
States = tuple[np.ndarray, ...]


def stack_states(rows: list[States]) -> States:
    """Stack per-request state rows into batched ``(B, ...)`` components."""
    if not rows:
        raise ValueError("cannot stack an empty state batch")
    parts = len(rows[0])
    return tuple(
        np.stack([r[p] for r in rows], axis=0) for p in range(parts)
    )


def fold_histories(decoder, histories, start: States | None = None) -> States:
    """Fold each token history into its start state, all of them in lock step.

    ``start`` holds one batched start row per history (it is not
    written to); ``None`` starts every history from ``init_state()``.
    Step ``t`` advances every history that has a ``t``-th token in one
    ``decoder.advance`` call; histories are walked longest first, so the
    live rows are always a prefix slice.  Batch invariance makes row
    ``i`` of each returned component bit-identical to folding
    ``histories[i]`` alone; an empty history yields its start row, and
    no histories yield zero-row components.
    """
    n = len(histories)
    if start is None:
        start = tuple(
            np.broadcast_to(row, (n,) + row.shape) for row in decoder.init_state()
        )
    order = sorted(range(n), key=lambda i: -len(histories[i]))
    lengths = np.array([len(histories[i]) for i in order], dtype=np.int64)
    steps = int(lengths.max(initial=0))
    ids = np.zeros((n, steps), dtype=np.int64)
    for row, i in zip(ids, order):
        row[: len(histories[i])] = histories[i]
    embedded = decoder.embedding_weight[ids]
    states = tuple(part[order] for part in start)
    for t in range(steps):
        live = int((lengths > t).sum())
        advanced = decoder.advance(
            embedded[:live, t], tuple(part[:live] for part in states)
        )
        for part, rows in zip(states, advanced):
            part[:live] = rows
    unsort = np.argsort(order)
    return tuple(part[unsort] for part in states)


def sample_token(
    logits: np.ndarray,
    rng: np.random.Generator | None,
    temperature: float = 0.0,
) -> int:
    """Choose the next token from one ``(V,)`` logit row.

    ``temperature = 0`` is greedy argmax (no RNG consumed); otherwise
    draws from the tempered softmax via inverse-CDF on the log-space
    probabilities — numerically identical regardless of batch context.
    """
    logits = np.asarray(logits)
    if logits.ndim != 1:
        raise ValueError("sample_token expects a single (V,) logit row")
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    if temperature == 0.0:
        return int(np.argmax(logits))
    if rng is None:
        raise ValueError("sampled decoding needs an rng")
    logp = log_softmax(logits / temperature)
    cdf = np.cumsum(np.exp(logp))
    u = rng.random() * cdf[-1]
    return int(min(np.searchsorted(cdf, u, side="right"), logits.size - 1))


class WordLMDecoder:
    """Decode adapter for :class:`~repro.train.word_lm.WordLanguageModel`.

    State per request: the LSTM's ``(h, c)`` rows.  Logits follow the
    model's evaluation path — projection then the (possibly tied)
    output-embedding inner product — through batch-invariant kernels.
    """

    def __init__(self, model: WordLanguageModel):
        self.model = model
        self.vocab_size = model.config.vocab_size
        self.embedding_weight = model.embedding.weight.data
        self._hidden = model.lstm.hidden_dim

    @property
    def state_nbytes(self) -> int:
        """Resident bytes of one request's state."""
        itemsize = self.embedding_weight.dtype.itemsize
        return 2 * self._hidden * itemsize

    def init_state(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero ``(h, c)`` rows for a fresh request."""
        dtype = self.embedding_weight.dtype
        zero = np.zeros(self._hidden, dtype)
        return (zero, zero.copy())

    def advance(self, x: np.ndarray, states: States) -> States:
        """Fold one embedded row per request into its ``(h, c)``."""
        return self.model.lstm.step(x, states)[1]

    def step(self, x: np.ndarray, states: States) -> tuple[np.ndarray, States]:
        """One decode step: embedded rows in, full-vocab logits out."""
        new_state = self.advance(x, states)
        proj = row_matmul(new_state[0], self.model.projection.weight.data)
        if self.model.projection.bias is not None:
            proj = proj + self.model.projection.bias.data
        logits = row_matmul(proj, self.model.loss_layer.weight.data.T)
        return logits, new_state


class CharLMDecoder:
    """Decode adapter for :class:`~repro.train.char_lm.CharLanguageModel`.

    State per request: the RHN's ``s`` row.  Dropout is inference-off by
    construction (the decoder never touches the dropout layer); logits
    use the full-softmax weights plus bias, as in evaluation.
    """

    def __init__(self, model: CharLanguageModel):
        self.model = model
        self.vocab_size = model.config.vocab_size
        self.embedding_weight = model.embedding.weight.data
        self._hidden = model.rhn.hidden_dim

    @property
    def state_nbytes(self) -> int:
        """Resident bytes of one request's state."""
        return self._hidden * self.embedding_weight.dtype.itemsize

    def init_state(self) -> tuple[np.ndarray]:
        """Zero ``s`` row for a fresh request."""
        return (np.zeros(self._hidden, self.embedding_weight.dtype),)

    def advance(self, x: np.ndarray, states: States) -> States:
        """Fold one embedded row per request into its ``s``."""
        return (self.model.rhn.step(x, states[0])[0],)

    def step(self, x: np.ndarray, states: States) -> tuple[np.ndarray, States]:
        """One decode step: embedded rows in, full-vocab logits out."""
        new_state = self.advance(x, states)
        logits = (
            row_matmul(new_state[0], self.model.loss_layer.weight.data.T)
            + self.model.loss_layer.bias.data
        )
        return logits, new_state
