"""Shared fixtures for the serving suite: tiny models and test decoders."""

import numpy as np

from repro.serve import ArrivalSpec, ServeConfig, TrafficConfig, generate_traffic
from repro.serve.decoders import CharLMDecoder, WordLMDecoder
from repro.train.char_lm import CharLanguageModel
from repro.train.config import CharLMConfig, WordLMConfig
from repro.train.word_lm import WordLanguageModel

__all__ = [
    "CountingDecoder",
    "PRESSURE_ARRIVALS",
    "make_char_decoder",
    "make_word_decoder",
    "pressure_config",
    "pressure_traffic",
]

#: Arrival process fast enough (relative to the pressure_config costs)
#: to back up the admission queue, exercising speculative prefill,
#: cache eviction, and the SLO deadline policy.
PRESSURE_ARRIVALS = ArrivalSpec(
    calm_rate=200.0, burst_rate=2000.0, mean_calm_s=0.05, mean_burst_s=0.05
)


def make_word_decoder(seed: int = 0) -> WordLMDecoder:
    config = WordLMConfig(
        vocab_size=50,
        embedding_dim=8,
        hidden_dim=12,
        projection_dim=8,
        num_samples=4,
    )
    return WordLMDecoder(
        WordLanguageModel(config, np.random.default_rng(seed))
    )


def make_char_decoder(seed: int = 0) -> CharLMDecoder:
    config = CharLMConfig(
        vocab_size=30, embedding_dim=6, hidden_dim=10, depth=3, dropout=0.0
    )
    return CharLMDecoder(
        CharLanguageModel(config, np.random.default_rng(seed))
    )


def pressure_traffic(
    n: int = 24, seed: int = 3, vocab: int = 50, **overrides
) -> list:
    kwargs = dict(
        num_requests=n,
        vocab_size=vocab,
        prompt_pool=6,
        arrivals=PRESSURE_ARRIVALS,
        seed=seed,
    )
    kwargs.update(overrides)
    return generate_traffic(TrafficConfig(**kwargs))


def pressure_config(**overrides) -> ServeConfig:
    kwargs = dict(
        max_batch=3,
        seed=1,
        drop_expired=False,
        decode_token_s=5e-3,
        prefill_token_s=2e-3,
    )
    kwargs.update(overrides)
    return ServeConfig(**kwargs)


class CountingDecoder:
    """Deterministic scripted decoder for the pure-logic property suite.

    State is a single counter of consumed tokens; the next token is
    ``(count + request-independent mix) % vocab`` via a one-hot logit
    row.  Schedule-independent by construction — the properties exercise
    the scheduler/cache/engine plumbing, not the numerics.
    """

    def __init__(self, vocab_size: int = 16, dim: int = 2):
        self.vocab_size = vocab_size
        self.embedding_weight = np.arange(
            vocab_size * dim, dtype=np.float64
        ).reshape(vocab_size, dim)
        self.step_calls = 0
        # Prefill alone: ``step`` folds its row without entering ``advance``,
        # so one ``advance`` row is one prefill token.
        self.advance_calls = 0
        self.advance_rows = 0

    @property
    def state_nbytes(self) -> int:
        return 8

    def init_state(self):
        return (np.zeros(1, dtype=np.float64),)

    def advance(self, x, states):
        self.advance_calls += 1
        self.advance_rows += x.shape[0]
        return (states[0] + 1.0,)

    def step(self, x, states):
        self.step_calls += 1
        new = states[0] + 1.0
        batch = x.shape[0]
        logits = np.zeros((batch, self.vocab_size))
        idx = (new[:, 0].astype(np.int64) + x[:, 0].astype(np.int64)) % (
            self.vocab_size
        )
        logits[np.arange(batch), idx] = 1.0
        return logits, (new,)
