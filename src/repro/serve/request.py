"""Request objects for the serving path: lifecycle states and records.

A :class:`ServeRequest` is what the traffic generator emits and the
scheduler admits; a :class:`CompletedRequest` is the immutable outcome
record the engine produces, carrying everything the latency metrics
need (arrival, first-token, and per-token emission times in simulated
seconds).

Lifecycle
---------
::

    QUEUED --admit--> ACTIVE --eos/max-tokens--> FINISHED
       |                 |
       |  slo expiry     |  rank loss (state lost with the replica)
       v                 v
    DROPPED           QUEUED  (re-admitted; emitted tokens are kept)

``DROPPED`` is terminal and only ever reached through the SLO deadline
policy — the scheduler records an ``slo_expired`` event for every drop,
which the property suite asserts (no silent drops).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError

__all__ = ["RequestState", "ServeRequest", "CompletedRequest"]


class RequestState(enum.Enum):
    """Where a request sits in the scheduler lifecycle."""

    QUEUED = "queued"
    ACTIVE = "active"
    FINISHED = "finished"
    DROPPED = "dropped"


@dataclass(frozen=True)
class ServeRequest:
    """One inference request as generated by the traffic model.

    Parameters
    ----------
    request_id:
        Unique id; keys the state cache and all scheduler events.
    prompt:
        Non-empty ``int64`` token-id vector.
    max_new_tokens:
        Decode budget; the request finishes with reason ``"length"``
        when it is exhausted.
    arrival_s:
        Arrival time in simulated seconds from run start.
    slo_s:
        Deadline budget: a queued request whose age exceeds ``slo_s``
        may be dropped by the deadline policy.  ``inf`` disables drops.
    eos_token:
        Optional end-of-sequence id terminating decode early.
    """

    request_id: int
    prompt: np.ndarray
    max_new_tokens: int
    arrival_s: float = 0.0
    slo_s: float = float("inf")
    eos_token: int | None = None

    def __post_init__(self) -> None:
        prompt = np.asarray(self.prompt, dtype=np.int64)
        if prompt.ndim != 1 or prompt.size == 0:
            raise ConfigError("prompt must be a non-empty 1-D token vector")
        object.__setattr__(self, "prompt", prompt)
        if self.max_new_tokens <= 0:
            raise ConfigError("max_new_tokens must be positive")
        if not 0 <= self.arrival_s < float("inf"):  # NaN fails both sides
            raise ConfigError("arrival_s must be finite and non-negative")
        if not self.slo_s > 0:  # NaN included
            raise ConfigError("slo_s must be positive")

    @property
    def deadline_s(self) -> float:
        """Absolute drop deadline (arrival + SLO budget)."""
        return self.arrival_s + self.slo_s


@dataclass(frozen=True)
class CompletedRequest:
    """Immutable outcome record for one finished or dropped request.

    ``token_times_s`` holds the simulated emission time of each decoded
    token; empty for requests dropped before their first token.
    """

    request_id: int
    tokens: tuple[int, ...]
    finish_reason: str
    arrival_s: float
    finish_s: float
    slo_s: float
    token_times_s: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.finish_reason not in ("eos", "length", "slo_expired"):
            raise ValueError(f"unknown finish reason {self.finish_reason!r}")
        if len(self.token_times_s) != len(self.tokens):
            raise ValueError("token_times_s must align with tokens")

    @property
    def dropped(self) -> bool:
        """Whether the deadline policy dropped the request."""
        return self.finish_reason == "slo_expired"

    @property
    def ttft_s(self) -> float:
        """Time to first token (``nan`` when no token was emitted)."""
        if not self.token_times_s:
            return float("nan")
        return self.token_times_s[0] - self.arrival_s

    @property
    def latency_s(self) -> float:
        """Arrival-to-completion latency."""
        return self.finish_s - self.arrival_s

    @property
    def met_slo(self) -> bool:
        """Whether the request completed within its SLO budget."""
        return not self.dropped and self.latency_s <= self.slo_s

    def per_token_latencies_s(self) -> tuple[float, ...]:
        """Inter-token gaps (first entry is the TTFT)."""
        if not self.token_times_s:
            return ()
        prev = self.arrival_s
        gaps = []
        for t in self.token_times_s:
            gaps.append(t - prev)
            prev = t
        return tuple(gaps)
