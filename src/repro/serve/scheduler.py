"""Continuous-batching scheduler: the active batch re-forms every step.

Static batching waits for a full batch, runs it to completion, and lets
finished slots idle; continuous batching (Orca-style) re-forms the
active set at every decode-step boundary — retired requests free their
slot immediately and queued arrivals are admitted into it.  The
scheduler here is **pure control logic**: it never touches a model,
communicator, or clock source, so the 200-case property suites can
drive it with random arrival/eviction plans at tens of microseconds per
plan.

States follow :class:`repro.serve.request.RequestState`:

* ``QUEUED`` — arrived (or not yet arrived) and waiting for a slot;
* ``ACTIVE`` — in the current decode batch;
* ``FINISHED`` — retired on EOS or token-budget exhaustion;
* ``DROPPED`` — expired under the SLO deadline policy *while queued*
  (admitted requests always run to completion; dropping work already
  prefix-decoded wastes the tokens the user has streamed).

Every transition appends to :attr:`ContinuousBatchingScheduler.events`
— ``(kind, request_id, now)`` tuples — which the no-silent-drop
property asserts over: a request may leave the system only through a
``finish`` or ``slo_expired`` event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import takewhile

from ..errors import ConfigError
from .request import RequestState, ServeRequest

__all__ = ["ContinuousBatchingScheduler", "TrackedRequest"]


@dataclass
class TrackedRequest:
    """Mutable per-request bookkeeping inside the scheduler."""

    request: ServeRequest
    state: RequestState = RequestState.QUEUED
    emitted: list[int] = field(default_factory=list)
    token_times_s: list[float] = field(default_factory=list)
    finish_reason: str | None = None
    finish_s: float | None = None
    readmissions: int = 0

    @property
    def consumed_tokens(self) -> list[int]:
        """Prompt plus emissions — the decoder-visible token history."""
        return list(self.request.prompt) + self.emitted

    @property
    def n_consumed(self) -> int:
        """``len(consumed_tokens)`` without building the list."""
        return self.request.prompt.size + len(self.emitted)

    @property
    def last_token(self) -> int:
        """``consumed_tokens[-1]``: the next decode step's input."""
        return self.emitted[-1] if self.emitted else int(self.request.prompt[-1])


class ContinuousBatchingScheduler:
    """Admission queue + active set over a stream of requests.

    Parameters
    ----------
    requests:
        The full (finite) request stream; internally ordered by
        ``(arrival_s, request_id)``.
    max_batch:
        Active-set capacity per decode step.
    drop_expired:
        The SLO deadline policy: when True, queued requests whose age
        exceeds their SLO budget are dropped at poll time (with an
        ``slo_expired`` event); when False they wait indefinitely.

    Queue invariant: readmitted requests (which arrived before the
    ``now`` of their readmission) sit ahead of the never-admitted ones,
    which are in arrival order.  While ``now`` never decreases between
    calls, the arrived requests are therefore a *prefix* of the queue:
    every walk stops at the first future arrival — the next arrival.
    """

    def __init__(
        self,
        requests: list[ServeRequest],
        max_batch: int,
        drop_expired: bool = True,
    ):
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        ids = [r.request_id for r in requests]
        if len(set(ids)) != len(ids):
            raise ConfigError("request ids must be unique")
        self.max_batch = max_batch
        self.drop_expired = drop_expired
        self.records: dict[int, TrackedRequest] = {
            r.request_id: TrackedRequest(r)
            for r in sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        }
        self._queue: list[int] = list(self.records)
        self.active: list[int] = []
        self.finished: list[int] = []
        self.dropped: list[int] = []
        self.events: list[tuple[str, int, float]] = []

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether every request has reached a terminal state."""
        return not self._queue and not self.active

    def queued_ids(self) -> tuple[int, ...]:
        """Requests still waiting (arrived or future), in queue order."""
        return tuple(self._queue)

    def arrived_ids(self, now: float) -> list[int]:
        """The queue's arrived prefix (see the class invariant)."""
        arrived = lambda rid: self.records[rid].request.arrival_s <= now
        return list(takewhile(arrived, self._queue))

    def next_arrival_s(self, now: float) -> float | None:
        """Earliest future arrival among queued requests, if any."""
        arrivals = (self.records[rid].request.arrival_s for rid in self._queue)
        return next((at_s for at_s in arrivals if at_s > now), None)

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------

    def poll(self, now: float) -> tuple[list[int], list[int]]:
        """Apply the deadline policy, then fill free slots FIFO.

        Returns ``(admitted_ids, dropped_ids)`` for this poll.  Only
        arrived requests are considered; readmitted requests sit at the
        queue head so recovery work is rescheduled first.
        """
        dropped: list[int] = []
        if self.drop_expired:
            dropped = [
                rid
                for rid in self.arrived_ids(now)
                if self.records[rid].request.deadline_s < now
            ]
            for rid in dropped:
                self._queue.remove(rid)
                rec = self.records[rid]
                rec.state = RequestState.DROPPED
                rec.finish_reason = "slo_expired"
                rec.finish_s = now
                self.dropped.append(rid)
                self.events.append(("slo_expired", rid, now))
        free = max(self.max_batch - len(self.active), 0)
        admitted = self.arrived_ids(now)[:free] if free else []
        for rid in admitted:
            self.records[rid].state = RequestState.ACTIVE
            self.active.append(rid)
            self.events.append(("admit", rid, now))
        del self._queue[: len(admitted)]
        return admitted, dropped

    def record_token(self, rid: int, token: int, now: float) -> str | None:
        """Register one emission; retires the request when it terminates.

        Returns the finish reason (``"eos"`` / ``"length"``) when the
        emission completed the request, else ``None``.
        """
        rec = self.records[rid]
        if rec.state is not RequestState.ACTIVE:
            raise ValueError(f"request {rid} is not active")
        rec.emitted.append(int(token))
        rec.token_times_s.append(now)
        reason = None
        if (
            rec.request.eos_token is not None
            and int(token) == rec.request.eos_token
        ):
            reason = "eos"
        elif len(rec.emitted) >= rec.request.max_new_tokens:
            reason = "length"
        if reason is not None:
            self._retire(rid, reason, now)
        return reason

    def _retire(self, rid: int, reason: str, now: float) -> None:
        rec = self.records[rid]
        self.active.remove(rid)
        rec.state = RequestState.FINISHED
        rec.finish_reason = reason
        rec.finish_s = now
        self.finished.append(rid)
        self.events.append(("finish", rid, now))

    def readmit(self, rid: int, now: float) -> None:
        """Return an active request to the queue head (rank loss).

        Emitted tokens are kept — they were already streamed to the
        client — only the decoder state is lost and will be recomputed
        on the next admission.
        """
        rec = self.records[rid]
        if rec.state is not RequestState.ACTIVE:
            raise ValueError(f"request {rid} is not active")
        self.active.remove(rid)
        rec.state = RequestState.QUEUED
        rec.readmissions += 1
        self._queue.insert(0, rid)
        self.events.append(("readmitted", rid, now))
