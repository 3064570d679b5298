"""Fault injection: degraded links, stragglers, and mid-run rank failures.

Long training runs on hundreds of GPUs meet hardware trouble; the paper's
Hero run (192 GPUs for 34 hours) is exactly the regime where a failure
story matters.  This module provides:

* :func:`degrade_fabric` — an interconnect with reduced bandwidth on one
  or both tiers (a flapping switch, a congested PCIe root complex),
  letting cost-model studies quantify sensitivity to network health;
* :func:`inject_straggler` — slow one rank's compute stream on a
  :class:`~repro.cluster.timeline.Timeline` by a constant factor (a
  thermally-throttled GPU, a noisy host), so the synchronous-straggler
  analysis of :mod:`repro.perf.stragglers` can be validated against a
  measured schedule rather than only the extreme-value formula;
* the **fault taxonomy** consumed by the supervised recovery loop of
  :mod:`repro.train.resilience`: :class:`TransientLinkError` (a flapping
  link — the collective succeeds if retried) vs the permanent
  :class:`RankFailureError` (the rank is gone; the world must shrink);
* :class:`FaultPlan` / :class:`FaultEvent` — a declarative, seedable
  schedule of faults keyed by global collective index, replayed
  deterministically by :class:`FaultReplay`, a ``pre_issue`` hook on the
  collective funnel that :class:`ChaosCommunicator` attaches.  The same
  plan object drives the chaos tests and the differential
  (faulted-vs-clean) equivalence checks; a
  one-event plan (``RANK_LOSS`` at collective *n*) is the "node crashes
  mid-step" scenario of the checkpoint/restart tests in
  ``tests/cluster/test_failures.py``.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .communicator import CollectiveHook, Communicator
from .interconnect import Interconnect, LinkSpec
from .timeline import Timeline
from ..errors import FormatError, ReproError

__all__ = [
    "degrade_fabric",
    "inject_straggler",
    "RankFailureError",
    "TransientLinkError",
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
    "FaultReplay",
    "ChaosCommunicator",
]


def degrade_fabric(
    fabric: Interconnect,
    intra_factor: float = 1.0,
    inter_factor: float = 1.0,
) -> Interconnect:
    """A copy of ``fabric`` with bandwidths divided by the given factors.

    Factors must be >= 1 (this injects degradation, not upgrades).
    """
    if intra_factor < 1.0 or inter_factor < 1.0:
        raise ValueError("degradation factors must be >= 1")

    def slow(link: LinkSpec, factor: float) -> LinkSpec:
        return LinkSpec(bandwidth=link.bandwidth / factor, latency=link.latency)

    return replace(
        fabric,
        intra_node=slow(fabric.intra_node, intra_factor),
        inter_node=slow(fabric.inter_node, inter_factor),
    )


def inject_straggler(
    timeline: Timeline, rank: int, slowdown: float
) -> Timeline:
    """Make ``rank`` a straggler: scale its compute durations by ``slowdown``.

    ``slowdown`` must be >= 1 (this injects degradation, not speedups).
    Returns the timeline for chaining.  Every subsequent collective the
    rank participates in starts no earlier than the rank's slowed issue
    point, so the whole synchronous schedule pays the straggler — the
    mechanism behind :func:`repro.perf.stragglers.straggler_slowdown`.
    """
    if slowdown < 1.0:
        raise ValueError(f"slowdown must be >= 1, got {slowdown}")
    timeline.set_compute_scale(rank, slowdown)
    return timeline


class RankFailureError(ReproError, RuntimeError):
    """A simulated rank crashed during a collective.

    Synchronous collectives are all-or-nothing: when one rank dies, every
    participant observes the failure (as NCCL communicators do).
    """

    def __init__(self, rank: int, op: str, collective_index: int):
        self.rank = rank
        self.op = op
        self.collective_index = collective_index
        super().__init__(
            f"rank {rank} failed during {op} (collective #{collective_index})"
        )


class TransientLinkError(ReproError, RuntimeError):
    """A link flapped during a collective; a retry may succeed.

    The *transient* half of the fault taxonomy.  Unlike
    :class:`RankFailureError` (the rank is gone for good), a transient
    fault models a recoverable fabric hiccup: a flapping switch port, a
    dropped RDMA completion, a timed-out NCCL kernel that a fresh
    communicator round would complete.  :class:`ChaosCommunicator`
    raises it at *issue* time, before any state is touched, so the
    supervised loop in :mod:`repro.train.resilience` can rewind the step
    and retry with backoff.
    """

    def __init__(self, rank: int, op: str, collective_index: int, attempt: int):
        self.rank = rank
        self.op = op
        self.collective_index = collective_index
        self.attempt = attempt
        super().__init__(
            f"transient link fault at rank {rank} during {op} "
            f"(collective #{collective_index}, attempt {attempt})"
        )


class FaultKind(str, Enum):
    """The fault taxonomy understood by :class:`FaultPlan`.

    * ``TRANSIENT_LINK`` — recoverable fabric hiccup; the collective is
      retried (raises :class:`TransientLinkError` ``retries`` times,
      then succeeds).
    * ``RANK_LOSS`` — permanent crash; raises
      :class:`RankFailureError` once and the world must shrink.
    * ``STRAGGLER`` — non-fatal slowdown; scales one rank's compute
      stream on the timeline (no exception is raised).
    """

    TRANSIENT_LINK = "transient_link"
    RANK_LOSS = "rank_loss"
    STRAGGLER = "straggler"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, keyed by the global collective issue index.

    Parameters
    ----------
    kind:
        Which member of the taxonomy fires.
    collective_index:
        The 0-based index (in issue order, counting only *successful*
        issues) of the first collective at or after which the event
        triggers.  Keying on issue order rather than wall/sim time makes
        replay deterministic regardless of the cost model.
    rank:
        The afflicted rank.
    retries:
        ``TRANSIENT_LINK`` only — how many consecutive issue attempts
        fail before the collective goes through.
    slowdown:
        ``STRAGGLER`` only — compute-stream scale factor (>= 1).
    """

    kind: FaultKind
    collective_index: int
    rank: int = 0
    retries: int = 1
    slowdown: float = 1.0

    def __post_init__(self):
        if self.collective_index < 0:
            raise ValueError("collective_index must be non-negative")
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        if self.kind is FaultKind.TRANSIENT_LINK and self.retries < 1:
            raise ValueError("transient events need retries >= 1")
        if self.kind is FaultKind.STRAGGLER and self.slowdown < 1.0:
            raise ValueError("straggler slowdown must be >= 1")

    def to_dict(self) -> dict:
        """JSON-serializable representation (used by :class:`FaultPlan`)."""
        return {
            "kind": self.kind.value,
            "collective_index": self.collective_index,
            "rank": self.rank,
            "retries": self.retries,
            "slowdown": self.slowdown,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=FaultKind(data["kind"]),
            collective_index=int(data["collective_index"]),
            rank=int(data.get("rank", 0)),
            retries=int(data.get("retries", 1)),
            slowdown=float(data.get("slowdown", 1.0)),
        )


class FaultPlan:
    """A declarative, replayable schedule of faults.

    Events are kept sorted by ``collective_index``; the plan itself is
    immutable at runtime — all mutable replay state (which events have
    fired, remaining retries) lives in :class:`FaultReplay`, so
    one plan object can drive both arms of a differential test.

    Plans round-trip through JSON (:meth:`save` / :meth:`load`) so the
    CLI's ``train --resilient --fault-plan plan.json`` and the chaos
    suite share the same format, and :meth:`random` draws a plan
    deterministically from a seed for the randomized chaos tests.
    """

    def __init__(self, events: tuple[FaultEvent, ...] | list[FaultEvent] = (), seed: int = 0):
        self.events = tuple(
            sorted(events, key=lambda e: (e.collective_index, e.rank, e.kind.value))
        )
        self.seed = int(seed)

    @classmethod
    def random(
        cls,
        seed: int,
        world_size: int,
        num_collectives: int,
        n_transient: int = 2,
        n_rank_loss: int = 0,
        n_straggler: int = 0,
        max_retries: int = 3,
        max_slowdown: float = 3.0,
    ) -> "FaultPlan":
        """Draw a plan deterministically from ``seed``.

        Transient and straggler events land uniformly over the first
        ``num_collectives`` issues; a rank loss (at most one is
        meaningful per plan arm) lands in the second half so there is
        progress to recover.
        """
        if world_size < 1 or num_collectives < 1:
            raise ValueError("world_size and num_collectives must be >= 1")
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []
        for _ in range(n_transient):
            events.append(
                FaultEvent(
                    kind=FaultKind.TRANSIENT_LINK,
                    collective_index=int(rng.integers(num_collectives)),
                    rank=int(rng.integers(world_size)),
                    retries=int(rng.integers(1, max_retries + 1)),
                )
            )
        for _ in range(n_straggler):
            events.append(
                FaultEvent(
                    kind=FaultKind.STRAGGLER,
                    collective_index=int(rng.integers(num_collectives)),
                    rank=int(rng.integers(world_size)),
                    slowdown=float(1.0 + rng.random() * (max_slowdown - 1.0)),
                )
            )
        for _ in range(n_rank_loss):
            events.append(
                FaultEvent(
                    kind=FaultKind.RANK_LOSS,
                    collective_index=int(
                        rng.integers(num_collectives // 2, num_collectives)
                    ),
                    rank=int(rng.integers(world_size)),
                )
            )
        return cls(events, seed=seed)

    def to_dict(self) -> dict:
        """JSON-serializable representation of the whole plan."""
        return {
            "seed": self.seed,
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict`; malformed input is a ``FormatError``."""
        try:
            return cls(
                events=[FaultEvent.from_dict(e) for e in data.get("events", [])],
                seed=int(data.get("seed", 0)),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise FormatError(f"malformed fault plan: {err!r}") from err

    def save(self, path: str | pathlib.Path) -> None:
        """Write the plan as JSON to ``path``."""
        pathlib.Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "FaultPlan":
        """Read a plan previously written by :meth:`save`."""
        try:
            return cls.from_dict(json.loads(pathlib.Path(path).read_text()))
        except json.JSONDecodeError as err:
            raise FormatError(f"fault plan {path} is not JSON: {err}") from err

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = {}
        for e in self.events:
            kinds[e.kind.value] = kinds.get(e.kind.value, 0) + 1
        return f"FaultPlan(seed={self.seed}, events={kinds})"


class FaultReplay(CollectiveHook):
    """Funnel hook that replays a :class:`FaultPlan` deterministically.

    The plan is consulted before each collective *issues* (before any
    state mutation — a chaotic collective never charges scratch and
    never lands on the timeline, so a supervised retry sees clean
    accounting) whichever entry point
    issued it: blocking, ``i*``, per-axis, transfer, or an explicitly
    scheduled fused ring hop.

    * due ``STRAGGLER`` events scale the rank's compute stream on
      ``timeline`` once and the issue proceeds;
    * due ``TRANSIENT_LINK`` events with retries remaining decrement
      their budget and raise :class:`TransientLinkError` **without**
      advancing the collective counter, so the retried issue meets the
      same event until its budget is exhausted;
    * due ``RANK_LOSS`` events fire once and raise
      :class:`RankFailureError`.

    Every injection is appended to :attr:`injected` —
    ``(collective_index, op, event)`` tuples — which the chaos tests use
    to assert the plan actually fired.
    """

    def __init__(self, plan: FaultPlan, timeline: Timeline):
        self.plan = plan
        self.timeline = timeline
        #: Number of successfully issued collectives so far.
        self.collectives_issued = 0
        self._remaining = {
            i: ev.retries
            for i, ev in enumerate(plan.events)
            if ev.kind is FaultKind.TRANSIENT_LINK
        }
        self._fired: set[int] = set()
        self.injected: list[tuple[int, str, FaultEvent]] = []

    def pre_issue(self, comm, op: str, tag: str, arrays) -> None:  # spmd-ok: chaos injection is deliberately rank-divergent — the plan kills/delays specific ranks by design
        """Consult the plan; a passing issue advances the counter."""
        index = self.collectives_issued
        for i, ev in enumerate(self.plan.events):
            if i in self._fired:
                continue
            if ev.collective_index > index:
                break  # events are sorted; nothing further is due yet
            if ev.kind is FaultKind.STRAGGLER:
                self._fired.add(i)
                inject_straggler(self.timeline, ev.rank, ev.slowdown)
                self.injected.append((index, op, ev))
            elif ev.kind is FaultKind.TRANSIENT_LINK:
                remaining = self._remaining[i]
                if remaining <= 0:
                    self._fired.add(i)
                    continue
                self._remaining[i] = remaining - 1
                attempt = ev.retries - remaining + 1
                self.injected.append((index, op, ev))
                raise TransientLinkError(ev.rank, op, index, attempt)
            else:  # FaultKind.RANK_LOSS
                self._fired.add(i)
                self.injected.append((index, op, ev))
                raise RankFailureError(ev.rank, op, index)
        self.collectives_issued += 1


class ChaosCommunicator(Communicator):
    """A communicator with a :class:`FaultReplay` hooked onto its funnel.

    The way to attach a plan: ``ChaosCommunicator(G, plan=plan)`` is a
    plain communicator whose first hook replays ``plan``; it overrides
    no collective.  Its :attr:`replay` holds the plan, the injections
    and the issued-collective count.
    """

    def __init__(self, *args, plan: FaultPlan | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.replay = FaultReplay(
            plan if plan is not None else FaultPlan(), self.timeline
        )
        self.hooks.append(self.replay)
