"""Per-rank two-stream event timeline for the async collective engine.

Real accelerators run gradient communication on a **comm stream** that
proceeds concurrently with the **compute stream** still executing the
backward pass; wall-clock per iteration is the *schedule makespan*, not
the sum of phase times.  The synchronous simulator had no notion of
this — ``repro.perf.overlap`` asserted the overlapped time with a closed
formula.  This module *derives* it from an actual execution order.

Model
-----
Each of ``world_size`` ranks owns two streams:

* **compute** — advanced explicitly via :meth:`Timeline.record_compute`
  (the trainer and the perf benches feed it backward-pass chunks).  A
  per-rank *compute scale* models stragglers: every compute duration on
  rank ``r`` is multiplied by ``compute_scale[r]`` (see
  :func:`repro.cluster.failures.inject_straggler`).
* **comm** — occupied by collectives scheduled via
  :meth:`Timeline.schedule_collective`.

Contention rules (the same constraints a ring over one fabric imposes):

1. a collective cannot *start* before every participating rank has
   reached its issue point (``start >= max_r compute_clock[r]`` at issue);
2. the ring link is a single shared resource — collectives serialize on
   it in issue order (``start >= end`` of the previous collective);
3. a rank's compute stream blocks at :meth:`Timeline.complete` (the
   ``wait()``) until the collective's end time.

Durations come from the caller — the communicator passes the existing
:class:`~repro.cluster.interconnect.LinkSpec` alpha-beta cost models —
so the timeline adds *ordering*, never new cost constants.

Performance notes
-----------------
The append paths are hot at large ``G`` (a G=512 training step issues
collectives whose naive bookkeeping would build 512 event objects and
re-scan 512-entry clock lists each).  Three measures keep them cheap:

* :class:`TimelineEvent` is a ``NamedTuple`` (tuple-backed, no
  per-instance ``__dict__``);
* all-rank collectives are journaled as **one** compact record and only
  expanded into per-participant events lazily when :attr:`Timeline.events`
  (or a chrome trace) is actually read;
* running maxima (``makespan``) and per-rank busy totals are maintained
  incrementally, so measurement queries never scan the event journal.

See ``docs/PERFORMANCE.md`` for the profile-before/after methodology.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "COMPUTE_STREAM",
    "COMM_STREAM",
    "CollectiveTicket",
    "Timeline",
    "TimelineEvent",
    "events_to_chrome",
]

#: Stream names used in events and chrome traces.
COMPUTE_STREAM = "compute"
COMM_STREAM = "comm"


class TimelineEvent(NamedTuple):
    """One interval on one rank's compute or comm stream.

    Tuple-backed for cheap construction on the recording hot path;
    field order is part of the serialization contract of
    :mod:`repro.telemetry.spans` (which writes ``[rank, stream, name,
    start, end]`` rows and reconstructs events positionally).
    """

    rank: int
    stream: str
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Interval length in simulated seconds."""
        return self.end - self.start


@dataclass(frozen=True)
class CollectiveTicket:
    """The scheduled placement of one collective on the comm streams.

    Returned by :meth:`Timeline.schedule_collective`; passed back to
    :meth:`Timeline.complete` when the issuing code ``wait()``\\ s.
    """

    index: int
    name: str
    start: float
    end: float


class _CollectiveRecord(NamedTuple):
    """Compact journal entry: one collective, all participants.

    ``ranks`` is ``None`` for the common all-ranks case — the expansion
    to per-participant :class:`TimelineEvent` rows happens lazily in
    :meth:`Timeline._materialize_events`.
    """

    name: str
    start: float
    end: float
    ranks: tuple[int, ...] | None


class Timeline:
    """Simulated two-stream (compute + comm) schedule over all ranks.

    Parameters
    ----------
    world_size:
        Number of simulated ranks.

    Notes
    -----
    The timeline is *monotone*: clocks only move forward, and scheduling
    queries are O(1) per event.  All times are simulated seconds from
    the start of the run; use :meth:`mark` / :meth:`elapsed_since` for
    per-iteration spans.
    """

    def __init__(self, world_size: int):
        if world_size <= 0:
            raise ValueError(f"world_size must be positive, got {world_size}")
        self.world_size = world_size
        self.compute_clock = [0.0] * world_size
        self.comm_clock = [0.0] * world_size
        self.compute_scale = [1.0] * world_size
        self._link_free = 0.0
        self._next_index = 0
        # Journal: TimelineEvent for compute, _CollectiveRecord for
        # collectives; expanded lazily by the ``events`` property.
        self._journal: list = []
        self._events_cache: list[TimelineEvent] | None = []
        # Incremental measurement state (never rescans the journal).
        self._max_compute = 0.0
        self._max_comm = 0.0
        self._busy_compute = [0.0] * world_size
        self._busy_comm = [0.0] * world_size

    # ------------------------------------------------------------------
    # stream advancement
    # ------------------------------------------------------------------

    def set_compute_scale(self, rank: int, factor: float) -> None:
        """Scale every subsequent compute duration on ``rank`` by ``factor``.

        ``factor > 1`` makes the rank a straggler; the synchronous
        schedule then pays the slowdown on every collective that rank
        participates in (rule 1 above).
        """
        self._check_rank(rank)
        if factor <= 0:
            raise ValueError(f"compute scale must be positive, got {factor}")
        self.compute_scale[rank] = factor

    def record_compute(
        self, rank: int, seconds: float, name: str = "compute"
    ) -> TimelineEvent:
        """Append ``seconds`` of work to ``rank``'s compute stream.

        The duration is multiplied by the rank's compute scale; returns
        the placed event.
        """
        self._check_rank(rank)
        if seconds < 0:
            raise ValueError(f"seconds must be non-negative, got {seconds}")
        start = self.compute_clock[rank]
        end = start + seconds * self.compute_scale[rank]
        self.compute_clock[rank] = end
        if end > self._max_compute:
            self._max_compute = end
        self._busy_compute[rank] += end - start
        event = TimelineEvent(rank, COMPUTE_STREAM, name, start, end)
        self._journal.append(event)
        if self._events_cache is not None:
            self._events_cache.append(event)
        return event

    def record_compute_all(self, seconds: float, name: str = "compute") -> None:
        """:meth:`record_compute` on every rank, in rank order."""
        for rank in range(self.world_size):  # mesh-ok: charging every rank's clock is this method's contract
            self.record_compute(rank, seconds, name)

    def schedule_collective(
        self, duration: float, name: str = "", ranks: Sequence[int] | None = None
    ) -> CollectiveTicket:
        """Place one collective of ``duration`` seconds on the comm streams.

        The start time honours the contention rules in the module
        docstring: no earlier than any participating rank's current
        compute position (its issue point), no earlier than any of their
        comm streams, and no earlier than the shared link frees up.
        The collective's completion does **not** block compute — call
        :meth:`complete` when the issuing code waits on its handle.
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        comm_clock = self.comm_clock
        if ranks is None:
            # Fast path for the common all-ranks collective: running
            # maxima replace the per-participant scans, and no
            # participant list is materialized at all.
            start = self._max_compute
            if self._max_comm > start:
                start = self._max_comm
            if self._link_free > start:
                start = self._link_free
            end = start + duration
            dur = end - start
            busy = self._busy_comm
            for r in range(self.world_size):  # mesh-ok: default participant set is every rank; callers pass subgroups
                comm_clock[r] = end
                busy[r] += dur
            participants = None
        else:
            participants = tuple(ranks)
            for r in participants:
                self._check_rank(r)
            if not participants:
                raise ValueError("a collective needs at least one participant")
            compute_clock = self.compute_clock
            start = self._link_free
            for r in participants:
                if compute_clock[r] > start:
                    start = compute_clock[r]
                if comm_clock[r] > start:
                    start = comm_clock[r]
            end = start + duration
            dur = end - start
            busy = self._busy_comm
            for r in participants:
                comm_clock[r] = end
                busy[r] += dur
        if end > self._max_comm:
            self._max_comm = end
        self._link_free = end
        self._journal.append(
            _CollectiveRecord(name or "collective", start, end, participants)
        )
        self._events_cache = None
        ticket = CollectiveTicket(self._next_index, name, start, end)
        self._next_index += 1
        return ticket

    def complete(
        self, ticket: CollectiveTicket, ranks: Sequence[int] | None = None
    ) -> float:
        """Block compute streams until ``ticket``'s collective finishes.

        Models ``WorkHandle.wait()``: each waiting rank's compute clock
        advances to at least the collective's end time.  Returns the end
        time.  Idempotent — waiting twice is a no-op.
        """
        end = ticket.end
        compute_clock = self.compute_clock
        if ranks is None:
            for r in range(self.world_size):  # mesh-ok: default participant set is every rank; callers pass subgroups
                if compute_clock[r] < end:
                    compute_clock[r] = end
        else:
            for r in ranks:
                self._check_rank(r)
                if compute_clock[r] < end:
                    compute_clock[r] = end
        if end > self._max_compute:
            self._max_compute = end
        return end

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------

    @property
    def events(self) -> list[TimelineEvent]:
        """All events in historical order (collectives expanded per rank).

        Materialized lazily from the compact journal and cached until
        the next collective is scheduled; treat the returned list as
        read-only.
        """
        cache = self._events_cache
        if cache is None:
            cache = self._materialize_events()
            self._events_cache = cache
        return cache

    def _materialize_events(self) -> list[TimelineEvent]:
        out: list[TimelineEvent] = []
        world = range(self.world_size)  # mesh-ok: expanding all-rank collectives into per-rank rows
        for entry in self._journal:
            if type(entry) is TimelineEvent:
                out.append(entry)
            else:
                name, start, end, ranks = entry
                for r in (world if ranks is None else ranks):  # mesh-ok: expanding an all-rank collective into per-rank rows
                    out.append(
                        TimelineEvent(r, COMM_STREAM, name, start, end)
                    )
        return out

    @property
    def makespan(self) -> float:
        """End of the schedule: the latest point any stream reaches."""
        span = self._max_compute
        if self._max_comm > span:
            span = self._max_comm
        if self._link_free > span:
            span = self._link_free
        return span

    def mark(self) -> float:
        """Snapshot the current makespan (start of a measured interval)."""
        return self.makespan

    def elapsed_since(self, mark: float) -> float:
        """Simulated seconds between ``mark`` and the current makespan."""
        return self.makespan - mark

    def busy_time(self, rank: int, stream: str) -> float:
        """Total occupied seconds of one rank's compute or comm stream."""
        self._check_rank(rank)
        if stream == COMPUTE_STREAM:
            return self._busy_compute[rank]
        if stream == COMM_STREAM:
            return self._busy_comm[rank]
        return 0.0

    def exposed_comm_time(self) -> float:
        """Comm seconds *not* hidden behind compute, over the whole run.

        The difference between the makespan and the busiest compute
        stream: with perfect overlap it is zero; with no compute
        recorded it equals the serialized comm span.
        """
        busiest = max(self._busy_compute, default=0.0)
        return max(0.0, self.makespan - busiest)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(
                f"rank {rank} out of range for world size {self.world_size}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Timeline(world_size={self.world_size}, "
            f"events={len(self._journal)}, makespan={self.makespan:.3e}s)"
        )


def events_to_chrome(
    events: Sequence[TimelineEvent],
    pid_base: int = 0,
    time_offset_s: float = 0.0,
    generation: int | None = None,
) -> list[dict]:
    """Render timeline events as Chrome ``X`` blocks (pid=rank, tid=stream).

    One ``pid`` per rank, one ``tid`` per stream, so the two-stream
    structure renders as paired tracks in ``chrome://tracing``.
    Module-level so the merged exporter in :mod:`repro.telemetry.spans`
    can render events deserialised from a trace-parts file without
    reconstructing a live :class:`Timeline`.
    """
    trace = []
    for e in events:
        args: dict = {"stream": e.stream}
        if generation is not None:
            args["generation"] = generation
        trace.append(
            {
                "name": e.name,
                "cat": e.stream,
                "ph": "X",
                "ts": (e.start + time_offset_s) * 1e6,
                "dur": e.duration * 1e6,
                "pid": pid_base + e.rank,
                "tid": 0 if e.stream == COMPUTE_STREAM else 1,
                "args": args,
            }
        )
    return trace
