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

A collective is written down once, as a :class:`CollectiveRecord`
(op, tag, cost scope, bytes, time, placement), so the timeline also
keeps the *scope* stack that attributes cost to phases and the O(1)
running cost totals; :class:`~repro.cluster.tracing.CostLedger` is a
read-only view of them.

Performance notes
-----------------
The append paths are hot at large ``G`` (a G=512 training step issues
collectives whose naive bookkeeping would build 512 event objects and
re-scan 512-entry clock lists each).  Three measures keep them cheap:

* :class:`TimelineEvent` and :class:`CollectiveRecord` are
  ``NamedTuple`` classes (tuple-backed, no per-instance ``__dict__``);
* a collective is journaled as **one** record for all its participants
  and only expanded into per-participant events lazily when
  :attr:`Timeline.events` (or a chrome trace) is actually read;
* running maxima (``makespan``), per-rank busy totals and the cost
  totals are maintained incrementally, so measurement queries never
  scan the event journal.

See ``docs/PERFORMANCE.md`` for the profile-before/after methodology.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from typing import NamedTuple

from ..errors import ReproError

__all__ = [
    "COMPUTE_STREAM",
    "COMM_STREAM",
    "CollectiveRecord",
    "LedgerScopeError",
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


class LedgerScopeError(ReproError, RuntimeError):
    """Unbalanced or mismatched cost-scope push/pop.

    Raised instead of silently corrupting attribution: an unbalanced
    stack means every subsequent collective would be charged to the
    wrong phase, which is exactly the kind of bookkeeping bug the
    analysis tooling exists to catch.
    """


class CollectiveRecord(NamedTuple):
    """One collective, all participants: the only record of it.

    Returned by :meth:`Timeline.schedule_collective`; it is the ticket
    :meth:`Timeline.complete` takes.  ``time_s`` is the caller's cost as
    given (``end - start`` may round differently).  Payload bytes are
    ``-1`` when not recorded; ``ranks`` is ``None`` for all ranks.
    """

    op: str
    tag: str
    scope: str
    world: int
    wire_bytes_per_rank: int
    payload_bytes_per_rank: int
    time_s: float
    start: float
    end: float
    ranks: tuple[int, ...] | None

    @property
    def name(self) -> str:
        """Comm-stream label: ``op:tag``, or the tag of an op-less replay."""
        return f"{self.op}:{self.tag}" if self.op else self.tag

    @property
    def duration(self) -> float:
        """Interval length on the comm stream (``end - start``)."""
        return self.end - self.start

    @property
    def logical_bytes_per_rank(self) -> int:
        """Pre-codec payload bytes (wire bytes when not recorded); the
        measured compression factor is ``logical / wire``."""
        if self.payload_bytes_per_rank >= 0:
            return self.payload_bytes_per_rank
        return self.wire_bytes_per_rank


class _Scope:
    """Context manager of :meth:`Timeline.scope`."""

    def __init__(self, timeline: "Timeline", name: str):
        self._timeline = timeline
        self._name = name

    def __enter__(self) -> "Timeline":
        self._timeline.push_scope(self._name)
        return self._timeline

    def __exit__(self, *exc_info: object) -> None:
        self._timeline.pop_scope(expected=self._name)


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
        # Journal: TimelineEvent for compute, CollectiveRecord for
        # collectives; expanded lazily by the ``events`` property.
        self._journal: list = []
        self._events_cache: list[TimelineEvent] | None = []
        # Incremental measurement state (never rescans the journal).
        self._max_compute = 0.0
        self._max_comm = 0.0
        self._busy_compute = [0.0] * world_size
        self._busy_comm = [0.0] * world_size
        self._scope_stack: list[str] = []
        self._scope_str = ""
        # Running cost totals of the collective records (read through
        # the CostLedger view).
        self._n_collectives = 0
        self._total_wire = 0
        self._total_time = 0.0
        self._bytes_by_op: defaultdict[str, int] = defaultdict(int)
        self._time_by_op: defaultdict[str, float] = defaultdict(float)
        self._bytes_by_scope: defaultdict[str, int] = defaultdict(int)

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
        for rank in range(self.world_size):
            self.record_compute(rank, seconds, name)

    def schedule_collective(
        self,
        duration: float,
        name: str = "",
        ranks: Sequence[int] | None = None,
        *,
        op: str = "",
        wire_bytes_per_rank: int = 0,
        payload_bytes_per_rank: int | None = None,
        members: Sequence[tuple[str, int]] | None = None,
    ) -> CollectiveRecord:
        """Place one collective of ``duration`` seconds on the comm streams.

        The start time honours the contention rules in the module
        docstring: no earlier than any participating rank's current
        compute position (its issue point), no earlier than any of their
        comm streams, and no earlier than the shared link frees up.
        The collective's completion does **not** block compute — call
        :meth:`complete` when the issuing code waits on its handle.

        ``name`` is the tag; the communicator also passes ``op`` and the
        byte counts (a bare call, as the ``perf`` replays make, records
        an op-less collective).  Nothing is touched until all is valid.

        ``members`` marks a packed collective: ``(label, nbytes)`` per
        payload it carries, ``label`` the scope the payload would have
        been issued under alone in place of the innermost open one, and
        ``nbytes`` its per-rank message.  Its wire bytes are credited to
        the members' scopes in proportion, not to the pack's own.
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        if wire_bytes_per_rank < 0:
            raise ValueError("wire_bytes_per_rank must be non-negative")
        if payload_bytes_per_rank is None:
            payload_bytes_per_rank = -1
        elif payload_bytes_per_rank < 0:
            raise ValueError("payload_bytes_per_rank must be non-negative")
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
            for r in range(self.world_size):
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
        scope = self._scope_str
        record = CollectiveRecord(
            op,
            name if op else name or "collective",
            scope,
            self.world_size if participants is None else len(participants),
            wire_bytes_per_rank,
            payload_bytes_per_rank,
            duration,
            start,
            end,
            participants,
        )
        self._journal.append(record)
        self._events_cache = None
        self._n_collectives += 1
        self._total_wire += wire_bytes_per_rank
        self._total_time += duration
        self._bytes_by_op[op] += wire_bytes_per_rank
        self._time_by_op[op] += duration
        if members is None:
            self._bytes_by_scope[scope] += wire_bytes_per_rank
        else:
            self._credit(scope, wire_bytes_per_rank, members)
        return record

    def _credit(
        self, scope: str, wire: int, members: Sequence[tuple[str, int]]
    ) -> None:
        """Split one packed collective's wire bytes among its members.

        Member ``m`` gets ``floor(wire * c_m / total) - floor(wire *
        c_{m-1} / total)`` over the running sums ``c`` of the message
        sizes, so the shares sum to ``wire`` exactly.
        """
        outer = scope.rpartition("/")[0]
        total = sum(nbytes for _, nbytes in members) or 1
        running = credited = 0
        for label, nbytes in members:
            running += nbytes
            share = wire * running // total - credited
            credited += share
            key = f"{outer}/{label}" if outer else label
            self._bytes_by_scope[key] += share

    def complete(
        self, ticket: CollectiveRecord, ranks: Sequence[int] | None = None
    ) -> float:
        """Block compute streams until ``ticket``'s collective finishes.

        Models ``WorkHandle.wait()``: each waiting rank's compute clock
        advances to at least the collective's end time.  Returns the end
        time.  Idempotent — waiting twice is a no-op.
        """
        end = ticket.end
        compute_clock = self.compute_clock
        if ranks is None:
            for r in range(self.world_size):
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
    # cost scopes
    # ------------------------------------------------------------------

    @property
    def current_scope(self) -> str:
        """The open scopes, outermost first, joined by ``/``."""
        return self._scope_str

    def scope(self, name: str) -> _Scope:
        """Context manager charging enclosed collectives to ``name``."""
        return _Scope(self, name)

    def push_scope(self, name: str) -> None:
        """Enter a named scope (prefer the :meth:`scope` context manager)."""
        if "/" in name:
            raise LedgerScopeError("scope names must not contain '/'")
        stack = self._scope_stack
        stack.append(name)
        self._scope_str = name if len(stack) == 1 else self._scope_str + "/" + name

    def pop_scope(self, expected: str | None = None) -> str:
        """Leave the innermost scope, optionally checking its name.

        Raises
        ------
        LedgerScopeError
            If no scope is open (pop-on-empty), or ``expected`` is given
            and does not match the innermost open scope.
        """
        if not self._scope_stack:
            raise LedgerScopeError(
                "pop_scope on an empty scope stack: every pop must match a "
                "prior push (did an earlier scope exit twice?)"
            )
        top = self._scope_stack[-1]
        if expected is not None and top != expected:
            raise LedgerScopeError(
                f"mismatched scope nesting: tried to close {expected!r} "
                f"but the innermost open scope is {top!r} "
                f"(open stack: {self._scope_str!r})"
            )
        popped = self._scope_stack.pop()
        self._scope_str = "/".join(self._scope_stack)
        return popped

    def assert_balanced(self) -> None:
        """Raise :class:`LedgerScopeError` if any scope is still open.

        Call at the end of a run (the sanitizer does this) to catch a
        ``push_scope`` that never popped — collectives issued afterwards
        would be silently mis-attributed.
        """
        if self._scope_stack:
            raise LedgerScopeError(
                f"unbalanced scopes at end of run: {self._scope_str!r} "
                f"still open ({len(self._scope_stack)} unpopped push(es))"
            )

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------

    @property
    def collectives(self) -> list[CollectiveRecord]:
        """Every collective record, in issue order (a journal scan)."""
        return [e for e in self._journal if type(e) is CollectiveRecord]

    @property
    def events(self) -> list[TimelineEvent]:
        """All events in historical order (collectives expanded per rank).

        Materialized lazily from the compact journal and cached until
        the next collective is scheduled; treat the returned list as
        read-only.
        """
        if self._events_cache is None:
            out: list[TimelineEvent] = []
            world = range(self.world_size)
            for entry in self._journal:
                if type(entry) is TimelineEvent:
                    out.append(entry)
                    continue
                name, start, end = entry.name, entry.start, entry.end
                for r in world if entry.ranks is None else entry.ranks:
                    out.append(TimelineEvent(r, COMM_STREAM, name, start, end))
            self._events_cache = out
        return self._events_cache

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

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(
                f"rank {rank} out of range for world size {self.world_size}"
            )


def events_to_chrome(
    events: Sequence[TimelineEvent | CollectiveRecord],
    pid_base: int = 0,
    time_offset_s: float = 0.0,
    generation: int | None = None,
) -> list[dict]:
    """Render timeline events as Chrome ``X`` blocks (pid=rank, tid=stream).

    One ``pid`` per rank, one ``tid`` per stream, so the two-stream
    structure renders as paired tracks in ``chrome://tracing``.  A
    :class:`CollectiveRecord` renders as one comm block per participant
    whose ``args`` carry its op, scope and wire bytes.  Module-level so
    the merged exporter in :mod:`repro.telemetry.spans` can render
    records deserialised from a trace-parts file without reconstructing
    a live :class:`Timeline`.
    """
    trace = []
    for e in events:
        if type(e) is CollectiveRecord:
            stream = COMM_STREAM
            ranks = range(e.world) if e.ranks is None else e.ranks
            args: dict = {
                "stream": stream,
                "op": e.op,
                "scope": e.scope,
                "wire_bytes_per_rank": e.wire_bytes_per_rank,
            }
        else:
            stream, ranks, args = e.stream, (e.rank,), {"stream": e.stream}
        if generation is not None:
            args["generation"] = generation
        for r in ranks:
            trace.append(
                {
                    "name": e.name,
                    "cat": stream,
                    "ph": "X",
                    "ts": (e.start + time_offset_s) * 1e6,
                    "dur": e.duration * 1e6,
                    "pid": pid_base + r,
                    "tid": 0 if stream == COMPUTE_STREAM else 1,
                    "args": args,
                }
            )
    return trace
