"""Cost ledger and event tracing for simulated communication.

Every collective issued through :class:`repro.cluster.communicator.Communicator`
records a :class:`CommEvent` here.  The ledger aggregates the two
quantities the paper's analysis is built on:

* **wire bytes per rank** — the communication volume each GPU injects,
  the quantity the uniqueness/seeding/compression techniques shrink;
* **simulated time** — alpha-beta model time of each collective, summed
  into the per-step and per-epoch times reported by Tables III-V.

The ledger also supports *scopes* (named intervals) so a trainer can
attribute cost to phases: ``embedding-sync``, ``dense-allreduce``, …

Performance notes
-----------------
``record`` runs once per collective per step — at G=512 with overlap it
is one of the simulator's hottest non-numpy call sites.  The ledger
therefore keeps **incremental running totals** (overall, by op, and by
scope) updated on append, so ``total_time_s``/``bytes_by_op``/
``snapshot``/``delta_since`` are O(1) instead of re-scanning the event
list, and :class:`CommEvent` is a tuple-backed ``NamedTuple``.  Chrome
traces are still materialized lazily from the stored events — nothing
trace-shaped is built while the simulation runs.  See
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = [
    "CommEvent",
    "CostLedger",
    "LedgerScopeError",
    "LedgerSnapshot",
]


class LedgerScopeError(RuntimeError):
    """Unbalanced or mismatched ledger scope push/pop.

    Raised instead of silently corrupting attribution: an unbalanced
    stack means every subsequent event would be charged to the wrong
    phase, which is exactly the kind of bookkeeping bug the analysis
    tooling exists to catch.
    """


class CommEvent(NamedTuple):
    """One collective operation as observed by the ledger.

    ``start_s``/``end_s`` are the collective's placement on the
    per-rank :class:`~repro.cluster.timeline.Timeline` (simulated
    seconds); both are negative when the recording communicator carried
    no timeline (pure cost accounting).

    Tuple-backed (no per-instance ``__dict__``) because one of these is
    built per collective on the simulator's hot path.
    """

    op: str
    world: int
    wire_bytes_per_rank: int
    time_s: float
    tag: str = ""
    scope: str = ""
    start_s: float = -1.0
    end_s: float = -1.0
    payload_bytes_per_rank: int = -1

    @property
    def has_schedule(self) -> bool:
        """Whether this event was placed on a timeline."""
        return self.start_s >= 0.0 and self.end_s >= 0.0

    @property
    def logical_bytes_per_rank(self) -> int:
        """Pre-codec payload bytes; equals wire bytes when not recorded.

        A codec-encoded collective charges its *encoded* size as
        ``wire_bytes_per_rank`` (that is what crosses the link) and
        reports the original payload here, so the measured compression
        factor is ``logical / wire``.
        """
        if self.payload_bytes_per_rank >= 0:
            return self.payload_bytes_per_rank
        return self.wire_bytes_per_rank


@dataclass
class CostLedger:
    """Accumulates communication events and exposes aggregate views.

    Aggregates (totals, per-op and per-scope breakdowns) are maintained
    incrementally on :meth:`record`, so every aggregate query — and in
    particular the :meth:`snapshot`/:meth:`delta_since` pair the
    telemetry layer calls once per step — is O(1) in the number of
    recorded events.
    """

    events: list[CommEvent] = field(default_factory=list)
    _scope_stack: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Seed the running totals from any pre-filled events (the merged
        # trace exporter constructs ledgers from deserialized parts).
        self._scope_str = "/".join(self._scope_stack)
        self._total_wire = 0
        self._total_time = 0.0
        self._bytes_by_op: defaultdict[str, int] = defaultdict(int)
        self._time_by_op: defaultdict[str, float] = defaultdict(float)
        self._bytes_by_scope: defaultdict[str, int] = defaultdict(int)
        for e in self.events:
            self._accumulate(e)

    def _accumulate(self, e: CommEvent) -> None:
        self._total_wire += e.wire_bytes_per_rank
        self._total_time += e.time_s
        self._bytes_by_op[e.op] += e.wire_bytes_per_rank
        self._time_by_op[e.op] += e.time_s
        self._bytes_by_scope[e.scope] += e.wire_bytes_per_rank

    def record(
        self,
        op: str,
        world: int,
        wire_bytes_per_rank: int,
        time_s: float,
        tag: str = "",
        start_s: float = -1.0,
        end_s: float = -1.0,
        payload_bytes_per_rank: int | None = None,
    ) -> CommEvent:
        # Validate before touching any state: a rejected record must
        # leave the running totals exactly as they were.
        if wire_bytes_per_rank < 0:
            raise ValueError("wire_bytes_per_rank must be non-negative")
        if time_s < 0:
            raise ValueError("time_s must be non-negative")
        if payload_bytes_per_rank is not None and payload_bytes_per_rank < 0:
            raise ValueError("payload_bytes_per_rank must be non-negative")
        scope = self._scope_str
        event = CommEvent(
            op,
            world,
            wire_bytes_per_rank,
            time_s,
            tag,
            scope,
            start_s,
            end_s,
            -1 if payload_bytes_per_rank is None else payload_bytes_per_rank,
        )
        self.events.append(event)
        self._total_wire += wire_bytes_per_rank
        self._total_time += time_s
        self._bytes_by_op[op] += wire_bytes_per_rank
        self._time_by_op[op] += time_s
        self._bytes_by_scope[scope] += wire_bytes_per_rank
        return event

    # -- scopes -------------------------------------------------------------

    @property
    def current_scope(self) -> str:
        return self._scope_str

    def scope(self, name: str) -> "_LedgerScope":
        """Context manager attributing enclosed events to ``name``."""
        return _LedgerScope(self, name)

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
                f"mismatched ledger scope nesting: tried to close "
                f"{expected!r} but the innermost open scope is {top!r} "
                f"(open stack: {self.current_scope!r})"
            )
        popped = self._scope_stack.pop()
        self._scope_str = "/".join(self._scope_stack)
        return popped

    def assert_balanced(self) -> None:
        """Raise :class:`LedgerScopeError` if any scope is still open.

        Call at the end of a run (the sanitizer does this) to catch a
        ``push_scope`` that never popped — events recorded afterwards
        would be silently mis-attributed.
        """
        if self._scope_stack:
            raise LedgerScopeError(
                f"unbalanced ledger scopes at end of run: "
                f"{self.current_scope!r} still open "
                f"({len(self._scope_stack)} unpopped push(es))"
            )

    # -- aggregates ----------------------------------------------------------

    @property
    def total_wire_bytes_per_rank(self) -> int:
        return self._total_wire

    @property
    def total_time_s(self) -> float:
        return self._total_time

    def bytes_by_op(self) -> dict[str, int]:
        return dict(self._bytes_by_op)

    def time_by_op(self) -> dict[str, float]:
        return dict(self._time_by_op)

    def bytes_by_scope(self) -> dict[str, int]:
        return dict(self._bytes_by_scope)

    def compression_factor(self, tag_contains: str = "") -> float:
        """Measured byte reduction, ``logical / wire``, over matching events.

        Filters to events whose tag contains ``tag_contains`` (all
        events by default).  1.0 means nothing was compressed — events
        recorded without an explicit payload count as uncompressed.
        This is the *measured*, data-dependent figure, as opposed to a
        codec's nominal dtype ratio.
        """
        wire = logical = 0
        for e in self.events:
            if tag_contains in e.tag:
                wire += e.wire_bytes_per_rank
                logical += e.logical_bytes_per_rank
        if wire == 0:
            return 1.0
        return logical / wire

    def snapshot(self) -> "LedgerSnapshot":
        """Immutable point-in-time totals, for before/after deltas.

        O(1): reads the running totals, never the event list.
        """
        return LedgerSnapshot(
            n_events=len(self.events),
            wire_bytes_per_rank=self._total_wire,
            time_s=self._total_time,
        )

    def delta_since(self, snap: "LedgerSnapshot") -> "LedgerSnapshot":
        """Totals accumulated since ``snap`` was taken.  O(1)."""
        return LedgerSnapshot(
            n_events=len(self.events) - snap.n_events,
            wire_bytes_per_rank=self._total_wire - snap.wire_bytes_per_rank,
            time_s=self._total_time - snap.time_s,
        )

    def to_chrome_trace(
        self,
        pid_base: int = 0,
        tid: int = 0,
        time_offset_s: float = 0.0,
        metadata: bool = True,
        generation: int | None = None,
    ) -> list[dict]:
        """Export events in Chrome trace-event format (``chrome://tracing``).

        Each collective involves every rank of its recorded world, so
        each event emits one ``X`` block *per participating rank* at
        ``pid = pid_base + rank`` — matching the one-pid-per-rank
        convention of :func:`~repro.cluster.timeline.events_to_chrome`
        instead of collapsing all ranks onto ``pid=0/tid=0``.

        Events that were placed on a timeline keep their scheduled
        issue/complete interval; unscheduled events are laid end-to-end
        on a *per-rank* fallback clock that never rewinds past a
        scheduled block, so mixed traces stay monotone per track.

        Parameters
        ----------
        pid_base:
            Added to every rank's pid (lets a merged multi-generation
            trace give each generation its own pid block).
        tid:
            Thread id used for every ledger track (the merged exporter
            in :mod:`repro.telemetry.spans` places ledger events on
            their own tid beside the compute/comm streams).
        time_offset_s:
            Added to every timestamp, in simulated seconds.
        metadata:
            Whether to emit ``process_name`` / ``thread_name`` ``M``
            metadata events naming each track.
        generation:
            If given, stamped into every event's ``args`` and the track
            names (resilience generation of the recording communicator).
        """
        trace: list[dict] = []
        clocks: dict[int, float] = defaultdict(float)
        seen_ranks: set[int] = set()
        for i, e in enumerate(self.events):
            duration_s = e.time_s
            for r in range(e.world):
                if e.has_schedule:
                    start = e.start_s
                    duration_s = e.end_s - e.start_s
                    clocks[r] = max(clocks[r], e.end_s)
                else:
                    start = clocks[r]
                    clocks[r] = start + duration_s
                seen_ranks.add(r)
                args: dict = {
                    "world": e.world,
                    "rank": r,
                    "wire_bytes_per_rank": e.wire_bytes_per_rank,
                    "seq": i,
                }
                if generation is not None:
                    args["generation"] = generation
                trace.append(
                    {
                        "name": f"{e.op}" + (f" [{e.tag}]" if e.tag else ""),
                        "cat": e.scope or "comm",
                        "ph": "X",
                        "ts": (start + time_offset_s) * 1e6,
                        "dur": duration_s * 1e6,
                        "pid": pid_base + r,
                        "tid": tid,
                        "args": args,
                    }
                )
        if metadata:
            prefix = f"gen{generation} " if generation is not None else ""
            meta: list[dict] = []
            for r in sorted(seen_ranks):
                margs: dict = {"name": f"{prefix}rank {r}"}
                targs: dict = {"name": "ledger"}
                if generation is not None:
                    margs["generation"] = generation
                    targs["generation"] = generation
                meta.append(
                    {"name": "process_name", "ph": "M",
                     "pid": pid_base + r, "tid": tid, "args": margs}
                )
                meta.append(
                    {"name": "thread_name", "ph": "M",
                     "pid": pid_base + r, "tid": tid, "args": targs}
                )
            trace = meta + trace
        return trace


@dataclass(frozen=True)
class LedgerSnapshot:
    """Frozen totals of a :class:`CostLedger` at one instant."""

    n_events: int
    wire_bytes_per_rank: int
    time_s: float


class _LedgerScope:
    def __init__(self, ledger: CostLedger, name: str):
        if "/" in name:
            raise ValueError("scope names must not contain '/'")
        self._ledger = ledger
        self._name = name

    def __enter__(self) -> CostLedger:
        self._ledger.push_scope(self._name)
        return self._ledger

    def __exit__(self, *exc_info: object) -> None:
        self._ledger.pop_scope(expected=self._name)
