"""The cost ledger: a read-only view of a Timeline's collective records.

Every collective issued through :class:`repro.cluster.communicator.Communicator`
is recorded once, as a :class:`~repro.cluster.timeline.CollectiveRecord`
on the communicator's :class:`~repro.cluster.timeline.Timeline`, which
also keeps the scope stack and the running totals.  :class:`CostLedger`
reads the two quantities the paper's analysis is built on off them:

* **wire bytes per rank** — the communication volume each GPU injects,
  the quantity the uniqueness/seeding/compression techniques shrink;
* **simulated time** — alpha-beta model time of each collective, summed
  into the per-step and per-epoch times reported by Tables III-V.

Both are attributed to phases by the timeline's *scopes*
(``with comm.timeline.scope("sync"): ...``).  Every query except
:attr:`CostLedger.events` and :meth:`CostLedger.compression_factor` is
O(1): it reads a running total, never the journal — the trainer and the
telemetry layer call :meth:`CostLedger.snapshot` /
:meth:`CostLedger.delta_since` once per step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .timeline import CollectiveRecord, Timeline

__all__ = ["CostLedger", "LedgerSnapshot"]


@dataclass(frozen=True)
class LedgerSnapshot:
    """Frozen totals of a :class:`CostLedger` at one instant."""

    n_events: int
    wire_bytes_per_rank: int
    time_s: float


class CostLedger:
    """Read-only cost view of one timeline's collective records."""

    def __init__(self, timeline: Timeline):
        self._timeline = timeline

    @property
    def events(self) -> list[CollectiveRecord]:
        """Every collective record, in issue order (a journal scan)."""
        return self._timeline.collectives

    @property
    def total_wire_bytes_per_rank(self) -> int:
        return self._timeline._total_wire

    @property
    def total_time_s(self) -> float:
        return self._timeline._total_time

    def bytes_by_op(self) -> dict[str, int]:
        return dict(self._timeline._bytes_by_op)

    def time_by_op(self) -> dict[str, float]:
        return dict(self._timeline._time_by_op)

    def bytes_by_scope(self) -> dict[str, int]:
        """Wire bytes per rank by scope.  A packed collective's bytes are
        split among the scopes its members would have had alone, in
        proportion to their per-rank messages (the total is preserved
        exactly), so a parameter's bytes do not depend on its pack."""
        return dict(self._timeline._bytes_by_scope)

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

    def snapshot(self) -> LedgerSnapshot:
        """Immutable point-in-time totals, for before/after deltas."""
        t = self._timeline
        return LedgerSnapshot(t._n_collectives, t._total_wire, t._total_time)

    def delta_since(self, snap: LedgerSnapshot) -> LedgerSnapshot:
        """Totals accumulated since ``snap`` was taken."""
        t = self._timeline
        return LedgerSnapshot(
            n_events=t._n_collectives - snap.n_events,
            wire_bytes_per_rank=t._total_wire - snap.wire_bytes_per_rank,
            time_s=t._total_time - snap.time_s,
        )
