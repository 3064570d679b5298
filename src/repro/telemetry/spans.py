"""Merged multi-pid chrome-trace export across generations and streams.

A run's spans come from one source per communicator generation: its
:class:`~repro.cluster.timeline.Timeline`, whose compute-stream events
and collective records (op, tag, scope, wire bytes, placement) are the
only record of the run's schedule and cost.  A
:class:`~repro.train.resilience.ResilientRunner` or a serving engine
that loses a rank has one timeline *per generation* (the world may
shrink between generations).

This module merges them into **one** chrome trace: generation ``g``
with world size ``W_g`` occupies a contiguous pid block after all
earlier generations, each rank contributes a compute track (tid 0) and
a comm track (tid 1) whose blocks carry the collective's op, scope and
wire bytes in their ``args``, and generations are laid out end-to-end
in time (offset by the cumulative span of earlier generations) so the
merged view reads as one continuous run.

Traces can round-trip through JSON ("trace parts", format version 2:
one row per compute event and one per collective) so ``repro.cli
trace`` can re-merge and validate a run recorded by an earlier process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..cluster.timeline import (
    COMPUTE_STREAM,
    CollectiveRecord,
    TimelineEvent,
    events_to_chrome,
)
from ..errors import FormatError, ReproError

__all__ = [
    "COMPUTE_TID",
    "COMM_TID",
    "GenerationPart",
    "TraceValidationError",
    "merged_trace",
    "parts_from_json",
    "parts_to_json",
    "validate_chrome_trace",
    "write_trace",
]

#: Thread ids of the two per-rank tracks in the merged trace.
COMPUTE_TID = 0
COMM_TID = 1

_TID_NAMES = {COMPUTE_TID: "compute", COMM_TID: "comm"}

#: Format version of a trace-parts file; any other version is refused.
_PARTS_VERSION = 2


class TraceValidationError(ReproError, RuntimeError):
    """A merged chrome trace violated a structural invariant.

    Raised for negative timestamps/durations or overlapping ``X``
    blocks on the same (pid, tid) track — either one means the span
    accounting upstream is wrong.
    """


@dataclass
class GenerationPart:
    """Span data of one communicator generation, as plain records.

    Holding record lists (rather than a live ``Timeline``) keeps parts
    JSON-serialisable, so a trace recorded by ``train --telemetry-dir``
    can be merged later by ``repro.cli trace`` in a different process.
    """

    world_size: int
    compute_events: List[TimelineEvent] = field(default_factory=list)
    collectives: List[CollectiveRecord] = field(default_factory=list)
    label: str = ""

    @classmethod
    def from_run(cls, timeline, label: str = "") -> "GenerationPart":
        """Capture a live timeline (``None`` gives an empty world-1 part)."""
        if timeline is None:
            return cls(world_size=1, label=label)
        return cls(
            world_size=timeline.world_size,
            compute_events=[
                e for e in timeline.events if e.stream == COMPUTE_STREAM
            ],
            collectives=timeline.collectives,
            label=label,
        )

    @property
    def span_s(self) -> float:
        """Latest event end in this generation (its time footprint)."""
        ends = [e.end for e in self.compute_events]
        ends += [e.end for e in self.collectives]
        return max(ends, default=0.0)


def parts_to_json(parts: Sequence[GenerationPart]) -> dict:
    """Serialise generation parts for a trace-parts file."""
    return {
        "version": _PARTS_VERSION,
        "generations": [
            {
                "world_size": p.world_size,
                "label": p.label,
                "compute_events": [
                    [e.rank, e.name, e.start, e.end] for e in p.compute_events
                ],
                "collectives": [
                    [*e[:-1], None if e.ranks is None else list(e.ranks)]
                    for e in p.collectives
                ],
            }
            for p in parts
        ],
    }


def parts_from_json(obj) -> List[GenerationPart]:
    """Inverse of :func:`parts_to_json` (accepts a dict or a JSON string).

    Raises :class:`~repro.errors.FormatError` — naming the problem — for
    text that is not JSON, a file of another format version (version 1
    held one row per rank per collective and a second, ledger copy of
    every collective) or one with missing keys.
    """
    try:
        if isinstance(obj, str):
            obj = json.loads(obj)
        version = obj.get("version") if isinstance(obj, dict) else None
        if version == _PARTS_VERSION:
            return [
                GenerationPart(
                    world_size=int(g["world_size"]),
                    compute_events=[
                        TimelineEvent(int(r), "compute", name, float(s), float(e))
                        for r, name, s, e in g["compute_events"]
                    ],
                    collectives=[
                        CollectiveRecord(
                            *row[:-1],
                            None if row[-1] is None else tuple(row[-1]),
                        )
                        for row in g["collectives"]
                    ],
                    label=g.get("label", ""),
                )
                for g in obj["generations"]
            ]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"trace parts: malformed ({exc!r})") from None
    raise FormatError(
        f"trace parts version {version!r} is not supported: this "
        f"build reads version {_PARTS_VERSION} (re-record the run)"
    )


def merged_trace(
    parts: Sequence[GenerationPart],
    metadata: bool = True,
) -> List[dict]:
    """Merge every generation's compute and comm streams into one trace.

    Generation ``g`` gets pids ``[sum(W_0..W_{g-1}), ...)`` — one per
    rank — with tids 0/1 for compute/comm, and is shifted in time past
    all earlier generations (a resilient run's generations are
    sequential in real time).  Each collective is one comm block per
    participating rank.
    """
    trace: List[dict] = []
    pid_base = 0
    offset_s = 0.0
    for g, part in enumerate(parts):
        if metadata:
            label = part.label or f"gen{g}"
            for r in range(part.world_size):  # mesh-ok: one trace track per flat rank
                trace.append(
                    {
                        "name": "process_name", "ph": "M",
                        "pid": pid_base + r, "tid": 0,
                        "args": {"name": f"{label} rank {r}",
                                 "generation": g},
                    }
                )
                for tid, tname in _TID_NAMES.items():
                    trace.append(
                        {
                            "name": "thread_name", "ph": "M",
                            "pid": pid_base + r, "tid": tid,
                            "args": {"name": tname, "generation": g},
                        }
                    )
        trace.extend(
            events_to_chrome(
                [*part.compute_events, *part.collectives],
                pid_base=pid_base,
                time_offset_s=offset_s,
                generation=g,
            )
        )
        pid_base += part.world_size
        offset_s += part.span_s
    return trace


def validate_chrome_trace(trace: Sequence[dict]) -> Dict[str, object]:
    """Check structural invariants of a chrome trace; return a summary.

    Raises :class:`TraceValidationError` on negative timestamps or
    durations, or when two ``X`` blocks on the same (pid, tid) track
    overlap by more than floating-point jitter.  Returns counts and the
    pid/tid/generation sets for reporting.
    """
    tracks: Dict[tuple, List[tuple]] = {}
    pids = set()
    generations = set()
    n_events = 0
    for event in trace:
        if event.get("ph") != "X":
            continue
        n_events += 1
        ts = float(event["ts"])
        dur = float(event.get("dur", 0.0))
        if ts < 0:
            raise TraceValidationError(
                f"negative timestamp {ts} on event {event.get('name')!r}"
            )
        if dur < 0:
            raise TraceValidationError(
                f"negative duration {dur} on event {event.get('name')!r}"
            )
        key = (event["pid"], event["tid"])
        tracks.setdefault(key, []).append((ts, ts + dur, event.get("name")))
        pids.add(event["pid"])
        gen = event.get("args", {}).get("generation")
        if gen is not None:
            generations.add(gen)
    epsilon = 1e-3  # one nanosecond of slack, in microseconds
    for (pid, tid), intervals in tracks.items():
        intervals.sort()
        for (s0, e0, n0), (s1, e1, n1) in zip(intervals, intervals[1:]):
            if s1 < e0 - epsilon:
                raise TraceValidationError(
                    f"overlap on track pid={pid} tid={tid}: "
                    f"{n0!r} [{s0}, {e0}) overlaps {n1!r} [{s1}, {e1})"
                )
    return {
        "events": n_events,
        "tracks": len(tracks),
        "pids": sorted(pids),
        "generations": sorted(generations),
    }


def write_trace(path, trace: Sequence[dict]) -> None:
    """Write a chrome trace JSON array to ``path``."""
    with open(path, "w") as f:
        json.dump(list(trace), f)
