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

Traces can round-trip through JSON ("trace parts", format version 3:
one row per compute event and one per collective, the collective's
schedule last) so ``repro.cli trace`` can re-merge and validate a run
recorded by an earlier process.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..cluster.collectives import RING, TWO_LEVEL
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
_PARTS_VERSION = 3


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
                    [*e[:-2], None if e.ranks is None else list(e.ranks),
                     e.schedule]
                    for e in p.collectives
                ],
            }
            for p in parts
        ],
    }


#: The largest world a trace-parts file may declare: far past any
#: simulated run, small enough that merging its tracks cannot exhaust
#: the host.
_MAX_WORLD = 1 << 16


def _count(value, low: int, high: int | None = None) -> int:
    """An integer (never a bool) in ``[low, high)``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"expected an integer, got {value!r}")
    if value < low or (high is not None and value >= high):
        raise ValueError(f"{value} is outside [{low}, {high})")
    return value


def _seconds(value) -> float:
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not math.isfinite(value)
    ):
        raise ValueError(f"expected a finite time, got {value!r}")
    return float(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _interval(start, end) -> tuple[float, float]:
    start, end = _seconds(start), _seconds(end)
    if end < start:
        raise ValueError(f"interval ends at {end} before it starts at {start}")
    return start, end


def _generation(g: dict) -> GenerationPart:
    """One generation of a version-3 file, every field checked: ranks
    inside the generation's world, finite ordered times, typed counts,
    a known schedule."""
    world = _count(g["world_size"], 1, _MAX_WORLD + 1)
    compute = [
        TimelineEvent(
            _count(r, 0, world), "compute", _text(name), *_interval(s, e)
        )
        for r, name, s, e in g["compute_events"]
    ]
    collectives = []
    for row in g["collectives"]:
        if not isinstance(row, list) or len(row) != len(CollectiveRecord._fields):
            raise ValueError(f"not a {len(CollectiveRecord._fields)}-field row")
        (op, tag, scope, ring, wire, payload, time_s, start, end, ranks,
         schedule) = row
        if schedule not in ("", RING, TWO_LEVEL):  # "": explicitly costed
            raise ValueError(f"unknown schedule {schedule!r}")
        if ranks is not None:
            if not isinstance(ranks, list):
                raise ValueError(f"ranks must be a list, got {ranks!r}")
            ranks = tuple(_count(r, 0, world) for r in ranks)
        collectives.append(
            CollectiveRecord(
                _text(op), _text(tag), _text(scope), _count(ring, 1, world + 1),
                _count(wire, 0), _count(payload, -1), _seconds(time_s),
                *_interval(start, end), ranks, schedule,
            )
        )
    return GenerationPart(
        world_size=world,
        compute_events=compute,
        collectives=collectives,
        label=_text(g.get("label", "")),
    )


def parts_from_json(obj) -> List[GenerationPart]:
    """Inverse of :func:`parts_to_json` (accepts a dict or a JSON string).

    Raises :class:`~repro.errors.FormatError` — naming the problem — for
    text that is not JSON, a file of another format version (version 1
    held one row per rank per collective and a second, ledger copy of
    every collective; version 2 rows had no schedule), missing keys, or
    a value the run could not have written: a rank outside its
    generation's world, a world size below 1, a non-finite or reversed
    time, a count that is not an integer, an unknown schedule.
    """
    try:
        if isinstance(obj, str):
            obj = json.loads(obj)
        version = obj.get("version") if isinstance(obj, dict) else None
        if version == _PARTS_VERSION:
            return [_generation(g) for g in obj["generations"]]
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
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
            for r in range(part.world_size):
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
