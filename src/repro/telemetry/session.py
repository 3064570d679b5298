"""Run-scoped telemetry: per-step JSONL, metric registry, trace capture.

A :class:`TelemetrySession` is the single observer a run attaches to
everything it wants measured:

* ``track(comm)`` points the communicator's ``metrics`` attribute at the
  session registry (the wire layer feeds per-codec histograms through
  it) and retains the communicator's timeline as one *generation* of
  the merged trace;
* ``record_step(...)`` streams one JSON object per optimizer step to
  ``steps.jsonl`` and updates the step counters/histograms;
* ``record_event(...)`` does the same for recovery events
  (``events.jsonl``);
* ``finalize()`` computes the run-total gauges and the per-op
  collective counters *directly from each generation's collective
  records* (so the export agrees with those totals exactly), writes
  ``metrics.json`` / ``trace.json`` / ``trace_parts.json``, and
  returns a summary dict.

Everything works with ``directory=None`` too — the registry and traces
stay in memory, which is what the tests use.
"""

from __future__ import annotations

import json
import math
import pathlib
from collections import Counter
from typing import List, Optional

from .exporters import to_json
from .registry import MetricsRegistry
from .spans import GenerationPart, merged_trace, parts_to_json, validate_chrome_trace

__all__ = ["TelemetrySession", "run_totals_from_parts"]

#: Histogram buckets for per-rank wire bytes per step.
_BYTE_BUCKETS = (1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9)


def run_totals_from_parts(parts: List[GenerationPart]) -> dict:
    """Exact run totals derived from generation parts.

    Used both by :meth:`TelemetrySession.finalize` (to set the run
    gauges) and by ``repro.cli trace`` (to verify the written exports
    against the trace parts) — sharing one implementation, with one
    float summation order, is what makes "agrees exactly" achievable.
    ``comm_time_s`` sums collective time only.
    """
    wire_bytes = 0
    logical_bytes = 0
    comm_time_s = 0.0
    simulated_s = 0.0
    for part in parts:
        for e in part.collectives:
            wire_bytes += e.wire_bytes_per_rank
            logical_bytes += e.logical_bytes_per_rank
        comm_time_s += sum(e.time_s for e in part.collectives)
        simulated_s += part.span_s
    factor = 1.0 if wire_bytes == 0 else logical_bytes / wire_bytes
    return {
        "wire_bytes_per_rank": wire_bytes,
        "logical_bytes_per_rank": logical_bytes,
        "compression_factor": factor,
        "comm_time_s": comm_time_s,
        "simulated_time_s": simulated_s,
        "generations": len(parts),
        "final_world_size": parts[-1].world_size if parts else 0,
    }


class TelemetrySession:
    """Collects metrics, step records, and trace parts for one run."""

    def __init__(
        self,
        directory: "str | pathlib.Path | None" = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.directory = (
            pathlib.Path(directory) if directory is not None else None
        )
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            # Truncate any stale stream files from a previous run.
            for name in ("steps.jsonl", "events.jsonl"):
                (self.directory / name).write_text("")
        self.steps: List[dict] = []
        self.events: List[dict] = []
        self._tracked: List[tuple] = []
        self._finalized = False
        reg = self.registry
        self._steps_total = reg.counter(
            "repro_steps_total", "Optimizer steps observed by the session"
        )
        self._skipped_total = reg.counter(
            "repro_skipped_steps_total", "Overflow-skipped optimizer steps"
        )
        self._recovery_total = reg.counter(
            "repro_recovery_events_total",
            "Recovery-loop events by kind",
            labelnames=("kind",),
        )
        self._loss_hist = reg.histogram(
            "repro_train_loss", "Per-step mean training loss",
            buckets=(0.5, 1, 2, 4, 8, 16, 32),
        )
        self._step_time_hist = reg.histogram(
            "repro_step_time_seconds", "Simulated seconds per optimizer step"
        )
        self._step_bytes_hist = reg.histogram(
            "repro_step_wire_bytes_per_rank",
            "Per-rank wire bytes injected per optimizer step",
            buckets=_BYTE_BUCKETS,
        )
        self._loss_scale_gauge = reg.gauge(
            "repro_loss_scale", "Current loss scale"
        )

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------

    def track(self, comm, label: str = "") -> None:
        """Adopt a communicator: route its metrics here, keep its spans.

        Each tracked communicator becomes one *generation* in the merged
        trace (a resilient run tracks every rebuilt communicator).
        """
        comm.metrics = self.registry
        self._tracked.append(
            (comm.timeline, label or f"gen{len(self._tracked)}")
        )

    def adopt_trainer(self, trainer) -> None:
        """Attach to a trainer: it emits steps here; its comm is tracked."""
        trainer.telemetry = self
        self.track(trainer.comm)

    # ------------------------------------------------------------------
    # streaming records
    # ------------------------------------------------------------------

    def record_step(self, **fields: object) -> None:
        """Record one optimizer step (arbitrary JSON-serialisable fields).

        Recognised fields also update the metric registry: ``loss``,
        ``step_time_s``, ``wire_bytes_per_rank``, ``loss_scale``,
        ``skipped``.
        """
        self.steps.append(fields)
        self._append_jsonl("steps.jsonl", fields)
        self._steps_total.inc()
        if fields.get("skipped"):
            self._skipped_total.inc()
        loss = fields.get("loss")
        if isinstance(loss, (int, float)) and math.isfinite(loss):
            self._loss_hist.observe(loss)
        step_time = fields.get("step_time_s")
        if isinstance(step_time, (int, float)):
            self._step_time_hist.observe(step_time)
        wire = fields.get("wire_bytes_per_rank")
        if isinstance(wire, (int, float)):
            self._step_bytes_hist.observe(wire)
        scale = fields.get("loss_scale")
        if isinstance(scale, (int, float)):
            self._loss_scale_gauge.set(scale)

    def record_event(self, kind: str, step: int, detail: str = "") -> None:
        """Record one recovery/lifecycle event (mirrors RecoveryEvent)."""
        record = {"kind": kind, "step": step, "detail": detail}
        self.events.append(record)
        self._append_jsonl("events.jsonl", record)
        self._recovery_total.inc(kind=kind)

    def _append_jsonl(self, name: str, record: dict) -> None:
        if self.directory is None:
            return
        with open(self.directory / name, "a") as f:
            f.write(json.dumps(record) + "\n")

    # ------------------------------------------------------------------
    # finalisation
    # ------------------------------------------------------------------

    def parts(self) -> List[GenerationPart]:
        """Generation parts captured from every tracked communicator."""
        return [
            GenerationPart.from_run(timeline, label=label)
            for timeline, label in self._tracked
        ]

    def finalize(self) -> dict:
        """Freeze run-total gauges and op counters; write all exports.

        Idempotent per session directory; returns a summary dict with
        the totals, the trace validation summary, and the files written.
        """
        parts = self.parts()
        totals = run_totals_from_parts(parts)
        reg = self.registry
        calls_by, wire_by = Counter(), Counter()
        for part in parts:
            for e in part.collectives:
                calls_by[e.op, e.schedule] += 1
                wire_by[e.op] += e.wire_bytes_per_rank
        calls_total = reg.counter(
            "repro_collectives_total", "Collectives issued, by op and schedule",
            labelnames=("op", "schedule"),
        )
        wire_total = reg.counter(
            "repro_collective_wire_bytes_total",
            "Per-rank wire bytes issued, by op",
            labelnames=("op",),
        )
        # Raise each counter to its record total: finalize stays
        # idempotent.
        for (op, schedule), calls in calls_by.items():
            labels = dict(op=op, schedule=schedule)
            calls_total.inc(calls - calls_total.value(**labels), **labels)
        for op, wire in wire_by.items():
            wire_total.inc(wire - wire_total.value(op=op), op=op)
        reg.gauge(
            "repro_run_wire_bytes_per_rank",
            "Run-total per-rank wire bytes (exact ledger total)",
        ).set(totals["wire_bytes_per_rank"])
        reg.gauge(
            "repro_run_logical_bytes_per_rank",
            "Run-total per-rank pre-codec payload bytes",
        ).set(totals["logical_bytes_per_rank"])
        reg.gauge(
            "repro_run_compression_factor",
            "Measured run compression factor, logical/wire",
        ).set(totals["compression_factor"])
        reg.gauge(
            "repro_run_comm_time_seconds",
            "Run-total simulated collective time (exact ledger total)",
        ).set(totals["comm_time_s"])
        reg.gauge(
            "repro_run_simulated_time_seconds",
            "Run-total simulated span across generations",
        ).set(totals["simulated_time_s"])
        reg.gauge(
            "repro_run_generations", "Communicator generations tracked"
        ).set(totals["generations"])
        reg.gauge(
            "repro_run_final_world_size", "World size of the last generation"
        ).set(totals["final_world_size"])
        trace = merged_trace(parts)
        trace_summary = validate_chrome_trace(trace)
        summary = {
            "steps": len(self.steps),
            "events": len(self.events),
            "totals": totals,
            "trace": trace_summary,
            "directory": str(self.directory) if self.directory else None,
        }
        if self.directory is not None:
            with open(self.directory / "metrics.json", "w") as f:
                json.dump(to_json(reg), f, indent=2)
            with open(self.directory / "trace_parts.json", "w") as f:
                json.dump(parts_to_json(parts), f)
            with open(self.directory / "trace.json", "w") as f:
                json.dump(trace, f)
            with open(self.directory / "summary.json", "w") as f:
                json.dump(summary, f, indent=2)
        self._finalized = True
        return summary
