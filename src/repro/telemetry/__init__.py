"""Unified telemetry: metrics registry, exporters, merged trace, session.

The observability layer over every subsystem of the reproduction: a
Prometheus-style :class:`MetricsRegistry` (counters, gauges, labelled
histograms), one exact JSON export (``metrics.json``), a span API that
merges each generation's two-stream
:class:`~repro.cluster.timeline.Timeline` schedule and collective
records into one multi-pid chrome trace, and a
:class:`TelemetrySession` that streams per-step JSONL from training
runs.  See ``docs/OBSERVABILITY.md``.
"""

from .exporters import (
    collect,
    flatten_samples,
    format_value,
    to_json,
)
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramValue,
    MetricError,
    MetricsRegistry,
)
from .session import TelemetrySession, run_totals_from_parts
from .spans import (
    COMM_TID,
    COMPUTE_TID,
    GenerationPart,
    TraceValidationError,
    merged_trace,
    parts_from_json,
    parts_to_json,
    validate_chrome_trace,
    write_trace,
)

__all__ = [
    "COMM_TID",
    "COMPUTE_TID",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "GenerationPart",
    "Histogram",
    "HistogramValue",
    "MetricError",
    "MetricsRegistry",
    "TelemetrySession",
    "TraceValidationError",
    "collect",
    "flatten_samples",
    "format_value",
    "merged_trace",
    "parts_from_json",
    "parts_to_json",
    "run_totals_from_parts",
    "to_json",
    "validate_chrome_trace",
    "write_trace",
]
