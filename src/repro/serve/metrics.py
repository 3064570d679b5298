"""Serving metrics: latency percentiles, goodput, and the telemetry bridge.

The engine produces a :class:`ServingReport` — immutable per-request
records plus run-level accounting — and
:func:`report_to_registry` projects it into the run's
:class:`~repro.telemetry.MetricsRegistry` so the one metrics export
(``metrics.json``) carries the serving story:

* ``repro_serve_ttft_seconds`` / ``repro_serve_token_latency_seconds``
  histograms (per-request first-token and inter-token gaps);
* exact percentile gauges (``repro_serve_p50_ttft_seconds`` …) — the
  histograms bucket, the gauges carry the exact values the CLI prints;
* ``repro_serve_requests_total{outcome=...}`` and token / cache-event /
  readmission counters.

Definitions
-----------
* **TTFT** — first-token emission time minus arrival.
* **per-token latency** — inter-emission gaps (first gap = TTFT).
* **goodput** — SLO-met completions per simulated second of makespan:
  dropped and deadline-missed requests produce tokens but no goodput,
  which is exactly the gap the deadline policy manages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .request import CompletedRequest

__all__ = ["ServingReport", "percentile", "report_to_registry"]


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; ``nan`` on an empty sample."""
    values = [v for v in values if np.isfinite(v)]
    if not values:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass(frozen=True)
class ServingReport:
    """Outcome of one serving run.

    ``requests`` holds every terminal record (finished and dropped);
    cache and scheduler statistics come over as plain dicts so the
    report is JSON-friendly.
    """

    requests: tuple[CompletedRequest, ...]
    makespan_s: float
    wire_bytes_per_rank: int
    decode_steps: int
    generations: int = 1
    readmissions: int = 0
    recomputes: int = 0
    cache_stats: dict = field(default_factory=dict)

    @property
    def finished(self) -> tuple[CompletedRequest, ...]:
        """Requests that ran to completion (eos or length)."""
        return tuple(r for r in self.requests if not r.dropped)

    @property
    def dropped(self) -> tuple[CompletedRequest, ...]:
        """Requests expired by the SLO deadline policy."""
        return tuple(r for r in self.requests if r.dropped)

    @property
    def total_tokens(self) -> int:
        """Tokens emitted across all requests."""
        return sum(len(r.tokens) for r in self.requests)

    def ttft_values(self) -> list[float]:
        """Per-request time-to-first-token samples."""
        return [r.ttft_s for r in self.requests if r.token_times_s]

    def token_latency_values(self) -> list[float]:
        """All inter-token gaps across requests."""
        gaps: list[float] = []
        for r in self.requests:
            gaps.extend(r.per_token_latencies_s())
        return gaps

    def goodput_rps(self) -> float:
        """SLO-met completions per simulated second."""
        if self.makespan_s <= 0:
            return 0.0
        return sum(1 for r in self.finished if r.met_slo) / self.makespan_s

    def tokens_per_s(self) -> float:
        """Aggregate decode throughput over the makespan."""
        if self.makespan_s <= 0:
            return 0.0
        return self.total_tokens / self.makespan_s

    def summary(self) -> dict:
        """The headline numbers as a JSON-serialisable dict."""
        ttft = self.ttft_values()
        gaps = self.token_latency_values()
        return {
            "requests": len(self.requests),
            "finished": len(self.finished),
            "dropped": len(self.dropped),
            "total_tokens": self.total_tokens,
            "decode_steps": self.decode_steps,
            "makespan_s": self.makespan_s,
            "p50_ttft_s": percentile(ttft, 50),
            "p99_ttft_s": percentile(ttft, 99),
            "p50_token_latency_s": percentile(gaps, 50),
            "p99_token_latency_s": percentile(gaps, 99),
            "goodput_rps": self.goodput_rps(),
            "tokens_per_s": self.tokens_per_s(),
            "slo_met": sum(1 for r in self.finished if r.met_slo),
            "wire_bytes_per_rank": self.wire_bytes_per_rank,
            "generations": self.generations,
            "readmissions": self.readmissions,
            "recomputes": self.recomputes,
            "cache": dict(self.cache_stats),
        }


def report_to_registry(report: ServingReport, registry) -> dict:
    """Project a report into a metrics registry; returns the summary.

    Histograms receive the raw samples; the exact percentiles and rates
    land in gauges so exporters and the CLI agree to the last digit.
    """
    summary = report.summary()
    ttft_hist = registry.histogram(
        "repro_serve_ttft_seconds",
        "Per-request time to first token (simulated seconds)",
        buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
    )
    for value in report.ttft_values():
        ttft_hist.observe(value)
    gap_hist = registry.histogram(
        "repro_serve_token_latency_seconds",
        "Inter-token emission gaps (simulated seconds)",
        buckets=(0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5),
    )
    for value in report.token_latency_values():
        gap_hist.observe(value)
    outcomes = registry.counter(
        "repro_serve_requests_total",
        "Terminal requests by outcome",
        labelnames=("outcome",),
    )
    for record in report.requests:
        outcomes.inc(outcome=record.finish_reason)
    registry.counter(
        "repro_serve_tokens_total", "Tokens decoded across all requests"
    ).inc(report.total_tokens)
    registry.counter(
        "repro_serve_readmissions_total",
        "Requests re-admitted after a replica loss",
    ).inc(report.readmissions)
    cache_events = registry.counter(
        "repro_serve_cache_events_total",
        "State-cache events by kind",
        labelnames=("kind",),
    )
    for kind, key in (("hit", "hits"), ("miss", "misses"), ("evict", "evictions")):
        count = report.cache_stats.get(key, 0)
        if count:
            cache_events.inc(count, kind=kind)
    for name, help_text, key in (
        ("repro_serve_p50_ttft_seconds", "Exact p50 TTFT", "p50_ttft_s"),
        ("repro_serve_p99_ttft_seconds", "Exact p99 TTFT", "p99_ttft_s"),
        (
            "repro_serve_p50_token_latency_seconds",
            "Exact p50 inter-token gap",
            "p50_token_latency_s",
        ),
        (
            "repro_serve_p99_token_latency_seconds",
            "Exact p99 inter-token gap",
            "p99_token_latency_s",
        ),
        ("repro_serve_goodput_rps", "SLO-met completions per second", "goodput_rps"),
        ("repro_serve_tokens_per_second", "Decode throughput", "tokens_per_s"),
    ):
        value = summary[key]
        if isinstance(value, float) and np.isnan(value):
            continue
        registry.gauge(name, help_text).set(value)
    return summary
