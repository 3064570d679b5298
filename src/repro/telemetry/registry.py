"""Metric primitives and the registry that owns them.

The paper's claims are byte-and-seconds claims, so the repo needs one
place where every subsystem reports numbers instead of each module
printing its own ad-hoc summary.  This module provides that place: a
:class:`MetricsRegistry` that creates and owns :class:`Counter`,
:class:`Gauge`, and :class:`Histogram` instances, each of which may
carry a label set (Prometheus-style dimensions such as ``codec="delta"``).

Design rules (enforced by lint rule REPRO009):

* Library code never mutates metric internals directly — it calls
  ``inc`` / ``set`` / ``observe`` on instruments obtained from a
  registry.
* Instruments are created through the registry factories
  (:meth:`MetricsRegistry.counter` et al.), never instantiated
  free-standing, so one registry snapshot describes the whole run.

Values are plain Python floats/ints; the registry performs no I/O.
Export lives in :mod:`repro.telemetry.exporters`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from ..errors import ReproError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "MetricError",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket upper bounds (seconds-flavoured, but generic
#: enough for byte counts once values exceed the last finite bound they
#: simply land in ``+Inf``).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


class MetricError(ReproError, ValueError):
    """Raised on invalid metric names, labels, or update arguments."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricError(f"invalid metric name {name!r}")
    return name


def _check_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_RE.match(label):
            raise MetricError(f"invalid label name {label!r}")
        if label == "le":
            raise MetricError("label name 'le' is reserved for histograms")
    if len(set(names)) != len(names):
        raise MetricError(f"duplicate label names in {names!r}")
    return names


@dataclass(frozen=True)
class HistogramValue:
    """Read-only snapshot of one histogram series.

    ``buckets`` holds ``(upper_bound, cumulative_count)`` pairs ending
    with ``(inf, count)``; ``sum`` and ``count`` mirror the Prometheus
    ``_sum`` / ``_count`` exposition series.
    """

    buckets: Tuple[Tuple[float, int], ...]
    sum: float
    count: int


class _Metric:
    """Common machinery for labelled metric families."""

    kind = ""

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        self.name = _check_name(name)
        self.help = help
        self.labelnames = _check_labelnames(labelnames)
        self._series: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise MetricError(
                f"{self.name}: expected labels {self.labelnames}, got {tuple(labels)}"
            )
        return tuple(str(labels[label]) for label in self.labelnames)

    def _labels_dict(self, key: Tuple[str, ...]) -> Dict[str, str]:
        return dict(zip(self.labelnames, key))

    def series_keys(self) -> List[Tuple[str, ...]]:
        """Label-value tuples of every series observed so far, sorted."""
        return sorted(self._series)


class Counter(_Metric):
    """Monotonically increasing sum (e.g. total wire bytes)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (>= 0) to the series selected by ``labels``."""
        if amount < 0:
            raise MetricError(f"{self.name}: counter increment {amount} < 0")
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        """Current total for the series selected by ``labels``."""
        return self._series.get(self._key(labels), 0)


class Gauge(_Metric):
    """Point-in-time value that may go up or down (e.g. loss scale)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        """Replace the series value."""
        self._series[self._key(labels)] = value

    def value(self, **labels: object) -> float:
        """Current value for the series selected by ``labels``."""
        return self._series.get(self._key(labels), 0)


class Histogram(_Metric):
    """Cumulative-bucket distribution (e.g. per-codec encode seconds)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricError(f"{name}: histogram needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise MetricError(f"{name}: bucket bounds must strictly increase")
        if any(math.isnan(b) for b in bounds):
            raise MetricError(f"{name}: NaN bucket bound")
        if bounds and math.isinf(bounds[-1]):
            bounds = bounds[:-1]  # +Inf is implicit
        self.bucket_bounds = bounds

    def observe(self, value: float, **labels: object) -> None:
        """Record one sample into the series selected by ``labels``."""
        value = float(value)
        if math.isnan(value):
            raise MetricError(f"{self.name}: cannot observe NaN")
        key = self._key(labels)
        state = self._series.get(key)
        if state is None:
            state = {"counts": [0] * (len(self.bucket_bounds) + 1),
                     "sum": 0.0, "count": 0}
            self._series[key] = state
        index = len(self.bucket_bounds)
        for i, bound in enumerate(self.bucket_bounds):
            if value <= bound:
                index = i
                break
        state["counts"][index] += 1
        state["sum"] += value
        state["count"] += 1

    def value(self, **labels: object) -> HistogramValue:
        """Cumulative-bucket snapshot for the series selected by ``labels``."""
        state = self._series.get(self._key(labels))
        if state is None:
            bounds = self.bucket_bounds + (math.inf,)
            return HistogramValue(tuple((b, 0) for b in bounds), 0.0, 0)
        cumulative: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bucket_bounds + (math.inf,), state["counts"]):
            running += n
            cumulative.append((bound, running))
        return HistogramValue(tuple(cumulative), state["sum"], state["count"])


class MetricsRegistry:
    """Creates, deduplicates, and enumerates metric families.

    Factories are idempotent: asking twice for the same name returns the
    same instrument, so independent modules can share a family without
    coordinating.  Re-registering a name with a different kind or label
    set raises :class:`MetricError` — that is always a bug.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name, help, labelnames, **kwargs) -> _Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise MetricError(
                    f"{name}: already registered as {existing.kind}"
                )
            if existing.labelnames != _check_labelnames(labelnames):
                raise MetricError(
                    f"{name}: label mismatch {existing.labelnames} vs {tuple(labelnames)}"
                )
            return existing
        metric = cls(name, help=help, labelnames=labelnames, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        """Get or create a :class:`Counter` family."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        """Get or create a :class:`Gauge` family."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create a :class:`Histogram` family."""
        metric = self._get_or_create(Histogram, name, help, labelnames,
                                     buckets=buckets)
        return metric

    def get(self, name: str) -> _Metric:
        """Look up a family by name; raises :class:`MetricError` if absent."""
        try:
            return self._metrics[name]
        except KeyError:
            raise MetricError(f"unknown metric {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[_Metric]:
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)
