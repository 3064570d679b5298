"""JSON exporter for a :class:`MetricsRegistry`.

:func:`to_json` is the one metrics export (``metrics.json``).  Floats
keep their exact value through ``json`` (shortest round-trip ``repr``),
and bucket bounds are rendered by :func:`format_value`, so reading the
file back recovers every sample bit-identically — the acceptance gate
for the telemetry layer is *exact* agreement with the ledger totals,
not agreement within a tolerance.

:func:`flatten_samples` turns an export into a canonical
``{(name, labels, field): value}`` map, which is how the ``repro.cli
trace`` subcommand (and the tests) compare it against those totals.
"""

from __future__ import annotations

import math
from typing import Dict, List

from .registry import Histogram, MetricsRegistry

__all__ = [
    "collect",
    "flatten_samples",
    "format_value",
    "to_json",
]


def format_value(value: float) -> str:
    """Shortest string that round-trips to the same float (ints stay ints)."""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
        return str(int(value))
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def collect(registry: MetricsRegistry) -> List[dict]:
    """Snapshot every family into plain dicts."""
    out: List[dict] = []
    for metric in registry:
        entry: Dict[str, object] = {
            "name": metric.name,
            "type": metric.kind,
            "help": metric.help,
            "labelnames": list(metric.labelnames),
        }
        samples = []
        if isinstance(metric, Histogram):
            for key in metric.series_keys():
                value = metric.value(**metric._labels_dict(key))
                samples.append({
                    "labels": metric._labels_dict(key),
                    "buckets": [[format_value(b), n] for b, n in value.buckets],
                    "sum": value.sum,
                    "count": value.count,
                })
        else:
            for key in metric.series_keys():
                samples.append({
                    "labels": metric._labels_dict(key),
                    "value": metric.value(**metric._labels_dict(key)),
                })
        entry["samples"] = samples
        out.append(entry)
    return out


def to_json(registry: MetricsRegistry) -> dict:
    """JSON-serialisable export: ``{"metrics": [family, ...]}``."""
    return {"metrics": collect(registry)}


def flatten_samples(export: dict) -> Dict[tuple, object]:
    """Canonical ``{(name, labels, field): value}`` view of an export.

    Label order and family ordering are erased, so two exports compare
    equal exactly when every individual sample value matches exactly.
    """
    flat: Dict[tuple, object] = {}
    for family in export["metrics"]:
        name = family["name"]
        for sample in family["samples"]:
            labels = tuple(sorted((str(k), str(v))
                                  for k, v in sample["labels"].items()))
            if family["type"] == "histogram" or "buckets" in sample:
                for bound, count in sample["buckets"]:
                    flat[(name, labels, f"bucket:{bound}")] = int(count)
                flat[(name, labels, "sum")] = sample["sum"]
                flat[(name, labels, "count")] = int(sample["count"])
            else:
                flat[(name, labels, "value")] = sample["value"]
    return flat
