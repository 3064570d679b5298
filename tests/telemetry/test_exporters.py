"""Exactness tests for the JSON metrics export.

The acceptance gate is equality, not tolerance: reading ``metrics.json``
back must recover every sample value bit-identically.
"""

import json
import math

from repro.telemetry import (
    MetricsRegistry,
    flatten_samples,
    format_value,
    to_json,
)


def populated_registry():
    reg = MetricsRegistry()
    c = reg.counter("repro_bytes_total", "Total bytes", labelnames=("codec",))
    c.inc(123456789, codec="delta")
    c.inc(0.1 + 0.2, codec="entropy")  # a float that needs repr round-trip
    g = reg.gauge("repro_scale", "Loss scale")
    g.set(1024)
    h = reg.histogram(
        "repro_t_seconds", "Step seconds", labelnames=("phase",),
        buckets=(0.001, 0.1, 1.0),
    )
    for v in (0.0005, 0.05, 0.7, 3.0):
        h.observe(v, phase="train")
    return reg


class TestFormatValue:
    def test_integral_floats_render_as_ints(self):
        assert format_value(2.0) == "2"
        assert format_value(1024) == "1024"

    def test_floats_use_repr_round_trip(self):
        text = format_value(0.1 + 0.2)
        assert float(text) == 0.1 + 0.2

    def test_infinities(self):
        assert format_value(math.inf) == "+Inf"
        assert format_value(-math.inf) == "-Inf"

    def test_huge_integral_float_stays_float(self):
        assert float(format_value(2.0**60)) == 2.0**60


class TestJsonExport:
    def test_shape(self):
        export = to_json(populated_registry())
        names = [f["name"] for f in export["metrics"]]
        assert names == sorted(names)
        (hist,) = [f for f in export["metrics"] if f["type"] == "histogram"]
        (sample,) = hist["samples"]
        assert sample["labels"] == {"phase": "train"}
        assert sample["count"] == 4
        assert [b for _, b in sample["buckets"]] == [1, 2, 3, 4]
        assert sample["buckets"][-1][0] == "+Inf"

    def test_json_round_trip_preserves_floats(self):
        export = to_json(populated_registry())
        from_disk = json.loads(json.dumps(export))
        assert from_disk == export
        # the flattened view `repro.cli trace` compares, read off the file
        flat = flatten_samples(from_disk)
        assert flat[("repro_bytes_total", (("codec", "entropy"),), "value")] \
            == 0.1 + 0.2
        assert flat[("repro_t_seconds", (("phase", "train"),), "bucket:+Inf")] \
            == 4

    def test_empty_registry(self):
        reg = MetricsRegistry()
        assert to_json(reg) == {"metrics": []}
        assert flatten_samples(to_json(reg)) == {}
