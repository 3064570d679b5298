"""Semantics of the metric primitives and the registry that owns them."""

import math

import pytest

from repro.telemetry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x_total")
        assert c.value() == 0
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(MetricError, match="< 0"):
            Counter("x_total").inc(-1)

    def test_labelled_series_are_independent(self):
        c = Counter("bytes_total", labelnames=("codec",))
        c.inc(10, codec="delta")
        c.inc(1, codec="entropy")
        assert c.value(codec="delta") == 10
        assert c.value(codec="entropy") == 1
        assert c.series_keys() == [("delta",), ("entropy",)]

    def test_label_set_must_match_exactly(self):
        c = Counter("x_total", labelnames=("codec",))
        with pytest.raises(MetricError, match="expected labels"):
            c.inc()
        with pytest.raises(MetricError, match="expected labels"):
            c.inc(codec="delta", extra="y")

    def test_invalid_names_rejected(self):
        with pytest.raises(MetricError, match="invalid metric name"):
            Counter("0bad")
        with pytest.raises(MetricError, match="invalid metric name"):
            Counter("bad-name")
        with pytest.raises(MetricError, match="invalid label name"):
            Counter("x", labelnames=("bad-label",))
        with pytest.raises(MetricError, match="reserved"):
            Counter("x", labelnames=("le",))
        with pytest.raises(MetricError, match="duplicate"):
            Counter("x", labelnames=("a", "a"))


class TestGauge:
    def test_set_replaces_and_reads(self):
        g = Gauge("scale")
        g.set(256.0)
        assert g.value() == 256.0
        g.set(128.0)
        assert g.value() == 128.0

    def test_unset_series_reads_zero(self):
        assert Gauge("scale").value() == 0


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        h = Histogram("t_seconds", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        snap = h.value()
        assert snap.buckets == (
            (1.0, 1), (2.0, 2), (4.0, 3), (math.inf, 4),
        )
        assert snap.sum == 105.0
        assert snap.count == 4

    def test_boundary_value_is_inclusive(self):
        h = Histogram("t", buckets=(1.0,))
        h.observe(1.0)
        assert h.value().buckets[0] == (1.0, 1)

    def test_default_buckets(self):
        assert Histogram("t").bucket_bounds == DEFAULT_BUCKETS

    def test_trailing_inf_bound_is_stripped(self):
        h = Histogram("t", buckets=(1.0, math.inf))
        assert h.bucket_bounds == (1.0,)

    def test_invalid_buckets_rejected(self):
        with pytest.raises(MetricError, match="at least one"):
            Histogram("t", buckets=())
        with pytest.raises(MetricError, match="strictly increase"):
            Histogram("t", buckets=(2.0, 1.0))
        with pytest.raises(MetricError, match="strictly increase"):
            Histogram("t", buckets=(1.0, 1.0))

    def test_nan_observation_rejected(self):
        with pytest.raises(MetricError, match="NaN"):
            Histogram("t").observe(float("nan"))

    def test_empty_series_snapshot(self):
        snap = Histogram("t", buckets=(1.0,)).value()
        assert snap.buckets == ((1.0, 0), (math.inf, 0))
        assert snap.count == 0


class TestRegistry:
    def test_factories_are_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "help")
        b = reg.counter("x_total")
        assert a is b
        assert len(reg) == 1

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(MetricError, match="already registered"):
            reg.gauge("x")

    def test_labelnames_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x", labelnames=("a",))
        with pytest.raises(MetricError, match="label mismatch"):
            reg.counter("x", labelnames=("b",))

    def test_get_and_contains(self):
        reg = MetricsRegistry()
        g = reg.gauge("scale")
        assert reg.get("scale") is g
        assert "scale" in reg
        assert "missing" not in reg
        with pytest.raises(MetricError, match="unknown metric"):
            reg.get("missing")

    def test_iteration_is_name_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z")
        reg.gauge("a")
        assert [m.name for m in reg] == ["a", "z"]
