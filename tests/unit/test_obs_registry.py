"""Unit tests for metric instruments and the registry."""

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NullRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("n")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_decrease_rejected(self):
        with pytest.raises(ValueError):
            Counter("n").inc(-1)


class TestGauge:
    def test_set(self):
        gauge = Gauge("g")
        gauge.set(10)
        assert gauge.value == 10.0


class TestHistogram:
    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_observe_places_in_first_covering_bucket(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 10.0):
            hist.observe(value)
        # v lands in the first bucket whose upper bound >= v; 10.0 overflows.
        assert hist.bucket_counts == [2, 1, 0, 1]
        assert hist.count == 4
        assert hist.min == 0.5
        assert hist.max == 10.0
        assert hist.mean == pytest.approx(13.0 / 4)

    def test_empty_histogram_conventions(self):
        hist = Histogram("h", bounds=(1.0,))
        assert hist.min == 0.0
        assert hist.max == 0.0
        assert hist.mean == 0.0

    def test_default_buckets_cover_latency_and_counts(self):
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-4)
        assert DEFAULT_BUCKETS[-1] == pytest.approx(5e5)
        hist = Histogram("h")
        hist.observe(0.003)
        hist.observe(120000)
        assert hist.bucket_counts[-1] == 0  # neither overflowed


class TestMetricRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricRegistry()
        a = registry.counter("queries", app="tpcw")
        b = registry.counter("queries", app="tpcw")
        assert a is b

    def test_label_order_insensitive(self):
        registry = MetricRegistry()
        a = registry.counter("n", app="tpcw", server="s1")
        b = registry.counter("n", server="s1", app="tpcw")
        assert a is b

    def test_distinct_labels_distinct_instruments(self):
        registry = MetricRegistry()
        a = registry.counter("n", app="tpcw")
        b = registry.counter("n", app="rubis")
        assert a is not b

    def test_kind_conflict_raises(self):
        registry = MetricRegistry()
        registry.counter("n")
        with pytest.raises(TypeError):
            registry.gauge("n")

    def test_snapshot_sorted_and_json_ready(self):
        registry = MetricRegistry()
        registry.counter("b").inc()
        registry.counter("a", app="x").inc(2)
        snapshot = registry.snapshot()
        assert [record["name"] for record in snapshot] == ["a", "b"]
        assert snapshot[0] == {
            "type": "counter", "name": "a", "labels": {"app": "x"}, "value": 2.0,
        }

    def test_value_convenience(self):
        registry = MetricRegistry()
        registry.counter("n", app="x").inc(3)
        assert registry.value("n", app="x") == 3.0
        assert registry.value("missing") == 0.0

class TestNullRegistry:
    def test_shared_noop_instruments(self):
        registry = NullRegistry()
        counter = registry.counter("a", app="x")
        assert counter is registry.counter("b")
        counter.inc(100)
        assert counter.value == 0.0
        gauge = registry.gauge("g")
        gauge.set(5)
        assert gauge.value == 0.0
        hist = registry.histogram("h")
        hist.observe(1.0)
        assert hist.count == 0

    def test_snapshot_empty_and_disabled(self):
        assert NULL_REGISTRY.snapshot() == []
        assert NULL_REGISTRY.enabled is False
        assert MetricRegistry().enabled is True
