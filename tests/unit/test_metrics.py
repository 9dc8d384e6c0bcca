"""Unit tests for metric vectors."""

import pytest

from repro.core.metrics import MEMORY_METRICS, Metric, MetricVector, vector_from_stats
from repro.engine.statslog import ClassIntervalStats, ExecutionRecord


def stats(executions=10, latency=1.0, pages=100, misses=20, readaheads=5):
    s = ClassIntervalStats("app/q")
    for _ in range(executions):
        s.absorb(
            ExecutionRecord(
                timestamp=0.0,
                context_key="app/q",
                latency=latency / executions,
                page_accesses=pages // executions,
                misses=misses // executions,
                readaheads=readaheads // executions,
                io_block_requests=(misses + readaheads) // executions,
            )
        )
    return s


class TestVectorFromStats:
    def test_all_metrics_present(self):
        vector = vector_from_stats(stats(), interval_length=10.0)
        for metric in Metric:
            assert metric in vector.values

    def test_throughput_normalised_by_interval(self):
        vector = vector_from_stats(stats(executions=20), interval_length=10.0)
        assert vector.get(Metric.THROUGHPUT) == 2.0

    def test_latency_is_mean(self):
        # 5.0 seconds spread over 10 executions -> 0.5 s mean latency.
        vector = vector_from_stats(stats(executions=10, latency=5.0), 10.0)
        assert vector.get(Metric.LATENCY) == pytest.approx(0.5)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            vector_from_stats(stats(), 0.0)


class TestRatioTo:
    def vec(self, **values):
        return MetricVector(
            "app/q", {Metric(name): value for name, value in values.items()}
        )

    def test_plain_ratio(self):
        current = self.vec(misses=30.0)
        stable = self.vec(misses=10.0)
        assert current.ratio_to(stable).get(Metric.MISSES) == 3.0

    def test_zero_over_zero_is_unchanged(self):
        current = self.vec(readaheads=0.0)
        stable = self.vec(readaheads=0.0)
        assert current.ratio_to(stable).get(Metric.READAHEADS) == 1.0

    def test_positive_over_zero_is_laplace_smoothed(self):
        # (current + 1) / (0 + 1): inflation scales with the absolute
        # change instead of the old flat 1e6 cap.
        current = self.vec(readaheads=50.0)
        stable = self.vec(readaheads=0.0)
        ratio = current.ratio_to(stable).get(Metric.READAHEADS)
        assert ratio == 51.0

    def test_missing_stable_metric_treated_as_zero(self):
        current = self.vec(misses=5.0)
        stable = MetricVector("app/q", {})
        assert current.ratio_to(stable).get(Metric.MISSES) == 6.0

    def test_small_absolute_drift_from_zero_stays_near_one(self):
        # The collateral-flag case the smoothing exists for: a class whose
        # stable misses were 0 and current misses are 2 must not read as an
        # unbounded increase.
        current = self.vec(misses=2.0)
        stable = self.vec(misses=0.0)
        assert current.ratio_to(stable).get(Metric.MISSES) == 3.0

    def test_get_defaults_to_zero(self):
        assert MetricVector("app/q", {}).get(Metric.LATENCY) == 0.0


class TestMemoryMetrics:
    def test_memory_metrics_are_the_papers_counters(self):
        assert Metric.PAGE_ACCESSES in MEMORY_METRICS
        assert Metric.MISSES in MEMORY_METRICS
        assert Metric.READAHEADS in MEMORY_METRICS

    def test_latency_not_a_memory_metric(self):
        assert Metric.LATENCY not in MEMORY_METRICS
