"""Unit tests for analyzer graceful degradation (quarantine + fallback).

A statistics-log gap or a burst of corrupt metric values must never reach
the IQR detector or refresh signatures: the analyzer quarantines the
window, keeps its last stable state, and reports the degradation so the
controller can sit the round out.
"""

import math

from repro.core.analyzer import DecisionManager, LogAnalyzer
from repro.core.metrics import Metric
from repro.engine.access import AccessPattern, ExecutionAccess, ZipfWorkingSet
from repro.engine.engine import DatabaseEngine, EngineConfig
from repro.engine.pages import PageSpaceAllocator
from repro.engine.query import QueryClass
from repro.engine.tables import Table
from repro.sim.rng import SeedSequenceFactory


def make_engine(pool=256, window=50_000, name="e"):
    return DatabaseEngine(
        EngineConfig(
            name=name, pool_pages=pool, log_buffer_capacity=4,
            window_capacity=window,
        )
    )


def zipf_class(name="q", app="app", working_set=50, pages=20):
    allocator = PageSpaceAllocator()
    table = Table.create(allocator, f"t-{name}", row_count=160_000, row_bytes=1024)
    seeds = SeedSequenceFactory(99)
    pattern = ZipfWorkingSet(
        table.pages, working_set, 0.5, pages, seeds.stream(name)
    )
    return QueryClass(name, app, 1, f"select {name}", pattern)


class _ScriptedPattern(AccessPattern):
    def pages_for_execution(self):
        return ExecutionAccess(demand=[1])


def run_interval(engine, analyzer, classes, executions, sla_met):
    for _ in range(executions):
        for qc in classes:
            engine.execute(qc)
    return analyzer.close_interval(10.0, sla_met)


class TestStatsGapQuarantine:
    def test_gap_quarantines_the_next_interval(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        analyzer.inject_stats_gap()
        vectors = run_interval(engine, analyzer, [zipf_class()], 5, {"app": True})
        assert vectors == {}
        assert analyzer.degraded_last_interval == "stats-gap"
        assert analyzer.quarantined_intervals == 1

    def test_quarantined_interval_refreshes_nothing(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        analyzer.inject_stats_gap()
        run_interval(engine, analyzer, [zipf_class()], 5, {"app": True})
        # A stable interval would have recorded a signature; the
        # quarantined one must not.
        assert "app/q" not in analyzer.signatures

    def test_gap_is_one_shot(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        analyzer.inject_stats_gap()
        run_interval(engine, analyzer, [zipf_class()], 5, {"app": True})
        vectors = run_interval(engine, analyzer, [zipf_class()], 5, {"app": True})
        assert "app/q" in vectors
        assert analyzer.degraded_last_interval is None
        assert analyzer.quarantined_intervals == 1


class TestMetricCorruption:
    def test_corrupt_vectors_are_screened_out(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        analyzer.inject_metric_corruption()
        vectors = run_interval(engine, analyzer, [zipf_class()], 5, {"app": True})
        assert vectors == {}
        assert analyzer.degraded_last_interval == "corrupt-metrics"
        assert analyzer.quarantined_intervals == 1

    def test_corruption_targets_named_fields(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        analyzer.inject_metric_corruption(fields=(Metric.LOCK_WAITS,))
        # A single NaN field is enough to fail the sanity screen: partial
        # corruption must not slip a half-poisoned vector to the detector.
        vectors = run_interval(engine, analyzer, [zipf_class()], 5, {"app": True})
        assert vectors == {}
        assert analyzer.degraded_last_interval == "corrupt-metrics"

    def test_surviving_vectors_stay_finite(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        vectors = run_interval(engine, analyzer, [zipf_class()], 5, {"app": True})
        for vector in vectors.values():
            assert all(math.isfinite(v) for v in vector.values.values())


class TestEffectiveVectors:
    def test_healthy_interval_serves_current_vectors(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        run_interval(engine, analyzer, [zipf_class()], 5, {"app": True})
        assert analyzer.effective_vectors() == analyzer.current_vectors()

    def test_degraded_interval_falls_back_to_stable_signature(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        run_interval(engine, analyzer, [zipf_class()], 5, {"app": True})
        stable = dict(analyzer.signatures)
        analyzer.inject_stats_gap()
        run_interval(engine, analyzer, [zipf_class()], 5, {"app": True})
        assert analyzer.current_vectors() == {}
        assert analyzer.effective_vectors() == stable

    def test_fallback_filters_by_app(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        run_interval(
            engine, analyzer,
            [zipf_class("a", app="tpcw"), zipf_class("b", app="rubis")],
            5, {"tpcw": True, "rubis": True},
        )
        analyzer.inject_stats_gap()
        run_interval(engine, analyzer, [zipf_class("a", app="tpcw")], 5,
                     {"tpcw": True})
        assert list(analyzer.effective_vectors("tpcw")) == ["tpcw/a"]


class TestEmptyWindows:
    """Zero completed queries in a window must never divide by zero."""

    def test_close_interval_with_no_executions(self):
        engine = make_engine()
        manager = DecisionManager("s1")
        analyzer = manager.attach_engine(engine)
        manager.close_interval(10.0, {"app": True})
        assert analyzer.current_vectors() == {}
        assert analyzer.degraded_last_interval is None

    def test_class_active_then_idle_produces_no_vector(self):
        engine = make_engine()
        manager = DecisionManager("s1")
        analyzer = manager.attach_engine(engine)
        qc = zipf_class()
        run_interval(engine, analyzer, [qc], 5, {"app": True})
        # Interval 2: the class completes nothing; its accumulator is gone
        # from the snapshot rather than present with zero executions.
        manager.close_interval(10.0, {"app": True})
        assert analyzer.current_vectors() == {}

    def test_zero_execution_stats_yield_finite_vector(self):
        # Defence in depth: even if an empty accumulator *did* reach the
        # vector builder, every derived rate guards its denominator.
        from repro.core.metrics import vector_from_stats
        from repro.engine.statslog import ClassIntervalStats

        stats = ClassIntervalStats(context_key="app/q")
        vector = vector_from_stats(stats, 10.0)
        assert vector.get(Metric.LATENCY) == 0.0
        assert vector.get(Metric.THROUGHPUT) == 0.0
        assert all(math.isfinite(v) for v in vector.values.values())
        assert stats.mean_latency == 0.0
        assert stats.miss_ratio == 0.0
