"""Unit tests for the log analyzer and decision manager."""

import pytest

from repro.core.analyzer import DecisionManager, LogAnalyzer
from repro.core.metrics import Metric
from repro.engine.access import AccessPattern, ExecutionAccess, ZipfWorkingSet
from repro.engine.engine import DatabaseEngine, EngineConfig
from repro.engine.pages import PageSpaceAllocator
from repro.engine.query import QueryClass
from repro.engine.tables import Table
from repro.sim.rng import SeedSequenceFactory


def make_engine(pool=256, window=50_000):
    return DatabaseEngine(
        EngineConfig(name="e", pool_pages=pool, window_capacity=window)
    )


def zipf_class(name="q", app="app", working_set=50, pages=20, seed_name=None):
    allocator = PageSpaceAllocator()
    table = Table.create(allocator, f"t-{name}", row_count=160_000, row_bytes=1024)
    seeds = SeedSequenceFactory(99)
    pattern = ZipfWorkingSet(
        table.pages, working_set, 0.5, pages, seeds.stream(seed_name or name)
    )
    return QueryClass(name, app, 1, f"select {name}", pattern)


def run_interval(engine, analyzer, classes, executions, sla_met):
    for _ in range(executions):
        for qc in classes:
            engine.execute(qc)
    return analyzer.close_interval(10.0, sla_met)


class TestCloseInterval:
    def test_vectors_built_per_context(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        qc = zipf_class()
        vectors = run_interval(engine, analyzer, [qc], 5, {"app": True})
        assert "app/q" in vectors
        assert vectors["app/q"].get(Metric.PAGE_ACCESSES) == 100.0

    def test_stable_interval_records_signature(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        run_interval(engine, analyzer, [zipf_class()], 5, {"app": True})
        assert "app/q" in analyzer.signatures

    def test_violating_interval_skips_signature(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        run_interval(engine, analyzer, [zipf_class()], 5, {"app": False})
        assert "app/q" not in analyzer.signatures

    def test_stable_refresh_overwrites_signature(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        qc = zipf_class()
        run_interval(engine, analyzer, [qc], 5, {"app": True})
        latest = run_interval(engine, analyzer, [qc], 9, {"app": True})
        assert analyzer.signatures == {"app/q": latest["app/q"]}
        assert latest["app/q"].get(Metric.PAGE_ACCESSES) == 180.0

    def test_a_curve_creates_no_signature(self):
        # A class gets its curve before its first stable interval without
        # a placeholder signature: signatures are metric averages only.
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        run_interval(engine, analyzer, [zipf_class(pages=50)], 50, {"app": False})
        assert analyzer.ensure_mrc("app/q") is not None
        analyzer.assess_recent_behaviour("app/q", 0.25, min_tail=1000)
        assert analyzer.mrc.has("app/q")
        assert analyzer.signatures == {}

    def test_initial_mrc_computed_when_window_large(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        run_interval(engine, analyzer, [zipf_class(pages=50)], 50, {"app": True})
        assert analyzer.mrc.has("app/q")

    def test_initial_mrc_deferred_when_window_small(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        run_interval(engine, analyzer, [zipf_class(pages=5)], 3, {"app": True})
        assert not analyzer.mrc.has("app/q")

    def test_mrc_refreshed_when_window_doubles(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        qc = zipf_class(pages=50)
        run_interval(engine, analyzer, [qc], 50, {"app": True})
        first = analyzer.mrc.recomputations
        # Window more than doubles over the next intervals.
        run_interval(engine, analyzer, [qc], 80, {"app": True})
        assert analyzer.mrc.recomputations > first

    def test_current_vectors_filter_by_app(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        run_interval(
            engine,
            analyzer,
            [zipf_class("a", app="tpcw"), zipf_class("b", app="rubis")],
            3,
            {"tpcw": True, "rubis": True},
        )
        assert list(analyzer.current_vectors("tpcw")) == ["tpcw/a"]


class TestNewContexts:
    def test_fresh_context_is_new(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        run_interval(engine, analyzer, [zipf_class()], 3, {"app": True})
        assert analyzer.recently_scheduled("app/q", horizon=5)
        assert analyzer.new_contexts() == ["app/q"]

    def test_old_context_not_new(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        qc = zipf_class()
        for _ in range(8):
            run_interval(engine, analyzer, [qc], 3, {"app": True})
        assert not analyzer.recently_scheduled("app/q", horizon=5)
        assert analyzer.new_contexts(horizon=5) == []

    def test_unknown_context_counts_as_new(self):
        analyzer = LogAnalyzer(make_engine(), "s1")
        assert analyzer.recently_scheduled("never/seen")


class TestAssessRecentBehaviour:
    def test_no_window_status(self):
        analyzer = LogAnalyzer(make_engine(), "s1")
        assert analyzer.assess_recent_behaviour("ghost", 0.25)[0] == "no-window"

    def test_insufficient_on_tiny_window(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        run_interval(engine, analyzer, [zipf_class(pages=5)], 2, {"app": True})
        status, _ = analyzer.assess_recent_behaviour("app/q", 0.25, min_tail=2000)
        assert status == "insufficient"

    def test_new_class_status(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        run_interval(engine, analyzer, [zipf_class(pages=60)], 40, {"app": True})
        status, params = analyzer.assess_recent_behaviour(
            "app/q", 0.25, min_tail=1000
        )
        assert status == "new"
        assert params is not None

    def test_unchanged_for_steady_old_class(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        qc = zipf_class(pages=60)
        for _ in range(8):
            run_interval(engine, analyzer, [qc], 40, {"app": True})
        status, _ = analyzer.assess_recent_behaviour("app/q", 0.5, min_tail=1000)
        assert status == "unchanged"

    def test_changed_when_pattern_shifts(self):
        engine = make_engine(pool=8192, window=200_000)
        analyzer = LogAnalyzer(engine, "s1")
        small = zipf_class(pages=60, working_set=50, seed_name="small")
        for _ in range(7):
            run_interval(engine, analyzer, [small], 40, {"app": True})
        # Same context key, drastically larger working set.
        big = zipf_class(pages=60, working_set=5000, seed_name="big")
        run_interval(engine, analyzer, [big], 40, {"app": False})
        status, params = analyzer.assess_recent_behaviour(
            "app/q", 0.25, min_tail=1000, new_class_horizon=2
        )
        assert status == "changed"
        assert params.total_memory > 500

    def test_assessment_stores_mrc(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        run_interval(engine, analyzer, [zipf_class(pages=60)], 40, {"app": False})
        analyzer.assess_recent_behaviour("app/q", 0.25, min_tail=1000)
        assert analyzer.mrc.has("app/q")
        assert analyzer.stored_mrc("app/q") is not None


class TestDetection:
    def test_detect_needs_population(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        run_interval(engine, analyzer, [zipf_class()], 3, {"app": True})
        run_interval(engine, analyzer, [zipf_class()], 3, {"app": False})
        report = analyzer.detect("app")
        assert report.is_empty  # a single context cannot be an outlier

    def test_heavyweight_contexts(self):
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1")
        light = zipf_class("light", pages=2)
        heavy = zipf_class("heavy", pages=100, working_set=500)
        run_interval(engine, analyzer, [light, heavy], 5, {"app": True})
        assert analyzer.heavyweight_contexts("app", k=1) == ["app/heavy"]


class TestDecisionManager:
    def test_attach_is_idempotent(self):
        manager = DecisionManager(server_name="s1")
        engine = make_engine()
        a = manager.attach_engine(engine)
        b = manager.attach_engine(engine)
        assert a is b

    def test_analyzer_for_unknown_raises(self):
        with pytest.raises(KeyError):
            DecisionManager(server_name="s1").analyzer_for("ghost")

    def test_close_interval_fans_out(self):
        manager = DecisionManager(server_name="s1")
        engine = make_engine()
        analyzer = manager.attach_engine(engine)
        engine.execute(zipf_class())
        manager.close_interval(10.0, {"app": True})
        assert "app/q" in analyzer.current_vectors()
