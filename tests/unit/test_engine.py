"""Unit tests for the DatabaseEngine facade."""

import pytest

from oracles.lru import resident
from repro.engine.access import AccessPattern, ExecutionAccess
from repro.engine.bufferpool import LRUBufferPool, PartitionedBufferPool
from repro.engine.engine import DatabaseEngine, EngineConfig
from repro.engine.query import QueryClass


class _ScriptedPattern(AccessPattern):
    def __init__(self, demand):
        self.demand = list(demand)

    def pages_for_execution(self):
        return ExecutionAccess(demand=list(self.demand))


def make_engine(pool_pages=64, threads=2, buffer_capacity=4):
    return DatabaseEngine(
        EngineConfig(
            name="e",
            pool_pages=pool_pages,
            worker_threads=threads,
            log_buffer_capacity=buffer_capacity,
        )
    )


def make_class(name="q", app="app", demand=(1, 2)):
    return QueryClass(name, app, 1, f"select {name}", _ScriptedPattern(demand))


class TestExecution:
    def test_execute_logs_window_immediately(self):
        engine = make_engine()
        engine.execute(make_class(demand=[7, 8]))
        assert engine.log.window_for("app/q").snapshot().tolist() == [7, 8]

    def test_counters_arrive_after_flush(self):
        engine = make_engine(buffer_capacity=100)
        engine.execute(make_class())
        assert engine.log.peek() == {}
        engine.flush_logs()
        assert engine.log.peek()["app/q"].executions == 1

    def test_round_robin_across_threads(self):
        engine = make_engine(threads=2, buffer_capacity=100)
        for _ in range(4):
            engine.execute(make_class())
        # Two records buffered in each thread.
        assert all(len(t) == 2 for t in engine._threads)

    def test_thread_buffers_hold_counters_only(self):
        # A 1000-page demand vector goes to the window at execution: the
        # buffered records hold no page vector, and a close empties them.
        engine = make_engine(threads=2, buffer_capacity=100)
        scan = make_class(demand=range(1000))
        for _ in range(3):
            engine.execute(scan)
        buffered = [record for thread in engine._threads for record in thread._records]
        assert len(buffered) == 3
        assert all(
            isinstance(value, (int, float, str)) for record in buffered for value in record
        )
        assert len(engine.log.window_for("app/q")) == 3000
        engine.flush_logs()
        assert all(len(thread) == 0 for thread in engine._threads)

    def test_window_fed_after_a_pool_rebuild(self):
        engine = make_engine()
        engine.set_quota("app/q", 16)
        engine.execute(make_class(demand=[7, 8]))
        assert engine.log.window_for("app/q").snapshot().tolist() == [7, 8]

    def test_apps_tracked(self):
        engine = make_engine()
        engine.execute(make_class(app="tpcw"))
        engine.execute(make_class(name="r", app="rubis"))
        assert engine.apps == {"tpcw", "rubis"}


class TestQuotaManagement:
    def test_starts_with_shared_pool(self):
        assert isinstance(make_engine().pool, LRUBufferPool)

    def test_set_quota_partitions_pool(self):
        engine = make_engine(pool_pages=64)
        engine.set_quota("app/q", 16)
        assert isinstance(engine.pool, PartitionedBufferPool)
        assert engine.pool.quota_of("app/q") == 16

    def test_quota_routes_class_traffic(self):
        engine = make_engine(pool_pages=8)
        engine.set_quota("app/q", 2)
        for page in (1, 2, 3):
            engine.execute(make_class(demand=[page]))
        assert not resident(engine.pool, 1)  # evicted inside the 2-page quota

    def test_quota_rebuild_restarts_cold(self):
        engine = make_engine()
        engine.execute(make_class(demand=[1]))
        engine.set_quota("app/q", 8)
        assert not resident(engine.pool, 1)

    def test_clear_quota_restores_shared_pool(self):
        engine = make_engine()
        engine.set_quota("app/q", 8)
        engine.clear_quota("app/q")
        assert isinstance(engine.pool, LRUBufferPool)

    def test_multiple_quotas_coexist(self):
        engine = make_engine(pool_pages=64)
        engine.set_quota("app/a", 8)
        engine.set_quota("app/b", 8)
        assert engine.quotas == {"app/a": 8, "app/b": 8}

    def test_quota_must_leave_room(self):
        engine = make_engine(pool_pages=16)
        with pytest.raises(ValueError):
            engine.set_quota("app/q", 16)

    def test_quota_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            make_engine().set_quota("app/q", 0)


class TestIntrospection:
    def test_hit_ratio_delegates_to_pool(self):
        engine = make_engine()
        engine.execute(make_class(demand=[1]))
        engine.execute(make_class(demand=[1]))
        assert engine.pool.stats.hit_ratio == 0.5
        assert engine.pool.stats.per_class["app/q"]["hits"] == 1
        assert engine.pool.stats.per_class["app/q"]["misses"] == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(name="bad", pool_pages=0)
        with pytest.raises(ValueError):
            EngineConfig(name="bad", worker_threads=0)
