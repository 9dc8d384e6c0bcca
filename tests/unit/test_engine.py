"""Unit tests for the DatabaseEngine facade."""

from functools import reduce
from operator import add

import pytest

from oracles.lru import resident
from repro.engine.access import AccessPattern, ExecutionAccess
from repro.engine.bufferpool import LRUBufferPool, PartitionedBufferPool
from repro.engine.engine import DatabaseEngine, EngineConfig
from repro.engine.locks import LockMode, RowGroupLockPattern
from repro.engine.query import QueryClass
from repro.sim.rng import SeedSequenceFactory


class _ScriptedPattern(AccessPattern):
    def __init__(self, demand):
        self.demand = list(demand)

    def pages_for_execution(self):
        return ExecutionAccess(demand=list(self.demand))


def make_engine(pool_pages=64):
    return DatabaseEngine(EngineConfig(name="e", pool_pages=pool_pages))


def make_class(name="q", app="app", demand=(1, 2)):
    return QueryClass(name, app, 1, f"select {name}", _ScriptedPattern(demand))


class TestExecution:
    def test_execute_logs_window_immediately(self):
        engine = make_engine()
        engine.execute(make_class(demand=[7, 8]))
        assert engine.log.window_for("app/q").snapshot().tolist() == [7, 8]

    def test_counters_arrive_after_flush(self):
        engine = make_engine()
        engine.execute(make_class())
        assert engine.log.interval_snapshot() == {}
        engine.flush_logs()
        assert engine.log.interval_snapshot()["app/q"].executions == 1

    def test_pending_records_hold_counters_only(self):
        # A 1000-page demand vector goes to the window at execution: the
        # pending records hold no page vector, and a close empties the list.
        engine = make_engine()
        scan = make_class(demand=range(1000))
        executed = [engine.execute(scan, float(t)) for t in range(3)]
        assert engine._records == executed
        assert all(
            isinstance(value, (int, float, str))
            for record in executed
            for value in record
        )
        assert len(engine.log.window_for("app/q")) == 3000
        engine.flush_logs()
        assert engine._records == []
        assert engine.log.interval_snapshot()["app/q"].executions == 3

    def test_close_sums_latencies_in_execution_order(self):
        # Misses, hits and varying I/O factors give latencies whose float
        # sum depends on the order: the close adds them left to right.
        engine = make_engine(pool_pages=4)
        latencies = [
            engine.execute(
                make_class(demand=[t % 7, t % 5]), float(t), io_factor=1 + t / 3
            ).latency
            for t in range(40)
        ]
        engine.flush_logs()
        stats = engine.log.interval_snapshot()["app/q"]
        assert stats.executions == len(latencies)
        assert stats.total_latency == reduce(add, latencies, 0.0)

    def test_pending_record_carries_the_lock_wait(self):
        # Two classes take a table-wide X lock at one instant: the second
        # waits, and the record the close ingests is the amended one.
        engine = make_engine()
        seeds = SeedSequenceFactory(1)

        def writer(name):
            return QueryClass(
                name,
                "app",
                1,
                f"update {name}",
                _ScriptedPattern([1]),
                is_write=True,
                lock_pattern=RowGroupLockPattern(
                    "t", 1, LockMode.EXCLUSIVE, seeds.stream(name)
                ),
            )

        first = engine.execute(writer("w"), 0.0)
        second = engine.execute(writer("v"), 0.0)
        assert first.lock_waits == 0 and second.lock_waits == 1
        assert second.lock_wait_time > 0
        assert engine._records == [first, second]
        engine.flush_logs()
        snapshot = engine.log.interval_snapshot()
        stats = snapshot["app/v"]
        assert (stats.lock_waits, stats.lock_wait_time) == (1, second.lock_wait_time)
        assert stats.total_latency == second.latency
        assert snapshot["app/w"].lock_waits == 0

    def test_window_capacity_reaches_the_log(self):
        engine = DatabaseEngine(EngineConfig(name="e", window_capacity=3))
        engine.execute(make_class(demand=range(10)))
        assert engine.log.window_for("app/q").snapshot().tolist() == [7, 8, 9]

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

    def test_refused_quota_leaves_the_engine_as_it_was(self):
        # 60 + 50 pages of a 100-page pool leave nothing for the default
        # partition: the pool refuses the map, and neither the quota map nor
        # the pool may have moved, or every later rebuild raises too.
        engine = make_engine(pool_pages=100)
        engine.set_quota("a/x", 60)
        pool = engine.pool
        with pytest.raises(ValueError, match="quotas reserve 110 pages"):
            engine.set_quota("b/y", 50)
        assert engine.quotas == {"a/x": 60}
        assert engine.pool is pool
        engine.reset_pool()
        assert engine.pool.quota_of("a/x") == 60
        engine.clear_quota("a/x")
        assert engine.quotas == {}
        assert isinstance(engine.pool, LRUBufferPool)


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

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_window_capacity_must_be_positive(self, capacity):
        # Refused at construction, not at the first execution's window.
        with pytest.raises(ValueError, match="window capacity must be positive"):
            EngineConfig(name="bad", window_capacity=capacity)
