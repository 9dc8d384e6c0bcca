"""Unit tests for the statistics logging pipeline."""

import pytest

from repro.engine.access import AccessPattern, ExecutionAccess
from repro.engine.bufferpool import LRUBufferPool
from repro.engine.engine import DatabaseEngine, EngineConfig
from repro.engine.executor import QueryExecutor
from repro.engine.query import QueryClass
from repro.engine.statslog import ClassIntervalStats, EngineLog, ExecutionRecord


class _Pages(AccessPattern):
    def __init__(self, demand, prefetch):
        self._access = (demand, prefetch)

    def pages_for_execution(self):
        return ExecutionAccess(*self._access)


def record(key="app/q", latency=0.1, pages=(1, 2), misses=1, readaheads=0):
    return ExecutionRecord(
        timestamp=0.0,
        context_key=key,
        latency=latency,
        page_accesses=len(pages),
        misses=misses,
        readaheads=readaheads,
        io_block_requests=misses + readaheads,
    )


class TestExecutionRecord:
    def test_field_order_and_defaults(self):
        positional = ExecutionRecord(1.5, "app/q", 0.25, 3, 2, 1, 3)
        by_keyword = ExecutionRecord(
            timestamp=1.5,
            context_key="app/q",
            latency=0.25,
            page_accesses=3,
            misses=2,
            readaheads=1,
            io_block_requests=3,
            lock_waits=0,
            lock_wait_time=0.0,
        )
        assert positional == by_keyword
        assert ExecutionRecord._fields == (
            "timestamp", "context_key", "latency", "page_accesses", "misses",
            "readaheads", "io_block_requests", "lock_waits", "lock_wait_time",
        )
        assert ExecutionRecord(0.0, "app/q", 0.1, 0, 0, 0, 0)[7:] == (0, 0.0)

    def test_the_executor_builds_the_named_tuple_itself(self):
        executor = QueryExecutor(LRUBufferPool(10), EngineLog())
        query_class = QueryClass("q", "app", 1, "select 1", _Pages([1, 2, 1], [5]))
        built = executor.execute(query_class, 2.5)
        assert type(built) is ExecutionRecord
        assert built == ExecutionRecord(
            2.5, "app/q", built.latency, 3, 2, 1, 3
        )
        assert built.lock_waits == 0 and built.lock_wait_time == 0.0

    def test_is_immutable(self):
        with pytest.raises(AttributeError):
            record().latency = 9.0
        with pytest.raises(AttributeError):
            record().lock_waits = 1

    def test_replace_yields_the_lock_wait_record(self):
        before = record(latency=0.1)
        after = before._replace(latency=0.1 + 0.4, lock_waits=1, lock_wait_time=0.4)
        assert (after.latency, after.lock_waits, after.lock_wait_time) == (0.5, 1, 0.4)
        assert before.latency == 0.1 and before.lock_waits == 0
        assert after[:2] == before[:2] and after[3:7] == before[3:7]

    def test_replace_yields_the_retry_delay_record(self):
        before = record(latency=0.1)
        after = before._replace(latency=before.latency + 0.05)
        assert after.latency == pytest.approx(0.15)
        assert after[:2] + after[3:] == before[:2] + before[3:]


class TestClassIntervalStats:
    def test_absorb_accumulates(self):
        stats = ClassIntervalStats("app/q")
        stats.absorb(record(latency=0.2))
        stats.absorb(record(latency=0.4))
        assert stats.executions == 2
        assert stats.mean_latency == pytest.approx(0.3)

    def test_throughput(self):
        stats = ClassIntervalStats("app/q")
        for _ in range(20):
            stats.absorb(record())
        assert stats.throughput(10.0) == 2.0

    def test_throughput_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            ClassIntervalStats("app/q").throughput(0.0)

    def test_miss_ratio(self):
        stats = ClassIntervalStats("app/q")
        stats.absorb(record(pages=(1, 2, 3, 4), misses=1))
        assert stats.miss_ratio == 0.25

    def test_empty_stats_safe(self):
        stats = ClassIntervalStats("app/q")
        assert stats.mean_latency == 0.0
        assert stats.miss_ratio == 0.0


def new_engine() -> DatabaseEngine:
    return DatabaseEngine(EngineConfig(name="e"))


def query() -> QueryClass:
    return QueryClass("q", "app", 1, "select 1", _Pages([1, 2], []))


class TestPendingRecords:
    def test_flush_hands_the_pending_records_to_the_log(self):
        engine = new_engine()
        engine.execute(query())
        engine.execute(query())
        engine.flush_logs()
        assert engine._records == []
        assert engine.log.interval_snapshot()["app/q"].executions == 2

    def test_flush_with_nothing_pending_is_a_noop(self):
        engine = new_engine()
        engine.flush_logs()
        assert engine.log.interval_snapshot() == {}

    def test_records_keep_execution_order(self):
        engine = new_engine()
        for timestamp in (3.0, 1.0, 2.0, 0.5):
            engine.execute(query(), timestamp)
        assert [r.timestamp for r in engine._records] == [3.0, 1.0, 2.0, 0.5]

    def test_a_second_flush_ingests_nothing_twice(self):
        engine = new_engine()
        for _ in range(3):
            engine.execute(query())
        engine.flush_logs()
        engine.flush_logs()
        assert engine.log.interval_snapshot()["app/q"].executions == 3

    def test_records_after_a_close_belong_to_the_next_interval(self):
        engine = new_engine()
        engine.execute(query())
        engine.execute(query())
        engine.flush_logs()
        assert engine.log.interval_snapshot()["app/q"].executions == 2
        engine.execute(query())
        assert engine.log.interval_snapshot() == {}
        engine.flush_logs()
        assert engine.log.interval_snapshot()["app/q"].executions == 1

    def test_flush_aggregates_each_class_apart(self):
        engine = new_engine()
        other = QueryClass("r", "app", 2, "select 2", _Pages([3, 4, 5], []))
        executed = [engine.execute(c) for c in (query(), other, query(), other, other)]
        engine.flush_logs()
        snapshot = engine.log.interval_snapshot()
        assert {key: s.executions for key, s in snapshot.items()} == {
            "app/q": 2,
            "app/r": 3,
        }
        assert snapshot["app/r"].page_accesses == 9
        assert snapshot["app/q"].total_latency == sum(
            r.latency for r in executed if r.context_key == "app/q"
        )


class TestEngineLog:
    def test_ingest_aggregates_per_class(self):
        log = EngineLog()
        log.ingest([record("app/a"), record("app/a"), record("app/b")])
        snapshot = log.interval_snapshot()
        assert snapshot["app/a"].executions == 2
        assert snapshot["app/b"].executions == 1

    def test_snapshot_resets_counters(self):
        log = EngineLog()
        log.ingest([record()])
        log.interval_snapshot()
        assert log.interval_snapshot() == {}

    def test_windows_fed_in_execution_order(self):
        log = EngineLog()
        log.record_window("app/q", (5, 6))
        log.record_window("app/q", (7,))
        assert log.window_for("app/q").snapshot().tolist() == [5, 6, 7]

    def test_ingest_does_not_touch_windows(self):
        # Records arrive in one batch at the close, after their accesses.
        log = EngineLog()
        log.ingest([record(pages=(1, 2, 3))])
        assert not log.has_window("app/q")
        assert log.interval_snapshot()["app/q"].executions == 1

    def test_windows_survive_snapshot(self):
        log = EngineLog()
        log.record_window("app/q", (1, 2))
        log.ingest([record()])
        log.interval_snapshot()
        assert len(log.window_for("app/q")) == 2

    def test_window_capacity_respected(self):
        log = EngineLog(window_capacity=3)
        log.record_window("app/q", tuple(range(10)))
        assert len(log.window_for("app/q")) == 3

    def test_context_keys_union(self):
        log = EngineLog()
        log.record_window("app/w", (1,))
        log.ingest([record("app/s", pages=())])
        assert log.context_keys() == ["app/s", "app/w"]
