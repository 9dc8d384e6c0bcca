"""Unit tests for the private-buffer statistics logging pipeline."""

import pytest

from repro.engine.statslog import (
    ClassIntervalStats,
    EngineLog,
    ExecutionRecord,
    ThreadLogBuffer,
)


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


class TestThreadLogBuffer:
    def test_buffers_until_capacity(self):
        log = EngineLog()
        buffer = ThreadLogBuffer(log, capacity=3)
        buffer.log(record())
        buffer.log(record())
        assert log.records_ingested == 0  # nothing flushed yet
        assert len(buffer) == 2

    def test_flushes_at_capacity(self):
        log = EngineLog()
        buffer = ThreadLogBuffer(log, capacity=2)
        buffer.log(record())
        buffer.log(record())
        assert log.records_ingested == 2
        assert len(buffer) == 0

    def test_manual_flush(self):
        log = EngineLog()
        buffer = ThreadLogBuffer(log, capacity=100)
        buffer.log(record())
        flushed = buffer.flush()
        assert flushed == 1
        assert log.records_ingested == 1

    def test_flush_empty_is_noop(self):
        log = EngineLog()
        buffer = ThreadLogBuffer(log, capacity=4)
        assert buffer.flush() == 0
        assert buffer.flushes == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ThreadLogBuffer(EngineLog(), capacity=0)


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
        # Thread buffers flush in batches that would scramble access order.
        log = EngineLog()
        log.ingest([record(pages=(1, 2, 3))])
        assert log.records_ingested == 1
        assert not log.has_window("app/q")

    def test_windows_survive_snapshot(self):
        log = EngineLog()
        log.record_window("app/q", (1, 2))
        log.ingest([record()])
        log.interval_snapshot()
        assert len(log.window_for("app/q")) == 2

    def test_peek_does_not_reset(self):
        log = EngineLog()
        log.ingest([record()])
        assert log.peek()["app/q"].executions == 1
        assert log.interval_snapshot()["app/q"].executions == 1

    def test_window_capacity_respected(self):
        log = EngineLog(window_capacity=3)
        log.record_window("app/q", tuple(range(10)))
        assert len(log.window_for("app/q")) == 3

    def test_context_keys_union(self):
        log = EngineLog()
        log.record_window("app/w", (1,))
        log.ingest([record("app/s", pages=())])
        assert log.context_keys() == ["app/s", "app/w"]
