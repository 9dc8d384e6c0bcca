"""Unit tests for the per-application scheduler."""

import pytest

from repro.cluster.replica import Replica
from repro.cluster.scheduler import AppIntervalMetrics, Scheduler
from repro.cluster.server import PhysicalServer
from repro.engine.access import AccessPattern, ExecutionAccess
from repro.engine.query import QueryClass


class _ScriptedPattern(AccessPattern):
    def pages_for_execution(self):
        return ExecutionAccess(demand=[1])


def make_class(name="q", app="app", write=False):
    return QueryClass(
        name, app, 1, f"select {name}", _ScriptedPattern(), is_write=write
    )


def make_scheduler(replicas=2, app="app"):
    scheduler = Scheduler(app)
    for index in range(replicas):
        server = PhysicalServer(f"s{index}")
        scheduler.add_replica(Replica.create(f"r{index}", app, server))
    return scheduler


class TestReplicaSet:
    def test_add_and_list(self):
        scheduler = make_scheduler(2)
        assert scheduler.replica_names() == ["r0", "r1"]

    def test_wrong_app_rejected(self):
        scheduler = Scheduler("app")
        other = Replica.create("r", "other", PhysicalServer("s"))
        with pytest.raises(ValueError):
            scheduler.add_replica(other)

    def test_duplicate_rejected(self):
        scheduler = make_scheduler(1)
        with pytest.raises(ValueError):
            scheduler.add_replica(Replica.create("r0", "app", PhysicalServer("x")))

    def test_cannot_remove_last_replica(self):
        scheduler = make_scheduler(1)
        with pytest.raises(ValueError):
            scheduler.remove_replica("r0")

    def test_remove_clears_empty_placements(self):
        scheduler = make_scheduler(2)
        scheduler.place_class("app/q", ["r1"])
        scheduler.remove_replica("r1")
        # The class falls back to the full replica set.
        assert scheduler.placement_of("app/q") == ["r0"]


class TestPlacement:
    def test_default_placement_is_all_replicas(self):
        scheduler = make_scheduler(3)
        assert scheduler.placement_of("app/q") == ["r0", "r1", "r2"]

    def test_place_class_pins_subset(self):
        scheduler = make_scheduler(3)
        scheduler.place_class("app/q", ["r1", "r2"])
        assert scheduler.placement_of("app/q") == ["r1", "r2"]

    def test_place_on_unknown_replica_rejected(self):
        scheduler = make_scheduler(1)
        with pytest.raises(KeyError):
            scheduler.place_class("app/q", ["ghost"])

    def test_empty_placement_rejected(self):
        scheduler = make_scheduler(1)
        with pytest.raises(ValueError):
            scheduler.place_class("app/q", [])

    def test_move_class_isolates(self):
        scheduler = make_scheduler(3)
        scheduler.move_class("app/q", "r2")
        assert scheduler.placement_of("app/q") == ["r2"]

    def test_pinned_contexts(self):
        scheduler = make_scheduler(2)
        scheduler.move_class("app/q", "r1")
        assert scheduler.pinned_contexts() == {"app/q": ["r1"]}


class TestRouting:
    def test_reads_round_robin(self):
        scheduler = make_scheduler(2)
        qc = make_class()
        for _ in range(4):
            scheduler.submit(qc, 0.0)
        assert scheduler.replicas["r0"].engine.executor.executions == 2
        assert scheduler.replicas["r1"].engine.executor.executions == 2

    def test_reads_respect_placement(self):
        scheduler = make_scheduler(2)
        qc = make_class()
        scheduler.move_class(qc.context_key, "r1")
        for _ in range(3):
            scheduler.submit(qc, 0.0)
        assert scheduler.replicas["r0"].engine.executor.executions == 0
        assert scheduler.replicas["r1"].engine.executor.executions == 3

    def test_writes_go_everywhere(self):
        scheduler = make_scheduler(3)
        scheduler.submit(make_class(write=True), 0.0)
        for name in scheduler.replica_names():
            assert scheduler.replicas[name].engine.executor.executions == 1

    def test_writes_advance_consistency(self):
        scheduler = make_scheduler(2)
        scheduler.submit(make_class(write=True), 0.0)
        assert scheduler.replication.fully_consistent
        assert scheduler.replication.committed == 1

    def test_reads_skip_offline_replicas(self):
        scheduler = make_scheduler(2)
        scheduler.replicas["r0"].fail()
        qc = make_class()
        for _ in range(3):
            scheduler.submit(qc, 0.0)
        assert scheduler.replicas["r1"].engine.executor.executions == 3

    def test_wrong_app_query_rejected(self):
        scheduler = make_scheduler(1)
        with pytest.raises(ValueError):
            scheduler.submit(make_class(app="other"), 0.0)

    def test_no_replicas_raises(self):
        scheduler = Scheduler("app")
        with pytest.raises(RuntimeError):
            scheduler.submit(make_class(), 0.0)


class TestSLAAccounting:
    def test_interval_metrics_aggregate(self):
        scheduler = make_scheduler(1)
        qc = make_class()
        for _ in range(5):
            scheduler.submit(qc, 0.0)
        metrics = scheduler.close_interval()
        assert metrics.queries == 5
        assert metrics.mean_latency > 0.0

    def test_close_interval_resets(self):
        scheduler = make_scheduler(1)
        scheduler.submit(make_class(), 0.0)
        scheduler.close_interval()
        assert scheduler.close_interval().queries == 0

    def test_interval_index_advances(self):
        scheduler = make_scheduler(1)
        scheduler.close_interval()
        assert scheduler.close_interval().interval_index == 1

    def test_sla_met_on_idle_interval(self):
        metrics = AppIntervalMetrics(app="a", interval_index=0)
        assert metrics.sla_met(1.0)

    def test_sla_violated_by_high_mean(self):
        metrics = AppIntervalMetrics(app="a", interval_index=0)
        metrics.observe(5.0)
        assert not metrics.sla_met(1.0)

    def test_throughput_per_second(self):
        metrics = AppIntervalMetrics(app="a", interval_index=0, interval_length=10.0)
        for _ in range(20):
            metrics.observe(0.1)
        assert metrics.throughput == 2.0

    def test_rejects_bad_sla(self):
        with pytest.raises(ValueError):
            Scheduler("app", sla_latency=0.0)
