"""Unit tests for recovered-replica catch-up via the scheduler write log."""

import pytest

from repro.cluster.replica import Replica
from repro.cluster.scheduler import Scheduler
from repro.cluster.server import PhysicalServer
from repro.engine.access import AccessPattern, ExecutionAccess
from repro.engine.query import QueryClass


class _ScriptedPattern(AccessPattern):
    def pages_for_execution(self):
        return ExecutionAccess(demand=[1])


def write_class():
    return QueryClass("w", "app", 1, "insert w", _ScriptedPattern(), is_write=True)


def make_scheduler(replicas=2):
    scheduler = Scheduler("app")
    for index in range(replicas):
        scheduler.add_replica(
            Replica.create(f"r{index}", "app", PhysicalServer(f"s{index}"))
        )
    return scheduler


class TestCatchUp:
    def test_replays_missed_writes(self):
        scheduler = make_scheduler()
        victim = scheduler.replicas["r0"]
        victim.fail()
        for _ in range(3):
            scheduler.submit(write_class(), 0.0)
        victim.recover()
        assert scheduler.catch_up("r0", 1.0) == 3
        assert scheduler.replication.fully_consistent
        assert victim.applied_writes == 3

    def test_caught_up_replica_noop(self):
        scheduler = make_scheduler()
        scheduler.submit(write_class(), 0.0)
        assert scheduler.catch_up("r0", 1.0) == 0

    def test_lagging_replica_excluded_from_new_writes(self):
        scheduler = make_scheduler()
        victim = scheduler.replicas["r0"]
        victim.fail()
        scheduler.submit(write_class(), 0.0)
        victim.recover()
        # Next write skips the lagging replica (ordering!).
        scheduler.submit(write_class(), 1.0)
        assert victim.applied_writes == 0
        assert scheduler.replicas["r1"].applied_writes == 2

    def test_rejoins_write_set_after_catch_up(self):
        scheduler = make_scheduler()
        victim = scheduler.replicas["r0"]
        victim.fail()
        scheduler.submit(write_class(), 0.0)
        victim.recover()
        scheduler.catch_up("r0", 1.0)
        scheduler.submit(write_class(), 2.0)
        assert victim.applied_writes == 2

    def test_offline_replica_cannot_catch_up(self):
        scheduler = make_scheduler()
        victim = scheduler.replicas["r0"]
        victim.fail()
        scheduler.submit(write_class(), 0.0)
        with pytest.raises(RuntimeError):
            scheduler.catch_up("r0", 1.0)

    def test_unknown_replica_rejected(self):
        with pytest.raises(KeyError):
            make_scheduler().catch_up("ghost", 0.0)

    def test_too_far_behind_needs_resync(self):
        scheduler = make_scheduler()
        scheduler._write_log = __import__("collections").deque(maxlen=2)
        victim = scheduler.replicas["r0"]
        victim.fail()
        for _ in range(5):  # log retains only the last 2
            scheduler.submit(write_class(), 0.0)
        victim.recover()
        with pytest.raises(RuntimeError, match="resync"):
            scheduler.catch_up("r0", 1.0)
