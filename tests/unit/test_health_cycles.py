"""Belief-state churn: repeated crash → recover → crash cycles.

The single-crash reactions live in ``test_scheduler_health``; these tests
pin the *cycling* behaviour — a replica that flaps must produce one clean
DOWN/UP transition pair per cycle, be re-admitted to routing after every
recovery, and drive the retry budget to exhaustion when the flapping
leaves nothing to retry against.
"""

import pytest

from repro.cluster.health import ReplicaHealth
from repro.cluster.replica import Replica
from repro.cluster.scheduler import Scheduler
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


def make_scheduler(replicas=2, app="app", **kwargs):
    scheduler = Scheduler(app, **kwargs)
    for index in range(replicas):
        server = PhysicalServer(f"s{index}")
        scheduler.add_replica(Replica.create(f"r{index}", app, server))
    return scheduler


class TestBeliefCycles:
    def test_each_cycle_appends_one_transition_pair(self):
        health = ReplicaHealth()
        for cycle in range(3):
            at = float(cycle * 10)
            assert health.mark_down("r0", at, "read-failed")
            assert health.mark_up("r0", at + 5.0, "caught-up")
        flags = [t.up for t in health.transitions]
        assert flags == [False, True] * 3
        assert health.is_up("r0")
        assert not health.any_down

    def test_down_since_tracks_the_latest_crash(self):
        health = ReplicaHealth()
        health.mark_down("r0", 1.0)
        health.mark_up("r0", 2.0)
        health.mark_down("r0", 30.0)
        assert health.down_since("r0") == 30.0

    def test_repeated_marks_within_a_cycle_are_ignored(self):
        health = ReplicaHealth()
        health.mark_down("r0", 1.0)
        assert not health.mark_down("r0", 2.0)
        health.mark_up("r0", 3.0)
        assert not health.mark_up("r0", 4.0)
        # Only the transitions, never the repeats, are recorded.
        assert [t.at for t in health.transitions] == [1.0, 3.0]

    def test_interleaved_replicas_cycle_independently(self):
        health = ReplicaHealth()
        health.mark_down("r0", 1.0)
        health.mark_down("r1", 2.0)
        health.mark_up("r0", 3.0)
        assert health.down_replicas() == ["r1"]
        health.mark_down("r0", 4.0)
        assert health.down_replicas() == ["r0", "r1"]
        assert health.down_since("r0") == 4.0


class TestSchedulerCycles:
    def cycle(self, scheduler, replica_name, at):
        """One full crash → discover → recover → re-admit cycle."""
        scheduler.replicas[replica_name].fail()
        scheduler.submit(make_class(), at)  # discovery read marks it down
        assert not scheduler.health.is_up(replica_name)
        scheduler.replicas[replica_name].recover(reset_pool=False)
        scheduler.mark_up(replica_name, at + 1.0)
        assert scheduler.health.is_up(replica_name)

    def test_three_cycles_leave_replica_serving(self):
        scheduler = make_scheduler(2)
        for cycle in range(3):
            self.cycle(scheduler, "r0", float(cycle * 10))
        before = scheduler.replicas["r0"].engine.executor.executions
        qc = make_class()
        for _ in range(4):
            scheduler.submit(qc, 30.0)
        assert scheduler.replicas["r0"].engine.executor.executions > before

    def test_transition_log_orders_the_cycles(self):
        scheduler = make_scheduler(2)
        for cycle in range(3):
            self.cycle(scheduler, "r0", float(cycle * 10))
        r0 = [t for t in scheduler.health.transitions if t.replica == "r0"]
        assert [t.up for t in r0] == [False, True] * 3
        assert [t.at for t in r0] == sorted(t.at for t in r0)

    def test_flapping_does_not_inflate_down_set(self):
        scheduler = make_scheduler(2)
        for cycle in range(5):
            self.cycle(scheduler, "r0", float(cycle * 10))
        assert scheduler.health.down_replicas() == []


class TestRetryBudgetExhaustion:
    def test_zero_budget_fails_on_first_crash_of_a_cycle(self):
        scheduler = make_scheduler(2, retry_budget=0)
        scheduler.replicas["r0"].fail()
        with pytest.raises(RuntimeError, match="retry budget"):
            scheduler.submit(make_class(), 0.0)

    def test_budget_recovers_with_the_replica(self):
        # Exhaustion is per-submit, not a permanent scheduler state: after
        # the replica is re-admitted the same budget succeeds again.
        scheduler = make_scheduler(2, retry_budget=0)
        scheduler.replicas["r0"].fail()
        with pytest.raises(RuntimeError):
            scheduler.submit(make_class(), 0.0)
        scheduler.replicas["r0"].recover(reset_pool=False)
        scheduler.health.mark_up("r0", 1.0)
        record = scheduler.submit(make_class(), 1.0)
        assert record is not None

    def test_second_cycle_exhausts_budget_when_peer_is_down(self):
        scheduler = make_scheduler(2, retry_budget=1)
        # Cycle 1 marks r0 down and survives on r1.
        scheduler.replicas["r0"].fail()
        scheduler.submit(make_class(), 0.0)
        # Cycle 2: r0 comes back believing-up, but its engine dies again
        # while r1 — the only retry target — is also gone.
        scheduler.replicas["r0"].recover(reset_pool=False)
        scheduler.mark_up("r0", 1.0)
        scheduler.replicas["r0"].fail()
        scheduler.replicas["r1"].fail()
        with pytest.raises(RuntimeError):
            scheduler.submit(make_class(), 2.0)
        assert not scheduler.health.is_up("r0")

    def test_all_replicas_down_reports_no_online_replica(self):
        scheduler = make_scheduler(2)
        scheduler.replicas["r0"].fail()
        scheduler.replicas["r1"].fail()
        # The discovery pass marks each replica down as its read fails and
        # runs out of targets mid-submit.
        with pytest.raises(RuntimeError, match="no current online replica"):
            scheduler.submit(make_class(), 0.0)
        assert scheduler.health.down_replicas() == ["r0", "r1"]
