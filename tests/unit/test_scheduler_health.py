"""Unit tests for the scheduler's failure-reaction layer.

Failures are silent: the scheduler discovers a crashed replica when an
execution against it fails, marks it down (re-routing every class away at
once), retries the query elsewhere under a bounded backoff budget, and
re-admits the replica only after recovery plus write-log catch-up.
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

    def footprint_pages(self):
        return 1


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


class TestReplicaHealth:
    def test_unknown_replica_is_up(self):
        assert ReplicaHealth().is_up("never-seen")

    def test_mark_down_transitions_once(self):
        health = ReplicaHealth()
        assert health.mark_down("r0", 1.0, "read-failed")
        assert not health.mark_down("r0", 2.0, "read-failed")
        assert not health.is_up("r0")
        assert health.down_replicas() == ["r0"]
        assert health.down_since("r0") == 1.0

    def test_mark_up_transitions_once(self):
        health = ReplicaHealth()
        health.mark_down("r0", 1.0)
        assert health.mark_up("r0", 5.0, "recovered")
        assert not health.mark_up("r0", 6.0)
        assert health.is_up("r0")
        assert not health.any_down

    def test_transitions_record_reasons(self):
        health = ReplicaHealth()
        health.mark_down("r0", 1.0, "read-failed")
        health.mark_up("r0", 5.0, "caught-up")
        assert [(t.replica, t.up, t.reason) for t in health.transitions] == [
            ("r0", False, "read-failed"),
            ("r0", True, "caught-up"),
        ]

    def test_forget_drops_state(self):
        health = ReplicaHealth()
        health.mark_down("r0", 1.0)
        health.forget("r0")
        assert health.is_up("r0")


class TestSilentCrashReaction:
    def test_failed_read_marks_replica_down(self):
        scheduler = make_scheduler(2)
        scheduler.replicas["r0"].fail()  # silent: health still believes UP
        assert scheduler.health.is_up("r0")
        record = scheduler.submit(make_class(), 0.0)
        assert record is not None
        assert not scheduler.health.is_up("r0")
        down = [t for t in scheduler.health.transitions if not t.up]
        assert down[0].reason == "read-failed"

    def test_marked_down_replica_stops_receiving_reads(self):
        scheduler = make_scheduler(2)
        scheduler.replicas["r0"].fail()
        qc = make_class()
        for _ in range(4):
            scheduler.submit(qc, 0.0)
        # After the single discovery failure everything lands on r1.
        assert scheduler.replicas["r1"].engine.executor.executions == 4

    def test_retry_backoff_surfaces_as_latency(self):
        scheduler = make_scheduler(2, retry_backoff=0.25)
        clean = scheduler.submit(make_class(), 0.0)
        scheduler.replicas["r0"].fail()
        scheduler.health.mark_up("r0", 0.0)  # keep believing it serves
        retried = scheduler.submit(make_class("q2"), 0.0)
        # One failed attempt: the client pays one backoff step extra.
        assert retried.latency >= clean.latency + 0.25

    def test_retry_budget_exhaustion_raises(self):
        scheduler = make_scheduler(2, retry_budget=0)
        scheduler.replicas["r0"].fail()
        with pytest.raises(RuntimeError, match="retry budget"):
            scheduler.submit(make_class(), 0.0)

    def test_no_eligible_replica_raises(self):
        scheduler = make_scheduler(1)
        scheduler.replicas["r0"].fail()
        with pytest.raises(RuntimeError, match="no current online replica"):
            scheduler.submit(make_class(), 0.0)

    def test_pinned_class_fails_over_to_full_set(self):
        scheduler = make_scheduler(2)
        qc = make_class()
        scheduler.move_class(qc.context_key, "r1")
        scheduler.replicas["r1"].fail()
        scheduler.submit(qc, 0.0)
        # The pinned placement lost its only replica: the class falls back
        # to the full replica set instead of stalling.
        assert scheduler.replicas["r0"].engine.executor.executions == 1

    def test_mark_up_readmits_to_read_set(self):
        scheduler = make_scheduler(2)
        scheduler.replicas["r0"].fail()
        scheduler.submit(make_class(), 0.0)  # discover + mark down
        scheduler.replicas["r0"].recover(reset_pool=False)
        scheduler.mark_up("r0", 1.0)
        qc = make_class()
        before = scheduler.replicas["r0"].engine.executor.executions
        for _ in range(4):
            scheduler.submit(qc, 1.0)
        assert scheduler.replicas["r0"].engine.executor.executions > before

    def test_sync_write_path_marks_offline_replica_down(self):
        scheduler = make_scheduler(2)
        scheduler.replicas["r0"].fail()
        scheduler.submit(make_class(write=True), 0.0)
        assert not scheduler.health.is_up("r0")
        down = [t for t in scheduler.health.transitions if not t.up]
        assert down[0].reason == "write-skipped"

    def test_async_write_path_marks_offline_replica_down(self):
        # In async mode a crashed replica leaves the read set through its
        # frozen watermark before any read fails against it, so the write
        # path must be where the scheduler notices the failure.
        scheduler = make_scheduler(2, async_replication=True)
        scheduler.replicas["r0"].fail()
        scheduler.submit(make_class(write=True), 0.0)
        assert not scheduler.health.is_up("r0")


class TestValidation:
    def test_negative_retry_budget_rejected(self):
        with pytest.raises(ValueError):
            Scheduler("app", retry_budget=-1)

    def test_negative_retry_backoff_rejected(self):
        with pytest.raises(ValueError):
            Scheduler("app", retry_backoff=-0.1)


class TestPendingWriteDrain:
    def make_async(self):
        return make_scheduler(2, async_replication=True, propagation_delay=0.05)

    def test_offline_replica_defers_its_stream(self):
        scheduler = self.make_async()
        scheduler.submit(make_class(write=True), 0.0)
        assert scheduler.pending_writes == 1
        scheduler.replicas["r1"].fail()
        assert scheduler.drain_pending(10.0) == 0
        # The stream waits for recovery instead of raising mid-drain.
        assert scheduler.pending_writes == 1

    def test_stale_entries_dropped_after_catch_up(self):
        scheduler = self.make_async()
        scheduler.submit(make_class(write=True), 0.0)
        scheduler.replicas["r1"].fail()
        scheduler.drain_pending(10.0)  # deferred while offline
        scheduler.replicas["r1"].recover()
        replayed = scheduler.catch_up("r1", 10.0)
        assert replayed == 1
        executions = scheduler.replicas["r1"].engine.executor.executions
        # The queued copy of the replayed write is stale: it must be dropped,
        # not re-executed (apply_write would raise on the sequence regression).
        assert scheduler.drain_pending(20.0) == 0
        assert scheduler.pending_writes == 0
        assert scheduler.pending_stale_dropped_total == 1
        assert scheduler.replicas["r1"].engine.executor.executions == executions

    def test_stale_entries_dropped_when_primary_force_applies_backlog(self):
        scheduler = self.make_async()
        scheduler.submit(make_class(write=True), 0.0)  # primary r0, queued for r1
        scheduler.replicas["r1"].fail()
        scheduler.replicas["r1"].recover()
        assert scheduler.catch_up("r1", 10.0) == 1
        executions = scheduler.replicas["r1"].engine.executor.executions
        # Round-robin makes r1 the next primary while a propagation stall
        # keeps drain_pending from running: its backlog still holds the
        # replayed write, which must be dropped, not re-executed.
        scheduler.stall_propagation(50.0)
        scheduler.submit(make_class(write=True), 10.0)
        assert scheduler.pending_stale_dropped_total == 1
        assert (
            scheduler.replicas["r1"].engine.executor.executions == executions + 1
        )
        assert scheduler.replication.watermarks["r1"] == 2

    def test_propagation_stall_holds_the_queue(self):
        scheduler = self.make_async()
        scheduler.submit(make_class(write=True), 0.0)
        scheduler.stall_propagation(50.0)
        assert scheduler.drain_pending(10.0) == 0
        assert scheduler.pending_writes == 1
        assert scheduler.drain_pending(60.0) == 1
        assert scheduler.pending_writes == 0

    def test_stall_never_moves_backwards(self):
        scheduler = self.make_async()
        scheduler.stall_propagation(50.0)
        scheduler.stall_propagation(20.0)
        assert scheduler.propagation_stalled_until == 50.0
