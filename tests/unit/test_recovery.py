"""Unit tests for the control-plane recovery subsystem.

Coverage map: the epoch fence (admit/reject/bump), the action journal
(write-ahead semantics, open intents, duplicate detection), the
checkpoint store (digest validation, corruption fallback, ring trim),
cluster-state export/restore round-trips, the journaled-and-fenced
actuation path on the controller/scheduler/resource-manager, reconcile
repair, and the supervisor's crash/watchdog/restart lifecycle.
"""

import json

import pytest

from oracles.checkpoint import per_element_checkpoints
from repro.core.analyzer import LogAnalyzer
from repro.core.controller import ControllerConfig
from repro.core.diagnosis import Action, ActionKind
from repro.engine.access import ZipfWorkingSet
from repro.engine.engine import DatabaseEngine, EngineConfig
from repro.engine.pages import PageSpaceAllocator
from repro.engine.query import QueryClass
from repro.engine.tables import Table
from repro.experiments.runner import ClusterHarness
from repro.faults import FaultPlan
from repro.obs import Observability, read_records, record_lines, telemetry_lines
from repro.recovery import state as recovery_state
from repro.recovery import (
    ActionJournal,
    CheckpointStore,
    ControlPlaneSupervisor,
    EpochFence,
    RecoveryConfig,
    StaleEpochError,
)
from repro.recovery.journal import journal_records
from repro.recovery.state import export_analyzer_state, restore_analyzer_state
from repro.sim.rng import SeedSequenceFactory
from repro.workloads import build_tpcw


def make_harness(clients=8, servers=2, recovery=None):
    workload = build_tpcw(seed=7)
    harness = ClusterHarness.single_app(
        workload, servers=servers, clients=clients,
        config=ControllerConfig(),
    )
    supervisor = harness.enable_recovery(recovery)
    return harness, supervisor, workload


def quota_action(app="tpcw", pages=2000, epoch=0):
    return Action(
        kind=ActionKind.APPLY_QUOTAS,
        app=app,
        reason="test quota",
        replica=f"{app}-r1",
        quotas=((f"{app}/best_seller", pages),),
        epoch=epoch,
    )


class TestEpochFence:
    def test_starts_at_epoch_one(self):
        assert EpochFence().epoch == 1

    def test_bump_advances_and_returns(self):
        fence = EpochFence()
        assert fence.bump() == 2
        assert fence.epoch == 2

    def test_admits_current_and_future_epochs(self):
        fence = EpochFence()
        fence.bump()
        assert fence.admits(2)
        assert fence.admits(3)
        assert not fence.admits(1)

    def test_check_passes_non_epoch_aware_callers(self):
        fence = EpochFence()
        fence.bump()
        fence.check(None, "legacy path")  # must not raise

    def test_check_raises_and_counts_on_stale(self):
        fence = EpochFence()
        fence.bump()
        with pytest.raises(StaleEpochError) as excinfo:
            fence.check(1, "placement of 'x'")
        assert fence.rejections == 1
        assert excinfo.value.stale_epoch == 1
        assert excinfo.value.current_epoch == 2


class TestActionJournal:
    def test_intent_then_applied_closes_the_intent(self):
        journal = ActionJournal()
        action = quota_action(epoch=1)
        journal.record_intent(action, 1, 3, 30.0)
        journal.record_applied(action, 1, 3, 30.0, applied=True)
        assert journal.counts() == {"applied": 1, "intent": 1}
        assert journal.open_intents() == []

    def test_unconfirmed_intent_stays_open(self):
        journal = ActionJournal()
        journal.record_intent(quota_action(epoch=1), 1, 3, 30.0)
        [open_record] = journal.open_intents()
        assert open_record.action_kind == "apply_quotas"

    def test_duplicate_applied_detection(self):
        journal = ActionJournal()
        action = quota_action(epoch=1)
        for _ in range(2):
            journal.record_intent(action, 1, 3, 30.0)
            journal.record_applied(action, 1, 3, 30.0, applied=True)
        assert len(journal.duplicate_applied()) == 1

    def test_applied_false_is_not_a_duplicate(self):
        journal = ActionJournal()
        action = quota_action(epoch=1)
        journal.record_applied(action, 1, 3, 30.0, applied=True)
        journal.record_applied(action, 1, 4, 40.0, applied=False)
        assert journal.duplicate_applied() == []

    def test_applied_after_is_strictly_after(self):
        journal = ActionJournal()
        action = quota_action(epoch=1)
        journal.record_applied(action, 1, 1, 10.0, applied=True)
        journal.record_applied(action, 1, 2, 20.0, applied=False)
        records = journal.applied_after(0)
        assert [r.seq for r in records] == [1]

    def test_journal_records_round_trip(self):
        journal = ActionJournal()
        journal.record_intent(quota_action(epoch=1), 1, 3, 30.0)
        journal.record_control("checkpoint#0", 1, 3, 30.0)
        records = journal_records(journal)
        assert read_records(record_lines(records)) == records
        assert [r["record"] for r in records] == ["journal", "journal"]
        assert records[0]["kind"] == "intent"
        assert records[1]["note"] == "checkpoint#0"


class TestCheckpointStore:
    def test_latest_valid_parses_payload(self):
        store = CheckpointStore()
        store.save({"a": 1}, interval_index=2, epoch=1,
                   timestamp=20.0, journal_seq=0)
        checkpoint, state = store.latest_valid()
        assert checkpoint.interval_index == 2
        assert state == {"a": 1}

    def test_corruption_falls_back_to_previous(self):
        store = CheckpointStore()
        store.save({"n": 1}, 2, 1, 20.0, 0)
        store.save({"n": 2}, 4, 1, 40.0, 0)
        assert store.corrupt_latest()
        checkpoint, state = store.latest_valid()
        assert state == {"n": 1}
        assert store.corrupt_skipped == 1

    def test_all_corrupt_means_none(self):
        store = CheckpointStore()
        store.save({"n": 1}, 2, 1, 20.0, 0)
        store.corrupt_latest()
        assert store.latest_valid() is None

    def test_corrupt_latest_with_no_checkpoints(self):
        assert not CheckpointStore().corrupt_latest()

    def test_ring_keeps_newest(self):
        store = CheckpointStore(max_checkpoints=2)
        for index in range(4):
            store.save({"n": index}, index * 2, 1, float(index), 0)
        assert len(store.checkpoints) == 2
        assert store.taken == 4
        _, state = store.latest_valid()
        assert state == {"n": 3}


class TestStateRoundTrip:
    def test_snapshot_wipe_restore_is_identity(self):
        harness, supervisor, _ = make_harness()
        harness.run(intervals=4)
        before = supervisor.snapshot()
        supervisor.wipe()
        assert supervisor.snapshot() != before  # the wipe really wiped
        # JSON round-trip mirrors what a persisted checkpoint would hold.
        supervisor.restore_state(json.loads(json.dumps(before)))
        assert supervisor.snapshot() == before

    def test_wipe_gives_analyzers_amnesia(self):
        harness, supervisor, _ = make_harness()
        harness.run(intervals=4)
        analyzers = list(harness.controller.analyzers())
        assert any(len(a.signatures) for a in analyzers)
        supervisor.wipe()
        assert all(len(a.signatures) == 0 for a in analyzers)
        assert harness.controller.interval_index == 0

    def test_version_mismatch_rejected(self):
        harness, supervisor, _ = make_harness(clients=14)
        harness.run(intervals=4)
        state = supervisor.snapshot()
        state["version"] = 99
        with pytest.raises(ValueError, match="version"):
            supervisor.restore_state(state)
        # A version-1 payload (list-encoded hits), a version-2 one (every
        # curve analysed) or a version-3 one (an entry table shared by
        # tracker, cache and signatures) is refused by its version, before
        # the decoder ever sees a list where it expects a text or a slot row.
        with per_element_checkpoints():
            old = supervisor.snapshot()
        rows = old["analyzers"][0]["mrc"]["slots"]
        assert rows and all(isinstance(row["curve"]["hits"], list) for row in rows)
        for version in (1, 2, 3):
            old["version"] = version
            with pytest.raises(
                ValueError, match=f"unsupported checkpoint version: {version}"
            ):
                supervisor.restore_state(json.loads(json.dumps(old)))

    def test_planner_seed_is_config_not_state(self):
        _, supervisor, _ = make_harness()
        assert "planner_seed" not in supervisor.snapshot()["controller"]


def tracked_curves(harness):
    """Every class's curve, read: a pending one is analysed here."""
    return {
        (analyzer.server_name, key): slot.entry.curve
        for analyzer in harness.controller.analyzers()
        for key, slot in analyzer.mrc.slots()
    }


def curve_values(harness):
    return {
        key: (curve._hits.tolist(), curve.cold_misses)
        for key, curve in tracked_curves(harness).items()
    }


def table_rows(payload):
    return [
        row
        for analyzer in payload["analyzers"]
        for row in analyzer["mrc"]["slots"]
    ]


class TestCurvesEncodedOnce:
    def count_encodings(self, monkeypatch):
        calls = []
        encode_hits = recovery_state._encode_hits

        def counting(hits):
            calls.append(len(hits))
            return encode_hits(hits)

        monkeypatch.setattr(recovery_state, "_encode_hits", counting)
        return calls

    def test_checkpoint_without_new_curves_encodes_nothing(self, monkeypatch):
        harness, supervisor, _ = make_harness(clients=14)
        harness.run(intervals=5)
        for curve in tracked_curves(harness).values():
            curve._encoded_hits = None  # as if no checkpoint had seen them
        calls = self.count_encodings(monkeypatch)
        first = supervisor.checkpoint_now(harness.clock.now)
        curves = tracked_curves(harness)
        # Every curve is encoded once, and not again by the next checkpoint.
        assert len(calls) == len({id(c) for c in curves.values()}) > 0
        del calls[:]
        second = supervisor.checkpoint_now(harness.clock.now)
        assert calls == []
        assert second.payload == first.payload

    def test_runs_without_recovery_never_encode(self):
        workload = build_tpcw(seed=7)
        harness = ClusterHarness.single_app(workload, servers=2, clients=14)
        harness.run(intervals=4)
        curves = tracked_curves(harness)
        assert curves
        assert all(c._encoded_hits is None for c in curves.values())

    def test_export_restore_export_is_the_same_payload(self, monkeypatch):
        harness, supervisor, _ = make_harness(clients=14)
        harness.run(intervals=5)
        entries = [
            slot.entry
            for analyzer in harness.controller.analyzers()
            for _, slot in analyzer.mrc.slots()
        ]
        for entry in entries[::2]:
            entry.curve  # read every other curve: both kinds of row
        payload = json.dumps(supervisor.snapshot(), separators=(",", ":"))
        supervisor.wipe()
        parsed = json.loads(payload)
        supervisor.restore_state(parsed)
        calls = self.count_encodings(monkeypatch)
        again = supervisor.snapshot()
        assert calls == []  # restored curves carry the text they came from
        assert json.dumps(again, separators=(",", ":")) == payload
        rows = table_rows(parsed)
        assert {"watermark" in row for row in rows} == {True, False}
        for before, after in zip(rows, table_rows(again)):
            if "curve" in before:
                assert after["curve"]["hits"] is before["curve"]["hits"]

    def test_corruption_falls_back_across_shared_encodings(self):
        harness, supervisor, _ = make_harness(clients=14)
        harness.run(intervals=4)  # checkpoints 2 and 4 reference pending curves
        at_four = curve_values(harness)  # reads every curve
        harness.run(intervals=2)  # checkpoint 6 writes the curves read as texts
        payloads = [
            json.loads(checkpoint.payload)
            for checkpoint in supervisor.checkpoints.checkpoints
        ]
        assert any("watermark" in row for row in table_rows(payloads[1]))
        assert any("curve" in row for row in table_rows(payloads[2]))
        supervisor.corrupt_latest_checkpoint()
        supervisor.crash(harness.clock.now)
        supervisor.restart(harness.clock.now + 1.0)
        assert supervisor.restored_interval == 4
        assert supervisor.checkpoints.corrupt_skipped == 1
        assert curve_values(harness) == at_four


class TestPendingCurvesAreReferences:
    def test_a_checkpoint_reads_no_curve(self, kernel_calls):
        harness, supervisor, _ = make_harness(clients=14)
        harness.run(intervals=5)
        seen = len(kernel_calls)
        checkpoint = supervisor.checkpoint_now(harness.clock.now)
        assert len(kernel_calls) == seen
        rows = table_rows(json.loads(checkpoint.payload))
        assert rows and all(
            {"watermark", "length"} <= set(row) and "curve" not in row
            for row in rows
        )

    def test_restore_gives_one_slot_per_class(self, kernel_calls):
        """One slot per class, and one kernel call per curve read."""
        harness, supervisor, _ = make_harness(clients=14)
        harness.run(intervals=5)
        state = json.loads(json.dumps(supervisor.snapshot()))
        supervisor.wipe()
        seen = len(kernel_calls)
        supervisor.restore_state(state)
        assert len(kernel_calls) == seen  # restore re-reads slices, no curve
        restored = 0
        for analyzer, payload in zip(
            harness.controller.analyzers(), state["analyzers"]
        ):
            rows = payload["mrc"]["slots"]
            assert [key for key, _ in analyzer.mrc.slots()] == [
                row["context_key"] for row in rows
            ]
            assert len(analyzer.mrc) == len({row["context_key"] for row in rows})
            for key, slot in analyzer.mrc.slots():
                assert slot.entry.pending_slice is not None
                params = analyzer.stored_mrc(key)  # one read, one kernel call
                assert len(kernel_calls) == seen + 1
                assert params is analyzer.mrc.parameters_of(key)
                assert analyzer.ensure_mrc(key) is params
                assert len(kernel_calls) == seen + 1
                seen += 1
                restored += 1
        assert restored > 0


def small_window_analyzer(window, obs):
    engine = DatabaseEngine(EngineConfig(
        name="e", pool_pages=256, window_capacity=window,
    ))
    table = Table.create(
        PageSpaceAllocator(), "t-q", row_count=160_000, row_bytes=1024
    )
    pattern = ZipfWorkingSet(
        table.pages, 50, 0.5, 20, SeedSequenceFactory(99).stream("q")
    )
    query_class = QueryClass("q", "app", 1, "select q", pattern)

    def execute(times):  # 20 accesses each
        for _ in range(times):
            engine.execute(query_class)

    return LogAnalyzer(engine, "s1", obs=obs), execute


class TestEvictedSlices:
    """A pending curve is checkpointed as its slice of the window, so what
    restore can rebuild depends on what the window still holds."""

    def test_a_slice_lost_after_the_checkpoint_restores_the_class_cold(
        self, kernel_calls
    ):
        obs = Observability()
        analyzer, execute = small_window_analyzer(3_000, obs)
        execute(100)
        analyzer.close_interval(10.0, {"app": True})
        assert analyzer.mrc.slot("app/q").entry.pending_slice == (2_000, 2_000)
        state = json.loads(json.dumps(export_analyzer_state(analyzer)))
        assert state["mrc"]["slots"] == [{
            "context_key": "app/q", "window_version": 2_000, "variant": "full",
            "watermark": 2_000, "length": 2_000,
        }]

        execute(100)  # the window now holds accesses 1000..4000 only
        telemetry = telemetry_lines(obs)
        restore_analyzer_state(analyzer, state)
        assert telemetry_lines(obs) == telemetry  # restore says nothing
        assert kernel_calls == []
        assert not analyzer.mrc.has("app/q")
        assert analyzer.stored_mrc("app/q") is None
        assert "app/q" in analyzer.signatures
        assert len(analyzer.mrc) == 0
        assert analyzer.mrc.recomputations == 1

        # Cold, like a class the analyzer has not seen: the next stable close
        # takes a curve of the window as it is now.
        analyzer.close_interval(10.0, {"app": True})
        assert analyzer.mrc.slot("app/q").entry.pending_slice == (4_000, 3_000)
        assert analyzer.mrc.recomputations == 2
        assert kernel_calls == []

    def test_a_slice_lost_before_the_checkpoint_is_written_analysed(
        self, kernel_calls
    ):
        analyzer, execute = small_window_analyzer(3_000, Observability())
        execute(100)
        analyzer.close_interval(10.0, {"app": True})
        execute(100)
        state = json.loads(json.dumps(export_analyzer_state(analyzer)))
        assert kernel_calls == [2_000]  # the entry's own trace, read once
        (row,) = state["mrc"]["slots"]
        assert set(row) == {
            "context_key", "window_version", "variant", "curve", "params"
        }
        params = analyzer.mrc.parameters_of("app/q")
        restore_analyzer_state(analyzer, state)
        assert analyzer.mrc.parameters_of("app/q") == params
        assert analyzer.stored_mrc("app/q") is analyzer.mrc.parameters_of("app/q")
        assert kernel_calls == [2_000]


class TestForecasterDiesWithTheController:
    def test_crash_drops_the_forecaster_and_restart_builds_a_cold_one(self):
        workload = build_tpcw(seed=7)
        harness = ClusterHarness.single_app(
            workload, servers=2, clients=8,
            config=ControllerConfig(use_forecast=True),
        )
        supervisor = harness.enable_recovery()
        harness.run(intervals=3)
        controller = harness.controller
        learned = controller.forecaster
        assert learned is not None and learned.apps
        learned.policy.budget = 0  # a spent act-ahead budget must not survive
        supervisor.crash(harness.clock.now)
        assert controller.forecaster is None
        supervisor.restart(harness.clock.now + 1.0)
        assert controller.forecaster is None  # not checkpointed: cold
        harness.run(intervals=1)
        fresh = controller.forecaster
        assert fresh is not None and fresh is not learned
        assert fresh.policy.budget == fresh.policy.config.false_positive_budget
        assert not [r for r in fresh.records if r.outcome == "pending"]
        assert fresh.policy.stats()["pending"] == 0
        assert all(f.latency.observations == 1 for f in fresh.apps.values())


class TestFencedActuation:
    def test_apply_action_stamps_current_epoch(self):
        harness, supervisor, _ = make_harness()
        harness.run(intervals=1)
        assert harness.controller.apply_action(quota_action(), 10.0)
        [applied] = supervisor.journal.entries("applied")
        assert applied.epoch == 1

    def test_stale_action_is_fenced_not_actuated(self):
        harness, supervisor, workload = make_harness()
        harness.run(intervals=1)
        supervisor.down = True
        supervisor.restart(10.0)  # epoch 1 -> 2
        stale = quota_action(epoch=1)
        assert not harness.controller.apply_action(stale, 20.0)
        assert supervisor.fence.rejections == 1
        assert supervisor.journal.counts().get("fenced") == 1
        replica = harness.replicas_of(workload.app)[0]
        assert replica.engine.quotas == {}

    def test_scheduler_placement_fenced(self):
        harness, supervisor, workload = make_harness()
        scheduler = harness.scheduler(workload.app)
        supervisor.down = True
        supervisor.restart(0.0)
        with pytest.raises(StaleEpochError):
            scheduler.place_class(
                f"{workload.app}/best_seller", ["tpcw-r1"], epoch=1
            )
        # Epoch-unaware callers stay unconstrained.
        scheduler.place_class(f"{workload.app}/best_seller", ["tpcw-r1"])

    def test_resource_manager_provisioning_fenced(self):
        harness, supervisor, workload = make_harness()
        scheduler = harness.scheduler(workload.app)
        supervisor.down = True
        supervisor.restart(0.0)
        with pytest.raises(StaleEpochError):
            harness.resource_manager.allocate_replica(
                scheduler, timestamp=1.0, epoch=1
            )

    def test_no_fence_means_plain_actuation(self):
        workload = build_tpcw(seed=7)
        harness = ClusterHarness.single_app(workload, servers=2, clients=8)
        assert harness.controller.fence is None
        assert harness.controller.apply_action(quota_action(), 10.0)


class TestSupervisorLifecycle:
    def test_enable_twice_raises(self):
        harness, _, _ = make_harness()
        with pytest.raises(RuntimeError, match="already enabled"):
            harness.enable_recovery()

    def test_crash_while_down_raises(self):
        harness, supervisor, _ = make_harness()
        supervisor.crash(5.0)
        with pytest.raises(RuntimeError, match="already down"):
            supervisor.crash(6.0)

    def test_restart_when_up_is_a_no_op(self):
        _, supervisor, _ = make_harness()
        assert not supervisor.restart(5.0)
        assert supervisor.epoch == 1

    def test_checkpoint_cadence(self):
        harness, supervisor, _ = make_harness(
            recovery=RecoveryConfig(checkpoint_every_intervals=2)
        )
        harness.run(intervals=6)
        assert supervisor.checkpoints.taken == 3
        assert [c.interval_index for c in supervisor.checkpoints.checkpoints] \
            == [2, 4, 6]

    def test_watchdog_restarts_after_delay(self):
        harness, supervisor, _ = make_harness(
            recovery=RecoveryConfig(watchdog_restart_delay=15.0)
        )
        harness.run(intervals=2)
        supervisor.crash(harness.clock.now)
        assert supervisor.down
        harness.run(intervals=2)  # watchdog fires at t=35, inside here
        assert not supervisor.down
        assert supervisor.epoch == 2
        assert supervisor.missed_intervals == 1
        assert supervisor.restarts == 1

    def test_cold_start_without_checkpoint(self):
        harness, supervisor, _ = make_harness(
            recovery=RecoveryConfig(checkpoint_every_intervals=100)
        )
        harness.run(intervals=2)
        supervisor.crash(harness.clock.now)
        supervisor.restart(harness.clock.now + 1.0)
        assert supervisor.cold_starts == 1
        assert supervisor.restored_interval is None
        assert supervisor.epoch == 2

    def test_restore_falls_back_past_corruption(self):
        harness, supervisor, _ = make_harness()
        harness.run(intervals=6)  # checkpoints at intervals 2, 4, 6
        supervisor.corrupt_latest_checkpoint()
        supervisor.crash(harness.clock.now)
        supervisor.restart(harness.clock.now + 1.0)
        assert supervisor.restored_interval == 4
        assert supervisor.checkpoints.corrupt_skipped == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RecoveryConfig(checkpoint_every_intervals=0)
        with pytest.raises(ValueError):
            RecoveryConfig(watchdog_restart_delay=0.0)
        with pytest.raises(ValueError):
            RecoveryConfig(max_checkpoints=0)


class TestReconcile:
    def test_divergent_quota_repaired_on_restart(self):
        harness, supervisor, workload = make_harness()
        harness.run(intervals=2)
        assert harness.controller.apply_action(
            quota_action(pages=2000), harness.clock.now
        )
        replica = harness.replicas_of(workload.app)[0]
        supervisor.checkpoint_now(harness.clock.now)
        # The engine-side quota vanishes behind the controller's back.
        replica.engine.clear_quota(f"{workload.app}/best_seller")
        supervisor.crash(harness.clock.now)
        supervisor.restart(harness.clock.now + 1.0)
        assert replica.engine.quotas == {f"{workload.app}/best_seller": 2000}
        assert any(
            "repaired" not in line and "quota" in line
            for line in supervisor.last_reconcile.repaired
        )

    def test_intact_quota_confirmed_not_reapplied(self):
        harness, supervisor, workload = make_harness()
        harness.run(intervals=2)
        harness.controller.apply_action(
            quota_action(pages=2000), harness.clock.now
        )
        supervisor.crash(harness.clock.now)
        supervisor.restart(harness.clock.now + 1.0)
        report = supervisor.last_reconcile
        assert report.counts() == {
            "confirmed": 1, "repaired": 0, "abandoned": 0,
        }

    def test_open_intent_abandoned_never_reissued(self):
        harness, supervisor, workload = make_harness()
        harness.run(intervals=2)
        # An intent journaled but never confirmed: the crash hit between
        # the write-ahead record and the actuation.
        supervisor.journal.record_intent(
            quota_action(pages=3000, epoch=1), 1,
            harness.controller.interval_index, harness.clock.now,
        )
        supervisor.crash(harness.clock.now)
        supervisor.restart(harness.clock.now + 1.0)
        report = supervisor.last_reconcile
        assert any("never confirmed" in line for line in report.abandoned)
        replica = harness.replicas_of(workload.app)[0]
        assert replica.engine.quotas == {}


class TestFaultPlanIntegration:
    def test_controller_crash_without_recovery_is_unmatched(self):
        workload = build_tpcw(seed=7)
        harness = ClusterHarness.single_app(workload, servers=2, clients=8)
        injector = harness.install_faults(FaultPlan().controller_crash(5.0))
        harness.run(intervals=1)
        assert len(injector.unmatched) == 1
        assert injector.applied == []

    def test_scheduled_crash_and_watchdog_restart(self):
        workload = build_tpcw(seed=7)
        harness = ClusterHarness.single_app(workload, servers=2, clients=8)
        supervisor = harness.enable_recovery(
            RecoveryConfig(watchdog_restart_delay=12.0)
        )
        injector = harness.install_faults(FaultPlan().controller_crash(15.0))
        harness.run(intervals=4)
        assert injector.applied_kinds() == {"controller_crash": 1}
        assert supervisor.crashes == 1
        assert supervisor.restarts == 1  # watchdog at t=27
        assert not supervisor.down

    def test_explicit_restart_beats_watchdog(self):
        workload = build_tpcw(seed=7)
        harness = ClusterHarness.single_app(workload, servers=2, clients=8)
        supervisor = harness.enable_recovery(
            RecoveryConfig(watchdog_restart_delay=100.0)
        )
        plan = FaultPlan().controller_crash(15.0).controller_restart(22.0)
        injector = harness.install_faults(plan)
        harness.run(intervals=4)
        assert injector.applied_kinds() == {
            "controller_crash": 1, "controller_restart": 1,
        }
        assert not supervisor.down
        assert supervisor.restarts == 1  # the late watchdog was a no-op

    def test_checkpoint_corruption_event_corrupts_latest(self):
        workload = build_tpcw(seed=7)
        harness = ClusterHarness.single_app(workload, servers=2, clients=8)
        supervisor = harness.enable_recovery(
            RecoveryConfig(checkpoint_every_intervals=1)
        )
        injector = harness.install_faults(
            FaultPlan().checkpoint_corruption(25.0)
        )
        harness.run(intervals=3)
        assert injector.applied_kinds() == {"checkpoint_corruption": 1}
        # The event at t=25 hit the interval-2 checkpoint; interval 3 then
        # wrote a fresh valid one on top.
        by_interval = {
            c.interval_index: c.valid
            for c in supervisor.checkpoints.checkpoints
        }
        assert by_interval == {1: True, 2: False, 3: True}
