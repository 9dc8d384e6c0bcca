"""Seeded storms under the planner: every plan step is journaled, and a
plan never releases the last replica reads can go to.

The cluster is ``run_chaos_storm``'s (two replicas, async replication,
recovery enabled, ``build_storm_plan``, 24 intervals, ``seed =
workload_seed``) with only the ``ControllerConfig`` varied — ROADMAP item
1's probe.  Before plan steps went through ``apply_action`` these storms
ended with a journal of ``control`` entries only, and seeds 0 and 16 raised
out of ``harness.run``.
"""

import pytest

from repro.core.controller import ControllerConfig
from repro.experiments.chaos import (
    ChaosStormConfig,
    _chaos_cluster,
    build_storm_plan,
)
from repro.faults import FaultPlan

PLANNER = {"use_planner": True}
BOTH = {"use_planner": True, "use_forecast": True}


def storm_cluster(seed, faults, **flags):
    config = ChaosStormConfig(seed=seed, workload_seed=seed, intervals=24)
    workload, harness = _chaos_cluster(config, seed, ControllerConfig(**flags))
    supervisor = harness.enable_recovery()
    plan = faults(workload.app) if faults else build_storm_plan(config, workload.app)
    harness.install_faults(plan)
    return harness, supervisor


def applied(journal, kind):
    return [
        record for record in journal.entries("applied")
        if record.applied and record.action_kind == kind
    ]


class TestPlannerStormsAreJournaled:
    @pytest.mark.parametrize("seed", [2, 4, 5, 8])
    def test_every_cluster_change_has_an_intent_applied_pair(self, seed):
        harness, supervisor = storm_cluster(seed, None, **PLANNER)
        harness.run(intervals=24)
        journal = supervisor.journal
        assert supervisor.crashes >= 1  # the storm did kill the controller
        counts = journal.counts()
        assert counts["intent"] == counts["applied"] > 0
        assert journal.open_intents() == []
        assert all(finished for _, _, finished in journal.plans())

        changes = [e for e in harness.resource_manager.history if e.timestamp > 0]
        assert changes  # each of these storms ends with a consolidating release
        for event in changes:
            kind = "release_replica" if event.action == "release" else (
                "provision_replica"
            )
            assert any(
                record.timestamp == event.timestamp
                and record.app == event.app
                and record.replica in (event.replica, None)
                for record in applied(journal, kind)
            ), event
        quota_records = applied(journal, "apply_quotas")
        for replica in harness.replicas_of("tpcw"):
            for quota in replica.engine.quotas.items():
                assert any(
                    record.replica == replica.name and quota in record.quotas
                    for record in quota_records
                ), (replica.name, quota)

    def test_a_crash_inside_the_grace_window_keeps_the_plans_grace(self):
        # Seed 4's second plan lands at t = 230 s, interval 14, with the
        # next checkpoint one interval away: only the journal knows of it.
        harness, supervisor = storm_cluster(4, None, **PLANNER)
        harness.run(intervals=23)
        controller, journal = harness.controller, supervisor.journal
        app, steps, finished = journal.plans()[-1]
        assert (app, finished) == ("tpcw", True)
        assert [(r.action_kind, r.applied) for r in steps] == [
            ("apply_quotas", True)
        ]
        plan_interval = steps[0].interval_index
        assert journal.records[-1].note == "plan-end:tpcw"  # no checkpoint since
        assert controller._last_action_interval["tpcw"] == plan_interval

        now = harness.clock.now
        supervisor.crash(now)
        assert controller._last_action_interval == {}
        assert supervisor.restart(now + 1.0)
        assert supervisor.restored_interval == plan_interval
        assert controller._last_action_interval == {"tpcw": plan_interval}
        assert controller._fine_action_tried == {"tpcw": True}
        report = supervisor.last_reconcile
        (quota,) = steps[0].quotas
        assert f"quota:tpcw-r1:{quota[0]}={quota[1]}" in report.confirmed
        assert report.repaired == []
        # ... so the restarted controller sits out the grace window.
        before = len(journal.entries("intent"))
        harness.run(intervals=1)
        assert len(journal.entries("intent")) == before


class TestNeverReleaseTheOnlyCurrentReplica:
    """Storm seeds 0 and 16, shrunk to the faults that matter.

    A write stall leaves ``tpcw-r1`` one pending write behind; at t = 40 s
    the plan consolidates onto it and releases ``tpcw-r2`` — the only
    *current* replica — so the next read found ``no current online
    replica``.  The release is now refused (journaled ``applied=False``).
    """

    @staticmethod
    def seed_0(app):
        return FaultPlan().write_stall(16.0, app, 39.0).cpu_slowdown(
            26.0, "server-1", factor=2.2, duration=16.0, ramp_steps=2
        )

    @staticmethod
    def seed_16(app):
        return FaultPlan().write_stall(25.0, app, 45.0)

    @pytest.mark.parametrize("flags", [PLANNER, BOTH], ids=["planner", "both"])
    @pytest.mark.parametrize("seed", [0, 16])
    def test_release_during_a_write_stall_is_refused(self, seed, flags):
        faults = getattr(self, f"seed_{seed}")
        harness, supervisor = storm_cluster(seed, faults, **flags)
        scheduler = harness.scheduler("tpcw")
        harness.run(intervals=4)
        # The plan fired while tpcw-r1 lagged: releasing tpcw-r2 was refused.
        refused = [
            r for r in supervisor.journal.entries("applied")
            if r.action_kind == "release_replica"
        ]
        # (Twice under both flags: act-ahead's plan, then the reactive one.)
        assert {(r.replica, r.applied, r.timestamp) for r in refused} == {
            ("tpcw-r2", False, 40.0)
        }
        assert scheduler.replication.lag_of("tpcw-r1") == 1
        assert scheduler.replica_names() == ["tpcw-r1", "tpcw-r2"]
        harness.run(intervals=2)  # raised here: no current online replica
        assert supervisor.journal.open_intents() == []
