"""Property: a controller crash *inside* a capacity plan is exactly-once.

Plan steps leave the controller through ``apply_action`` (DESIGN §13), so
under recovery each one is fenced and journaled, and the plan's steps sit
between ``plan-begin:<app>`` / ``plan-end:<app>`` markers.  For every k:
crash right after the k-th step's ``applied`` entry, restart, reconcile —

* steps ≤ k are confirmed and not actuated again (same allocation history,
  same buffer-pool objects: a re-imposed quota would rebuild the pool),
* steps > k never land and the plan is reported cut short, not resumed,
* no intent stays open, and the k-th step re-sent by the dead incarnation
  is ``fenced``,
* the restarted controller holds the plan's action grace for the app the
  plan was *searched for*, whichever app each step touched.

Checked over the planning-point plan of ``planner_sweep`` (searched for
tpcw, it provisions and reschedules for rubis) and over generated plans on a
two-replica cluster.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.diagnosis import Action, ActionKind
from repro.experiments.planner_sweep import plan_at_planning_point
from repro.experiments.runner import ClusterHarness
from repro.planner.plan import CapacityPlan, PlanStep, PlanStepKind
from repro.workloads import build_tpcw


class _Crash(Exception):
    """The controller process dies: nothing after this line of it runs."""


def cluster_state(harness):
    """Everything a plan step can change, pool identity included."""
    state = {
        "history": [
            (e.app, e.action, e.replica, e.server)
            for e in harness.resource_manager.history
        ]
    }
    for app, scheduler in sorted(harness.controller.schedulers.items()):
        state[app] = (
            scheduler.pinned_contexts(),
            {
                name: (dict(replica.engine.quotas), id(replica.engine.pool))
                for name, replica in scheduler.replicas.items()
            },
        )
    return state


def commit_until_crash(harness, supervisor, app, plan, k):
    """Run ``_commit_plan`` and kill it after the k-th ``applied`` entry."""
    journal = supervisor.journal
    record_applied = journal.record_applied
    seen = []

    def dying(*args, **kwargs):
        seen.append(record_applied(*args, **kwargs))
        if len(seen) == k:
            raise _Crash

    journal.record_applied = dying
    try:
        with pytest.raises(_Crash):
            harness.controller._commit_plan(app, plan, harness.clock.now)
    finally:
        del journal.record_applied
    return seen


def check_crash_inside_plan(build, app, plan):
    """``build()`` → ``(harness, supervisor)``, identical every call."""
    harness, supervisor = build()
    harness.controller._commit_plan(app, plan, harness.clock.now)
    full = supervisor.journal.entries("applied")
    assert supervisor.journal.open_intents() == []
    assert supervisor.journal.plans() == [(app, full, True)]

    for k in range(1, len(full) + 1):
        harness, supervisor = build()
        controller, journal = harness.controller, supervisor.journal
        plan_interval = controller.interval_index
        landed = commit_until_crash(harness, supervisor, app, plan, k)
        assert [r.payload_key() for r in landed] == [
            r.payload_key() for r in full[:k]
        ]
        at_crash = cluster_state(harness)
        now = harness.clock.now
        supervisor.crash(now)
        assert supervisor.restart(now + 5.0)

        # Steps <= k: confirmed, not actuated again.  Steps > k: never land.
        assert cluster_state(harness) == at_crash
        assert len(journal.entries("intent")) == k
        assert journal.entries("applied") == landed
        assert journal.open_intents() == []
        report = supervisor.last_reconcile
        assert report.repaired == []
        assert f"plan:{app} (cut short after {k} steps, not resumed)" in (
            report.abandoned
        )
        assert journal.plans() == [(app, landed, False)]

        # The plan's grace belongs to the app it was searched for.
        graced = any(
            r.applied and r.action_kind != "release_replica" for r in landed
        )
        assert controller._last_action_interval == (
            {app: plan_interval} if graced else {}
        )
        assert controller._fine_action_tried == ({app: True} if graced else {})

        # The dead incarnation's k-th step, arriving late, is fenced.
        last = landed[-1]
        stale = Action(
            kind=ActionKind(last.action_kind),
            app=last.app,
            reason="in flight from the crashed incarnation",
            replica=last.replica,
            context_key=last.context_key,
            quotas=last.quotas,
            server=last.server,
            target=last.target,
            epoch=last.epoch,
        )
        assert not controller.apply_action(stale, now + 6.0)
        assert journal.records[-1].kind == "fenced"
        assert cluster_state(harness) == at_crash


def test_crash_inside_the_planner_sweep_plan():
    plan, _ = plan_at_planning_point()
    assert {step.app for step in plan.steps} == {"rubis"}  # searched for tpcw

    def build():
        _, harness = plan_at_planning_point()
        supervisor = harness.enable_recovery()
        supervisor.checkpoint_now(harness.clock.now)
        return harness, supervisor

    check_crash_inside_plan(build, "tpcw", plan)


CONTEXTS = ("tpcw/home", "tpcw/best_seller")
POOLS = ("tpcw-r1-engine", "tpcw-r2-engine", "new:tpcw:server-3")


def two_replica_cluster():
    harness = ClusterHarness.single_app(build_tpcw(seed=7), servers=3, clients=1)
    scheduler = harness.scheduler("tpcw")
    second = harness.resource_manager.allocate_replica(scheduler, timestamp=0.0)
    harness.controller.track_replica(second)
    harness.run(intervals=1)
    supervisor = harness.enable_recovery()
    supervisor.checkpoint_now(harness.clock.now)
    return harness, supervisor


steps = st.one_of(
    st.builds(
        PlanStep, st.just(PlanStepKind.MIGRATE_CLASS), st.just("tpcw"),
        st.sampled_from(CONTEXTS), st.sampled_from(POOLS),
    ),
    st.builds(
        PlanStep, st.just(PlanStepKind.SET_QUOTA), st.just("tpcw"),
        st.sampled_from(CONTEXTS), st.sampled_from(POOLS),
        pages=st.sampled_from((300, 320, 900, 2400)),
    ),
    st.builds(
        PlanStep, st.just(PlanStepKind.CLEAR_QUOTA), st.just("tpcw"),
        st.sampled_from(CONTEXTS), st.sampled_from(POOLS),
    ),
    st.builds(
        PlanStep, st.just(PlanStepKind.RELEASE_REPLICA), st.just("tpcw"),
        pool=st.sampled_from(POOLS[:2]),
    ),
)


@given(add_replica=st.booleans(), body=st.lists(steps, min_size=1, max_size=5))
@settings(max_examples=25, deadline=None)
def test_crash_inside_a_generated_plan(add_replica, body):
    add = PlanStep(
        PlanStepKind.ADD_REPLICA, "tpcw", pool=POOLS[2], server="server-3"
    )
    plan = CapacityPlan(
        seed=0, interval_index=1, score_before=1.0, score_after=0.0,
        steps=(add, *body) if add_replica else tuple(body),
    )
    check_crash_inside_plan(two_replica_cluster, "tpcw", plan)
