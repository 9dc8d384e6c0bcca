"""Unit tests for the cluster controller's feedback loop."""

from types import SimpleNamespace

import pytest

from repro.cluster.replica import Replica
from repro.cluster.resource_manager import ResourceManager
from repro.cluster.scheduler import AppIntervalMetrics, Scheduler
from repro.cluster.server import PhysicalServer, ServerSpec
from repro.core.controller import ClusterController, ControllerConfig
from repro.core.diagnosis import Action, ActionKind, Diagnosis
from repro.engine.access import AccessPattern, ExecutionAccess
from repro.engine.query import QueryClass
from repro.forecast import AppForecast, Decision
from repro.obs import Observability


class _ScriptedPattern(AccessPattern):
    def __init__(self, demand=(1,)):
        self.demand = list(demand)

    def pages_for_execution(self):
        return ExecutionAccess(demand=list(self.demand))


def make_class(name="q", app="app", cpu=5.0):
    # Huge cpu cost: a handful of queries saturates a small server.
    return QueryClass(name, app, 1, f"select {name}", _ScriptedPattern(), cpu_cost=cpu)


def make_cluster(servers=3, config=None, cores=1, obs=None):
    manager = ResourceManager()
    for index in range(servers):
        manager.add_server(PhysicalServer(f"s{index}", ServerSpec(cores=cores)))
    controller = ClusterController(manager, config=config, obs=obs)
    scheduler = Scheduler("app")
    controller.add_scheduler(scheduler)
    manager.allocate_replica(scheduler, 0.0)
    for replica in scheduler.replicas.values():
        controller.track_replica(replica)
    return manager, controller, scheduler


def saturate(scheduler, queries=10, cpu=5.0):
    qc = make_class(cpu=cpu)
    for _ in range(queries):
        scheduler.submit(qc, 0.0)


class TestWiring:
    def test_duplicate_scheduler_rejected(self):
        _, controller, _ = make_cluster()
        with pytest.raises(ValueError):
            controller.add_scheduler(Scheduler("app"))

    def test_track_replica_creates_analyzer(self):
        _, controller, scheduler = make_cluster()
        replica = next(iter(scheduler.replicas.values()))
        analyzer = controller.analyzer_of(replica)
        assert analyzer.engine is replica.engine


class TestIntervalLoop:
    def test_reports_emitted_per_app(self):
        _, controller, scheduler = make_cluster()
        scheduler.submit(make_class(cpu=0.01), 0.0)
        reports = controller.close_interval(10.0)
        assert len(reports) == 1
        assert reports[0].app == "app"
        assert reports[0].throughput == pytest.approx(0.1)

    def test_idle_interval_meets_sla(self):
        _, controller, _ = make_cluster()
        report = controller.close_interval(10.0)[0]
        assert report.sla_met

    def test_interval_index_advances(self):
        _, controller, _ = make_cluster()
        controller.close_interval(10.0)
        reports = controller.close_interval(20.0)
        assert reports[0].interval_index == 1


class TestCpuProvisioning:
    def test_sustained_saturation_provisions_replica(self):
        _, controller, scheduler = make_cluster(
            config=ControllerConfig(startup_grace_intervals=0)
        )
        for boundary in range(1, 6):
            saturate(scheduler)
            controller.close_interval(boundary * 10.0)
            if len(scheduler.replicas) > 1:
                break
        assert len(scheduler.replicas) >= 2

    def test_startup_grace_suppresses_reaction(self):
        _, controller, scheduler = make_cluster(
            config=ControllerConfig(startup_grace_intervals=10)
        )
        for boundary in range(1, 6):
            saturate(scheduler)
            controller.close_interval(boundary * 10.0)
        assert len(scheduler.replicas) == 1

    def test_action_grace_limits_reaction_rate(self):
        _, controller, scheduler = make_cluster(
            servers=5,
            config=ControllerConfig(
                startup_grace_intervals=0, action_grace_intervals=10
            ),
        )
        for boundary in range(1, 8):
            saturate(scheduler, queries=20)
            controller.close_interval(boundary * 10.0)
        # One provisioning burst, then grace blocks further reactions.
        assert len(scheduler.replicas) == 2


class TestScaleDown:
    def test_idle_overprovisioned_app_shrinks(self):
        manager, controller, scheduler = make_cluster(
            servers=3,
            config=ControllerConfig(
                scale_down=True, scale_down_patience=2, startup_grace_intervals=0
            ),
        )
        manager.allocate_replica(scheduler, 0.0)
        for replica in scheduler.replicas.values():
            controller.track_replica(replica)
        assert len(scheduler.replicas) == 2
        for boundary in range(1, 6):
            scheduler.submit(make_class(cpu=0.001), 0.0)
            controller.close_interval(boundary * 10.0)
        assert len(scheduler.replicas) == 1

    def test_scale_down_never_below_one(self):
        _, controller, scheduler = make_cluster(
            config=ControllerConfig(scale_down=True, startup_grace_intervals=0)
        )
        for boundary in range(1, 8):
            controller.close_interval(boundary * 10.0)
        assert len(scheduler.replicas) == 1

    def test_scale_down_disabled_by_default(self):
        manager, controller, scheduler = make_cluster(servers=3)
        manager.allocate_replica(scheduler, 0.0)
        for replica in scheduler.replicas.values():
            controller.track_replica(replica)
        for boundary in range(1, 8):
            controller.close_interval(boundary * 10.0)
        assert len(scheduler.replicas) == 2


class TestApplyActions:
    def test_apply_quotas_sets_engine_quota(self):
        _, controller, scheduler = make_cluster()
        replica = next(iter(scheduler.replicas.values()))
        action = Action(
            kind=ActionKind.APPLY_QUOTAS,
            app="app",
            reason="test",
            replica=replica.name,
            quotas=(("app/q", 512),),
        )
        assert controller.apply_action(action, 0.0)
        assert replica.engine.quotas == {"app/q": 512}

    def test_reapplying_similar_quota_is_noop(self):
        _, controller, scheduler = make_cluster()
        replica = next(iter(scheduler.replicas.values()))
        first = Action(
            kind=ActionKind.APPLY_QUOTAS,
            app="app",
            reason="t",
            replica=replica.name,
            quotas=(("app/q", 512),),
        )
        controller.apply_action(first, 0.0)
        similar = Action(
            kind=ActionKind.APPLY_QUOTAS,
            app="app",
            reason="t",
            replica=replica.name,
            quotas=(("app/q", 540),),
        )
        assert not controller.apply_action(similar, 0.0)
        assert replica.engine.quotas == {"app/q": 512}

    def test_reschedule_provisions_when_no_alternative(self):
        _, controller, scheduler = make_cluster(servers=2)
        replica = next(iter(scheduler.replicas.values()))
        action = Action(
            kind=ActionKind.RESCHEDULE_CLASS,
            app="app",
            reason="t",
            replica=replica.name,
            context_key="app/q",
        )
        assert controller.apply_action(action, 0.0)
        assert len(scheduler.replicas) == 2
        placement = scheduler.placement_of("app/q")
        assert len(placement) == 1 and placement[0] != replica.name

    def test_reschedule_cross_app_moves_in_owner_scheduler(self):
        manager, controller, scheduler = make_cluster(servers=3)
        victim_replica = next(iter(scheduler.replicas.values()))
        other = Scheduler("other")
        controller.add_scheduler(other)
        # Co-locate `other` on the same host as the victim so a move away
        # from that host is actually required.
        colocated = Replica.create("other-r1", "other", victim_replica.host)
        other.add_replica(colocated)
        controller.track_replica(colocated)
        action = Action(
            kind=ActionKind.RESCHEDULE_CLASS,
            app="app",  # the violated app...
            reason="t",
            replica=victim_replica.name,
            context_key="other/hog",  # ...but the context belongs to `other`
        )
        controller.apply_action(action, 0.0)
        assert "other/hog" in other.pinned_contexts()

    def test_coarse_fallback_provisions_exclusive(self):
        _, controller, scheduler = make_cluster(servers=2)
        action = Action(kind=ActionKind.COARSE_FALLBACK, app="app", reason="t")
        assert controller.apply_action(action, 0.0)
        assert len(scheduler.replicas) == 2

    def test_no_action_applies_nothing(self):
        _, controller, scheduler = make_cluster()
        action = Action(kind=ActionKind.NO_ACTION, app="app", reason="t")
        assert not controller.apply_action(action, 0.0)


class TestReporting:
    def test_actions_taken_aggregates(self):
        _, controller, scheduler = make_cluster(
            config=ControllerConfig(startup_grace_intervals=0)
        )
        for boundary in range(1, 6):
            saturate(scheduler)
            controller.close_interval(boundary * 10.0)
        assert any(
            action.kind is ActionKind.PROVISION_REPLICA
            for action in controller.actions_taken("app")
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(interval_length=0)
        with pytest.raises(ValueError):
            ControllerConfig(fallback_patience=0)
        with pytest.raises(ValueError):
            ControllerConfig(scale_down_cpu_threshold=1.5)


class TestApplyPlan:
    """Actuating hand-built capacity plans (the planner's output side)."""

    def make_plan(self, *steps):
        from repro.planner.plan import CapacityPlan

        return CapacityPlan(
            seed=0,
            interval_index=0,
            score_before=1.0,
            score_after=0.0,
            steps=tuple(steps),
        )

    def test_add_replica_then_migrate_resolves_placeholder(self):
        from repro.planner.plan import PlanStep, PlanStepKind

        manager, controller, scheduler = make_cluster(servers=3)
        plan = self.make_plan(
            PlanStep(
                kind=PlanStepKind.ADD_REPLICA,
                app="app",
                pool="new:app:s1",
                server="s1",
            ),
            PlanStep(
                kind=PlanStepKind.MIGRATE_CLASS,
                app="app",
                context_key="app/q",
                pool="new:app:s1",
            ),
        )
        actions = controller.apply_plan(plan, timestamp=50.0)
        assert [a.kind for a in actions] == [
            ActionKind.PROVISION_REPLICA,
            ActionKind.RESCHEDULE_CLASS,
        ]
        assert len(scheduler.replicas) == 2
        new_replica = actions[0].replica
        assert scheduler.placement_of("app/q") == [new_replica]
        assert scheduler.replicas[new_replica].host.name == "s1"
        assert manager.history[-1].action == "allocate"

    def test_unavailable_server_skips_the_whole_branch(self):
        from repro.planner.plan import PlanStep, PlanStepKind

        _, controller, scheduler = make_cluster(servers=1)
        # s0 already hosts the app: the ADD_REPLICA step cannot land, so
        # the migration targeting its placeholder is skipped too.
        plan = self.make_plan(
            PlanStep(
                kind=PlanStepKind.ADD_REPLICA,
                app="app",
                pool="new:app:s0",
                server="s0",
            ),
            PlanStep(
                kind=PlanStepKind.MIGRATE_CLASS,
                app="app",
                context_key="app/q",
                pool="new:app:s0",
            ),
        )
        assert controller.apply_plan(plan, timestamp=50.0) == []
        assert len(scheduler.replicas) == 1
        assert scheduler.placement_of("app/q") == scheduler.replica_names()

    def test_set_quota_applies_with_thrash_guard(self):
        from repro.planner.plan import PlanStep, PlanStepKind

        _, controller, scheduler = make_cluster()
        replica = next(iter(scheduler.replicas.values()))
        engine = replica.engine

        def quota_step(pages):
            return PlanStep(
                kind=PlanStepKind.SET_QUOTA,
                app="app",
                context_key="app/q",
                pool=engine.name,
                pages=pages,
            )

        actions = controller.apply_plan(
            self.make_plan(quota_step(1000)), timestamp=10.0
        )
        assert [a.kind for a in actions] == [ActionKind.APPLY_QUOTAS]
        assert actions[0].quotas == (("app/q", 1000),)
        assert engine.quotas["app/q"] == 1000
        # Within 15% of the standing quota: re-imposing it would only
        # cold-restart the partition, so the step is a no-op.
        assert controller.apply_plan(
            self.make_plan(quota_step(1100)), timestamp=20.0
        ) == []
        assert engine.quotas["app/q"] == 1000
        # A materially different quota goes through.
        actions = controller.apply_plan(
            self.make_plan(quota_step(2000)), timestamp=30.0
        )
        assert len(actions) == 1
        assert engine.quotas["app/q"] == 2000

    def test_clear_quota_only_when_present(self):
        from repro.planner.plan import PlanStep, PlanStepKind

        _, controller, scheduler = make_cluster()
        replica = next(iter(scheduler.replicas.values()))
        engine = replica.engine
        step = PlanStep(
            kind=PlanStepKind.CLEAR_QUOTA,
            app="app",
            context_key="app/q",
            pool=engine.name,
        )
        assert controller.apply_plan(self.make_plan(step), 10.0) == []
        engine.set_quota("app/q", 500)
        actions = controller.apply_plan(self.make_plan(step), 20.0)
        assert [a.kind for a in actions] == [ActionKind.APPLY_QUOTAS]
        assert "app/q" not in engine.quotas

    def test_release_emits_no_action_but_updates_history(self):
        from repro.planner.plan import PlanStep, PlanStepKind

        manager, controller, scheduler = make_cluster(servers=2)
        second = manager.allocate_replica(scheduler, 5.0)
        controller.track_replica(second)
        step = PlanStep(
            kind=PlanStepKind.RELEASE_REPLICA,
            app="app",
            pool=second.engine.name,
        )
        assert controller.apply_plan(self.make_plan(step), 50.0) == []
        assert len(scheduler.replicas) == 1
        assert manager.history[-1].action == "release"

    def test_release_never_removes_the_last_replica(self):
        from repro.planner.plan import PlanStep, PlanStepKind

        manager, controller, scheduler = make_cluster()
        (replica_name,) = scheduler.replica_names()
        step = PlanStep(
            kind=PlanStepKind.RELEASE_REPLICA,
            app="app",
            pool=scheduler.replicas[replica_name].engine.name,
        )
        assert controller.apply_plan(self.make_plan(step), 50.0) == []
        assert scheduler.replica_names() == [replica_name]
        assert all(event.action == "allocate" for event in manager.history)

    def test_migrate_is_idempotent_once_placed(self):
        from repro.planner.plan import PlanStep, PlanStepKind

        manager, controller, scheduler = make_cluster(servers=2)
        second = manager.allocate_replica(scheduler, 5.0)
        controller.track_replica(second)
        step = PlanStep(
            kind=PlanStepKind.MIGRATE_CLASS,
            app="app",
            context_key="app/q",
            pool=second.engine.name,
        )
        first = controller.apply_plan(self.make_plan(step), 10.0)
        assert [a.kind for a in first] == [ActionKind.RESCHEDULE_CLASS]
        assert scheduler.placement_of("app/q") == [second.name]
        # Re-applying the same migration is a no-op, not a new action.
        assert controller.apply_plan(self.make_plan(step), 20.0) == []

    def test_single_replica_migration_is_already_placed(self):
        from repro.planner.plan import PlanStep, PlanStepKind

        # With one replica the default placement already equals the
        # target, so the guard treats the migration as done.
        _, controller, scheduler = make_cluster()
        (replica_name,) = scheduler.replica_names()
        step = PlanStep(
            kind=PlanStepKind.MIGRATE_CLASS,
            app="app",
            context_key="app/q",
            pool=scheduler.replicas[replica_name].engine.name,
        )
        assert controller.apply_plan(self.make_plan(step), 10.0) == []


    def test_quota_step_on_a_shared_engine_names_the_apps_own_replica(self):
        # Two apps in one engine: the step says app="tpcw", so the action
        # must name tpcw's replica on that engine — not the alphabetically
        # first app's, which schedulers["tpcw"] does not hold.
        from repro.experiments.runner import ClusterHarness
        from repro.planner.plan import PlanStep, PlanStepKind
        from repro.workloads import build_rubis, build_tpcw

        harness = ClusterHarness.shared_engine([build_tpcw(), build_rubis()])
        controller = harness.controller

        def step(kind, **fields):
            return PlanStep(
                kind=kind, app="tpcw", context_key="tpcw/home",
                pool="shared-engine", **fields,
            )

        (action,) = controller.apply_plan(
            self.make_plan(step(PlanStepKind.SET_QUOTA, pages=512)), 10.0
        )
        assert (action.app, action.replica) == ("tpcw", "tpcw-r1")
        assert action.replica in controller.schedulers["tpcw"].replicas
        engine = harness.scheduler("tpcw").replicas["tpcw-r1"].engine
        assert engine.quotas == {"tpcw/home": 512}
        (action,) = controller.apply_plan(
            self.make_plan(step(PlanStepKind.CLEAR_QUOTA)), 20.0
        )
        assert (action.app, action.replica) == ("tpcw", "tpcw-r1")
        assert action.quotas == (("tpcw/home", None),)
        assert engine.quotas == {}

    def test_every_step_leaves_through_apply_action(self, monkeypatch):
        from repro.planner.plan import PlanStep, PlanStepKind

        manager, controller, scheduler = make_cluster(servers=3)
        (first,) = scheduler.replicas.values()
        sent = []
        real = ClusterController.apply_action

        def spy(self, action, timestamp):
            sent.append(action)
            return real(self, action, timestamp)

        monkeypatch.setattr(ClusterController, "apply_action", spy)
        plan = self.make_plan(
            PlanStep(PlanStepKind.ADD_REPLICA, "app", pool="new:app:s2", server="s2"),
            PlanStep(PlanStepKind.MIGRATE_CLASS, "app", "app/q", pool="new:app:s2"),
            PlanStep(PlanStepKind.SET_QUOTA, "app", "app/q", pool="new:app:s2",
                     pages=700),
            PlanStep(PlanStepKind.CLEAR_QUOTA, "app", "app/q", pool="new:app:s2"),
            PlanStep(PlanStepKind.RELEASE_REPLICA, "app", pool=first.engine.name),
        )
        listed = controller.apply_plan(plan, 50.0)
        assert [(a.kind, a.server, a.target, a.replica, a.quotas) for a in sent] == [
            (ActionKind.PROVISION_REPLICA, "s2", None, None, ()),
            (ActionKind.RESCHEDULE_CLASS, None, "app-r2", None, ()),
            (ActionKind.APPLY_QUOTAS, None, None, "app-r2", (("app/q", 700),)),
            (ActionKind.APPLY_QUOTAS, None, None, "app-r2", (("app/q", None),)),
            (ActionKind.RELEASE_REPLICA, None, None, "app-r1", ()),
        ]
        # The listed provision carries the replica it created; the release
        # is actuated but, like a scale-down, never listed.
        assert [a.kind for a in listed] == [a.kind for a in sent[:4]]
        assert listed[0].replica == "app-r2"
        assert scheduler.replica_names() == ["app-r2"]
        assert [event.action for event in manager.history] == [
            "allocate", "allocate", "release",
        ]


class TestReleaseGuard:
    """The one release branch: never the last replica reads can go to."""

    def release(self, name):
        return Action(
            kind=ActionKind.RELEASE_REPLICA, app="app", reason="t", replica=name
        )

    def two_replicas(self):
        manager, controller, scheduler = make_cluster(servers=2)
        controller.track_replica(manager.allocate_replica(scheduler, 5.0))
        return manager, controller, scheduler

    def test_releases_when_the_other_replica_is_up_and_current(self):
        manager, controller, scheduler = self.two_replicas()
        assert controller.apply_action(self.release("app-r2"), 10.0)
        assert scheduler.replica_names() == ["app-r1"]
        assert manager.history[-1].action == "release"

    def test_refuses_when_the_other_replica_is_believed_down(self):
        manager, controller, scheduler = self.two_replicas()
        scheduler.mark_down("app-r1", at=6.0, reason="test")
        assert not controller.apply_action(self.release("app-r2"), 10.0)
        assert scheduler.replica_names() == ["app-r1", "app-r2"]
        assert manager.history[-1].action == "allocate"

    def test_refuses_when_the_other_replica_is_one_write_behind(self):
        # The seed-0 / seed-16 storm shape: during a write stall the
        # survivor-to-be lags by one pending write, so the replica the
        # plan releases is the only *current* one.
        manager, controller, scheduler = self.two_replicas()
        scheduler.replication.committed += 1
        scheduler.replication.watermarks["app-r2"] += 1
        assert not scheduler.replication.is_current("app-r1")
        assert not controller.apply_action(self.release("app-r2"), 10.0)
        assert scheduler.replica_names() == ["app-r1", "app-r2"]

    def test_refuses_the_last_replica(self):
        _, controller, scheduler = make_cluster()
        assert not controller.apply_action(self.release("app-r1"), 10.0)
        assert scheduler.replica_names() == ["app-r1"]

    def test_scale_down_goes_through_apply_action(self, monkeypatch):
        manager, controller, scheduler = make_cluster(
            servers=2,
            config=ControllerConfig(scale_down=True, scale_down_patience=1),
        )
        controller.track_replica(manager.allocate_replica(scheduler, 5.0))
        sent = []
        real = ClusterController.apply_action
        monkeypatch.setattr(
            ClusterController, "apply_action",
            lambda self, action, ts: sent.append(action) or real(self, action, ts),
        )
        (report,) = controller.close_interval(10.0)
        assert [(a.kind, a.replica) for a in sent] == [
            (ActionKind.RELEASE_REPLICA, "app-r2")
        ]
        assert report.actions == []  # never listed: controller.actions{kind} stays put
        assert scheduler.replica_names() == ["app-r1"]


class TestOneActuator:
    def test_only_the_actuator_calls_the_cluster_mutators(self):
        """The fork cannot grow back: in ``core/controller.py`` the five
        calls that change the cluster sit in ``_actuate`` and the two helpers
        it owns — everything else has to go through ``apply_action``."""
        import ast
        import inspect

        import repro.core.controller as module

        mutators = {
            "allocate_replica", "release_replica", "set_quota", "clear_quota",
            "move_class",
        }
        owners = {"_actuate", "_provision", "_reschedule"}
        tree = ast.parse(inspect.getsource(module))
        found = {}
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in mutators
                ):
                    found.setdefault(node.func.attr, set()).add(function.name)
        assert set(found) == mutators  # the scan sees every one of them
        strays = {name: sorted(where - owners) for name, where in found.items()}
        assert not any(strays.values()), strays
        assert not hasattr(ClusterController, "_apply_plan_step")


# --------------------------------------------------------------------- #
# The reaction pipeline: gates → act-ahead → reactive proposer          #
# --------------------------------------------------------------------- #


class _ScriptedForecaster:
    """Stands in for ``ForecastEngine``: wants to act ahead on every
    interval it is asked about, and records what the controller told it."""

    def __init__(self):
        self.policy = SimpleNamespace(budget=0)
        self.considered = []  # (interval, streak, replicas) at each consider
        self.refunded = []
        self.plans_applied = 0
        self.scale_outs = 0
        self.probe = lambda: ()

    def observe_interval(self, interval, apps, classes):
        pass

    def app_forecasts(self):
        return {}

    def class_forecasts(self):
        return {}

    def consider(self, app, interval):
        self.considered.append((interval, *self.probe()))
        decision = Decision(
            app=app, interval=interval, act=True, reason="act",
            predicted_latency=2.0, threshold=1.0,
        )
        return decision, AppForecast(app, 2, 2.0, 1.0, 1.0)

    def note_empty_plan(self, app, interval):
        self.refunded.append(interval)

    def note_plan_applied(self):
        self.plans_applied += 1

    def note_scale_out(self):
        self.scale_outs += 1


PROPOSERS = {
    "classic": {},
    "coarse-only": {"fine_grained": False},
    "planner": {"use_planner": True},
    "forecast": {"use_forecast": True},
    "both": {"use_planner": True, "use_forecast": True},
}


@pytest.fixture
def planner_script(monkeypatch):
    """Replace snapshot + search by a script: ``script.pages`` is the quota
    the next plans impose on ``app/q`` (``None`` = an empty plan)."""
    from repro.planner.plan import CapacityPlan, PlanStep, PlanStepKind

    script = SimpleNamespace(pages=1000)

    def search_plan(controller, config, obs=None):
        engine = next(iter(controller.schedulers["app"].replicas.values())).engine
        steps = () if script.pages is None else (
            PlanStep(
                kind=PlanStepKind.SET_QUOTA, app="app", context_key="app/q",
                pool=engine.name, pages=script.pages,
            ),
        )
        return CapacityPlan(
            seed=config.seed, interval_index=0, score_before=1.0,
            score_after=0.0, steps=steps,
        )

    # The "snapshot" is the controller itself: all the script needs.
    monkeypatch.setattr(
        "repro.planner.build_snapshot", lambda controller, app, obs=None: controller
    )
    monkeypatch.setattr("repro.planner.search_plan", search_plan)
    monkeypatch.setattr(
        "repro.forecast.predicted_snapshot", lambda snapshot, *forecasts: snapshot
    )
    return script


def make_reacting(proposer, servers=3, obs=None, **overrides):
    settings = {"startup_grace_intervals": 0, **PROPOSERS[proposer], **overrides}
    _, controller, scheduler = make_cluster(
        servers, ControllerConfig(**settings), obs=obs
    )
    if controller.config.use_forecast:
        controller.forecaster = _ScriptedForecaster()
    return controller, scheduler


def violate(controller, scheduler):
    saturate(scheduler)
    return controller.close_interval((controller.interval_index + 1) * 10.0)[0]


def meet(controller, scheduler):
    scheduler.submit(make_class(cpu=0.001), 0.0)
    return controller.close_interval((controller.interval_index + 1) * 10.0)[0]


def hold_startup(controller, scheduler):
    assert controller.config.startup_grace_intervals > controller.interval_index


def hold_action_grace(controller, scheduler):
    controller._last_action_interval["app"] = controller.interval_index


def hold_degraded(controller, scheduler):
    for analyzer in controller.analyzers():
        analyzer.inject_stats_gap()


def hold_replica_down(controller, scheduler):
    spare = controller.resource_manager.allocate_replica(scheduler, 0.0)
    controller.track_replica(spare)
    scheduler.health.mark_down(spare.name, 0.0, "test")


# hold-back → (arm it, config overrides, the interval it is observed on).
# A down replica holds back the act-ahead proposer only, so it is observed
# on an SLA-meeting interval; the others on a violating one.
HOLD_BACKS = {
    "startup grace": (hold_startup, {"startup_grace_intervals": 10}, violate),
    "action grace": (hold_action_grace, {}, violate),
    "degraded window": (hold_degraded, {}, violate),
    "replica down": (hold_replica_down, {}, meet),
}


class TestReactionMatrix:
    @pytest.mark.parametrize("proposer", PROPOSERS)
    def test_unheld_violation_reaches_its_proposer(self, proposer, planner_script):
        controller, scheduler = make_reacting(proposer)
        report = violate(controller, scheduler)
        assert report.actions
        config = controller.config
        planned = config.use_planner or config.use_forecast
        assert len(controller.plans) == (1 if planned else 0)
        assert len(controller.diagnoses) == (
            1 if config.fine_grained and not planned else 0
        )
        if config.use_forecast:
            assert len(controller.forecaster.considered) == 1
            assert controller.forecaster.plans_applied == 1

    @pytest.mark.parametrize("hold_back", HOLD_BACKS)
    @pytest.mark.parametrize("proposer", PROPOSERS)
    def test_held_back_interval_does_nothing(
        self, proposer, hold_back, planner_script
    ):
        arm, overrides, observe = HOLD_BACKS[hold_back]
        controller, scheduler = make_reacting(proposer, **overrides)
        arm(controller, scheduler)
        replicas = len(scheduler.replicas)
        report = observe(controller, scheduler)
        assert report.sla_met is (observe is meet)
        assert report.actions == []
        assert controller.plans == []
        assert controller.diagnoses == []
        assert len(scheduler.replicas) == replicas
        if controller.config.use_forecast:
            assert controller.forecaster.considered == []

    def test_down_replica_still_lets_the_reactive_proposer_act(
        self, planner_script
    ):
        controller, scheduler = make_reacting("both")
        hold_replica_down(controller, scheduler)
        report = violate(controller, scheduler)
        assert controller.forecaster.considered == []
        assert len(controller.plans) == 1  # the reactive plan, not a forecast one
        assert [a.kind for a in report.actions] == [ActionKind.APPLY_QUOTAS]


class TestPipelineContract:
    """One pinned case per behaviour an artefact or digest depends on."""

    def test_coarse_only_provisions_on_consecutive_intervals(self):
        controller, scheduler = make_reacting("coarse-only", servers=4)
        for expected in (2, 3, 4):
            report = violate(controller, scheduler)
            assert [a.kind for a in report.actions] == [ActionKind.COARSE_FALLBACK]
            assert len(scheduler.replicas) == expected
        assert controller._last_action_interval == {}

    @pytest.mark.parametrize("proposer", ["classic", "forecast"])
    def test_degraded_skip_counted_for_a_violating_app_only(self, proposer):
        obs = Observability()
        controller, scheduler = make_reacting(proposer, obs=obs)
        skips = obs.registry.counter(
            "controller.degraded_skips", app="app", reason="stats-gap"
        )
        hold_degraded(controller, scheduler)
        meet(controller, scheduler)
        assert skips.value == 0
        hold_degraded(controller, scheduler)
        violate(controller, scheduler)
        assert skips.value == 1

    def test_unapplied_scale_out_hands_over_to_the_reactive_planner(
        self, planner_script
    ):
        planner_script.pages = None  # every plan comes back empty
        controller, scheduler = make_reacting("both", servers=1)  # no spare
        report = violate(controller, scheduler)
        forecaster = controller.forecaster
        assert len(forecaster.considered) == 1
        assert forecaster.refunded == [0] and forecaster.scale_outs == 0
        assert len(controller.plans) == 2  # forecast.plan, then planner.plan
        assert report.actions == []  # streak 1: the ladder is not exhausted
        assert controller._last_action_interval == {}

    def test_unapplied_scale_out_hands_over_to_diagnosis(self, planner_script):
        planner_script.pages = None
        controller, scheduler = make_reacting("forecast", servers=1)
        violate(controller, scheduler)
        assert controller.forecaster.refunded == [0]
        assert len(controller.plans) == 1 and len(controller.diagnoses) == 1

    def test_applied_scale_out_ends_the_interval(self, planner_script):
        planner_script.pages = None
        controller, scheduler = make_reacting("both")
        report = violate(controller, scheduler)
        assert [a.kind for a in report.actions] == [ActionKind.PROVISION_REPLICA]
        assert controller.forecaster.scale_outs == 1
        assert len(controller.plans) == 1
        assert controller._last_action_interval == {"app": 0}
        assert not controller._fine_action_tried.get("app", False)

    def test_noop_plan_is_refunded_and_not_counted_as_tried(self, planner_script):
        controller, scheduler = make_reacting("both")
        engine = next(iter(scheduler.replicas.values())).engine
        engine.set_quota("app/q", 1000)  # the scripted step is inside the band
        report = violate(controller, scheduler)
        assert report.actions == []
        assert controller.forecaster.refunded == [0]
        assert controller.forecaster.plans_applied == 0
        assert len(controller.plans) == 2
        assert controller._last_action_interval == {}
        assert controller._fine_action_tried == {}

    @pytest.mark.parametrize(
        "tried,fallback_at", [(False, 5), (True, 2)], ids=["untried", "tried"]
    )
    def test_exhausted_empty_plan_falls_back_even_unapplied(
        self, planner_script, tried, fallback_at
    ):
        # patience 1: tried → streak > 1; untried → streak > 2 * 1 + 2.
        planner_script.pages = None
        controller, scheduler = make_reacting(
            "planner", servers=1, fallback_patience=1
        )
        controller._fine_action_tried["app"] = tried
        for streak in range(1, fallback_at):
            assert violate(controller, scheduler).actions == [], streak
        report = violate(controller, scheduler)
        assert [a.kind for a in report.actions] == [ActionKind.COARSE_FALLBACK]
        assert len(scheduler.replicas) == 1  # no server left: not applied...
        assert controller._last_action_interval == {}  # ...so no grace stamp
        assert len(controller.plans) == fallback_at

    def test_applied_fallback_starts_the_action_grace(self, planner_script):
        planner_script.pages = None
        controller, scheduler = make_reacting(
            "planner", servers=2, fallback_patience=1
        )
        controller._fine_action_tried["app"] = True
        violate(controller, scheduler)
        violate(controller, scheduler)
        assert len(scheduler.replicas) == 2
        assert controller._last_action_interval == {"app": 1}

    def test_diagnosis_path_escalates_on_the_same_ladder(self, monkeypatch):
        proposed = Action(kind=ActionKind.NO_ACTION, app="app", reason="waiting")
        monkeypatch.setattr(
            "repro.core.controller.diagnose",
            lambda app, *args, **kwargs: Diagnosis(app=app, actions=[proposed]),
        )
        controller, scheduler = make_reacting("classic", fallback_patience=1)
        for _ in range(4):
            assert violate(controller, scheduler).actions == [proposed]
        report = violate(controller, scheduler)  # streak 5 > 2 * 1 + 2
        assert [a.kind for a in report.actions] == [ActionKind.COARSE_FALLBACK]
        assert len(controller.diagnoses) == 5

    def test_diagnosis_path_returns_proposals_planner_path_applications(
        self, monkeypatch, planner_script
    ):
        def within_band(app, scheduler, *args, **kwargs):
            replica = next(iter(scheduler.replicas.values()))
            return Diagnosis(
                app=app,
                actions=[
                    Action(kind=ActionKind.NO_ACTION, app=app, reason="nothing"),
                    Action(
                        kind=ActionKind.APPLY_QUOTAS, app=app, reason="requota",
                        replica=replica.name, quotas=(("app/q", 1000),),
                    ),
                ],
            )

        monkeypatch.setattr("repro.core.controller.diagnose", within_band)
        for proposer, proposed, tried in (("classic", 2, True), ("planner", 0, False)):
            controller, scheduler = make_reacting(proposer)
            engine = next(iter(scheduler.replicas.values())).engine
            engine.set_quota("app/q", 1000)  # both proposals no-op at apply time
            report = violate(controller, scheduler)
            assert len(report.actions) == proposed
            assert controller._fine_action_tried.get("app", False) is tried
            assert controller._last_action_interval == {}

    def test_unmet_sla_without_queries_is_left_alone(self, monkeypatch):
        controller, scheduler = make_reacting("classic")
        violate(controller, scheduler)
        monkeypatch.setattr(AppIntervalMetrics, "sla_met", lambda self, sla: False)
        report = controller.close_interval(20.0)[0]
        assert not report.sla_met and report.actions == []
        assert controller.violation_streak("app") == 1
        assert len(controller.diagnoses) == 1

    def test_met_sla_resets_streak_then_acts_ahead_then_scales_down(
        self, planner_script
    ):
        controller, scheduler = make_reacting(
            "forecast", scale_down=True, scale_down_patience=1
        )
        spare = controller.resource_manager.allocate_replica(scheduler, 0.0)
        controller.track_replica(spare)
        controller._violation_streak["app"] = 3
        controller.forecaster.probe = lambda: (
            controller.violation_streak("app"), len(scheduler.replicas)
        )
        report = meet(controller, scheduler)
        # consider saw the streak already reset and both replicas still there.
        assert controller.forecaster.considered == [(0, 0, 2)]
        assert [a.kind for a in report.actions] == [ActionKind.APPLY_QUOTAS]
        assert len(scheduler.replicas) == 1
