"""The cluster controller: monitoring loop + action application.

The controller closes the paper's feedback loop.  Once per measurement
interval it:

1. closes every scheduler's SLA accounting and every host's load model,
2. lets every decision manager drain its engines' statistics logs
   (refreshing stable-state signatures for applications that met their SLA),
3. runs the diagnosis procedure for every application in violation, and
4. applies the resulting actions to the cluster — provisioning replicas,
   enforcing buffer-pool quotas, or rescheduling query classes.

Fine-grained retuning can be disabled (``fine_grained=False``) to obtain the
coarse-only baseline the ablation benches compare against: every violation
then goes straight to replica provisioning / application isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

from .analyzer import DecisionManager, LogAnalyzer
from ..cluster.replica import Replica
from ..cluster.resource_manager import ResourceManager
from ..cluster.scheduler import AppIntervalMetrics, Scheduler
from ..engine.query import app_of
from ..obs import NULL_OBS, Observability
from .diagnosis import (
    FINE_ACTION_KINDS,
    Action,
    ActionKind,
    Diagnosis,
    DiagnosisConfig,
    ReplicaView,
    diagnose,
)

__all__ = ["ControllerConfig", "AppIntervalReport", "ClusterController"]

QUOTA_THRASH_BAND = 0.15
"""Re-imposing a near-identical quota only cold-restarts the partition, so a
proposal within this relative band of the standing quota counts as already
applied."""


@dataclass(frozen=True)
class ControllerConfig:
    """Controller tunables."""

    interval_length: float = 10.0
    fine_grained: bool = True
    fallback_patience: int = 3
    action_grace_intervals: int = 2
    startup_grace_intervals: int = 2
    scale_down: bool = False
    scale_down_cpu_threshold: float = 0.25
    scale_down_patience: int = 2
    use_planner: bool = False
    """Route violations through the global capacity planner
    (:mod:`repro.planner`) instead of the single-server quota path.  Off by
    default: the flag must not change a byte of the classic behaviour."""
    planner_seed: int = 0
    """Seed for every planner search: reactive plans and the ones the
    forecaster fires (stamped on every forecast record)."""
    use_forecast: bool = False
    """Predictive SLA enforcement (:mod:`repro.forecast`): learn per-class
    and per-app dynamics online and fire the capacity planner against a
    *predicted* snapshot before the forecast violation lands.  Off by
    default, same byte-identical contract as ``use_planner``; the reactive
    path stays armed behind the forecast either way."""
    forecast_horizon: int = 2
    """Intervals ahead the forecaster projects (and the window within which
    a predicted violation must materialise to count as a hit)."""
    forecast_margin: float = 1.0
    """Predicted latency must exceed ``forecast_margin * sla_latency``
    before the act-ahead policy may fire (below 1.0 = act earlier)."""
    diagnosis: DiagnosisConfig = field(default_factory=DiagnosisConfig)

    def __post_init__(self) -> None:
        if self.interval_length <= 0:
            raise ValueError("interval length must be positive")
        if self.fallback_patience < 1:
            raise ValueError("fallback patience must be at least 1")
        if self.action_grace_intervals < 0:
            raise ValueError("action grace must be non-negative")
        if self.startup_grace_intervals < 0:
            raise ValueError("startup grace must be non-negative")
        if not 0 < self.scale_down_cpu_threshold < 1:
            raise ValueError("scale-down threshold must be in (0, 1)")
        if self.scale_down_patience < 1:
            raise ValueError("scale-down patience must be at least 1")
        if self.forecast_horizon < 1:
            raise ValueError("forecast horizon must be at least 1")
        if self.forecast_margin <= 0:
            raise ValueError("forecast margin must be positive")


@dataclass
class AppIntervalReport:
    """What happened to one application during one interval."""

    app: str
    interval_index: int
    timestamp: float
    mean_latency: float
    throughput: float
    sla_met: bool
    actions: list[Action] = field(default_factory=list)


class ClusterController:
    """Owns the monitoring/diagnosis/actuation loop of one cluster."""

    def __init__(
        self,
        resource_manager: ResourceManager,
        config: ControllerConfig | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.resource_manager = resource_manager
        self.config = config if config is not None else ControllerConfig()
        self.obs = obs if obs is not None else NULL_OBS
        self.schedulers: dict[str, Scheduler] = {}
        self._hosts: dict[str, object] = {}
        self._decision_managers: dict[str, DecisionManager] = {}
        self._violation_streak: dict[str, int] = {}
        self._low_util_streak: dict[str, int] = {}
        self._last_action_interval: dict[str, int] = {}
        self._fine_action_tried: dict[str, bool] = {}
        self.reports: list[AppIntervalReport] = []
        self.diagnoses: list[Diagnosis] = []
        self.plans: list = []  # CapacityPlans, when use_planner is on
        self.forecaster = None  # ForecastEngine, when use_forecast is on
        self._interval_index = 0
        # Recovery hooks, installed (both, together) by the
        # ControlPlaneSupervisor when the harness enables recovery.  None by
        # default: the classic actuation path then runs with zero extra work.
        self.fence = None  # EpochFence shared with schedulers/ResourceManager
        self.journal = None  # ActionJournal (write-ahead action log)

    @property
    def interval_index(self) -> int:
        """Index of the next measurement interval to close."""
        return self._interval_index

    def violation_streak(self, app: str) -> int:
        """Consecutive intervals ``app`` has violated its SLA (0 = met)."""
        return self._violation_streak.get(app, 0)

    # ------------------------------------------------------------------ #
    # Wiring                                                             #
    # ------------------------------------------------------------------ #

    def add_scheduler(self, scheduler: Scheduler) -> None:
        if scheduler.app in self.schedulers:
            raise ValueError(f"app {scheduler.app!r} already has a scheduler")
        scheduler.interval_length = self.config.interval_length
        scheduler.obs = self.obs
        if self.fence is not None:
            scheduler.fence = self.fence
        self.schedulers[scheduler.app] = scheduler
        for replica in scheduler.replicas.values():
            self.track_replica(replica)

    def register_host(self, host) -> None:
        """Track a host whose load model must be closed each interval.

        ``host`` is anything with ``close_interval(interval_length)`` — a
        :class:`PhysicalServer` or a :class:`XenHost` (which closes its VMs).
        """
        self._hosts.setdefault(self._host_key(host), host)

    @staticmethod
    def _host_key(host) -> str:
        name = getattr(host, "name", None)
        if name is None:  # XenHost exposes its server's name
            name = host.server.name
        return str(name)

    def track_replica(self, replica: Replica) -> LogAnalyzer:
        """Attach a replica's engine to its server's decision manager."""
        host_name = replica.host.name
        manager = self._decision_managers.get(host_name)
        if manager is None:
            manager = DecisionManager(server_name=host_name, obs=self.obs)
            self._decision_managers[host_name] = manager
        self.register_host(replica.host)
        self.resource_manager.register_existing(replica)
        return manager.attach_engine(replica.engine)

    def analyzer_of(self, replica: Replica) -> LogAnalyzer:
        manager = self._decision_managers[replica.host.name]
        return manager.analyzer_for(replica.engine.name)

    def analyzers(self) -> list[LogAnalyzer]:
        """Every log analyzer in the cluster, sorted by server then engine.

        The fault injector uses this to find the analyzers monitoring a
        target engine; tests and dashboards use it to inspect quarantine
        state without knowing the replica topology.
        """
        return [
            analyzer
            for server in sorted(self._decision_managers)
            for analyzer in self._decision_managers[server].analyzers()
        ]

    # ------------------------------------------------------------------ #
    # The interval loop                                                  #
    # ------------------------------------------------------------------ #

    def close_interval(self, timestamp: float) -> list[AppIntervalReport]:
        """Process one measurement-interval boundary; returns app reports."""
        length = self.config.interval_length
        tracer = self.obs.tracer
        registry = self.obs.registry
        with tracer.span(
            "controller.interval",
            attrs={"interval": self._interval_index},
            start=max(timestamp - length, 0.0),
        ):
            app_metrics: dict[str, AppIntervalMetrics] = {}
            sla_met: dict[str, bool] = {}
            for app, scheduler in self.schedulers.items():
                if scheduler.async_replication:
                    scheduler.drain_pending(timestamp)
                metrics = scheduler.close_interval()
                app_metrics[app] = metrics
                sla_met[app] = metrics.sla_met(scheduler.sla_latency)

            for host in self._hosts.values():
                host.close_interval(length)

            for manager in self._decision_managers.values():
                manager.close_interval(length, sla_met)

            if self.config.use_forecast:
                self._observe_forecasts(app_metrics, sla_met)

            reports: list[AppIntervalReport] = []
            for app in sorted(self.schedulers):
                metrics = app_metrics[app]
                report = AppIntervalReport(
                    app=app,
                    interval_index=self._interval_index,
                    timestamp=timestamp,
                    mean_latency=metrics.mean_latency,
                    throughput=metrics.throughput,
                    sla_met=sla_met[app],
                )
                if sla_met[app]:
                    self._violation_streak[app] = 0
                    report.actions = self._respond(app, timestamp, violating=False)
                    if self.config.scale_down:
                        self._maybe_scale_down(app, timestamp)
                elif metrics.queries > 0:
                    self._violation_streak[app] = (
                        self._violation_streak.get(app, 0) + 1
                    )
                    report.actions = self._respond(app, timestamp, violating=True)
                for action in report.actions:
                    registry.counter(
                        "controller.actions", app=app, kind=action.kind.value
                    ).inc()
                reports.append(report)
            registry.counter("controller.intervals").inc()
        self.reports.extend(reports)
        self._interval_index += 1
        return reports

    # ------------------------------------------------------------------ #
    # Scale-down (release replicas when the load recedes)                #
    # ------------------------------------------------------------------ #

    def _maybe_scale_down(self, app: str, timestamp: float) -> None:
        """Release the newest replica after sustained low CPU utilisation.

        Mirrors the provisioning direction of the paper's Figure 3: the
        machine allocation tracks the sinusoid load both up and down.
        """
        scheduler = self.schedulers[app]
        if len(scheduler.replicas) <= 1:
            self._low_util_streak[app] = 0
            return
        utilisations = [
            getattr(replica.host, "cpu_utilisation", 1.0)
            for replica in scheduler.replicas.values()
        ]
        if max(utilisations) < self.config.scale_down_cpu_threshold:
            self._low_util_streak[app] = self._low_util_streak.get(app, 0) + 1
        else:
            self._low_util_streak[app] = 0
            return
        if self._low_util_streak[app] >= self.config.scale_down_patience:
            release = Action(
                kind=ActionKind.RELEASE_REPLICA,
                app=app,
                reason="sustained low CPU utilisation",
                replica=list(scheduler.replicas)[-1],  # insertion order = age
            )
            self.apply_action(release, timestamp)
            self._low_util_streak[app] = 0

    # ------------------------------------------------------------------ #
    # Reaction: gates → act-ahead → reactive proposer → actuation        #
    # ------------------------------------------------------------------ #

    def _respond(self, app: str, timestamp: float, violating: bool) -> list[Action]:
        """The one reaction pipeline, run once per app and interval.

        The gates come first and are shared: nothing — reactive or
        predictive — may act where any of them holds back.  Behind them the
        act-ahead proposer runs when a forecaster exists; whatever it
        applies ends the interval.  Otherwise a violating app gets exactly
        one reactive proposer (coarse-only | planner | diagnosis).
        """
        if not violating and self.forecaster is None:
            return []
        # Cold-start grace: violations in the first intervals after launch
        # come from an empty buffer pool, not from a real change.
        if self._interval_index < self.config.startup_grace_intervals:
            return []
        # Grace period: the previous action needs a warm-up window before
        # its effect is measurable; reacting every interval causes thrashing
        # (each pool rebuild restarts cold and re-violates the SLA).
        last_action = self._last_action_interval.get(app)
        if (
            last_action is not None
            and self._interval_index - last_action
            <= self.config.action_grace_intervals
        ):
            return []
        # Degraded evidence: a quarantined statistics window means the
        # interval's vectors are missing or corrupt.  Acting on them would
        # retune the cluster off garbage, so the controller sits the round
        # out and retries next interval with (hopefully) clean evidence.
        degraded = self._degraded_evidence(app)
        if degraded is not None:
            registry = self.obs.registry
            if violating and registry.enabled:
                registry.counter(
                    "controller.degraded_skips", app=app, reason=degraded
                ).inc()
            return []
        if self.forecaster is not None:
            actions = self._act_ahead(app, timestamp)
            if actions:
                return actions
        if not violating:
            return []
        if not self.config.fine_grained:
            # The coarse-only baseline never stamps the action grace: it
            # provisions on every violating interval past startup grace.
            coarse = Action(
                kind=ActionKind.COARSE_FALLBACK,
                app=app,
                reason="fine-grained retuning disabled (coarse-only baseline)",
            )
            self._actuate_all(app, [coarse], timestamp)
            return [coarse]
        if self.config.use_planner:
            return self._react_with_plan(app, timestamp)
        return self._react_with_diagnosis(app, timestamp)

    def _act_ahead(self, app: str, timestamp: float) -> list[Action]:
        """Act ahead of a *predicted* violation (``use_forecast``).

        Fires the planner against the predicted snapshot so the fix lands
        before the breach — or, for an app already violating whose forecast
        says the violation persists, instead of the patience ladder.
        Returns what it applied; an empty list (cold or low-confidence
        forecast, predicted recovery, nothing applicable) hands the interval
        to the reactive proposer unchanged.  It runs behind the gates
        because ``consider`` spends act-ahead budget and emits a forecast
        record: a held-back interval predicts on nothing.
        """
        forecaster = self.forecaster
        if self.schedulers[app].health.any_down:
            # Mid-failover the topology the forecaster learned no longer
            # exists; planning against it only thrashes the survivors.
            # Hold predictive fire until the cluster is whole again.
            return []
        decision, forecast = forecaster.consider(app, self._interval_index)
        if not decision.act or forecast is None:
            return []
        plan = self._plan(
            app,
            "forecast.plan",
            "forecast.plans",
            self.config.planner_seed,
            horizon=forecast.horizon,
        )
        if plan.empty:
            # No fine-grained move improves the predicted snapshot, but the
            # violation forecast stands: scale out ahead of the breach (the
            # PerfEnforce move).  The predicted latency comes from the whole
            # app, not one class, so added capacity is the remaining lever.
            scale_out = Action(
                kind=ActionKind.PROVISION_REPLICA,
                app=app,
                reason=(
                    f"forecast: predicted latency "
                    f"{decision.predicted_latency:.3f} > threshold "
                    f"{decision.threshold:.3f}, no fine-grained move"
                ),
            )
            if self._actuate_all(app, [scale_out], timestamp):
                self._last_action_interval[app] = self._interval_index
                forecaster.note_scale_out()
                return [scale_out]
        else:
            actions = self._commit_plan(app, plan, timestamp)
            if actions:
                forecaster.note_plan_applied()
                return actions
        # Nothing changed — the server pool is exhausted, or every step
        # no-opped at apply time (quota within the thrash band, class
        # already placed): refund the act-ahead token.
        forecaster.note_empty_plan(app, self._interval_index)
        return []

    def _react_with_plan(self, app: str, timestamp: float) -> list[Action]:
        """Reactive proposer under ``use_planner``: the global capacity
        planner instead of the single-server quota path.  Returns the
        actions *applied*."""
        plan = self._plan(
            app, "planner.plan", "planner.plans", self.config.planner_seed
        )
        if not plan.empty:
            return self._commit_plan(app, plan, timestamp)
        # Same escalation contract as the diagnosis path: a planner with no
        # improving move left is "fine-grained exhausted".
        if not self._exhausted(app):
            return []
        fallback = Action(
            kind=ActionKind.COARSE_FALLBACK,
            app=app,
            reason=(
                "planner found no improving move after "
                f"{self._violation_streak.get(app, 0)} intervals of violation"
            ),
        )
        if self._actuate_all(app, [fallback], timestamp):
            self._last_action_interval[app] = self._interval_index
        return [fallback]

    def _react_with_diagnosis(self, app: str, timestamp: float) -> list[Action]:
        """Reactive proposer of the paper: diagnose, then quota/reschedule.
        Returns every action *proposed*, applied or not."""
        diagnosis = diagnose(
            app,
            self.schedulers[app],
            self._views_of(app),
            self.config.diagnosis,
            obs=self.obs,
        )
        self.diagnoses.append(diagnosis)
        actions = list(diagnosis.actions)
        # The diagnosis itself escalates to COARSE_FALLBACK when it finds
        # nothing actionable; here the controller additionally escalates
        # when the patience ladder is exhausted and diagnosis still only
        # proposes fine-grained moves (or nothing).
        if self._exhausted(app) and all(
            a.kind in FINE_ACTION_KINDS or a.kind is ActionKind.NO_ACTION
            for a in actions
        ):
            actions = [
                Action(
                    kind=ActionKind.COARSE_FALLBACK,
                    app=app,
                    reason=(
                        "SLA still violated after "
                        f"{self._violation_streak.get(app, 0)} intervals of "
                        "fine-grained retuning"
                    ),
                )
            ]
        if any(a.kind in FINE_ACTION_KINDS for a in actions):
            self._fine_action_tried[app] = True
        if self._actuate_all(app, actions, timestamp):
            self._last_action_interval[app] = self._interval_index
        return actions

    def _exhausted(self, app: str) -> bool:
        """The patience ladder: fine-grained actions were *tried* and the
        SLA is still violated past the patience budget, or the proposer has
        been inconclusive for much longer (it may legitimately wait for
        window coverage)."""
        streak = self._violation_streak.get(app, 0)
        patience = self.config.fallback_patience
        return (streak > patience and self._fine_action_tried.get(app, False)) or (
            streak > 2 * patience + 2
        )

    def _plan(
        self,
        app: str,
        span_name: str,
        counter: str,
        seed: int,
        horizon: int | None = None,
    ):
        """Search a capacity plan for ``app`` — against the cluster as it
        stands, or as forecast ``horizon`` intervals ahead — and log it."""
        # Imported lazily: planner and forecast depend on core, so a
        # module-level import would be a cycle — and the default path never
        # needs either.
        from ..planner import PlannerConfig, build_snapshot, search_plan

        attrs = {"app": app}
        if horizon is not None:
            attrs["horizon"] = horizon
        with self.obs.tracer.span(span_name, attrs=attrs) as span:
            snapshot = build_snapshot(self, app=app, obs=self.obs)
            if horizon is not None:
                from ..forecast import predicted_snapshot

                snapshot = predicted_snapshot(
                    snapshot,
                    horizon,
                    self.forecaster.app_forecasts(),
                    self.forecaster.class_forecasts(),
                )
            plan = search_plan(snapshot, PlannerConfig(seed=seed), obs=self.obs)
            span.set_attr("steps", len(plan.steps))
        self.plans.append(plan)
        registry = self.obs.registry
        if registry.enabled:
            registry.counter(counter, app=app).inc()
        return plan

    def _commit_plan(self, app: str, plan, timestamp: float) -> list[Action]:
        """Apply ``plan``; whatever it changed starts the action grace and
        counts as fine-grained retuning tried — for ``app``, which the
        journal learns from the markers around the plan's steps."""
        self._journal_plan_marker(f"plan-begin:{app}", timestamp)
        actions = self.apply_plan(plan, timestamp)
        self._journal_plan_marker(f"plan-end:{app}", timestamp)
        if actions:
            self._last_action_interval[app] = self._interval_index
            self._fine_action_tried[app] = True
        return actions

    def _journal_plan_marker(self, note: str, timestamp: float) -> None:
        if self.journal is not None:
            self.journal.record_control(
                note, self.fence.epoch, self._interval_index, timestamp
            )

    def _actuate_all(
        self, app: str, actions: list[Action], timestamp: float
    ) -> list[Action]:
        """Apply ``actions`` under one ``actions.apply`` span; returns the
        ones that changed something."""
        with self.obs.tracer.span(
            "actions.apply",
            attrs={
                "app": app,
                "kinds": ",".join(sorted({a.kind.value for a in actions})),
            },
        ) as span:
            applied = [a for a in actions if self.apply_action(a, timestamp)]
            span.set_attr("applied", len(applied))
            span.add_cost(len(actions))
        return applied

    # ------------------------------------------------------------------ #
    # Forecast observation (ControllerConfig.use_forecast)               #
    # ------------------------------------------------------------------ #

    def _observe_forecasts(
        self,
        app_metrics: dict[str, AppIntervalMetrics],
        sla_met: dict[str, bool],
    ) -> None:
        """Feed the closed interval to the forecast engine.

        Called once per interval, before the report loop, so the engine's
        forecasts already include this interval's measurements when
        :meth:`_act_ahead` consults them.  Also resolves any act-ahead
        predictions whose windows this interval closes.
        """
        # Lazy for the same reason as the planner: forecast depends on the
        # planner's model, and the default path never needs either.
        from ..forecast import (
            AppObservation,
            ClassObservation,
            ForecastConfig,
            ForecastEngine,
            PolicyConfig,
        )
        from .metrics import Metric

        if self.forecaster is None:
            self.forecaster = ForecastEngine(
                ForecastConfig(
                    horizon=self.config.forecast_horizon,
                    seed=self.config.planner_seed,
                ),
                PolicyConfig(margin=self.config.forecast_margin),
            )
        apps = [
            AppObservation(
                app=app,
                mean_latency=app_metrics[app].mean_latency,
                throughput=app_metrics[app].throughput,
                sla_latency=self.schedulers[app].sla_latency,
                violated=not sla_met[app],
            )
            for app in sorted(app_metrics)
        ]
        # Cluster-wide per-class counters: one class may span engines, so
        # sum its accesses/misses/readaheads/throughput across analyzers.
        sums: dict[str, list[float]] = {}
        for analyzer in self.analyzers():
            for key, vector in analyzer.effective_vectors().items():
                total = sums.setdefault(key, [0.0, 0.0, 0.0, 0.0])
                total[0] += vector.get(Metric.PAGE_ACCESSES)
                total[1] += vector.get(Metric.MISSES)
                total[2] += vector.get(Metric.READAHEADS)
                total[3] += vector.get(Metric.THROUGHPUT)
        classes = []
        for key in sorted(sums):
            accesses, misses, readaheads, throughput = sums[key]
            # Same semantics as the what-if validator: readaheads are
            # demand I/O the pool failed to absorb.
            ratio = (misses + readaheads) / accesses if accesses > 0 else 0.0
            classes.append(
                ClassObservation(
                    context_key=key,
                    miss_ratio=min(ratio, 1.0),
                    pressure=accesses,
                    arrival_rate=throughput,
                )
            )
        with self.obs.tracer.span(
            "forecast.tick",
            attrs={"interval": self._interval_index, "classes": len(classes)},
        ):
            self.forecaster.observe_interval(
                self._interval_index, apps, classes
            )
        registry = self.obs.registry
        if registry.enabled:
            for app, forecast in self.forecaster.app_forecasts().items():
                registry.gauge("forecast.predicted_latency", app=app).set(
                    forecast.mean_latency
                )
                registry.gauge("forecast.confidence", app=app).set(
                    forecast.confidence
                )
            registry.gauge("forecast.budget_remaining").set(
                self.forecaster.policy.budget
            )

    def apply_plan(self, plan, timestamp: float) -> list[Action]:
        """Actuate a :class:`~repro.planner.plan.CapacityPlan`.

        Each step, in plan order, is resolved into one :class:`Action` and
        sent through :meth:`apply_action`; ADD_REPLICA steps materialise the
        plan's placeholder pools and later steps resolve against the engines
        they created.  Returns the actions actually applied (releases follow
        the scale-down precedent and are not listed).
        """
        from ..planner.plan import PlanStepKind

        placeholder_engines: dict[str, str] = {}
        actions: list[Action] = []
        with self.obs.tracer.span(
            "planner.apply", attrs={"steps": len(plan.steps)}
        ) as span:
            for step in plan.steps:
                action = self._resolve_step(step, PlanStepKind, placeholder_engines)
                if action is None or not self.apply_action(action, timestamp):
                    continue
                if action.kind is ActionKind.PROVISION_REPLICA:
                    # The newest replica: insertion order = age.
                    newest = list(self.schedulers[step.app].replicas.values())[-1]
                    placeholder_engines[step.pool] = newest.engine.name
                    action = replace(action, replica=newest.name)
                if action.kind is not ActionKind.RELEASE_REPLICA:
                    actions.append(action)
            span.set_attr("applied", len(actions))
            span.add_cost(len(plan.steps))
        return actions

    def _resolve_step(
        self, step, kinds, placeholder_engines: dict[str, str]
    ) -> Action | None:
        """``step`` as the :class:`Action` that says it on the live cluster:
        a placeholder pool is the engine an earlier ADD_REPLICA of this plan
        created, an engine is ``step.app``'s replica on it (``None`` when
        there is none: the pool never materialised)."""
        say = partial(Action, app=step.app, reason=f"planner: {step.rationale}")
        if step.kind is kinds.ADD_REPLICA:
            return say(kind=ActionKind.PROVISION_REPLICA, server=step.server)
        engine_name = placeholder_engines.get(step.pool, step.pool)
        scheduler = self.schedulers[step.app]
        for name in scheduler.replica_names():
            if scheduler.replicas[name].engine.name == engine_name:
                break
        else:
            return None
        if step.kind is kinds.MIGRATE_CLASS:
            return say(
                kind=ActionKind.RESCHEDULE_CLASS,
                context_key=step.context_key,
                target=name,
            )
        if step.kind is kinds.RELEASE_REPLICA:
            return say(kind=ActionKind.RELEASE_REPLICA, replica=name)
        # SET_QUOTA; a CLEAR_QUOTA is a quota of ``None`` pages.
        pages = None if step.kind is kinds.CLEAR_QUOTA else step.pages
        return say(
            kind=ActionKind.APPLY_QUOTAS,
            replica=name,
            quotas=((step.context_key, pages),),
        )

    def _degraded_evidence(self, app: str) -> str | None:
        """The quarantine reason when any analyzer serving ``app`` closed a
        degraded window this interval (``None`` = evidence is trustworthy)."""
        scheduler = self.schedulers[app]
        for name in scheduler.replica_names():
            replica = scheduler.replicas[name]
            try:
                analyzer = self.analyzer_of(replica)
            except KeyError:
                continue
            if analyzer.degraded_last_interval is not None:
                return analyzer.degraded_last_interval
        return None

    def _views_of(self, app: str) -> list[ReplicaView]:
        scheduler = self.schedulers[app]
        views = []
        for name in scheduler.replica_names():
            replica = scheduler.replicas[name]
            analyzer = self.analyzer_of(replica)
            host = replica.host
            views.append(
                ReplicaView(
                    replica_name=name,
                    analyzer=analyzer,
                    cpu_saturated=bool(getattr(host, "cpu_saturated", False)),
                    io_saturated=bool(getattr(host, "io_saturated", False)),
                    pool_pages=replica.engine.pool_pages,
                    interval_length=self.config.interval_length,
                )
            )
        return views

    def apply_action(self, action: Action, timestamp: float) -> bool:
        """Epoch-checked, journaled actuation (the public apply path).

        Without recovery installed this is plain actuation.  With a fence,
        an unstamped action (epoch 0) is stamped with the current epoch; a
        stale one — decided by a crashed incarnation — is journaled as
        ``fenced`` and rejected without touching the cluster.  Anything
        admitted is journaled write-ahead (``intent``) before actuating
        and confirmed (``applied``) after, so a crash at any point leaves
        enough evidence for the restart reconcile pass.
        """
        if self.fence is None:
            return self._actuate(action, timestamp)
        if action.epoch == 0:
            action = replace(action, epoch=self.fence.epoch)
        if not self.fence.admits(action.epoch):
            self.fence.rejections += 1
            self.journal.record_fenced(
                action, action.epoch, self._interval_index, timestamp
            )
            return False
        self.journal.record_intent(
            action, action.epoch, self._interval_index, timestamp
        )
        applied = self._actuate(action, timestamp)
        self.journal.record_applied(
            action, action.epoch, self._interval_index, timestamp, applied
        )
        return applied

    def _actuate(self, action: Action, timestamp: float) -> bool:
        """Actuate one action; returns whether anything actually changed."""
        scheduler = self.schedulers[action.app]
        if action.kind is ActionKind.PROVISION_REPLICA:
            replica = self._provision(scheduler, timestamp, server=action.server)
            return replica is not None
        if action.kind is ActionKind.APPLY_QUOTAS:
            engine = scheduler.replicas[action.replica].engine
            changed = False
            for context, pages in action.quota_map().items():
                standing = engine.quotas.get(context)
                if pages is None:
                    if standing is None:
                        continue  # nothing to clear
                    engine.clear_quota(context)
                elif standing is not None and (
                    abs(pages - standing) <= QUOTA_THRASH_BAND * standing
                ):
                    continue  # as good as applied
                else:
                    engine.set_quota(context, pages)
                changed = True
            return changed
        if action.kind is ActionKind.RELEASE_REPLICA:
            # Never the last replica reads can go to: another one must be
            # believed up and have applied every committed write.
            if not any(
                name != action.replica and scheduler.health.is_up(name)
                for name in scheduler.replication.current_replicas()
            ):
                return False
            self.resource_manager.release_replica(
                scheduler, action.replica, timestamp
            )
            return True
        if action.kind in (
            ActionKind.RESCHEDULE_CLASS,
            ActionKind.REMOVE_CLASS_FOR_IO,
        ):
            # The context may belong to a *different* application than the
            # violated one (cross-application memory interference): move it
            # within its owner's scheduler, away from the contended host.
            owner_app = app_of(action.context_key)
            owner_scheduler = self.schedulers.get(owner_app)
            if owner_scheduler is None:
                return False
            if action.target is not None:  # a plan pins *onto* a replica
                current = owner_scheduler.placement_of(action.context_key)
                if current == [action.target]:
                    return False  # already exactly there
                owner_scheduler.move_class(action.context_key, action.target)
                return True
            avoid_host = scheduler.replicas[action.replica].host.name
            return self._reschedule(
                owner_scheduler, action.context_key, avoid_host, timestamp
            )
        if action.kind is ActionKind.REPORT_LOCK_CONTENTION:
            # Nothing to actuate — the report itself is the outcome (it names
            # the aggressor class and any deadlock-prone cycles for the
            # operator).  Counting it as applied spaces repeat reports by the
            # action-grace window.
            return True
        if action.kind is ActionKind.COARSE_FALLBACK:
            return self._provision(scheduler, timestamp, exclusive=True) is not None
        return False  # NO_ACTION applies nothing.

    def _provision(
        self,
        scheduler: Scheduler,
        timestamp: float,
        exclusive: bool = False,
        server: str | None = None,
    ) -> Replica | None:
        """One more replica of the stock size wherever the pool has room —
        or, for a plan, of the app's largest size on the ``server`` named."""
        sizing = {} if server is None else {
            "pool_pages": max(r.engine.pool_pages for r in scheduler.replicas.values())
        }
        try:
            replica = self.resource_manager.allocate_replica(
                scheduler, timestamp, exclusive=exclusive, server=server, **sizing
            )
        except (RuntimeError, KeyError):
            return None  # pool exhausted, or the named server taken or gone
        self.track_replica(replica)
        return replica

    def _reschedule(
        self,
        scheduler: Scheduler,
        context_key: str | None,
        avoid_host: str | None,
        timestamp: float,
    ) -> bool:
        if context_key is None:
            return False
        candidates = [
            name
            for name in scheduler.replica_names()
            if avoid_host is None
            or scheduler.replicas[name].host.name != avoid_host
        ]
        if not candidates:
            replica = self._provision(scheduler, timestamp)
            if replica is None:
                return False
            candidates = [replica.name]
        current = scheduler.placement_of(context_key)
        if len(current) == 1 and current[0] in candidates:
            return False  # already isolated off the contended host
        # Least-crowded target: fewest classes currently pinned there.
        pinned_counts = {name: 0 for name in candidates}
        for targets in scheduler.pinned_contexts().values():
            for name in targets:
                if name in pinned_counts:
                    pinned_counts[name] += 1
        target = min(candidates, key=lambda name: (pinned_counts[name], name))
        scheduler.move_class(context_key, target)
        return True

    # ------------------------------------------------------------------ #
    # Reporting                                                          #
    # ------------------------------------------------------------------ #

    def actions_taken(self, app: str | None = None) -> list[Action]:
        actions = []
        for report in self.reports:
            for action in report.actions:
                if app is None or action.app == app:
                    actions.append(action)
        return actions
