"""The experiment harness: wire a cluster, drive clients, run intervals.

:class:`ClusterHarness` is the shared entry point of every example and
benchmark.  It assembles the substrate (servers → replicas → schedulers →
controller), attaches closed-loop client drivers, and advances simulated
time one measurement interval at a time, invoking the controller at each
boundary.  Scenario hooks (``on_interval``) inject the dynamic changes the
paper studies: an index drop, a second application starting, a load surge.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from ..cluster.replica import Replica
from ..cluster.resource_manager import ResourceManager
from ..cluster.scheduler import Scheduler
from ..cluster.server import PhysicalServer, ServerSpec
from ..core.controller import AppIntervalReport, ClusterController, ControllerConfig
from ..engine.engine import DatabaseEngine, EngineConfig
from ..engine.executor import CostModel
from ..faults import FaultInjector, FaultPlan
from ..obs import Observability
from ..sim.clock import SimClock
from ..sim.events import EventLoop
from ..workloads.base import Workload
from ..workloads.clients import ClosedLoopDriver
from ..workloads.load import ConstantLoad, LoadFunction

__all__ = ["HarnessResult", "ClusterHarness", "quickstart_scenario"]

IntervalHook = Callable[["ClusterHarness"], None]


@dataclass
class HarnessResult:
    """Everything a run produced, keyed by application."""

    timelines: dict[str, list[AppIntervalReport]] = field(default_factory=dict)

    def timeline(self, app: str) -> list[AppIntervalReport]:
        return self.timelines.get(app, [])

    def final_report(self, app: str) -> AppIntervalReport:
        reports = self.timeline(app)
        if not reports:
            raise KeyError(f"no reports recorded for app {app!r}")
        return reports[-1]

    def mean_latency_series(self, app: str) -> list[float]:
        return [report.mean_latency for report in self.timeline(app)]

    def throughput_series(self, app: str) -> list[float]:
        return [report.throughput for report in self.timeline(app)]

    def sla_series(self, app: str) -> list[bool]:
        return [report.sla_met for report in self.timeline(app)]

    def steady_mean_latency(self, app: str, last_n: int = 3) -> float:
        """Average latency over the last ``last_n`` non-empty intervals."""
        samples = [
            report.mean_latency
            for report in self.timeline(app)
            if report.throughput > 0
        ][-last_n:]
        return sum(samples) / len(samples) if samples else 0.0

    def steady_throughput(self, app: str, last_n: int = 3) -> float:
        samples = [
            report.throughput
            for report in self.timeline(app)
            if report.throughput > 0
        ][-last_n:]
        return sum(samples) / len(samples) if samples else 0.0


class ClusterHarness:
    """A fully wired simulated cluster plus its client populations."""

    def __init__(
        self,
        controller: ClusterController,
        clock: SimClock | None = None,
    ) -> None:
        self.controller = controller
        self.resource_manager = controller.resource_manager
        self.clock = clock if clock is not None else SimClock()
        self.obs = controller.obs
        # Spans opened by the controller must read the harness clock.
        self.obs.bind_clock(self.clock)
        self.drivers: dict[str, ClosedLoopDriver] = {}
        self.workloads: dict[str, Workload] = {}
        self.hooks: dict[int, list[IntervalHook]] = {}
        # Timestamp-ordered side events (fault injection, future dynamic
        # scenarios) interleaved with interval processing by ``run``.
        self.events = EventLoop(clock=self.clock)
        self.fault_injector: FaultInjector | None = None
        # Control-plane recovery, opt-in via enable_recovery(); None keeps
        # the classic always-alive-controller behaviour byte-identical.
        self.recovery = None
        self._interval_index = 0

    # ------------------------------------------------------------------ #
    # Builders                                                           #
    # ------------------------------------------------------------------ #

    @classmethod
    def single_app(
        cls,
        workload: Workload,
        servers: int = 4,
        clients: int | LoadFunction = 20,
        pool_pages: int = 8192,
        sla_latency: float = 1.0,
        server_spec: ServerSpec | None = None,
        config: ControllerConfig | None = None,
        think_time_mean: float = 1.0,
        cost_model: CostModel | None = None,
        obs: Observability | None = None,
    ) -> "ClusterHarness":
        """One application on a pool of ``servers`` machines, one initial replica."""
        manager = ResourceManager(cost_model=cost_model)
        for index in range(servers):
            manager.add_server(
                PhysicalServer(f"server-{index + 1}", spec=server_spec)
            )
        controller = ClusterController(manager, config=config, obs=obs)
        harness = cls(controller)
        scheduler = Scheduler(
            workload.app,
            sla_latency=sla_latency,
            interval_length=controller.config.interval_length,
        )
        controller.add_scheduler(scheduler)
        manager.allocate_replica(scheduler, timestamp=0.0, pool_pages=pool_pages)
        for replica in scheduler.replicas.values():
            controller.track_replica(replica)
        harness.attach_workload(workload, clients, think_time_mean)
        return harness

    @classmethod
    def shared_engine(
        cls,
        workloads: list[Workload],
        spare_servers: int = 2,
        pool_pages: int = 8192,
        clients: dict[str, int | LoadFunction] | None = None,
        sla_latency: float = 1.0,
        config: ControllerConfig | None = None,
        think_time_mean: float = 1.0,
        cost_model: CostModel | None = None,
        server_spec: ServerSpec | None = None,
        obs: Observability | None = None,
    ) -> "ClusterHarness":
        """Several applications inside **one** database engine on one server.

        This is the Table 2 configuration: one shared buffer pool serving
        every application, plus ``spare_servers`` idle machines the
        controller can reschedule problem classes onto.
        """
        if not workloads:
            raise ValueError("shared_engine needs at least one workload")
        manager = ResourceManager(cost_model=cost_model)
        shared_server = PhysicalServer("server-shared", spec=server_spec)
        manager.add_server(shared_server)
        for index in range(spare_servers):
            manager.add_server(PhysicalServer(f"server-spare-{index + 1}"))
        controller = ClusterController(manager, config=config, obs=obs)
        harness = cls(controller)
        engine = DatabaseEngine(
            EngineConfig(
                name="shared-engine",
                pool_pages=pool_pages,
                cost_model=cost_model if cost_model is not None else CostModel(),
            )
        )
        clients = clients or {}
        for workload in workloads:
            scheduler = Scheduler(
                workload.app,
                sla_latency=sla_latency,
                interval_length=controller.config.interval_length,
            )
            controller.add_scheduler(scheduler)
            replica = Replica(
                name=f"{workload.app}-r1",
                app=workload.app,
                host=shared_server,
                engine=engine,
            )
            scheduler.add_replica(replica)
            controller.track_replica(replica)
            harness.attach_workload(
                workload,
                clients.get(workload.app, 10),
                think_time_mean,
            )
        return harness

    def attach_workload(
        self,
        workload: Workload,
        clients: int | LoadFunction,
        think_time_mean: float = 1.0,
    ) -> ClosedLoopDriver:
        """Register a workload's client driver (scheduler must exist)."""
        if workload.app in self.drivers:
            raise ValueError(f"app {workload.app!r} already has a driver")
        scheduler = self.controller.schedulers[workload.app]
        load = clients if isinstance(clients, LoadFunction) else ConstantLoad(clients)
        driver = ClosedLoopDriver(
            workload,
            scheduler,
            load=load,
            think_time_mean=think_time_mean,
        )
        self.drivers[workload.app] = driver
        self.workloads[workload.app] = workload
        return driver

    # ------------------------------------------------------------------ #
    # Fault injection                                                    #
    # ------------------------------------------------------------------ #

    def install_faults(self, plan: FaultPlan) -> FaultInjector:
        """Schedule a fault plan against this cluster.

        Returns the injector (exposing ``applied``/``unmatched`` for
        post-run assertions).  An empty plan schedules nothing, so a run
        with ``install_faults(FaultPlan())`` is byte-identical to one
        without the call.
        """
        if self.fault_injector is not None:
            raise RuntimeError("a fault plan is already installed")
        injector = FaultInjector(self, plan, obs=self.obs)
        injector.schedule()
        self.fault_injector = injector
        return injector

    # ------------------------------------------------------------------ #
    # Control-plane recovery                                             #
    # ------------------------------------------------------------------ #

    def enable_recovery(self, config=None):
        """Install the control-plane recovery subsystem on this harness.

        Returns the :class:`~repro.recovery.ControlPlaneSupervisor` (for
        post-run assertions on checkpoints, journal and reconcile).  The
        supervisor checkpoints periodically after interval closes, and the
        ``controller_crash`` / ``controller_restart`` /
        ``checkpoint_corruption`` fault kinds require it.  With recovery
        enabled but no control-plane fault fired, a run's telemetry is
        byte-identical to one without this call.
        """
        if self.recovery is not None:
            raise RuntimeError("recovery is already enabled")
        # Imported lazily so the default path never loads the subsystem.
        from ..recovery import ControlPlaneSupervisor

        self.recovery = ControlPlaneSupervisor(self, config)
        return self.recovery

    # ------------------------------------------------------------------ #
    # Scenario hooks                                                     #
    # ------------------------------------------------------------------ #

    def at_interval(self, index: int, hook: IntervalHook) -> None:
        """Run ``hook(harness)`` just before interval ``index`` starts."""
        if index < 0:
            raise ValueError(f"interval index must be non-negative: {index}")
        self.hooks.setdefault(index, []).append(hook)

    # ------------------------------------------------------------------ #
    # Execution                                                          #
    # ------------------------------------------------------------------ #

    @property
    def interval_length(self) -> float:
        return self.controller.config.interval_length

    def run(self, intervals: int) -> HarnessResult:
        """Advance the simulation by ``intervals`` measurement intervals."""
        if intervals <= 0:
            raise ValueError(f"interval count must be positive: {intervals}")
        result = HarnessResult()
        for _ in range(intervals):
            for hook in self.hooks.get(self._interval_index, []):
                hook(self)
            start = self.clock.now
            length = self.interval_length
            # Fire side events due at the boundary (and any backlog), then
            # let the drivers produce the interval's traffic, then fire the
            # events that fall inside the interval.  With an empty event
            # queue both calls reduce to plain clock advances, so runs
            # without faults are byte-identical to the pre-event-loop
            # behaviour.
            self.events.run_until(start)
            for app in sorted(self.drivers):
                self.drivers[app].run_interval(start, length)
            self.events.run_until(start + length)
            if self.recovery is not None and self.recovery.down:
                # A dead controller closes nothing: the data plane keeps
                # serving and scheduler metrics accumulate into the first
                # close after restart — a monitoring gap, not lost traffic.
                self.recovery.note_missed_interval()
                self._interval_index += 1
                continue
            reports = self.controller.close_interval(self.clock.now)
            for report in reports:
                result.timelines.setdefault(report.app, []).append(report)
            if self.recovery is not None:
                self.recovery.maybe_checkpoint(self.clock.now)
            self._interval_index += 1
        return result

    # ------------------------------------------------------------------ #
    # Convenience accessors                                              #
    # ------------------------------------------------------------------ #

    def scheduler(self, app: str) -> Scheduler:
        return self.controller.schedulers[app]

    def replicas_of(self, app: str) -> list[Replica]:
        scheduler = self.scheduler(app)
        return [scheduler.replicas[name] for name in scheduler.replica_names()]

    def engines_of(self, app: str) -> list[DatabaseEngine]:
        seen: dict[str, DatabaseEngine] = {}
        for replica in self.replicas_of(app):
            seen.setdefault(replica.engine.name, replica.engine)
        return list(seen.values())


def quickstart_scenario(
    obs: Observability | None = None,
    intervals: int = 12,
    clients: int = 25,
    servers: int = 3,
    seed: int = 7,
    sla_latency: float = 1.0,
) -> tuple[ClusterHarness, HarnessResult]:
    """The ``examples/quickstart.py`` scenario as a reusable function.

    A three-server TPC-W cluster under a closed-loop client population,
    run for ``intervals`` measurement intervals.  The defaults match the
    quickstart example exactly; the determinism regression suite and
    ``repro obs report --scenario quickstart`` both run precisely this
    scenario, so its telemetry doubles as a golden artefact.
    """
    from ..workloads import build_tpcw

    workload = build_tpcw(seed=seed)
    harness = ClusterHarness.single_app(
        workload,
        servers=servers,
        clients=clients,
        sla_latency=sla_latency,
        obs=obs,
    )
    result = harness.run(intervals=intervals)
    return harness, result
