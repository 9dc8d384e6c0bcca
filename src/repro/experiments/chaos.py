"""Chaos experiment: a seeded fault storm against the retuning pipeline.

A two-replica TPC-W cluster rides out the full fault catalogue in one run:
an I/O slowdown ramp on the victim's host, a write-propagation stall, a
silent replica crash, a statistics-log gap and a metric-corruption burst on
the surviving engine while the cluster is degraded, and finally recovery
with write-log catch-up.  The artefact metrics pin the three reactions the
fault subsystem exists to exercise:

* **re-routing** — the scheduler marks the crashed replica down within one
  measurement interval of the crash and serves every class elsewhere,
* **evidence hygiene** — quarantined (gap/corrupt) windows produce no
  retuning actions,
* **recovery** — SLA compliance returns within a bounded number of
  intervals after the replica rejoins, despite its cold buffer pool.

Everything is seeded, so the artefact is byte-stable and committed as
``BENCH_chaos_failover.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.server import ServerSpec
from ..faults import FaultPlan
from ..workloads.tpcw import build_tpcw
from .index_drop import CPU_SCALE, EXPERIMENT_COST_MODEL, scale_cpu_costs
from .runner import ClusterHarness

__all__ = [
    "ChaosConfig",
    "ChaosResult",
    "ChaosStormConfig",
    "ChaosStormResult",
    "run_chaos",
    "build_chaos_plan",
    "build_storm_plan",
    "run_chaos_storm",
]


@dataclass(frozen=True)
class ChaosConfig:
    """Tunables of the chaos scenario."""

    intervals: int = 32
    interval_length: float = 10.0
    servers: int = 3
    clients: int = 90
    sla_latency: float = 1.0
    seed: int = 7
    # Fault schedule (simulated seconds).
    slowdown_at: float = 40.0
    slowdown_factor: float = 2.0
    slowdown_duration: float = 40.0
    write_stall_at: float = 60.0
    write_stall_duration: float = 25.0
    crash_at: float = 125.0
    # The gap lands on the post-crash violating interval, so the controller
    # faces the hard case: SLA violated *and* evidence quarantined.
    stats_gap_at: float = 145.0
    corruption_at: float = 175.0
    recover_at: float = 205.0


@dataclass
class ChaosResult:
    """Everything the chaos run is judged on."""

    sla_latency: float
    latency_series: list[tuple[float, float]] = field(default_factory=list)
    sla_series: list[bool] = field(default_factory=list)
    degraded_flags: list[bool] = field(default_factory=list)
    actions_per_interval: list[int] = field(default_factory=list)
    reroute_intervals: int = -1
    quarantined_intervals: int = 0
    violating_degraded_intervals: int = 0
    actions_during_quarantine: int = 0
    violations_during_outage: int = 0
    sla_recovery_intervals: int = -1
    pending_stale_dropped: int = 0
    final_latency: float = 0.0
    faults_injected: dict[str, int] = field(default_factory=dict)
    unmatched_faults: int = 0
    forecaster: object | None = None
    """The controller's :class:`~repro.forecast.ForecastEngine` when the
    run used ``use_forecast``; ``None`` on classic runs."""

    def sla_met_at_end(self) -> bool:
        return bool(self.sla_series) and self.sla_series[-1]


def build_chaos_plan(config: ChaosConfig, app: str) -> FaultPlan:
    """The deterministic fault storm for ``app``'s two-replica cluster.

    The victim is the first replica (``<app>-r1``); the stats faults land
    on the *surviving* engine, so the controller must refuse to retune off
    the only evidence it has while the cluster is already degraded.
    """
    victim = f"{app}-r1"
    victim_host = "server-1"
    survivor_engine = f"{app}-r2-engine"
    return (
        FaultPlan()
        .io_slowdown(
            config.slowdown_at,
            victim_host,
            factor=config.slowdown_factor,
            duration=config.slowdown_duration,
            ramp_steps=4,
        )
        .write_stall(config.write_stall_at, app, config.write_stall_duration)
        .crash(config.crash_at, victim)
        .stats_gap(config.stats_gap_at, survivor_engine)
        .metric_corruption(config.corruption_at, survivor_engine)
        .recover(config.recover_at, victim)
    )


def _chaos_cluster(config, workload_seed: int, controller_config=None):
    """The cluster both chaos runs storm: TPC-W on two replicas (CPU-scaled,
    ``config``'s servers / clients / SLA); returns ``(workload, harness)``."""
    workload = build_tpcw(seed=workload_seed)
    scale_cpu_costs(workload, CPU_SCALE)
    harness = ClusterHarness.single_app(
        workload,
        servers=config.servers,
        clients=config.clients,
        sla_latency=config.sla_latency,
        server_spec=ServerSpec(cores=2),
        cost_model=EXPERIMENT_COST_MODEL,
        config=controller_config,
    )
    scheduler = harness.scheduler(workload.app)
    # Asynchronous replication so the propagation stream (and its stall and
    # stale-drop handling) is part of the storm.
    scheduler.async_replication = True
    # The failover target exists up-front: chaos studies the reaction to
    # failure, not provisioning lead time.
    second = harness.resource_manager.allocate_replica(scheduler, timestamp=0.0)
    harness.controller.track_replica(second)
    return workload, harness


def run_chaos(
    config: ChaosConfig | None = None,
    controller_config=None,
) -> ChaosResult:
    """Run the chaos scenario and collect the degradation artefacts.

    ``controller_config`` overrides the harness's stock controller
    configuration (the forecast eval passes ``use_forecast=True`` here to
    compare predictive against reactive enforcement under failover).
    """
    config = config if config is not None else ChaosConfig()
    workload, harness = _chaos_cluster(config, config.seed, controller_config)
    scheduler = harness.scheduler(workload.app)

    victim = f"{workload.app}-r1"
    injector = harness.install_faults(build_chaos_plan(config, workload.app))

    result = ChaosResult(sla_latency=config.sla_latency)
    length = config.interval_length
    for _ in range(config.intervals):
        step = harness.run(intervals=1)
        report = step.final_report(workload.app)
        degraded = any(
            analyzer.degraded_last_interval is not None
            for analyzer in harness.controller.analyzers()
        )
        result.latency_series.append((report.timestamp, report.mean_latency))
        result.sla_series.append(report.sla_met)
        result.degraded_flags.append(degraded)
        result.actions_per_interval.append(len(report.actions))
        if degraded:
            result.actions_during_quarantine += len(report.actions)
            if not report.sla_met:
                result.violating_degraded_intervals += 1

    # (a) Re-routing latency: intervals between the crash and the
    # scheduler's mark-down of the victim (mark-down happens on the first
    # read that fails, so this is at most one interval).
    down_at = next(
        (
            t.at
            for t in scheduler.health.transitions
            if t.replica == victim and not t.up
        ),
        None,
    )
    if down_at is not None:
        result.reroute_intervals = int(down_at // length) - int(
            config.crash_at // length
        )

    # (b) Evidence hygiene: quarantined windows across all analyzers.
    result.quarantined_intervals = sum(
        analyzer.quarantined_intervals
        for analyzer in harness.controller.analyzers()
    )

    # (c) Recovery: intervals from the replica rejoining until the SLA is
    # met again (0 = the first post-recovery interval already met it).
    recover_index = int(config.recover_at // length) + 1
    for index in range(recover_index, len(result.sla_series)):
        if result.sla_series[index]:
            result.sla_recovery_intervals = index - recover_index
            break

    outage = range(
        int(config.crash_at // length) + 1, int(config.recover_at // length) + 1
    )
    result.violations_during_outage = sum(
        1
        for index in outage
        if index < len(result.sla_series) and not result.sla_series[index]
    )
    result.pending_stale_dropped = scheduler.pending_stale_dropped_total
    result.final_latency = sum(
        latency for _, latency in result.latency_series[-3:]
    ) / max(len(result.latency_series[-3:]), 1)
    result.faults_injected = injector.applied_kinds()
    result.unmatched_faults = len(injector.unmatched)
    result.forecaster = harness.controller.forecaster
    return result


# --------------------------------------------------------------------- #
# Seeded random storms (`repro storm --seed N`)                          #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ChaosStormConfig:
    """A seeded random storm over the same two-replica cluster."""

    seed: int = 7
    events: int = 6
    intervals: int = 32
    interval_length: float = 10.0
    servers: int = 3
    clients: int = 90
    sla_latency: float = 1.0
    workload_seed: int = 7
    controller_faults: bool = True

    @property
    def horizon(self) -> float:
        """Faults land in the first ~85% of the run so every storm gets a
        few calm closing intervals to demonstrate (or fail) recovery."""
        return (self.intervals - 4) * self.interval_length


@dataclass
class ChaosStormResult:
    """One seeded storm's outcome."""

    seed: int
    events: int
    """The events drawn; a crash adds its recovery to the plan on top."""
    plan: FaultPlan
    sla_latency: float
    latency_series: list[tuple[float, float]] = field(default_factory=list)
    sla_series: list[bool] = field(default_factory=list)
    violations: int = 0
    missed_intervals: int = 0
    controller_crashes: int = 0
    controller_restarts: int = 0
    epoch_final: int = 1
    duplicate_actions: int = 0
    final_latency: float = 0.0
    faults_injected: dict[str, int] = field(default_factory=dict)
    unmatched_faults: int = 0

    def sla_met_at_end(self) -> bool:
        return bool(self.sla_series) and self.sla_series[-1]


def build_storm_plan(config: ChaosStormConfig, app: str) -> FaultPlan:
    """The seeded random plan for ``app``'s two-replica cluster.

    Targets mirror :func:`build_chaos_plan`: only the first replica can
    crash (the survivor keeps the application alive), slowdowns hit its
    host, and the stats faults land on the surviving engine.  The same
    seed and config always yield the same plan.
    """
    return FaultPlan.random(
        seed=config.seed,
        replicas=[f"{app}-r1"],
        hosts=["server-1"],
        engines=[f"{app}-r2-engine"],
        apps=[app],
        horizon=config.horizon,
        events=config.events,
        controller=config.controller_faults,
    )


def run_chaos_storm(config: ChaosStormConfig | None = None) -> ChaosStormResult:
    """Replay one seeded storm; recovery is enabled so control-plane
    crashes have a supervisor to land on."""
    config = config if config is not None else ChaosStormConfig()
    workload, harness = _chaos_cluster(config, config.workload_seed)
    supervisor = harness.enable_recovery()

    plan = build_storm_plan(config, workload.app)
    injector = harness.install_faults(plan)

    result = ChaosStormResult(
        seed=config.seed, events=config.events, plan=plan,
        sla_latency=config.sla_latency,
    )
    for _ in range(config.intervals):
        step = harness.run(intervals=1)
        timeline = step.timeline(workload.app)
        if not timeline:
            continue  # controller down: no close this interval
        report = timeline[-1]
        result.latency_series.append((report.timestamp, report.mean_latency))
        result.sla_series.append(report.sla_met)
        if not report.sla_met:
            result.violations += 1

    result.missed_intervals = supervisor.missed_intervals
    result.controller_crashes = supervisor.crashes
    result.controller_restarts = supervisor.restarts
    result.epoch_final = supervisor.epoch
    result.duplicate_actions = len(supervisor.journal.duplicate_applied())
    result.final_latency = sum(
        latency for _, latency in result.latency_series[-3:]
    ) / max(len(result.latency_series[-3:]), 1)
    result.faults_injected = injector.applied_kinds()
    result.unmatched_faults = len(injector.unmatched)
    return result
