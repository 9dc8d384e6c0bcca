"""The five benchmark workloads, built from the simulator's public builders.

Clients are a closed loop *in simulated time* (``ClosedLoopDriver``, think
time 1 s); on the host the simulator runs as fast as it can, one process,
one thread.  A workload is one *pass*: build the cluster(s) from the seed,
warm up, run at least 100 timed intervals (so that the p90 of a per-interval
metric has ten samples beyond it).  Sizes are frozen: each pass was tuned
(client counts only) to take 4 to 6 s on the reference box, so that
``run_seconds`` holds 3 to 6 passes of identical simulated work, of which
the recorder keeps the fastest reading piece by piece.

Why each workload exists, and which layer it is meant to load, is in
``README.md`` next to this file.
"""

from __future__ import annotations

import gc
import sys
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass

from repro.cluster.server import ServerSpec
from repro.core.controller import ControllerConfig
from repro.experiments.chaos import ChaosStormConfig, build_storm_plan
from repro.experiments.index_drop import (
    CPU_SCALE,
    EXPERIMENT_COST_MODEL,
    scale_cpu_costs,
)
from repro.experiments.runner import ClusterHarness
from repro.experiments.zoo import run_zoo
from repro.faults import FaultKind, FaultPlan
from repro.workloads import build_tpcw
from repro.workloads.tpcw import O_DATE_INDEX
from repro.workloads.zoo import build_antagonist, build_zoo_scenario

from layers import DATA_PLANE, OPT_IN
from recorder import Recorder

__all__ = ["WORKLOADS", "Workload", "measure"]

STEADY_INTERVALS = 100

# The steady workloads hold their configuration still: a controller that
# never leaves its start-up grace measures the data plane, not a remedy.
FROZEN = ControllerConfig(startup_grace_intervals=10**9)
BIG_SERVER = ServerSpec(cores=16)

CLASSIC_SCENARIOS = ("flash_crowd", "working_set_drift", "olap_storm", "write_burst")
OPT_IN_SCENARIOS = ("flash_crowd", "working_set_drift")
ZOO_INTERVALS = 26
STORMS = 2
# Replica outages are left out of the storms: a replica that recovers while
# the controller is down or propagation is stalled keeps stale entries in
# its write backlog, and ``Scheduler._submit_write_async`` then raises
# "writes must apply in order" (about one stock storm seed in ten; see the
# README's known readings).  A benchmark workload may not fail.
REPLICA_OUTAGE = (FaultKind.REPLICA_CRASH, FaultKind.REPLICA_RECOVER)


@dataclass(frozen=True)
class Workload:
    name: str
    one_pass: Callable[[Recorder, int], int]
    """``one_pass(recorder, seed)`` returns the intervals it attempted."""
    must_record: tuple[str, ...]
    must_idle: tuple[str, ...]


def measure(
    workload: Workload, recorder: Recorder, seed: int, seconds: float
) -> int:
    """Repeat the workload's pass for ``seconds``.

    At least one pass runs; another one starts only if, going by the longest
    so far, it would end inside ``seconds``.  Returns the intervals attempted.
    """
    started = time.perf_counter()
    attempted = 0
    longest = 0.0
    while True:
        pass_started = time.perf_counter()
        gc.collect()  # the previous pass's cluster; collections then fall alike
        recorder.begin_pass()
        attempted += workload.one_pass(recorder, seed)
        recorder.end_pass()
        now = time.perf_counter()
        longest = max(longest, now - pass_started)
        if now - started + longest > seconds:
            return attempted


def _guarded(recorder: Recorder, expected: int, body: Callable[[], object]):
    """Run one episode; if it raises, its remaining intervals count as failed
    and the run goes on."""
    done = recorder.intervals
    try:
        return body()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        recorder.failed += expected - (recorder.intervals - done)
        return None
    finally:
        recorder.end_episode()


def _steady(
    recorder: Recorder, build: Callable[[], ClusterHarness], warmup: int
) -> int:
    def body() -> None:
        recorder.begin_setup(warmup=True)
        harness = build()
        harness.run(warmup)
        recorder.end_setup()
        for _ in range(STEADY_INTERVALS):
            harness.run(1)

    _guarded(recorder, STEADY_INTERVALS, body)
    return STEADY_INTERVALS


# --------------------------------------------------------------------- #
# Steady workloads                                                      #
# --------------------------------------------------------------------- #


def oltp_point(recorder: Recorder, seed: int) -> int:
    """TPC-W shopping mix whose working set fits the pool."""

    def build() -> ClusterHarness:
        return ClusterHarness.single_app(
            build_tpcw(seed),
            servers=1,
            clients=40,
            pool_pages=32768,
            cost_model=EXPERIMENT_COST_MODEL,
            server_spec=BIG_SERVER,
        )

    return _steady(recorder, build, warmup=10)


def hog_scan(recorder: Recorder, seed: int) -> int:
    """TPC-W next to a 1000-pages-per-query scan in one shared pool."""

    def build() -> ClusterHarness:
        tpcw = build_tpcw(seed).without_class("admin_update")
        noisy = build_antagonist(seed + 11, hog_working_set=6000)
        return ClusterHarness.shared_engine(
            [tpcw, noisy],
            spare_servers=0,
            pool_pages=8192,
            clients={tpcw.app: 12, noisy.app: 14},
            config=FROZEN,
            cost_model=EXPERIMENT_COST_MODEL,
            server_spec=BIG_SERVER,
        )

    return _steady(recorder, build, warmup=5)


def spill_mix(recorder: Recorder, seed: int) -> int:
    """TPC-W ordering mix, no O_DATE index, in partitioned pools far smaller
    than the working set, on two replicas."""
    pool_pages = 2048

    def build() -> ClusterHarness:
        workload = build_tpcw(seed, mix="ordering")
        workload.catalog.drop(O_DATE_INDEX)
        harness = ClusterHarness.single_app(
            workload,
            servers=2,
            clients=40,
            pool_pages=pool_pages,
            config=FROZEN,
            cost_model=EXPERIMENT_COST_MODEL,
            server_spec=BIG_SERVER,
        )
        scheduler = harness.scheduler(workload.app)
        second = harness.resource_manager.allocate_replica(
            scheduler, timestamp=0.0, pool_pages=pool_pages
        )
        harness.controller.track_replica(second)
        for replica in harness.replicas_of(workload.app):
            replica.engine.set_quota(f"{workload.app}/best_seller", 512)
            replica.engine.set_quota(f"{workload.app}/new_products", 256)
        return harness

    return _steady(recorder, build, warmup=5)


# --------------------------------------------------------------------- #
# Incident workloads                                                    #
# --------------------------------------------------------------------- #


def _zoo_episode(
    recorder: Recorder, name: str, seed: int, opt_in: bool
) -> None:
    def body() -> None:
        recorder.begin_setup(warmup=False)
        scenario = build_zoo_scenario(name, seed)
        config = None
        if opt_in:
            config = ControllerConfig(
                fallback_patience=scenario.fallback_patience,
                use_planner=True,
                use_forecast=True,
            )
        quality = run_zoo(scenario, seed=seed, config=config).quality
        recorder.counts["analysis.quality.tp"] += quality.true_positives
        recorder.counts["analysis.quality.fp"] += quality.false_positives
        recorder.counts["analysis.quality.fn"] += quality.false_negatives

    _guarded(recorder, ZOO_INTERVALS, body)


def incident_classic(recorder: Recorder, seed: int) -> int:
    """Back-to-back zoo incidents under the paper's own reaction path.

    Episodes, not one long cluster: a single harness stops violating after
    its first remedy.
    """
    for episode, name in enumerate(CLASSIC_SCENARIOS):
        _zoo_episode(recorder, name, seed + episode, opt_in=False)
    return len(CLASSIC_SCENARIOS) * ZOO_INTERVALS


def incident_optin(recorder: Recorder, seed: int) -> int:
    """Zoo incidents under planner + forecast, then fault storms with
    controller crashes and recovery."""
    for episode, name in enumerate(OPT_IN_SCENARIOS):
        _zoo_episode(recorder, name, seed + episode, opt_in=True)
    for storm in range(STORMS):
        _storm_episode(recorder, seed + storm)
    return (
        len(OPT_IN_SCENARIOS) * ZOO_INTERVALS
        + STORMS * ChaosStormConfig().intervals
    )


def _storm_episode(recorder: Recorder, seed: int) -> None:
    """``run_chaos_storm``'s cluster and seeded fault plan (recovery on,
    controller crashes), minus the replica outages."""
    config = ChaosStormConfig(seed=seed, workload_seed=seed, clients=30)

    def body() -> None:
        recorder.begin_setup(warmup=False)
        workload = build_tpcw(seed=config.workload_seed)
        scale_cpu_costs(workload, CPU_SCALE)
        harness = ClusterHarness.single_app(
            workload,
            servers=config.servers,
            clients=config.clients,
            sla_latency=config.sla_latency,
            server_spec=ServerSpec(cores=2),
            cost_model=EXPERIMENT_COST_MODEL,
        )
        scheduler = harness.scheduler(workload.app)
        scheduler.async_replication = True
        second = harness.resource_manager.allocate_replica(
            scheduler, timestamp=0.0
        )
        harness.controller.track_replica(second)
        harness.enable_recovery()
        drawn = build_storm_plan(config, workload.app)
        harness.install_faults(FaultPlan([
            event for event in drawn.events if event.kind not in REPLICA_OUTAGE
        ]))
        for _ in range(config.intervals):
            harness.run(1)

    _guarded(recorder, config.intervals, body)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("oltp_point", oltp_point, DATA_PLANE, OPT_IN),
        Workload("hog_scan", hog_scan, DATA_PLANE, OPT_IN),
        Workload(
            "spill_mix",
            spill_mix,
            DATA_PLANE
            + ("engine.bufferpool.prefetch_many", "engine.locks.acquire"),
            OPT_IN,
        ),
        Workload(
            "incident_classic",
            incident_classic,
            DATA_PLANE
            + (
                "core.diagnosis.diagnose",
                "core.analyzer.detect",
                "core.mrc.stack_distances",
            ),
            OPT_IN,
        ),
        Workload(
            "incident_optin",
            incident_optin,
            DATA_PLANE
            + (
                "planner.search.search_plan",
                "forecast.engine.observe_interval",
                "recovery.supervisor.maybe_checkpoint",
                "recovery.supervisor.restart",
            ),
            (),
        ),
    )
}
