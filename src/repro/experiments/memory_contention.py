"""§5.4 / Table 2: memory contention in a shared buffer pool.

TPC-W runs alone inside one database engine and reaches stable state; then
a RUBiS workload starts *inside the same engine*, sharing the 8192-page
buffer pool.  RUBiS's SearchItemsByRegion needs ~7900 pages by itself, so
it cannot be co-located with TPC-W (whose BestSeller alone needs ~7000):
TPC-W's latency blows up roughly tenfold and its throughput halves.

Diagnosis recomputes the MRCs of TPC-W's outlier classes — unchanged, so
they are exonerated — then treats the newly scheduled RUBiS classes as
problem classes.  The quota search fails (SearchItemsByRegion's acceptable
memory does not fit), so the class is **rescheduled onto a different
replica**, after which TPC-W recovers most of its baseline performance.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.server import ServerSpec
from ..core.controller import ControllerConfig
from ..core.diagnosis import ActionKind
from ..workloads.rubis import build_rubis
from ..workloads.tpcw import build_tpcw
from .index_drop import CPU_SCALE, EXPERIMENT_COST_MODEL, scale_cpu_costs
from .results import MemoryContentionResult, PlacementRow
from .runner import ClusterHarness

__all__ = ["MemoryContentionConfig", "run_memory_contention"]


@dataclass(frozen=True)
class MemoryContentionConfig:
    """Tunables of the scenario."""

    tpcw_clients: int = 60
    rubis_clients: int = 300
    baseline_intervals: int = 10
    contention_intervals: int = 8
    recovery_intervals: int = 8
    pool_pages: int = 8192
    sla_latency: float = 1.0
    seed: int = 7


def run_memory_contention(
    config: MemoryContentionConfig | None = None,
) -> MemoryContentionResult:
    """Run the Table 2 scenario end to end."""
    config = config if config is not None else MemoryContentionConfig()
    tpcw = build_tpcw(seed=config.seed)
    rubis = build_rubis(seed=config.seed + 4)
    scale_cpu_costs(tpcw, CPU_SCALE)
    scale_cpu_costs(rubis, CPU_SCALE)

    harness = ClusterHarness.shared_engine(
        [tpcw, rubis],
        spare_servers=2,
        pool_pages=config.pool_pages,
        clients={tpcw.app: config.tpcw_clients, rubis.app: 0},
        sla_latency=config.sla_latency,
        cost_model=EXPERIMENT_COST_MODEL,
        config=ControllerConfig(fallback_patience=5),
        server_spec=ServerSpec(cores=16),
    )
    # RUBiS sits idle during the baseline phase: its driver exists but has a
    # zero client population until the contention phase begins.
    rubis_driver = harness.drivers[rubis.app]

    result = MemoryContentionResult()

    # Phase A: TPC-W alone (the "TPC-W / IDLE" row).
    baseline = harness.run(intervals=config.baseline_intervals)
    result.rows.append(
        PlacementRow(
            placement="TPC-W / IDLE",
            latency=baseline.steady_mean_latency(tpcw.app),
            throughput=baseline.steady_throughput(tpcw.app),
        )
    )

    # Phase B: RUBiS starts in the same engine ("TPC-W / RUBiS" row).
    from ..workloads.load import ConstantLoad

    rubis_driver.load = ConstantLoad(config.rubis_clients)
    contention_latency = 0.0
    contention_throughput = 0.0
    reschedule_seen = False
    for _ in range(config.contention_intervals):
        step = harness.run(intervals=1)
        report = step.final_report(tpcw.app)
        if not reschedule_seen:
            contention_latency = max(contention_latency, report.mean_latency)
            if report.mean_latency >= contention_latency:
                contention_throughput = report.throughput
        for app in (tpcw.app, rubis.app):
            for action in step.final_report(app).actions:
                result.actions.append(action)
                if action.kind is ActionKind.RESCHEDULE_CLASS:
                    reschedule_seen = True
                    result.rescheduled_context = action.context_key
        if reschedule_seen:
            break
    result.rows.append(
        PlacementRow(
            placement="TPC-W / RUBiS (shared pool)",
            latency=contention_latency,
            throughput=contention_throughput,
        )
    )

    # Phase C: recovery after the move ("TPC-W / RUBiS-1" row).
    recovery = harness.run(intervals=config.recovery_intervals)
    result.rows.append(
        PlacementRow(
            placement="TPC-W / RUBiS w/o SearchItemsByRegion",
            latency=recovery.steady_mean_latency(tpcw.app),
            throughput=recovery.steady_throughput(tpcw.app),
        )
    )
    return result
