"""Lock-contention anomaly detection (the paper's §7 future work).

The paper closes: "outlier detection is a promising approach for narrowing
down the search for other system or application anomalies, such as invoking
a query with the wrong arguments, lock contention or deadlock situations."
This experiment implements that programme end to end:

1. TPC-W runs with realistic per-class lock footprints (readers take shared
   row-group locks, writers take exclusive ones) and reaches stable state —
   lock waits are negligible.
2. The *wrong arguments* fault is injected: AdminUpdate loses its WHERE
   clause, scanning the whole item table while X-locking every item row
   group for its (now long) duration.
3. Every reader of the item table stalls behind it; the SLA is violated —
   but the buffer-pool and I/O counters of the victims are unremarkable,
   so neither the memory nor the I/O path explains the violation.
4. The lock-wait share of application time crosses the threshold; the
   diagnosis reports the aggressor class it found through the waits-for
   graph: ``tpcw/admin_update``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import Table
from ..core.controller import ControllerConfig
from ..core.diagnosis import Action, ActionKind
from ..core.metrics import Metric
from ..workloads.tpcw import build_tpcw, inject_unqualified_admin_update
from .index_drop import CPU_SCALE, EXPERIMENT_COST_MODEL, scale_cpu_costs
from .runner import ClusterHarness

__all__ = ["LockContentionConfig", "LockContentionResult", "run_lock_contention"]


@dataclass(frozen=True)
class LockContentionConfig:
    """Tunables of the scenario."""

    clients: int = 50
    warmup_intervals: int = 8
    fault_intervals: int = 8
    seed: int = 7
    sla_latency: float = 1.0


@dataclass
class LockContentionResult:
    """Everything the scenario produced."""

    latency_before: float = 0.0
    latency_during: float = 0.0
    lock_wait_share: float = 0.0
    baseline_lock_wait_share: float = 0.0
    reported_aggressor: str | None = None
    reports: list[Action] = field(default_factory=list)
    victim_wait_time: float = 0.0

    def to_table(self) -> Table:
        table = Table(
            title="Lock contention (wrong-arguments AdminUpdate)",
            headers=["phase", "mean latency (s)", "lock-wait share"],
        )
        table.add_row("baseline", f"{self.latency_before:.2f}",
                      f"{self.baseline_lock_wait_share:.1%}")
        table.add_row("fault", f"{self.latency_during:.2f}",
                      f"{self.lock_wait_share:.1%}")
        return table


def _lock_wait_share(analyzer, app: str, interval_length: float) -> float:
    vectors = analyzer.current_vectors(app)
    total_wait = sum(v.get(Metric.LOCK_WAIT_TIME) for v in vectors.values())
    total_latency = sum(
        v.get(Metric.LATENCY) * v.get(Metric.THROUGHPUT) * interval_length
        for v in vectors.values()
    )
    return total_wait / total_latency if total_latency > 0 else 0.0


def run_lock_contention(
    config: LockContentionConfig | None = None,
) -> LockContentionResult:
    """Run the wrong-arguments / lock-contention scenario."""
    config = config if config is not None else LockContentionConfig()
    workload = build_tpcw(seed=config.seed)
    scale_cpu_costs(workload, CPU_SCALE)
    harness = ClusterHarness.single_app(
        workload,
        servers=2,
        clients=config.clients,
        sla_latency=config.sla_latency,
        cost_model=EXPERIMENT_COST_MODEL,
        config=ControllerConfig(fallback_patience=6),
    )
    result = LockContentionResult()

    warm = harness.run(intervals=config.warmup_intervals)
    result.latency_before = warm.steady_mean_latency(workload.app)
    analyzer = harness.controller.analyzer_of(harness.replicas_of(workload.app)[0])
    result.baseline_lock_wait_share = _lock_wait_share(
        analyzer, workload.app, harness.interval_length
    )

    inject_unqualified_admin_update(workload)
    during: list[float] = []
    for _ in range(config.fault_intervals):
        step = harness.run(intervals=1)
        report = step.final_report(workload.app)
        if not report.sla_met:
            during.append(report.mean_latency)
            share = _lock_wait_share(
                analyzer, workload.app, harness.interval_length
            )
            result.lock_wait_share = max(result.lock_wait_share, share)
        for action in report.actions:
            if action.kind is ActionKind.REPORT_LOCK_CONTENTION:
                result.reports.append(action)
                if result.reported_aggressor is None:
                    result.reported_aggressor = action.context_key
        if result.reports:
            break
    result.latency_during = max(during) if during else 0.0

    vectors = analyzer.current_vectors(workload.app)
    result.victim_wait_time = sum(
        v.get(Metric.LOCK_WAIT_TIME)
        for key, v in vectors.items()
        if not key.endswith("admin_update")
    )
    return result
