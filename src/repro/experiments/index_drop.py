"""§5.3 / Figure 4: memory interference due to index mis-configuration.

The scenario: TPC-W runs alone and reaches stable state; the ``O_DATE``
index (used only by BestSeller) is dropped.  BestSeller's plan degenerates
into partial scans whose read-ahead traffic floods the shared buffer pool,
inflating everyone's latency past the SLA.  The pipeline then:

1. flags outlier contexts on the memory counters (the paper found six mild
   outliers, including NewProducts #9 and BestSeller #8),
2. recomputes MRCs for the problem classes — only BestSeller's parameters
   change (a flatter curve needing less memory: 3695 vs 6982 pages),
3. enforces a buffer-pool quota for BestSeller while keeping its placement,
   after which the application recovers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.controller import ControllerConfig
from ..core.diagnosis import ActionKind, DiagnosisConfig
from ..core.metrics import Metric
from ..core.outliers import detect_outliers
from ..engine.executor import CostModel
from ..workloads.tpcw import BEST_SELLER, O_DATE_INDEX, build_tpcw
from .runner import ClusterHarness
from .results import IndexDropResult

__all__ = ["IndexDropConfig", "run_index_drop"]

EXPERIMENT_COST_MODEL = CostModel(
    io_time_per_page=0.010, hit_time_per_page=0.00002, readahead_overlap=0.20
)
"""Cost model calibrated so the paper's scenarios straddle the 1 s SLA."""

CPU_SCALE = 6.0
"""Per-class CPU costs are scaled so baseline latency lands near the
paper's ~0.5 s (the synthetic per-query costs are defined at a finer grain
than a full web-interaction round trip)."""


@dataclass(frozen=True)
class IndexDropConfig:
    """Tunables of the scenario."""

    clients: int = 40
    warmup_intervals: int = 12
    violation_intervals: int = 6
    recovery_intervals: int = 8
    seed: int = 7
    sla_latency: float = 1.0


def scale_cpu_costs(workload, factor: float) -> None:
    """Scale every query class's CPU cost by ``factor`` (calibration)."""
    for query_class in workload.classes():
        query_class.cpu_cost *= factor


def run_index_drop(
    config: IndexDropConfig | None = None, obs=None
) -> IndexDropResult:
    """Run the full §5.3 scenario and collect the Figure 4 evidence.

    ``obs`` optionally takes a :class:`repro.obs.Observability` handle;
    the scenario exercises every pipeline stage (violation → diagnosis →
    quota action), so it is the telemetry showcase of ``repro obs report``.
    """
    config = config if config is not None else IndexDropConfig()
    workload = build_tpcw(seed=config.seed)
    scale_cpu_costs(workload, CPU_SCALE)

    harness = ClusterHarness.single_app(
        workload,
        servers=2,
        clients=config.clients,
        sla_latency=config.sla_latency,
        cost_model=EXPERIMENT_COST_MODEL,
        config=ControllerConfig(
            fallback_patience=4,
            diagnosis=DiagnosisConfig(mrc_change_threshold=0.25),
        ),
        obs=obs,
    )
    result = IndexDropResult()

    # Phase A: warm up to stable state (signatures + initial MRCs recorded).
    warm = harness.run(intervals=config.warmup_intervals)
    result.latency_before = warm.steady_mean_latency(workload.app)

    replica = harness.replicas_of(workload.app)[0]
    analyzer = harness.controller.analyzer_of(replica)
    best_seller_key = workload.class_named(BEST_SELLER).context_key
    result.mrc_before = analyzer.stored_mrc(best_seller_key)
    # Snapshot the pre-drop stable state: the violation builds up over a
    # couple of intervals, during which the live signatures absorb post-drop
    # behaviour; the Figure 4 panels compare against *pre-change* stability.
    stable_snapshot = dict(analyzer.signatures)

    # Phase B: drop the index; run until the violation is diagnosed.
    workload.catalog.drop(O_DATE_INDEX)
    captured_ratios = False
    violation_latencies: list[float] = []
    for _ in range(config.violation_intervals):
        step = harness.run(intervals=1)
        report = step.final_report(workload.app)
        if not report.sla_met:
            violation_latencies.append(report.mean_latency)
            if not captured_ratios:
                result.ratios = _metric_ratios(
                    analyzer, workload, stable_snapshot
                )
                detection = detect_outliers(
                    analyzer.current_vectors(workload.app), stable_snapshot
                )
                result.outlier_contexts = detection.outlier_contexts()
                result.outlier_severities = {
                    key: detection.severity_of(key)
                    for key in result.outlier_contexts
                }
                captured_ratios = True
        result.actions.extend(report.actions)
        if any(a.kind is ActionKind.APPLY_QUOTAS for a in report.actions):
            break
    result.latency_violation = (
        max(violation_latencies) if violation_latencies else 0.0
    )
    result.mrc_after = analyzer.stored_mrc(best_seller_key)

    # Phase C: recovery under the enforced quota.
    recovery = harness.run(intervals=config.recovery_intervals)
    result.latency_after = recovery.steady_mean_latency(workload.app)
    return result


def _metric_ratios(analyzer, workload, stable) -> dict[str, dict[int, float]]:
    """Figure 4 panels: current/stable ratio per metric per query id."""
    current = analyzer.current_vectors(workload.app)
    panels: dict[str, dict[int, float]] = {
        Metric.LATENCY.value: {},
        Metric.THROUGHPUT.value: {},
        Metric.MISSES.value: {},
        Metric.READAHEADS.value: {},
    }
    by_key = {qc.context_key: qc for qc in workload.classes()}
    for key, vector in current.items():
        baseline = stable.get(key)
        query_class = by_key.get(key)
        if baseline is None or query_class is None:
            continue
        ratios = vector.ratio_to(baseline)
        for metric_name in panels:
            panels[metric_name][query_class.query_id] = ratios[Metric(metric_name)]
    return panels
