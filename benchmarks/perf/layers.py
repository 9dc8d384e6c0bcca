"""The trace points: which public function stands for which layer.

Layer names follow the module that owns the function
(``engine.bufferpool.access_many`` is ``repro/engine/bufferpool.py``).  The
subsystems the controller imports lazily (planner, forecast, recovery) are
imported here at module level, so that every binding of their functions
exists before :func:`install` looks for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import repro.core.diagnosis
import repro.core.mrc
import repro.core.quota
import repro.planner.model
import repro.planner.search
from repro.cluster.replica import Replica
from repro.cluster.scheduler import Scheduler
from repro.core.analyzer import LogAnalyzer
from repro.core.controller import ClusterController
from repro.core.metrics import Metric
from repro.core.mrc import MissRatioCurve, MRCCache
from repro.engine.bufferpool import LRUBufferPool, PartitionedBufferPool
from repro.engine.engine import DatabaseEngine
from repro.engine.executor import QueryExecutor
from repro.engine.locks import LockManager
from repro.engine.query import QueryClass
from repro.engine.statslog import EngineLog
from repro.experiments.runner import ClusterHarness
from repro.forecast.engine import ForecastEngine
from repro.recovery.supervisor import ControlPlaneSupervisor
from repro.sim.events import EventLoop
from repro.workloads.base import Workload
from repro.workloads.clients import ClosedLoopDriver

from tracer import CountFn, Tracer

__all__ = [
    "TRACE_POINTS",
    "DATA_PLANE",
    "OPT_IN",
    "RECORDER_COUNTS",
    "install",
    "per_layer_metrics",
    "per_layer_schema",
]


@dataclass(frozen=True)
class TracePoint:
    layer: str
    owner: object
    name: str
    count_names: tuple[str, ...] = ()
    count: CountFn | None = None


def _pool_pages(args: tuple, result: object) -> tuple[int, object]:
    return len(args[1]), result


def _executions(args: tuple, vectors: dict) -> tuple[int]:
    # Vectors carry a rate; args[1] is the interval length it was taken over.
    rate = sum(vector.get(Metric.THROUGHPUT) for vector in vectors.values())
    return (round(rate * args[1]),)


TRACE_POINTS: tuple[TracePoint, ...] = (
    # Data plane, outermost first.
    TracePoint("experiments.runner.run", ClusterHarness, "run"),
    TracePoint("sim.events.run_until", EventLoop, "run_until"),
    TracePoint(
        "workloads.clients.run_interval", ClosedLoopDriver, "run_interval",
        ("queries",), lambda args, submitted: (submitted,),
    ),
    TracePoint("workloads.base.sample_class", Workload, "sample_class"),
    TracePoint(
        "cluster.scheduler.submit", Scheduler, "submit",
        ("writes",), lambda args, record: (args[1].is_write,),
    ),
    TracePoint("cluster.replica.execute", Replica, "execute"),
    TracePoint("engine.engine.execute", DatabaseEngine, "execute"),
    TracePoint(
        "engine.locks.acquire", LockManager, "acquire",
        ("waits",), lambda args, grant: (grant.waited,),
    ),
    TracePoint("engine.executor.execute", QueryExecutor, "execute"),
    TracePoint(
        "engine.query.execute_pages", QueryClass, "execute_pages",
        ("pages",), lambda args, access: (access.total_pages,),
    ),
    TracePoint(
        "engine.bufferpool.access_many", LRUBufferPool, "access_many",
        ("pages", "hits"), _pool_pages,
    ),
    TracePoint(
        "engine.bufferpool.access_many", PartitionedBufferPool, "access_many",
        ("pages", "hits"), _pool_pages,
    ),
    TracePoint(
        "engine.bufferpool.prefetch_many", LRUBufferPool, "prefetch_many",
        ("pages", "fetched"), _pool_pages,
    ),
    TracePoint(
        "engine.bufferpool.prefetch_many", PartitionedBufferPool,
        "prefetch_many", ("pages", "fetched"), _pool_pages,
    ),
    TracePoint(
        "engine.statslog.record_window", EngineLog, "record_window",
        ("pages",), lambda args, _: (len(args[2]),),
    ),
    # Control plane.
    TracePoint("core.controller.close_interval", ClusterController, "close_interval"),
    TracePoint("cluster.scheduler.close_interval", Scheduler, "close_interval"),
    TracePoint(
        "core.analyzer.close_interval", LogAnalyzer, "close_interval",
        ("executions",), _executions,
    ),
    TracePoint("engine.engine.flush_logs", DatabaseEngine, "flush_logs"),
    TracePoint(
        "core.analyzer.detect", LogAnalyzer, "detect",
        ("outlier_contexts",), lambda args, report: (len(report.outlier_contexts()),),
    ),
    TracePoint(
        "core.analyzer.assess_recent_behaviour", LogAnalyzer,
        "assess_recent_behaviour",
    ),
    TracePoint("core.analyzer.recompute_mrc", LogAnalyzer, "recompute_mrc"),
    TracePoint(
        "core.mrc.stack_distances", repro.core.mrc, "stack_distances",
        ("references",), lambda args, _: (len(args[0]),),
    ),
    TracePoint("core.mrc.parameters", MissRatioCurve, "parameters"),
    TracePoint(
        "core.mrc.cache.get", MRCCache, "get",
        ("hits",), lambda args, value: (value is not None,),
    ),
    TracePoint("core.diagnosis.diagnose", repro.core.diagnosis, "diagnose"),
    TracePoint("core.quota.find_quotas", repro.core.quota, "find_quotas"),
    TracePoint("core.controller.apply_action", ClusterController, "apply_action"),
    TracePoint("core.controller.apply_plan", ClusterController, "apply_plan"),
    TracePoint("planner.model.build_snapshot", repro.planner.model, "build_snapshot"),
    TracePoint("planner.search.search_plan", repro.planner.search, "search_plan"),
    TracePoint("forecast.engine.observe_interval", ForecastEngine, "observe_interval"),
    TracePoint("forecast.engine.consider", ForecastEngine, "consider"),
    TracePoint(
        "recovery.supervisor.maybe_checkpoint", ControlPlaneSupervisor,
        "maybe_checkpoint",
        ("checkpoints",), lambda args, checkpoint: (checkpoint is not None,),
    ),
    TracePoint("recovery.supervisor.restart", ControlPlaneSupervisor, "restart"),
)

# Layers every workload must see calls in: the per-query path and the
# interval close.  A rename under src/ then fails the traced run instead of
# silently shrinking the ledger.
DATA_PLANE: tuple[str, ...] = (
    "experiments.runner.run",
    "workloads.clients.run_interval",
    "workloads.base.sample_class",
    "cluster.scheduler.submit",
    "cluster.replica.execute",
    "engine.engine.execute",
    "engine.executor.execute",
    "engine.query.execute_pages",
    "engine.bufferpool.access_many",
    "engine.statslog.record_window",
    "core.controller.close_interval",
    "cluster.scheduler.close_interval",
    "core.analyzer.close_interval",
    "engine.engine.flush_logs",
)

# Layers that only the opt-in workload may reach.
OPT_IN: tuple[str, ...] = (
    "core.controller.apply_plan",
    "planner.model.build_snapshot",
    "planner.search.search_plan",
    "forecast.engine.observe_interval",
    "forecast.engine.consider",
    "recovery.supervisor.maybe_checkpoint",
    "recovery.supervisor.restart",
)

# Counts the recorder reads from public state instead of a call's arguments.
RECORDER_COUNTS: tuple[str, ...] = (
    "sim.events.run_until.events",
    "faults.applied",
    "analysis.quality.tp",
    "analysis.quality.fp",
    "analysis.quality.fn",
)


def install(tracer: Tracer) -> None:
    for point in TRACE_POINTS:
        tracer.patch(
            point.layer, point.owner, point.name, point.count_names, point.count
        )


class _Ratio(NamedTuple):
    name: str
    numerator: str
    denominator: str
    unit: str


# Counts that are reported as a ratio of useful outcomes to attempts (or as a
# rate) instead of raw.
_DERIVED: tuple[_Ratio, ...] = (
    _Ratio(
        "engine.bufferpool.access_many.hit_ratio",
        "engine.bufferpool.access_many.hits",
        "engine.bufferpool.access_many.pages", "ratio",
    ),
    _Ratio(
        "engine.bufferpool.prefetch_many.fetched_ratio",
        "engine.bufferpool.prefetch_many.fetched",
        "engine.bufferpool.prefetch_many.pages", "ratio",
    ),
    _Ratio(
        "core.mrc.cache.get.hit_ratio",
        "core.mrc.cache.get.hits", "core.mrc.cache.get.calls", "ratio",
    ),
    _Ratio(
        "core.mrc.stack_distances.refs_per_s",
        "core.mrc.stack_distances.references",
        "core.mrc.stack_distances.self_s", "1/s",
    ),
)
_RAW_ONLY = {ratio.numerator for ratio in _DERIVED if ratio.unit == "ratio"}


def per_layer_metrics(
    tracer: Tracer, recorder_counts: dict[str, float], wall_s: float
) -> dict[str, float]:
    """Every per-layer metric of one traced run, by name."""
    values: dict[str, float] = {}
    attributed = 0.0
    for layer, (seconds, calls) in tracer.ledger().items():
        values[f"{layer}.self_s"] = seconds
        values[f"{layer}.calls"] = calls
        attributed += seconds
    values.update(tracer.counts)
    values.update(recorder_counts)
    for ratio in _DERIVED:
        base = values[ratio.denominator]
        values[ratio.name] = values[ratio.numerator] / base if base else 0.0
    for name in _RAW_ONLY:
        del values[name]
    values["trace.wall_s"] = wall_s
    values["trace.attributed_share"] = attributed / wall_s
    return values


def per_layer_schema() -> list[dict[str, str]]:
    """The ``per_layer`` block of BENCHMARK.json: name, unit and direction of
    every metric :func:`per_layer_metrics` returns."""
    units: dict[str, str] = {}
    for point in TRACE_POINTS:
        units[f"{point.layer}.self_s"] = "s"
        units[f"{point.layer}.calls"] = "count"
        for name in point.count_names:
            units[f"{point.layer}.{name}"] = "count"
    for name in RECORDER_COUNTS:
        units[name] = "count"
    for ratio in _DERIVED:
        units[ratio.name] = ratio.unit
    for name in _RAW_ONLY:
        del units[name]
    units["trace.wall_s"] = "s"
    units["trace.attributed_share"] = "ratio"
    # Less time and less work are better; a ratio of useful outcomes to
    # attempts, a rate, and detections that were right are better when higher.
    higher = {ratio.name for ratio in _DERIVED} | {
        "analysis.quality.tp", "trace.attributed_share",
    }
    return [
        {
            "name": name,
            "unit": unit,
            "better": "higher" if name in higher else "lower",
        }
        for name, unit in units.items()
    ]
