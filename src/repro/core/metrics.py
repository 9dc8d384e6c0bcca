"""Metric definitions and per-context metric vectors.

Monitoring operates at three levels (paper §3.3): system metrics per server
(CPU, I/O, memory), application metrics per scheduler (average latency and
throughput for SLA checks), and DBMS metrics per query class.  This module
defines the per-query-class vector the outlier detector consumes; system and
application metrics live with the cluster and scheduler models.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..engine.statslog import ClassIntervalStats

__all__ = ["Metric", "MEMORY_METRICS", "MetricVector", "vector_from_stats"]


class Metric(str, Enum):
    """The per-query-class metrics tracked by the engine instrumentation."""

    LATENCY = "latency"
    THROUGHPUT = "throughput"
    PAGE_ACCESSES = "page_accesses"
    MISSES = "misses"
    READAHEADS = "readaheads"
    IO_BLOCK_REQUESTS = "io_block_requests"
    LOCK_WAITS = "lock_waits"
    LOCK_WAIT_TIME = "lock_wait_time"


MEMORY_METRICS: tuple[Metric, ...] = (
    Metric.PAGE_ACCESSES,
    Metric.MISSES,
    Metric.READAHEADS,
)
"""The memory-related counters that gate MRC recomputation (paper §3.3.2)."""


@dataclass(frozen=True)
class MetricVector:
    """One query context's metric values over one measurement interval."""

    context_key: str
    values: dict[Metric, float]

    def get(self, metric: Metric) -> float:
        return self.values.get(metric, 0.0)

    def ratio_to(self, stable: "MetricVector") -> dict[Metric, float]:
        """Current value divided by the stable-state value, per metric.

        A stable value of zero gets one Laplace pseudo-count: the ratio
        becomes ``(current + 1) / (0 + 1)``, so the inflation scales with
        the absolute change instead of a flat cap.  A class whose misses
        drift 0 -> 3 reads 4.0 — inside any reasonable fence — while a
        genuine surge 0 -> 20 000 still lands far outside every fence,
        which is what kills the collateral IQR flags on classes with
        near-zero stable misses.  Non-zero stable values keep the exact
        ``current / base`` ratio.
        """
        ratios: dict[Metric, float] = {}
        for metric, current in self.values.items():
            base = stable.get(metric)
            if base > 0:
                ratios[metric] = current / base
            elif current > 0:
                ratios[metric] = current + 1.0  # Laplace: (current+1)/(0+1)
            else:
                ratios[metric] = 1.0  # 0/0: unchanged
        return ratios


def vector_from_stats(
    stats: ClassIntervalStats, interval_length: float
) -> MetricVector:
    """Convert an engine-log interval accumulator to a metric vector."""
    if interval_length <= 0:
        raise ValueError(f"interval length must be positive: {interval_length}")
    return MetricVector(
        context_key=stats.context_key,
        values={
            Metric.LATENCY: stats.mean_latency,
            Metric.THROUGHPUT: stats.throughput(interval_length),
            Metric.PAGE_ACCESSES: float(stats.page_accesses),
            Metric.MISSES: float(stats.misses),
            Metric.READAHEADS: float(stats.readaheads),
            Metric.IO_BLOCK_REQUESTS: float(stats.io_block_requests),
            Metric.LOCK_WAITS: float(stats.lock_waits),
            Metric.LOCK_WAIT_TIME: stats.lock_wait_time,
        },
    )
