"""Table 1: hit ratios of shared / partitioned / exclusive buffer pools.

The paper demonstrates the quota action with a buffer-pool simulator driven
by per-query-class page traces: after the ``O_DATE`` drop the pool is split
into one partition for BestSeller (sized by its recomputed MRC) and one for
everything else.  The headline shape:

* BestSeller's hit ratio is essentially unchanged across shared /
  partitioned / exclusive (95.5 / 95.7 / 96.1 % in the paper) — a quota
  costs it nothing, and
* the non-BestSeller hit ratio improves markedly under partitioning
  (96.2 → 99.5 %), approaching its exclusive-pool ideal (99.9 %) —
  partitioning on a single replica matches the performance of isolating
  BestSeller on a second machine while using half the hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.mrc import MissRatioCurve
from ..core.quota import find_quotas
from ..engine.bufferpool import BufferPool, LRUBufferPool, PartitionedBufferPool
from ..sim.rng import SeedSequenceFactory
from ..workloads.base import Workload
from ..workloads.tpcw import BEST_SELLER, O_DATE_INDEX, build_tpcw
from .results import BufferPartitioningResult

__all__ = ["BufferPartitioningConfig", "run_buffer_partitioning"]

POOL_PAGES = 8192


@dataclass(frozen=True)
class BufferPartitioningConfig:
    """Tunables of the trace replay."""

    executions: int = 3000
    warmup_executions: int = 1500
    pool_pages: int = POOL_PAGES
    seed: int = 7
    quota_pages: int | None = None  # None = derive from BestSeller's MRC


def _execution_schedule(workload: Workload, executions: int, seed: int) -> list[str]:
    """A deterministic mix-weighted sequence of class names."""
    seeds = SeedSequenceFactory(seed * 1009 + 17)
    stream = seeds.stream("table1-mix")
    return [workload.sample_class(stream).name for _ in range(executions)]


def _replay(
    workload: Workload,
    schedule: list[str],
    pool_for: dict[str, BufferPool],
    warmup: int = 0,
) -> dict[str, tuple[int, int]]:
    """Replay the schedule; returns per-group (hits, demand accesses).

    ``pool_for`` maps a class *group* ("bestseller" / "rest") to the pool
    serving it; groups may share one pool object (the shared scenario) or
    use separate ones (exclusive).  Prefetch precedes demand, as in the
    engine executor.  The first ``warmup`` executions populate the pool but
    are excluded from the measured hit ratios (the paper reports steady
    state, not cold-start behaviour).
    """
    outcome = {group: [0, 0] for group in set(_group(n) for n in schedule)}
    for index, name in enumerate(schedule):
        query_class = workload.class_named(name)
        group = _group(name)
        pool = pool_for[group]
        access = query_class.execute_pages()
        if access.prefetch:
            pool.prefetch_many(access.prefetch, group)
        hits = pool.access_many(access.demand, group)
        if index >= warmup:
            outcome[group][0] += hits
            outcome[group][1] += len(access.demand)
    return {group: (hits, total) for group, (hits, total) in outcome.items()}


def _group(class_name: str) -> str:
    return "bestseller" if class_name == BEST_SELLER else "rest"


def _hit_ratio(stats: dict[str, tuple[int, int]], group: str) -> float:
    hits, total = stats.get(group, (0, 0))
    return hits / total if total else 1.0


def derive_quota(config: BufferPartitioningConfig) -> int:
    """BestSeller's partition size via the paper's quota search.

    Every class's MRC parameters are estimated from a short trace, and the
    quota search hands BestSeller whatever the pool can spare after covering
    the other classes' acceptable needs — exactly what the on-line diagnosis
    does when it enforces the quota.
    """
    workload = build_tpcw(seed=config.seed)
    workload.catalog.drop(O_DATE_INDEX)

    def params_of(query_class, executions):
        pages: list[int] = []
        for _ in range(executions):
            pages.extend(query_class.execute_pages().demand)
        curve = MissRatioCurve.from_trace(np.asarray(pages, dtype=np.int64))
        return curve.parameters(config.pool_pages)

    problem = {}
    others = {}
    for query_class in workload.classes():
        if query_class.name == BEST_SELLER:
            problem[query_class.name] = params_of(query_class, 60)
        else:
            others[query_class.name] = params_of(query_class, 150)
    plan = find_quotas(problem, others, config.pool_pages, min_quota=256)
    if not plan.feasible:
        return max(256, problem[BEST_SELLER].acceptable_memory)
    return plan.quotas[BEST_SELLER]


def run_buffer_partitioning(
    config: BufferPartitioningConfig | None = None,
) -> BufferPartitioningResult:
    """Replay the degraded TPC-W trace under the three pool organisations."""
    config = config if config is not None else BufferPartitioningConfig()
    quota = config.quota_pages
    if quota is None:
        quota = derive_quota(config)
    quota = min(quota, config.pool_pages - 1)

    def fresh_workload() -> Workload:
        workload = build_tpcw(seed=config.seed)
        workload.catalog.drop(O_DATE_INDEX)
        return workload

    result = BufferPartitioningResult(quota_pages=quota)

    # Shared: one LRU pool serves everything.
    workload = fresh_workload()
    schedule = _execution_schedule(
        workload, config.warmup_executions + config.executions, config.seed
    )
    shared_pool = LRUBufferPool(config.pool_pages)
    stats = _replay(
        workload,
        schedule,
        {"bestseller": shared_pool, "rest": shared_pool},
        warmup=config.warmup_executions,
    )
    result.shared_bestseller = _hit_ratio(stats, "bestseller")
    result.shared_rest = _hit_ratio(stats, "rest")

    # Partitioned: BestSeller pinned to its quota, the rest shares the rest.
    workload = fresh_workload()
    partitioned = PartitionedBufferPool(config.pool_pages, quotas={"bs": quota})
    partitioned.assign("bestseller", "bs")
    stats = _replay(
        workload,
        schedule,
        {"bestseller": partitioned, "rest": partitioned},
        warmup=config.warmup_executions,
    )
    result.partitioned_bestseller = _hit_ratio(stats, "bestseller")
    result.partitioned_rest = _hit_ratio(stats, "rest")

    # Exclusive: each group gets the whole pool to itself (the ideal, which
    # is what isolating BestSeller on a second replica would achieve).
    workload = fresh_workload()
    stats = _replay(
        workload,
        schedule,
        {
            "bestseller": LRUBufferPool(config.pool_pages),
            "rest": LRUBufferPool(config.pool_pages),
        },
        warmup=config.warmup_executions,
    )
    result.exclusive_bestseller = _hit_ratio(stats, "bestseller")
    result.exclusive_rest = _hit_ratio(stats, "rest")
    return result
