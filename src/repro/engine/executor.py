"""Query execution against a buffer pool, with an analytic latency model.

One execution of a query class:

1. asks the class's access pattern for its demand and prefetch pages,
2. drives them through the engine's buffer pool (demand accesses count hits
   and misses; prefetch pages count read-ahead I/O),
3. appends the demand pages to the class's recent-access window in the
   engine's statistics log, the vector's only reader, and
4. converts the observed hit/miss mix into a latency using a linear cost
   model scaled by the hosting server's current CPU and I/O contention
   factors.

The execution record carries counters only: the demand vector is let go
when the execution ends, not when the engine's pending records are ingested
at the interval close.

The cost model is deliberately simple — the paper's detection algorithm only
consumes *relative* changes in latency and counters, which a linear model
reproduces faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bufferpool import BufferPool
from .query import QueryClass
from .statslog import EngineLog, ExecutionRecord

__all__ = ["CostModel", "QueryExecutor"]

_new_tuple = tuple.__new__


@dataclass(frozen=True)
class CostModel:
    """Latency coefficients, in seconds.

    ``io_time_per_page`` is the storage service time of one random page read
    on an *unloaded* device; the server's I/O contention factor multiplies
    it.  ``hit_time_per_page`` is the in-memory page-processing cost.
    Read-ahead requests are issued asynchronously and overlap with demand
    work, so they contribute at a discounted ``readahead_overlap`` weight.
    """

    io_time_per_page: float = 0.0025
    hit_time_per_page: float = 0.00002
    readahead_overlap: float = 0.15

    def __post_init__(self) -> None:
        # Written ``not x >= bound`` so that NaN fails each check too.
        if not (self.io_time_per_page >= 0 and self.hit_time_per_page >= 0):
            raise ValueError("cost-model times must be non-negative")
        if not 0 <= self.readahead_overlap <= 1:
            raise ValueError(
                f"readahead overlap must be in [0, 1]: {self.readahead_overlap}"
            )

    def latency(
        self,
        cpu_cost: float,
        hits: int,
        misses: int,
        readahead_fetches: int,
        cpu_factor: float = 1.0,
        io_factor: float = 1.0,
    ) -> float:
        """Latency of one execution given its page-level outcome."""
        if not (cpu_factor >= 1.0 and io_factor >= 1.0):  # NaN fails this too
            raise ValueError("contention factors cannot be below 1.0")
        cpu_component = cpu_cost * cpu_factor
        memory_component = hits * self.hit_time_per_page
        io_component = (
            misses + readahead_fetches * self.readahead_overlap
        ) * self.io_time_per_page * io_factor
        return cpu_component + memory_component + io_component


class QueryExecutor:
    """Runs query classes against one buffer pool and emits execution records.

    Page vectors go through the pool's batched access path in whole-execution
    units, and then into the class's recent-access window in ``log``, in
    execution order.
    """

    def __init__(
        self,
        pool: BufferPool,
        log: EngineLog,
        cost_model: CostModel | None = None,
    ) -> None:
        self.pool = pool
        self.log = log
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.executions = 0

    def execute(
        self,
        query_class: QueryClass,
        timestamp: float = 0.0,
        cpu_factor: float = 1.0,
        io_factor: float = 1.0,
    ) -> ExecutionRecord:
        """Execute one instance of ``query_class`` and return its record.

        The demand vector goes to the log's window as-is — no tuple copy.
        """
        access = query_class.execute_pages()
        demand, prefetch = access.demand, access.prefetch
        key = query_class.context_key
        pool = self.pool
        # Read-ahead is issued first: it anticipates the demand accesses, so
        # prefetched pages are resident by the time the query touches them.
        readahead_fetches = pool.prefetch_many(prefetch, key) if len(prefetch) else 0
        hits = pool.access_many(demand, key)
        page_accesses = len(demand)
        misses = page_accesses - hits
        self.log.record_window(key, demand)
        # CostModel.latency, inline (a frame per query): the same check and
        # the same sums in the same association order, so the same double.
        if not (cpu_factor >= 1.0 and io_factor >= 1.0):  # NaN fails this too
            raise ValueError("contention factors cannot be below 1.0")
        cost = self.cost_model
        latency = (
            query_class.cpu_cost * cpu_factor
            + hits * cost.hit_time_per_page
            + (misses + readahead_fetches * cost.readahead_overlap)
            * cost.io_time_per_page
            * io_factor
        )
        self.executions += 1
        # In ExecutionRecord's field order, lock fields at their defaults,
        # through tuple.__new__: the NamedTuple's own __new__ is a Python
        # function that only forwards its arguments there.
        return _new_tuple(
            ExecutionRecord,
            (
                timestamp,
                key,
                latency,
                page_accesses,
                misses,
                readahead_fetches,
                misses + readahead_fetches,
                0,
                0.0,
            ),
        )
