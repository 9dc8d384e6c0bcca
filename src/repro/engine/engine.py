"""The database engine facade.

A :class:`DatabaseEngine` bundles everything one DBMS instance owns in the
paper's architecture: a buffer pool (shared or quota-partitioned), an index
catalog, the interval's pending execution records, and the engine-level
statistics log the per-server log analyzer reads.

Several engines can run inside one VM, and several applications can run
inside one engine sharing its buffer pool — the configuration that produces
the paper's Table 2 memory-contention scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bufferpool import BufferPool, LRUBufferPool, PartitionedBufferPool
from .executor import CostModel, QueryExecutor
from .indexes import IndexCatalog
from .locks import LockManager
from .query import QueryClass
from .statslog import EngineLog, ExecutionRecord

__all__ = ["EngineConfig", "DatabaseEngine"]

DEFAULT_POOL_PAGES = 8192
"""128 MiB of 16 KiB pages — the paper's per-instance buffer-pool size."""


@dataclass(frozen=True)
class EngineConfig:
    """Static configuration of one engine instance."""

    name: str
    pool_pages: int = DEFAULT_POOL_PAGES
    window_capacity: int = 150_000
    cost_model: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.pool_pages <= 0:
            raise ValueError(f"pool pages must be positive: {self.pool_pages}")
        if self.window_capacity <= 0:
            raise ValueError(
                f"window capacity must be positive: {self.window_capacity}"
            )


class DatabaseEngine:
    """One simulated DBMS instance."""

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        self.name = config.name
        self.catalog = IndexCatalog()
        self.locks = LockManager()
        self.log = EngineLog(window_capacity=config.window_capacity)
        self._quotas: dict[str, int] = {}
        self.pool: BufferPool = LRUBufferPool(config.pool_pages)
        self.executor = QueryExecutor(self.pool, self.log, config.cost_model)
        self._records: list[ExecutionRecord] = []
        self.apps: set[str] = set()

    # ------------------------------------------------------------------ #
    # Execution                                                          #
    # ------------------------------------------------------------------ #

    def execute(
        self,
        query_class: QueryClass,
        timestamp: float = 0.0,
        cpu_factor: float = 1.0,
        io_factor: float = 1.0,
    ) -> ExecutionRecord:
        """Execute one query and keep its record for the interval close.

        The executor has already appended the demand pages to the class's
        access window; the pending list takes the counters only.
        """
        self.apps.add(query_class.app)
        record = self.executor.execute(query_class, timestamp, cpu_factor, io_factor)
        if query_class.lock_pattern is not None:
            # Strict 2PL: locks are held for the execution's duration, so a
            # slow query (or one locking broad ranges) stalls everything that
            # collides with it inside that window.
            grant = self.locks.acquire(
                record.context_key,
                query_class.lock_pattern.requests(),
                timestamp,
                record.latency,
            )
            if grant.wait_time:  # positive exactly when it waited
                record = record._replace(
                    latency=record.latency + grant.wait_time,
                    lock_waits=1,
                    lock_wait_time=grant.wait_time,
                )
        self._records.append(record)
        return record

    def flush_logs(self) -> None:
        """Hand the interval's pending records to the engine log, in
        execution order, and start a new list.

        Called at measurement-interval boundaries so the log analyzer sees a
        complete picture of the interval.
        """
        records = self._records
        self._records = []
        self.log.ingest(records)

    # ------------------------------------------------------------------ #
    # Buffer-pool reconfiguration (the paper's quota-enforcement action)  #
    # ------------------------------------------------------------------ #

    @property
    def quotas(self) -> dict[str, int]:
        """Current per-context buffer-pool quotas (empty = shared pool)."""
        return dict(self._quotas)

    def set_quota(self, context_key: str, pages: int) -> None:
        """Pin ``context_key`` to a dedicated buffer-pool partition.

        Rebuilds the pool in partitioned form.  Resident pages are discarded
        (a repartitioned pool restarts cold), which models the warm-up cost
        the paper discusses for placement and quota changes.
        """
        if pages <= 0:
            raise ValueError(f"quota must be positive: {pages}")
        if pages >= self.config.pool_pages:
            raise ValueError(
                f"quota of {pages} pages cannot consume the whole "
                f"{self.config.pool_pages}-page pool"
            )
        self._rebuild_pool({**self._quotas, context_key: pages})

    def clear_quota(self, context_key: str) -> None:
        """Remove one context's quota; the pool reverts to shared if none remain."""
        self._rebuild_pool(
            {key: pages for key, pages in self._quotas.items() if key != context_key}
        )

    def reset_pool(self) -> None:
        """Discard every resident page and all pool counters (crash restart).

        The pool organisation survives — existing quotas are re-imposed on
        the rebuilt pool — but residency and :class:`PoolStats` start from
        zero, so hit ratios and MRC windows measured after a failure are
        not flattered by warm pre-crash state.
        """
        self._rebuild_pool(self._quotas)

    def _rebuild_pool(self, quotas: dict[str, int]) -> None:
        """Build a cold pool for ``quotas`` and only then adopt both, so a
        quota map the pool refuses leaves the engine as it was."""
        if quotas:
            pool: BufferPool = PartitionedBufferPool(
                self.config.pool_pages, quotas=quotas
            )
            for context_key in quotas:
                pool.assign(context_key, context_key)
        else:
            pool = LRUBufferPool(self.config.pool_pages)
        self._quotas = dict(quotas)
        self.pool = pool
        self.executor = QueryExecutor(pool, self.log, self.config.cost_model)

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    @property
    def pool_pages(self) -> int:
        return self.config.pool_pages
