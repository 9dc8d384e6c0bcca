"""Database replicas: one engine instance bound to a host.

A replica is the unit the resource manager allocates and the scheduler
routes to.  Its *host* is either a bare-metal :class:`PhysicalServer` or a
:class:`VirtualMachine`; both expose the same demand/contention interface,
so the replica does not care which it runs on.

Replica creation and placement changes pay a *warm-up* penalty: a freshly
placed query class starts with a cold partition/pool, which the buffer-pool
simulation produces naturally (new pools start empty).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..engine.engine import DatabaseEngine, EngineConfig
from ..engine.executor import CostModel
from ..engine.query import QueryClass
from ..engine.statslog import ExecutionRecord

__all__ = ["Host", "Replica", "ReplicaOfflineError"]


class ReplicaOfflineError(RuntimeError):
    """An execution was routed to a replica that is (silently) offline.

    Subclasses :class:`RuntimeError` so callers that treated the old
    generic error keep working; the scheduler catches this specifically to
    drive its mark-down and retry-with-backoff reaction.
    """


@runtime_checkable
class Host(Protocol):
    """What a replica needs from whatever machine hosts it."""

    name: str

    def note_demand(self, cpu_seconds: float, io_pages: float) -> None: ...

    @property
    def cpu_factor(self) -> float: ...

    @property
    def io_factor(self) -> float: ...

    @property
    def memory_pages(self) -> int: ...


class Replica:
    """One copy of an application's database, served by one engine."""

    def __init__(self, name: str, app: str, host: Host, engine: DatabaseEngine) -> None:
        self.name = name
        self.app = app
        self.host = host
        self.engine = engine
        self.applied_writes = 0
        self.online = True

    @classmethod
    def create(
        cls,
        name: str,
        app: str,
        host: Host,
        pool_pages: int = 8192,
        engine: DatabaseEngine | None = None,
        cost_model: CostModel | None = None,
    ) -> "Replica":
        """Build a replica with a fresh engine unless one is supplied
        (co-locating several applications inside a single engine passes the
        shared engine explicitly)."""
        if engine is None:
            config = EngineConfig(
                name=f"{name}-engine",
                pool_pages=pool_pages,
                cost_model=cost_model if cost_model is not None else CostModel(),
            )
            engine = DatabaseEngine(config)
        return cls(name=name, app=app, host=host, engine=engine)

    def execute(self, query_class: QueryClass, timestamp: float) -> ExecutionRecord:
        """Run one query here, charging demand to the host."""
        if not self.online:
            raise ReplicaOfflineError(f"replica {self.name!r} is offline")
        host = self.host
        record = self.engine.execute(
            query_class, timestamp, host.cpu_factor, host.io_factor
        )
        host.note_demand(query_class.cpu_cost, record.io_block_requests)
        return record

    def apply_write(self, sequence: int) -> None:
        """Apply one replicated write (in submission order)."""
        expected = self.applied_writes + 1
        if sequence != expected:
            raise ValueError(
                f"replica {self.name!r} expected write #{expected}, "
                f"got #{sequence} — writes must apply in order"
            )
        self.applied_writes = sequence

    def fail(self) -> None:
        """Take the replica offline (failure injection)."""
        self.online = False

    def recover(self, reset_pool: bool = True) -> None:
        """Bring the replica back online.

        By default the engine's buffer pool (and its :class:`PoolStats`)
        restart **cold**: a crashed machine's memory did not survive, so
        post-failure miss-ratio windows must begin from an empty pool —
        the paper's cold-partition assumption.  Pass ``reset_pool=False``
        only to model a transient network partition where the DBMS process
        itself never died.  Note that co-located applications sharing this
        engine lose their cached pages too, which is exactly what a
        machine-level failure does.
        """
        self.online = True
        if reset_pool:
            self.engine.reset_pool()
