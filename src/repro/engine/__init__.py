"""Storage-engine substrate: pages, buffer pools, indexes, queries, logging."""

from .access import (
    AccessPattern,
    CompositePattern,
    ExecutionAccess,
    IndexLookup,
    IndexRangeScan,
    PlanSwitchingPattern,
    SequentialChunkScan,
    UniformWorkingSet,
    ZipfWorkingSet,
)
from .bufferpool import (
    BufferPool,
    LRUBufferPool,
    PartitionedBufferPool,
    PoolStats,
)
from .engine import DEFAULT_POOL_PAGES, DatabaseEngine, EngineConfig
from .executor import CostModel, QueryExecutor
from .indexes import BTreeIndex, IndexCatalog
from .locks import (
    LockGrant,
    LockManager,
    LockMode,
    LockRequest,
    LockStats,
    RowGroupLockPattern,
    WaitsForGraph,
)
from .pages import PAGE_SIZE_BYTES, PageRange, PageSpaceAllocator
from .query import QueryClass, QueryClassRegistry
from .statslog import ClassIntervalStats, EngineLog, ExecutionRecord
from .tables import Schema, Table

__all__ = [
    "AccessPattern",
    "BTreeIndex",
    "BufferPool",
    "ClassIntervalStats",
    "CompositePattern",
    "CostModel",
    "DEFAULT_POOL_PAGES",
    "DatabaseEngine",
    "EngineConfig",
    "EngineLog",
    "ExecutionAccess",
    "ExecutionRecord",
    "IndexCatalog",
    "LockGrant",
    "LockManager",
    "LockMode",
    "LockRequest",
    "LockStats",
    "IndexLookup",
    "IndexRangeScan",
    "LRUBufferPool",
    "PAGE_SIZE_BYTES",
    "PageRange",
    "PageSpaceAllocator",
    "PartitionedBufferPool",
    "PlanSwitchingPattern",
    "PoolStats",
    "QueryClass",
    "RowGroupLockPattern",
    "WaitsForGraph",
    "QueryClassRegistry",
    "QueryExecutor",
    "Schema",
    "SequentialChunkScan",
    "Table",
    "UniformWorkingSet",
    "ZipfWorkingSet",
]
