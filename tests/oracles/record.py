"""Oracle: the execution record as a frozen dataclass built by keyword.

``ExecutionRecord`` is a ``NamedTuple`` the executor builds positionally.
This is the type it replaced — the same ten fields and defaults, frozen by
``dataclass`` (whose generated ``__init__`` goes through
``object.__setattr__`` once per field) and built with eight keywords, as
``QueryExecutor.execute`` did.  It is the baseline the query-path
micro-benchmark measures the record against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

__all__ = ["FrozenExecutionRecord", "keyword_built_record"]


@dataclass(frozen=True)
class FrozenExecutionRecord:
    timestamp: float
    context_key: str
    latency: float
    page_accesses: int
    misses: int
    readaheads: int
    io_block_requests: int
    pages: Sequence[int] = ()
    lock_waits: int = 0
    lock_wait_time: float = 0.0


def keyword_built_record(
    timestamp: float, key: str, latency: float, demand: list[int],
    misses: int, readahead_fetches: int,
) -> FrozenExecutionRecord:
    return FrozenExecutionRecord(
        timestamp=timestamp,
        context_key=key,
        latency=latency,
        page_accesses=len(demand),
        misses=misses,
        readaheads=readahead_fetches,
        io_block_requests=misses + readahead_fetches,
        pages=demand,
    )
