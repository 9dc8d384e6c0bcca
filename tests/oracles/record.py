"""Oracles: the execution record as it was built, and as it travelled.

``ExecutionRecord`` is a ``NamedTuple`` the executor builds positionally and
that carries counters only.  Two formulations it replaced:

* :class:`FrozenExecutionRecord` — the same fields and defaults, frozen by
  ``dataclass`` (whose generated ``__init__`` goes through
  ``object.__setattr__`` once per field) and built by keyword, as
  ``QueryExecutor.execute`` did.  It is the baseline the query-path
  micro-benchmark measures the record against.
* :class:`PagedExecutionRecord` — the record while it still carried the
  execution's demand vector into the engine's pending records, where the
  vector lived on, unread, until the interval close flushed and freed it.
  It is the baseline the interval-close micro-benchmark flushes against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

__all__ = ["FrozenExecutionRecord", "PagedExecutionRecord", "keyword_built_record"]


@dataclass(frozen=True)
class FrozenExecutionRecord:
    timestamp: float
    context_key: str
    latency: float
    page_accesses: int
    misses: int
    readaheads: int
    io_block_requests: int
    lock_waits: int = 0
    lock_wait_time: float = 0.0


class PagedExecutionRecord(NamedTuple):
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
    )
