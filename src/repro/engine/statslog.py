"""Lightweight per-query-class statistics logging.

The paper instruments MySQL so that each worker thread logs into a *private*
buffer, so that the threads do not contend on a lock, and flushes it to the
engine-level log.  Per query class the engine tracks: latency, throughput,
buffer-pool misses, page accesses, I/O block requests, read-ahead requests,
and a window of the most recent page accesses.

The simulator runs one thread, so it keeps one pending record list per
engine (:class:`~repro.engine.engine.DatabaseEngine`) and hands it over at
each interval close.  Every close takes every record, so the per-class
accumulators are what per-thread buffers would give, up to the order in
which float fields are summed.  This module holds the rest of the pipeline:

* :class:`EngineLog` — the per-engine sink aggregating the interval's
  records into per-class accumulators, and keeping the per-class access
  windows, and
* :class:`ClassIntervalStats` — the aggregate handed to the log analyzer at
  each measurement-interval boundary.

The two halves travel separately.  An :class:`ExecutionRecord` carries
counters only, so the pending list holds no page vectors; the demand vector
reaches the class's window through :meth:`EngineLog.record_window` at
execution time, in true execution order, and is let go there.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..sim.trace import AccessWindow

__all__ = ["ExecutionRecord", "ClassIntervalStats", "EngineLog"]


class ExecutionRecord(NamedTuple):
    """One query execution as seen by the instrumentation layer.

    An immutable value built once per query, hence a tuple: the executor
    builds it positionally through ``tuple.__new__`` (field order is pinned
    by a test) and the two places that amend one use ``_replace``.
    """

    timestamp: float
    context_key: str
    latency: float
    page_accesses: int
    misses: int
    readaheads: int
    io_block_requests: int
    lock_waits: int = 0
    lock_wait_time: float = 0.0


@dataclass
class ClassIntervalStats:
    """Per-query-class accumulator over one measurement interval."""

    context_key: str
    executions: int = 0
    total_latency: float = 0.0
    page_accesses: int = 0
    misses: int = 0
    readaheads: int = 0
    io_block_requests: int = 0
    lock_waits: int = 0
    lock_wait_time: float = 0.0

    def absorb(self, record: ExecutionRecord) -> None:
        self.executions += 1
        self.total_latency += record.latency
        self.page_accesses += record.page_accesses
        self.misses += record.misses
        self.readaheads += record.readaheads
        self.io_block_requests += record.io_block_requests
        self.lock_waits += record.lock_waits
        self.lock_wait_time += record.lock_wait_time

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.executions if self.executions else 0.0

    def throughput(self, interval_length: float) -> float:
        if interval_length <= 0:
            raise ValueError(f"interval length must be positive: {interval_length}")
        return self.executions / interval_length

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.page_accesses if self.page_accesses else 0.0


class EngineLog:
    """Per-engine statistics sink and per-class recent-access windows."""

    def __init__(self, window_capacity: int = 200_000) -> None:
        self.window_capacity = window_capacity
        self._current: dict[str, ClassIntervalStats] = {}
        self._windows: dict[str, AccessWindow] = {}

    def ingest(self, records: list[ExecutionRecord]) -> None:
        """Absorb one interval's records, in execution order (counter
        aggregation only).

        Page-access windows are *not* fed here: the records arrive in one
        batch at the close, after the interval's accesses.  The executor
        records windows as each execution ends via :meth:`record_window`.
        """
        for record in records:
            stats = self._current.get(record.context_key)
            if stats is None:
                stats = ClassIntervalStats(record.context_key)
                self._current[record.context_key] = stats
            stats.absorb(record)

    def record_window(
        self, context_key: str, pages: Sequence[int] | np.ndarray
    ) -> None:
        """Append one execution's demand pages to the context's window, in
        true execution order; the executor calls it as the execution ends.
        Accepts any page vector — list, tuple, or ndarray — and hands it to
        the window in one call."""
        if len(pages):
            window = self._windows.get(context_key)
            if window is None:
                window = self.window_for(context_key)
            window.record_many(pages)

    def window_for(self, context_key: str) -> AccessWindow:
        """The recent-page-access window of one query context."""
        window = self._windows.get(context_key)
        if window is None:
            window = AccessWindow(self.window_capacity)
            self._windows[context_key] = window
        return window

    def has_window(self, context_key: str) -> bool:
        return context_key in self._windows and len(self._windows[context_key]) > 0

    def interval_snapshot(self) -> dict[str, ClassIntervalStats]:
        """Return and reset the per-class accumulators for the ending interval.

        Access windows are *not* reset: the MRC store wants continuity of
        recent history across intervals.
        """
        snapshot = self._current
        self._current = {}
        return snapshot

    def context_keys(self) -> list[str]:
        return sorted(set(self._current) | set(self._windows))
