"""Oracles: page generation one execution at a time.

``ZipfGenerator`` draws ahead a block of uniforms, and ``ZipfPages`` /
``IndexLookup`` generate a block of executions in one numpy pass.  These are
the formulas they replaced — one ``random()`` and one ``searchsorted`` per
scalar rank, one ``random(k)`` per vector of ranks, one ``lookup_path`` and
one ``page_of_row`` per looked-up row — and they are the specification: fed
an equally seeded stream, every execution of a block-served pattern must
equal the same execution here.

:func:`per_execution_twin` turns a *freshly built* pattern tree (one that has
not drawn yet) into its oracle on the very same streams, so a whole workload
can be run both ways from one seed.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.engine.access import (
    AccessPattern,
    CompositePattern,
    ExecutionAccess,
    IndexLookup,
    IndexRangeScan,
    PlanSwitchingPattern,
    ZipfPages,
)
from repro.engine.locks import LockRequest, RowGroupLockPattern
from repro.engine.pages import PageRange
from repro.sim.rng import RandomStream, ZipfGenerator
from repro.workloads.base import Workload

from .locks import requests_per_execution

__all__ = [
    "ZipfOracle",
    "ZipfPagesOracle",
    "IndexLookupOracle",
    "RowGroupLockOracle",
    "per_execution_twin",
    "per_execution_locks",
    "per_execution_workload",
    "assert_interned",
]


class ZipfOracle:
    """``ZipfGenerator`` without draw-ahead: every call draws what it returns."""

    def __init__(self, n: int, theta: float, stream: RandomStream) -> None:
        self.n = n
        self._rng = stream.generator
        self._cdf = np.cumsum(np.arange(1, n + 1, dtype=float) ** (-theta))
        self._cdf /= self._cdf[-1]

    @classmethod
    def replacing(cls, zipf: ZipfGenerator) -> "ZipfOracle":
        """The oracle on ``zipf``'s stream; ``zipf`` must not have drawn yet."""
        assert zipf._state_after_refill is None, "generator has already drawn ahead"
        return cls(zipf.n, zipf.theta, zipf._stream)

    def sample(self) -> int:
        return int(self._cdf.searchsorted(self._rng.random(), "left"))

    def sample_many(self, count: int) -> np.ndarray:
        return self._cdf.searchsorted(self._rng.random(count), "left")


class ZipfPagesOracle(AccessPattern):
    """``ZipfPages`` (and so ``ZipfWorkingSet``): one rank vector per execution."""

    def __init__(
        self, pages_by_rank: np.ndarray, pages_per_execution: int, zipf: ZipfOracle
    ) -> None:
        self._pages_by_rank = pages_by_rank
        self.pages_per_execution = pages_per_execution
        self._zipf = zipf

    def pages_for_execution(self) -> ExecutionAccess:
        ranks = self._zipf.sample_many(self.pages_per_execution)
        return ExecutionAccess(demand=self._pages_by_rank[ranks].tolist())


class IndexLookupOracle(AccessPattern):
    """``IndexLookup``: one scalar rank, one tree walk, one page per row."""

    def __init__(self, pattern: IndexLookup, zipf: ZipfOracle) -> None:
        self._pattern = pattern
        self._zipf = zipf

    def pages_for_execution(self) -> ExecutionAccess:
        pattern = self._pattern
        demand: list[int] = []
        table = pattern.index.table
        for _ in range(pattern.lookups_per_execution):
            row = self._zipf.sample() * max(1, table.row_count // self._zipf.n)
            row = min(row, table.row_count - 1)
            demand.extend(pattern.index.lookup_path(row))
            for offset in range(pattern.rows_per_lookup):
                demand.append(table.page_of_row(min(row + offset, table.row_count - 1)))
        return ExecutionAccess(demand=demand)


class RowGroupLockOracle:
    """``RowGroupLockPattern.requests``: one scalar rank per locked group."""

    def __init__(self, pattern: RowGroupLockPattern, zipf: ZipfOracle) -> None:
        self._pattern = pattern
        self._zipf = zipf

    def requests(self) -> list[LockRequest]:
        return requests_per_execution(self._pattern, self._zipf)


def per_execution_twin(pattern: AccessPattern) -> AccessPattern:
    """``pattern``'s oracle, reading the streams ``pattern`` was built on.

    Patterns that are per-execution in ``src`` already (uniform working sets,
    sequential scans) are returned as they are.
    """
    if isinstance(pattern, CompositePattern):
        return CompositePattern([per_execution_twin(part) for part in pattern.parts])
    if isinstance(pattern, PlanSwitchingPattern):
        return PlanSwitchingPattern(
            pattern._catalog,
            pattern.index_name,
            per_execution_twin(pattern.indexed_plan),
            per_execution_twin(pattern.fallback_plan),
        )
    if isinstance(pattern, ZipfPages):
        return ZipfPagesOracle(
            pattern._pages_by_rank,
            pattern.pages_per_execution,
            ZipfOracle.replacing(pattern._zipf),
        )
    if isinstance(pattern, IndexLookup):
        return IndexLookupOracle(pattern, ZipfOracle.replacing(pattern._zipf))
    if isinstance(pattern, IndexRangeScan):
        # Per-execution in src too; only its start rank is drawn ahead.
        twin = copy.copy(pattern)
        twin._zipf = ZipfOracle.replacing(pattern._zipf)
        return twin
    return pattern


def per_execution_locks(pattern: RowGroupLockPattern) -> RowGroupLockOracle:
    return RowGroupLockOracle(pattern, ZipfOracle.replacing(pattern._zipf))


def per_execution_workload(workload: Workload) -> Workload:
    """Swap every class of a freshly built ``workload`` for its oracle, in place."""
    for query_class in workload.classes():
        query_class.pattern = per_execution_twin(query_class.pattern)
        if isinstance(query_class.lock_pattern, RowGroupLockPattern):
            query_class.lock_pattern = per_execution_locks(query_class.lock_pattern)
    return workload


def assert_interned(pages: list[int], ranges: list[PageRange]) -> None:
    """Every emitted page is a plain ``int`` and the very object its owning
    range hands out — the identity half of the page-generation contract."""
    assert all(type(page) is int for page in pages)
    ranges = sorted(ranges, key=lambda page_range: page_range.start)
    ids = np.asarray(pages, dtype=np.int64)
    owners = np.searchsorted([r.start for r in ranges], ids, side="right") - 1
    assert len(ids) == 0 or owners.min() >= 0, "page below every allocated range"
    for owner in np.unique(owners):
        page_range = ranges[owner]
        mine = owners == owner
        # page_array raises IndexError for a page past the range's end.
        canonical = page_range.page_array(ids[mine] - page_range.start)
        emitted = [page for page, keep in zip(pages, mine) if keep]
        assert all(a is b for a, b in zip(emitted, canonical, strict=True))
