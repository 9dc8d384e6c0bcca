"""Access-pattern generators: the page-reference behaviour of query classes.

Every query class owns an :class:`AccessPattern` that, per execution,
produces the list of *demand* pages it references and the *prefetch* pages
the engine reads ahead on its behalf.  The patterns capture the locality
structure that the paper's experiments hinge on:

* index lookups touch a short, highly reusable page path (root/internal
  pages are shared by every execution);
* Zipf-skewed references over a working set produce the classic convex
  miss-ratio curve with a knee at the working-set size;
* cyclic sequential scans are the LRU-pathological case — a flat miss-ratio
  curve near 1 until the entire footprint fits in memory — which is exactly
  what the un-indexed BestSeller and the I/O-hungry SearchItemsByRegion
  degenerate into.

Patterns whose executions are a few dozen pages long (:class:`ZipfPages`,
:class:`IndexLookup`) derive from :class:`BlockServedPattern`: they draw, map
and translate about :data:`BLOCK_PAGES` pages' worth of executions in one numpy
pass and hand each execution a slice of the resulting list, because at that
size numpy's per-call overhead, not the arithmetic, is the cost.  This is
invisible to every seeded artefact as long as each pattern is the only
consumer of its stream (see :class:`~repro.sim.rng.ZipfGenerator`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sim.rng import RandomStream, ZipfGenerator
from .indexes import BTreeIndex, IndexCatalog
from .pages import PageRange

__all__ = [
    "ExecutionAccess",
    "AccessPattern",
    "BlockServedPattern",
    "ZipfPages",
    "ZipfWorkingSet",
    "UniformWorkingSet",
    "SequentialChunkScan",
    "IndexLookup",
    "IndexRangeScan",
    "PlanSwitchingPattern",
    "CompositePattern",
]


BLOCK_PAGES = 1024
"""Pages a :class:`BlockServedPattern` generates ahead (at least one execution)."""


@dataclass(slots=True)
class ExecutionAccess:
    """Page references produced by one execution of a query."""

    demand: list[int] = field(default_factory=list)
    prefetch: list[int] = field(default_factory=list)

    @property
    def total_pages(self) -> int:
        return len(self.demand) + len(self.prefetch)


class AccessPattern:
    """Interface: produce the page references of one query execution."""

    def pages_for_execution(self) -> ExecutionAccess:
        raise NotImplementedError


class BlockServedPattern(AccessPattern):
    """Executions of a fixed page count, generated a block at a time.

    Subclasses implement :meth:`_generate`; executions are handed out first
    in, first out, so execution *k* receives exactly the pages it would have
    received had each execution been generated on its own.
    """

    def __init__(self, pages_per_execution: int) -> None:
        self._width = pages_per_execution
        self._block_executions = max(1, BLOCK_PAGES // pages_per_execution)
        self._block: list[int] = []
        self._next = 0

    def _generate(self, executions: int) -> list[int]:
        """The pages of the next ``executions`` executions, concatenated."""
        raise NotImplementedError

    def pages_for_execution(self) -> ExecutionAccess:
        start = self._next
        if start == len(self._block):
            self._block = self._generate(self._block_executions)
            start = 0
        self._next = end = start + self._width
        return ExecutionAccess(self._block[start:end])


class ZipfPages(BlockServedPattern):
    """Zipf-skewed references over a page vector ordered by popularity rank."""

    def __init__(
        self,
        pages_by_rank: np.ndarray,
        theta: float,
        pages_per_execution: int,
        stream: RandomStream,
    ) -> None:
        if pages_per_execution <= 0:
            raise ValueError(f"pages per execution must be positive: {pages_per_execution}")
        super().__init__(pages_per_execution)
        self.pages_per_execution = pages_per_execution
        # Boxed once (a no-op for a range's own objects): every execution
        # then emits these ints, not fresh equal ones.
        self._pages_by_rank = pages_by_rank.astype(object, copy=False)
        self._zipf = ZipfGenerator(len(pages_by_rank), theta, stream)

    def _generate(self, executions: int) -> list[int]:
        ranks = self._zipf.sample_many(executions * self.pages_per_execution)
        return self._pages_by_rank[ranks].tolist()


class ZipfWorkingSet(ZipfPages):
    """Zipf-skewed references over a working set of pages.

    The working set is a deterministic pseudo-random permutation of a slice
    of the underlying page range, so rank-0 popularity does not correlate
    with physical adjacency.
    """

    def __init__(
        self,
        pages: PageRange,
        working_set: int,
        theta: float,
        pages_per_execution: int,
        stream: RandomStream,
    ) -> None:
        if working_set <= 0 or working_set > pages.count:
            raise ValueError(
                f"working set {working_set} outside (0, {pages.count}] "
                f"for range {pages.name!r}"
            )
        self.working_set = working_set
        layout = list(range(working_set))
        stream.shuffle(layout)
        # Rank -> page id, translated (and bounds-checked) once for every
        # page the pattern can ever emit.
        super().__init__(
            pages.page_array(np.asarray(layout, dtype=np.int64)),
            theta,
            pages_per_execution,
            stream,
        )


class UniformWorkingSet(AccessPattern):
    """Uniform references over a working set — a linear miss-ratio curve."""

    def __init__(
        self,
        pages: PageRange,
        working_set: int,
        pages_per_execution: int,
        stream: RandomStream,
    ) -> None:
        if working_set <= 0 or working_set > pages.count:
            raise ValueError(
                f"working set {working_set} outside (0, {pages.count}]"
            )
        if pages_per_execution <= 0:
            raise ValueError(f"pages per execution must be positive: {pages_per_execution}")
        # Offsets are drawn from [0, working_set) and working_set fits the
        # range (checked above), so executions translate without re-checking.
        self._pages = pages.page_ids[:working_set]
        self.working_set = working_set
        self.pages_per_execution = pages_per_execution
        self._stream = stream

    def pages_for_execution(self) -> ExecutionAccess:
        offsets = self._stream.integers_array(
            0, self.working_set, self.pages_per_execution
        )
        return ExecutionAccess(demand=self._pages[offsets].tolist())


class SequentialChunkScan(AccessPattern):
    """A cyclic sequential scan consuming ``chunk`` pages per execution.

    Each execution continues where the previous one stopped and wraps at the
    end of the region; the engine issues ``readahead`` pages of prefetch
    beyond the chunk.  Against LRU this pattern yields (almost) no reuse
    until the whole region is resident.
    """

    def __init__(
        self,
        pages: PageRange,
        chunk: int,
        readahead: int = 32,
        region: int | None = None,
    ) -> None:
        if chunk <= 0:
            raise ValueError(f"scan chunk must be positive: {chunk}")
        if readahead < 0:
            raise ValueError(f"readahead must be non-negative: {readahead}")
        self.region = pages.count if region is None else min(region, pages.count)
        if self.region <= 0:
            raise ValueError(f"scan region must be positive: {self.region}")
        # Offsets are taken modulo region and region fits the range (clamped
        # above), so executions translate without re-checking.
        self._pages = pages.page_ids[: self.region]
        self.chunk = min(chunk, self.region)
        self.readahead = readahead
        self._cursor = 0
        self._chunk_steps = np.arange(self.chunk, dtype=np.int64)
        self._readahead_steps = np.arange(
            min(self.readahead, self.region), dtype=np.int64
        )

    def pages_for_execution(self) -> ExecutionAccess:
        demand = self._pages[
            (self._cursor + self._chunk_steps) % self.region
        ].tolist()
        self._cursor = (self._cursor + self.chunk) % self.region
        # Sequential read-ahead covers the chunk being scanned plus a
        # look-ahead beyond it: the engine recognises the sequential pattern
        # and fetches ahead of the scan cursor, so the demand accesses
        # themselves land as buffer-pool hits while the I/O shows up as
        # read-ahead block requests (the Figure 4(d) signature).
        prefetch = list(demand)
        if len(self._readahead_steps):
            prefetch.extend(
                self._pages[
                    (self._cursor + self._readahead_steps) % self.region
                ].tolist()
            )
        return ExecutionAccess(demand=demand, prefetch=prefetch)


class IndexLookup(BlockServedPattern):
    """Point lookups through a B+-tree followed by data-page fetches."""

    def __init__(
        self,
        index: BTreeIndex,
        stream: RandomStream,
        lookups_per_execution: int = 1,
        rows_per_lookup: int = 1,
        key_theta: float = 0.6,
        key_space: int | None = None,
    ) -> None:
        if lookups_per_execution <= 0:
            raise ValueError("lookups per execution must be positive")
        if rows_per_lookup <= 0:
            raise ValueError("rows per lookup must be positive")
        super().__init__(
            lookups_per_execution * (len(index.lookup_path(0)) + rows_per_lookup)
        )
        self.index = index
        self.lookups_per_execution = lookups_per_execution
        self.rows_per_lookup = rows_per_lookup
        # Keys map to rows directly; skew comes from the Zipf ranks.
        row_count = index.table.row_count
        space = row_count if key_space is None else min(key_space, row_count)
        self._zipf = ZipfGenerator(space, key_theta, stream)
        self._row_stride = max(1, row_count // space)
        self._row_offsets = np.arange(rows_per_lookup, dtype=np.int64)

    def _generate(self, executions: int) -> list[int]:
        table = self.index.table
        last_row = table.row_count - 1
        ranks = self._zipf.sample_many(executions * self.lookups_per_execution)
        rows = np.minimum(ranks * self._row_stride, last_row)
        path = self.index.lookup_path_columns(rows)
        data = table.page_of_row_array(
            np.minimum(rows[:, None] + self._row_offsets, last_row)
        )
        # One row per lookup: root, internals, leaf, then the data pages.
        return np.concatenate((path, data), axis=1).ravel().tolist()


class IndexRangeScan(AccessPattern):
    """Range predicates served from index leaves plus matching data pages."""

    def __init__(
        self,
        index: BTreeIndex,
        stream: RandomStream,
        row_span: int,
        start_theta: float = 0.8,
        data_page_fraction: float = 0.25,
    ) -> None:
        if row_span <= 0:
            raise ValueError(f"row span must be positive: {row_span}")
        if not 0 <= data_page_fraction <= 1:
            raise ValueError("data page fraction must be in [0, 1]")
        self.index = index
        self.row_span = row_span
        self.data_page_fraction = data_page_fraction
        starts = max(1, index.table.row_count - row_span)
        self._zipf = ZipfGenerator(starts, start_theta, stream)

    def pages_for_execution(self) -> ExecutionAccess:
        start = self._zipf.sample()
        demand = self.index.range_path(start, self.row_span)
        table = self.index.table
        matched_pages = max(1, int(self.row_span / table.rows_per_page))
        fetch = max(1, int(matched_pages * self.data_page_fraction))
        first_page = table.page_of_row(start) - table.pages.start
        demand.extend(table.scan_pages(first_page, fetch))
        return ExecutionAccess(demand=demand)


class PlanSwitchingPattern(AccessPattern):
    """Chooses between an indexed plan and a fallback plan at each execution.

    This is the ``O_DATE``-drop mechanism: while ``index_name`` is available
    in the catalog the indexed plan runs; once the index is dropped every
    execution takes the fallback (scan-like) plan, changing the query class's
    footprint and miss-ratio curve without touching the workload mix.
    """

    def __init__(
        self,
        catalog: IndexCatalog,
        index_name: str,
        indexed_plan: AccessPattern,
        fallback_plan: AccessPattern,
    ) -> None:
        self._catalog = catalog
        self.index_name = index_name
        self.indexed_plan = indexed_plan
        self.fallback_plan = fallback_plan

    @property
    def using_index(self) -> bool:
        return self._catalog.available(self.index_name)

    def pages_for_execution(self) -> ExecutionAccess:
        plan = self.indexed_plan if self.using_index else self.fallback_plan
        return plan.pages_for_execution()


class CompositePattern(AccessPattern):
    """Concatenates several sub-patterns' references in one execution.

    Models queries with multiple operators (e.g. an index probe plus a
    partial scan of a second relation).  Sub-patterns execute in order.
    """

    def __init__(self, parts: list[AccessPattern]) -> None:
        if not parts:
            raise ValueError("composite pattern needs at least one part")
        self.parts = list(parts)

    def pages_for_execution(self) -> ExecutionAccess:
        demand: list[int] = []
        prefetch: list[int] = []
        for part in self.parts:
            access = part.pages_for_execution()
            demand += access.demand
            prefetch += access.prefetch
        return ExecutionAccess(demand, prefetch)
