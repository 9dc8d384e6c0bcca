"""Buffer-pool simulation: shared LRU pools and quota-partitioned pools.

This is the component the paper's fine-grained memory actions manipulate.
Two pool organisations are provided:

* :class:`LRUBufferPool` — a single LRU-managed pool shared by every query
  class on the engine (MySQL/InnoDB's default behaviour in the paper).
* :class:`PartitionedBufferPool` — the paper's quota-enforcement mechanism:
  a problem query class is pinned to a dedicated partition of fixed size and
  everything else shares the remainder, each partition running its own LRU.

Both organisations expose the same two calls, :meth:`BufferPool.access_many`
(demand) and :meth:`BufferPool.prefetch_many` (read-ahead), and keep
per-query-class hit/miss/read-ahead counters, which is exactly the signal
the outlier detector consumes.  Each call takes one execution's whole page
vector (a Python list; that is what every access pattern emits) and keeps
the per-page work inside the C-implemented ``OrderedDict``:

* a demand batch's leading run of hits is one ``map(move_to_end, ...)``
  drained in C; ``move_to_end`` raises ``KeyError`` at the first non-resident
  page with every page before it already reordered, and only from there on
  does a Python loop (hoisted locals) take over;
* a read-ahead batch goes through ``filterfalse(pages.__contains__, ...)``,
  which probes the *live* dict lazily, one page at a time, so only pages that
  must be fetched ever reach Python;
* hit/miss, read-ahead and eviction counts accumulate in plain ints and reach
  :class:`PoolStats` once per batch.

There is one demand path and one read-ahead path, whatever the batch size or
hit ratio.  Both are bit-exact with a per-page loop — one residency probe,
one admission, one stats update per page: same hit/miss/eviction sequence,
same LRU order, same counters.  Those loops are the semantic contract and
live in ``tests/oracles/lru.py``; ``tests/property/test_prop_bufferpool_batched.py``
pins the pools against them.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import filterfalse

import numpy as np

__all__ = [
    "PoolStats",
    "BufferPool",
    "LRUBufferPool",
    "PartitionedBufferPool",
]

# Consumes an iterator at C speed, keeping nothing (the itertools recipe).
_drain = deque(maxlen=0).extend


def _as_page_list(page_ids: Iterable[int] | np.ndarray) -> list[int]:
    """A batch that did not arrive as a list or tuple, as a list of ints."""
    if isinstance(page_ids, np.ndarray):
        return page_ids.tolist()
    return list(page_ids)


@dataclass
class PoolStats:
    """Hit/miss/read-ahead/eviction counters, kept globally and (except
    evictions, whose victim class is unknowable) per query class."""

    hits: int = 0
    misses: int = 0
    readaheads: int = 0
    evictions: int = 0
    per_class: dict[str, dict[str, int]] = field(default_factory=dict)

    def _bucket(self, query_class: str) -> dict[str, int]:
        if query_class not in self.per_class:
            self.per_class[query_class] = {"hits": 0, "misses": 0, "readaheads": 0}
        return self.per_class[query_class]

    def record_readahead(self, query_class: str, count: int = 1) -> None:
        self.readaheads += count
        self._bucket(query_class)["readaheads"] += count

    def record_eviction(self, count: int = 1) -> None:
        self.evictions += count

    def record_batch(self, query_class: str, hits: int, misses: int) -> None:
        """Fold one batch's hit/miss outcome in with two bucket lookups.

        Equivalent to counting each page's hit or miss on its own; the
        batched access path uses it to keep the per-page stats work out of
        the pool's hot loop.
        """
        if hits < 0 or misses < 0:
            raise ValueError(
                f"batch counts cannot be negative: hits={hits} misses={misses}"
            )
        if hits == 0 and misses == 0:
            return  # nothing counted: do not materialise a class bucket
        self.hits += hits
        self.misses += misses
        bucket = self._bucket(query_class)
        bucket["hits"] += hits
        bucket["misses"] += misses

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Overall hit ratio; 1.0 on an untouched pool by convention."""
        return self.hits / self.accesses if self.accesses else 1.0


class BufferPool:
    """Common interface of every pool organisation."""

    capacity: int
    stats: PoolStats

    def access_many(
        self, page_ids: Sequence[int] | np.ndarray, query_class: str = ""
    ) -> int:
        """Reference a whole page vector, in order; returns the number of
        hits."""
        raise NotImplementedError

    def prefetch_many(
        self, page_ids: Sequence[int] | np.ndarray, query_class: str = ""
    ) -> int:
        """Read-ahead: load one execution's read-ahead vector without
        counting demand misses.

        Returns the number of pages actually fetched from storage (pages
        already resident are skipped).  Each fetched page is one I/O block
        request and one read-ahead request in the per-class counters.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def total_evictions(self) -> int:
        """Pages pushed out by replacement, across every partition."""
        raise NotImplementedError


class LRUBufferPool(BufferPool):
    """A fixed-capacity page cache with strict LRU replacement.

    LRU obeys Mattson's inclusion property, which is what lets the MRC
    store predict this pool's miss ratio at any capacity from one pass
    over the trace.
    """

    def __init__(self, capacity: int, eviction_sink: PoolStats | None = None) -> None:
        if capacity <= 0:
            raise ValueError(f"buffer pool capacity must be positive: {capacity}")
        self.capacity = capacity
        self.stats = PoolStats()
        self._pages: OrderedDict[int, None] = OrderedDict()
        # Evictions recorded here also reach the sink — the partitioned
        # pool's top-level stats, so child-partition evictions are never
        # invisible at the aggregate level.
        self._eviction_sink = eviction_sink

    def __len__(self) -> int:
        return len(self._pages)

    def prefetch_many(
        self, page_ids: Sequence[int] | np.ndarray, query_class: str = ""
    ) -> int:
        if isinstance(page_ids, np.ndarray):
            page_ids = page_ids.tolist()
        pages = self._pages
        pop = pages.popitem
        capacity = self.capacity
        fetched = 0
        evicted = 0
        # filterfalse probes the live dict one page at a time, so a page
        # evicted by an admission of this very batch, or a duplicate of a
        # page it admitted, is judged as the per-page loop would judge it.
        for page_id in filterfalse(pages.__contains__, page_ids):
            while len(pages) >= capacity:
                pop(last=False)
                evicted += 1
            pages[page_id] = None
            fetched += 1
        if evicted:
            self._record_evictions(evicted)
        if fetched:
            self.stats.record_readahead(query_class, fetched)
        return fetched

    def access_many(
        self, page_ids: Sequence[int] | np.ndarray, query_class: str = ""
    ) -> int:
        """Demand accesses of one execution's page vector.

        The leading run of hits is reordered without leaving C; from the
        first miss on, residency probes, LRU reordering and eviction run
        against hoisted locals.  Totals reach :class:`PoolStats` once per
        batch.
        """
        if not isinstance(page_ids, (list, tuple)):
            # Also keeps a caller's generator out of the try below: the only
            # KeyError it can see is move_to_end's.
            page_ids = _as_page_list(page_ids)
        pages = self._pages
        move = pages.move_to_end
        total = len(page_ids)
        rest = iter(page_ids)
        try:
            _drain(map(move, rest))
        except KeyError as first_miss:
            # Raised for the first non-resident page, which `rest` has
            # already consumed; every page before it is reordered.
            page_id = first_miss.args[0]
        else:
            self.stats.record_batch(query_class, total, 0)
            return total
        pop = pages.popitem
        capacity = self.capacity
        misses = 1
        evicted = 0
        # Admit the first miss, then finish `rest` page by page.  (Chaining
        # the page back in front of `rest` would save these four lines and
        # cost every later page an extra iterator hop: +7 % on miss-heavy
        # workloads.)
        while len(pages) >= capacity:
            pop(last=False)
            evicted += 1
        pages[page_id] = None
        for page_id in rest:
            if page_id in pages:
                move(page_id)
            else:
                misses += 1
                while len(pages) >= capacity:
                    pop(last=False)
                    evicted += 1
                pages[page_id] = None
        if evicted:
            self._record_evictions(evicted)
        self.stats.record_batch(query_class, total - misses, misses)
        return total - misses

    def _record_evictions(self, count: int) -> None:
        self.stats.record_eviction(count)
        if self._eviction_sink is not None:
            self._eviction_sink.record_eviction(count)

    @property
    def total_evictions(self) -> int:
        return self.stats.evictions


class PartitionedBufferPool(BufferPool):
    """A pool split into named LRU partitions with fixed page quotas.

    Query classes are routed to a partition by an explicit assignment map;
    unassigned classes share the ``default`` partition.  This is the paper's
    quota-enforcement action: the problem class gets a dedicated partition
    sized by the quota-search algorithm, so its scan-like traffic can no
    longer evict the rest of the application's working set.
    """

    DEFAULT = "default"

    def __init__(self, capacity: int, quotas: dict[str, int] | None = None) -> None:
        if capacity <= 0:
            raise ValueError(f"buffer pool capacity must be positive: {capacity}")
        self.capacity = capacity
        self.stats = PoolStats()
        self._partitions: dict[str, LRUBufferPool] = {}
        self._assignment: dict[str, str] = {}
        quotas = dict(quotas) if quotas else {}
        reserved = sum(quotas.values())
        if reserved >= capacity:
            raise ValueError(
                f"quotas reserve {reserved} pages of a {capacity}-page pool, "
                "leaving nothing for the default partition"
            )
        for name, quota in quotas.items():
            if name == self.DEFAULT:
                raise ValueError("the default partition is sized implicitly")
            self._partitions[name] = LRUBufferPool(
                quota, eviction_sink=self.stats
            )
        self._partitions[self.DEFAULT] = LRUBufferPool(
            capacity - reserved, eviction_sink=self.stats
        )

    @property
    def partition_names(self) -> list[str]:
        return list(self._partitions.keys())

    def quota_of(self, partition: str) -> int:
        return self._partitions[partition].capacity

    def assign(self, query_class: str, partition: str) -> None:
        """Route every access of ``query_class`` to ``partition``."""
        if partition not in self._partitions:
            raise KeyError(f"no partition named {partition!r}")
        self._assignment[query_class] = partition

    def partition_for(self, query_class: str) -> str:
        return self._assignment.get(query_class, self.DEFAULT)

    def _pool_for(self, query_class: str) -> LRUBufferPool:
        return self._partitions[self.partition_for(query_class)]

    def __len__(self) -> int:
        return sum(len(pool) for pool in self._partitions.values())

    def access_many(
        self, page_ids: Sequence[int] | np.ndarray, query_class: str = ""
    ) -> int:
        """Batched access: one partition lookup and one stats flush per batch."""
        if not isinstance(page_ids, (list, tuple)):
            page_ids = _as_page_list(page_ids)
        hits = self._pool_for(query_class).access_many(page_ids, query_class)
        self.stats.record_batch(query_class, hits, len(page_ids) - hits)
        return hits

    def prefetch_many(
        self, page_ids: Sequence[int] | np.ndarray, query_class: str = ""
    ) -> int:
        fetched = self._pool_for(query_class).prefetch_many(page_ids, query_class)
        if fetched:
            self.stats.record_readahead(query_class, fetched)
        return fetched

    @property
    def total_evictions(self) -> int:
        return sum(pool.stats.evictions for pool in self._partitions.values())

