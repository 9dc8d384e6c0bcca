"""Oracles: the buffer pool's per-page loops, its length-checked batch
loops, and two views of its state.

``LRUBufferPool.access_many`` / ``prefetch_many`` keep their per-page work
inside the C ``OrderedDict`` (a ``map(move_to_end)`` hit run, a lazy
``filterfalse`` residency filter).  ``access_per_page`` / ``prefetch_per_page``
are the loops they replaced and the semantic contract they keep: one page at
a time, one residency probe, one admission, one stats update each.  They
drive a real pool through its private state, so whatever they leave behind
(LRU order, :class:`PoolStats`, eviction sink) can be compared field for
field with what the fast paths leave behind in a twin pool.  ``resident``
and ``lru_order`` read that state for the tests; the pools themselves expose
neither.

``access_many_length_checked`` / ``prefetch_many_length_checked`` are the
batch paths as they were before admissions were counted against the free
slots a batch starts with: the same C hit run and lazy filter, but every
admission checks ``len(pages) >= capacity`` in a loop and evicts with a
keyword ``popitem(last=False)``.  They are the baseline of
``benchmarks/test_bench_pool.py``, not a second contract.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from itertools import filterfalse

from repro.engine.bufferpool import BufferPool, LRUBufferPool, PartitionedBufferPool

__all__ = [
    "access_per_page",
    "prefetch_per_page",
    "access_many_length_checked",
    "prefetch_many_length_checked",
    "resident",
    "lru_order",
]


def resident(pool: BufferPool, page_id: int) -> bool:
    """Whether ``page_id`` is cached in ``pool`` (in any partition)."""
    if isinstance(pool, PartitionedBufferPool):
        return any(page_id in child._pages for child in pool._partitions.values())
    return page_id in pool._pages


def lru_order(pool: LRUBufferPool) -> list[int]:
    """Resident page ids from least to most recently used."""
    return list(pool._pages)


def _count(pool: BufferPool, query_class: str, outcome: str) -> None:
    """One page's hit or miss, in the totals and the class bucket."""
    setattr(pool.stats, outcome, getattr(pool.stats, outcome) + 1)
    bucket = pool.stats.per_class.setdefault(
        query_class, {"hits": 0, "misses": 0, "readaheads": 0}
    )
    bucket[outcome] += 1


def _access_one(pool: BufferPool, page_id: int, query_class: str) -> bool:
    if isinstance(pool, PartitionedBufferPool):
        child = pool._partitions[pool.partition_for(query_class)]
        hit = _access_one(child, page_id, query_class)
    elif page_id in pool._pages:
        pool._pages.move_to_end(page_id)
        hit = True
    else:
        _admit_per_page(pool, page_id)
        hit = False
    _count(pool, query_class, "hits" if hit else "misses")
    return hit


def access_per_page(
    pool: BufferPool, page_ids: Iterable[int], query_class: str = ""
) -> int:
    """Demand accesses one page at a time; returns the number of hits."""
    return sum(_access_one(pool, page_id, query_class) for page_id in page_ids)


def _admit_per_page(pool: LRUBufferPool, page_id: int) -> None:
    evicted = 0
    while len(pool._pages) >= pool.capacity:
        pool._pages.popitem(last=False)
        evicted += 1
    pool._pages[page_id] = None
    if evicted:
        pool._record_evictions(evicted)


def prefetch_per_page(
    pool: BufferPool, page_ids: Iterable[int], query_class: str = ""
) -> int:
    """Read-ahead one page at a time, as ``LRUBufferPool.prefetch_many`` did
    it before the lazy filter (and ``PartitionedBufferPool.prefetch_many``
    on top of it)."""
    if isinstance(pool, PartitionedBufferPool):
        child = pool._partitions[pool.partition_for(query_class)]
        fetched = prefetch_per_page(child, page_ids, query_class)
        if fetched:
            pool.stats.record_readahead(query_class, fetched)
        return fetched
    fetched = 0
    for page_id in page_ids:
        if page_id in pool._pages:
            continue
        _admit_per_page(pool, page_id)
        fetched += 1
    if fetched:
        pool.stats.record_readahead(query_class, fetched)
    return fetched


_drain = deque(maxlen=0).extend


def access_many_length_checked(
    pool: LRUBufferPool, page_ids: Sequence[int], query_class: str = ""
) -> int:
    """``LRUBufferPool.access_many`` with a length check per admission."""
    pages = pool._pages
    move = pages.move_to_end
    total = len(page_ids)
    rest = iter(page_ids)
    try:
        _drain(map(move, rest))
    except KeyError as first_miss:
        page_id = first_miss.args[0]
    else:
        pool.stats.record_batch(query_class, total, 0)
        return total
    pop = pages.popitem
    capacity = pool.capacity
    misses = 1
    evicted = 0
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
        pool._record_evictions(evicted)
    pool.stats.record_batch(query_class, total - misses, misses)
    return total - misses


def prefetch_many_length_checked(
    pool: LRUBufferPool, page_ids: Sequence[int], query_class: str = ""
) -> int:
    """``LRUBufferPool.prefetch_many`` with a length check per admission."""
    pages = pool._pages
    pop = pages.popitem
    capacity = pool.capacity
    fetched = 0
    evicted = 0
    for page_id in filterfalse(pages.__contains__, page_ids):
        while len(pages) >= capacity:
            pop(last=False)
            evicted += 1
        pages[page_id] = None
        fetched += 1
    if evicted:
        pool._record_evictions(evicted)
    if fetched:
        pool.stats.record_readahead(query_class, fetched)
    return fetched
