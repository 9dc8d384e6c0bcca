"""Oracles: the buffer pool's per-page loops, and two views of its state.

``LRUBufferPool.access_many`` / ``prefetch_many`` keep their per-page work
inside the C ``OrderedDict`` (a ``map(move_to_end)`` hit run, a lazy
``filterfalse`` residency filter).  These are the loops they replaced and
the semantic contract they keep: one page at a time, one residency probe,
one admission, one stats update each.  They drive a real pool through its
private state, so whatever they leave behind (LRU order, :class:`PoolStats`,
eviction sink) can be compared field for field with what the fast paths
leave behind in a twin pool.  ``resident`` and ``lru_order`` read that
state for the tests; the pools themselves expose neither.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.engine.bufferpool import BufferPool, LRUBufferPool, PartitionedBufferPool

__all__ = ["access_per_page", "prefetch_per_page", "resident", "lru_order"]


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
        hit = _access_one(pool._pool_for(query_class), page_id, query_class)
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
        child = pool._pool_for(query_class)
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
