"""Oracles: the buffer pool's per-page loops.

``LRUBufferPool.access_many`` / ``prefetch`` / ``prefetch_many`` keep their
per-page work inside the C ``OrderedDict`` (a ``map(move_to_end)`` hit run,
a lazy ``filterfalse`` residency filter).  These are the loops they replaced:
one page at a time, one residency probe, one admission, one stats call each.
They drive a real pool through its private state, so whatever they leave
behind (LRU order, :class:`PoolStats`, eviction sink) can be compared field
for field with what the fast paths leave behind in a twin pool.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.engine.bufferpool import BufferPool, LRUBufferPool, PartitionedBufferPool

__all__ = ["access_per_page", "prefetch_per_page"]


def access_per_page(
    pool: BufferPool, page_ids: Iterable[int], query_class: str = ""
) -> int:
    """Demand accesses through the public per-page :meth:`access`."""
    return sum(pool.access(page_id, query_class) for page_id in page_ids)


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
    """Read-ahead as ``LRUBufferPool.prefetch`` did it before the lazy filter
    (and ``PartitionedBufferPool.prefetch`` on top of it)."""
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
