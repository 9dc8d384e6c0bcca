"""Page-access traces and bounded recent-access windows.

The paper's engine instrumentation keeps, per query class, "a window of the
most recent page accesses issued by the DBMS on behalf of the queries
belonging to each specific query class".  Miss-ratio curves are recomputed
from this window when a class becomes suspect.

A :class:`PageAccessTrace` is an append-only sequence of page ids (optionally
tagged with the issuing query class), and :class:`AccessWindow` is the bounded
ring buffer the MRC tracker consumes.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

__all__ = ["PageAccess", "PageAccessTrace", "AccessWindow", "interleave_traces"]


@dataclass(frozen=True)
class PageAccess:
    """One logical page reference."""

    page_id: int
    query_class: str = ""
    timestamp: float = 0.0


class PageAccessTrace:
    """An append-only trace of page ids with an optional query-class tag.

    Stored columnar (numpy-backed on freeze) so that multi-million access
    traces stay compact and MRC computation can run vectorised.
    """

    def __init__(self, accesses: Iterable[int] | None = None) -> None:
        self._pages: list[int] = list(accesses) if accesses is not None else []
        self._classes: list[str] = [""] * len(self._pages)

    def __len__(self) -> int:
        return len(self._pages)

    def __iter__(self) -> Iterator[int]:
        return iter(self._pages)

    def append(self, page_id: int, query_class: str = "") -> None:
        self._pages.append(int(page_id))
        self._classes.append(query_class)

    def extend(self, page_ids: Iterable[int], query_class: str = "") -> None:
        before = len(self._pages)
        self._pages.extend(int(p) for p in page_ids)
        self._classes.extend([query_class] * (len(self._pages) - before))

    def pages(self) -> np.ndarray:
        """The whole trace as an int64 array."""
        return np.asarray(self._pages, dtype=np.int64)

    def classes(self) -> list[str]:
        return list(self._classes)

    def tail(self, count: int) -> "PageAccessTrace":
        """The most recent ``count`` accesses as a new trace."""
        if count < 0:
            raise ValueError(f"count must be non-negative: {count}")
        result = PageAccessTrace()
        for page, cls in zip(self._pages[-count:], self._classes[-count:]):
            result.append(page, cls)
        return result


class AccessWindow:
    """Bounded ring buffer of the most recent page accesses of one class."""

    def __init__(self, capacity: int = 200_000) -> None:
        if capacity <= 0:
            raise ValueError(f"window capacity must be positive: {capacity}")
        self.capacity = capacity
        self._buffer: deque[int] = deque(maxlen=capacity)
        self._total_seen = 0

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def total_seen(self) -> int:
        """Total accesses ever recorded, including those evicted."""
        return self._total_seen

    @property
    def full(self) -> bool:
        return len(self._buffer) == self.capacity

    def record(self, page_id: int) -> None:
        self._buffer.append(int(page_id))
        self._total_seen += 1

    def record_many(self, page_ids: Iterable[int] | np.ndarray) -> None:
        """Append a whole page vector in one deque extend.

        ``deque.extend`` with ``maxlen`` drops the oldest entries exactly as
        repeated appends would, so this is equivalent to :meth:`record` per
        page at a fraction of the cost; ndarrays are converted once.
        """
        if not isinstance(page_ids, (list, tuple)):  # the engine hands over lists
            if isinstance(page_ids, np.ndarray):
                page_ids = page_ids.tolist()
            else:
                page_ids = [int(page_id) for page_id in page_ids]
        self._buffer.extend(page_ids)
        self._total_seen += len(page_ids)

    def snapshot(self, last: int | None = None) -> np.ndarray:
        """The window contents, oldest first, as an int64 array.

        ``last=k`` returns only the ``k`` newest entries (all of them when
        the window holds fewer) and reads only those: the analyses cap
        their trace well below the window's capacity.
        """
        size = len(self._buffer)
        if last is None or last >= size:
            return np.fromiter(self._buffer, dtype=np.int64, count=size)
        if last < 0:
            raise ValueError(f"last must be non-negative: {last}")
        newest_first = np.fromiter(
            islice(reversed(self._buffer), last), dtype=np.int64, count=last
        )
        return newest_first[::-1]

    def holds(self, watermark: int, count: int) -> bool:
        """Whether the ``count`` accesses that ended at ``watermark`` (a past
        :attr:`total_seen`) are all still in the window."""
        oldest = self._total_seen - len(self._buffer)  # watermark before the oldest
        return 0 <= count <= watermark - oldest and watermark <= self._total_seen

    def ending_at(self, watermark: int, count: int) -> np.ndarray | None:
        """The ``count`` accesses that ended at ``watermark``, oldest first, as
        an int64 array — what ``snapshot(last=count)`` returned when
        :attr:`total_seen` was ``watermark`` — or ``None`` once any of them
        has been evicted."""
        if not self.holds(watermark, count):
            return None
        newest_first = np.fromiter(
            islice(reversed(self._buffer), self._total_seen - watermark, None),
            dtype=np.int64, count=count,
        )
        return newest_first[::-1]

    def clear(self) -> None:
        self._buffer.clear()


def interleave_traces(
    traces: dict[str, PageAccessTrace], chunk: int = 64
) -> PageAccessTrace:
    """Round-robin interleave per-class traces into one engine-level trace.

    Models concurrent execution of several query classes against one buffer
    pool: each class contributes ``chunk`` consecutive accesses per turn,
    approximating the page-reference mixing a real multi-threaded engine
    produces.  Classes are visited in sorted-name order for determinism.
    """
    if chunk <= 0:
        raise ValueError(f"chunk must be positive: {chunk}")
    result = PageAccessTrace()
    cursors = {name: 0 for name in traces}
    names = sorted(traces)
    pending = {name: traces[name].pages() for name in names}
    while True:
        progressed = False
        for name in names:
            pages = pending[name]
            cursor = cursors[name]
            if cursor >= len(pages):
                continue
            stop = min(cursor + chunk, len(pages))
            result.extend(pages[cursor:stop].tolist(), name)
            cursors[name] = stop
            progressed = True
        if not progressed:
            break
    return result
