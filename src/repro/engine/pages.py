"""Page-id spaces for the simulated storage engine.

The engine addresses storage as fixed-size pages (16 KiB, matching InnoDB).
Each table and each index receives a contiguous, non-overlapping range of
page ids from a per-database :class:`PageSpaceAllocator`, so a page id alone
identifies which object (and which database) it belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["PAGE_SIZE_BYTES", "PageRange", "PageSpaceAllocator"]

PAGE_SIZE_BYTES = 16 * 1024
"""Bytes per page (InnoDB default)."""


@lru_cache(maxsize=None)
def _page_objects(start: int, count: int) -> np.ndarray:
    """The Python ints of ``[start, start + count)``, boxed once per process.

    Every id a :class:`PageRange` emits is an element of this array, so a
    resident page is found in the pool's dict by identity and a window entry
    costs a pointer, not an ``int``.  Identity is only that shortcut: equal
    ints from anywhere else behave the same.  Ranges of equal extent share
    the array, hence read-only.
    """
    objects = np.arange(start, start + count).astype(object)
    objects.flags.writeable = False
    return objects


@dataclass(frozen=True)
class PageRange:
    """A contiguous, half-open range of page ids ``[start, start + count)``."""

    name: str
    start: int
    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError(f"page range {self.name!r} must be non-empty")
        if self.start < 0:
            raise ValueError(f"page range {self.name!r} has negative start")

    @property
    def end(self) -> int:
        """One past the last page id."""
        return self.start + self.count

    def page(self, offset: int) -> int:
        """The page id at ``offset`` within the range."""
        if not 0 <= offset < self.count:
            raise IndexError(
                f"offset {offset} outside range {self.name!r} of {self.count} pages"
            )
        return self.start + offset

    @property
    def page_ids(self) -> np.ndarray:
        """Every page id of the range, in order: its own ``int`` objects in
        one read-only object-dtype array (built on first use)."""
        return _page_objects(self.start, self.count)

    def page_array(self, offsets: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`page`: bounds-checked gather from :attr:`page_ids`."""
        if offsets.size and (
            int(offsets.min()) < 0 or int(offsets.max()) >= self.count
        ):
            raise IndexError(
                f"offsets outside range {self.name!r} of {self.count} pages"
            )
        return self.page_ids[offsets]

    def contains(self, page_id: int) -> bool:
        return self.start <= page_id < self.end

    def slice(self, offset: int, count: int) -> list[int]:
        """``count`` consecutive page ids starting at ``offset``, clipped."""
        if offset < 0:
            raise IndexError(f"negative offset {offset}")
        # A negative stop would count from the end; numpy clips a large one.
        return self.page_ids[offset : max(offset + count, 0)].tolist()


class PageSpaceAllocator:
    """Hands out non-overlapping :class:`PageRange` blocks.

    Databases on different replicas use different allocator *bases* so that
    page ids never collide across engines sharing a buffer-pool simulation.
    """

    def __init__(self, base: int = 0) -> None:
        if base < 0:
            raise ValueError(f"allocator base must be non-negative: {base}")
        self._next = base
        self._ranges: dict[str, PageRange] = {}

    def allocate(self, name: str, count: int) -> PageRange:
        """Allocate ``count`` pages under ``name``; names must be unique."""
        if name in self._ranges:
            raise ValueError(f"page range {name!r} already allocated")
        page_range = PageRange(name=name, start=self._next, count=count)
        self._next += count
        self._ranges[name] = page_range
        return page_range

    def get(self, name: str) -> PageRange:
        try:
            return self._ranges[name]
        except KeyError:
            raise KeyError(f"no page range named {name!r}") from None

    @property
    def total_pages(self) -> int:
        """Total pages allocated so far."""
        return sum(r.count for r in self._ranges.values())

    def ranges(self) -> list[PageRange]:
        return list(self._ranges.values())
