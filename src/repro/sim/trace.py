"""Bounded recent-access windows and references into them.

The paper's engine instrumentation keeps, per query class, "a window of the
most recent page accesses issued by the DBMS on behalf of the queries
belonging to each specific query class".  Miss-ratio curves are recomputed
from this window when a class becomes suspect.

:class:`AccessWindow` is that bounded ring buffer.  A curve taken from it
does not copy its trace: it holds a :class:`WindowSlice`, a reference to the
``length`` accesses that ended at a ``total_seen`` watermark.  The window
keeps weak references to its live slices and copies a slice out — once,
just before an append would overwrite the slice's oldest access — so a
slice reads back the same accesses whether or not it was copied, and one
that is dropped before the window wraps past it is never copied at all.
"""

from __future__ import annotations

import sys
import weakref
from collections import deque
from collections.abc import Iterable
from itertools import islice

import numpy as np

__all__ = ["AccessWindow", "WindowSlice"]

_NEVER = sys.maxsize
"""The guard of a window no live slice pins: no append reaches it."""


class WindowSlice:
    """The ``length`` accesses of one window that ended at ``watermark``.

    Reads back, oldest first, what ``window.snapshot(last=length)`` returned
    when the window's ``total_seen`` was ``watermark`` — from the window
    while it still holds them, from the copy the window made before
    overwriting them after that.
    """

    __slots__ = ("window", "watermark", "length", "_copy", "__weakref__")

    def __init__(self, window: "AccessWindow", watermark: int, length: int) -> None:
        self.window = window
        self.watermark = watermark
        self.length = length
        self._copy: np.ndarray | None = None

    def __len__(self) -> int:
        return self.length

    def read(self) -> np.ndarray:
        """The slice as an int64 array, oldest first."""
        if self._copy is not None:
            return self._copy
        return self.window.ending_at(self.watermark, self.length)


class AccessWindow:
    """Bounded ring buffer of the most recent page accesses of one class."""

    def __init__(self, capacity: int = 200_000) -> None:
        if capacity <= 0:
            raise ValueError(f"window capacity must be positive: {capacity}")
        self.capacity = capacity
        self._buffer: deque[int] = deque(maxlen=capacity)
        self._total_seen = 0
        self._slices: weakref.WeakSet[WindowSlice] = weakref.WeakSet()
        # The total_seen past which an append overwrites the oldest access
        # of some live slice; every append compares against it.
        self._guard = _NEVER
        self.copied_accesses = 0
        """Accesses copied out of the window for slices about to be overwritten."""

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def total_seen(self) -> int:
        """Total accesses ever recorded, including those evicted."""
        return self._total_seen

    def record(self, page_id: int) -> None:
        self.record_many((int(page_id),))

    def record_many(self, page_ids: Iterable[int] | np.ndarray) -> None:
        """Append a whole page vector in one deque extend.

        ``deque.extend`` with ``maxlen`` drops the oldest entries exactly as
        repeated appends would, so this is equivalent to :meth:`record` per
        page at a fraction of the cost; ndarrays are converted once.  Live
        slices the extend would overwrite are copied out first.
        """
        if not isinstance(page_ids, (list, tuple)):  # the engine hands over lists
            if isinstance(page_ids, np.ndarray):
                page_ids = page_ids.tolist()
            else:
                page_ids = [int(page_id) for page_id in page_ids]
        seen = self._total_seen + len(page_ids)
        if seen > self._guard:
            self._copy_out(seen)
        self._buffer.extend(page_ids)
        self._total_seen = seen

    def slice_ending_at(self, watermark: int, count: int) -> WindowSlice:
        """A reference to the ``count`` accesses that ended at ``watermark``,
        which the window must still hold (:meth:`holds`)."""
        if not self.holds(watermark, count):
            raise ValueError(
                f"the window no longer holds {count} accesses ending at {watermark}"
            )
        reference = WindowSlice(self, watermark, count)
        self._slices.add(reference)
        self._guard = min(self._guard, watermark - count + self.capacity)
        return reference

    def _copy_out(self, seen: int) -> None:
        """Copy every live slice whose oldest access an append that brings
        :attr:`total_seen` to ``seen`` overwrites, and release it."""
        oldest = seen - self.capacity  # the oldest access kept after the append
        guard = _NEVER
        for reference in list(self._slices):
            start = reference.watermark - reference.length
            if start < oldest:
                reference._copy = self.ending_at(reference.watermark, reference.length)
                self.copied_accesses += reference.length
                self._slices.discard(reference)
            else:
                guard = min(guard, start + self.capacity)
        self._guard = guard

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
        skip_newest = self._total_seen - watermark
        skip_oldest = len(self._buffer) - skip_newest - count
        if skip_oldest <= skip_newest:  # nearer the oldest end: read forwards
            return np.fromiter(
                islice(self._buffer, skip_oldest, None), dtype=np.int64, count=count
            )
        newest_first = np.fromiter(
            islice(reversed(self._buffer), skip_newest, None),
            dtype=np.int64, count=count,
        )
        return newest_first[::-1]
