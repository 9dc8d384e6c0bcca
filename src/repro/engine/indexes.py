"""B+-tree index model.

Indexes matter to the reproduction for one reason: the paper's Figure 4/5
experiment drops the ``O_DATE`` index and the BestSeller query degenerates
from a handful of index-page touches per execution into a scan-like access
pattern with a flat miss-ratio curve.  The model therefore captures exactly
the properties that shape page traces:

* tree height as a function of entry count and fan-out,
* the page path of a point lookup (root → internals → leaf), and
* leaf-range traversal for range predicates.

Internal pages are few and extremely hot (they sit at the top of any LRU
stack); leaf pages are as numerous as the data demands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pages import PageRange, PageSpaceAllocator
from .tables import Table

__all__ = ["BTreeIndex", "IndexCatalog"]


@dataclass
class BTreeIndex:
    """A B+-tree over one table keyed by row number (a synthetic key)."""

    name: str
    table: Table
    fanout: int
    leaf_entries: int
    height: int
    internal_pages: PageRange
    leaf_pages: PageRange

    def __post_init__(self) -> None:
        # The tree geometry never changes, so the per-level arithmetic of a
        # point lookup is tabulated once: top-down, one
        # ``(stride, last_offset, first_offset)`` per internal level, with
        # the clamp to the allocated internal range folded in.  Level L has
        # ceil(leaves / fanout^L) pages laid out consecutively after the
        # levels above it.
        level_sizes: list[int] = []
        size = self.leaf_count
        while size > 1:
            size = -(-size // self.fanout)
            level_sizes.append(size)
        cap = self.internal_pages.count - 1
        levels: list[tuple[int, int, int]] = []
        offset_base = 0
        for size in reversed(level_sizes):
            stride = max(1, self.leaf_count // size)
            last = max(0, min(size - 1, cap - offset_base))
            levels.append((stride, last, min(offset_base, cap)))
            offset_base += size
        if not levels:
            levels = [(1, 0, 0)]  # single-page tree: the root is the only internal page
        self._levels = levels

    @classmethod
    def create(
        cls,
        allocator: PageSpaceAllocator,
        name: str,
        table: Table,
        fanout: int = 200,
        leaf_entries: int = 400,
    ) -> "BTreeIndex":
        """Size and allocate the tree for ``table.row_count`` entries."""
        if fanout < 2:
            raise ValueError(f"index fan-out must be at least 2: {fanout}")
        if leaf_entries < 1:
            raise ValueError(f"leaf entry count must be positive: {leaf_entries}")
        leaf_count = max(1, -(-table.row_count // leaf_entries))
        # Count internal levels until a single root fits.
        internal_count = 0
        level_pages = leaf_count
        height = 1
        while level_pages > 1:
            level_pages = -(-level_pages // fanout)
            internal_count += level_pages
            height += 1
        internal_count = max(1, internal_count)
        internal_range = allocator.allocate(f"index:{name}:internal", internal_count)
        leaf_range = allocator.allocate(f"index:{name}:leaf", leaf_count)
        return cls(
            name=name,
            table=table,
            fanout=fanout,
            leaf_entries=leaf_entries,
            height=height,
            internal_pages=internal_range,
            leaf_pages=leaf_range,
        )

    @property
    def leaf_count(self) -> int:
        return self.leaf_pages.count

    def _leaf_index(self, row: int) -> int:
        if not 0 <= row < self.table.row_count:
            raise IndexError(f"row {row} outside table {self.table.name!r}")
        return min(row // self.leaf_entries, self.leaf_pages.count - 1)

    def leaf_of_row(self, row: int) -> int:
        """The leaf page id covering logical row ``row``."""
        return self.leaf_pages.start + self._leaf_index(row)

    def lookup_path(self, row: int) -> list[int]:
        """Page ids touched by a point lookup: root, internals, leaf.

        The internal pages visited are deterministic in the row number, so
        repeated lookups of the same key touch identical pages — the property
        that makes index traffic cache-friendly.
        """
        leaf_index = self._leaf_index(row)
        internal = self.internal_pages.page_ids
        path = [
            internal[first + min(leaf_index // stride, last)]
            for stride, last, first in self._levels
        ]
        path.append(self.leaf_pages.page_ids[leaf_index])
        return path

    def lookup_path_columns(self, rows: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`lookup_path`: one row of page ids per table row."""
        if len(rows) and (
            int(rows.min()) < 0 or int(rows.max()) >= self.table.row_count
        ):
            raise IndexError(f"rows outside table {self.table.name!r}")
        leaf_index = np.minimum(rows // self.leaf_entries, self.leaf_pages.count - 1)
        internal = self.internal_pages.page_ids
        columns = np.empty((len(rows), len(self._levels) + 1), dtype=object)
        for column, (stride, last, first) in enumerate(self._levels):
            columns[:, column] = internal[first + np.minimum(leaf_index // stride, last)]
        columns[:, -1] = self.leaf_pages.page_ids[leaf_index]
        return columns

    def range_path(self, start_row: int, row_span: int) -> list[int]:
        """Pages touched by a leaf-level range scan of ``row_span`` rows."""
        if row_span <= 0:
            raise ValueError(f"range span must be positive: {row_span}")
        path = self.lookup_path(start_row)
        first_leaf = min(start_row // self.leaf_entries, self.leaf_count - 1)
        last_row = min(start_row + row_span - 1, self.table.row_count - 1)
        last_leaf = min(last_row // self.leaf_entries, self.leaf_count - 1)
        if last_leaf > first_leaf:
            path += self.leaf_pages.slice(first_leaf + 1, last_leaf - first_leaf)
        return path


class IndexCatalog:
    """The set of indexes available to an engine; supports online drop/add.

    Dropping an index is the fault-injection hook for the Figure 4
    experiment: query classes that relied on it fall back to scans.
    """

    def __init__(self) -> None:
        self._indexes: dict[str, BTreeIndex] = {}
        self._dropped: set[str] = set()

    def add(self, index: BTreeIndex) -> None:
        if index.name in self._indexes:
            raise ValueError(f"index {index.name!r} already registered")
        self._indexes[index.name] = index

    def drop(self, name: str) -> None:
        """Mark ``name`` dropped; lookups now report it unavailable."""
        if name not in self._indexes:
            raise KeyError(f"no index named {name!r}")
        self._dropped.add(name)

    def restore(self, name: str) -> None:
        """Undo a drop (models re-creating the index)."""
        self._dropped.discard(name)

    def available(self, name: str) -> bool:
        return name in self._indexes and name not in self._dropped

    def get(self, name: str) -> BTreeIndex:
        """The index object regardless of drop state (for re-creation)."""
        try:
            return self._indexes[name]
        except KeyError:
            raise KeyError(f"no index named {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._indexes)
