"""Synthetic relations for the simulated databases.

A :class:`Table` owns a contiguous range of data pages sized from its row
count and row width.  Workload generators address rows logically; the table
maps row numbers to page ids, which is all the buffer-pool simulation needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pages import PAGE_SIZE_BYTES, PageRange, PageSpaceAllocator

__all__ = ["Table", "Schema"]


@dataclass
class Table:
    """A relation backed by a contiguous data-page range."""

    name: str
    row_count: int
    row_bytes: int
    pages: PageRange

    @classmethod
    def create(
        cls,
        allocator: PageSpaceAllocator,
        name: str,
        row_count: int,
        row_bytes: int,
    ) -> "Table":
        """Allocate data pages for ``row_count`` rows of ``row_bytes`` each."""
        if row_count <= 0:
            raise ValueError(f"table {name!r} must have rows: {row_count}")
        if row_bytes <= 0 or row_bytes > PAGE_SIZE_BYTES:
            raise ValueError(
                f"row size of {name!r} must be in (0, {PAGE_SIZE_BYTES}]: {row_bytes}"
            )
        rows_per_page = max(1, PAGE_SIZE_BYTES // row_bytes)
        page_count = -(-row_count // rows_per_page)
        page_range = allocator.allocate(f"table:{name}", page_count)
        return cls(name=name, row_count=row_count, row_bytes=row_bytes, pages=page_range)

    @property
    def rows_per_page(self) -> int:
        return max(1, PAGE_SIZE_BYTES // self.row_bytes)

    @property
    def page_count(self) -> int:
        return self.pages.count

    def page_of_row(self, row: int) -> int:
        """The page id holding logical row ``row``."""
        if not 0 <= row < self.row_count:
            raise IndexError(f"row {row} outside table {self.name!r}")
        return self.pages.page(row // self.rows_per_page)

    def page_of_row_array(self, rows: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`page_of_row`: page ids for an array of rows."""
        if rows.size and (int(rows.min()) < 0 or int(rows.max()) >= self.row_count):
            raise IndexError(f"rows outside table {self.name!r}")
        return self.pages.page_array(rows // self.rows_per_page)

    def scan_pages(self, start_page: int = 0, count: int | None = None) -> list[int]:
        """Page ids of a (partial) sequential scan starting at ``start_page``."""
        if count is None:
            count = self.page_count - start_page
        return self.pages.slice(start_page, count)


@dataclass
class Schema:
    """A named collection of tables sharing one page-space allocator."""

    name: str
    allocator: PageSpaceAllocator = field(default_factory=PageSpaceAllocator)
    tables: dict[str, Table] = field(default_factory=dict)

    def add_table(self, name: str, row_count: int, row_bytes: int) -> Table:
        if name in self.tables:
            raise ValueError(f"table {name!r} already exists in schema {self.name!r}")
        table = Table.create(self.allocator, name, row_count, row_bytes)
        self.tables[name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(f"schema {self.name!r} has no table {name!r}") from None

    @property
    def total_pages(self) -> int:
        return self.allocator.total_pages
