"""Unit tests for tables and schemas."""

import numpy as np
import pytest

from repro.engine.pages import PAGE_SIZE_BYTES, PageSpaceAllocator
from repro.engine.tables import Schema, Table


class TestTable:
    def test_page_count_from_rows(self):
        allocator = PageSpaceAllocator()
        # 16 KiB pages, 1 KiB rows -> 16 rows per page.
        table = Table.create(allocator, "t", row_count=160, row_bytes=1024)
        assert table.rows_per_page == 16
        assert table.page_count == 10

    def test_partial_last_page(self):
        allocator = PageSpaceAllocator()
        table = Table.create(allocator, "t", row_count=17, row_bytes=1024)
        assert table.page_count == 2

    def test_page_of_row(self):
        allocator = PageSpaceAllocator()
        table = Table.create(allocator, "t", row_count=32, row_bytes=1024)
        assert table.page_of_row(0) == table.pages.start
        assert table.page_of_row(16) == table.pages.start + 1

    def test_page_of_row_out_of_range(self):
        allocator = PageSpaceAllocator()
        table = Table.create(allocator, "t", row_count=10, row_bytes=1024)
        with pytest.raises(IndexError):
            table.page_of_row(10)

    def test_page_of_row_array_gathers_the_ranges_own_ints(self):
        allocator = PageSpaceAllocator(base=5000)
        table = Table.create(allocator, "t", row_count=64, row_bytes=1024)
        rows = np.array([[0, 15], [16, 63]])
        pages = table.page_of_row_array(rows)
        assert pages.dtype == object and pages.shape == rows.shape
        assert pages.tolist() == [[5000, 5000], [5001, 5003]]
        assert pages[0, 0] is pages[0, 1] is table.pages.page_ids[0]
        assert all(type(page) is int for page in pages.ravel())

    @pytest.mark.parametrize("rows", [[-1], [64], [3, 64], [[0, 1], [2, -1]]])
    def test_page_of_row_array_out_of_range(self, rows):
        table = Table.create(PageSpaceAllocator(), "t", row_count=64, row_bytes=1024)
        with pytest.raises(IndexError, match="rows outside table 't'"):
            table.page_of_row_array(np.array(rows))

    def test_scan_pages_hands_out_the_ranges_own_ints(self):
        table = Table.create(PageSpaceAllocator(5000), "t", row_count=64, row_bytes=1024)
        assert all(
            a is b
            for a, b in zip(table.scan_pages(1, 2), table.pages.page_ids[1:3], strict=True)
        )

    def test_scan_pages_full(self):
        allocator = PageSpaceAllocator()
        table = Table.create(allocator, "t", row_count=48, row_bytes=1024)
        assert table.scan_pages() == list(
            range(table.pages.start, table.pages.start + 3)
        )

    def test_scan_pages_partial(self):
        allocator = PageSpaceAllocator()
        table = Table.create(allocator, "t", row_count=64, row_bytes=1024)
        assert len(table.scan_pages(1, 2)) == 2

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            Table.create(PageSpaceAllocator(), "t", row_count=0, row_bytes=100)

    def test_rejects_oversized_row(self):
        with pytest.raises(ValueError):
            Table.create(
                PageSpaceAllocator(), "t", row_count=1, row_bytes=PAGE_SIZE_BYTES + 1
            )


class TestSchema:
    def test_tables_share_allocator(self):
        schema = Schema("db")
        a = schema.add_table("a", 16, 1024)
        b = schema.add_table("b", 16, 1024)
        assert a.pages.end <= b.pages.start

    def test_duplicate_table_rejected(self):
        schema = Schema("db")
        schema.add_table("a", 16, 1024)
        with pytest.raises(ValueError):
            schema.add_table("a", 16, 1024)

    def test_lookup_by_name(self):
        schema = Schema("db")
        table = schema.add_table("a", 16, 1024)
        assert schema.table("a") is table

    def test_unknown_table_raises(self):
        with pytest.raises(KeyError):
            Schema("db").table("missing")

    def test_total_pages(self):
        schema = Schema("db")
        schema.add_table("a", 16, 1024)  # 1 page
        schema.add_table("b", 32, 1024)  # 2 pages
        assert schema.total_pages == 3
