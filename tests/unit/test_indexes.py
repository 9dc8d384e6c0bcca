"""Unit tests for the B+-tree index model and the index catalog."""

import numpy as np
import pytest

from repro.engine.indexes import BTreeIndex, IndexCatalog
from repro.engine.pages import PageSpaceAllocator
from repro.engine.tables import Table


def make_index(rows=100_000, fanout=200, leaf_entries=400):
    allocator = PageSpaceAllocator()
    table = Table.create(allocator, "t", row_count=rows, row_bytes=1024)
    return BTreeIndex.create(
        allocator, "idx", table, fanout=fanout, leaf_entries=leaf_entries
    )


class TestBTreeIndex:
    def test_leaf_count_covers_rows(self):
        index = make_index(rows=1000, leaf_entries=100)
        assert index.leaf_count == 10

    def test_height_grows_with_rows(self):
        small = make_index(rows=100, leaf_entries=100)
        large = make_index(rows=1_000_000, leaf_entries=100)
        assert large.height > small.height

    def test_single_leaf_tree_height(self):
        index = make_index(rows=50, leaf_entries=100)
        assert index.height == 1

    def test_lookup_path_is_deterministic(self):
        index = make_index()
        assert index.lookup_path(1234) == index.lookup_path(1234)

    def test_lookup_path_ends_at_correct_leaf(self):
        index = make_index(rows=1000, leaf_entries=100)
        path = index.lookup_path(250)
        assert path[-1] == index.leaf_of_row(250)

    def test_lookup_path_length_at_most_height(self):
        index = make_index()
        assert len(index.lookup_path(0)) <= index.height + 1

    def test_nearby_rows_share_internal_pages(self):
        index = make_index(rows=1_000_000, leaf_entries=400)
        a = index.lookup_path(1000)[:-1]
        b = index.lookup_path(1001)[:-1]
        assert a == b

    def test_leaf_of_row_bounds(self):
        index = make_index(rows=1000, leaf_entries=100)
        with pytest.raises(IndexError):
            index.leaf_of_row(1000)

    def test_range_path_spans_leaves(self):
        index = make_index(rows=1000, leaf_entries=100)
        path = index.range_path(0, 250)
        leaves = [p for p in path if index.leaf_pages.contains(p)]
        assert len(leaves) == 3  # rows 0..249 cover leaves 0, 1, 2

    def test_lookup_path_columns_are_the_ranges_own_ints(self):
        index = make_index(rows=1_000_000, leaf_entries=400)
        rows = np.array([0, 1234, 999_999, 1234])
        columns = index.lookup_path_columns(rows)
        assert columns.dtype == object
        assert columns.shape == (4, len(index.lookup_path(0)))
        assert columns.tolist() == [index.lookup_path(int(row)) for row in rows]
        for path, row in zip(columns, rows):
            scalar = index.lookup_path(int(row))
            assert all(type(page) is int for page in path)
            assert all(a is b for a, b in zip(path, scalar, strict=True))
            assert path[-1] is index.leaf_pages.page_ids[row // 400]
            assert all(index.internal_pages.contains(page) for page in path[:-1])

    def test_lookup_path_columns_bounds(self):
        index = make_index(rows=1000, leaf_entries=100)
        for rows in ([-1], [1000], [0, 1000, 5]):
            with pytest.raises(IndexError, match="rows outside table 't'"):
                index.lookup_path_columns(np.array(rows))

    def test_range_path_hands_out_the_ranges_own_ints(self):
        index = make_index(rows=1000, leaf_entries=100)
        path = index.range_path(150, 300)  # leaves 1..4
        assert path[: -3] == index.lookup_path(150)
        assert all(
            a is b for a, b in zip(path[-4:], index.leaf_pages.page_ids[1:5], strict=True)
        )

    def test_range_path_rejects_empty_span(self):
        index = make_index()
        with pytest.raises(ValueError):
            index.range_path(0, 0)

    def test_rejects_tiny_fanout(self):
        with pytest.raises(ValueError):
            make_index(fanout=1)


class TestIndexCatalog:
    def test_available_after_add(self):
        catalog = IndexCatalog()
        catalog.add(make_index())
        assert catalog.available("idx")

    def test_duplicate_add_rejected(self):
        catalog = IndexCatalog()
        catalog.add(make_index())
        with pytest.raises(ValueError):
            catalog.add(make_index())

    def test_drop_makes_unavailable(self):
        catalog = IndexCatalog()
        catalog.add(make_index())
        catalog.drop("idx")
        assert not catalog.available("idx")

    def test_drop_unknown_raises(self):
        with pytest.raises(KeyError):
            IndexCatalog().drop("missing")

    def test_restore_after_drop(self):
        catalog = IndexCatalog()
        catalog.add(make_index())
        catalog.drop("idx")
        catalog.restore("idx")
        assert catalog.available("idx")

    def test_get_works_while_dropped(self):
        catalog = IndexCatalog()
        index = make_index()
        catalog.add(index)
        catalog.drop("idx")
        assert catalog.get("idx") is index

    def test_unknown_name_not_available(self):
        assert not IndexCatalog().available("ghost")

    def test_names_sorted(self):
        catalog = IndexCatalog()
        allocator = PageSpaceAllocator()
        table = Table.create(allocator, "t", row_count=100, row_bytes=1024)
        for name in ("b_idx", "a_idx"):
            catalog.add(BTreeIndex.create(allocator, name, table))
        assert catalog.names() == ["a_idx", "b_idx"]
