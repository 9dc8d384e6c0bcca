"""Unit tests for page-id spaces."""

import numpy as np
import pytest

from repro.engine.pages import PageRange, PageSpaceAllocator


class TestPageRange:
    def test_end_is_exclusive(self):
        assert PageRange("r", 10, 5).end == 15

    def test_page_offsets(self):
        r = PageRange("r", 10, 5)
        assert r.page(0) == 10
        assert r.page(4) == 14

    def test_page_out_of_range(self):
        with pytest.raises(IndexError):
            PageRange("r", 10, 5).page(5)

    def test_contains(self):
        r = PageRange("r", 10, 5)
        assert r.contains(10) and r.contains(14)
        assert not r.contains(9) and not r.contains(15)

    def test_slice_clips_at_end(self):
        r = PageRange("r", 0, 4)
        assert r.slice(2, 10) == [2, 3]

    def test_slice_rejects_negative_offset(self):
        with pytest.raises(IndexError):
            PageRange("r", 0, 4).slice(-1, 2)

    def test_slice_of_a_negative_count_is_empty(self):
        assert PageRange("r", 0, 4).slice(3, -2) == []
        assert PageRange("r", 0, 4).slice(3, -9) == []

    def test_page_array_gathers_the_ranges_own_ints(self):
        r = PageRange("r", 1000, 5)
        offsets = np.array([[4, 0], [2, 2]])
        pages = r.page_array(offsets)
        assert pages.dtype == object and pages.shape == offsets.shape
        assert pages.tolist() == [[1004, 1000], [1002, 1002]]
        assert all(type(page) is int for page in pages.ravel())
        assert pages[1, 0] is pages[1, 1] is r.page_ids[2]
        assert r.page_array(np.empty(0, dtype=np.int64)).tolist() == []

    @pytest.mark.parametrize("offsets", [[-1], [5], [0, 7, 1], [[0, 1], [-2, 3]]])
    def test_page_array_out_of_range(self, offsets):
        with pytest.raises(IndexError, match="offsets outside range 'r' of 5 pages"):
            PageRange("r", 1000, 5).page_array(np.array(offsets))

    def test_slice_hands_out_the_ranges_own_ints(self):
        r = PageRange("r", 1000, 5)
        assert all(a is b for a, b in zip(r.slice(1, 3), r.page_ids[1:4], strict=True))

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            PageRange("r", 0, 0)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            PageRange("r", -1, 5)


class TestPageSpaceAllocator:
    def test_allocations_are_contiguous_and_disjoint(self):
        allocator = PageSpaceAllocator()
        a = allocator.allocate("a", 10)
        b = allocator.allocate("b", 5)
        assert a.start == 0 and a.end == 10
        assert b.start == 10 and b.end == 15

    def test_base_offsets_all_allocations(self):
        allocator = PageSpaceAllocator(base=1000)
        assert allocator.allocate("a", 10).start == 1000

    def test_duplicate_name_rejected(self):
        allocator = PageSpaceAllocator()
        allocator.allocate("a", 1)
        with pytest.raises(ValueError):
            allocator.allocate("a", 1)

    def test_get_by_name(self):
        allocator = PageSpaceAllocator()
        r = allocator.allocate("a", 3)
        assert allocator.get("a") is r

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            PageSpaceAllocator().get("missing")

    def test_total_pages(self):
        allocator = PageSpaceAllocator()
        allocator.allocate("a", 10)
        allocator.allocate("b", 7)
        assert allocator.total_pages == 17

    def test_rejects_negative_base(self):
        with pytest.raises(ValueError):
            PageSpaceAllocator(base=-5)
