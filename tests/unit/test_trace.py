"""Unit tests for page-access traces and windows."""

import numpy as np
import pytest

from repro.sim.trace import AccessWindow, PageAccessTrace, interleave_traces


class TestPageAccessTrace:
    def test_starts_empty(self):
        assert len(PageAccessTrace()) == 0

    def test_append_and_iterate(self):
        trace = PageAccessTrace()
        trace.append(1)
        trace.append(2)
        assert list(trace) == [1, 2]

    def test_construct_from_iterable(self):
        assert list(PageAccessTrace([3, 4, 5])) == [3, 4, 5]

    def test_extend_tags_class(self):
        trace = PageAccessTrace()
        trace.extend([1, 2], "q1")
        trace.append(3, "q2")
        assert trace.classes() == ["q1", "q1", "q2"]

    def test_pages_returns_int64_array(self):
        trace = PageAccessTrace([1, 2, 3])
        pages = trace.pages()
        assert pages.dtype == np.int64
        assert pages.tolist() == [1, 2, 3]

    def test_tail(self):
        assert list(PageAccessTrace([1, 2, 3, 4]).tail(2)) == [3, 4]

    def test_tail_rejects_negative(self):
        with pytest.raises(ValueError):
            PageAccessTrace().tail(-1)


class TestAccessWindow:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            AccessWindow(0)

    def test_records_accesses(self):
        window = AccessWindow(10)
        window.record(1)
        window.record(2)
        assert window.snapshot().tolist() == [1, 2]

    def test_evicts_oldest_beyond_capacity(self):
        window = AccessWindow(3)
        window.record_many([1, 2, 3, 4])
        assert window.snapshot().tolist() == [2, 3, 4]

    def test_total_seen_counts_evicted(self):
        window = AccessWindow(2)
        window.record_many([1, 2, 3, 4, 5])
        assert window.total_seen == 5
        assert len(window) == 2

    def test_full_flag(self):
        window = AccessWindow(2)
        assert not window.full
        window.record_many([1, 2])
        assert window.full

    def test_clear_resets_contents_not_total(self):
        window = AccessWindow(5)
        window.record_many([1, 2, 3])
        window.clear()
        assert len(window) == 0
        assert window.total_seen == 3

    def test_snapshot_dtype(self):
        window = AccessWindow(4)
        window.record(7)
        assert window.snapshot().dtype == np.int64

    @pytest.mark.parametrize("recorded", [6, 10, 27], ids=["unwrapped", "full", "wrapped"])
    def test_snapshot_last_is_the_tail_of_the_full_snapshot(self, recorded):
        window = AccessWindow(10)
        window.record_many(range(100, 100 + recorded))
        full = window.snapshot()
        for k in (0, 1, len(full), len(full) + 1):
            tail = window.snapshot(last=k)
            assert tail.dtype == np.int64
            assert tail.tolist() == full[len(full) - min(k, len(full)):].tolist()

    def test_snapshot_rejects_negative_last(self):
        window = AccessWindow(4)
        window.record(7)
        with pytest.raises(ValueError):
            window.snapshot(last=-1)

    def test_ending_at_reads_what_the_snapshot_read_then(self):
        window = AccessWindow(10)
        taken = []
        for batch in (range(0, 4), range(4, 9), range(9, 16)):
            window.record_many(list(batch))
            for last in (0, 1, 3, len(window)):
                taken.append((window.total_seen, window.snapshot(last=last)))
        for watermark, trace in taken:
            again = window.ending_at(watermark, len(trace))
            if window.holds(watermark, len(trace)):
                assert again.dtype == np.int64
                assert again.tolist() == trace.tolist()
            else:
                assert again is None
        # The window holds accesses 6..15: a slice that reaches below 6, or
        # past what was ever seen, is gone or never was.
        assert window.holds(16, 10) and window.holds(9, 3)
        assert not window.holds(9, 4)
        assert not window.holds(17, 1)
        assert not window.holds(9, -1)
        window.clear()
        assert window.ending_at(16, 1) is None
        assert window.ending_at(16, 0).tolist() == []


class TestInterleave:
    def test_round_robin_chunks(self):
        traces = {
            "a": PageAccessTrace([1, 2, 3, 4]),
            "b": PageAccessTrace([10, 20]),
        }
        merged = interleave_traces(traces, chunk=2)
        assert list(merged) == [1, 2, 10, 20, 3, 4]

    def test_class_tags_preserved(self):
        traces = {"a": PageAccessTrace([1]), "b": PageAccessTrace([2])}
        merged = interleave_traces(traces, chunk=1)
        assert merged.classes() == ["a", "b"]

    def test_deterministic_order_by_name(self):
        traces = {"z": PageAccessTrace([9]), "a": PageAccessTrace([1])}
        assert list(interleave_traces(traces, chunk=1)) == [1, 9]

    def test_rejects_nonpositive_chunk(self):
        with pytest.raises(ValueError):
            interleave_traces({}, chunk=0)

    def test_total_length_preserved(self):
        traces = {
            "a": PageAccessTrace(range(10)),
            "b": PageAccessTrace(range(100, 107)),
        }
        assert len(interleave_traces(traces, chunk=3)) == 17
