"""Unit tests for access windows and the slices curves reference."""

import numpy as np
import pytest

from repro.sim.trace import AccessWindow


class TestAccessWindow:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            AccessWindow(0)

    def test_records_accesses(self):
        window = AccessWindow(10)
        window.record_many([1])
        window.record_many([2])
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

    def test_snapshot_dtype(self):
        window = AccessWindow(4)
        window.record_many([7])
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
        window.record_many([7])
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
        window.record_many(range(16, 26))  # now holds 16..25
        assert window.ending_at(16, 1) is None
        assert window.ending_at(16, 0).tolist() == []


class TestWindowSlice:
    """A slice reads back what ``snapshot(last=length)`` read when it was
    taken; the window copies it out once, just before an append would
    overwrite its oldest access, and never copies a slice nobody holds."""

    def test_reads_its_slice_across_wrap_around(self):
        window = AccessWindow(10)
        window.record_many(range(27))  # wrapped: holds 17..26
        taken = window.snapshot(last=6)
        reference = window.slice_ending_at(window.total_seen, 6)
        window.record_many(range(27, 31))  # wraps again, 21..26 still held
        assert len(reference) == 6 and reference.read().dtype == np.int64
        assert reference.read().tolist() == taken.tolist() == list(range(21, 27))
        assert window.copied_accesses == 0
        window.record_many(range(31, 45))  # overwrites all of them
        assert reference.read().tolist() == taken.tolist()
        assert window.copied_accesses == 6

    def test_copies_at_the_exact_boundary(self):
        window = AccessWindow(10)
        window.record_many(range(10))
        reference = window.slice_ending_at(10, 4)  # accesses 6..9
        window.record_many(range(10, 15))
        window.record_many([15])  # one access short: 6 is still the oldest
        assert window.copied_accesses == 0 and reference._copy is None
        assert window.snapshot().tolist()[0] == 6
        window.record_many([16])  # overwrites 6: copied first
        assert window.copied_accesses == 4
        assert reference.read().tolist() == [6, 7, 8, 9]
        window.record_many(range(17, 40))  # copied once
        assert window.copied_accesses == 4
        assert reference.read().tolist() == [6, 7, 8, 9]

    def test_several_references_share_one_window(self):
        window = AccessWindow(8)
        window.record_many(range(6))
        early = window.slice_ending_at(4, 3)  # 1..3
        whole = window.slice_ending_at(6, 6)  # 0..5
        window.record_many(range(6, 9))  # overwrites 0: only ``whole`` copied
        assert window.copied_accesses == 6
        late = window.slice_ending_at(9, 2)  # 7..8
        window.record_many(range(9, 11))  # overwrites 1..2: ``early`` copied
        assert window.copied_accesses == 9
        assert early.read().tolist() == [1, 2, 3]
        assert whole.read().tolist() == list(range(6))
        assert late.read().tolist() == [7, 8]
        assert late._copy is None

    def test_a_dropped_reference_costs_no_copy(self):
        window = AccessWindow(5)
        window.record_many(range(5))
        reference = window.slice_ending_at(5, 5)
        del reference
        window.record_many(range(5, 50))
        assert window.copied_accesses == 0

    def test_a_slice_must_still_be_held(self):
        window = AccessWindow(4)
        window.record_many(range(10))
        assert window.slice_ending_at(10, 4).read().tolist() == [6, 7, 8, 9]
        with pytest.raises(ValueError):
            window.slice_ending_at(10, 5)
        with pytest.raises(ValueError):
            window.slice_ending_at(11, 1)
