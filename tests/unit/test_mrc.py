"""Unit tests for Mattson stack analysis and miss-ratio curves."""

import numpy as np
import pytest

from oracles.fenwick import FenwickTree, stack_distances_fenwick
from repro.core.mrc import (
    MissRatioCurve,
    MRCCache,
    MRCCacheKey,
    MRCEntry,
    MRCParameters,
    MRCSlot,
    stack_distances,
)
from repro.engine.bufferpool import LRUBufferPool
from repro.sim.trace import AccessWindow


def sliced(trace, watermark=None):
    """A reference to ``trace`` as the newest accesses of a window that has
    seen ``watermark`` accesses (``len(trace)`` by default)."""
    watermark = len(trace) if watermark is None else watermark
    window = AccessWindow(max(1, watermark))
    window.record_many([0] * (watermark - len(trace)) + list(trace))
    return window.slice_ending_at(watermark, len(trace))


class TestFenwickTree:
    def test_prefix_sum_empty(self):
        assert FenwickTree(10).prefix_sum(5) == 0

    def test_add_and_prefix(self):
        tree = FenwickTree(10)
        tree.add(3, 1)
        tree.add(7, 2)
        assert tree.prefix_sum(4) == 1
        assert tree.prefix_sum(8) == 3

    def test_range_sum(self):
        tree = FenwickTree(10)
        for i in range(10):
            tree.add(i, 1)
        assert tree.range_sum(2, 5) == 3

    def test_negative_delta(self):
        tree = FenwickTree(4)
        tree.add(1, 1)
        tree.add(1, -1)
        assert tree.prefix_sum(4) == 0

    def test_prefix_clips_at_size(self):
        tree = FenwickTree(4)
        tree.add(0, 1)
        assert tree.prefix_sum(100) == 1

    def test_out_of_range_add(self):
        with pytest.raises(IndexError):
            FenwickTree(4).add(4, 1)

    def test_invalid_range(self):
        with pytest.raises(IndexError):
            FenwickTree(4).range_sum(3, 1)


class TestStackDistances:
    def test_first_accesses_are_cold(self):
        assert stack_distances([1, 2, 3]).tolist() == [0, 0, 0]

    def test_immediate_reuse_distance_one(self):
        assert stack_distances([1, 1]).tolist() == [0, 1]

    def test_classic_example(self):
        # Trace a b c a: the reuse of a sees b and c in between -> depth 3.
        assert stack_distances([1, 2, 3, 1]).tolist() == [0, 0, 0, 3]

    def test_repeated_intermediate_counts_once(self):
        # a b b a: only one distinct page between the two accesses to a.
        assert stack_distances([1, 2, 2, 1]).tolist() == [0, 0, 1, 2]

    def test_empty_trace(self):
        assert len(stack_distances([])) == 0

    def test_matches_naive_implementation(self):
        rng = np.random.default_rng(5)
        trace = rng.integers(0, 30, size=300)

        def naive(trace):
            stack = []
            out = []
            for page in trace:
                if page in stack:
                    depth = len(stack) - stack.index(page)
                    out.append(depth)
                    stack.remove(page)
                else:
                    out.append(0)
                stack.append(page)
            return out

        assert stack_distances(trace).tolist() == naive(trace.tolist())


def reuse_trace(length: int, pages: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, pages, size=length)


class TestStackDistanceSeams:
    """Differential checks against the Fenwick oracle where the partition
    kernel changes shape: block counts, leaf sizes, word width, key packing."""

    @pytest.mark.parametrize("exponent", range(1, 14))
    def test_lengths_around_powers_of_two(self, exponent):
        for length in (2**exponent - 1, 2**exponent, 2**exponent + 1):
            trace = reuse_trace(length, pages=length // 4 + 1, seed=exponent)
            assert np.array_equal(
                stack_distances(trace), stack_distances_fenwick(trace)
            ), length

    @pytest.mark.parametrize(
        "warm", [1, 2, 63, 64, 65, 127, 128, 129, 64 * 8 - 1, 64 * 8 + 1, 4097]
    )
    def test_warm_counts_around_leaf_and_level_changes(self, warm):
        # 3 cold references, then exactly ``warm`` re-references.
        trace = np.concatenate([[7, 8, 9], reuse_trace(warm, pages=3) + 7])
        assert np.array_equal(stack_distances(trace), stack_distances_fenwick(trace))

    def test_more_than_65536_warm_references_use_the_wide_word(self):
        trace = reuse_trace(70_000, pages=300, seed=3)
        assert np.array_equal(stack_distances(trace), stack_distances_fenwick(trace))

    def test_all_cold(self):
        assert not stack_distances(np.arange(1000)[::-1]).any()

    def test_single_page(self):
        assert stack_distances([5] * 200).tolist() == [0] + [1] * 199

    def test_two_alternating_pages(self):
        assert stack_distances([1, 2] * 100).tolist() == [0, 0] + [2] * 198

    @pytest.mark.parametrize(
        "pages",
        [
            [-3, -1, -3, -2, -1, -3],
            [2**32 + 5, 2**40, 2**32 + 5, -9, 2**40, -9],
            # too spread to pack page and position into one 64-bit key
            [-(2**62), 2**62, -(2**62), 5, 2**62, 5, -(2**62)],
        ],
        ids=["negative", "beyond-32-bit", "beyond-one-key"],
    )
    def test_page_ids_outside_the_small_non_negative_range(self, pages):
        assert np.array_equal(stack_distances(pages), stack_distances_fenwick(pages))

    def test_input_kinds_agree_and_input_is_left_alone(self):
        base = reuse_trace(3000, pages=40, seed=9)
        expected = stack_distances_fenwick(base)
        frozen = base.copy()
        frozen.flags.writeable = False
        strided = np.repeat(base, 2)[::2]
        reversed_view = base[::-1].copy()[::-1]
        for trace in (
            base.tolist(), tuple(base.tolist()), base.astype(np.int32),
            frozen, strided, reversed_view,
        ):
            assert np.array_equal(stack_distances(trace), expected)
        assert np.array_equal(frozen, base)
        assert stack_distances(frozen).dtype == np.int64

    def test_prefix_identity_on_a_long_trace(self):
        # distance i depends on references before i only: a cheap large-n check
        trace = reuse_trace(100_000, pages=20_000, seed=16)
        whole = stack_distances(trace)
        for cut in (1, 4096, 65_537, 99_999):
            assert np.array_equal(whole[:cut], stack_distances(trace[:cut])), cut


class TestMissRatioCurve:
    def test_zero_memory_always_misses(self):
        curve = MissRatioCurve.from_trace([1, 1, 2, 2])
        assert curve.miss_ratio(0) == 1.0

    def test_large_memory_leaves_cold_misses(self):
        trace = [1, 2, 3, 1, 2, 3]
        curve = MissRatioCurve.from_trace(trace)
        assert curve.miss_ratio(100) == pytest.approx(0.5)  # 3 cold of 6

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(7)
        trace = rng.integers(0, 50, size=2000)
        curve = MissRatioCurve.from_trace(trace)
        ratios = [curve.miss_ratio(m) for m in range(0, 60)]
        assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_matches_lru_simulation(self):
        # Mattson's one-pass prediction must equal an actual LRU pool.
        rng = np.random.default_rng(11)
        trace = rng.integers(0, 40, size=1500)
        curve = MissRatioCurve.from_trace(trace)
        for capacity in (1, 4, 16, 64):
            pool = LRUBufferPool(capacity)
            pool.access_many(trace)
            assert curve.hits_at(capacity) == pool.stats.hits

    def test_cyclic_scan_is_lru_pathological(self):
        # Scanning N pages cyclically: zero hits until the region fits.
        trace = list(range(20)) * 5
        curve = MissRatioCurve.from_trace(trace)
        assert curve.miss_ratio(19) == 1.0
        assert curve.miss_ratio(20) == pytest.approx(20 / 100)

    def test_empty_trace_safe(self):
        curve = MissRatioCurve.from_trace([])
        assert curve.miss_ratio(10) == 0.0

    def test_curve_sampling(self):
        curve = MissRatioCurve.from_trace([1, 1, 2, 2])
        samples = curve.curve([1, 2])
        assert samples[0][0] == 1 and 0.0 <= samples[0][1] <= 1.0

    def test_rejects_negative_memory(self):
        with pytest.raises(ValueError):
            MissRatioCurve.from_trace([1]).miss_ratio(-1)


class TestParameters:
    def test_total_memory_capped_by_server(self):
        trace = list(range(100)) + list(range(100))
        curve = MissRatioCurve.from_trace(trace)
        params = curve.parameters(server_memory_pages=50)
        assert params.total_memory <= 50

    def test_total_memory_at_saturation(self):
        # Working set of 10 pages heavily reused: saturates at 10 pages.
        trace = list(range(10)) * 50
        curve = MissRatioCurve.from_trace(trace)
        params = curve.parameters(server_memory_pages=1000)
        assert params.total_memory == 10

    def test_acceptable_at_most_total(self):
        trace = list(range(10)) * 50
        params = MissRatioCurve.from_trace(trace).parameters(1000)
        assert params.acceptable_memory <= params.total_memory

    def test_acceptable_ratio_within_threshold(self):
        rng = np.random.default_rng(3)
        trace = rng.integers(0, 200, size=5000)
        curve = MissRatioCurve.from_trace(trace)
        params = curve.parameters(1000, acceptable_threshold=0.05)
        assert params.acceptable_miss_ratio <= params.ideal_miss_ratio + 0.05 + 1e-9

    def test_rejects_bad_server_memory(self):
        with pytest.raises(ValueError):
            MissRatioCurve.from_trace([1]).parameters(0)


class TestSignificance:
    def base(self, total=4000, acceptable=3000):
        return MRCParameters(
            total_memory=total,
            ideal_miss_ratio=0.1,
            acceptable_memory=acceptable,
            acceptable_miss_ratio=0.15,
        )

    def test_identical_not_significant(self):
        assert not self.base().significantly_differs_from(self.base())

    def test_large_relative_change_significant(self):
        changed = self.base(acceptable=1500)
        assert changed.significantly_differs_from(self.base())

    def test_change_below_relative_threshold_not_significant(self):
        changed = self.base(acceptable=2800)
        assert not changed.significantly_differs_from(self.base())

    def test_small_absolute_change_never_significant(self):
        # 40-page jitter in a 100-page class: relative 40% but absolute tiny.
        small = MRCParameters(100, 0.1, 100, 0.1)
        jitter = MRCParameters(140, 0.1, 140, 0.1)
        assert not jitter.significantly_differs_from(small)

    def test_direction_symmetric(self):
        grown = self.base(acceptable=6000)
        shrunk = self.base(acceptable=1000)
        assert grown.significantly_differs_from(self.base())
        assert shrunk.significantly_differs_from(self.base())

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            self.base().significantly_differs_from(self.base(), relative=-1)


def take(store, context_key, trace, watermark=None):
    """Record ``trace`` for ``context_key`` under the window version it ends at."""
    slice_ = sliced(trace, watermark)
    return store.record(context_key, MRCCacheKey(slice_.watermark), slice_)


class TestMRCTracker:
    """Taking and reading curves in the per-class store."""

    def test_compute_and_lookup(self):
        store = MRCCache(server_memory_pages=100)
        trace = list(range(10)) * 5
        entry = take(store, "app/q", trace).entry
        assert store.has("app/q")
        params = store.parameters_of("app/q")
        assert params == MissRatioCurve.from_trace(trace).parameters(100)
        assert entry.parameters is params and store.curve_of("app/q") is entry.curve

    def test_unknown_context_raises(self):
        store = MRCCache(server_memory_pages=100)
        with pytest.raises(KeyError):
            store.parameters_of("ghost")

    def test_recomputation_counter(self):
        store = MRCCache(server_memory_pages=100)
        take(store, "a", [1, 2, 3])
        take(store, "a", [1, 2, 3, 4])
        assert store.recomputations == 2
        assert len(store) == 1  # one slot per class

    def test_store_external_curve(self):
        # A known entry (as a checkpoint restores it) is served as it was
        # built, and serving it takes no curve.
        store = MRCCache(server_memory_pages=100)
        curve = MissRatioCurve.from_trace([1, 1, 2])
        params = curve.parameters(100)
        store._slots["x"] = MRCSlot(MRCCacheKey(3), MRCEntry.known(params, curve))
        assert store.get("x", MRCCacheKey(3)).entry.curve is curve
        assert store.parameters_of("x") == params
        assert (store.recomputations, store.hits) == (0, 1)

    def test_contexts_sorted(self):
        store = MRCCache(server_memory_pages=100)
        take(store, "b", [1])
        take(store, "a", [1])
        assert store.contexts() == ["a", "b"]

    def test_curves_in_recording_order(self):
        store = MRCCache(server_memory_pages=100)
        take(store, "b", [1, 1])
        take(store, "a", [1, 2, 1])
        # A refresh keeps the context's place.
        take(store, "b", [2, 2, 2], 5)
        # Listing reads nothing: every entry is still pending.
        listed = [(key, slot.entry.pending_slice) for key, slot in store.slots()]
        assert listed == [("b", (5, 3)), ("a", (3, 3))]
        assert [slot.entry.parameters.total_memory
                for _, slot in store.slots()] == [1, 2]
        assert all(slot.entry.pending_slice is None for _, slot in store.slots())

    def test_reset_forgets_curves_and_count_without_telemetry(self):
        from repro.obs import MetricRegistry

        registry = MetricRegistry()
        store = MRCCache(server_memory_pages=100, registry=registry)
        slot = take(store, "tpcw/q1", [1, 2, 1])
        store.get("tpcw/q1", slot.key)
        published = registry.snapshot()
        store.reset()
        assert (store.contexts(), store.recomputations, store.hits) == ([], 0, 0)
        assert registry.snapshot() == published


class TestNoReuseEdgeCase:
    """All-cold traces (``max_depth == 0``) — the curve has no shape.

    A trace that never revisits a page yields zero warm hits: no amount of
    memory helps, so every size is equivalent and the MRC parameters
    collapse to the documented convention of one page.
    """

    def test_all_cold_trace_has_no_depth(self):
        curve = MissRatioCurve.from_trace([1, 2, 3, 4])
        assert curve.max_depth == 0
        assert curve.minimum_miss_ratio == 1.0

    def test_smallest_size_clamps_to_one_page(self):
        curve = MissRatioCurve.from_trace([1, 2, 3, 4])
        for target in (0.0, 0.5, 1.0, 2.0):
            assert curve._smallest_size_with_ratio(target) == 1

    def test_parameters_collapse_to_one_page(self):
        params = MissRatioCurve.from_trace([1, 2, 3, 4]).parameters(8192)
        assert params.total_memory == 1
        assert params.ideal_miss_ratio == 1.0
        assert params.acceptable_memory == 1
        assert params.acceptable_miss_ratio == 1.0

    def test_empty_trace_parameters(self):
        params = MissRatioCurve.from_trace([]).parameters(8192)
        assert params.total_memory == 1
        assert params.ideal_miss_ratio == 0.0  # no accesses, no misses
        assert params.acceptable_memory == 1

    def test_single_access_trace(self):
        params = MissRatioCurve.from_trace([42]).parameters(8192)
        assert params.total_memory == 1
        assert params.ideal_miss_ratio == 1.0


class TestTrackerTelemetry:
    def test_compute_publishes_counter_and_histogram(self):
        from repro.obs import MetricRegistry

        registry = MetricRegistry()
        store = MRCCache(server_memory_pages=100, registry=registry)
        take(store, "tpcw/q1", [1, 2, 1, 2])
        take(store, "tpcw/q2", [1, 2, 3])
        take(store, "rubis/q1", [5, 5])
        assert registry.value("mrc.recomputations", app="tpcw") == 2.0
        assert registry.value("mrc.recomputations", app="rubis") == 1.0
        hist = registry.histogram("mrc.trace_length")
        assert hist.count == 3
        assert hist.sum == 4 + 3 + 2

    def test_store_counts_as_recomputation(self):
        # Recording counts at once, before (and whether or not) anything
        # reads the curve.
        from repro.obs import MetricRegistry

        registry = MetricRegistry()
        store = MRCCache(server_memory_pages=100, registry=registry)
        take(store, "tpcw/q1", [1, 1, 2])
        assert registry.value("mrc.recomputations", app="tpcw") == 1.0
        assert registry.histogram("mrc.trace_length").sum == 3
        assert store.recomputations == 1

    def test_default_registry_records_nothing(self):
        store = MRCCache(server_memory_pages=100)
        take(store, "tpcw/q1", [1, 2, 1])
        store.get("tpcw/q1", MRCCacheKey(0))
        assert store.registry.snapshot() == []
        assert store.recomputations == 1
