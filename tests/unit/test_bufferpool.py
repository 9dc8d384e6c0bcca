"""Unit tests for the LRU and quota-partitioned buffer pools."""

import numpy as np
import pytest

from oracles.lru import lru_order, prefetch_per_page, resident
from repro.engine.bufferpool import LRUBufferPool, PartitionedBufferPool, PoolStats


class TestPoolStats:
    def test_hit_ratio_of_untouched_pool_is_one(self):
        assert PoolStats().hit_ratio == 1.0

    def test_counts_accumulate(self):
        stats = PoolStats()
        stats.record_batch("q", hits=1, misses=0)
        stats.record_batch("q", hits=0, misses=2)
        assert stats.accesses == 3
        assert stats.hit_ratio == pytest.approx(1 / 3)

    def test_per_class_isolation(self):
        stats = PoolStats()
        stats.record_batch("a", hits=1, misses=0)
        stats.record_batch("b", hits=0, misses=1)
        assert stats.per_class["a"] == {"hits": 1, "misses": 0, "readaheads": 0}
        assert stats.per_class["b"] == {"hits": 0, "misses": 1, "readaheads": 0}

    def test_readahead_counts(self):
        stats = PoolStats()
        stats.record_readahead("q", 5)
        assert stats.readaheads == 5
        assert stats.per_class["q"]["readaheads"] == 5


class TestLRUBufferPool:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUBufferPool(0)

    def test_first_access_misses(self):
        pool = LRUBufferPool(4)
        assert pool.access_many([1]) == 0

    def test_second_access_hits(self):
        pool = LRUBufferPool(4)
        pool.access_many([1])
        assert pool.access_many([1]) == 1

    def test_capacity_enforced(self):
        pool = LRUBufferPool(2)
        for page in (1, 2, 3):
            pool.access_many([page])
        assert len(pool) == 2

    def test_lru_eviction_order(self):
        pool = LRUBufferPool(2)
        pool.access_many([1])
        pool.access_many([2])
        pool.access_many([3])  # evicts 1
        assert not resident(pool, 1)
        assert resident(pool, 2) and resident(pool, 3)

    def test_access_refreshes_recency(self):
        pool = LRUBufferPool(2)
        pool.access_many([1])
        pool.access_many([2])
        pool.access_many([1])  # 1 is now MRU
        pool.access_many([3])  # evicts 2
        assert resident(pool, 1) and not resident(pool, 2)

    def test_lru_order_reports_least_recent_first(self):
        pool = LRUBufferPool(3)
        for page in (1, 2, 3):
            pool.access_many([page])
        pool.access_many([1])
        assert lru_order(pool) == [2, 3, 1]

    def test_prefetch_loads_pages_without_demand_misses(self):
        pool = LRUBufferPool(4)
        fetched = pool.prefetch_many([1, 2], "q")
        assert fetched == 2
        assert pool.stats.misses == 0
        assert pool.stats.readaheads == 2

    def test_prefetch_skips_resident_pages(self):
        pool = LRUBufferPool(4)
        pool.access_many([1])
        assert pool.prefetch_many([1, 2]) == 1

    def test_demand_after_prefetch_hits(self):
        pool = LRUBufferPool(4)
        pool.prefetch_many([5])
        assert pool.access_many([5]) == 1


class TestPartitionedBufferPool:
    def test_quota_reserved_partitions(self):
        pool = PartitionedBufferPool(10, quotas={"hog": 4})
        assert pool.quota_of("hog") == 4
        assert pool.quota_of(PartitionedBufferPool.DEFAULT) == 6

    def test_quotas_cannot_consume_whole_pool(self):
        with pytest.raises(ValueError):
            PartitionedBufferPool(10, quotas={"hog": 10})

    def test_default_partition_name_reserved(self):
        with pytest.raises(ValueError):
            PartitionedBufferPool(10, quotas={"default": 2})

    def test_unassigned_class_uses_default(self):
        pool = PartitionedBufferPool(10, quotas={"hog": 4})
        assert pool.partition_for("anything") == PartitionedBufferPool.DEFAULT

    def test_assignment_routes_accesses(self):
        pool = PartitionedBufferPool(6, quotas={"hog": 2})
        pool.assign("scan", "hog")
        # Fill the hog partition beyond quota; default stays untouched.
        for page in (1, 2, 3):
            pool.access_many([page], "scan")
        assert not resident(pool, 1)  # evicted within the 2-page partition
        pool.access_many([100], "other")
        assert resident(pool, 100)

    def test_assign_to_unknown_partition_rejected(self):
        pool = PartitionedBufferPool(10, quotas={"hog": 4})
        with pytest.raises(KeyError):
            pool.assign("q", "nope")

    def test_isolation_between_partitions(self):
        pool = PartitionedBufferPool(8, quotas={"hog": 4})
        pool.assign("scan", "hog")
        pool.access_many([1], "victim")  # default partition
        # Scan floods its own partition only.
        for page in range(100, 120):
            pool.access_many([page], "scan")
        assert resident(pool, 1)

    def test_global_stats_aggregate(self):
        pool = PartitionedBufferPool(8, quotas={"hog": 4})
        pool.assign("scan", "hog")
        pool.access_many([1], "scan")
        pool.access_many([1], "scan")
        pool.access_many([2], "other")
        assert pool.stats.hits == 1
        assert pool.stats.misses == 2

    def test_len_sums_partitions(self):
        pool = PartitionedBufferPool(8, quotas={"hog": 4})
        pool.assign("scan", "hog")
        pool.access_many([1], "scan")
        pool.access_many([2], "other")
        assert len(pool) == 2

    def test_prefetch_respects_partition(self):
        pool = PartitionedBufferPool(6, quotas={"hog": 2})
        pool.assign("scan", "hog")
        pool.prefetch_many([1, 2, 3], "scan")
        assert len(pool) == 2  # clipped to the hog partition's quota

    def test_partition_stats_accessible(self):
        pool = PartitionedBufferPool(8, quotas={"hog": 4})
        pool.assign("scan", "hog")
        pool.access_many([1], "scan")
        assert pool._partitions["hog"].stats.misses == 1


class TestReplayTrace:
    def test_single_class_replay(self):
        pool = LRUBufferPool(2)
        pool.access_many([1, 2, 1, 3, 1])
        assert pool.stats.accesses == 5
        assert pool.stats.hits == 2  # the two re-references to page 1

    def test_replay_with_class_tags(self):
        # An interleaved trace goes down as one batch per run of one class.
        pool = LRUBufferPool(4)
        for page, query_class in zip([1, 2, 1], ["a", "b", "a"]):
            pool.access_many([page], query_class)
        assert pool.stats.per_class["a"]["hits"] == 1
        assert pool.stats.per_class["a"]["misses"] == 1
        assert pool.stats.per_class["b"]["misses"] == 1
        assert pool.stats.per_class["b"]["hits"] == 0


class TestEvictionCounters:
    def test_no_evictions_below_capacity(self):
        pool = LRUBufferPool(4)
        pool.access_many([1, 2, 3])
        assert pool.stats.evictions == 0
        assert pool.total_evictions == 0

    def test_every_overflow_admission_evicts_once(self):
        pool = LRUBufferPool(2)
        pool.access_many([1, 2, 3, 4, 5])
        # Pool holds 2 pages; admissions 3..5 each push one victim out.
        assert pool.total_evictions == 3
        assert len(pool) == 2

    def test_prefetch_evictions_counted(self):
        pool = LRUBufferPool(2)
        pool.prefetch_many([1, 2, 3, 4])
        assert pool.total_evictions == 2

    def test_record_eviction_accumulates(self):
        stats = PoolStats()
        stats.record_eviction()
        stats.record_eviction(2)
        assert stats.evictions == 3

    def test_partitioned_pool_sums_partition_evictions(self):
        pool = PartitionedBufferPool(6, quotas={"scan": 2})
        pool.assign("scan-class", "scan")
        # The scan partition holds 2 pages: the third access evicts one.
        for page in (100, 101, 102):
            pool.access_many([page], "scan-class")
        # The 4-page default partition sees five distinct pages: one eviction.
        for page in (1, 2, 3, 4, 5):
            pool.access_many([page], "other")
        assert pool.total_evictions == 2


class _EvictionSpyStats(PoolStats):
    """PoolStats that counts how evictions were reported to it."""

    def __init__(self):
        super().__init__()
        self.record_eviction_calls = 0

    def record_eviction(self, count=1):
        self.record_eviction_calls += 1
        super().record_eviction(count)


class TestEvictionAccounting:
    """Regression: every eviction flows through ``record_eviction`` and
    child-partition evictions reach the partitioned pool's top-level stats."""

    def test_admit_routes_through_record_eviction(self):
        # One page per batch: every admission past capacity reports itself.
        pool = LRUBufferPool(2)
        pool.stats = _EvictionSpyStats()
        for page in (1, 2, 3, 4):
            pool.access_many([page])
        assert pool.stats.record_eviction_calls == 2
        assert pool.stats.evictions == 2

    def test_batched_access_routes_through_record_eviction(self):
        pool = LRUBufferPool(2)
        pool.stats = _EvictionSpyStats()
        pool.access_many([1, 2, 3, 4, 5])
        assert pool.stats.record_eviction_calls > 0
        assert pool.stats.evictions == 3

    def test_partitioned_child_evictions_reach_top_level_stats(self):
        pool = PartitionedBufferPool(6, quotas={"hog": 2})
        pool.assign("scan", "hog")
        for page in range(5):
            pool.access_many([page], "scan")
        for page in range(100, 106):
            pool.access_many([page], "other")
        assert pool.stats.evictions > 0
        assert pool.stats.evictions == pool.total_evictions

    def test_partitioned_batched_evictions_reach_top_level_stats(self):
        pool = PartitionedBufferPool(6, quotas={"hog": 2})
        pool.assign("scan", "hog")
        pool.access_many(list(range(5)), "scan")
        assert pool.stats.evictions == pool.total_evictions == 3

    def test_partitioned_prefetch_evictions_reach_top_level_stats(self):
        pool = PartitionedBufferPool(6, quotas={"hog": 2})
        pool.assign("scan", "hog")
        pool.prefetch_many([1, 2, 3, 4], "scan")
        assert pool.stats.evictions == pool.total_evictions == 2


class TestBatchedAccess:
    def test_access_many_returns_hit_count(self):
        pool = LRUBufferPool(4)
        assert pool.access_many([1, 2, 1, 2, 3]) == 2

    def test_access_many_accepts_ndarray(self):
        pool = LRUBufferPool(4)
        hits = pool.access_many(np.asarray([1, 2, 1], dtype=np.int64))
        assert hits == 1
        assert lru_order(pool) == [2, 1]

    def test_access_many_updates_per_class_stats(self):
        pool = LRUBufferPool(4)
        pool.access_many([1, 2, 1], "q")
        assert pool.stats.per_class["q"] == {
            "hits": 1, "misses": 2, "readaheads": 0,
        }

    def test_record_batch_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            PoolStats().record_batch("q", hits=-1, misses=0)

    def test_prefetch_many_ndarray_dedups_first_occurrence(self):
        # One read-ahead path for lists and ndarrays: the residency filter
        # drops the repeats, first occurrence wins, keys are Python ints.
        for vector in ([5, 3, 5, 3, 7], np.asarray([5, 3, 5, 3, 7])):
            pool = LRUBufferPool(8)
            fetched = pool.prefetch_many(vector, "q")
            assert fetched == 3
            assert lru_order(pool) == [5, 3, 7]
            assert all(type(page) is int for page in lru_order(pool))
            assert pool.stats.readaheads == 3

    def test_prefetch_many_overflow_matches_per_page_loop(self):
        # Duplicates spanning an eviction: the second occurrence of 1 finds
        # it evicted by this very batch and re-fetches it.
        vector = [1, 2, 3, 1]
        fast = LRUBufferPool(2)
        assert fast.prefetch_many(np.asarray(vector), "q") == 4
        slow = LRUBufferPool(2)
        prefetch_per_page(slow, vector, "q")
        assert lru_order(fast) == lru_order(slow)
        assert fast.stats.readaheads == slow.stats.readaheads
        assert fast.total_evictions == slow.total_evictions

    def test_partitioned_access_many_routes_and_aggregates(self):
        pool = PartitionedBufferPool(6, quotas={"hog": 2})
        pool.assign("scan", "hog")
        pool.access_many([1, 2, 1], "scan")
        pool.access_many([9], "other")
        assert pool.stats.hits == 1
        assert pool.stats.misses == 3
        assert pool._partitions["hog"].stats.misses == 2
