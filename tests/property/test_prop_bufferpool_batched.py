"""Differential properties: batched pool paths vs the per-page loops.

The batched paths (``access_many`` / ``prefetch_many``) keep
their per-page work inside the C ``OrderedDict`` and promise to be
*bit-exact* with the per-page loops in ``tests/oracles/lru.py``: identical
hit returns, identical :class:`PoolStats` (global and per class), identical
LRU order, identical eviction counts — for both pool organisations, under
interleaved multi-class traffic, list, tuple, ndarray or generator inputs,
mid-trace partition reassignment, and pools that start empty, full or one
slot short of full.  These properties are the contract that lets every
engine-level caller use the batched paths without re-validating the
simulation.  The explicit cases below pin the edges of the C hit run (where
the first miss falls), of the lazy read-ahead filter (duplicates, pages
evicted by their own batch) and of the free-slot count a batch's admissions
are taken against (a pool that fills at a batch's last admission, a batch
that evicts its own admissions).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from itertools import groupby

from oracles.lru import access_per_page, lru_order, prefetch_per_page
from repro.engine.bufferpool import LRUBufferPool, PartitionedBufferPool, PoolStats

CLASSES = ["alpha", "beta", "gamma"]

batch_op = st.tuples(
    st.sampled_from(["access", "prefetch"]),
    st.sampled_from(CLASSES),
    st.lists(st.integers(min_value=0, max_value=30), min_size=0, max_size=20),
)
batch_ops = st.lists(batch_op, min_size=1, max_size=15)


def stats_fields(stats: PoolStats) -> dict:
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "readaheads": stats.readaheads,
        "evictions": stats.evictions,
        "per_class": stats.per_class,
    }


def class_misses(stats: PoolStats, cls: str) -> int:
    return stats.per_class.get(cls, {}).get("misses", 0)


def apply_per_page(pool, kind, cls, pages):
    if kind == "access":
        return access_per_page(pool, pages, cls)
    return prefetch_per_page(pool, pages, cls)


CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "ndarray": lambda pages: np.asarray(pages, dtype=np.int64),
    "generator": iter,
}
containers = st.sampled_from(sorted(CONTAINERS))


def apply_batched(pool, kind, cls, pages, container="list"):
    vector = CONTAINERS[container](pages)
    if kind == "access":
        return pool.access_many(vector, cls)
    return pool.prefetch_many(vector, cls)


def assert_same_pool(fast: LRUBufferPool, base: LRUBufferPool) -> None:
    assert lru_order(fast) == lru_order(base)
    assert all(type(page) is int for page in lru_order(fast))
    assert fast.total_evictions == base.total_evictions
    assert stats_fields(fast.stats) == stats_fields(base.stats)


@given(ops=batch_ops, capacity=st.integers(1, 12), container=containers)
@settings(max_examples=120, deadline=None)
def test_lru_batched_matches_per_page(ops, capacity, container):
    base = LRUBufferPool(capacity)
    fast = LRUBufferPool(capacity)
    for kind, cls, pages in ops:
        expected = apply_per_page(base, kind, cls, pages)
        got = apply_batched(fast, kind, cls, pages, container)
        assert got == expected
    assert_same_pool(fast, base)


@given(
    ops=batch_ops,
    capacity=st.integers(4, 16),
    quota=st.integers(1, 3),
    assignments=st.lists(
        st.tuples(st.sampled_from(CLASSES), st.sampled_from(["hog", "default"])),
        max_size=4,
    ),
    container=containers,
)
@settings(max_examples=120, deadline=None)
def test_partitioned_batched_matches_per_page(
    ops, capacity, quota, assignments, container
):
    """Same differential under quota partitioning, with the assignment map
    mutating mid-trace (one reassignment before every ceil(n/k)-th batch)."""
    base = PartitionedBufferPool(capacity, quotas={"hog": quota})
    fast = PartitionedBufferPool(capacity, quotas={"hog": quota})
    reassign_every = max(1, len(ops) // max(1, len(assignments))) if assignments else 0
    next_assignment = 0
    for index, (kind, cls, pages) in enumerate(ops):
        if assignments and index % reassign_every == 0 and next_assignment < len(
            assignments
        ):
            moved_cls, partition = assignments[next_assignment]
            next_assignment += 1
            base.assign(moved_cls, partition)
            fast.assign(moved_cls, partition)
        expected = apply_per_page(base, kind, cls, pages)
        got = apply_batched(fast, kind, cls, pages, container)
        assert got == expected
    assert len(fast) == len(base)
    assert fast.total_evictions == base.total_evictions
    assert stats_fields(fast.stats) == stats_fields(base.stats)
    for name in base.partition_names:
        # Private access: the per-partition LRU order is the strongest
        # equivalence there is, and no public API exposes it.
        assert lru_order(fast._partitions[name]) == lru_order(base._partitions[name])
        assert stats_fields(fast._partitions[name].stats) == stats_fields(
            base._partitions[name].stats
        )


@given(
    trace=st.lists(st.integers(min_value=0, max_value=25), min_size=0, max_size=120),
    capacity=st.integers(1, 10),
    tagged=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_replay_trace_matches_per_page(trace, capacity, tagged, seed):
    """A trace replayed as one batch per run of same-class accesses is
    equivalent to the naive per-page loop, tagged or untagged."""
    rng = np.random.default_rng(seed)
    classes = (
        [CLASSES[int(i)] for i in rng.integers(0, len(CLASSES), size=len(trace))]
        if tagged
        else None
    )
    tags = classes if classes is not None else ["q"] * len(trace)
    base = LRUBufferPool(capacity)
    for page, cls in zip(trace, tags):
        access_per_page(base, [page], cls)
    fast = LRUBufferPool(capacity)
    for cls, run in groupby(zip(trace, tags), key=lambda pair: pair[1]):
        fast.access_many([page for page, _ in run], cls)
    assert lru_order(fast) == lru_order(base)
    assert stats_fields(fast.stats) == stats_fields(base.stats)


@given(
    before=st.lists(st.integers(min_value=0, max_value=20), max_size=40),
    after=st.lists(st.integers(min_value=0, max_value=20), max_size=40),
    cap_before=st.integers(1, 8),
    cap_after=st.integers(1, 8),
)
@settings(max_examples=40, deadline=None)
def test_batched_equivalence_survives_pool_rebuild(
    before, after, cap_before, cap_after
):
    """A resize (modelled as the engine does it: a cold rebuild at the new
    capacity) preserves the batched/per-page equivalence on both sides."""
    base = LRUBufferPool(cap_before)
    fast = LRUBufferPool(cap_before)
    access_per_page(base, before, "q")
    fast.access_many(before, "q")
    base = LRUBufferPool(cap_after)
    fast = LRUBufferPool(cap_after)
    access_per_page(base, after, "q")
    fast.access_many(np.asarray(after, dtype=np.int64), "q")
    assert lru_order(fast) == lru_order(base)
    assert stats_fields(fast.stats) == stats_fields(base.stats)


# A batch counts its admissions against the free slots it starts with, so
# the pools below start with none (full) or exactly one (one slot short).
# The fill pages overlap the traffic's 0…30 by a drawn offset, so the first
# batches hit, miss and evict in every mix.
free_at_start = st.sampled_from([0, 1])


def prefill(pool, query_class: str, pages: int, offset: int) -> None:
    access_per_page(pool, range(offset, offset + pages), query_class)


@given(
    ops=batch_ops,
    capacity=st.integers(1, 12),
    free=free_at_start,
    offset=st.integers(0, 30),
    container=containers,
)
@settings(max_examples=120, deadline=None)
def test_lru_batched_matches_per_page_from_a_prefilled_pool(
    ops, capacity, free, offset, container
):
    base = LRUBufferPool(capacity, eviction_sink=PoolStats())
    fast = LRUBufferPool(capacity, eviction_sink=PoolStats())
    for pool in (base, fast):
        prefill(pool, "warm", capacity - free, offset)
    assert len(fast) == capacity - free
    for kind, cls, pages in ops:
        expected = apply_per_page(base, kind, cls, pages)
        got = apply_batched(fast, kind, cls, pages, container)
        assert got == expected
        assert len(fast) == len(base) <= capacity
    assert_same_pool(fast, base)
    assert stats_fields(fast._eviction_sink) == stats_fields(base._eviction_sink)


@given(
    ops=batch_ops,
    capacity=st.integers(4, 16),
    quota=st.integers(1, 3),
    free=free_at_start,
    offset=st.integers(0, 30),
    container=containers,
)
@settings(max_examples=120, deadline=None)
def test_partitioned_batched_matches_per_page_from_prefilled_partitions(
    ops, capacity, quota, free, offset, container
):
    """Both partitions start full or one slot short: ``alpha`` reads the
    ``hog`` partition, ``beta`` and ``gamma`` the default one."""
    base = PartitionedBufferPool(capacity, quotas={"hog": quota})
    fast = PartitionedBufferPool(capacity, quotas={"hog": quota})
    for pool in (base, fast):
        pool.assign("alpha", "hog")
        prefill(pool, "alpha", quota - free, offset)
        prefill(pool, "beta", capacity - quota - free, offset + quota)
    assert len(fast) == capacity - 2 * free
    for kind, cls, pages in ops:
        expected = apply_per_page(base, kind, cls, pages)
        got = apply_batched(fast, kind, cls, pages, container)
        assert got == expected
    assert fast.total_evictions == base.total_evictions == fast.stats.evictions
    assert stats_fields(fast.stats) == stats_fields(base.stats)
    for name in base.partition_names:
        assert_same_pool(fast._partitions[name], base._partitions[name])
        assert len(fast._partitions[name]) <= fast.quota_of(name)


# --------------------------------------------------------------------- #
# Explicit edges of the C hit run and of the lazy read-ahead filter     #
# --------------------------------------------------------------------- #


def twin_pools(capacity: int, warm: list[int]) -> tuple[LRUBufferPool, LRUBufferPool]:
    base = LRUBufferPool(capacity)
    fast = LRUBufferPool(capacity)
    access_per_page(base, warm, "warm")
    access_per_page(fast, warm, "warm")
    return base, fast


@pytest.mark.parametrize(
    ("batch", "hits", "order"),
    [
        # Pool holds 1, 2, 3, 4 (LRU to MRU), capacity 4.
        pytest.param([9, 3, 4], 2, [2, 9, 3, 4], id="first-miss-at-index-0"),
        pytest.param([1, 2, 9], 2, [4, 1, 2, 9], id="first-miss-at-last-index"),
        pytest.param([3, 1, 3], 3, [2, 4, 1, 3], id="no-miss"),
        pytest.param([1, 2, 3, 4, 9], 4, [2, 3, 4, 9], id="whole-pool-hit-then-a-miss"),
        pytest.param([2, 2, 1, 2, 1], 5, [3, 4, 2, 1], id="duplicates-in-the-hit-run"),
        pytest.param([2, 9, 2, 8, 1], 2, [9, 2, 8, 1], id="hit-miss-alternating"),
        pytest.param([9, 9, 9], 2, [2, 3, 4, 9], id="missed-page-hits-afterwards"),
        pytest.param([7, 8, 9, 6, 1], 0, [8, 9, 6, 1], id="evicts-its-own-hit-candidate"),
        pytest.param([], 0, [1, 2, 3, 4], id="empty"),
    ],
)
def test_access_many_edges(batch, hits, order):
    base, fast = twin_pools(4, [1, 2, 3, 4])
    assert access_per_page(base, batch, "q") == hits
    assert fast.access_many(batch, "q") == hits
    assert lru_order(base) == order
    assert_same_pool(fast, base)
    assert class_misses(fast.stats, "q") == len(batch) - hits
    assert ("q" in fast.stats.per_class) == bool(batch)


@pytest.mark.parametrize(
    ("batch", "fetched", "order", "evictions"),
    [
        # Pool holds 1, 2, 3 (LRU to MRU), capacity 4.
        pytest.param([1, 2, 3], 0, [1, 2, 3], 0, id="all-resident"),
        pytest.param([5, 5, 1, 5], 1, [1, 2, 3, 5], 0, id="duplicate-ids"),
        # 5 fills the pool, 6 evicts 1, the second 1 must be fetched again
        # (evicting 2), and the 2 after it likewise (evicting 3).
        pytest.param(
            [5, 6, 1, 2], 4, [5, 6, 1, 2], 3, id="evicted-by-its-own-batch-refetched"
        ),
        pytest.param([5, 6, 6, 5], 2, [2, 3, 5, 6], 1, id="duplicates-after-eviction"),
        pytest.param([], 0, [1, 2, 3], 0, id="empty"),
    ],
)
def test_prefetch_edges(batch, fetched, order, evictions):
    base, fast = twin_pools(4, [1, 2, 3])
    many = LRUBufferPool(4)
    many.access_many([1, 2, 3], "warm")
    assert prefetch_per_page(base, batch, "q") == fetched
    assert fast.prefetch_many(batch, "q") == fetched
    assert many.prefetch_many(batch, "q") == fetched
    assert lru_order(base) == order
    assert base.total_evictions == evictions
    assert_same_pool(fast, base)
    assert_same_pool(many, base)
    # Read-ahead does not move a resident page and counts no demand access.
    assert class_misses(fast.stats, "q") == 0
    assert ("q" in fast.stats.per_class) == bool(fetched)


def test_capacity_one_pool():
    base, fast = twin_pools(1, [])
    for kind, batch in [
        ("access", [1, 1, 2, 2, 1]),
        ("prefetch", [1, 3, 3, 1]),
        ("access", [1, 1]),
    ]:
        assert apply_batched(fast, kind, "q", batch) == apply_per_page(
            base, kind, "q", batch
        )
        assert_same_pool(fast, base)
    assert lru_order(fast) == [1]
    assert stats_fields(fast.stats) == {
        "hits": 4,
        "misses": 3,
        "readaheads": 2,
        "evictions": 4,
        "per_class": {"q": {"hits": 4, "misses": 3, "readaheads": 2}},
    }


@pytest.mark.parametrize("container", sorted(CONTAINERS))
@pytest.mark.parametrize("partitioned", [False, True])
def test_input_containers(container, partitioned):
    """Every container leaves the same pool behind as the per-page loops do,
    ints included (an ndarray's ``np.int64`` never becomes a key)."""

    def build():
        if partitioned:
            return PartitionedBufferPool(8, quotas={"hog": 3})
        return LRUBufferPool(3)

    base = build()
    fast = build()
    for kind, batch, expected in [
        ("access", [5, 6], 0),
        ("access", [4, 5, 6, 7, 8], 2),
        ("prefetch", [7, 8, 9, 10, 9], 2),
    ]:
        assert apply_per_page(base, kind, "q", batch) == expected
        assert apply_batched(fast, kind, "q", batch, container) == expected
    assert stats_fields(fast.stats) == stats_fields(base.stats)
    pools = (
        [(fast._partitions[n], base._partitions[n]) for n in base.partition_names]
        if partitioned
        else [(fast, base)]
    )
    for fast_pool, base_pool in pools:
        assert_same_pool(fast_pool, base_pool)


def test_a_generator_that_raises_keyerror_is_not_mistaken_for_a_miss():
    def pages():
        yield 1
        raise KeyError(2)

    pool = LRUBufferPool(4)
    pool.access_many([1, 2], "warm")
    with pytest.raises(KeyError):
        pool.access_many(pages(), "q")
    assert lru_order(pool) == [1, 2]
    assert "q" not in pool.stats.per_class


def test_partitioned_child_evictions_reach_the_top_level_sink():
    base = PartitionedBufferPool(6, quotas={"hog": 2})
    fast = PartitionedBufferPool(6, quotas={"hog": 2})
    for pool in (base, fast):
        pool.assign("scan", "hog")
    steps = [
        ("access", "scan", [1, 2, 1, 3, 4]),  # first miss at 0, then evictions
        ("prefetch", "scan", [3, 5, 3, 5]),  # 5 evicts 3, which is re-fetched
        ("access", "other", [10, 11, 10]),
        ("access", "scan", [3, 5, 3]),  # all hits: the C run alone
        ("prefetch", "other", [12, 13, 14, 10]),  # 14 evicts from default
    ]
    for kind, cls, batch in steps:
        assert apply_batched(fast, kind, cls, batch) == apply_per_page(
            base, kind, cls, batch
        )
    assert stats_fields(fast.stats) == stats_fields(base.stats)
    assert fast.stats.evictions == fast.total_evictions == 5
    assert fast.stats.evictions == sum(
        fast._partitions[name].stats.evictions for name in fast.partition_names
    )
    for name in base.partition_names:
        assert_same_pool(fast._partitions[name], base._partitions[name])


# --------------------------------------------------------------------- #
# Explicit edges of the free-slot count                                 #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", ["access", "prefetch"])
def test_pool_fills_exactly_at_the_last_admission(kind):
    """Two free slots, two admissions, the second the batch's last page:
    nothing is evicted, and the next admission evicts exactly one page."""
    base, fast = twin_pools(4, [1, 2])
    assert apply_batched(fast, kind, "q", [1, 3, 2, 4]) == apply_per_page(
        base, kind, "q", [1, 3, 2, 4]
    )
    assert len(fast) == 4
    assert fast.total_evictions == 0
    assert_same_pool(fast, base)
    assert apply_batched(fast, kind, "q", [5]) == apply_per_page(base, kind, "q", [5])
    assert fast.total_evictions == 1
    assert_same_pool(fast, base)


def test_demand_batch_with_more_misses_than_the_capacity_evicts_its_own_admissions():
    # Two free slots; seven misses: 5 and 6 take the slots, 7 … 10 evict
    # 1, 2, 5, 6, and the second 5 (evicted by its own batch) misses again.
    base, fast = twin_pools(4, [1, 2])
    batch = [5, 6, 7, 8, 9, 10, 5]
    assert access_per_page(base, batch, "q") == 0
    assert fast.access_many(batch, "q") == 0
    assert lru_order(fast) == [8, 9, 10, 5]
    assert fast.total_evictions == len(batch) - 2
    assert class_misses(fast.stats, "q") == len(batch)
    assert_same_pool(fast, base)


def test_readahead_longer_than_its_partition_refetches_an_evicted_duplicate():
    # An empty 2-page partition: 1 and 2 take the free slots, 3 evicts 1,
    # so the second 1 is fetched again (evicting 2).
    base = PartitionedBufferPool(8, quotas={"hog": 2})
    fast = PartitionedBufferPool(8, quotas={"hog": 2})
    for pool in (base, fast):
        pool.assign("scan", "hog")
    batch = [1, 2, 3, 1]
    assert prefetch_per_page(base, batch, "scan") == 4
    assert fast.prefetch_many(batch, "scan") == 4
    assert lru_order(fast._partitions["hog"]) == [3, 1]
    assert fast.stats.evictions == fast.total_evictions == 2
    assert stats_fields(fast.stats) == stats_fields(base.stats)
    for name in base.partition_names:
        assert_same_pool(fast._partitions[name], base._partitions[name])


def test_prefilled_partition_evictions_reach_the_top_level_sink():
    """Child pools that start one slot short report only the admissions
    past that slot, and every one of them reaches the parent's stats."""
    base = PartitionedBufferPool(10, quotas={"hog": 3})
    fast = PartitionedBufferPool(10, quotas={"hog": 3})
    for pool in (base, fast):
        pool.assign("scan", "hog")
        access_per_page(pool, [1, 2], "scan")  # hog: one free slot
        access_per_page(pool, range(20, 26), "other")  # default: one free slot
    assert fast.stats.evictions == 0
    steps = [
        ("access", "scan", [2, 3, 4, 5]),  # 3 takes the slot, 4, 5 evict
        ("prefetch", "other", [26, 27, 25, 28]),  # 26 the slot, 27 and 28 evict
        ("prefetch", "scan", [6, 7, 8, 9]),  # all four evict
    ]
    for kind, cls, batch in steps:
        assert apply_batched(fast, kind, cls, batch) == apply_per_page(
            base, kind, cls, batch
        )
    assert fast._partitions["hog"].stats.evictions == 2 + 4
    assert fast._partitions["default"].stats.evictions == 2
    assert fast.stats.evictions == fast.total_evictions == 8
    assert stats_fields(fast.stats) == stats_fields(base.stats)
    for name in base.partition_names:
        assert_same_pool(fast._partitions[name], base._partitions[name])
