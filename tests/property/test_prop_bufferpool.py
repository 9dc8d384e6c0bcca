"""Property-based tests for the buffer pools.

LRU's inclusion property — a pool of k+1 pages always contains the contents
of a pool of k pages on the same trace — is what makes MRC analysis valid,
so it gets the adversarial treatment here.
"""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from oracles.lru import lru_order, resident
from repro.engine.bufferpool import LRUBufferPool, PartitionedBufferPool

traces = st.lists(st.integers(min_value=0, max_value=30), min_size=0, max_size=250)


@given(trace=traces, capacity=st.integers(min_value=1, max_value=20))
@settings(max_examples=60, deadline=None)
def test_inclusion_property(trace, capacity):
    small = LRUBufferPool(capacity)
    large = LRUBufferPool(capacity + 1)
    for page in trace:
        small.access_many([page])
        large.access_many([page])
    assert set(lru_order(small)).issubset(set(lru_order(large)))


@given(trace=traces, capacity=st.integers(min_value=1, max_value=20))
@settings(max_examples=60, deadline=None)
def test_matches_reference_lru(trace, capacity):
    """The pool agrees with a straightforward OrderedDict reference."""
    pool = LRUBufferPool(capacity)
    reference: OrderedDict[int, None] = OrderedDict()
    for page in trace:
        expected_hit = page in reference
        if expected_hit:
            reference.move_to_end(page)
        else:
            if len(reference) >= capacity:
                reference.popitem(last=False)
            reference[page] = None
        assert pool.access_many([page]) == expected_hit
    assert lru_order(pool) == list(reference.keys())


@given(trace=traces, capacity=st.integers(min_value=1, max_value=20))
@settings(max_examples=60, deadline=None)
def test_occupancy_never_exceeds_capacity(trace, capacity):
    pool = LRUBufferPool(capacity)
    for page in trace:
        pool.access_many([page])
        assert len(pool) <= capacity


@given(trace=traces)
@settings(max_examples=60, deadline=None)
def test_hits_plus_misses_equals_accesses(trace):
    pool = LRUBufferPool(8)
    for page in trace:
        pool.access_many([page])
    assert pool.stats.hits + pool.stats.misses == len(trace)


@given(
    trace=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.sampled_from(["hog", "rest"]),
        ),
        max_size=200,
    ),
    quota=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=60, deadline=None)
def test_partitioned_equals_two_independent_lrus(trace, quota):
    """A partitioned pool behaves exactly like two separate LRU pools."""
    total = quota + 8
    partitioned = PartitionedBufferPool(total, quotas={"hogp": quota})
    partitioned.assign("hog", "hogp")
    hog_ref = LRUBufferPool(quota)
    rest_ref = LRUBufferPool(total - quota)
    for page, group in trace:
        reference = hog_ref if group == "hog" else rest_ref
        hit = reference.access_many([page], group)
        assert partitioned.access_many([page], group) == hit


@given(trace=traces, capacity=st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_prefetched_pages_resident_until_evicted(trace, capacity):
    pool = LRUBufferPool(capacity)
    pool.prefetch_many(trace[: capacity // 2 + 1])
    recent = trace[: capacity // 2 + 1][-capacity:]
    for page in recent[-min(len(recent), capacity):]:
        assert resident(pool, page)
