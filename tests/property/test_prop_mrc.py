"""Property-based tests for Mattson stack analysis.

The central invariant: Mattson's single-pass prediction must agree exactly
with an actual LRU buffer pool at every capacity, for any trace.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from oracles.fenwick import stack_distances_fenwick
from repro.core.mrc import MissRatioCurve, stack_distances
from repro.engine.bufferpool import LRUBufferPool

traces = st.lists(st.integers(min_value=0, max_value=25), min_size=0, max_size=300)


@given(trace=traces, capacity=st.integers(min_value=1, max_value=40))
@settings(max_examples=60, deadline=None)
def test_mattson_matches_lru_pool(trace, capacity):
    """hits predicted at capacity c == hits of a real LRU pool of size c."""
    curve = MissRatioCurve.from_trace(trace)
    pool = LRUBufferPool(capacity)
    pool.access_many(trace)
    assert curve.hits_at(capacity) == pool.stats.hits


@given(trace=traces)
@settings(max_examples=60, deadline=None)
def test_miss_ratio_monotone_nonincreasing(trace):
    """MR(m) never increases with memory (the inclusion property)."""
    curve = MissRatioCurve.from_trace(trace)
    previous = 1.0
    for memory in range(0, 30):
        ratio = curve.miss_ratio(memory)
        assert ratio <= previous + 1e-12
        previous = ratio


@given(trace=traces)
@settings(max_examples=60, deadline=None)
def test_cold_misses_equal_distinct_pages(trace):
    """First-ever references are exactly the distinct pages of the trace."""
    curve = MissRatioCurve.from_trace(trace)
    assert curve.cold_misses == len(set(trace))


@given(trace=traces)
@settings(max_examples=60, deadline=None)
def test_distances_bounded_by_distinct_pages(trace):
    """A stack distance can never exceed the number of distinct pages."""
    distances = stack_distances(trace)
    bound = len(set(trace))
    assert all(0 <= d <= bound for d in distances)


@given(trace=traces)
@settings(max_examples=100, deadline=None)
def test_vectorised_distances_match_fenwick_reference(trace):
    """The vectorised stack-distance path is bit-exact with the classical
    per-element Fenwick-tree formulation on any trace."""
    assert np.array_equal(stack_distances(trace), stack_distances_fenwick(trace))


@given(trace=traces)
@settings(max_examples=60, deadline=None)
def test_infinite_memory_leaves_only_cold_misses(trace):
    curve = MissRatioCurve.from_trace(trace)
    if trace:
        expected = len(set(trace)) / len(trace)
        assert abs(curve.miss_ratio(10_000) - expected) < 1e-9


@given(trace=traces, repeat=st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_repetition_improves_hit_ratio(trace, repeat):
    """Repeating a trace adds reuse, never new cold misses."""
    if not trace:
        return
    once = MissRatioCurve.from_trace(trace)
    repeated = MissRatioCurve.from_trace(trace * repeat)
    assert repeated.miss_ratio(10_000) <= once.miss_ratio(10_000) + 1e-12


@given(
    trace=st.lists(st.integers(min_value=0, max_value=50), min_size=20, max_size=300),
    server=st.integers(min_value=4, max_value=64),
)
@settings(max_examples=60, deadline=None)
def test_parameters_invariants(trace, server):
    """total/acceptable memory stay within [1, server]; ratios ordered."""
    curve = MissRatioCurve.from_trace(trace)
    params = curve.parameters(server)
    assert 1 <= params.acceptable_memory <= params.total_memory <= server
    assert params.acceptable_miss_ratio >= params.ideal_miss_ratio - 1e-12
    assert params.acceptable_miss_ratio <= params.ideal_miss_ratio + params.threshold + 1e-9
