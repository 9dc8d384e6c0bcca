"""One Python int per page: identity is a shortcut, never a semantics.

Every access pattern emits the ``int`` objects its :class:`PageRange` boxed
once (``engine/pages.py``), so a pool hit is a pointer comparison and a window
entry a pointer.  Three things are pinned here:

* every page a real workload emits — TPC-W, the antagonist, the patterns the
  zoo scenarios swap in — *is* the object its owning range hands out, and its
  value is what the per-execution oracles of ``tests/oracles/pagegen.py`` emit;
* pools and windows cannot tell interned ints from equal ints minted anywhere
  else (tests, trace replays, fitted traces): same hits, misses, evictions,
  LRU order and window contents;
* the shared array is read-only and shared exactly between ranges of equal
  extent.

The mid-block pattern swaps keep the first property too: see
``_assert_same_workload_steps`` in ``test_prop_fastpath.py``.
"""

from itertools import cycle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.lru import lru_order
from oracles.pagegen import assert_interned, per_execution_workload
from repro.engine.access import (
    BlockServedPattern,
    CompositePattern,
    IndexRangeScan,
    PlanSwitchingPattern,
)
from repro.engine.bufferpool import LRUBufferPool, PartitionedBufferPool
from repro.engine.pages import PageRange
from repro.sim.trace import AccessWindow
from repro.workloads.tpcw import O_DATE_INDEX, build_tpcw
from repro.workloads.zoo import build_antagonist, build_zoo_scenario

# --------------------------------------------------------------------- #
# (a) what the workloads emit                                           #
# --------------------------------------------------------------------- #


def leaves(pattern):
    if isinstance(pattern, CompositePattern):
        return [leaf for part in pattern.parts for leaf in leaves(part)]
    if isinstance(pattern, PlanSwitchingPattern):
        return leaves(pattern.indexed_plan) + leaves(pattern.fallback_plan)
    return [pattern]


def executions_crossing_two_block_refills(pattern) -> int:
    """Counted in executions: a block holds ``_block_executions`` of them,
    of one width or (``IndexRangeScan``) of several."""
    blocks = [
        leaf._block_executions
        for leaf in leaves(pattern)
        if isinstance(leaf, BlockServedPattern)
    ]
    return 2 * max(blocks, default=1) + 3


def assert_workload_emits_its_ranges_objects(workload, oracle) -> None:
    ranges = workload.schema.allocator.ranges()
    for query_class, expected in zip(workload.classes(), oracle.classes(), strict=True):
        # Counted on the served side: the oracle's leaves are not block-served.
        for _ in range(executions_crossing_two_block_refills(query_class.pattern)):
            access, wanted = query_class.execute_pages(), expected.execute_pages()
            assert access.demand == wanted.demand
            assert access.prefetch == wanted.prefetch
            assert_interned(access.demand, ranges)
            assert_interned(access.prefetch, ranges)


@pytest.mark.parametrize("indexed", [True, False], ids=["o_date", "no_o_date"])
@pytest.mark.parametrize("mix", ["shopping", "ordering"])
def test_tpcw_emits_its_ranges_own_objects(mix, indexed):
    workload = build_tpcw(seed=7, mix=mix)
    assert any(
        isinstance(leaf, IndexRangeScan)
        for query_class in workload.classes()
        for leaf in leaves(query_class.pattern)
    )
    oracle = per_execution_workload(build_tpcw(seed=7, mix=mix))
    if not indexed:
        workload.catalog.drop(O_DATE_INDEX)
        oracle.catalog.drop(O_DATE_INDEX)
    assert_workload_emits_its_ranges_objects(workload, oracle)


def test_the_antagonist_emits_its_ranges_own_objects():
    assert_workload_emits_its_ranges_objects(
        build_antagonist(seed=7), per_execution_workload(build_antagonist(seed=7))
    )


@pytest.mark.parametrize("name", ["working_set_drift", "olap_storm", "write_burst"])
def test_patterns_swapped_in_by_the_zoo_emit_their_ranges_own_objects(name):
    """The scenarios' first hook replaces, adds or wraps a pattern on the
    live workload; it needs nothing of the harness but ``workloads``."""
    sides = []
    for _ in range(2):
        scenario = build_zoo_scenario(name, seed=7)
        (workload,) = scenario.workloads
        _, swap = scenario.hooks[0]
        swap(SimpleNamespace(workloads={workload.app: workload}))
        sides.append(workload)
    assert_workload_emits_its_ranges_objects(sides[0], per_execution_workload(sides[1]))


# --------------------------------------------------------------------- #
# (b) pools and windows cannot tell                                     #
# --------------------------------------------------------------------- #

RANGE = PageRange("differential", start=1_000, count=200)
CLASSES = ["alpha", "beta"]

batches = st.lists(
    st.tuples(
        st.sampled_from(["access", "prefetch"]),
        st.sampled_from(CLASSES),
        st.lists(st.integers(min_value=0, max_value=RANGE.count - 1), max_size=40),
    ),
    min_size=1,
    max_size=20,
)


def interned(offsets: list[int]) -> list[int]:
    return RANGE.page_array(np.asarray(offsets, dtype=np.int64)).tolist()


def foreign(offsets: list[int]) -> list[int]:
    """Equal ints, distinct objects: what ``int64`` arithmetic and ``tolist()`` mint."""
    pages = (RANGE.start + np.asarray(offsets, dtype=np.int64)).tolist()
    assert all(a is not b for a, b in zip(pages, interned(offsets)))
    return pages


def boxings():
    """The three ways one batch sequence is fed: all interned, all foreign,
    and batch by batch in turn (so each kind meets keys stored by the other)."""
    turns = cycle((interned, foreign))
    return (interned, foreign, lambda offsets: next(turns)(offsets))


def pool_state(pool) -> dict:
    partitions = (
        [pool._partitions[name] for name in pool.partition_names]
        if isinstance(pool, PartitionedBufferPool)
        else [pool]
    )
    return {
        "stats": [
            (s.hits, s.misses, s.readaheads, s.evictions, s.per_class)
            for s in [pool.stats] + [p.stats for p in partitions]
        ],
        "lru": [lru_order(p) for p in partitions],
    }


def build_pools(capacity: int):
    partitioned = PartitionedBufferPool(capacity + 2, {"hog": max(1, capacity // 3)})
    partitioned.assign("beta", "hog")
    return LRUBufferPool(capacity), partitioned


@given(ops=batches, capacity=st.integers(min_value=1, max_value=120))
@settings(max_examples=150, deadline=None)
def test_pools_treat_interned_and_foreign_ints_alike(ops, capacity):
    outcomes = []
    for boxed in boxings():
        returned = []
        pools = build_pools(capacity)
        for kind, query_class, offsets in ops:
            pages = boxed(offsets)
            for pool in pools:
                call = pool.access_many if kind == "access" else pool.prefetch_many
                returned.append(call(pages, query_class))
        outcomes.append((returned, [pool_state(pool) for pool in pools]))
    assert outcomes[0] == outcomes[1] == outcomes[2]


@given(
    vectors=st.lists(
        st.lists(st.integers(min_value=0, max_value=RANGE.count - 1), max_size=40),
        min_size=1,
        max_size=20,
    ),
    capacity=st.integers(min_value=1, max_value=150),
    last=st.one_of(st.none(), st.integers(min_value=0, max_value=200)),
)
@settings(max_examples=150, deadline=None)
def test_windows_treat_interned_and_foreign_ints_alike(vectors, capacity, last):
    windows = []
    for boxed in boxings():
        window = AccessWindow(capacity)
        for offsets in vectors:
            window.record_many(boxed(offsets))
        windows.append(window)
    reference = windows[0]
    for window in windows[1:]:
        assert len(window) == len(reference)
        assert window.total_seen == reference.total_seen
        assert window.snapshot(last).tolist() == reference.snapshot(last).tolist()
    assert reference.snapshot().dtype == np.int64


# --------------------------------------------------------------------- #
# (c) the shared array                                                  #
# --------------------------------------------------------------------- #


def test_the_shared_array_refuses_writes():
    pages = PageRange("t", start=5_000, count=16)
    for array in (pages.page_ids, pages.page_ids[:4]):
        assert array.dtype == object and not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 7
    assert pages.page_ids.tolist() == list(range(5_000, 5_016))
    # What is gathered from it is the caller's own (and holds the same objects).
    gathered = pages.page_array(np.array([3, 3]))
    gathered[0] = 7
    assert pages.page_ids[3] == 5_003 and gathered[1] is pages.page_ids[3]


def test_ranges_of_equal_extent_share_their_objects_and_others_never_alias():
    a = PageRange("a", start=70_000, count=50)
    b = PageRange("b", start=70_000, count=50)
    assert a.page_ids is b.page_ids
    offsets = np.array([0, 17, 49])
    assert all(x is y for x, y in zip(a.page_array(offsets), b.page_array(offsets)))
    assert all(x is y for x, y in zip(a.slice(10, 5), b.page_array(np.arange(10, 15))))
    # Overlapping values, different extents: equal ints, distinct objects.
    for other in (PageRange("c", 70_000, 51), PageRange("d", 70_010, 40)):
        shift = other.start - a.start
        for offset in range(other.count - 1 if shift == 0 else other.count):
            mine, theirs = a.page_ids[offset + shift], other.page_ids[offset]
            assert mine == theirs and mine is not theirs


def test_two_builds_of_one_workload_emit_the_same_objects():
    first, second = build_tpcw(seed=7), build_tpcw(seed=7)
    for one, other in zip(first.classes(), second.classes(), strict=True):
        a, b = one.execute_pages(), other.execute_pages()
        assert all(x is y for x, y in zip(a.demand, b.demand, strict=True))
        assert all(x is y for x, y in zip(a.prefetch, b.prefetch, strict=True))
