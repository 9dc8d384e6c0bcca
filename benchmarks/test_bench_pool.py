"""Micro-benchmark of the buffer pool's miss path.

``LRUBufferPool.access_many`` (from its first miss on) and ``prefetch_many``
count a batch's admissions against the free slots it starts with: a free
slot is taken while one is left, otherwise exactly one page is evicted with a
positional ``popitem``.  Each shape below is timed twice on twin pools, as
built and through the formulation it replaced
(``tests/oracles/lru.py``'s ``*_length_checked`` batch loops: a
``while len(pages) >= capacity`` loop and a keyword ``popitem(last=False)``
per admission):

* 26-page demand batches at 50 % misses on a full 2048-page pool — each
  batch re-reads the 13 pages its predecessor admitted and admits 13 new
  ones, in a fixed shuffled order;
* 1628-page all-new read-aheads into a full 512-page pool (the shape of
  ``spill_mix``'s partitions, where every read-ahead page is fetched).

Both sides run the same batches, alternating, best of ``REPEATS``; the table
(``-rP`` shows it) is nanoseconds per page.  The assertions are that each
shape is faster as built than through its baseline, never an absolute time,
and that the twin pools end identical: LRU order, :class:`PoolStats` and the
eviction sink.
"""

import random
import sys
import time
from pathlib import Path

from repro.engine.bufferpool import LRUBufferPool, PoolStats

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.lru import (  # noqa: E402
    access_many_length_checked,
    lru_order,
    prefetch_many_length_checked,
)

REPEATS = 7
SEED = 7


def _stats(stats: PoolStats) -> tuple:
    return (stats.hits, stats.misses, stats.readaheads, stats.evictions, stats.per_class)


def _full_twins(capacity: int) -> tuple[LRUBufferPool, LRUBufferPool]:
    """Two pools holding pages ``0 … capacity - 1``, each with its own sink."""
    twins = []
    for _ in range(2):
        pool = LRUBufferPool(capacity, eviction_sink=PoolStats())
        pool.access_many(list(range(capacity)), "warm")
        twins.append(pool)
    return twins[0], twins[1]


def _demand_rounds(capacity: int, rounds: int, batches: int, width: int) -> list:
    """``rounds`` lists of ``batches`` demand batches of ``width`` pages,
    half of them the previous batch's admissions (hits), half new (misses)."""
    rng = random.Random(SEED)
    fresh = iter(range(capacity, 1 << 62))
    previous = list(range(capacity - width // 2, capacity))
    out = []
    for _ in range(rounds):
        one_round = []
        for _ in range(batches):
            new = [next(fresh) for _ in range(width // 2)]
            batch = previous + new
            rng.shuffle(batch)
            one_round.append(batch)
            previous = new
        out.append(one_round)
    return out


def _prefetch_rounds(capacity: int, rounds: int, batches: int, width: int) -> list:
    """``rounds`` lists of ``batches`` read-aheads of ``width`` new pages."""
    fresh = iter(range(capacity, 1 << 62))
    return [
        [[next(fresh) for _ in range(width)] for _ in range(batches)]
        for _ in range(rounds)
    ]


def _race(baseline, built, twins, rounds) -> tuple[float, float]:
    """Best-of-rounds ns per page of ``baseline`` and ``built``, alternating
    which side runs first; the twins see the same batches in the same order."""
    old_pool, new_pool = twins
    pages = sum(len(batch) for batch in rounds[0])
    best = {baseline: float("inf"), built: float("inf")}
    for index, one_round in enumerate(rounds):
        sides = [(baseline, old_pool), (built, new_pool)]
        for run, pool in sides if index % 2 == 0 else sides[::-1]:
            started = time.perf_counter()
            for batch in one_round:
                run(pool, batch, "q")
            best[run] = min(best[run], time.perf_counter() - started)
    return best[baseline] / pages * 1e9, best[built] / pages * 1e9


def _assert_identical(old_pool: LRUBufferPool, new_pool: LRUBufferPool) -> None:
    assert lru_order(new_pool) == lru_order(old_pool)
    assert len(new_pool) == new_pool.capacity
    assert _stats(new_pool.stats) == _stats(old_pool.stats)
    assert _stats(new_pool._eviction_sink) == _stats(old_pool._eviction_sink)


def test_admissions_against_free_slots_beat_a_length_check_per_admission():
    demand_twins = _full_twins(2048)
    demand = _race(
        access_many_length_checked,
        LRUBufferPool.access_many,
        demand_twins,
        # +1 round: the first one warms both sides and counts like any other.
        _demand_rounds(2048, REPEATS + 1, batches=400, width=26),
    )
    readahead_twins = _full_twins(512)
    readahead = _race(
        prefetch_many_length_checked,
        LRUBufferPool.prefetch_many,
        readahead_twins,
        _prefetch_rounds(512, REPEATS + 1, batches=8, width=1628),
    )
    rows = {
        "demand, 26 pages, 50 % misses, 2048 full": demand,
        "read-ahead, 1628 new pages, 512 full": readahead,
    }
    print(f"{'ns per page':<44}{'length check':>13}{'free slots':>11}{'ratio':>7}")
    for name, (baseline, built) in rows.items():
        print(f"{name:<44}{baseline:>13.0f}{built:>11.0f}{built / baseline:>7.2f}")

    _assert_identical(*demand_twins)
    _assert_identical(*readahead_twins)
    # Full from the start: every miss after the warm-up evicted one page.
    assert demand_twins[1].stats.evictions == demand_twins[1].stats.misses - 2048
    for baseline, built in rows.values():
        assert built < baseline
