"""Micro-benchmark of page generation: draw-ahead blocks against the oracle.

Every TPC-W class generates the pages of ``EXECUTIONS`` executions twice from
the same seed: through the patterns as built (``ZipfGenerator`` draws ahead,
``ZipfPages`` and ``IndexLookup`` hand out slices of a block) and through
their per-execution oracles (``tests/oracles/pagegen.py``: one numpy call
sequence per execution, what ``src`` did before).  The table (``-rP`` shows
it) is microseconds per execution, best of ``REPEATS``.  Every comparison in
this file is timed in alternation (``alternate.py``), side for side.  The one assertion
is that the shopping-mix-weighted mean is lower for the blocks — classes
whose executions are hundreds of pages long (BestSeller) are expected to
read about equal, the arithmetic being the cost there.

Two more tables size *one int per page* (DESIGN §6) on the antagonist's
1000-page uniform execution over a 7500-page working set: emitting it as a
gather from the range's boxed ids against ``int64`` arithmetic, both followed
by ``tolist()``; and an all-hit ``access_many`` of it probing with the very
objects the pool stores against equal ints minted per batch, with 8 MB
touched between batches so that the stored keys are as cold as thousands of
batches make them in a run.  Each asserts "faster than", never a time.

Another table sizes the shared Zipf CDFs (DESIGN §6): ``build_tpcw(7)`` on a
warm memo, every ``(n, theta)`` already computed in the process, against a
build that clears the memo first and so computes every table again.

The last one sizes the Zipf bucket table (DESIGN §6) on BestSeller's
``(7000, 0.35)`` working set: a refill's 1024 fresh uniforms mapped to ranks
by the bounded search from their buckets' lower edges against one
``searchsorted`` over the CDF, the formula the table replaced.
"""

import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from alternate import best_in_alternation

from repro.engine.bufferpool import LRUBufferPool
from repro.engine.pages import PageRange
from repro.sim.rng import ZIPF_BLOCK_DRAWS, _zipf_buckets, _zipf_cdf, _zipf_ranks
from repro.workloads.tpcw import build_tpcw

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.pagegen import per_execution_workload  # noqa: E402

EXECUTIONS = 5_000
REPEATS = 3

BLOB = PageRange("blob", start=2_000_000, count=37_500)
WORKING_SET = 7_500
BATCH_PAGES = 1_000
BATCHES = 100


def _microseconds_per_execution(*query_classes) -> list[float]:
    """Each class's best of ``REPEATS`` runs of ``EXECUTIONS`` executions,
    the classes taken in alternation."""

    def executing(query_class):
        def run() -> None:
            for _ in range(EXECUTIONS):
                query_class.execute_pages()

        run()  # first blocks, warm caches
        return run

    runs = [executing(query_class) for query_class in query_classes]
    return [
        seconds / EXECUTIONS * 1e6 for seconds in best_in_alternation(runs, REPEATS)
    ]


def test_block_served_page_generation_beats_per_execution_on_the_tpcw_mix():
    blocks = build_tpcw(seed=7)
    oracle = per_execution_workload(build_tpcw(seed=7))
    weights = blocks.normalized_weights()

    mean_blocks = mean_oracle = 0.0
    print(f"{'class':<24}{'weight':>8}{'oracle us':>11}{'blocks us':>11}")
    for served, reference in zip(blocks.classes(), oracle.classes()):
        assert served.execute_pages().demand == reference.execute_pages().demand
        per_execution, per_block = _microseconds_per_execution(reference, served)
        weight = weights[served.name]
        mean_blocks += weight * per_block
        mean_oracle += weight * per_execution
        print(f"{served.name:<24}{weight:>8.2f}{per_execution:>11.2f}{per_block:>11.2f}")
    print(f"{'mix-weighted mean':<32}{mean_oracle:>11.2f}{mean_blocks:>11.2f}")

    assert mean_blocks < mean_oracle


def _offset_batches() -> list[np.ndarray]:
    rng = np.random.default_rng(7)
    return [rng.integers(0, WORKING_SET, BATCH_PAGES) for _ in range(BATCHES)]


def _gathered(offsets: np.ndarray) -> list[int]:
    return BLOB.page_ids[:WORKING_SET][offsets].tolist()


def _minted(offsets: np.ndarray) -> list[int]:
    return (BLOB.start + offsets).tolist()


def test_a_uniform_execution_is_gathered_faster_than_it_is_minted():
    batches = _offset_batches()
    assert _gathered(batches[0]) == _minted(batches[0])

    def emitting(emit):
        def run() -> None:
            for offsets in batches:
                emit(offsets)

        return run

    minted, gathered = (
        seconds / BATCHES * 1e6
        for seconds in best_in_alternation(
            (emitting(_minted), emitting(_gathered)), REPEATS
        )
    )
    print(
        f"1000-page execution, us: int64 add + tolist {minted:.1f}, "
        f"gather + tolist {gathered:.1f}"
    )
    assert gathered < minted


def _all_hit_ns_per_page(emit, batches: list[np.ndarray]) -> float:
    pool = LRUBufferPool(WORKING_SET)
    order = np.random.default_rng(11).permutation(WORKING_SET)
    for first in range(0, WORKING_SET, 500):
        pool.access_many(emit(order[first : first + 500]))
    spoiler = np.zeros(8 * 1024 * 1024 // 8)
    spent = 0.0
    for offsets in batches:
        pages = emit(offsets)
        spoiler += 1.0  # 8 MB touched: the pool's keys leave the cache
        started = perf_counter()
        hits = pool.access_many(pages)
        spent += perf_counter() - started
        assert hits == BATCH_PAGES
    return spent / (BATCHES * BATCH_PAGES) * 1e9


def test_an_all_hit_batch_is_faster_with_the_pools_own_key_objects():
    batches = _offset_batches()
    distinct = identical = float("inf")
    for _ in range(REPEATS):  # in alternation; each pass times its own batches
        distinct = min(distinct, _all_hit_ns_per_page(_minted, batches))
        identical = min(identical, _all_hit_ns_per_page(_gathered, batches))
    print(
        f"all-hit access_many, ns per page: distinct keys {distinct:.1f}, "
        f"identical keys {identical:.1f}"
    )
    assert identical < distinct


def _cold_build() -> None:
    _zipf_cdf.cache_clear()
    build_tpcw(seed=7)


def test_a_workload_build_on_a_warm_cdf_memo_beats_a_cold_one():
    # The cold build leaves every (n, theta) of the workload in the memo.
    cold, warm = best_in_alternation(
        (_cold_build, lambda: build_tpcw(seed=7)), REPEATS
    )
    print(
        f"workload build, ms: cold memo {cold * 1e3:.2f}, "
        f"warm memo {warm * 1e3:.2f}"
    )
    assert warm < cold


def test_the_bucket_lookup_beats_searchsorted_on_fresh_uniforms():
    cdf, table = _zipf_cdf(7000, 0.35), _zipf_buckets(7000, 0.35)
    rng = np.random.default_rng(7)
    blocks = [rng.random(ZIPF_BLOCK_DRAWS) for _ in range(200)]
    assert _zipf_ranks(cdf, table, blocks[0]).tolist() == (
        cdf.searchsorted(blocks[0], "left").tolist()
    )

    def looking_up(lookup):
        def run() -> None:
            for us in blocks:
                lookup(us)

        return run

    searched, bucketed = (
        seconds / len(blocks) * 1e6
        for seconds in best_in_alternation(
            (
                looking_up(lambda us: cdf.searchsorted(us, "left")),
                looking_up(lambda us: _zipf_ranks(cdf, table, us)),
            ),
            REPEATS,
        )
    )
    print(
        f"(7000, 0.35), 1024 fresh uniforms, us: searchsorted {searched:.1f}, "
        f"bucket table {bucketed:.1f}"
    )
    assert bucketed < searched
