"""Micro-benchmark of the values one query creates, and of read routing.

The cluster is ``benchmarks/perf``'s ``oltp_point`` (TPC-W shopping mix, one
replica, 40 clients, a pool the working set fits) from the public builders.
Each per-query piece is timed on the same kind of objects twice, as built
and through the formulation it replaced (``tests/oracles/record.py``,
``locks.py``, ``routing.py``, ``clients.py``, ``host.py``, ``pagegen.py``):

* the execution record — ``NamedTuple`` built positionally through
  ``tuple.__new__`` against a frozen dataclass built by keyword;
* one lock set (``requests()``) of the mix's locking classes — interned
  1-tuples against a new ``LockRequest`` per group through a set and a sort;
* ``requests()`` + ``LockManager.acquire`` — hold tuples that are their own
  heap entries, and the shared uncontended grant, against a heap of
  self-ordering holds;
* ``Scheduler._route_read`` with 1 and 2 replicas, unpinned and pinned — the
  kept name list against sort + three method calls per replica per read;
* one mix draw and one think draw — served from blocks on their streams
  against one numpy scalar call each;
* one query's host demand — one ``PhysicalServer.note_demand`` call against
  the server → ``LoadModel`` → ``IntervalLoad`` chain;
* one demand-only ``ExecutionAccess`` — the slotted class against the
  dataclass with a ``default_factory`` per list;
* ``LockManager.acquire`` alone, replaying the acquisitions an ``oltp_point``
  run made — against the manager of before (``TupleHeapManager``: an expiry
  pass and a recorded grant per call);
* a Zipf refill's 1024 fresh uniforms of BestSeller's ``(7000, 0.35)`` to
  ranks — the bounded search from each bucket's lower edge against the
  marked bucket table with a ``searchsorted`` fallback;
* one 1000-page execution of the antagonist's uniform working set — a slice
  of an offset block drawn ahead against one bounded draw per execution.

Every row is timed in alternation with its oracle (``alternate.py``, best
of ``2 * REPEATS`` each), so that a stretch of slow machine time falls on
both sides alike.  The tables (``-rP`` shows them) are nanoseconds per
operation, and microseconds per whole query as built.  The first test
asserts that record + lock set + grant are built in less than half the
oracle's time; the others that each of their rows is faster than its
oracle.
"""

import sys
import timeit
from pathlib import Path

import numpy as np
from alternate import best_in_alternation

from repro.cluster.replica import Replica
from repro.cluster.scheduler import Scheduler
from repro.cluster.server import PhysicalServer, ServerSpec
from repro.engine.access import ExecutionAccess, UniformWorkingSet
from repro.engine.locks import LockManager, RowGroupLockPattern
from repro.engine.pages import PageRange
from repro.engine.statslog import ExecutionRecord
from repro.experiments.index_drop import EXPERIMENT_COST_MODEL
from repro.experiments.runner import ClusterHarness
from repro.sim.rng import (
    ZIPF_BLOCK_DRAWS,
    CumulativeSampler,
    RandomStream,
    _zipf_buckets,
    _zipf_cdf,
    _zipf_ranks,
)
from repro.workloads.tpcw import build_tpcw

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.clients import ScalarStream  # noqa: E402
from oracles.host import ChainedDemandServer  # noqa: E402
from oracles.locks import (  # noqa: E402
    PerHoldHeapManager,
    TupleHeapManager,
    requests_per_execution,
)
from oracles.pagegen import (  # noqa: E402
    FactoryExecutionAccess,
    UniformWorkingSetOracle,
    marked_buckets,
    marked_ranks,
)
from oracles.record import keyword_built_record  # noqa: E402
from oracles.routing import PerReadRouting  # noqa: E402

OPERATIONS = 20_000
REPEATS = 5
SEED = 7


def _paired_nanoseconds(oracle, built, operations: int = OPERATIONS):
    """Both runs' best of ``2 * REPEATS``, taken in alternation, in
    nanoseconds per operation (after one warm call each: caches, first
    draw-ahead blocks, interned requests)."""
    oracle(), built()
    seconds = best_in_alternation((oracle, built), 2 * REPEATS)
    return tuple(side / operations * 1e9 for side in seconds)


def oltp_point() -> ClusterHarness:
    return ClusterHarness.single_app(
        build_tpcw(SEED),
        servers=1,
        clients=40,
        pool_pages=32768,
        cost_model=EXPERIMENT_COST_MODEL,
        server_spec=ServerSpec(cores=16),
    )


def _record_ns() -> tuple[float, float]:
    demand = list(range(30))
    new_tuple = tuple.__new__

    def built() -> None:  # as QueryExecutor.execute builds it
        for _ in range(OPERATIONS):
            new_tuple(
                ExecutionRecord, (1.5, "tpcw/q", 0.013, len(demand), 2, 1, 3, 0, 0.0)
            )

    def oracle() -> None:
        for _ in range(OPERATIONS):
            keyword_built_record(1.5, "tpcw/q", 0.013, demand, 2, 1)

    return _paired_nanoseconds(oracle, built)


def _locking_patterns() -> list[RowGroupLockPattern]:
    """The lock patterns of a freshly built shopping mix, in class order."""
    return [
        query_class.lock_pattern
        for query_class in build_tpcw(SEED).classes()
        if isinstance(query_class.lock_pattern, RowGroupLockPattern)
    ]


def _lock_set_ns() -> tuple[float, float]:
    def through(requests):
        patterns = _locking_patterns()

        def run() -> None:
            for index in range(OPERATIONS):
                requests(patterns[index % len(patterns)])

        return run

    return _paired_nanoseconds(
        through(requests_per_execution), through(RowGroupLockPattern.requests)
    )


def _lock_path_ns() -> tuple[float, float]:
    def through(manager, requests):
        patterns = _locking_patterns()
        owners = [f"tpcw/q{index}" for index in range(len(patterns))]
        clock = [0.0]

        def run() -> None:
            # 40 clients a second, one in two locks, ~13 ms an execution.
            now = clock[0]
            for index in range(OPERATIONS):
                slot = index % len(patterns)
                now += 0.05
                manager.acquire(owners[slot], requests(patterns[slot]), now, 0.013)
            clock[0] = now

        return run

    return _paired_nanoseconds(
        through(PerHoldHeapManager(), requests_per_execution),
        through(LockManager(), RowGroupLockPattern.requests),
    )


def _route_read_ns(replicas: int, pinned: bool) -> tuple[float, float]:
    def through(kind: type[Scheduler]):
        scheduler = kind("tpcw")
        for index in range(replicas):
            scheduler.add_replica(
                Replica.create(f"r{index}", "tpcw", PhysicalServer(f"s{index}"), pool_pages=16)
            )
        if pinned:
            scheduler.place_class("tpcw/q", scheduler.replica_names())

        def run() -> None:
            for _ in range(OPERATIONS):
                scheduler._route_read("tpcw/q")

        return run

    return _paired_nanoseconds(through(PerReadRouting), through(Scheduler))


def _whole_query_us() -> float:
    harness = oltp_point()
    harness.run(2)  # warm pool
    scheduler = harness.scheduler("tpcw")
    workload = harness.drivers["tpcw"].workload
    stream = RandomStream(SEED, "bench-mix")
    clock = [harness.clock.now]

    def run() -> None:
        now = clock[0]
        for _ in range(OPERATIONS):
            now += 0.025
            scheduler.submit(workload.sample_class(stream), now)
        clock[0] = now

    run()
    return min(timeit.repeat(run, number=1, repeat=REPEATS)) / OPERATIONS * 1e6


def test_per_query_values_cost_less_than_half_of_what_they_replaced():
    rows = {
        "execution record": _record_ns(),
        "lock set: requests()": _lock_set_ns(),
        "requests() + acquire": _lock_path_ns(),
        "_route_read, 1 replica": _route_read_ns(1, pinned=False),
        "_route_read, 2 replicas": _route_read_ns(2, pinned=False),
        "_route_read, 2 replicas, pinned": _route_read_ns(2, pinned=True),
    }
    print(f"{'per operation':<34}{'oracle ns':>11}{'built ns':>10}{'ratio':>7}")
    for name, (oracle, built) in rows.items():
        print(f"{name:<34}{oracle:>11.0f}{built:>10.0f}{built / oracle:>7.2f}")
    print(f"{'whole query (submit), as built':<34}{'':>11}{_whole_query_us():>7.1f} us")

    oracle = rows["execution record"][0] + rows["requests() + acquire"][0]
    built = rows["execution record"][1] + rows["requests() + acquire"][1]
    assert built < 0.5 * oracle


def _client_draws_ns() -> tuple[float, float]:
    def through(kind: type[RandomStream]):
        sampler = CumulativeSampler.from_weights(
            [entry.weight for entry in build_tpcw(SEED).mix]
        )
        mix, think = kind(SEED, "tpcw-mix"), kind(SEED, "tpcw-think")

        def run() -> None:
            for _ in range(OPERATIONS):
                sampler.draw(mix)
                think.exponential(1.0)

        return run

    return _paired_nanoseconds(through(ScalarStream), through(RandomStream))


def _host_demand_ns() -> tuple[float, float]:
    def through(kind: type[PhysicalServer]):
        server = kind("s")

        def run() -> None:
            for _ in range(OPERATIONS):
                server.note_demand(0.004, 3)

        return run

    return _paired_nanoseconds(through(ChainedDemandServer), through(PhysicalServer))


def _execution_access_ns() -> tuple[float, float]:
    demand = list(range(30))

    def through(kind):
        def run() -> None:
            for _ in range(OPERATIONS):
                kind(demand)

        return run

    return _paired_nanoseconds(
        through(FactoryExecutionAccess), through(ExecutionAccess)
    )


def test_draws_host_demand_and_page_lists_cost_less_than_before():
    rows = {
        "mix + think draw": _client_draws_ns(),
        "host demand: note_demand": _host_demand_ns(),
        "ExecutionAccess(demand)": _execution_access_ns(),
    }
    print(f"{'per operation':<34}{'oracle ns':>11}{'built ns':>10}{'ratio':>7}")
    for name, (oracle, built) in rows.items():
        print(f"{name:<34}{oracle:>11.0f}{built:>10.0f}{built / oracle:>7.2f}")
    for name, (oracle, built) in rows.items():
        assert built < oracle, name


def _recorded_acquisitions(intervals: int = 20) -> list[tuple]:
    """The ``acquire`` calls of ``oltp_point``'s engine over ``intervals``
    intervals after a two-interval warm-up, arguments as passed."""
    harness = oltp_point()
    harness.run(2)
    locks = harness.replicas_of("tpcw")[0].engine.locks
    calls: list[tuple] = []
    acquire = locks.acquire

    def recording(owner, requests, now, hold_for):
        calls.append((owner, requests, now, hold_for))
        return acquire(owner, requests, now, hold_for)

    locks.acquire = recording
    harness.run(intervals)
    return calls


def _acquire_ns() -> tuple[float, float]:
    calls = _recorded_acquisitions()

    def through(kind):
        def run() -> None:
            acquire = kind().acquire
            for owner, requests, now, hold_for in calls:
                acquire(owner, requests, now, hold_for)

        return run

    return _paired_nanoseconds(
        through(TupleHeapManager), through(LockManager), len(calls)
    )


def _ranks_ns() -> tuple[float, float]:
    n, theta = 7000, 0.35
    cdf = _zipf_cdf(n, theta)
    bounded, marked = _zipf_buckets(n, theta), marked_buckets(n, theta)
    rng = np.random.default_rng(SEED)
    blocks = [rng.random(ZIPF_BLOCK_DRAWS) for _ in range(200)]
    assert np.array_equal(
        _zipf_ranks(cdf, bounded, blocks[0]), marked_ranks(cdf, marked, blocks[0])
    )

    def through(lookup, table):
        def run() -> None:
            for us in blocks:
                lookup(cdf, table, us)

        return run

    return _paired_nanoseconds(
        through(marked_ranks, marked), through(_zipf_ranks, bounded), len(blocks)
    )


def _uniform_block_ns() -> tuple[float, float]:
    executions = 2_000
    pages = PageRange("blob", start=2_000_000, count=37_500)

    def through(wrap):
        stream = RandomStream(SEED, "hog")
        pattern = wrap(UniformWorkingSet(pages, 6_000, 1_000, stream))

        def run() -> None:
            for _ in range(executions):
                pattern.pages_for_execution()

        return run

    return _paired_nanoseconds(
        through(UniformWorkingSetOracle), through(lambda pattern: pattern), executions
    )


def test_acquire_ranks_and_uniform_blocks_cost_less_than_before():
    rows = {
        "acquire, recorded oltp_point": _acquire_ns(),
        "Zipf ranks, 1024 of (7000, 0.35)": _ranks_ns(),
        "uniform execution, 1000 pages": _uniform_block_ns(),
    }
    print(f"{'per operation':<34}{'oracle ns':>11}{'built ns':>10}{'ratio':>7}")
    for name, (oracle, built) in rows.items():
        print(f"{name:<34}{oracle:>11.0f}{built:>10.0f}{built / oracle:>7.2f}")
    for name, (oracle, built) in rows.items():
        assert built < oracle, name
