"""Micro-benchmark of the values one query creates, and of read routing.

The cluster is ``benchmarks/perf``'s ``oltp_point`` (TPC-W shopping mix, one
replica, 40 clients, a pool the working set fits) from the public builders.
Each per-query piece is timed twice on the same objects: as built, and
through the formulation it replaced (``tests/oracles/record.py``,
``locks.py``, ``routing.py``):

* the execution record — ``NamedTuple`` built positionally through
  ``tuple.__new__`` against a frozen dataclass built by keyword;
* one lock set (``requests()``) of the mix's locking classes — interned
  requests against a new ``LockRequest`` per group through a set and a sort;
* ``requests()`` + ``LockManager.acquire`` — tuple heap, positional holds and
  the shared uncontended grant against a heap of self-ordering holds;
* ``Scheduler._route_read`` with 1 and 2 replicas, unpinned and pinned — the
  kept name list against sort + three method calls per replica per read;
* one mix draw and one think draw — served from blocks on their streams
  against one numpy scalar call each (``tests/oracles/clients.py``);
* one query's host demand — one ``PhysicalServer.note_demand`` call against
  the server → ``LoadModel`` → ``IntervalLoad`` chain (``host.py``);
* one demand-only ``ExecutionAccess`` — the slotted class against the
  dataclass with a ``default_factory`` per list (``pagegen.py``).

The tables (``-rP`` shows them) are nanoseconds per operation, best of
``REPEATS`` (of twice as many, alternating with the oracle, for the last
three rows), and microseconds per whole query as built.  The first test
asserts that record + lock set + grant are built in less than half the
oracle's time; the second that each of the last three rows is faster than
its oracle.
"""

import sys
import timeit
from pathlib import Path

from repro.cluster.replica import Replica
from repro.cluster.scheduler import Scheduler
from repro.cluster.server import PhysicalServer, ServerSpec
from repro.engine.access import ExecutionAccess
from repro.engine.locks import LockManager, RowGroupLockPattern
from repro.engine.statslog import ExecutionRecord
from repro.experiments.index_drop import EXPERIMENT_COST_MODEL
from repro.experiments.runner import ClusterHarness
from repro.sim.rng import CumulativeSampler, RandomStream
from repro.workloads.tpcw import build_tpcw

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.clients import ScalarStream  # noqa: E402
from oracles.host import ChainedDemandServer  # noqa: E402
from oracles.locks import PerHoldHeapManager, requests_per_execution  # noqa: E402
from oracles.pagegen import FactoryExecutionAccess  # noqa: E402
from oracles.record import keyword_built_record  # noqa: E402
from oracles.routing import PerReadRouting  # noqa: E402

OPERATIONS = 20_000
REPEATS = 5
SEED = 7


def _nanoseconds(run) -> float:
    run()  # warm caches, first draw-ahead blocks, interned requests
    return min(timeit.repeat(run, number=1, repeat=REPEATS)) / OPERATIONS * 1e9


def _paired_nanoseconds(oracle, built) -> tuple[float, float]:
    """Both runs' best of ``2 * REPEATS``, taken in alternation, so that a
    stretch of slow machine time falls on both sides alike."""
    oracle(), built()
    times: tuple[list[float], list[float]] = ([], [])
    for _ in range(2 * REPEATS):
        for run, seconds in zip((oracle, built), times):
            seconds.append(timeit.timeit(run, number=1))
    return min(times[0]) / OPERATIONS * 1e9, min(times[1]) / OPERATIONS * 1e9


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

    return _nanoseconds(oracle), _nanoseconds(built)


def _locking_patterns() -> list[RowGroupLockPattern]:
    """The lock patterns of a freshly built shopping mix, in class order."""
    return [
        query_class.lock_pattern
        for query_class in build_tpcw(SEED).classes()
        if isinstance(query_class.lock_pattern, RowGroupLockPattern)
    ]


def _lock_set_ns() -> tuple[float, float]:
    def through(requests) -> float:
        patterns = _locking_patterns()

        def run() -> None:
            for index in range(OPERATIONS):
                requests(patterns[index % len(patterns)])

        return _nanoseconds(run)

    return through(requests_per_execution), through(RowGroupLockPattern.requests)


def _lock_path_ns() -> tuple[float, float]:
    def through(manager: LockManager, requests) -> float:
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

        return _nanoseconds(run)

    return (
        through(PerHoldHeapManager(), requests_per_execution),
        through(LockManager(), RowGroupLockPattern.requests),
    )


def _route_read_ns(replicas: int, pinned: bool) -> tuple[float, float]:
    def through(kind: type[Scheduler]) -> float:
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

        return _nanoseconds(run)

    return through(PerReadRouting), through(Scheduler)


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

    return _nanoseconds(run) / 1e3


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
