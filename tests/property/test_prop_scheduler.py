"""Property-based tests for scheduler routing invariants."""

from hypothesis import given, settings, strategies as st

from repro.cluster.replica import Replica
from repro.cluster.scheduler import Scheduler
from repro.cluster.server import PhysicalServer
from repro.engine.access import AccessPattern, ExecutionAccess
from repro.engine.query import QueryClass


class _OnePage(AccessPattern):
    def pages_for_execution(self):
        return ExecutionAccess(demand=[1])


def make_class(name, write=False):
    return QueryClass(name, "app", 1, f"sql {name}", _OnePage(), is_write=write)


ops = st.lists(
    st.tuples(
        st.sampled_from(["read", "write"]),
        st.sampled_from(["q1", "q2", "q3"]),
    ),
    min_size=1,
    max_size=40,
)


def build_scheduler(async_mode, replicas=3, delay=0.5):
    scheduler = Scheduler(
        "app", async_replication=async_mode, propagation_delay=delay
    )
    for index in range(replicas):
        scheduler.add_replica(
            Replica.create(f"r{index}", "app", PhysicalServer(f"s{index}"))
        )
    return scheduler


@given(sequence=ops, async_mode=st.booleans())
@settings(max_examples=60, deadline=None)
def test_watermarks_never_exceed_committed(sequence, async_mode):
    scheduler = build_scheduler(async_mode)
    now = 0.0
    for kind, name in sequence:
        scheduler.submit(make_class(name, write=(kind == "write")), now)
        now += 0.1
    for name in scheduler.replica_names():
        assert (
            scheduler.replication.watermarks[name]
            <= scheduler.replication.committed
        )


@given(sequence=ops, async_mode=st.booleans())
@settings(max_examples=60, deadline=None)
def test_applied_writes_match_watermarks(sequence, async_mode):
    scheduler = build_scheduler(async_mode)
    now = 0.0
    for kind, name in sequence:
        scheduler.submit(make_class(name, write=(kind == "write")), now)
        now += 0.1
    for name in scheduler.replica_names():
        assert (
            scheduler.replicas[name].applied_writes
            == scheduler.replication.watermarks[name]
        )


@given(sequence=ops, async_mode=st.booleans())
@settings(max_examples=60, deadline=None)
def test_drain_restores_full_consistency(sequence, async_mode):
    scheduler = build_scheduler(async_mode)
    now = 0.0
    for kind, name in sequence:
        scheduler.submit(make_class(name, write=(kind == "write")), now)
        now += 0.1
    scheduler.drain_pending(now + 1e6)
    assert scheduler.replication.fully_consistent


@given(sequence=ops)
@settings(max_examples=60, deadline=None)
def test_sync_mode_never_leaves_lag(sequence):
    scheduler = build_scheduler(async_mode=False)
    now = 0.0
    for kind, name in sequence:
        scheduler.submit(make_class(name, write=(kind == "write")), now)
        now += 0.1
    assert scheduler.replication.fully_consistent
    assert scheduler.pending_writes == 0


@given(sequence=ops, async_mode=st.booleans())
@settings(max_examples=40, deadline=None)
def test_total_read_executions_conserved(sequence, async_mode):
    """Every read runs on exactly one replica; every sync write on all."""
    scheduler = build_scheduler(async_mode)
    now = 0.0
    reads = writes = 0
    for kind, name in sequence:
        scheduler.submit(make_class(name, write=(kind == "write")), now)
        reads += kind == "read"
        writes += kind == "write"
        now += 0.1
    scheduler.drain_pending(now + 1e6)
    total_executions = sum(
        scheduler.replicas[name].engine.executor.executions
        for name in scheduler.replica_names()
    )
    # After the final drain, every write has executed on all 3 replicas in
    # both modes; each read executed exactly once.
    assert total_executions == reads + 3 * writes
