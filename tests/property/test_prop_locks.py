"""Property-based tests for the lock manager's 2PL invariants."""

from hypothesis import given, settings, strategies as st

from oracles.locks import (
    PerHoldHeapManager,
    TupleHeapManager,
    held_resources,
    live_holds,
    requests_per_execution,
)
from repro.engine.locks import (
    LockManager,
    LockMode,
    LockRequest,
    RowGroupLockPattern,
)
from repro.sim.rng import RandomStream


@st.composite
def acquire_sequences(draw):
    """Random acquire calls: (owner, groups, mode, arrival gap, hold)."""
    n = draw(st.integers(min_value=1, max_value=25))
    calls = []
    for _ in range(n):
        owner = draw(st.sampled_from(["a", "b", "c", "d"]))
        groups = draw(
            st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3)
        )
        mode = draw(st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE]))
        gap = draw(st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
        hold = draw(st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
        calls.append((owner, sorted(set(groups)), mode, gap, hold))
    return calls


def replay(calls):
    """Run the calls; return [(owner, groups, mode, grant_time, release)]."""
    manager = LockManager()
    now = 0.0
    timeline = []
    for owner, groups, mode, gap, hold in calls:
        now += gap
        requests = [LockRequest(("t", g), mode) for g in groups]
        grant = manager.acquire(owner, requests, now=now, hold_for=hold)
        granted_at = now + grant.wait_time
        timeline.append((owner, groups, mode, granted_at, granted_at + hold))
    return timeline


@given(calls=acquire_sequences())
@settings(max_examples=100, deadline=None)
def test_waits_are_never_negative(calls):
    manager = LockManager()
    now = 0.0
    for owner, groups, mode, gap, hold in calls:
        now += gap
        requests = [LockRequest(("t", g), mode) for g in groups]
        grant = manager.acquire(owner, requests, now=now, hold_for=hold)
        assert grant.wait_time >= 0.0


@given(calls=acquire_sequences())
@settings(max_examples=100, deadline=None)
def test_no_conflicting_holds_overlap(calls):
    """Two conflicting grants on one resource never overlap in time.

    (Open intervals: a grant may start exactly when the conflicting hold
    releases.)  This is the serialisation guarantee 2PL exists for.
    """
    timeline = replay(calls)
    for i, (owner_a, groups_a, mode_a, start_a, end_a) in enumerate(timeline):
        for owner_b, groups_b, mode_b, start_b, end_b in timeline[i + 1 :]:
            if owner_a == owner_b:
                continue  # re-entrant holds may overlap by design
            if not mode_a.conflicts_with(mode_b):
                continue
            if not set(groups_a) & set(groups_b):
                continue
            overlap = min(end_a, end_b) - max(start_a, start_b)
            assert overlap <= 1e-9


@given(calls=acquire_sequences())
@settings(max_examples=100, deadline=None)
def test_grants_never_precede_requests(calls):
    manager = LockManager()
    now = 0.0
    for owner, groups, mode, gap, hold in calls:
        now += gap
        requests = [LockRequest(("t", g), mode) for g in groups]
        grant = manager.acquire(owner, requests, now=now, hold_for=hold)
        assert now + grant.wait_time >= now


@given(calls=acquire_sequences())
@settings(max_examples=60, deadline=None)
def test_stats_account_every_acquisition(calls):
    manager = LockManager()
    now = 0.0
    per_owner = {}
    for owner, groups, mode, gap, hold in calls:
        now += gap
        requests = [LockRequest(("t", g), mode) for g in groups]
        manager.acquire(owner, requests, now=now, hold_for=hold)
        per_owner[owner] = per_owner.get(owner, 0) + 1
    for owner, count in per_owner.items():
        assert manager.stats[owner].acquisitions == count
        assert manager.stats[owner].waits <= count


@given(calls=acquire_sequences())
@settings(max_examples=60, deadline=None)
def test_shared_only_traffic_never_waits(calls):
    manager = LockManager()
    now = 0.0
    for owner, groups, _, gap, hold in calls:
        now += gap
        requests = [LockRequest(("t", g), LockMode.SHARED) for g in groups]
        grant = manager.acquire(owner, requests, now=now, hold_for=hold)
        assert not grant.waited


# --------------------------------------------------------------------- #
# Differential: interned lock sets and the hold-tuple heap against the   #
# formulations they replaced (tests/oracles/locks.py)                    #
# --------------------------------------------------------------------- #


@given(
    group_count=st.integers(min_value=1, max_value=12),
    groups=st.integers(min_value=1, max_value=4),
    span=st.integers(min_value=1, max_value=12),
    mode=st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE]),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_interned_lock_sets_equal_freshly_built_ones(
    group_count, groups, span, mode, seed
):
    span = min(span, group_count)  # span == group_count wraps all the way round

    def build() -> RowGroupLockPattern:
        return RowGroupLockPattern(
            "t", group_count, mode, RandomStream(seed, "locks"),
            groups_per_execution=groups, span=span,
        )

    pattern, twin = build(), build()
    seen: dict[tuple[str, int], LockRequest] = {}
    for _ in range(40):
        lock_set = pattern.requests()
        assert lock_set == requests_per_execution(twin)
        for request in lock_set:
            # One value per row group, whichever execution asks for it.
            assert seen.setdefault(request.resource, request) is request


# Few distinct instants and durations, so release times tie often.
tied_calls = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d"]),
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
        st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE]),
        st.sampled_from([0.0, 0.0, 0.5, 1.0]),
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    ),
    min_size=1,
    max_size=40,
)


@given(calls=tied_calls)
@settings(max_examples=150, deadline=None)
def test_tuple_heap_manager_matches_the_heap_of_holds(calls):
    manager, oracle = LockManager(), PerHoldHeapManager()
    now = last_release = 0.0
    for owner, groups, mode, gap, hold in calls:
        now += gap
        requests = [LockRequest(("t", g), mode) for g in sorted(set(groups))]
        grant = manager.acquire(owner, requests, now, hold)
        expected = oracle.acquire(owner, requests, now, hold)
        assert grant == expected
        assert grant.waited == expected.waited
        assert live_holds(manager) == live_holds(oracle)
        assert manager.stats == oracle.stats
        assert manager.waits_for.edges() == oracle.waits_for.edges()
        assert len(manager._expiry) == len(oracle._expiry)
        last_release = max(last_release, now + grant.wait_time + hold)
    # Waits chain, so the last hold can end long after ``now``: look past it.
    after_all = last_release + 1.0
    assert held_resources(manager, after_all) == held_resources(oracle, after_all) == 0
    assert not manager._holds and not manager._expiry


# Clock steps that go back as well as forward: ClosedLoopDriver runs each
# client through a whole interval before the next starts, so the manager sees
# acquisitions out of time order.
unordered_calls = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d"]),
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
        st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE]),
        st.sampled_from([-2.0, -0.5, 0.0, 0.0, 0.5, 1.0, 3.0]),
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    ),
    min_size=1,
    max_size=40,
)


@given(calls=unordered_calls)
@settings(max_examples=150, deadline=None)
def test_hold_tuples_match_both_older_managers_under_any_clock(calls):
    """Grants, statistics, waits-for edges and live holds after every call,
    against the manager of before (an expiry per call, a recorded grant per
    call) and the one before that, with ``now`` going backwards too."""
    manager, managers = LockManager(), (TupleHeapManager(), PerHoldHeapManager())
    now = 0.0
    for owner, groups, mode, step, hold in calls:
        now += step
        requests = tuple(LockRequest(("t", g), mode) for g in sorted(set(groups)))
        grant = manager.acquire(owner, requests, now, hold)
        for oracle in managers:
            expected = oracle.acquire(owner, requests, now, hold)
            assert grant == expected
            assert grant.waited == expected.waited
            assert live_holds(manager) == live_holds(oracle)
            assert manager.stats == oracle.stats
            assert manager.waits_for.edges() == oracle.waits_for.edges()
    snapshot = manager.interval_snapshot()
    for oracle in managers:
        assert snapshot == oracle.stats
        assert held_resources(manager, now) == held_resources(oracle, now)
        assert live_holds(manager) == live_holds(oracle)
