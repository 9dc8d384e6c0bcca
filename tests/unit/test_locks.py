"""Unit tests for the two-phase-locking substrate."""

import pytest

from oracles.locks import held_resources
from repro.engine.locks import (
    _Hold,
    LockGrant,
    LockManager,
    LockMode,
    LockRequest,
    LockStats,
    RowGroupLockPattern,
    WaitsForGraph,
)
from repro.sim.rng import SeedSequenceFactory


def req(group=0, mode=LockMode.EXCLUSIVE, table="t"):
    return LockRequest(resource=(table, group), mode=mode)


class TestLockMode:
    def test_shared_shared_compatible(self):
        assert not LockMode.SHARED.conflicts_with(LockMode.SHARED)

    def test_everything_else_conflicts(self):
        assert LockMode.SHARED.conflicts_with(LockMode.EXCLUSIVE)
        assert LockMode.EXCLUSIVE.conflicts_with(LockMode.SHARED)
        assert LockMode.EXCLUSIVE.conflicts_with(LockMode.EXCLUSIVE)


class TestLockManager:
    def test_uncontended_acquire_is_free(self):
        manager = LockManager()
        grant = manager.acquire("a", [req(0)], now=0.0, hold_for=1.0)
        assert grant.wait_time == 0.0
        assert not grant.waited

    def test_conflicting_acquire_waits_for_release(self):
        manager = LockManager()
        manager.acquire("a", [req(0)], now=0.0, hold_for=2.0)
        grant = manager.acquire("b", [req(0)], now=0.5, hold_for=1.0)
        assert grant.wait_time == pytest.approx(1.5)
        assert grant.conflicts == (("b", "a"),)

    def test_expired_hold_does_not_block(self):
        manager = LockManager()
        manager.acquire("a", [req(0)], now=0.0, hold_for=1.0)
        grant = manager.acquire("b", [req(0)], now=1.5, hold_for=1.0)
        assert not grant.waited

    def test_shared_readers_coexist(self):
        manager = LockManager()
        manager.acquire("r1", [req(0, LockMode.SHARED)], now=0.0, hold_for=5.0)
        grant = manager.acquire(
            "r2", [req(0, LockMode.SHARED)], now=0.1, hold_for=5.0
        )
        assert not grant.waited

    def test_writer_waits_for_readers(self):
        manager = LockManager()
        manager.acquire("r", [req(0, LockMode.SHARED)], now=0.0, hold_for=3.0)
        grant = manager.acquire("w", [req(0)], now=1.0, hold_for=1.0)
        assert grant.wait_time == pytest.approx(2.0)

    def test_wait_is_max_over_resources(self):
        manager = LockManager()
        manager.acquire("a", [req(0)], now=0.0, hold_for=1.0)
        manager.acquire("b", [req(1)], now=0.0, hold_for=4.0)
        grant = manager.acquire("c", [req(0), req(1)], now=0.0, hold_for=1.0)
        assert grant.wait_time == pytest.approx(4.0)

    def test_reentrant_holds_do_not_self_block(self):
        manager = LockManager()
        manager.acquire("a", [req(0)], now=0.0, hold_for=5.0)
        grant = manager.acquire("a", [req(0)], now=1.0, hold_for=5.0)
        assert not grant.waited

    def test_different_tables_independent(self):
        manager = LockManager()
        manager.acquire("a", [req(0, table="x")], now=0.0, hold_for=5.0)
        grant = manager.acquire("b", [req(0, table="y")], now=0.0, hold_for=5.0)
        assert not grant.waited

    def test_hold_installed_after_wait(self):
        # Strict 2PL chain: c waits for b which waited for a.
        manager = LockManager()
        manager.acquire("a", [req(0)], now=0.0, hold_for=2.0)
        manager.acquire("b", [req(0)], now=1.0, hold_for=2.0)  # holds 2..4
        grant = manager.acquire("c", [req(0)], now=1.5, hold_for=1.0)
        assert grant.wait_time == pytest.approx(2.5)  # until t=4

    def test_stats_recorded(self):
        manager = LockManager()
        manager.acquire("a", [req(0)], now=0.0, hold_for=2.0)
        manager.acquire("b", [req(0)], now=0.0, hold_for=1.0)
        stats = manager.stats["b"]
        assert stats.waits == 1
        assert stats.total_wait_time == pytest.approx(2.0)
        assert stats.conflicts == {"a": 1}

    def test_interval_snapshot_resets(self):
        manager = LockManager()
        manager.acquire("a", [req(0)], now=0.0, hold_for=1.0)
        snapshot = manager.interval_snapshot()
        assert snapshot["a"].acquisitions == 1
        assert manager.interval_snapshot() == {}

    def test_held_resources(self):
        manager = LockManager()
        manager.acquire("a", [req(0), req(1)], now=0.0, hold_for=2.0)
        assert held_resources(manager, 1.0) == 2
        assert held_resources(manager, 3.0) == 0

    def test_rejects_negative_hold(self):
        with pytest.raises(ValueError):
            LockManager().acquire("a", [req(0)], now=0.0, hold_for=-1.0)

    def test_uncontended_grants_are_one_shared_value(self):
        manager = LockManager()
        first = manager.acquire("a", [req(0)], now=0.0, hold_for=1.0)
        second = manager.acquire("b", [req(1)], now=0.0, hold_for=1.0)
        assert first is second
        assert (first.wait_time, first.conflicts, first.waited) == (0.0, (), False)
        with pytest.raises(AttributeError):
            first.wait_time = 1.0


class TestHoldExpiry:
    def test_holds_are_equal_only_to_themselves(self):
        resource = ("t", 0)
        one = _Hold(2.0, resource, LockMode.SHARED, "a")
        other = _Hold(2.0, resource, LockMode.SHARED, "b")
        assert one != other
        assert one != _Hold(2.0, resource, LockMode.SHARED, "a")
        holders = [one, other]
        holders.remove(other)
        assert holders == [one] and holders[0] is one

    def test_equal_release_times_on_one_resource_all_expire(self):
        manager = LockManager()
        shared = req(0, LockMode.SHARED)
        manager.acquire("a", [shared], now=0.0, hold_for=2.0)
        manager.acquire("b", [shared], now=0.0, hold_for=2.0)
        assert [h.owner for h in manager._holds[("t", 0)]] == ["a", "b"]
        assert held_resources(manager, 1.0) == 1
        assert held_resources(manager, 2.0 + 1e-9) == 0
        assert not manager._holds and not manager._expiry

    def test_equal_release_times_on_different_resources(self):
        manager = LockManager()
        manager.acquire("a", [req(0)], now=0.0, hold_for=2.0)
        manager.acquire("b", [req(1)], now=0.0, hold_for=2.0)
        # Only resource 0 is asked about: b's equal-time hold plays no part.
        grant = manager.acquire("c", [req(0)], now=1.0, hold_for=3.0)
        assert grant.wait_time == pytest.approx(1.0)
        assert grant.conflicts == (("c", "a"),)
        assert [h.owner for h in manager._holds[("t", 0)]] == ["a", "c"]
        assert [h.owner for h in manager._holds[("t", 1)]] == ["b"]
        # a and b expire together; c (installed at t=2, held to t=5) stays.
        assert held_resources(manager, 2.5) == 1
        assert [h.owner for h in manager._holds[("t", 0)]] == ["c"]
        assert held_resources(manager, 5.0) == 0

    def test_expiry_ties_never_compare_holds(self):
        # Equal release times fall through to the install sequence; a hold
        # has no ordering, so reaching it would raise TypeError.
        manager = LockManager()
        for owner in "abcdefgh":
            manager.acquire(owner, [req(0, LockMode.SHARED), req(1, LockMode.SHARED)],
                            now=0.0, hold_for=1.0)
        assert held_resources(manager, 0.5) == 2
        assert held_resources(manager, 1.0) == 0


class TestLockStats:
    def test_record_accumulates_waits(self):
        stats = LockStats()
        stats.record(LockGrant(wait_time=2.0, conflicts=(("b", "a"),)))
        stats.record(LockGrant(wait_time=0.0))
        stats.record(LockGrant(wait_time=4.0, conflicts=(("b", "a"),)))
        assert stats.acquisitions == 3
        assert stats.waits == 2
        assert stats.total_wait_time == pytest.approx(6.0)
        assert stats.conflicts == {"a": 2}


class TestWaitsForGraph:
    def test_edges_accumulate_weight(self):
        graph = WaitsForGraph()
        graph.add_edge("a", "b")
        graph.add_edge("a", "b")
        assert graph.edges() == [("a", "b", 2)]

    def test_self_edges_ignored(self):
        graph = WaitsForGraph()
        graph.add_edge("a", "a")
        assert graph.edges() == []

    def test_acyclic_graph(self):
        graph = WaitsForGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        assert graph.find_cycles() == []

    def test_two_cycle(self):
        graph = WaitsForGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "a")
        assert graph.find_cycles() == [["a", "b"]]

    def test_three_cycle(self):
        graph = WaitsForGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_edge("c", "a")
        assert graph.find_cycles() == [["a", "b", "c"]]

    def test_cycle_found_once(self):
        graph = WaitsForGraph()
        for waiter, holder in (("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")):
            graph.add_edge(waiter, holder)
        assert graph.find_cycles() == [["a", "b"], ["b", "c"]]


class TestRowGroupLockPattern:
    def make(self, **kwargs):
        seeds = SeedSequenceFactory(5)
        defaults = dict(
            table="item",
            group_count=100,
            mode=LockMode.EXCLUSIVE,
            stream=seeds.stream("lk"),
        )
        defaults.update(kwargs)
        return RowGroupLockPattern(**defaults)

    def test_narrow_pattern_single_group(self):
        pattern = self.make()
        requests = pattern.requests()
        assert len(requests) == 1
        assert requests[0].mode is LockMode.EXCLUSIVE

    def test_groups_within_bounds(self):
        pattern = self.make(groups_per_execution=5)
        for _ in range(20):
            for request in pattern.requests():
                table, group = request.resource
                assert table == "item"
                assert 0 <= group < 100

    def test_broad_span_locks_everything(self):
        pattern = self.make(span=100)
        assert len(pattern.requests()) == 100

    def test_rejects_bad_span(self):
        with pytest.raises(ValueError):
            self.make(span=101)

    def test_rejects_bad_group_count(self):
        with pytest.raises(ValueError):
            self.make(group_count=0)
