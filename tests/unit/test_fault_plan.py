"""Unit tests for fault plans and the fault injector's plan handling."""

import pytest

from repro.faults import FaultEvent, FaultKind, FaultPlan


def kinds(plan: FaultPlan) -> dict[str, int]:
    """How many events of each kind the plan holds."""
    counts: dict[str, int] = {}
    for event in plan.events:
        counts[event.kind.value] = counts.get(event.kind.value, 0) + 1
    return dict(sorted(counts.items()))


class TestFaultEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, FaultKind.REPLICA_CRASH, "r1")

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, FaultKind.REPLICA_CRASH, "")

    def test_slowdown_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            FaultEvent(
                0.0, FaultKind.IO_SLOWDOWN, "host", duration=5.0, factor=1.0
            )

    def test_slowdown_needs_positive_duration(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, FaultKind.CPU_SLOWDOWN, "host", factor=2.0)

    def test_slowdown_needs_at_least_one_ramp_step(self):
        with pytest.raises(ValueError):
            FaultEvent(
                0.0, FaultKind.IO_SLOWDOWN, "host",
                duration=5.0, factor=2.0, ramp_steps=0,
            )

    def test_write_stall_needs_positive_duration(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, FaultKind.WRITE_STALL, "app")

    def test_crash_needs_no_duration(self):
        event = FaultEvent(3.0, FaultKind.REPLICA_CRASH, "r1")
        assert event.duration == 0.0


class TestPlanBuilders:
    def test_builders_chain(self):
        plan = (
            FaultPlan()
            .crash(10.0, "r1")
            .recover(30.0, "r1")
            .io_slowdown(5.0, "host", factor=2.0, duration=10.0)
            .cpu_slowdown(6.0, "host", factor=3.0, duration=10.0, ramp_steps=2)
            .stats_gap(12.0, "engine")
            .metric_corruption(14.0, "engine")
            .write_stall(16.0, "app", duration=5.0)
        )
        assert len(plan.events) == 7
        assert kinds(plan) == {
            "cpu_slowdown": 1,
            "io_slowdown": 1,
            "metric_corruption": 1,
            "replica_crash": 1,
            "replica_recover": 1,
            "stats_gap": 1,
            "write_stall": 1,
        }

    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.events == []
        assert plan.ordered() == []

    def test_ordered_sorts_by_time(self):
        plan = FaultPlan().crash(20.0, "r1").stats_gap(5.0, "e")
        assert [e.at for e in plan.ordered()] == [5.0, 20.0]

    def test_ordered_preserves_insertion_on_ties(self):
        plan = FaultPlan().crash(10.0, "r1").stats_gap(10.0, "e")
        kinds = [e.kind for e in plan.ordered()]
        assert kinds == [FaultKind.REPLICA_CRASH, FaultKind.STATS_GAP]

class TestRandomPlans:
    def test_same_seed_same_plan(self):
        kwargs = dict(
            replicas=["r1", "r2"],
            hosts=["h1"],
            engines=["e1"],
            apps=["app"],
            horizon=100.0,
            events=8,
        )
        first = FaultPlan.random(3, **kwargs)
        second = FaultPlan.random(3, **kwargs)
        assert first.events == second.events

    def test_different_seeds_differ(self):
        kwargs = dict(replicas=["r1", "r2"], hosts=["h1"], events=8)
        assert (
            FaultPlan.random(1, **kwargs).events
            != FaultPlan.random(2, **kwargs).events
        )

    def test_crashes_always_pair_with_recovery(self):
        plan = FaultPlan.random(11, replicas=["r1", "r2", "r3"], events=12)
        counts = kinds(plan)
        assert counts.get("replica_crash", 0) == counts.get("replica_recover", 0)
        # Per replica, every crash has a later recovery.
        for replica in ("r1", "r2", "r3"):
            events = [e for e in plan.ordered() if e.target == replica]
            pending = 0
            for event in events:
                if event.kind is FaultKind.REPLICA_CRASH:
                    pending += 1
                elif event.kind is FaultKind.REPLICA_RECOVER:
                    pending -= 1
            assert pending == 0

    def test_events_within_horizon(self):
        plan = FaultPlan.random(
            5, replicas=["r1"], hosts=["h"], engines=["e"], apps=["a"],
            horizon=50.0, events=10,
        )
        assert all(0.0 <= e.at <= 50.0 for e in plan.ordered())

    def test_needs_replicas(self):
        with pytest.raises(ValueError):
            FaultPlan.random(1, replicas=[])

    def test_rejects_negative_events(self):
        with pytest.raises(ValueError):
            FaultPlan.random(1, replicas=["r1"], events=-1)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            FaultPlan.random(1, replicas=["r1"], horizon=0.0)

    def test_kinds_restricted_to_named_targets(self):
        plan = FaultPlan.random(9, replicas=["r1"], events=10)
        assert set(kinds(plan)) <= {"replica_crash", "replica_recover"}


class TestControllerBuilders:
    def test_controller_storm_chains(self):
        plan = (
            FaultPlan()
            .checkpoint_corruption(90.0)
            .controller_crash(100.0)
            .controller_restart(130.0)
        )
        assert kinds(plan) == {
            "checkpoint_corruption": 1,
            "controller_crash": 1,
            "controller_restart": 1,
        }
        assert all(e.target == "controller" for e in plan.ordered())

    def test_controller_crash_duration_overrides_watchdog(self):
        [event] = FaultPlan().controller_crash(10.0, duration=42.0).ordered()
        assert event.duration == 42.0

    def test_negative_time_rejected_for_controller_kinds(self):
        with pytest.raises(ValueError):
            FaultPlan().controller_crash(-1.0)


class TestRecoveryPairingValidation:
    def test_recover_before_crash_rejected_at_append(self):
        plan = FaultPlan().crash(50.0, "r1")
        with pytest.raises(ValueError, match="precedes its paired"):
            plan.recover(20.0, "r1")

    def test_rejected_append_does_not_pollute_the_plan(self):
        plan = FaultPlan().crash(50.0, "r1")
        with pytest.raises(ValueError):
            plan.recover(20.0, "r1")
        assert len(plan.events) == 1
        plan.recover(60.0, "r1")  # a correct pairing still works afterwards
        assert len(plan.events) == 2

    def test_recover_without_any_crash_rejected(self):
        with pytest.raises(ValueError, match="nothing is down"):
            FaultPlan().recover(20.0, "r1")

    def test_restart_before_controller_crash_rejected(self):
        plan = FaultPlan().controller_crash(100.0)
        with pytest.raises(ValueError, match="controller_crash"):
            plan.controller_restart(90.0)

    def test_pairing_is_per_target(self):
        # r2's recovery cannot borrow r1's crash.
        plan = FaultPlan().crash(10.0, "r1")
        with pytest.raises(ValueError):
            plan.recover(20.0, "r2")

    def test_nested_outages_are_legal(self):
        plan = (
            FaultPlan()
            .crash(10.0, "r1")
            .recover(20.0, "r1")
            .crash(30.0, "r1")
            .recover(40.0, "r1")
        )
        assert len(plan.validate().events) == 4

    def test_double_recovery_of_one_outage_rejected(self):
        plan = FaultPlan().crash(10.0, "r1").recover(20.0, "r1")
        with pytest.raises(ValueError):
            plan.recover(25.0, "r1")

    def test_validate_backstops_raw_event_lists(self):
        from repro.faults import FaultEvent, FaultKind

        plan = FaultPlan(events=[
            FaultEvent(20.0, FaultKind.REPLICA_RECOVER, "r1"),
            FaultEvent(50.0, FaultKind.REPLICA_CRASH, "r1"),
        ])
        with pytest.raises(ValueError, match="precedes its paired"):
            plan.validate()

    def test_validate_returns_self_on_clean_plans(self):
        plan = FaultPlan().crash(10.0, "r1").recover(20.0, "r1")
        assert plan.validate() is plan

    def test_checkpoint_corruption_needs_no_pairing(self):
        assert len(FaultPlan().checkpoint_corruption(5.0).validate().events) == 1


class TestRandomControllerStorms:
    def test_controller_crashes_pair_with_restarts(self):
        plan = FaultPlan.random(
            13, replicas=["r1"], events=16, controller=True, horizon=400.0
        )
        counts = kinds(plan)
        assert counts.get("controller_crash", 0) >= 1  # seed 13 draws some
        assert counts.get("controller_crash", 0) == counts.get(
            "controller_restart", 0
        )
        plan.validate()

    def test_controller_disabled_by_default(self):
        plan = FaultPlan.random(13, replicas=["r1"], events=16, horizon=400.0)
        assert "controller_crash" not in kinds(plan)

    def test_same_seed_same_controller_storm(self):
        kwargs = dict(replicas=["r1"], events=10, controller=True)
        assert (
            FaultPlan.random(4, **kwargs).events
            == FaultPlan.random(4, **kwargs).events
        )
