"""Unit tests for the planner's greedy search and plan artefact."""

import pytest

from repro.core.mrc import MRCParameters
from repro.planner import (
    AppState,
    CapacityPlan,
    ClassState,
    ClusterSnapshot,
    PlannerConfig,
    PlanStepKind,
    PoolState,
    search_plan,
)
from repro.planner.search import new_pool_id, split_new_pool_id


class StepCurve:
    """Miss 1.0 below the working set, 0.05 at or above it."""

    def __init__(self, working_set: int):
        self.max_depth = working_set

    def miss_ratio(self, pages: int) -> float:
        return 0.05 if pages >= self.max_depth else 1.0


def params(total: int, acceptable: int) -> MRCParameters:
    return MRCParameters(
        total_memory=total,
        ideal_miss_ratio=0.05,
        acceptable_memory=acceptable,
        acceptable_miss_ratio=0.15,
    )


def contended_snapshot(idle=("spare-1", "spare-2")):
    """Two 3000-page working sets crammed into one 4096-page pool.

    Together they overcommit the pool (each is sliced to ~2048 pages and
    misses); apart, each fits comfortably.  The planner's obvious move is
    to add a replica on an idle server and migrate one class out.
    """

    def cls(name):
        return ClassState(
            context_key=f"app/{name}",
            app="app",
            pool="srv1:engine",
            placement=("app-replica-0",),
            pressure=500.0,
            params=params(3000, 2500),
        )

    return ClusterSnapshot(
        interval_index=7,
        interval_length=30.0,
        apps=(
            AppState(
                app="app",
                sla_latency=1.0,
                sla_met=False,
                violation_streak=3,
                mean_latency=2.0,
                throughput=50.0,
                replicas=("app-replica-0",),
            ),
        ),
        pools=(
            PoolState(
                engine="srv1:engine",
                server="srv1",
                pool_pages=4096,
                online=True,
                quotas=(),
                replicas=(("app", "app-replica-0"),),
                classes=("app/a", "app/b"),
            ),
        ),
        classes=(cls("a"), cls("b")),
        idle_servers=idle,
        io_time_per_page=0.01,
        curves={"app/a": StepCurve(2500), "app/b": StepCurve(2500)},
    )


def healthy_snapshot():
    base = contended_snapshot()
    keep = base.classes[:1]
    return ClusterSnapshot(
        interval_index=base.interval_index,
        interval_length=base.interval_length,
        apps=base.apps,
        pools=base.pools,
        classes=keep,
        idle_servers=base.idle_servers,
        io_time_per_page=base.io_time_per_page,
        curves={"app/a": StepCurve(2500)},
    )


class TestSearchPlan:
    def test_contention_resolved_by_add_and_migrate(self):
        plan = search_plan(contended_snapshot())
        kinds = [step.kind for step in plan.steps]
        assert PlanStepKind.ADD_REPLICA in kinds
        assert PlanStepKind.MIGRATE_CLASS in kinds
        assert plan.improvement > 0
        # Every summarised class is predicted acceptable once the plan runs.
        assert plan.outlooks
        assert all(o.meets_acceptable for o in plan.outlooks)

    def test_add_replica_precedes_migrations_that_target_it(self):
        plan = search_plan(contended_snapshot())
        seen_placeholders = set()
        for step in plan.steps:
            if step.kind is PlanStepKind.ADD_REPLICA:
                seen_placeholders.add(step.pool)
            elif step.kind is PlanStepKind.MIGRATE_CLASS and (
                step.pool or ""
            ).startswith("new:"):
                assert step.pool in seen_placeholders

    def test_migration_lands_on_an_idle_server(self):
        plan = search_plan(contended_snapshot())
        adds = [
            s for s in plan.steps if s.kind is PlanStepKind.ADD_REPLICA
        ]
        assert adds
        for step in adds:
            assert step.server in ("spare-1", "spare-2")
            assert step.app == "app"
            assert step.pool == new_pool_id("app", step.server)

    def test_healthy_snapshot_plans_nothing(self):
        plan = search_plan(healthy_snapshot())
        assert plan.empty
        assert plan.improvement == 0
        assert "locally optimal" in plan.render()

    def test_no_idle_servers_still_finds_a_quota(self):
        # With nowhere to migrate, the only lever left is memory tuning
        # inside the pool; the search may or may not find an improving
        # quota, but it must not invent pools out of thin air.
        plan = search_plan(contended_snapshot(idle=()))
        for step in plan.steps:
            assert step.kind is not PlanStepKind.ADD_REPLICA
            if step.pool:
                assert not step.pool.startswith("new:")

    def test_same_snapshot_and_seed_is_byte_identical(self):
        a = search_plan(contended_snapshot(), PlannerConfig(seed=3))
        b = search_plan(contended_snapshot(), PlannerConfig(seed=3))
        assert a == b
        assert a.canonical_json() == b.canonical_json()
        assert a.digest() == b.digest()

    def test_digest_covers_the_seed(self):
        # Different seeds may tie-break differently; the digest must change
        # at least through the recorded seed field even when steps agree.
        a = search_plan(contended_snapshot(), PlannerConfig(seed=0))
        b = search_plan(contended_snapshot(), PlannerConfig(seed=1))
        assert a.digest() != b.digest()

    def test_max_steps_zero_plans_nothing(self):
        plan = search_plan(contended_snapshot(), PlannerConfig(max_steps=0))
        assert plan.empty
        assert plan.score_before == plan.score_after

    def test_summary_drop_is_noted(self):
        plan = search_plan(
            contended_snapshot(), PlannerConfig(summary_k=1, max_steps=0)
        )
        assert plan.coverage == pytest.approx(0.5)
        assert any("dropped 1" in note for note in plan.notes)


class TestPlannerConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PlannerConfig(max_steps=-1)
        with pytest.raises(ValueError):
            PlannerConfig(summary_k=0)
        with pytest.raises(ValueError):
            PlannerConfig(amortization_seconds=0.0)
        with pytest.raises(ValueError):
            PlannerConfig(min_quota_pages=0)


class TestPlaceholderPoolIds:
    def test_round_trip(self):
        pool_id = new_pool_id("app", "spare-1")
        assert pool_id == "new:app:spare-1"
        assert split_new_pool_id(pool_id) == ("app", "spare-1")


class TestCapacityPlanArtefact:
    def test_canonical_json_is_sorted_and_compact(self):
        plan = search_plan(contended_snapshot())
        text = plan.canonical_json()
        assert ": " not in text and ", " not in text
        assert text.index('"score_after"') < text.index('"score_before"')

    def test_a_plan_without_steps_is_empty(self):
        plan = CapacityPlan(
            seed=0, interval_index=0, score_before=1.0, score_after=0.5
        )
        assert plan.empty
        assert plan.improvement == pytest.approx(0.5)

    def test_render_lists_steps_in_order(self):
        plan = search_plan(contended_snapshot())
        rendered = plan.render()
        assert "capacity plan @ interval 7" in rendered
        for index in range(1, len(plan.steps) + 1):
            assert f"\n  {index}. " in rendered
