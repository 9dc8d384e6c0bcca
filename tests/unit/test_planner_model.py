"""Unit tests for the planner's pure-data model (snapshot + summary)."""

import pytest

from repro.core.mrc import MissRatioCurve, MRCParameters
from repro.planner import (
    AppState,
    ClassState,
    ClusterSnapshot,
    CurveSlice,
    PoolState,
    WorkloadSummary,
)


def looping_curve(pages: int, repeats: int = 30) -> MissRatioCurve:
    trace = list(range(pages)) * repeats
    return MissRatioCurve.from_trace(trace)


def params(total: int, acceptable: int) -> MRCParameters:
    return MRCParameters(
        total_memory=total,
        ideal_miss_ratio=0.05,
        acceptable_memory=acceptable,
        acceptable_miss_ratio=0.15,
    )


class TestCurveSlice:
    def test_rejects_mismatched_or_empty_samples(self):
        with pytest.raises(ValueError):
            CurveSlice(sizes=(), miss_ratios=())
        with pytest.raises(ValueError):
            CurveSlice(sizes=(1, 2), miss_ratios=(1.0,))

    def test_rejects_non_ascending_sizes(self):
        with pytest.raises(ValueError):
            CurveSlice(sizes=(1, 3, 3), miss_ratios=(1.0, 0.5, 0.5))

    def test_lookup_rounds_down(self):
        # Step function: between samples, the value of the *smaller* sample
        # applies — an upper bound on a non-increasing curve.
        piece = CurveSlice(sizes=(10, 100), miss_ratios=(0.8, 0.1))
        assert piece.miss_ratio(10) == 0.8
        assert piece.miss_ratio(99) == 0.8
        assert piece.miss_ratio(100) == 0.1
        assert piece.miss_ratio(10_000) == 0.1

    def test_below_smallest_sample_misses_everything(self):
        piece = CurveSlice(sizes=(10,), miss_ratios=(0.5,))
        assert piece.miss_ratio(9) == 1.0
        assert piece.miss_ratio(0) == 1.0
        with pytest.raises(ValueError):
            piece.miss_ratio(-1)

    def test_from_curve_is_conservative_everywhere(self):
        curve = looping_curve(200)
        piece = CurveSlice.from_curve(curve, max_pages=400, points=12)
        for pages in range(1, 401, 7):
            assert piece.miss_ratio(pages) >= curve.miss_ratio(pages) - 1e-12

    def test_from_curve_includes_knees_exactly(self):
        curve = looping_curve(200)
        piece = CurveSlice.from_curve(
            curve, max_pages=400, points=8, knees=(200, 350)
        )
        assert 200 in piece.sizes and 350 in piece.sizes
        # At a knee the slice is exact, not just conservative.
        assert piece.miss_ratio(200) == pytest.approx(curve.miss_ratio(200))

    def test_from_curve_grid_bounds(self):
        piece = CurveSlice.from_curve(looping_curve(50), max_pages=128)
        assert piece.sizes[0] == 1
        assert piece.sizes[-1] == 128
        assert piece.max_depth == 128
        # Out-of-range knees are ignored rather than rejected.
        piece = CurveSlice.from_curve(
            looping_curve(50), max_pages=128, knees=(0, 9999)
        )
        assert piece.sizes[0] == 1 and piece.sizes[-1] == 128

    def test_from_curve_rejects_bad_max(self):
        with pytest.raises(ValueError):
            CurveSlice.from_curve(looping_curve(10), max_pages=0)


def make_snapshot(curves=None, classes=None):
    classes = classes if classes is not None else (
        ClassState(
            context_key="app/hot",
            app="app",
            pool="srv1:engine",
            placement=("app-replica-0",),
            pressure=900.0,
            params=params(300, 200),
        ),
        ClassState(
            context_key="app/warm",
            app="app",
            pool="srv1:engine",
            placement=("app-replica-0",),
            pressure=90.0,
            params=params(100, 80),
        ),
        ClassState(
            context_key="app/cold",
            app="app",
            pool="srv1:engine",
            placement=("app-replica-0",),
            pressure=10.0,
        ),
    )
    return ClusterSnapshot(
        interval_index=5,
        interval_length=30.0,
        apps=(
            AppState(
                app="app",
                sla_latency=1.0,
                sla_met=False,
                violation_streak=2,
                mean_latency=1.7,
                throughput=40.0,
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
                classes=("app/cold", "app/hot", "app/warm"),
            ),
        ),
        classes=classes,
        idle_servers=("spare-1",),
        io_time_per_page=0.01,
        curves=curves if curves is not None else {},
    )


class TestClusterSnapshot:
    def test_rejects_duplicate_context_keys(self):
        dup = ClassState(
            context_key="app/hot",
            app="app",
            pool="srv1:engine",
            placement=(),
            pressure=1.0,
        )
        with pytest.raises(ValueError):
            make_snapshot(classes=(dup, dup))

    def test_lookups(self):
        snapshot = make_snapshot()
        assert snapshot.app_state("app").violation_streak == 2
        assert snapshot.pool("srv1:engine").pool_pages == 4096
        assert snapshot.class_state("app/hot").pressure == 900.0

    def test_lookups_raise_on_unknown_names(self):
        snapshot = make_snapshot()
        with pytest.raises(KeyError):
            snapshot.app_state("ghost")
        with pytest.raises(KeyError):
            snapshot.pool("ghost")
        with pytest.raises(KeyError):
            snapshot.class_state("ghost")

    def test_suspect_statuses(self):
        base = make_snapshot().classes[0]
        for status, suspect in (
            ("new", True),
            ("changed", True),
            ("unchanged", False),
            ("stable", False),
        ):
            state = ClassState(
                context_key=base.context_key,
                app=base.app,
                pool=base.pool,
                placement=base.placement,
                pressure=base.pressure,
                status=status,
            )
            assert state.suspect is suspect


class TestWorkloadSummary:
    def test_top_k_by_pressure_with_coverage(self):
        curves = {
            "app/hot": looping_curve(300),
            "app/warm": looping_curve(100),
        }
        snapshot = make_snapshot(curves=curves)
        summary = WorkloadSummary.from_snapshot(snapshot, k=1)
        assert summary.top == ("app/hot",)
        assert summary.dropped == ("app/warm",)
        # hot carries 900 of the 1000 total pressure units.
        assert summary.coverage == pytest.approx(0.9)
        assert set(summary.slices) == {"app/hot"}
        assert summary.pressures == {"app/hot": 900.0}

    def test_classes_without_curves_never_ranked(self):
        snapshot = make_snapshot(curves={"app/warm": looping_curve(100)})
        summary = WorkloadSummary.from_snapshot(snapshot, k=8)
        # hot has 10x the pressure but no stored curve — unplannable.
        assert summary.top == ("app/warm",)
        assert summary.dropped == ()

    def test_slices_carry_the_mrc_knees(self):
        curves = {"app/hot": looping_curve(300)}
        snapshot = make_snapshot(curves=curves)
        summary = WorkloadSummary.from_snapshot(snapshot, k=4)
        piece = summary.slices["app/hot"]
        # The class's acceptable (200) and total (300) memory are sampled.
        assert 200 in piece.sizes
        assert 300 in piece.sizes
        assert piece.max_depth == 4096  # largest pool in the snapshot

    def test_empty_snapshot_summarises_empty(self):
        snapshot = make_snapshot(curves={})
        summary = WorkloadSummary.from_snapshot(snapshot, k=4)
        assert summary.top == ()
        assert summary.coverage == 0.0
