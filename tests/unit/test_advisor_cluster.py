"""Unit tests for the cluster-scope advisor (the planner's scoring backend)."""

import pytest

from repro.core.advisor import (
    PoolAssignment,
    assess_cluster,
    assess_pool,
    shared_partition_pages,
)
from repro.core.mrc import MRCParameters


def predict_pool_miss_ratios(curves, quotas, pool_pages, demands=None, pressures=None):
    """Each class's predicted miss ratio in one pool, through
    :func:`assess_pool`."""
    assessment = assess_pool(
        PoolAssignment(
            "pool",
            pool_pages,
            curves=curves,
            quotas=quotas,
            demands=demands or {},
            pressures=pressures or {},
        )
    )
    return {
        key: prediction.predicted_miss_ratio
        for key, prediction in assessment.predictions.items()
    }


def meets_acceptable(prediction) -> bool:
    return prediction.predicted_miss_ratio <= prediction.acceptable_miss_ratio + 1e-9


def failing(assessment) -> list[str]:
    return sorted(
        key
        for key, prediction in assessment.predictions.items()
        if not meets_acceptable(prediction)
    )


class StepCurve:
    """Miss ratio 1.0 below the working set, ``floor`` at or above it.

    Carries ``max_depth`` so :func:`shared_partition_pages` can fall back to
    it as the class's demand — the same duck-typed surface the planner's
    ``CurveSlice`` summaries expose.
    """

    def __init__(self, working_set: int, floor: float = 0.05):
        self.max_depth = working_set
        self.floor = floor

    def miss_ratio(self, pages: int) -> float:
        return self.floor if pages >= self.max_depth else 1.0


def params(acceptable_miss: float = 0.15) -> MRCParameters:
    return MRCParameters(
        total_memory=100,
        ideal_miss_ratio=0.05,
        acceptable_memory=50,
        acceptable_miss_ratio=acceptable_miss,
    )


class TestSharedPartitionPages:
    def test_fitting_sharers_see_the_full_remainder(self):
        # Combined demand 60 + 30 fits the 100-page remainder: the paper's
        # optimistic approximation applies and both see all 100 pages.
        curves = {"a": StepCurve(60), "b": StepCurve(30)}
        slices = shared_partition_pages(curves, {}, pool_pages=100)
        assert slices == {"a": 100, "b": 100}

    def test_overcommit_splits_by_pressure(self):
        curves = {"a": StepCurve(80), "b": StepCurve(80)}
        slices = shared_partition_pages(
            curves,
            {},
            pool_pages=100,
            demands={"a": 80, "b": 80},
            pressures={"a": 3.0, "b": 1.0},
        )
        assert slices == {"a": 75, "b": 25}

    def test_slices_capped_at_demand(self):
        # "a" has overwhelming pressure but only wants 30 pages; the cap
        # keeps the pessimism honest (you cannot profit from pages beyond
        # your working set) and every sharer keeps at least one page.
        curves = {"a": StepCurve(30), "b": StepCurve(80)}
        slices = shared_partition_pages(
            curves,
            {},
            pool_pages=100,
            demands={"a": 30, "b": 80},
            pressures={"a": 100.0, "b": 1.0},
        )
        assert slices["a"] == 30
        assert slices["b"] >= 1

    def test_no_pressure_falls_back_to_demand_weights(self):
        curves = {"a": StepCurve(90), "b": StepCurve(30)}
        slices = shared_partition_pages(
            curves, {}, pool_pages=100, demands={"a": 90, "b": 30}
        )
        # 120 pages wanted of 100: split 3:1 by demand.
        assert slices == {"a": 75, "b": 25}

    def test_extra_demand_shrinks_the_scored_budget(self):
        # Alone, "a" (60 pages) fits the pool outright; 60 pages of
        # unsummarised resident demand push the pool into overcommit and
        # halve the budget the scored sharer competes for.
        curves = {"a": StepCurve(60)}
        alone = shared_partition_pages(
            curves, {}, pool_pages=100, demands={"a": 60}
        )
        crowded = shared_partition_pages(
            curves, {}, pool_pages=100, demands={"a": 60}, extra_demand=60
        )
        assert alone == {"a": 100}
        assert crowded == {"a": 50}

    def test_demand_falls_back_to_curve_depth(self):
        # No explicit demands: the curve's max_depth stands in, capped at
        # the shared remainder.
        curves = {"a": StepCurve(70), "b": StepCurve(70)}
        slices = shared_partition_pages(curves, {}, pool_pages=100)
        # 70 + 70 overcommits 100; equal depths -> equal 50/50 split.
        assert slices == {"a": 50, "b": 50}

    def test_quota_d_classes_are_not_sharers(self):
        curves = {"hog": StepCurve(40), "a": StepCurve(50)}
        slices = shared_partition_pages(curves, {"hog": 40}, pool_pages=100)
        assert "hog" not in slices
        assert slices == {"a": 60}

    def test_no_sharers_yields_empty(self):
        assert shared_partition_pages({"hog": StepCurve(10)}, {"hog": 10}, 100) == {}

    def test_rejects_bad_pool(self):
        with pytest.raises(ValueError):
            shared_partition_pages({}, {}, pool_pages=0)

    def test_rejects_quotas_consuming_the_pool(self):
        with pytest.raises(ValueError):
            shared_partition_pages(
                {"a": StepCurve(10)}, {"a": 100}, pool_pages=100
            )


class TestPredictPoolMissRatios:
    def test_quota_exact_sharers_sliced(self):
        curves = {
            "hog": StepCurve(40),
            "a": StepCurve(50),
            "b": StepCurve(50),
        }
        predicted = predict_pool_miss_ratios(
            curves,
            {"hog": 40},
            pool_pages=100,
            demands={"a": 50, "b": 50},
            pressures={"a": 1.0, "b": 1.0},
        )
        # hog meets its working set inside its quota; the sharers' 100
        # combined pages overcommit the 60-page remainder, so each gets a
        # 30-page slice and misses.
        assert predicted["hog"] == pytest.approx(0.05)
        assert predicted["a"] == 1.0
        assert predicted["b"] == 1.0

    def test_contention_signal_vs_optimistic_model(self):
        # The same arrangement the single-server advisor would call fine:
        # each sharer alone fits the remainder, together they do not.
        curves = {"a": StepCurve(50), "b": StepCurve(50)}
        predicted = predict_pool_miss_ratios(
            curves, {}, pool_pages=80, demands={"a": 50, "b": 50}
        )
        assert all(ratio == 1.0 for ratio in predicted.values())


class TestAssessPool:
    def test_verdict_tracks_acceptable_ratios(self):
        assignment = PoolAssignment(
            pool="srv1:pool",
            pool_pages=100,
            curves={"good": StepCurve(40), "bad": StepCurve(300)},
            parameters={"good": params(0.15), "bad": params(0.15)},
            demands={"good": 40, "bad": 300},
            pressures={"good": 100.0, "bad": 1.0},
        )
        verdict = assess_pool(assignment)
        assert failing(verdict) == ["bad"]
        assert meets_acceptable(verdict.predictions["good"])

    def test_missing_parameters_default_to_lenient(self):
        assignment = PoolAssignment(
            pool="srv1:pool",
            pool_pages=100,
            curves={"mystery": StepCurve(500)},
        )
        verdict = assess_pool(assignment)
        # Acceptable ratio defaults to 1.0: an unparameterised class can
        # never be the reason a pool is judged failing.
        assert verdict.predictions["mystery"].acceptable_miss_ratio == 1.0
        assert failing(verdict) == []

    def test_memory_pages_reflect_quota_or_slice(self):
        assignment = PoolAssignment(
            pool="srv1:pool",
            pool_pages=100,
            curves={"hog": StepCurve(40), "a": StepCurve(30)},
            quotas={"hog": 40},
            demands={"a": 30},
        )
        verdict = assess_pool(assignment)
        assert verdict.predictions["hog"].memory_pages == 40
        assert verdict.predictions["a"].memory_pages == 60  # the remainder


class TestAssessCluster:
    def make_assignments(self):
        return {
            "srv1:pool": PoolAssignment(
                pool="srv1:pool",
                pool_pages=100,
                curves={"a": StepCurve(40)},
                parameters={"a": params()},
                demands={"a": 40},
            ),
            "srv2:pool": PoolAssignment(
                pool="srv2:pool",
                pool_pages=100,
                curves={"b": StepCurve(300)},
                parameters={"b": params()},
                demands={"b": 300},
            ),
        }

    def test_failing_names_pool_and_context(self):
        verdict = assess_cluster(self.make_assignments())
        assert [
            (pool, key)
            for pool, assessment in verdict.pools.items()
            for key in failing(assessment)
        ] == [("srv2:pool", "b")]

    def test_prediction_lookup_spans_pools(self):
        verdict = assess_cluster(self.make_assignments())
        assert meets_acceptable(verdict.prediction_of("a"))
        assert not meets_acceptable(verdict.prediction_of("b"))
        assert verdict.prediction_of("ghost") is None
