"""Unit tests for the what-if quota advisor, one pool at a time."""

import pytest

from repro.core.advisor import PoolAssignment, assess_pool
from repro.core.mrc import MissRatioCurve
from repro.core.quota import find_quotas


def looping_curve(pages: int, repeats: int = 30) -> MissRatioCurve:
    """A working set of ``pages`` re-read ``repeats`` times: the curve steps
    from ~1.0 below the working-set size to ~cold-only at or above it."""
    trace = list(range(pages)) * repeats
    return MissRatioCurve.from_trace(trace)


def predict_miss_ratios(curves, quotas, pool_pages):
    """Predicted miss ratio of each class in one pool under ``quotas``."""
    assessment = assess_pool(
        PoolAssignment("pool", pool_pages, curves=curves, quotas=quotas)
    )
    return {
        key: prediction.predicted_miss_ratio
        for key, prediction in assessment.predictions.items()
    }


def assess(curves, parameters, quotas, pool_pages):
    return assess_pool(
        PoolAssignment(
            "pool", pool_pages, curves=curves, parameters=parameters, quotas=quotas
        )
    )


def failing(assessment):
    """Classes predicted above their acceptable miss ratio."""
    return sorted(
        key
        for key, prediction in assessment.predictions.items()
        if prediction.predicted_miss_ratio > prediction.acceptable_miss_ratio + 1e-9
    )


class TestPredictMissRatios:
    def test_quota_d_class_uses_its_quota(self):
        curves = {"hog": looping_curve(100)}
        predicted = predict_miss_ratios(curves, {"hog": 100}, pool_pages=200)
        assert predicted["hog"] < 0.1

    def test_starved_quota_misses(self):
        curves = {"hog": looping_curve(100)}
        predicted = predict_miss_ratios(curves, {"hog": 50}, pool_pages=200)
        assert predicted["hog"] > 0.9

    def test_unquota_d_class_uses_shared_remainder(self):
        curves = {"hog": looping_curve(50), "rest": looping_curve(100)}
        # Pool 200, hog quota 120 -> shared is 80 < rest's working set.
        predicted = predict_miss_ratios(curves, {"hog": 120}, pool_pages=200)
        assert predicted["rest"] > 0.9
        # Pool 300 -> shared 180 holds the working set.
        predicted = predict_miss_ratios(curves, {"hog": 120}, pool_pages=300)
        assert predicted["rest"] < 0.1

    def test_rejects_overcommitted_quotas(self):
        curves = {"a": looping_curve(10)}
        with pytest.raises(ValueError):
            predict_miss_ratios(curves, {"a": 200}, pool_pages=200)

    def test_rejects_bad_pool(self):
        with pytest.raises(ValueError):
            predict_miss_ratios({}, {}, pool_pages=0)

    def test_rejects_a_quota_for_a_class_with_no_curve(self):
        # The quota would reserve 10 pages that no prediction accounts for.
        with pytest.raises(ValueError, match="ghost"):
            predict_miss_ratios({}, {"ghost": 10}, pool_pages=100)
        with pytest.raises(ValueError, match="ghost"):
            predict_miss_ratios(
                {"a": looping_curve(10)}, {"a": 20, "ghost": 10}, pool_pages=100
            )


class TestAssessPlan:
    def make_world(self, pool=400):
        curves = {"hog": looping_curve(150), "rest": looping_curve(100)}
        parameters = {
            key: curve.parameters(pool) for key, curve in curves.items()
        }
        return curves, parameters

    def test_good_plan_assessed_acceptable(self):
        pool = 400
        curves, parameters = self.make_world(pool)
        plan = find_quotas(
            {"hog": parameters["hog"]}, {"rest": parameters["rest"]}, pool
        )
        assessment = assess(curves, parameters, plan.quotas, pool)
        assert failing(assessment) == []

    def test_starving_plan_flagged(self):
        pool = 400
        curves, parameters = self.make_world(pool)
        assessment = assess(curves, parameters, {"hog": 30}, pool)
        assert failing(assessment) == ["hog"]

    def test_prediction_details_exposed(self):
        pool = 400
        curves, parameters = self.make_world(pool)
        assessment = assess(curves, parameters, {"hog": 160}, pool)
        hog = assessment.predictions["hog"]
        assert hog.memory_pages == 160
        assert 0.0 <= hog.predicted_miss_ratio <= 1.0
        rest = assessment.predictions["rest"]
        assert rest.memory_pages == 240  # the shared remainder

    def test_quota_search_plans_keep_their_promise(self):
        """The paper's claim, verified: at the searched quotas every class is
        predicted to run at or below its acceptable miss ratio."""
        pool = 500
        curves = {
            "a": looping_curve(120),
            "b": looping_curve(180),
            "rest": looping_curve(90),
        }
        parameters = {k: c.parameters(pool) for k, c in curves.items()}
        plan = find_quotas(
            {"a": parameters["a"], "b": parameters["b"]},
            {"rest": parameters["rest"]},
            pool,
        )
        assert plan.feasible
        assessment = assess(curves, parameters, plan.quotas, pool)
        assert failing(assessment) == []
        assert {
            key: prediction.memory_pages
            for key, prediction in assessment.predictions.items()
        } == {"a": 120, "b": 180, "rest": 200}
