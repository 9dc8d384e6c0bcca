"""Unit tests for the predictive-enforcement subsystem (repro.forecast).

Covers the Holt forecaster recurrences, the act-ahead policy's four gates
(confidence, hysteresis, cooldown, false-positive budget) and the token
economy around them (refund on hit, forfeit on a clean window, refund on
an empty plan), the engine's record bookkeeping, the predicted-snapshot
projection, and the forecast JSONL export.
"""

import json

import pytest

from repro.forecast import (
    ActAheadPolicy,
    AppObservation,
    ClassObservation,
    ForecastConfig,
    ForecastEngine,
    ForecastRecord,
    HoltSeries,
    PolicyConfig,
    predicted_snapshot,
    resolve_records,
    score_forecasts,
)
from repro.planner.model import (
    AppState,
    ClassState,
    ClusterSnapshot,
    PoolState,
)


def make_snapshot() -> ClusterSnapshot:
    return ClusterSnapshot(
        interval_index=5,
        interval_length=10.0,
        apps=(
            AppState(
                app="tpcw",
                sla_latency=0.45,
                sla_met=True,
                violation_streak=0,
                mean_latency=0.2,
                throughput=50.0,
                replicas=("tpcw-0",),
            ),
        ),
        pools=(
            PoolState(
                engine="engine-0",
                server="server-0",
                pool_pages=8192,
                online=True,
                quotas=(),
                replicas=(("tpcw", "tpcw-0"),),
                classes=("tpcw/best_seller",),
            ),
        ),
        classes=(
            ClassState(
                context_key="tpcw/best_seller",
                app="tpcw",
                pool="engine-0",
                placement=("tpcw-0",),
                pressure=100.0,
            ),
        ),
        idle_servers=(),
        io_time_per_page=0.001,
    )


class TestHoltSeries:
    def test_horizon_zero_is_last_raw_observation(self):
        series = HoltSeries()
        for value in (1.0, 5.0, 3.0):
            series.observe(value)
        assert series.forecast(0) == 3.0

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            HoltSeries().forecast(-1)

    def test_unobserved_series_forecasts_zero(self):
        assert HoltSeries().forecast(3) == 0.0

    def test_constant_series_forecasts_the_constant(self):
        series = HoltSeries()
        for _ in range(20):
            series.observe(2.5)
        assert series.forecast(4) == pytest.approx(2.5)
        assert series.trend == pytest.approx(0.0)

    def test_linear_ramp_extrapolates_upward(self):
        series = HoltSeries()
        for step in range(20):
            series.observe(1.0 + 0.5 * step)
        assert series.forecast(2) > series.forecast(1) > series.last

    def test_forecast_floored_at_zero(self):
        series = HoltSeries()
        for value in (10.0, 5.0, 1.0):
            series.observe(value)
        assert series.forecast(50) == 0.0

    def test_confidence_zero_until_min_observations(self):
        series = HoltSeries()
        series.observe(1.0)
        series.observe(1.0)
        assert series.confidence(min_observations=3) == 0.0
        series.observe(1.0)
        assert series.confidence(min_observations=3) > 0.0

    def test_confidence_perfect_on_noiseless_series(self):
        series = HoltSeries()
        for _ in range(10):
            series.observe(4.0)
        assert series.confidence() == pytest.approx(1.0)

    def test_noisy_series_less_confident_than_steady(self):
        steady, noisy = HoltSeries(), HoltSeries()
        for step in range(12):
            steady.observe(3.0)
            noisy.observe(3.0 + (2.0 if step % 2 else -2.0))
        assert noisy.confidence() < steady.confidence()


class TestForecastConfig:
    def test_rejects_zero_horizon(self):
        with pytest.raises(ValueError):
            ForecastConfig(horizon=0)

    def test_rejects_out_of_range_smoothing(self):
        with pytest.raises(ValueError):
            ForecastConfig(alpha=0.0)
        with pytest.raises(ValueError):
            ForecastConfig(beta=1.5)


def decide(policy, interval, latency=1.0, sla=0.5, confidence=0.9):
    return policy.decide(
        app="tpcw",
        interval=interval,
        horizon=2,
        predicted_latency=latency,
        sla_latency=sla,
        confidence=confidence,
    )


class TestActAheadPolicy:
    def test_no_predicted_violation_never_acts(self):
        policy = ActAheadPolicy()
        decision = decide(policy, 1, latency=0.4, sla=0.5)
        assert not decision.act
        assert decision.reason == "no-violation"

    def test_margin_scales_the_threshold(self):
        eager = ActAheadPolicy(PolicyConfig(margin=0.5))
        assert decide(eager, 1, latency=0.3, sla=0.5).act

    def test_low_confidence_defers_and_resets_streak(self):
        policy = ActAheadPolicy(PolicyConfig(confirm_intervals=2))
        decide(policy, 1)  # hysteresis credit 1
        cold = decide(policy, 2, confidence=0.1)
        assert cold.reason == "low-confidence"
        # The streak restarted: the next confident violation is credit 1
        # again, not the confirming second.
        assert decide(policy, 3).reason == "hysteresis"

    def test_hysteresis_requires_consecutive_violations(self):
        policy = ActAheadPolicy(PolicyConfig(confirm_intervals=3))
        assert decide(policy, 1).reason == "hysteresis"
        assert decide(policy, 2).reason == "hysteresis"
        assert decide(policy, 3).act

    def test_clean_interval_resets_hysteresis(self):
        policy = ActAheadPolicy(PolicyConfig(confirm_intervals=2))
        decide(policy, 1)
        decide(policy, 2, latency=0.1)  # forecast cleared: streak reset
        assert decide(policy, 3).reason == "hysteresis"

    def test_cooldown_sits_out_after_acting(self):
        policy = ActAheadPolicy(PolicyConfig(cooldown_intervals=2))
        assert decide(policy, 1).act
        assert decide(policy, 2).reason == "cooldown"
        assert decide(policy, 3).reason == "cooldown"
        assert decide(policy, 4).act

    def test_budget_exhaustion_suspends_acting(self):
        policy = ActAheadPolicy(
            PolicyConfig(false_positive_budget=1, cooldown_intervals=0)
        )
        assert decide(policy, 1).act
        assert policy.budget == 0
        assert decide(policy, 2).reason == "budget-exhausted"

    def test_hit_refunds_the_token(self):
        policy = ActAheadPolicy(
            PolicyConfig(false_positive_budget=1, cooldown_intervals=0)
        )
        decide(policy, 1)  # acts; window is (1, 3]
        outcomes = policy.resolve("tpcw", 2, violated=True)
        assert outcomes == ["hit"]
        assert policy.budget == 1
        assert decide(policy, 3).act  # predictive action restored

    def test_clean_window_forfeits_the_token(self):
        policy = ActAheadPolicy(
            PolicyConfig(false_positive_budget=2, cooldown_intervals=0)
        )
        decide(policy, 1)  # window (1, 3]
        assert policy.resolve("tpcw", 2, violated=False) == []
        assert policy.resolve("tpcw", 3, violated=False) == ["false_alarm"]
        assert policy.budget == 1
        assert policy.stats()["false_positives"] == 1

    def test_empty_plan_refund_restores_budget_and_cooldown(self):
        policy = ActAheadPolicy(
            PolicyConfig(false_positive_budget=1, cooldown_intervals=5)
        )
        decide(policy, 1)
        policy.refund("tpcw", 1)
        assert policy.budget == 1
        assert policy.stats()["pending"] == 0
        # Nothing was applied, so no cooldown either.
        assert decide(policy, 2).act

    def test_refund_never_exceeds_the_configured_budget(self):
        policy = ActAheadPolicy(PolicyConfig(false_positive_budget=2))
        policy.refund("tpcw", 99)  # no matching act: a plain credit
        assert policy.budget == 2


class TestForecastEngine:
    def observe(self, engine, interval, latency, violated=False):
        engine.observe_interval(
            interval,
            [
                AppObservation(
                    app="tpcw",
                    mean_latency=latency,
                    throughput=40.0,
                    sla_latency=0.5,
                    violated=violated,
                )
            ],
            [
                ClassObservation(
                    context_key="tpcw/best_seller",
                    miss_ratio=0.1,
                    pressure=100.0,
                    arrival_rate=40.0,
                )
            ],
        )

    def test_never_observed_app_is_low_confidence(self):
        engine = ForecastEngine()
        decision, forecast = engine.consider("ghost", 1)
        assert not decision.act
        assert decision.reason == "low-confidence"
        assert forecast is None
        assert engine.records[-1].decision == "low-confidence"

    def test_ramp_triggers_an_act_and_a_pending_record(self):
        engine = ForecastEngine()
        for interval, latency in enumerate((0.1, 0.2, 0.3, 0.4, 0.5)):
            self.observe(engine, interval, latency)
        decision, forecast = engine.consider("tpcw", 4)
        assert decision.act
        assert forecast is not None
        assert forecast.mean_latency > 0.5
        record = engine.records[-1]
        assert record.acted and record.outcome == "pending"

    def test_resolution_stamps_the_pending_record(self):
        engine = ForecastEngine()
        for interval, latency in enumerate((0.1, 0.2, 0.3, 0.4, 0.5)):
            self.observe(engine, interval, latency)
        engine.consider("tpcw", 4)
        self.observe(engine, 5, 0.9, violated=True)
        assert engine.records[-1].outcome == "hit"
        assert engine.stats()["hits"] == 1

    def test_note_empty_plan_demotes_the_record(self):
        engine = ForecastEngine()
        for interval, latency in enumerate((0.1, 0.2, 0.3, 0.4, 0.5)):
            self.observe(engine, interval, latency)
        engine.consider("tpcw", 4)
        engine.note_empty_plan("tpcw", 4)
        record = engine.records[-1]
        assert not record.acted
        assert record.decision == "empty-plan"
        stats = engine.stats()
        assert stats["empty_plans"] == 1
        assert stats["acted"] == 0
        assert stats["budget_remaining"] == 3

    def test_stats_keys_are_stable(self):
        assert sorted(ForecastEngine().stats()) == [
            "acted", "budget_remaining", "decisions", "empty_plans",
            "false_alarms", "hits", "pending", "plans_applied",
            "scale_outs",
        ]


class TestResolveRecords:
    def record(self, interval, acted=True, outcome="pending"):
        return ForecastRecord(
            interval=interval,
            app="tpcw",
            horizon=2,
            predicted_latency=1.0,
            threshold=0.5,
            confidence=0.9,
            decision="act" if acted else "no-violation",
            acted=acted,
            outcome=outcome,
        )

    def test_oldest_pending_record_resolves_first(self):
        records = [self.record(1), self.record(3)]
        resolve_records(records, "tpcw", 4, "hit")
        assert records[0].outcome == "hit"
        assert records[1].outcome == "pending"

    def test_only_records_fired_before_the_interval_resolve(self):
        records = [self.record(5)]
        resolve_records(records, "tpcw", 5, "hit")
        assert records[0].outcome == "pending"

    def test_non_acting_records_never_resolve(self):
        records = [self.record(1, acted=False, outcome="none")]
        resolve_records(records, "tpcw", 4, "hit")
        assert records[0].outcome == "none"


class TestScoreForecasts:
    def test_intervals_avoided_is_the_sla_diff(self):
        score = score_forecasts(
            [],
            reactive_sla=[True, False, False, True],
            predictive_sla=[True, False, True, True],
        )
        assert score.violations_reactive == 2
        assert score.violations_predictive == 1
        assert score.intervals_avoided == 1


class TestPredictedSnapshot:
    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            predicted_snapshot(make_snapshot(), -1)

    def test_horizon_zero_is_identity(self):
        snapshot = make_snapshot()
        assert predicted_snapshot(snapshot, 0) is snapshot

    def test_unforecasted_entries_carry_over(self):
        snapshot = make_snapshot()
        predicted = predicted_snapshot(snapshot, 2)
        assert predicted.interval_index == snapshot.interval_index + 2
        assert predicted.apps == snapshot.apps
        assert predicted.classes == snapshot.classes

    def test_projection_applies_app_and_class_forecasts(self):
        engine = ForecastEngine(ForecastConfig(horizon=2))
        for interval, latency in enumerate((0.2, 0.4, 0.6, 0.8)):
            engine.observe_interval(
                interval,
                [
                    AppObservation(
                        app="tpcw",
                        mean_latency=latency,
                        throughput=40.0,
                        sla_latency=0.45,
                        violated=False,
                    )
                ],
                [
                    ClassObservation(
                        context_key="tpcw/best_seller",
                        miss_ratio=0.1,
                        pressure=100.0 + 50.0 * interval,
                        arrival_rate=40.0,
                    )
                ],
            )
        snapshot = make_snapshot()
        predicted = predicted_snapshot(
            snapshot, 2, engine.app_forecasts(), engine.class_forecasts()
        )
        app = predicted.app_state("tpcw")
        assert app.mean_latency > snapshot.app_state("tpcw").mean_latency
        assert not app.sla_met
        assert app.violation_streak >= 1
        assert predicted.classes[0].pressure > snapshot.classes[0].pressure


class TestForecastExport:
    def test_jsonl_round_trips_through_obs_report(self, tmp_path):
        from repro.forecast.score import forecast_records
        from repro.obs import write_records
        from repro.obs.report import TelemetrySummary

        records = [
            ForecastRecord(
                interval=4,
                app="tpcw",
                horizon=2,
                predicted_latency=0.61234567,
                threshold=0.45,
                confidence=0.78,
                decision="act",
                acted=True,
                outcome="hit",
            )
        ]
        path = write_records(
            tmp_path / "forecast.jsonl",
            [{"record": "meta", "scenario": "t"}, *forecast_records(records)],
        )
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["record"] == "meta"
        parsed = json.loads(lines[1])
        assert parsed["record"] == "forecast"
        assert parsed["predicted_latency"] == 0.612346  # rounded to 6
        summary = TelemetrySummary.from_lines(lines)
        assert len(summary.records["forecast"]) == 1
        rendered = summary.render()
        assert "Forecast decisions" in rendered
        assert "1 hits, 0 false alarms" in rendered

    def test_report_without_forecasts_renders_no_section(self):
        from repro.obs.report import TelemetrySummary

        summary = TelemetrySummary.from_lines(
            ['{"record": "meta", "scenario": "t"}']
        )
        assert "Forecast decisions" not in summary.render()
