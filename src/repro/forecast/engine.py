"""The forecast engine: per-cluster state behind ``use_forecast``.

One :class:`ForecastEngine` lives on the controller when predictive
enforcement is enabled.  Each interval the controller feeds it the closed
measurements (:meth:`observe_interval`) — app latency/throughput plus
per-class miss ratio, pressure and arrival rate aggregated across the
analyzers — and then, for every application currently *meeting* its SLA,
asks :meth:`consider` whether the act-ahead policy wants to fire the
planner.  Violating applications never reach the engine: they stay on the
classic reactive path, which remains armed behind the forecast at all
times (the confidence/fallback contract).

Every decision becomes a :class:`~repro.forecast.score.ForecastRecord`;
act-ahead records are resolved to ``hit``/``false_alarm`` when their
prediction window closes, and an act whose plan turned out empty is
demoted on the spot (the policy refunds its token — nothing was risked).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import (
    AppForecast,
    AppForecaster,
    ClassForecast,
    ClassForecaster,
    ForecastConfig,
)
from .policy import ActAheadPolicy, Decision, PolicyConfig
from .score import ForecastRecord, resolve_records

__all__ = ["AppObservation", "ClassObservation", "ForecastEngine"]


@dataclass(frozen=True)
class AppObservation:
    """One application's closed-interval measurements."""

    app: str
    mean_latency: float
    throughput: float
    sla_latency: float
    violated: bool


@dataclass(frozen=True)
class ClassObservation:
    """One query class's closed-interval measurements (cluster-wide)."""

    context_key: str
    miss_ratio: float
    pressure: float
    arrival_rate: float


class ForecastEngine:
    """Forecasters + act-ahead policy + the decision record stream."""

    def __init__(
        self,
        config: ForecastConfig | None = None,
        policy: PolicyConfig | None = None,
    ) -> None:
        self.config = config if config is not None else ForecastConfig()
        self.policy = ActAheadPolicy(policy)
        self.apps: dict[str, AppForecaster] = {}
        self.classes: dict[str, ClassForecaster] = {}
        self.records: list[ForecastRecord] = []
        self.sla_latencies: dict[str, float] = {}
        self.plans_applied = 0
        self.empty_plans = 0
        self.scale_outs = 0

    # ------------------------------------------------------------------ #
    # Observation                                                        #
    # ------------------------------------------------------------------ #

    def observe_interval(
        self,
        interval: int,
        app_observations: list[AppObservation],
        class_observations: list[ClassObservation],
    ) -> None:
        """Feed one closed interval; resolves due act-ahead predictions."""
        for obs in app_observations:
            self.sla_latencies[obs.app] = obs.sla_latency
            forecaster = self.apps.get(obs.app)
            if forecaster is None:
                forecaster = AppForecaster(obs.app, self.config)
                self.apps[obs.app] = forecaster
            forecaster.observe(obs.mean_latency, obs.throughput)
            for outcome in self.policy.resolve(
                obs.app, interval, obs.violated
            ):
                resolve_records(self.records, obs.app, interval, outcome)
        for obs in class_observations:
            forecaster = self.classes.get(obs.context_key)
            if forecaster is None:
                forecaster = ClassForecaster(obs.context_key, self.config)
                self.classes[obs.context_key] = forecaster
            forecaster.observe(obs.miss_ratio, obs.pressure, obs.arrival_rate)

    # ------------------------------------------------------------------ #
    # Forecasting + deciding                                             #
    # ------------------------------------------------------------------ #

    def app_forecasts(self) -> dict[str, AppForecast]:
        return {
            app: forecaster.forecast()
            for app, forecaster in sorted(self.apps.items())
        }

    def class_forecasts(self) -> dict[str, ClassForecast]:
        return {
            key: forecaster.forecast()
            for key, forecaster in sorted(self.classes.items())
        }

    def consider(
        self, app: str, interval: int
    ) -> tuple[Decision, AppForecast | None]:
        """Gate ``app``'s forecast through the act-ahead policy and record
        the decision.  Returns ``(decision, forecast)``; a never-observed
        app yields a non-acting ``low-confidence`` decision."""
        forecaster = self.apps.get(app)
        sla_latency = self.sla_latencies.get(app, 0.0)
        if forecaster is None or sla_latency <= 0:
            decision = Decision(
                app=app,
                interval=interval,
                act=False,
                reason="low-confidence",
            )
            self._record(decision)
            return decision, None
        forecast = forecaster.forecast()
        decision = self.policy.decide(
            app=app,
            interval=interval,
            horizon=forecast.horizon,
            predicted_latency=forecast.mean_latency,
            sla_latency=sla_latency,
            confidence=forecast.confidence,
        )
        self._record(decision, forecast.horizon)
        return decision, forecast

    def note_empty_plan(self, app: str, interval: int) -> None:
        """An act-ahead fired but the planner found no improving move:
        refund the token and demote the record — no action was applied, so
        the act cannot thrash the cluster or spend the budget."""
        self.empty_plans += 1
        self.policy.refund(app, interval)
        for index in range(len(self.records) - 1, -1, -1):
            record = self.records[index]
            if record.app == app and record.interval == interval:
                self.records[index] = replace(
                    record, acted=False, decision="empty-plan", outcome="none"
                )
                break

    def note_plan_applied(self) -> None:
        self.plans_applied += 1

    def note_scale_out(self) -> None:
        """An act-ahead provisioned a replica directly (the planner had no
        fine-grained move for the predicted snapshot)."""
        self.scale_outs += 1

    def _record(self, decision: Decision, horizon: int | None = None) -> None:
        self.records.append(
            ForecastRecord(
                interval=decision.interval,
                app=decision.app,
                horizon=(
                    horizon if horizon is not None else self.config.horizon
                ),
                predicted_latency=decision.predicted_latency,
                threshold=decision.threshold,
                confidence=decision.confidence,
                decision=decision.reason,
                acted=decision.act,
                seed=self.config.seed,
                outcome="pending" if decision.act else "none",
            )
        )

    # ------------------------------------------------------------------ #
    # Reporting                                                          #
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """JSON-able engine counters (the ``forecast_eval`` artefact's source)."""
        acted = [r for r in self.records if r.acted]
        return {
            "decisions": len(self.records),
            "acted": len(acted),
            "plans_applied": self.plans_applied,
            "empty_plans": self.empty_plans,
            "scale_outs": self.scale_outs,
            "hits": sum(1 for r in acted if r.outcome == "hit"),
            "false_alarms": sum(
                1 for r in acted if r.outcome == "false_alarm"
            ),
            "pending": sum(1 for r in acted if r.outcome == "pending"),
            "budget_remaining": self.policy.budget,
        }
