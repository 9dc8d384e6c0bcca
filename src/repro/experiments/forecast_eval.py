"""Reactive vs predictive SLA enforcement, head to head.

Two scenarios with forecastable trouble run twice each — once with the
classic reactive controller, once with ``ControllerConfig.use_forecast`` —
and the SLA timelines are diffed:

* **flash_crowd** — the workload-zoo popularity surge.  The burst itself
  is a step (unforecastable), but the violation *persists* for several
  intervals, and the predictive controller forecasts that persistence and
  escalates straight to the capacity planner instead of waiting out the
  reactive patience ladder.
* **chaos_ramp** — the chaos failover story with a harsher, longer I/O
  slowdown that ramps latency toward the SLA over several intervals.  The
  act-ahead policy sees the trend, the planner has no fine-grained move
  (the pressure is I/O cost, not miss ratio), so the controller scales
  out ahead of the breach — the PerfEnforce move.

``intervals_avoided`` (reactive violations − predictive violations) is
the paper-level win the bench artefact pins, alongside the act-ahead
bookkeeping (hits, false alarms, remaining budget) so thrash regressions
surface as artefact drift.

A third, frozen copy of the flash-crowd scenario provides the honesty
check: the controller monitors without reacting until just after the
burst lands, the forecaster's predicted snapshot is planned against, and
the plan is replayed through the existing what-if validator
(:func:`repro.planner.validate_plan`) against a fresh rebuild — the
predicted-vs-simulated miss-ratio error is part of the artefact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.controller import ControllerConfig
from ..forecast import (
    ForecastRecord,
    ForecastScore,
    predicted_snapshot,
    score_forecasts,
    validation_summary,
)
from ..obs import NULL_OBS, Observability
from ..planner import (
    CapacityPlan,
    PlannerConfig,
    PlanValidation,
    build_snapshot,
    search_plan,
    validate_plan,
)
from ..workloads.zoo import build_zoo_scenario
from .chaos import ChaosConfig, run_chaos
from .planner_sweep import _NEVER_REACT
from .zoo import _build_harness as _build_zoo_harness
from .zoo import run_zoo

__all__ = [
    "ForecastEvalConfig",
    "ScenarioOutcome",
    "ForecastEvalResult",
    "run_forecast_eval",
    "forecast_planning_scenario",
    "forecast_eval_artefact",
]


@dataclass(frozen=True)
class ForecastEvalConfig:
    """Tunables of the reactive-vs-predictive comparison."""

    seed: int = 7
    horizon: int = 2
    margin: float = 0.9
    """Act-ahead margin for both scenarios: fire when the forecast crosses
    90% of the SLA (slightly eager, paid for out of the FP budget)."""
    zoo_scenario: str = "flash_crowd"
    # The chaos variant: more clients and a longer, harsher I/O slowdown
    # than the stock failover story, so latency *ramps* into violation and
    # a trend forecaster has runway.  The stock BENCH_chaos_failover
    # scenario is untouched.
    chaos_clients: int = 110
    chaos_slowdown_at: float = 60.0
    chaos_slowdown_factor: float = 6.0
    chaos_slowdown_duration: float = 100.0
    # The frozen planning copy for validation: monitor-only until just
    # after the flash crowd lands, then snapshot/predict/plan/validate.
    planning_intervals: int = 12
    warmup_intervals: int = 2
    measure_intervals: int = 4
    planner_seed: int = 0


@dataclass
class ScenarioOutcome:
    """One scenario's reactive-vs-predictive diff."""

    name: str
    app: str
    score: ForecastScore = field(default_factory=ForecastScore)
    stats: dict = field(default_factory=dict)
    records: list[ForecastRecord] = field(default_factory=list)
    sla_reactive: str = ""
    """SLA timeline, one char per interval: ``.`` met, ``X`` violated."""
    sla_predictive: str = ""


@dataclass
class ForecastEvalResult:
    """Everything the eval produced (the bench artefact's source)."""

    config: ForecastEvalConfig
    outcomes: list[ScenarioOutcome] = field(default_factory=list)
    plan: CapacityPlan | None = None
    validation: PlanValidation | None = None

    @property
    def total_intervals_avoided(self) -> int:
        return sum(o.score.intervals_avoided for o in self.outcomes)

    def records(self) -> list[ForecastRecord]:
        """Every scenario's forecast records, in scenario order."""
        return [record for o in self.outcomes for record in o.records]


def _sla_string(series: list[bool]) -> str:
    return "".join("." if met else "X" for met in series)


def _predictive_config(
    config: ForecastEvalConfig, **overrides
) -> ControllerConfig:
    return ControllerConfig(
        use_forecast=True,
        forecast_horizon=config.horizon,
        planner_seed=config.planner_seed,
        forecast_margin=config.margin,
        **overrides,
    )


def _eval_zoo(
    config: ForecastEvalConfig, obs: Observability
) -> ScenarioOutcome:
    scenario = build_zoo_scenario(config.zoo_scenario, seed=config.seed)
    app = scenario.workloads[0].app
    reactive = run_zoo(config.zoo_scenario, seed=config.seed, obs=obs)
    predictive = run_zoo(
        config.zoo_scenario,
        seed=config.seed,
        obs=obs,
        config=_predictive_config(
            config, fallback_patience=scenario.fallback_patience
        ),
    )
    engine = predictive.forecaster
    outcome = ScenarioOutcome(name=config.zoo_scenario, app=app)
    outcome.records = list(engine.records)
    outcome.stats = engine.stats()
    outcome.sla_reactive = _sla_string(reactive.sla_series[app])
    outcome.sla_predictive = _sla_string(predictive.sla_series[app])
    outcome.score = score_forecasts(
        outcome.records, reactive.sla_series[app], predictive.sla_series[app]
    )
    return outcome


def _chaos_config(config: ForecastEvalConfig) -> ChaosConfig:
    return ChaosConfig(
        seed=config.seed,
        clients=config.chaos_clients,
        slowdown_at=config.chaos_slowdown_at,
        slowdown_factor=config.chaos_slowdown_factor,
        slowdown_duration=config.chaos_slowdown_duration,
    )


def _eval_chaos(
    config: ForecastEvalConfig, obs: Observability
) -> ScenarioOutcome:
    chaos = _chaos_config(config)
    reactive = run_chaos(chaos)
    predictive = run_chaos(
        chaos, controller_config=_predictive_config(config)
    )
    engine = predictive.forecaster
    outcome = ScenarioOutcome(name="chaos_ramp", app="tpcw")
    outcome.records = list(engine.records)
    outcome.stats = engine.stats()
    outcome.sla_reactive = _sla_string(reactive.sla_series)
    outcome.sla_predictive = _sla_string(predictive.sla_series)
    outcome.score = score_forecasts(
        outcome.records, reactive.sla_series, predictive.sla_series
    )
    return outcome


def forecast_planning_scenario(
    config: ForecastEvalConfig | None = None,
    obs: Observability = NULL_OBS,
):
    """The frozen planning point: the flash crowd has just landed, the
    controller has monitored (and the forecaster learned) but never
    reacted.  Deterministic, so the validator can fork by rebuilding."""
    config = config if config is not None else ForecastEvalConfig()
    scenario = build_zoo_scenario(config.zoo_scenario, seed=config.seed)
    controller_config = ControllerConfig(
        fallback_patience=scenario.fallback_patience,
        startup_grace_intervals=_NEVER_REACT,
        use_forecast=True,
        forecast_horizon=config.horizon,
        planner_seed=config.planner_seed,
        forecast_margin=config.margin,
    )
    from .index_drop import CPU_SCALE, scale_cpu_costs

    for workload in scenario.workloads:
        scale_cpu_costs(workload, CPU_SCALE)
    harness = _build_zoo_harness(scenario, obs, controller_config)
    for index, hook in scenario.hooks:
        harness.at_interval(index, hook)
    harness.run(intervals=config.planning_intervals)
    return harness


def _validate(
    config: ForecastEvalConfig, obs: Observability
) -> tuple[CapacityPlan, PlanValidation]:
    """Plan against the *predicted* snapshot at the planning point, then
    replay through the what-if validator against a fresh rebuild."""
    harness = forecast_planning_scenario(config, obs=obs)
    controller = harness.controller
    engine = controller.forecaster
    scenario = build_zoo_scenario(config.zoo_scenario, seed=config.seed)
    app = scenario.workloads[0].app
    snapshot = build_snapshot(controller, app=app, obs=obs)
    predicted = predicted_snapshot(
        snapshot,
        config.horizon,
        engine.app_forecasts(),
        engine.class_forecasts(),
    )
    plan = search_plan(
        predicted, PlannerConfig(seed=config.planner_seed), obs=obs
    )
    validation = validate_plan(
        plan,
        lambda: forecast_planning_scenario(config),
        warmup_intervals=config.warmup_intervals,
        measure_intervals=config.measure_intervals,
        obs=obs,
    )
    return plan, validation


def run_forecast_eval(
    config: ForecastEvalConfig | None = None,
    obs: Observability = NULL_OBS,
) -> ForecastEvalResult:
    """Both scenarios, both modes, plus the planning-point validation."""
    config = config if config is not None else ForecastEvalConfig()
    result = ForecastEvalResult(config=config)
    result.outcomes.append(_eval_zoo(config, obs))
    result.outcomes.append(_eval_chaos(config, obs))
    result.plan, result.validation = _validate(config, obs)
    return result


def forecast_eval_artefact(result: ForecastEvalResult) -> dict:
    """The bench-registry artefact (JSON-able, deterministic)."""
    config = result.config
    scenarios = {}
    for outcome in result.outcomes:
        score = outcome.score
        scenarios[outcome.name] = {
            "app": outcome.app,
            "violations_reactive": score.violations_reactive,
            "violations_predictive": score.violations_predictive,
            "intervals_avoided": score.intervals_avoided,
            "predictions": score.predictions,
            "predicted_violations": score.predicted_violations,
            "acted": score.acted,
            "hits": score.hits,
            "false_alarms": score.false_alarms,
            "plans_applied": outcome.stats.get("plans_applied", 0),
            "scale_outs": outcome.stats.get("scale_outs", 0),
            "empty_plans": outcome.stats.get("empty_plans", 0),
            "budget_remaining": outcome.stats.get("budget_remaining", 0),
            "sla_reactive": outcome.sla_reactive,
            "sla_predictive": outcome.sla_predictive,
        }
    artefact = {
        "seed": config.seed,
        "horizon": config.horizon,
        "margin": round(config.margin, 6),
        "scenarios": scenarios,
        "total_intervals_avoided": result.total_intervals_avoided,
    }
    if result.plan is not None:
        artefact["plan"] = {
            "digest": result.plan.digest(),
            "steps": len(result.plan.steps),
            "step_kinds": sorted(
                {step.kind.value for step in result.plan.steps}
            ),
        }
    if result.validation is not None:
        artefact["validation"] = validation_summary(result.validation)
    return artefact
