"""Scoring the forecaster: records, outcomes, and validator error.

Three questions decide whether predictive enforcement earns its keep:

* **Did the alarms correspond to reality?**  Every per-interval decision
  becomes a :class:`ForecastRecord`; once the prediction's window closes,
  the act-ahead policy resolves it to ``hit`` (a real violation arrived
  in-window) or ``false_alarm`` (window closed clean — possibly because
  the action worked; the reactive baseline settles which).
* **Did acting ahead avoid violated intervals?**  :func:`score_forecasts`
  compares the SLA series of a reactive and a predictive run of the same
  scenario: ``intervals_avoided`` is the paper-level win.
* **Were the predicted miss ratios honest?**  The act-ahead plan's
  predictions are replayed through the existing what-if validator
  (:func:`repro.planner.validate_plan`); :func:`validation_summary`
  condenses that into the artefact's predicted-vs-simulated error.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

__all__ = [
    "ForecastRecord",
    "ForecastScore",
    "forecast_records",
    "score_forecasts",
    "validation_summary",
]


@dataclass(frozen=True)
class ForecastRecord:
    """One per-app, per-interval forecast decision and its fate."""

    interval: int
    app: str
    horizon: int
    predicted_latency: float
    threshold: float
    confidence: float
    decision: str
    """The policy's reason: ``act`` | ``no-violation`` | ``low-confidence``
    | ``hysteresis`` | ``cooldown`` | ``budget-exhausted``."""
    acted: bool
    seed: int = 0
    outcome: str = "pending"
    """``pending`` until the horizon window closes, then ``hit`` or
    ``false_alarm`` (act-ahead records only; the rest stay ``none``)."""


def forecast_records(records) -> list[dict]:
    """Forecast decisions as ``{"record": "forecast", ...}`` dicts.

    One per :class:`ForecastRecord` (e.g. of ``engine.records``): the
    per-interval prediction, the act-ahead policy's verdict, and (once its
    window closed) the real outcome.
    """
    return [
        {
            "record": "forecast",
            **asdict(record),
            "predicted_latency": round(record.predicted_latency, 6),
            "threshold": round(record.threshold, 6),
            "confidence": round(record.confidence, 6),
        }
        for record in records
    ]


def resolve_records(
    records: list[ForecastRecord], app: str, interval: int, outcome: str
) -> list[ForecastRecord]:
    """Stamp the oldest pending act-ahead record of ``app`` fired before
    ``interval`` with ``outcome``; returns the updated list."""
    for index, record in enumerate(records):
        if (
            record.app == app
            and record.acted
            and record.outcome == "pending"
            and record.interval < interval
        ):
            records[index] = replace(record, outcome=outcome)
            break
    return records


@dataclass
class ForecastScore:
    """Reactive-vs-predictive scoreboard for one scenario."""

    predictions: int = 0
    predicted_violations: int = 0
    acted: int = 0
    hits: int = 0
    false_alarms: int = 0
    low_confidence: int = 0
    violations_reactive: int = 0
    violations_predictive: int = 0

    @property
    def intervals_avoided(self) -> int:
        """SLA-violation intervals the predictive run did not suffer."""
        return self.violations_reactive - self.violations_predictive


def score_forecasts(
    records: list[ForecastRecord],
    reactive_sla: list[bool],
    predictive_sla: list[bool],
) -> ForecastScore:
    """Condense one scenario's records + both runs' SLA series."""
    score = ForecastScore(
        violations_reactive=sum(1 for met in reactive_sla if not met),
        violations_predictive=sum(1 for met in predictive_sla if not met),
    )
    for record in records:
        score.predictions += 1
        if record.decision != "no-violation":
            score.predicted_violations += 1
        if record.decision == "low-confidence":
            score.low_confidence += 1
        if record.acted:
            score.acted += 1
            if record.outcome == "hit":
                score.hits += 1
            elif record.outcome == "false_alarm":
                score.false_alarms += 1
    return score


def validation_summary(validation) -> dict:
    """JSON-able condensate of a :class:`~repro.planner.PlanValidation`:
    the predicted-vs-simulated miss-ratio error of an act-ahead plan."""
    return {
        "ok": validation.ok,
        "checks": len(validation.checks),
        "max_relative_error": round(validation.max_relative_error, 6),
        "classes": [
            {
                "context": check.context_key,
                "predicted_miss_ratio": round(
                    check.predicted_miss_ratio, 6
                ),
                "simulated_miss_ratio": round(
                    check.simulated_miss_ratio, 6
                ),
                "relative_error": round(check.relative_error, 6),
            }
            for check in validation.checks
        ],
    }
