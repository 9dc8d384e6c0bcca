"""Detection quality: precision/recall/F1 vs injected ground truth.

The workload zoo (:mod:`repro.workloads.zoo`) injects anomalies with known
guilty query contexts and emits a :class:`~repro.workloads.zoo.LabelStream`
of ground-truth episodes.  This module scores what the controller actually
*detected* — the outlier contexts, suspects and action targets its
diagnoses named, interval by interval — against that stream:

* **precision** over detection events: a ``(interval, context)`` event is a
  true positive when some anomalous episode lists the context and covers
  the interval (within ``tolerance`` intervals, to absorb the controller's
  startup/action grace).
* **recall** over ground-truth pairs: an ``(episode, context)`` pair is
  covered when at least one detection event matches it.  An episode only
  needs to be caught once — the controller is expected to *fix* the
  problem, not to re-report it every interval.

Conventions: with no detection events precision is 1.0 (nothing claimed,
nothing wrong), with no ground-truth pairs recall is 1.0 (nothing to find).
A scenario like the zoo's ``diurnal`` — anomalous episodes with *empty*
context sets — therefore scores any class-level detection as a false
positive while demanding nothing for recall: it is a false-positive
control.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "DetectionEvent",
    "QualityReport",
    "score_detections",
    "quality_records",
]

DEFAULT_TOLERANCE = 2


@dataclass(frozen=True)
class DetectionEvent:
    """One class-level detection: the controller named ``context`` here."""

    interval: int
    context: str
    source: str = "diagnosis"  # outlier | suspect | action | diagnosis

    def __post_init__(self) -> None:
        if self.interval < 0:
            raise ValueError(f"interval must be non-negative: {self.interval}")
        if not self.context:
            raise ValueError("a detection event needs a context key")


@dataclass
class QualityReport:
    """Precision/recall/F1 of one run's detections vs its ground truth."""

    scenario: str
    intervals: int
    tolerance: int
    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    precision: float = 1.0
    recall: float = 1.0
    f1: float = 1.0
    # (interval, context, matched) for every deduplicated detection event.
    events: list[dict] = field(default_factory=list)
    # One row per (episode, context) ground-truth pair.
    truth: list[dict] = field(default_factory=list)


def _matches(event: DetectionEvent, label, tolerance: int) -> bool:
    return event.context in label.contexts and label.covers(
        event.interval, tolerance=tolerance
    )


def score_detections(
    scenario: str,
    events: list[DetectionEvent],
    labels,
    tolerance: int = DEFAULT_TOLERANCE,
) -> QualityReport:
    """Score detection events against a ground-truth label stream.

    ``labels`` is a :class:`repro.workloads.zoo.LabelStream`; duplicate
    ``(interval, context)`` events collapse to one so a detector that
    re-reports the same finding every interval is neither rewarded nor
    punished for it.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative: {tolerance}")
    anomalies = [label for label in labels.anomalies() if label.contexts]

    deduplicated: dict[tuple[int, str], DetectionEvent] = {}
    for event in events:
        deduplicated.setdefault((event.interval, event.context), event)
    ordered = [deduplicated[key] for key in sorted(deduplicated)]

    report = QualityReport(
        scenario=scenario, intervals=labels.intervals, tolerance=tolerance
    )
    for event in ordered:
        matched = any(
            _matches(event, label, tolerance) for label in anomalies
        )
        if matched:
            report.true_positives += 1
        else:
            report.false_positives += 1
        report.events.append(
            {
                "interval": event.interval,
                "context": event.context,
                "source": event.source,
                "matched": matched,
            }
        )

    for label in anomalies:
        for context in label.contexts:
            covered = any(
                event.context == context
                and label.covers(event.interval, tolerance=tolerance)
                for event in ordered
            )
            if not covered:
                report.false_negatives += 1
            report.truth.append(
                {
                    "start": label.start,
                    "end": label.end,
                    "cause": label.cause,
                    "context": context,
                    "covered": covered,
                }
            )

    claimed = report.true_positives + report.false_positives
    expected = sum(1 for row in report.truth)
    report.precision = (
        report.true_positives / claimed if claimed else 1.0
    )
    report.recall = (
        (expected - report.false_negatives) / expected if expected else 1.0
    )
    if report.precision + report.recall > 0:
        report.f1 = (
            2.0
            * report.precision
            * report.recall
            / (report.precision + report.recall)
        )
    else:
        report.f1 = 0.0
    return report


def quality_records(report: QualityReport) -> list[dict]:
    """A quality report as ``{"record": "quality", ...}`` dicts.

    One summary record per scenario — the shape ``repro obs report``
    renders and ``repro zoo --records`` writes.
    """
    return [
        {
            "record": "quality",
            "scenario": report.scenario,
            "intervals": report.intervals,
            "tolerance": report.tolerance,
            "true_positives": report.true_positives,
            "false_positives": report.false_positives,
            "false_negatives": report.false_negatives,
            "precision": round(report.precision, 6),
            "recall": round(report.recall, 6),
            "f1": round(report.f1, 6),
        }
    ]
