"""Summarise exported telemetry: the ``repro obs report`` backend.

Takes the records :mod:`repro.obs.export` reads back (or a live
:class:`~repro.obs.provider.Observability`) and renders the views an
operator of the retuning pipeline wants first:

* **per-stage span profile** — calls, simulated time and deterministic work
  units per pipeline stage, ranked by work;
* **MRC recomputations per application** — the paper's expensive step, and
  the laziness the design is protecting;
* **action-kind histogram** — what the controller actually decided;
* **the flat streams** — one table per record kind in :data:`SECTIONS`
  (machine allocations, detection quality, forecast decisions, the action
  journal), each present only when the input carries records of its kind:
  plain telemetry carries none, which keeps its goldens untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable

from ..analysis.report import Table
from .export import read_records

__all__ = ["StageProfile", "SECTIONS", "TelemetrySummary"]


def _forecast_footer(records: list[dict]) -> str:
    acted = sum(1 for r in records if r["acted"])
    hits = sum(1 for r in records if r["outcome"] == "hit")
    false_alarms = sum(1 for r in records if r["outcome"] == "false_alarm")
    return f"Acted ahead {acted}× — {hits} hits, {false_alarms} false alarms"


SECTIONS: dict[str, tuple] = {
    "allocation": (
        "Machine allocation timeline",
        (("time (s)", "timestamp", ".1f"), ("app", "app", ""),
         ("action", "action", ""), ("server", "server", ""),
         ("replica", "replica", ""), ("replicas after", "replica_count", "")),
        None,
    ),
    "quality": (
        "Detection quality vs injected ground truth",
        (("scenario", "scenario", ""), ("precision", "precision", ".3f"),
         ("recall", "recall", ".3f"), ("F1", "f1", ".3f"),
         ("tp", "true_positives", ""), ("fp", "false_positives", ""),
         ("fn", "false_negatives", "")),
        None,
    ),
    "forecast": (
        "Forecast decisions (predictive SLA enforcement)",
        (("interval", "interval", ""), ("app", "app", ""),
         ("predicted", "predicted_latency", ".3f"),
         ("threshold", "threshold", ".3f"),
         ("confidence", "confidence", ".2f"), ("decision", "decision", ""),
         ("outcome", "outcome", "")),
        _forecast_footer,
    ),
    "journal": (
        "Action journal (the controller's write-ahead log)",
        (("seq", "seq", ""), ("entry", "kind", ""), ("epoch", "epoch", ""),
         ("interval", "interval_index", ""), ("action", "action_kind", ""),
         ("app", "app", ""), ("applied", "applied", ""), ("note", "note", "")),
        None,
    ),
}
"""The flat streams, in rendering order: record kind → (title, columns,
footer).  A column is ``(header, record key, format spec)``: an empty spec
leaves the value to :class:`Table` (``str``; booleans as yes / no) and
``None`` prints as ``-``; a footer is a function of the kind's records."""


@dataclass(frozen=True)
class StageProfile:
    """Aggregate of every span sharing one stage name."""

    name: str
    calls: int
    sim_seconds: float
    work_units: float

    @property
    def mean_work(self) -> float:
        return self.work_units / self.calls if self.calls else 0.0


@dataclass
class TelemetrySummary:
    """Parsed telemetry, queryable and renderable."""

    records: dict[str, list[dict]] = field(default_factory=dict)
    """Every record, grouped by kind, in input order."""

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "TelemetrySummary":
        summary = cls()
        for record in records:
            summary.records.setdefault(record["record"], []).append(record)
        return summary

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "TelemetrySummary":
        """Parse and validate JSONL lines (``ValueError`` on a bad one)."""
        return cls.from_records(read_records(lines))

    @property
    def meta(self) -> dict:
        return self.records.get("meta", [{}])[-1]

    @property
    def spans(self) -> list[dict]:
        return self.records.get("span", [])

    @property
    def metrics(self) -> list[dict]:
        return self.records.get("metric", [])

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #

    def stage_profiles(self) -> list[StageProfile]:
        """Per-stage aggregates, heaviest (by work, then time) first."""
        grouped: dict[str, list[dict]] = {}
        for span in self.spans:
            grouped.setdefault(span["name"], []).append(span)
        profiles = [
            StageProfile(
                name=name,
                calls=len(spans),
                sim_seconds=sum(s["end"] - s["start"] for s in spans),
                work_units=sum(s["cost"] for s in spans),
            )
            for name, spans in grouped.items()
        ]
        profiles.sort(
            key=lambda p: (-p.work_units, -p.sim_seconds, p.name)
        )
        return profiles

    def _counter_by(self, name: str, label: str) -> dict[str, float]:
        """The counter ``name`` summed per value of one of its labels."""
        counts: dict[str, float] = {}
        for record in self.metrics:
            if record["type"] == "counter" and record["name"] == name:
                key = record["labels"].get(label, "?")
                counts[key] = counts.get(key, 0.0) + record["value"]
        return counts

    def mrc_recomputations_by_app(self) -> dict[str, float]:
        """Per-application count of the pipeline's expensive step."""
        return self._counter_by("mrc.recomputations", "app")

    def action_histogram(self) -> dict[str, float]:
        """Emitted controller actions, keyed by :class:`ActionKind` value."""
        return self._counter_by("controller.actions", "kind")

    def sla_violations_by_app(self) -> dict[str, float]:
        return self._counter_by("scheduler.sla_violations", "app")

    # ------------------------------------------------------------------ #
    # Rendering                                                          #
    # ------------------------------------------------------------------ #

    def render(self) -> str:
        sections = [self._render_meta(), self._render_stages(),
                    self._render_mrc(), self._render_actions()]
        sections += [
            self._render_section(*SECTIONS[kind], self.records[kind])
            for kind in SECTIONS
            if kind in self.records
        ]
        return "\n\n".join(sections)

    def _render_meta(self) -> str:
        parts = [
            f"{key}={value}"
            for key, value in sorted(self.meta.items())
            if key not in ("record", "version")
        ]
        header = "Telemetry report"
        if parts:
            header += " — " + ", ".join(parts)
        spans = len(self.spans)
        metrics = len(self.metrics)
        return f"{header}\n({spans} spans, {metrics} metric series)"

    def _render_stages(self) -> str:
        table = Table(
            title="Pipeline stages (top spans by work)",
            headers=["stage", "calls", "sim time (s)", "work units",
                     "work/call"],
        )
        for profile in self.stage_profiles():
            table.add_row(
                profile.name,
                profile.calls,
                f"{profile.sim_seconds:.1f}",
                f"{profile.work_units:.0f}",
                f"{profile.mean_work:.1f}",
            )
        if not self.spans:
            table.add_row("(no spans recorded)", "-", "-", "-", "-")
        return table.render()

    def _render_mrc(self) -> str:
        table = Table(
            title="MRC recomputations per application",
            headers=["app", "recomputations"],
        )
        counts = self.mrc_recomputations_by_app()
        for app in sorted(counts):
            table.add_row(app, f"{counts[app]:.0f}")
        if not counts:
            table.add_row("(none)", "0")
        return table.render()

    def _render_actions(self) -> str:
        table = Table(
            title="Controller actions by kind",
            headers=["action kind", "count"],
        )
        counts = self.action_histogram()
        for kind in sorted(counts):
            table.add_row(kind, f"{counts[kind]:.0f}")
        if not counts:
            table.add_row("(no actions emitted)", "0")
        violations = self.sla_violations_by_app()
        rendered = table.render()
        if violations:
            noted = ", ".join(
                f"{app}: {count:.0f}" for app, count in sorted(violations.items())
            )
            rendered += f"\n\nSLA violations per app: {noted}"
        return rendered

    @staticmethod
    def _render_section(title, columns, footer, records: list[dict]) -> str:
        table = Table(title=title, headers=[header for header, _, _ in columns])
        for record in records:
            table.add_row(
                *(
                    "-" if record[key] is None
                    else format(record[key], spec) if spec
                    else record[key]
                    for _, key, spec in columns
                )
            )
        rendered = table.render()
        if footer is not None:
            rendered += "\n\n" + footer(records)
        return rendered
