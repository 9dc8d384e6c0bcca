"""The planner's output artefact: a ranked, explainable capacity plan.

A :class:`CapacityPlan` is an *ordered* list of :class:`PlanStep`\\ s —
replica additions first (they create the pools later steps target), then
migrations, then quota changes — each carrying the predicted miss-ratio
delta that justified it and a one-line human rationale.  The plan is pure
data: rendering, hashing (`digest`) and JSON export live here; applying it
to a live cluster is the controller's job (``ClusterController.apply_plan``)
and replaying it in a forked harness is :mod:`repro.planner.validate`'s.

Determinism contract: the plan's ``canonical_json()`` depends only on the
input :class:`~repro.planner.model.ClusterSnapshot` and the planner seed,
so ``digest()`` is a stable fingerprint — the golden-hash test pins it.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field

__all__ = ["PlanStepKind", "PlanStep", "ClassOutlook", "CapacityPlan"]


class PlanStepKind(enum.Enum):
    ADD_REPLICA = "add_replica"
    RELEASE_REPLICA = "release_replica"
    MIGRATE_CLASS = "migrate_class"
    SET_QUOTA = "set_quota"
    CLEAR_QUOTA = "clear_quota"


@dataclass(frozen=True)
class PlanStep:
    """One actuatable change, with the prediction that justified it."""

    kind: PlanStepKind
    app: str
    context_key: str | None = None
    pool: str | None = None
    """Target pool (engine name, or ``new:<server>`` for a pool that an
    earlier ADD_REPLICA step of this plan creates)."""
    server: str | None = None
    pages: int | None = None
    predicted_before: float | None = None
    predicted_after: float | None = None
    rationale: str = ""

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind.value,
            "app": self.app,
            "context_key": self.context_key,
            "pool": self.pool,
            "server": self.server,
            "pages": self.pages,
            "predicted_before": self.predicted_before,
            "predicted_after": self.predicted_after,
            "rationale": self.rationale,
        }

    def describe(self) -> str:
        delta = ""
        if self.predicted_before is not None and self.predicted_after is not None:
            delta = (
                f" (miss {self.predicted_before:.3f} -> "
                f"{self.predicted_after:.3f})"
            )
        if self.kind is PlanStepKind.ADD_REPLICA:
            where = f" on {self.server}" if self.server else ""
            return f"add replica for {self.app}{where}: {self.rationale}"
        if self.kind is PlanStepKind.RELEASE_REPLICA:
            return f"release replica {self.pool} of {self.app}: {self.rationale}"
        if self.kind is PlanStepKind.MIGRATE_CLASS:
            return (
                f"migrate {self.context_key} to {self.pool}{delta}: "
                f"{self.rationale}"
            )
        if self.kind is PlanStepKind.SET_QUOTA:
            return (
                f"quota {self.context_key} = {self.pages} pages on "
                f"{self.pool}{delta}: {self.rationale}"
            )
        return f"clear quota of {self.context_key} on {self.pool}: {self.rationale}"


@dataclass(frozen=True)
class ClassOutlook:
    """Before/after prediction for one class under the plan."""

    context_key: str
    pool: str
    memory_pages: int
    predicted_miss_ratio: float
    acceptable_miss_ratio: float

    @property
    def meets_acceptable(self) -> bool:
        return self.predicted_miss_ratio <= self.acceptable_miss_ratio + 1e-9

    def to_jsonable(self) -> dict:
        return {
            "context_key": self.context_key,
            "pool": self.pool,
            "memory_pages": self.memory_pages,
            "predicted_miss_ratio": round(self.predicted_miss_ratio, 9),
            "acceptable_miss_ratio": round(self.acceptable_miss_ratio, 9),
        }


@dataclass(frozen=True)
class CapacityPlan:
    """A full, ordered capacity plan for the cluster."""

    seed: int
    interval_index: int
    score_before: float
    score_after: float
    steps: tuple[PlanStep, ...] = ()
    outlooks: tuple[ClassOutlook, ...] = ()
    """Post-plan prediction for every summarised class, sorted by key."""
    coverage: float = 1.0
    """Pressure fraction of the workload the planning summary captured."""
    notes: tuple[str, ...] = field(default=())

    @property
    def empty(self) -> bool:
        return not self.steps

    @property
    def improvement(self) -> float:
        return self.score_before - self.score_after

    def to_jsonable(self) -> dict:
        return {
            "seed": self.seed,
            "interval_index": self.interval_index,
            "score_before": round(self.score_before, 9),
            "score_after": round(self.score_after, 9),
            "coverage": round(self.coverage, 9),
            "steps": [step.to_jsonable() for step in self.steps],
            "outlooks": [o.to_jsonable() for o in self.outlooks],
            "notes": list(self.notes),
        }

    def canonical_json(self) -> str:
        return json.dumps(
            self.to_jsonable(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        """Stable fingerprint of the plan (determinism golden)."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def render(self) -> str:
        lines = [
            f"capacity plan @ interval {self.interval_index} "
            f"(seed {self.seed})",
            f"  score: {self.score_before:.4f} -> {self.score_after:.4f} "
            f"(improvement {self.improvement:+.4f}), "
            f"summary coverage {self.coverage:.0%}",
        ]
        if not self.steps:
            lines.append("  no steps: current configuration is locally optimal")
        for index, step in enumerate(self.steps, start=1):
            lines.append(f"  {index}. {step.describe()}")
        failing = [o for o in self.outlooks if not o.meets_acceptable]
        if failing:
            lines.append("  still above acceptable after the plan:")
            for outlook in failing:
                lines.append(
                    f"    - {outlook.context_key} on {outlook.pool}: "
                    f"{outlook.predicted_miss_ratio:.3f} > "
                    f"{outlook.acceptable_miss_ratio:.3f}"
                )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)
