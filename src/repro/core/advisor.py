"""What-if advisor: predict per-class miss ratios for a proposed arrangement.

The paper's quota heuristic promises that, at the chosen quotas, "the miss
ratios for all QC and the rest of the application queries scheduled on the
same physical server are predicted to be their respective acceptable miss
ratios by the MRC algorithm".  This module makes that prediction a public,
testable API: :func:`assess_pool` evaluates each class's curve at the
memory it would receive in one pool — its own quota, or its slice of the
shared remainder — against its acceptable miss ratio, and
:func:`assess_cluster` does so for every pool of a proposed cluster state
(the capacity planner's scoring backend).

Because Mattson curves are exact for LRU, the prediction for a quota'd
class is exact up to trace drift.  Sharers of the default partition see the
whole remainder while their combined working sets fit it (the paper's
optimistic approximation: they compete inside it); when they overcommit it,
each is evaluated at a *pressure-proportional* slice instead
(:func:`shared_partition_pages`).  This is what lets the capacity planner
see cross-class memory contention inside one pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .mrc import MRCParameters

__all__ = [
    "ClassPrediction",
    "PlanAssessment",
    "PoolAssignment",
    "ClusterAssessment",
    "assess_pool",
    "assess_cluster",
]


@dataclass(frozen=True)
class ClassPrediction:
    """One class's predicted behaviour under a proposed partitioning."""

    context_key: str
    memory_pages: int
    predicted_miss_ratio: float
    acceptable_miss_ratio: float


@dataclass
class PlanAssessment:
    """The advisor's verdict on a whole plan."""

    predictions: dict[str, ClassPrediction] = field(default_factory=dict)


# --------------------------------------------------------------------- #
# Cluster scope (the capacity planner's scoring backend)                #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class PoolAssignment:
    """One buffer pool's proposed contents, as the planner would arrange it.

    ``curves`` may hold full :class:`MissRatioCurve` objects or any object
    with a ``miss_ratio(pages)`` method (the planner passes its sampled
    :class:`~repro.planner.model.CurveSlice` summaries).  ``demands`` and
    ``pressures`` drive the shared-partition contention split; classes
    missing from either fall back to neutral weights.  ``extra_demand``
    accounts for resident classes that were summarised away (they still
    take up room in the shared partition even if they are not scored).
    """

    pool: str
    pool_pages: int
    curves: dict[str, object] = field(default_factory=dict)
    parameters: dict[str, MRCParameters] = field(default_factory=dict)
    quotas: dict[str, int] = field(default_factory=dict)
    demands: dict[str, int] = field(default_factory=dict)
    pressures: dict[str, float] = field(default_factory=dict)
    extra_demand: int = 0


@dataclass
class ClusterAssessment:
    """Per-pool advisor verdicts over a whole proposed cluster state."""

    pools: dict[str, PlanAssessment] = field(default_factory=dict)

    def prediction_of(self, context_key: str) -> ClassPrediction | None:
        for pa in self.pools.values():
            if context_key in pa.predictions:
                return pa.predictions[context_key]
        return None


def shared_partition_pages(
    curves: dict[str, object],
    quotas: dict[str, int],
    pool_pages: int,
    demands: dict[str, int] | None = None,
    pressures: dict[str, float] | None = None,
    extra_demand: int = 0,
) -> dict[str, int]:
    """Effective pages each *sharer* (non-quota'd class) gets in one pool.

    When the sharers' combined total-memory demand fits the shared
    remainder, every sharer sees the full remainder (the paper's optimistic
    approximation — they time-share amicably).  When the demand overcommits
    it, each sharer is cut down to a slice proportional to its page
    pressure (falling back to its demand when no pressure is known), capped
    at its own demand.  The slice is a *pessimistic* single-number stand-in
    for LRU competition: it restores the contention signal the optimistic
    model erases, which is exactly what the planner needs to see.
    """
    if pool_pages <= 0:
        raise ValueError(f"pool size must be positive: {pool_pages}")
    reserved = sum(quotas.values())
    if reserved >= pool_pages:
        raise ValueError(
            f"quotas reserve {reserved} of {pool_pages} pages; nothing left "
            "for the shared partition"
        )
    shared = pool_pages - reserved
    demands = demands or {}
    pressures = pressures or {}
    sharers = sorted(key for key in curves if key not in quotas)
    if not sharers:
        return {}

    def demand_of(key: str) -> int:
        known = demands.get(key)
        if known is not None and known > 0:
            return known
        depth = getattr(curves[key], "max_depth", None)
        if depth:
            return min(int(depth), shared)
        return shared

    total_demand = sum(demand_of(key) for key in sharers) + max(extra_demand, 0)
    if total_demand <= shared:
        return {key: shared for key in sharers}
    weights = {key: max(pressures.get(key, 0.0), 0.0) for key in sharers}
    if sum(weights.values()) <= 0.0:
        weights = {key: float(demand_of(key)) for key in sharers}
    total_weight = sum(weights.values())
    # extra (unsummarised) demand competes for the pool too: scale the
    # scored sharers' collective slice down by their share of the demand.
    scored_demand = total_demand - max(extra_demand, 0)
    budget = shared
    if total_demand > 0 and scored_demand < total_demand:
        budget = max(1, int(shared * scored_demand / total_demand))
    return {
        key: min(
            demand_of(key),
            max(1, int(budget * weights[key] / total_weight)),
        )
        for key in sharers
    }


def assess_pool(assignment: PoolAssignment) -> PlanAssessment:
    """Advisor verdict on one pool of a proposed cluster arrangement."""
    unknown = sorted(set(assignment.quotas) - set(assignment.curves))
    if unknown:
        raise ValueError(
            f"quota for class(es) {unknown} with no miss-ratio curve: their "
            "pages would be reserved and never assessed"
        )
    effective = shared_partition_pages(
        assignment.curves,
        assignment.quotas,
        assignment.pool_pages,
        demands=assignment.demands,
        pressures=assignment.pressures,
        extra_demand=assignment.extra_demand,
    )
    assessment = PlanAssessment()
    for key in sorted(assignment.curves):
        pages = assignment.quotas.get(key, effective.get(key, 1))
        params = assignment.parameters.get(key)
        acceptable = params.acceptable_miss_ratio if params else 1.0
        assessment.predictions[key] = ClassPrediction(
            context_key=key,
            memory_pages=pages,
            predicted_miss_ratio=assignment.curves[key].miss_ratio(pages),
            acceptable_miss_ratio=acceptable,
        )
    return assessment


def assess_cluster(
    assignments: dict[str, PoolAssignment],
) -> ClusterAssessment:
    """Assess every pool of a proposed cluster state (planner scoring)."""
    assessment = ClusterAssessment()
    for pool in sorted(assignments):
        assessment.pools[pool] = assess_pool(assignments[pool])
    return assessment
