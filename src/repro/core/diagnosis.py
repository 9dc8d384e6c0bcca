"""Selective retuning: from an SLA violation to a fine-grained action.

This module encodes the paper's decision procedure (§3.2–§3.3.3) as a pure
function from observations to *actions*; the controller applies the actions
to the cluster.  The procedure, in order:

1. **CPU saturation** on any server running the application → reactively
   provision another replica from the pool (§3.3.3, Figure 3).
2. **I/O interference** on a server (e.g. a saturated Xen dom0 channel) →
   remove query contexts from that server in decreasing order of their I/O
   rate until the problem normalises (§3.3.3, Table 3).
3. **Memory interference** (§3.3.1–§3.3.2): find outlier contexts on the
   memory-related counters; recompute the MRC of each problem class; keep as
   *suspect* the classes whose MRC parameters changed significantly, plus
   every newly scheduled class (no prior MRC).  If the pool cannot meet the
   total memory need of all contexts, search for per-suspect quotas that
   keep everyone at their acceptable miss ratio; enforce quotas if found,
   otherwise reschedule the top suspect onto a different replica.
4. **No outliers** → retry the memory path on the top-k heavyweight classes.
5. Nothing worked → **coarse-grained fallback**: allocate new replicas and
   isolate applications until SLAs are met.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .analyzer import LogAnalyzer
from ..cluster.scheduler import Scheduler
from ..obs import NULL_OBS, Observability
from .metrics import Metric
from .mrc import MRCParameters
from .outliers import OutlierReport, top_k_heavyweight
from .quota import find_quotas, placement_fits_totals

__all__ = [
    "ActionKind",
    "FINE_ACTION_KINDS",
    "Action",
    "DiagnosisConfig",
    "ReplicaView",
    "Diagnosis",
    "diagnose",
]


class ActionKind(str, Enum):
    """Every reaction the selective-retuning procedure can emit."""

    PROVISION_REPLICA = "provision_replica"
    APPLY_QUOTAS = "apply_quotas"
    RESCHEDULE_CLASS = "reschedule_class"
    REMOVE_CLASS_FOR_IO = "remove_class_for_io"
    REPORT_LOCK_CONTENTION = "report_lock_contention"
    COARSE_FALLBACK = "coarse_fallback"
    RELEASE_REPLICA = "release_replica"  # never listed in a report's actions
    NO_ACTION = "no_action"


FINE_ACTION_KINDS = frozenset(
    {
        ActionKind.APPLY_QUOTAS,
        ActionKind.RESCHEDULE_CLASS,
        ActionKind.REMOVE_CLASS_FOR_IO,
        ActionKind.REPORT_LOCK_CONTENTION,
    }
)
"""The fine-grained reactions: each acts on one query context, not a replica."""


@dataclass(frozen=True)
class Action:
    """One retuning decision, with enough detail for the controller to act."""

    kind: ActionKind
    app: str
    reason: str
    replica: str | None = None
    context_key: str | None = None
    quotas: tuple[tuple[str, int | None], ...] = ()  # None pages = clear it
    server: str | None = None  # provision there (a plan names its servers)
    target: str | None = None  # move onto it (``replica``: away from its host)
    epoch: int = 0
    """Controller incarnation that decided this action.  0 means unstamped
    (no recovery installed); the controller's fenced apply path stamps the
    current epoch, and actuation layers reject anything older — an
    in-flight action from a crashed incarnation must never land."""

    def quota_map(self) -> dict[str, int | None]:
        return dict(self.quotas)


@dataclass(frozen=True)
class DiagnosisConfig:
    """Tunables of the decision procedure."""

    top_k: int = 3
    mrc_change_threshold: float = 0.25
    min_window_accesses: int = 2000
    new_class_horizon: int = 5
    min_quota_pages: int = 256
    containment_traffic_share: float = 0.25
    use_outlier_detection: bool = True  # False = always top-k (ablation)
    lock_wait_share_threshold: float = 0.2

    def __post_init__(self) -> None:
        if self.top_k <= 0:
            raise ValueError(f"top_k must be positive: {self.top_k}")
        if self.mrc_change_threshold < 0:
            raise ValueError("mrc change threshold must be non-negative")


@dataclass
class ReplicaView:
    """What diagnosis sees of one replica: its analyzer and host health."""

    replica_name: str
    analyzer: LogAnalyzer
    cpu_saturated: bool
    io_saturated: bool
    pool_pages: int
    interval_length: float = 10.0


@dataclass
class Diagnosis:
    """The full outcome: actions plus the evidence behind them."""

    app: str
    actions: list[Action] = field(default_factory=list)
    outlier_reports: dict[str, OutlierReport] = field(default_factory=dict)
    suspects: dict[str, list[str]] = field(default_factory=dict)

    @property
    def primary(self) -> Action:
        if not self.actions:
            return Action(
                kind=ActionKind.NO_ACTION, app=self.app, reason="nothing detected"
            )
        return self.actions[0]


def diagnose(
    app: str,
    scheduler: Scheduler,
    views: list[ReplicaView],
    config: DiagnosisConfig | None = None,
    obs: Observability | None = None,
) -> Diagnosis:
    """Run the full decision procedure for one violated application.

    With an :class:`Observability` handle the run is wrapped in a
    ``diagnosis.run`` span carrying the app, the outlier context keys it
    found, and the primary :class:`ActionKind` it chose; the MRC
    recomputations it triggers nest underneath as ``mrc.recompute`` spans.
    """
    config = config if config is not None else DiagnosisConfig()
    obs = obs if obs is not None else NULL_OBS
    result = Diagnosis(app=app)
    with obs.tracer.span("diagnosis.run", attrs={"app": app}) as span:
        span.add_cost(len(views))
        _run_procedure(app, scheduler, views, config, result)
        span.set_attr("action", result.primary.kind.value)
        outliers = sorted(
            {
                key
                for report in result.outlier_reports.values()
                for key in report.memory_outlier_contexts()
            }
        )
        if outliers:
            span.set_attr("outliers", ",".join(outliers))
        suspects = sorted(
            {key for keys in result.suspects.values() for key in keys}
        )
        if suspects:
            span.set_attr("suspects", ",".join(suspects))
    return result


def _run_procedure(
    app: str,
    scheduler: Scheduler,
    views: list[ReplicaView],
    config: DiagnosisConfig,
    result: Diagnosis,
) -> Diagnosis:
    # --- Step 1: CPU saturation → reactive provisioning ----------------- #
    for view in views:
        if view.cpu_saturated:
            result.actions.append(
                Action(
                    kind=ActionKind.PROVISION_REPLICA,
                    app=app,
                    reason=(
                        f"CPU saturated on host of replica {view.replica_name!r}"
                    ),
                    replica=view.replica_name,
                )
            )
    if result.actions:
        return result

    # --- Step 2: I/O interference → shed heaviest I/O context ----------- #
    for view in views:
        if view.io_saturated:
            context = _heaviest_io_context(view, app)
            if context is not None:
                result.actions.append(
                    Action(
                        kind=ActionKind.REMOVE_CLASS_FOR_IO,
                        app=app,
                        reason=(
                            f"I/O channel saturated on replica "
                            f"{view.replica_name!r}; {context!r} has the "
                            "highest I/O rate"
                        ),
                        replica=view.replica_name,
                        context_key=context,
                    )
                )
    if result.actions:
        return result

    # --- Step 2.5: lock contention (the paper's stated future work) ------ #
    # When lock waits account for a large share of the application's time,
    # neither memory nor I/O is the story: report the aggressor class and
    # any deadlock-prone cycles instead of retuning resources.
    for view in views:
        action = _lock_diagnosis(app, view, config)
        if action is not None:
            result.actions.append(action)
    if result.actions:
        return result

    # --- Steps 3–4: memory interference ---------------------------------- #
    for view in views:
        action = _memory_diagnosis(app, view, config, result)
        if action is not None:
            result.actions.append(action)
    if result.actions:
        return result

    # --- Step 5: nothing actionable -------------------------------------- #
    # The controller escalates to the coarse-grained fallback when this
    # persists past its patience budget; diagnosis itself stays quiet, since
    # "no suspects yet" may simply mean the access windows are still filling.
    result.actions.append(
        Action(
            kind=ActionKind.NO_ACTION,
            app=app,
            reason="fine-grained diagnosis found no actionable context",
        )
    )
    return result


def _heaviest_io_context(view: ReplicaView, app: str) -> str | None:
    """The app's context with the highest I/O block-request rate here."""
    vectors = view.analyzer.current_vectors(app)
    if not vectors:
        return None
    ranked = sorted(
        vectors.items(),
        key=lambda item: (-item[1].get(Metric.IO_BLOCK_REQUESTS), item[0]),
    )
    top_key, top_vector = ranked[0]
    if top_vector.get(Metric.IO_BLOCK_REQUESTS) <= 0:
        return None
    return top_key


def _lock_diagnosis(
    app: str,
    view: ReplicaView,
    config: DiagnosisConfig,
) -> Action | None:
    """Detect lock-wait-dominated violations and name the aggressor class.

    Unlike the memory and I/O paths there is no resource to retune: writes
    run on every replica under read-one-write-all, so neither a quota nor a
    reschedule removes a write-lock conflict.  The diagnosis therefore
    *reports* — the class holding the locks everyone waits on, and any
    waits-for cycles — which is precisely the narrowing-down the paper's
    future-work section asks of outlier detection.
    """
    vectors = view.analyzer.current_vectors(app)
    if not vectors:
        return None
    total_lock_wait = sum(v.get(Metric.LOCK_WAIT_TIME) for v in vectors.values())
    total_latency = sum(
        v.get(Metric.LATENCY) * v.get(Metric.THROUGHPUT) * view.interval_length
        for v in vectors.values()
    )
    if total_latency <= 0:
        return None
    share = total_lock_wait / total_latency
    if share < config.lock_wait_share_threshold:
        return None
    graph = view.analyzer.last_waits_for
    aggressor = None
    if graph is not None:
        held_weight: dict[str, int] = {}
        for _, holder, weight in graph.edges():
            held_weight[holder] = held_weight.get(holder, 0) + weight
        if held_weight:
            aggressor = max(
                held_weight.items(), key=lambda item: (item[1], item[0])
            )[0]
    cycles = graph.find_cycles() if graph is not None else []
    reason = (
        f"lock waits are {share:.0%} of {app!r}'s time on replica "
        f"{view.replica_name!r}"
    )
    if aggressor:
        reason += f"; most-waited-on class: {aggressor!r}"
    if cycles:
        reason += f"; deadlock-prone cycles: {cycles}"
    return Action(
        kind=ActionKind.REPORT_LOCK_CONTENTION,
        app=app,
        reason=reason,
        replica=view.replica_name,
        context_key=aggressor,
    )


def _memory_diagnosis(
    app: str,
    view: ReplicaView,
    config: DiagnosisConfig,
    result: Diagnosis,
) -> Action | None:
    """Steps 3–4 of the procedure on one replica."""
    analyzer = view.analyzer
    report = analyzer.detect(app)
    result.outlier_reports[view.replica_name] = report

    candidates = (
        report.memory_outlier_contexts() if config.use_outlier_detection else []
    )
    if not candidates:
        # Step 4 fallback: top-k heavyweight memory contexts (also the
        # candidate source when outlier detection is ablated away).
        candidates = analyzer.heavyweight_contexts(app, k=config.top_k)
    # Newly scheduled classes (no MRC yet) are problem classes directly —
    # across *all* applications sharing this engine, since a new workload in
    # a shared buffer pool is a prime suspect for the incumbent's violation
    # (the paper computes MRCs for the newly added RUBiS queries while
    # diagnosing TPC-W).
    fresh = analyzer.new_contexts(horizon=config.new_class_horizon)
    candidates = sorted(set(candidates) | set(fresh))
    if not candidates:
        return None
    # Rank candidates by their memory-metric weight so the "top ranking
    # problem query" (the paper's phrase) is assessed first.
    engine_vectors = analyzer.current_vectors()
    ranked = top_k_heavyweight(
        {key: engine_vectors[key] for key in candidates if key in engine_vectors},
        k=max(1, len(candidates)),
    ) or candidates

    suspects: dict[str, MRCParameters] = {}
    for context in ranked:
        status, recomputed = analyzer.assess_recent_behaviour(
            context,
            config.mrc_change_threshold,
            min_tail=config.min_window_accesses,
            new_class_horizon=config.new_class_horizon,
        )
        if status in ("new", "changed") and recomputed is not None:
            suspects[context] = recomputed
    result.suspects[view.replica_name] = sorted(suspects)
    if not suspects:
        return None

    # Make sure every active context has an MRC so the feasibility check and
    # quota search see the whole server.
    active = analyzer.current_vectors(app)
    all_params: dict[str, MRCParameters] = {}
    for context in active:
        params = analyzer.ensure_mrc(context)
        if params is not None:
            all_params[context] = params
    # Contexts of *other* applications sharing this engine count too: memory
    # interference is cross-application by nature (Table 2).
    for context in analyzer.current_vectors():
        if context in all_params:
            continue
        params = analyzer.ensure_mrc(context)
        if params is not None:
            all_params[context] = params

    if placement_fits_totals(all_params, view.pool_pages):
        # Working sets fit outright, but LRU does not respect MRC totals: a
        # scan-like suspect (flat curve, near-zero memory *need*) still
        # pollutes the pool with its traffic.  When suspects carry a large
        # share of the engine's page accesses, apply containment quotas;
        # otherwise memory is genuinely not the bottleneck here.
        accesses = {
            key: vector.get(Metric.PAGE_ACCESSES)
            for key, vector in analyzer.current_vectors().items()
        }
        total_accesses = sum(accesses.values())
        scan_like = [
            key
            for key, params in suspects.items()
            if params.ideal_miss_ratio >= 0.5  # flat curve: caching is futile
        ]
        suspect_share = (
            sum(accesses.get(key, 0.0) for key in scan_like) / total_accesses
            if total_accesses > 0
            else 0.0
        )
        if suspect_share < config.containment_traffic_share:
            return None

    others = {
        key: params for key, params in all_params.items() if key not in suspects
    }
    plan = find_quotas(
        suspects, others, view.pool_pages, min_quota=config.min_quota_pages
    )
    if plan.feasible:
        return Action(
            kind=ActionKind.APPLY_QUOTAS,
            app=app,
            reason=(
                f"memory interference on replica {view.replica_name!r}; "
                f"quotas keep all contexts at acceptable miss ratios"
            ),
            replica=view.replica_name,
            quotas=tuple(sorted(plan.quotas.items())),
        )

    # No feasible quotas: reschedule the hungriest suspect elsewhere.
    hungriest = max(
        suspects.items(), key=lambda item: (item[1].acceptable_memory, item[0])
    )[0]
    return Action(
        kind=ActionKind.RESCHEDULE_CLASS,
        app=app,
        reason=(
            f"no feasible quotas on replica {view.replica_name!r} "
            f"(shortfall {plan.shortfall} pages); isolating {hungriest!r}"
        ),
        replica=view.replica_name,
        context_key=hungriest,
    )
