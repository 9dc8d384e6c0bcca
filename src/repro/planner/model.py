"""Pure-data cluster state for the capacity planner.

The planner never touches live objects while searching: it plans against a
:class:`ClusterSnapshot` — per-class MRC parameters and stored curves,
per-pool sizes and quotas, current placements, SLA/violation state and
replica health — assembled once from the analyzer/scheduler/resource-manager
state by :func:`build_snapshot`, plus a compact :class:`WorkloadSummary`
(the top-k classes by page pressure, each with a sampled
:class:`CurveSlice`) so the cost of evaluating a candidate plan is
independent of trace length.

Planning-model approximations, stated once:

* a class is assigned to **one** pool — the first replica of its current
  placement.  Read-balanced classes replicate their working set on every
  replica they touch, so a one-pool residency model neither over- nor
  under-counts memory by much, and every *move* the planner emits pins the
  class to a single replica anyway (that is the paper's reschedule action);
* curve slices are step functions sampled on a geometric grid plus the two
  MRC knees; lookups round *down* to the nearest sample, so predicted miss
  ratios err pessimistic (never promise memory the curve cannot back).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from ..core.metrics import Metric
from ..core.mrc import MRCParameters
from ..engine.query import app_of
from ..obs import NULL_OBS, Observability

__all__ = [
    "CurveSlice",
    "ClassState",
    "PoolState",
    "AppState",
    "ClusterSnapshot",
    "WorkloadSummary",
    "build_snapshot",
]


@dataclass(frozen=True)
class CurveSlice:
    """A sampled miss-ratio curve: step-function stand-in for the real MRC.

    ``sizes`` is strictly ascending (first entry 1); ``miss_ratios`` the
    curve value at each size.  ``miss_ratio(pages)`` returns the value at
    the largest sampled size not exceeding ``pages`` — an upper bound on
    the true (non-increasing) curve, so planning on slices is conservative.
    """

    sizes: tuple[int, ...]
    miss_ratios: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.miss_ratios) or not self.sizes:
            raise ValueError("slice needs matching, non-empty samples")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("slice sizes must be strictly ascending")

    @property
    def max_depth(self) -> int:
        return self.sizes[-1]

    def miss_ratio(self, pages: int) -> float:
        if pages < 0:
            raise ValueError(f"memory size must be non-negative: {pages}")
        index = bisect_right(self.sizes, pages) - 1
        if index < 0:
            return 1.0  # below the smallest sample: assume everything misses
        return self.miss_ratios[index]

    @classmethod
    def from_curve(
        cls,
        curve,
        max_pages: int,
        points: int = 24,
        knees: tuple[int, ...] = (),
    ) -> "CurveSlice":
        """Sample ``curve`` on a geometric grid of ``points`` sizes up to
        ``max_pages``, always including 1, ``max_pages`` and the ``knees``
        (the MRC's acceptable/total memory, where exactness matters most).
        """
        if max_pages < 1:
            raise ValueError(f"max pages must be positive: {max_pages}")
        sizes = {1, max_pages}
        ratio = max_pages ** (1.0 / max(points - 1, 1))
        size = 1.0
        for _ in range(points):
            sizes.add(min(max_pages, max(1, int(round(size)))))
            size *= ratio
        for knee in knees:
            if 1 <= knee <= max_pages:
                sizes.add(int(knee))
        ordered = tuple(sorted(sizes))
        return cls(
            sizes=ordered,
            miss_ratios=tuple(curve.miss_ratio(s) for s in ordered),
        )


@dataclass(frozen=True)
class ClassState:
    """One query class as the planner sees it."""

    context_key: str
    app: str
    pool: str
    """Engine the class is planned-resident on (first placed replica's)."""
    placement: tuple[str, ...]
    """Replica names the class is currently routed to."""
    pressure: float
    """Page accesses per second over the last trustworthy interval."""
    params: MRCParameters | None = None
    status: str = "stable"
    """``assess_recent_behaviour`` verdict for diagnosis candidates
    (``new``/``changed``/``unchanged``/...), ``stable`` otherwise."""

    @property
    def suspect(self) -> bool:
        return self.status in ("new", "changed")


@dataclass(frozen=True)
class PoolState:
    """One buffer pool (= one database engine) and what lives in it."""

    engine: str
    server: str
    pool_pages: int
    online: bool
    quotas: tuple[tuple[str, int], ...]
    replicas: tuple[tuple[str, str], ...]
    """(app, replica name) pairs served by this engine, sorted."""
    classes: tuple[str, ...]
    """Context keys planned-resident here, sorted."""

    def quota_map(self) -> dict[str, int]:
        return dict(self.quotas)


@dataclass(frozen=True)
class AppState:
    """One application's SLA standing at the planning instant."""

    app: str
    sla_latency: float
    sla_met: bool
    violation_streak: int
    mean_latency: float
    throughput: float
    replicas: tuple[str, ...]


@dataclass(frozen=True)
class ClusterSnapshot:
    """Everything the planner needs, detached from the live cluster."""

    interval_index: int
    interval_length: float
    apps: tuple[AppState, ...]
    pools: tuple[PoolState, ...]
    classes: tuple[ClassState, ...]
    idle_servers: tuple[str, ...]
    io_time_per_page: float
    curves: dict[str, object] = field(default_factory=dict, repr=False)
    """Stored miss-ratio curves by context key (not part of equality)."""

    def __post_init__(self) -> None:
        keys = [c.context_key for c in self.classes]
        if len(keys) != len(set(keys)):
            raise ValueError("duplicate context keys in snapshot")

    # -- lookups ------------------------------------------------------- #

    def app_state(self, app: str) -> AppState:
        for state in self.apps:
            if state.app == app:
                return state
        raise KeyError(f"no app {app!r} in snapshot")

    def pool(self, engine: str) -> PoolState:
        for state in self.pools:
            if state.engine == engine:
                return state
        raise KeyError(f"no pool {engine!r} in snapshot")

    def class_state(self, context_key: str) -> ClassState:
        for state in self.classes:
            if state.context_key == context_key:
                return state
        raise KeyError(f"no class {context_key!r} in snapshot")


@dataclass(frozen=True)
class WorkloadSummary:
    """Top-k classes by page pressure, with sampled curve slices.

    The planner scores candidate moves against this summary only, so one
    search step costs O(k · pools) slice lookups no matter how long the
    underlying traces were.  ``coverage`` reports the pressure fraction the
    summary captures; ``dropped`` names the classes it does not.
    """

    top: tuple[str, ...]
    slices: dict[str, CurveSlice] = field(default_factory=dict, repr=False)
    pressures: dict[str, float] = field(default_factory=dict, repr=False)
    coverage: float = 1.0
    dropped: tuple[str, ...] = ()

    @classmethod
    def from_snapshot(
        cls,
        snapshot: ClusterSnapshot,
        k: int = 12,
        points: int = 24,
    ) -> "WorkloadSummary":
        """Summarise the snapshot's classes that have a stored curve."""
        with_curves = [
            c for c in snapshot.classes if c.context_key in snapshot.curves
        ]
        ranked = sorted(
            with_curves, key=lambda c: (-c.pressure, c.context_key)
        )
        kept = ranked[: max(k, 0)]
        dropped = tuple(c.context_key for c in ranked[len(kept):])
        max_pages = max((p.pool_pages for p in snapshot.pools), default=1)
        slices: dict[str, CurveSlice] = {}
        for state in kept:
            knees: tuple[int, ...] = ()
            if state.params is not None:
                knees = (
                    state.params.acceptable_memory,
                    state.params.total_memory,
                )
            slices[state.context_key] = CurveSlice.from_curve(
                snapshot.curves[state.context_key],
                max_pages=max_pages,
                points=points,
                knees=knees,
            )
        total = sum(c.pressure for c in snapshot.classes) or 1.0
        covered = sum(c.pressure for c in kept)
        return cls(
            top=tuple(c.context_key for c in kept),
            slices=slices,
            pressures={c.context_key: c.pressure for c in kept},
            coverage=covered / total,
            dropped=dropped,
        )


def build_snapshot(
    controller,
    app: str | None = None,
    obs: Observability | None = None,
    diagnose_candidates: bool = True,
) -> ClusterSnapshot:
    """Assemble a :class:`ClusterSnapshot` from a live controller.

    ``app`` names the violated application whose candidate classes get the
    diagnosis-grade treatment (outliers/top-k/new classes re-assessed via
    ``assess_recent_behaviour``, exactly like the single-server path);
    every other class contributes its stored curve as-is, or a fresh
    initial MRC when its window is long enough.  With ``app=None`` (the
    CLI's whole-cluster view) no class is marked suspect.
    """
    obs = obs if obs is not None else getattr(controller, "obs", NULL_OBS)
    with obs.tracer.span(
        "planner.snapshot", attrs={"app": app or "*"}
    ) as span:
        snapshot = _assemble(controller, app, diagnose_candidates)
        span.set_attr("classes", len(snapshot.classes))
        span.set_attr("pools", len(snapshot.pools))
    return snapshot


def _assemble(
    controller, app: str | None, diagnose_candidates: bool
) -> ClusterSnapshot:
    config = controller.config
    diagnosis = config.diagnosis

    # Per-engine raw facts, one pass over the analyzers.
    engines: dict[str, dict] = {}
    per_class: dict[str, dict] = {}
    for analyzer in controller.analyzers():
        engine = analyzer.engine
        info = engines.setdefault(
            engine.name,
            {
                "server": analyzer.server_name,
                "pool_pages": engine.pool_pages,
                "quotas": engine.quotas,
                "replicas": set(),
            },
        )
        candidates: set[str] = set()
        if app is not None and diagnose_candidates:
            report = analyzer.detect(app)
            candidates.update(report.outlier_contexts())
            candidates.update(
                analyzer.heavyweight_contexts(app, k=diagnosis.top_k)
            )
            candidates.update(
                analyzer.new_contexts(None, diagnosis.new_class_horizon)
            )
        vectors = analyzer.effective_vectors()
        contexts = set(analyzer.mrc.contexts()) | set(vectors) | candidates
        for key in sorted(contexts):
            entry = per_class.setdefault(
                key, {"pressure": 0.0, "params": None, "curve": None,
                      "status": "stable", "engines": []}
            )
            entry["engines"].append(engine.name)
            vector = vectors.get(key)
            if vector is not None:
                entry["pressure"] += vector.values.get(
                    Metric.PAGE_ACCESSES, 0.0
                )
            if key in candidates:
                status, params = analyzer.assess_recent_behaviour(
                    key,
                    diagnosis.mrc_change_threshold,
                    new_class_horizon=diagnosis.new_class_horizon,
                )
                if params is not None:
                    entry["status"] = status
            else:
                analyzer.ensure_mrc(key)
            if analyzer.mrc.has(key):
                entry["params"] = analyzer.mrc.parameters_of(key)
                entry["curve"] = analyzer.mrc.curve_of(key)
        info["online"] = True

    # Replica topology + app SLA standing from the schedulers.
    placements: dict[str, tuple[str, ...]] = {}
    replica_engine: dict[str, str] = {}
    apps: list[AppState] = []
    last_report: dict[str, object] = {}
    for report in controller.reports:
        last_report[report.app] = report
    for name in sorted(controller.schedulers):
        scheduler = controller.schedulers[name]
        replica_names = scheduler.replica_names()
        for replica_name in replica_names:
            replica = scheduler.replicas[replica_name]
            engine_name = replica.engine.name
            replica_engine[replica_name] = engine_name
            info = engines.get(engine_name)
            if info is not None:
                info["replicas"].add((name, replica_name))
        for key in per_class:
            if app_of(key) == name:
                placements[key] = tuple(scheduler.placement_of(key))
        streak = controller.violation_streak(name)
        report = last_report.get(name)
        apps.append(
            AppState(
                app=name,
                sla_latency=scheduler.sla_latency,
                sla_met=streak == 0,
                violation_streak=streak,
                mean_latency=getattr(report, "mean_latency", 0.0),
                throughput=getattr(report, "throughput", 0.0),
                replicas=tuple(replica_names),
            )
        )

    pools = []
    for engine_name in sorted(engines):
        info = engines[engine_name]
        replicas = tuple(sorted(info["replicas"]))
        online = False
        for scheduler in controller.schedulers.values():
            for replica in scheduler.replicas.values():
                if replica.engine.name == engine_name and replica.online:
                    online = True
        pools.append(
            PoolState(
                engine=engine_name,
                server=info["server"],
                pool_pages=info["pool_pages"],
                online=online,
                quotas=tuple(sorted(info["quotas"].items())),
                replicas=replicas,
                classes=(),  # filled below once residency is known
            )
        )

    classes = []
    curves: dict[str, object] = {}
    resident: dict[str, list[str]] = {p.engine: [] for p in pools}
    for key in sorted(per_class):
        entry = per_class[key]
        placement = placements.get(key, ())
        home = None
        for replica_name in placement:
            engine_name = replica_engine.get(replica_name)
            if engine_name in resident:
                home = engine_name
                break
        if home is None:
            home = sorted(entry["engines"])[0] if entry["engines"] else ""
        if home in resident:
            resident[home].append(key)
        classes.append(
            ClassState(
                context_key=key,
                app=app_of(key),
                pool=home,
                placement=placement,
                pressure=entry["pressure"],
                params=entry["params"],
                status=entry["status"],
            )
        )
        if entry["curve"] is not None:
            curves[key] = entry["curve"]

    pools = [
        PoolState(
            engine=pool.engine,
            server=pool.server,
            pool_pages=pool.pool_pages,
            online=pool.online,
            quotas=pool.quotas,
            replicas=pool.replicas,
            classes=tuple(sorted(resident.get(pool.engine, ()))),
        )
        for pool in pools
    ]

    manager = controller.resource_manager
    return ClusterSnapshot(
        interval_index=controller.interval_index,
        interval_length=config.interval_length,
        apps=tuple(apps),
        pools=tuple(pools),
        classes=tuple(classes),
        idle_servers=tuple(manager.idle_servers()),
        io_time_per_page=manager.cost_model.io_time_per_page,
        curves=curves,
    )
