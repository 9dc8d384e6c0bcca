"""Per-server decision managers and per-engine log analyzers.

The schedulers communicate with one decision manager per physical server;
each decision manager drives one log analyzer per database engine on its
server (paper §3.1).  The log analyzer is where the monitoring pipeline
meets the detection algorithm:

* at every interval boundary it drains the engine's statistics log into
  per-context metric vectors,
* for applications whose SLA was met it refreshes stable-state signatures —
  each context's last stable metric vector, nothing more (paper §1),
* on demand it runs outlier detection against those signatures and manages
  the per-context miss-ratio curves, one slot per context in one
  :class:`~repro.core.mrc.MRCCache` (taken on first scheduling, analysed
  when first read, recomputed during diagnosis).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from ..engine.engine import DatabaseEngine
from ..engine.query import app_of
from ..obs import NULL_OBS, Observability
from .metrics import Metric, MetricVector, vector_from_stats
from .mrc import MRCCache, MRCCacheKey, MRCEntry, MRCParameters
from .outliers import OutlierReport, detect_outliers, top_k_heavyweight

__all__ = ["LogAnalyzer", "DecisionManager"]

MAX_MRC_TRACE = 60_000
"""Stack-distance analysis is O(n log n); traces are clipped to this many
accesses, which is ample for working sets up to the pool size."""


def _vector_sane(vector: MetricVector) -> bool:
    """Whether every metric value is finite and non-negative.

    The engine's own accumulators can only produce such values, so anything
    else means the statistics path was corrupted in flight; feeding it to
    the IQR detector would poison fences and impact scores for every class
    in the window.
    """
    return all(
        math.isfinite(value) and value >= 0.0
        for value in vector.values.values()
    )


class LogAnalyzer:
    """Monitors one database engine and detects outlier contexts on it."""

    def __init__(
        self,
        engine: DatabaseEngine,
        server_name: str,
        obs: Observability | None = None,
    ) -> None:
        self.engine = engine
        self.server_name = server_name
        self.obs = obs if obs is not None else NULL_OBS
        # Stable-state signatures: each context's metric averages over the
        # last interval in which its application met the SLA.
        self.signatures: dict[str, MetricVector] = {}
        self.mrc = MRCCache(
            server_memory_pages=engine.pool_pages, registry=self.obs.registry
        )
        self._last_vectors: dict[str, MetricVector] = {}
        self._intervals_closed = 0
        self._first_seen: dict[str, int] = {}
        # Lock-contention evidence from the interval just closed.
        self.last_waits_for = None
        self.last_lock_stats: dict = {}
        # total_seen watermark of each context's window at recent interval
        # boundaries; the delta to the oldest mark is the "recent tail" the
        # diagnosis-time MRC recomputation uses.
        self._seen_marks: dict[str, deque[int]] = {}
        # Degraded-mode state: armed faults (consumed by the next drain) and
        # the quarantine verdict of the interval just closed.
        self._gap_next: str | None = None
        self._corrupt_next: tuple[Metric, ...] | None = None
        self.degraded_last_interval: str | None = None
        self.quarantined_intervals = 0

    # ------------------------------------------------------------------ #
    # Interval pipeline                                                  #
    # ------------------------------------------------------------------ #

    def close_interval(
        self,
        interval_length: float,
        sla_met_by_app: dict[str, bool],
        initial_mrc_min_accesses: int = 2000,
    ) -> dict[str, MetricVector]:
        """Drain the engine log and refresh signatures for stable apps.

        Returns the interval's metric vectors (also retained internally for
        subsequent ``detect`` calls).

        For contexts of *stable* applications that lack a miss-ratio curve,
        the initial MRC is taken here — the paper determines a class's MRC
        when it is first scheduled.  Contexts of violating applications are
        deliberately left without an MRC so diagnosis recognises them as
        newly scheduled problem classes.  Refreshes only record the window:
        a curve nothing reads is never analysed.
        """
        with self.obs.tracer.span(
            "analyzer.drain",
            attrs={"engine": self.engine.name, "server": self.server_name},
        ) as span:
            vectors = self._drain(
                interval_length, sla_met_by_app, initial_mrc_min_accesses, span
            )
        return vectors

    def _drain(
        self,
        interval_length: float,
        sla_met_by_app: dict[str, bool],
        initial_mrc_min_accesses: int,
        span,
    ) -> dict[str, MetricVector]:
        self.engine.flush_logs()
        self.last_waits_for = self.engine.locks.reset_waits_for()
        self.last_lock_stats = self.engine.locks.interval_snapshot()
        snapshot = self.engine.log.interval_snapshot()
        span.add_cost(sum(stats.executions for stats in snapshot.values()))
        vectors = {
            key: vector_from_stats(stats, interval_length)
            for key, stats in snapshot.items()
        }
        vectors, degraded = self._screen_vectors(vectors)
        self.degraded_last_interval = degraded
        if degraded is not None:
            # Quarantine: a partial or corrupt window refreshes nothing.
            # Signatures and MRCs keep their last stable state, detection
            # sees no vectors it could be misled by, and the controller
            # (via ``degraded_last_interval``) refuses to act this round.
            self._quarantine(degraded, span)
            self._intervals_closed += 1
            self._last_vectors = {}
            self._publish_pool_metrics()
            return {}
        stable_updates = {
            key: vector
            for key, vector in vectors.items()
            if sla_met_by_app.get(app_of(key), False)
        }
        self.signatures.update(stable_updates)
        for key in stable_updates:
            window = self.engine.log.window_for(key)
            slot = self.mrc.slot(key)
            if slot is None:
                if len(window) >= initial_mrc_min_accesses:
                    self.recompute_mrc(key)
            else:
                # Refine the initial estimate while the window is still
                # filling: a curve computed over a short, cold-miss-dominated
                # window badly underestimates memory needs.  Each refresh
                # requires the window to have doubled, so a long-lived class
                # is re-recorded only O(log window-capacity) times, and a
                # refresh replaces a pending curve without analysing it.
                # The window held this many accesses when the curve was taken.
                seen = min(slot.key.window_version, window.capacity)
                if 0 < seen < window.capacity and len(window) >= 2 * seen:
                    self.recompute_mrc(key)
        for key in vectors:
            marks = self._seen_marks.setdefault(key, deque(maxlen=3))
            marks.append(self.engine.log.window_for(key).total_seen)
            self._first_seen.setdefault(key, self._intervals_closed)
        self._intervals_closed += 1
        self._last_vectors = vectors
        self._publish_pool_metrics()
        return vectors

    def _screen_vectors(
        self, vectors: dict[str, MetricVector]
    ) -> tuple[dict[str, MetricVector], str | None]:
        """Apply armed faults, then sanity-screen what the log produced.

        Returns the surviving vectors and the degradation reason (``None``
        for a healthy interval).  The screen itself is always on — it is
        the defensive layer; the injection hooks merely exercise it.
        """
        reason: str | None = None
        if self._gap_next is not None:
            reason = self._gap_next
            self._gap_next = None
            return {}, reason
        if self._corrupt_next is not None:
            fields = self._corrupt_next
            self._corrupt_next = None
            vectors = {
                key: MetricVector(
                    context_key=vector.context_key,
                    values={
                        metric: (float("nan") if metric in fields else value)
                        for metric, value in vector.values.items()
                    },
                )
                for key, vector in vectors.items()
            }
        sane = {
            key: vector for key, vector in vectors.items() if _vector_sane(vector)
        }
        dropped = len(vectors) - len(sane)
        if dropped:
            reason = "corrupt-metrics"
            registry = self.obs.registry
            if registry.enabled:
                registry.counter(
                    "analyzer.corrupt_vectors",
                    engine=self.engine.name,
                    server=self.server_name,
                ).inc(dropped)
        return sane, reason

    def _quarantine(self, reason: str, span) -> None:
        self.quarantined_intervals += 1
        span.set_attr("quarantined", reason)
        registry = self.obs.registry
        if registry.enabled:
            registry.counter(
                "analyzer.windows_quarantined",
                engine=self.engine.name,
                server=self.server_name,
                reason=reason,
            ).inc()

    def amnesia(self) -> None:
        """Forget everything learned: the control-plane crash model.

        A monitoring-agent restart keeps its configuration (engine
        attachment, server identity) but loses process
        memory: signatures, miss-ratio curves, window
        watermarks, quarantine history and any armed fault hooks.  The
        data plane — the engine's statistics log and buffer pool — is
        untouched; it belongs to the database process, not the monitor.
        Counters are reset by direct assignment so amnesia itself emits
        no telemetry (recovery's zero-byte default contract).
        """
        self.signatures = {}
        self.mrc.reset()
        self._last_vectors = {}
        self._intervals_closed = 0
        self._first_seen = {}
        self.last_waits_for = None
        self.last_lock_stats = {}
        self._seen_marks = {}
        self._gap_next = None
        self._corrupt_next = None
        self.degraded_last_interval = None
        self.quarantined_intervals = 0

    # ------------------------------------------------------------------ #
    # Fault hooks (consumed by the next interval drain)                  #
    # ------------------------------------------------------------------ #

    def inject_stats_gap(self, reason: str = "stats-gap") -> None:
        """Arm a one-interval statistics-log gap: the next drain loses the
        engine log's snapshot, as a crashed monitoring agent would."""
        self._gap_next = reason

    def inject_metric_corruption(
        self, fields: tuple[Metric, ...] | None = None
    ) -> None:
        """Arm one interval of corrupt metric values (NaN latency by
        default); the sanity screen must quarantine them rather than feed
        them to the IQR detector."""
        self._corrupt_next = tuple(fields) if fields else (Metric.LATENCY,)

    def _publish_pool_metrics(self) -> None:
        """Export the engine pool's cumulative counters as gauges.

        Published at interval close rather than on every page access, so the
        buffer pool's hot path carries no instrumentation calls at all.
        """
        registry = self.obs.registry
        if not registry.enabled:
            return
        pool = self.engine.pool
        labels = {"engine": self.engine.name, "server": self.server_name}
        registry.gauge("bufferpool.hits", **labels).set(pool.stats.hits)
        registry.gauge("bufferpool.misses", **labels).set(pool.stats.misses)
        registry.gauge("bufferpool.readaheads", **labels).set(
            pool.stats.readaheads
        )
        registry.gauge("bufferpool.evictions", **labels).set(
            pool.total_evictions
        )
        registry.gauge("bufferpool.resident_pages", **labels).set(len(pool))

    def current_vectors(self, app: str | None = None) -> dict[str, MetricVector]:
        """The most recent interval's vectors, optionally for one app."""
        if app is None:
            return dict(self._last_vectors)
        return {
            key: vector
            for key, vector in self._last_vectors.items()
            if app_of(key) == app
        }

    def effective_vectors(self, app: str | None = None) -> dict[str, MetricVector]:
        """Current vectors, falling back to the last stable-state signature
        when the last window was quarantined.

        Degraded-mode evidence for read-only consumers (dashboards, load
        estimates): stale-but-sane beats fresh-but-corrupt.  The controller
        itself still refuses to *retune* on a quarantined interval — the
        fallback describes the recent past, not the violating present.
        """
        if self.degraded_last_interval is None:
            return self.current_vectors(app)
        if app is None:
            return dict(self.signatures)
        return {
            key: vector
            for key, vector in self.signatures.items()
            if app_of(key) == app
        }

    # ------------------------------------------------------------------ #
    # Detection                                                          #
    # ------------------------------------------------------------------ #

    def detect(self, app: str) -> OutlierReport:
        """Outlier contexts of ``app`` on this engine, per the paper's IQR
        scheme over metric impact values."""
        current = self.current_vectors(app)
        stable = {
            key: vector
            for key, vector in self.signatures.items()
            if key in current
        }
        return detect_outliers(current, stable)

    def heavyweight_contexts(self, app: str, k: int = 3) -> list[str]:
        """Fallback candidates when no outliers fire (paper §3.3.2)."""
        current = self.current_vectors(app)
        if not current:
            return []
        return top_k_heavyweight(current, k=min(k, len(current)))

    def recently_scheduled(self, context_key: str, horizon: int = 5) -> bool:
        """Whether the context first appeared on this engine within the last
        ``horizon`` closed intervals — the reproduction's notion of a "newly
        scheduled" class."""
        first = self._first_seen.get(context_key)
        if first is None:
            return True
        return self._intervals_closed - first <= horizon

    def new_contexts(
        self, app: str | None = None, horizon: int = 5
    ) -> list[str]:
        """Contexts active this interval that were only recently scheduled —
        problem classes directly (paper §3.3.2).

        With ``app=None`` all applications on the engine are considered:
        memory interference is cross-application (a newly started workload
        in a shared buffer pool victimises the incumbent), so a violation of
        one application legitimately blames another's new classes.
        """
        return sorted(
            key
            for key in self.current_vectors(app)
            if self.recently_scheduled(key, horizon)
        )

    # ------------------------------------------------------------------ #
    # MRC management                                                     #
    # ------------------------------------------------------------------ #

    def ensure_mrc(self, context_key: str) -> MRCParameters | None:
        """The context's MRC parameters, taking its curve if it has none yet.

        Returns ``None`` when the engine has no recent-access window for the
        context (it has not executed here yet).  This is a read: a curve
        still pending is analysed here.
        """
        if self.mrc.has(context_key):
            return self.mrc.parameters_of(context_key)
        entry = self.recompute_mrc(context_key)
        return entry.parameters if entry is not None else None

    @staticmethod
    def _count_work(span, trace) -> None:
        """The span's work units of one exact stack-distance analysis:
        ``exact_units`` and ``cost`` are both the trace length, whenever the
        analysis runs."""
        span.set_attr("exact_units", len(trace))
        span.set_attr("mode", "exact")
        span.add_cost(len(trace))

    def recompute_mrc(
        self, context_key: str, recent_only: bool = False, min_tail: int = 2000
    ) -> MRCEntry | None:
        """Take the MRC of the recent page-access window.

        With ``recent_only`` the trace is limited to accesses issued over
        roughly the last two measurement intervals — the diagnosis path uses
        this so a curve recomputed *after* a behaviour change (index drop, a
        new workload) reflects the changed plan rather than a blend of old
        and new history.

        The class's slot in :class:`MRCCache` is read first: if the window
        has not advanced since the class's curve was taken of the same
        slice, that curve is served without any stack-distance work — and
        without incrementing the ``mrc.recomputations`` counter.

        Returns the recorded :class:`MRCEntry` (``None`` without a window).
        It is pending until something reads it: the stable-state refresh
        only records, and the curve is analysed on the first read.
        """
        if not self.engine.log.has_window(context_key):
            return None
        window = self.engine.log.window_for(context_key)
        keep = len(window)
        variant = "full"
        if recent_only:
            marks = self._seen_marks.get(context_key)
            # marks[-1] is the watermark at the close of the interval
            # being diagnosed, so marks[-2] bounds exactly that
            # interval's accesses — the post-change behaviour.
            base = marks[-2] if marks and len(marks) >= 2 else 0
            variant = f"recent:{min_tail}:{base}"
            if marks:
                tail = window.total_seen - base
                keep = max(min(tail, keep), min(min_tail, keep))
        key = MRCCacheKey(window.total_seen, variant)
        slot = self.mrc.get(context_key, key)
        if slot is None:
            trace = window.slice_ending_at(
                window.total_seen, min(keep, MAX_MRC_TRACE)
            )
            with self.obs.tracer.span(
                "mrc.recompute",
                attrs={"context": context_key, "recent_only": recent_only},
            ) as span:
                self._count_work(span, trace)
                slot = self.mrc.record(context_key, key, trace)
        return slot.entry

    def stored_mrc(self, context_key: str) -> MRCParameters | None:
        """The context's MRC parameters, if it has a curve; a read."""
        slot = self.mrc.slot(context_key)
        return None if slot is None else slot.entry.parameters

    def assess_recent_behaviour(
        self,
        context_key: str,
        change_threshold: float,
        min_tail: int = 2000,
        new_class_horizon: int = 5,
    ) -> tuple[str, MRCParameters | None]:
        """Did this context's paging behaviour recently change?

        Computes MRC parameters over the most recent interval's accesses and
        over an *equal-length* slice of the history immediately preceding it,
        then applies the significance test.  Comparing equal-length slices
        cancels trace-length artefacts (short traces are cold-miss dominated,
        which inflates apparent parameter changes).

        Returns ``(status, recent_params)`` where status is one of

        * ``"no-window"`` — the context never executed here,
        * ``"insufficient"`` — too few recent accesses to judge the class,
        * ``"new"`` — no MRC was ever recorded for the class here: a newly
          scheduled class (a problem class by definition),
        * ``"changed"`` / ``"unchanged"`` — the significance verdict.

        Whenever a recent curve is computed it is stored as the context's
        current MRC record (the paper's recomputation step), and the
        "before" parameters beside it in the class's slot: re-assessing a
        class whose window has not advanced serves the previous pair without
        any new stack-distance work.  The verdict reads both curves, so they
        are analysed here, not left pending.
        """
        if not self.engine.log.has_window(context_key):
            return ("no-window", None)
        is_new = self.recently_scheduled(context_key, new_class_horizon)
        window = self.engine.log.window_for(context_key)
        seen, size = window.total_seen, len(window)
        marks = self._seen_marks.get(context_key)
        base = marks[-2] if marks and len(marks) >= 2 else 0
        tail = seen - base
        tail = max(min(tail, size), min(min_tail, size))
        recent_length = tail or size  # no tail at all reads the whole window
        if recent_length < min_tail:
            return ("insufficient", None)
        # The comparison slice comes from the *oldest* end of the window:
        # a change is typically noticed one interval after it happens (the
        # violation has to build up first), so the slice immediately before
        # the recent tail may already exhibit the new behaviour.  The oldest
        # resident history is the best stable-era evidence available.
        before_length = min(tail, size - tail)
        # is_new participates in the key: an established class needs the
        # "before" curve the new-class assessment never computed.
        key = MRCCacheKey(seen, f"assess:{min_tail}:{base}:{int(is_new)}")
        slot = self.mrc.get(context_key, key)
        if slot is None:
            recent = window.slice_ending_at(seen, recent_length)
            with self.obs.tracer.span(
                "mrc.recompute", attrs={"context": context_key, "assess": True}
            ) as span:
                self._count_work(span, recent)
                slot = self.mrc.record(context_key, key, recent)
            if not is_new and before_length >= min(min_tail, tail) // 2:
                before = window.slice_ending_at(
                    seen - size + before_length, before_length
                )
                with self.obs.tracer.span(
                    "mrc.recompute",
                    attrs={"context": context_key, "assess": True,
                           "slice": "before"},
                ) as span:
                    self._count_work(span, before)
                    before_params = MRCEntry(
                        before,
                        self.mrc.server_memory_pages,
                        self.mrc.acceptable_threshold,
                    ).parameters
                slot.before = before_params
        recent_params = slot.entry.parameters
        before_params = slot.before
        if is_new:
            return ("new", recent_params)
        if before_params is None:
            # Not enough prior history for a like-for-like comparison; an
            # established class cannot be called changed on this evidence.
            return ("unchanged", recent_params)
        changed = recent_params.significantly_differs_from(
            before_params, change_threshold
        )
        return ("changed" if changed else "unchanged", recent_params)


@dataclass
class DecisionManager:
    """One per physical server: fans interval processing out to the log
    analyzers of every engine hosted there."""

    server_name: str
    obs: Observability = NULL_OBS

    def __post_init__(self) -> None:
        self._analyzers: dict[str, LogAnalyzer] = {}

    def attach_engine(self, engine: DatabaseEngine) -> LogAnalyzer:
        if engine.name in self._analyzers:
            return self._analyzers[engine.name]
        analyzer = LogAnalyzer(engine, self.server_name, obs=self.obs)
        self._analyzers[engine.name] = analyzer
        return analyzer

    def analyzer_for(self, engine_name: str) -> LogAnalyzer:
        try:
            return self._analyzers[engine_name]
        except KeyError:
            raise KeyError(
                f"server {self.server_name!r} has no engine {engine_name!r}"
            ) from None

    def analyzers(self) -> list[LogAnalyzer]:
        return [self._analyzers[name] for name in sorted(self._analyzers)]

    def close_interval(
        self,
        interval_length: float,
        sla_met_by_app: dict[str, bool],
    ) -> None:
        for analyzer in self.analyzers():
            analyzer.close_interval(interval_length, sla_met_by_app)
