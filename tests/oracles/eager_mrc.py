"""Oracle: the analyzer that analyses every miss-ratio curve when it takes it.

``repro.core.analyzer.LogAnalyzer`` records each curve as a pending
``MRCEntry`` and runs Mattson's pass on the first read.  This is the
formulation it replaced: the stable-state refresh, the diagnosis-time
recomputation and the assessment build curve and parameters on the spot.  It
is the specification of *what* every read returns, what the telemetry says
and what a restored analyzer reads; the on-demand suite runs both side by
side.

Only the storage format follows the current code — one ``MRCCache`` slot per
class, holding an ``MRCEntry.known`` value per curve taken, so that
``repro.recovery.state`` exports and restores both analyzers the same way
(every entry here is analysed, so its checkpoint holds curves where the
on-demand analyzer's holds window references).  :func:`eager_analyzers` makes
every cluster built inside the block attach this analyzer.
"""

from __future__ import annotations

from contextlib import contextmanager

import repro.core.analyzer as analyzer_module
from repro.core.analyzer import MAX_MRC_TRACE, LogAnalyzer
from repro.core.mrc import (
    MissRatioCurve,
    MRCCache,
    MRCCacheKey,
    MRCEntry,
    MRCParameters,
    MRCSlot,
)

__all__ = ["EagerMRCCache", "EagerLogAnalyzer", "eager_analyzers"]


class EagerMRCCache(MRCCache):
    """Slots whose curve and parameters are computed before they are stored."""

    def store(
        self,
        context_key: str,
        key: MRCCacheKey,
        curve: MissRatioCurve,
        params: MRCParameters,
    ) -> MRCSlot:
        slot = MRCSlot(key, MRCEntry.known(params, curve))
        self._slots[context_key] = slot
        self.recomputations += 1
        app = context_key.split("/", 1)[0]
        self.registry.counter("mrc.recomputations", app=app).inc()
        self.registry.histogram("mrc.trace_length").observe(curve.total_accesses)
        return slot


class EagerLogAnalyzer(LogAnalyzer):
    """``LogAnalyzer`` whose every curve is analysed where it is taken."""

    def __init__(self, engine, server_name, obs=None) -> None:
        super().__init__(engine, server_name, obs=obs)
        self.mrc = EagerMRCCache(
            server_memory_pages=engine.pool_pages, registry=self.obs.registry
        )

    def ensure_mrc(self, context_key: str) -> MRCParameters | None:
        if self.mrc.has(context_key):
            return self.mrc.parameters_of(context_key)
        entry = self.recompute_mrc(context_key)
        return entry.parameters if entry is not None else None

    def _build_curve(self, trace, span) -> tuple[MissRatioCurve, MRCParameters]:
        span.set_attr("exact_units", len(trace))
        curve = MissRatioCurve.from_trace(trace)
        span.set_attr("mode", "exact")
        span.add_cost(len(trace))
        params = curve.parameters(
            self.mrc.server_memory_pages, self.mrc.acceptable_threshold
        )
        return curve, params

    def recompute_mrc(
        self, context_key: str, recent_only: bool = False, min_tail: int = 2000
    ) -> MRCEntry | None:
        if not self.engine.log.has_window(context_key):
            return None
        window = self.engine.log.window_for(context_key)
        keep = len(window)
        variant = "full"
        if recent_only:
            marks = self._seen_marks.get(context_key)
            base = marks[-2] if marks and len(marks) >= 2 else 0
            variant = f"recent:{min_tail}:{base}"
            if marks:
                tail = window.total_seen - base
                keep = max(min(tail, keep), min(min_tail, keep))
        trace = window.snapshot(last=min(keep, MAX_MRC_TRACE))
        key = MRCCacheKey(window.total_seen, variant)
        slot = self.mrc.get(context_key, key)
        if slot is None:
            with self.obs.tracer.span(
                "mrc.recompute",
                attrs={"context": context_key, "recent_only": recent_only},
            ) as span:
                curve, params = self._build_curve(trace, span)
                slot = self.mrc.store(context_key, key, curve, params)
        return slot.entry

    def assess_recent_behaviour(
        self,
        context_key: str,
        change_threshold: float,
        min_tail: int = 2000,
        new_class_horizon: int = 5,
    ) -> tuple[str, MRCParameters | None]:
        if not self.engine.log.has_window(context_key):
            return ("no-window", None)
        is_new = self.recently_scheduled(context_key, new_class_horizon)
        window = self.engine.log.window_for(context_key)
        trace = window.snapshot()
        marks = self._seen_marks.get(context_key)
        base = marks[-2] if marks and len(marks) >= 2 else 0
        tail = window.total_seen - base
        tail = max(min(tail, len(trace)), min(min_tail, len(trace)))
        recent = trace[-tail:]
        if len(recent) < min_tail:
            return ("insufficient", None)
        before = trace[: min(tail, len(trace) - tail)]
        key = MRCCacheKey(
            window.total_seen, f"assess:{min_tail}:{base}:{int(is_new)}"
        )
        slot = self.mrc.get(context_key, key)
        if slot is None:
            with self.obs.tracer.span(
                "mrc.recompute", attrs={"context": context_key, "assess": True}
            ) as span:
                recent_curve, recent_params = self._build_curve(recent, span)
                slot = self.mrc.store(context_key, key, recent_curve, recent_params)
            if not is_new and len(before) >= min(min_tail, tail) // 2:
                with self.obs.tracer.span(
                    "mrc.recompute",
                    attrs={"context": context_key, "assess": True,
                           "slice": "before"},
                ) as span:
                    _, slot.before = self._build_curve(before, span)
        recent_params = slot.entry.parameters
        before_params = slot.before
        if is_new:
            return ("new", recent_params)
        if before_params is None:
            return ("unchanged", recent_params)
        changed = recent_params.significantly_differs_from(
            before_params, change_threshold
        )
        return ("changed" if changed else "unchanged", recent_params)


@contextmanager
def eager_analyzers():
    """Within the block every ``DecisionManager`` attaches the oracle."""
    served = analyzer_module.LogAnalyzer
    analyzer_module.LogAnalyzer = EagerLogAnalyzer
    try:
        yield
    finally:
        analyzer_module.LogAnalyzer = served
