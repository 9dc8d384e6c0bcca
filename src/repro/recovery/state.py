"""Serializable snapshots of the control plane's decision state.

What must survive a controller crash is exactly what cannot be re-derived
from the data plane: violation streaks and action-grace bookkeeping on the
controller, and per-engine learned state on every log analyzer — stable
signatures, each class's miss-ratio-curve slot with the store's hit and
recomputation tallies, measurement-window watermarks and first-seen indexes.
Engine buffer pools, statistics logs and replica placement are data-plane
state: they persist across a control-plane crash and are *not* snapshotted
(the reconcile pass diffs against them instead).

The export/restore pair is exact given the surviving data plane: restoring
a snapshot and exporting again produces an equal payload, and a restored
analyzer serves the same curves (without recomputation) as the original
would have — the Hypothesis byte-identity suite pins both.  Restoration
performs direct attribute assignment only; it never goes through
``MRCCache.get``/``record``, which would increment observability counters,
preserving the recovery subsystem's zero-telemetry contract.

Payload version 4 writes each analyzer's curves as one list of slot rows,
one per class: the key the curve was taken under, the "before" parameters
of an assessment, and the curve itself.  A checkpoint reads no curve: an
entry still pending is written as a reference to the slice of the engine's
access window it will analyse (the window is data-plane state and survives
the crash), and restore references that slice again from a pending entry,
copying nothing.  A slice the window no longer holds at restore leaves its
class without a slot, cold like any class the analyzer has not seen; one
the window had already overwritten when the checkpoint was taken (the
window copied it out first) is analysed and written like any analysed
entry.  An analysed curve is an immutable value, so its hit histogram is
encoded once — one text of comma-separated counts, kept on the curve — and
every later checkpoint reuses that text; restore hands the text it parsed
to the restored curve.  A checkpoint therefore costs what changed since the
last one (DESIGN §13).
"""

from __future__ import annotations

import json
from collections import deque

import numpy as np

from ..core.metrics import Metric, MetricVector
from ..core.mrc import (
    MissRatioCurve,
    MRCCache,
    MRCCacheKey,
    MRCEntry,
    MRCParameters,
    MRCSlot,
)
from ..sim.trace import AccessWindow

__all__ = [
    "export_controller_state",
    "restore_controller_state",
    "export_analyzer_state",
    "restore_analyzer_state",
    "export_cluster_state",
    "restore_cluster_state",
    "wipe_cluster_state",
]

STATE_VERSION = 4


# ---------------------------------------------------------------------- #
# Leaf converters                                                        #
# ---------------------------------------------------------------------- #


def _vector_to_jsonable(vector: MetricVector) -> list:
    # Pairs, not an object: JSON round-trips preserve list order exactly,
    # and metric iteration order feeds dict-ordered downstream code.
    return [[metric.value, value] for metric, value in vector.values.items()]


def _vector_from_jsonable(context_key: str, pairs: list) -> MetricVector:
    return MetricVector(
        context_key=context_key,
        values={Metric(name): value for name, value in pairs},
    )


def _params_to_jsonable(params: MRCParameters) -> dict:
    return {
        "total_memory": params.total_memory,
        "ideal_miss_ratio": params.ideal_miss_ratio,
        "acceptable_memory": params.acceptable_memory,
        "acceptable_miss_ratio": params.acceptable_miss_ratio,
        "threshold": params.threshold,
    }


def _params_from_jsonable(payload: dict | None) -> MRCParameters | None:
    if payload is None:
        return None
    return MRCParameters(**payload)


def _encode_hits(hits: np.ndarray) -> str:
    """The hit histogram as comma-separated decimal counts."""
    return json.dumps(hits.tolist(), separators=(",", ":"))[1:-1]


def _curve_to_jsonable(curve: MissRatioCurve) -> dict:
    # Encoded by the first checkpoint that holds the curve, reused after.
    text = curve._encoded_hits
    if text is None:
        text = curve._encoded_hits = _encode_hits(curve._hits)
    return {"hits": text, "cold": curve.cold_misses}


def _curve_from_jsonable(payload: dict) -> MissRatioCurve:
    text = payload["hits"]
    curve = MissRatioCurve(
        np.fromstring(text, dtype=np.int64, sep=","), payload["cold"]
    )
    curve._encoded_hits = text  # restore -> export re-encodes nothing
    return curve


def _entry_to_jsonable(entry: MRCEntry, window: AccessWindow) -> dict:
    """A pending entry whose slice ``window`` still holds as the slice's
    ``(watermark, length)``; any other as its curve and parameters."""
    pending = entry.pending_slice
    if pending is not None and window.holds(*pending):
        watermark, length = pending
        return {"watermark": watermark, "length": length}
    return {
        "curve": _curve_to_jsonable(entry.curve),
        "params": _params_to_jsonable(entry.parameters),
    }


def _entry_from_jsonable(
    payload: dict, window: AccessWindow, store: MRCCache
) -> MRCEntry | None:
    """The entry a slot row describes; ``None`` when it references a slice
    the window has evicted since the checkpoint."""
    if "watermark" not in payload:
        return MRCEntry.known(
            _params_from_jsonable(payload["params"]),
            _curve_from_jsonable(payload["curve"]),
        )
    watermark, length = payload["watermark"], payload["length"]
    if not window.holds(watermark, length):
        return None
    return MRCEntry(
        window.slice_ending_at(watermark, length),
        store.server_memory_pages, store.acceptable_threshold,
    )


def _slot_to_jsonable(key: str, slot: MRCSlot, window: AccessWindow) -> dict:
    row = {
        "context_key": key,
        "window_version": slot.key.window_version,
        "variant": slot.key.variant,
        **_entry_to_jsonable(slot.entry, window),
    }
    if slot.before is not None:  # an assessment's comparison slice
        row["before"] = _params_to_jsonable(slot.before)
    return row


# ---------------------------------------------------------------------- #
# Analyzer state                                                         #
# ---------------------------------------------------------------------- #


def export_analyzer_state(analyzer) -> dict:
    """Snapshot one :class:`~repro.core.analyzer.LogAnalyzer`.

    Armed fault hooks (``_gap_next``/``_corrupt_next``) and the last
    interval's lock evidence are transient by design: a restarted analyzer
    starts its next interval clean, exactly as a rebooted monitoring agent
    would.
    """
    log = analyzer.engine.log
    store = analyzer.mrc
    return {
        "server": analyzer.server_name,
        "engine": analyzer.engine.name,
        "intervals_closed": analyzer._intervals_closed,
        "first_seen": dict(analyzer._first_seen),
        "seen_marks": {
            key: list(marks) for key, marks in analyzer._seen_marks.items()
        },
        "last_vectors": {
            key: _vector_to_jsonable(vector)
            for key, vector in analyzer._last_vectors.items()
        },
        "quarantined_intervals": analyzer.quarantined_intervals,
        "degraded_last_interval": analyzer.degraded_last_interval,
        "signatures": {
            key: _vector_to_jsonable(vector)
            for key, vector in analyzer.signatures.items()
        },
        "mrc": {
            "recomputations": store.recomputations,
            "hits": store.hits,
            "slots": [
                _slot_to_jsonable(key, slot, log.window_for(key))
                for key, slot in store.slots()
            ],
        },
    }


def restore_analyzer_state(analyzer, state: dict) -> None:
    """Refill a (wiped) analyzer from an exported snapshot.

    A slot whose slice the engine's window has evicted restores as no curve
    at all: the class keeps its signature and gets no slot.
    """
    analyzer.amnesia()
    log = analyzer.engine.log
    analyzer.signatures = {
        key: _vector_from_jsonable(key, pairs)
        for key, pairs in state["signatures"].items()
    }
    store = analyzer.mrc
    store.recomputations = state["mrc"]["recomputations"]
    store.hits = state["mrc"]["hits"]
    for row in state["mrc"]["slots"]:
        key = row["context_key"]
        entry = _entry_from_jsonable(row, log.window_for(key), store)
        if entry is not None:
            store._slots[key] = MRCSlot(
                MRCCacheKey(row["window_version"], row["variant"]),
                entry,
                _params_from_jsonable(row.get("before")),
            )
    analyzer._intervals_closed = state["intervals_closed"]
    analyzer._first_seen = dict(state["first_seen"])
    analyzer._seen_marks = {
        key: deque(marks, maxlen=3)
        for key, marks in state["seen_marks"].items()
    }
    analyzer._last_vectors = {
        key: _vector_from_jsonable(key, pairs)
        for key, pairs in state["last_vectors"].items()
    }
    analyzer.quarantined_intervals = state["quarantined_intervals"]
    analyzer.degraded_last_interval = state["degraded_last_interval"]


# ---------------------------------------------------------------------- #
# Controller state                                                       #
# ---------------------------------------------------------------------- #


def export_controller_state(controller) -> dict:
    """Snapshot the controller's own decision bookkeeping."""
    return {
        "interval_index": controller._interval_index,
        "violation_streak": dict(controller._violation_streak),
        "low_util_streak": dict(controller._low_util_streak),
        "last_action_interval": dict(controller._last_action_interval),
        "fine_action_tried": dict(controller._fine_action_tried),
    }


def wipe_controller_state(controller) -> None:
    """The crash model for the controller proper.

    Streaks, grace bookkeeping, accumulated reports and the forecast engine
    (Holt levels, act-ahead budget, cooldown, pending records) are process
    memory and die with the process; schedulers, decision managers and
    resource manager are the surviving cluster, reachable again on restart.
    The forecaster is not checkpointed: it restarts cold, rebuilt by the
    first interval close under ``use_forecast``.
    """
    controller._violation_streak = {}
    controller._low_util_streak = {}
    controller._last_action_interval = {}
    controller._fine_action_tried = {}
    controller.reports = []
    controller.diagnoses = []
    controller.plans = []
    controller.forecaster = None
    controller._interval_index = 0


def restore_controller_state(controller, state: dict) -> None:
    controller._interval_index = state["interval_index"]
    controller._violation_streak = dict(state["violation_streak"])
    controller._low_util_streak = dict(state["low_util_streak"])
    controller._last_action_interval = dict(state["last_action_interval"])
    controller._fine_action_tried = dict(state["fine_action_tried"])


# ---------------------------------------------------------------------- #
# Whole-cluster aggregation                                              #
# ---------------------------------------------------------------------- #


def export_cluster_state(controller, epoch: int) -> dict:
    """The full checkpoint payload: controller plus every analyzer."""
    return {
        "version": STATE_VERSION,
        "epoch": epoch,
        "controller": export_controller_state(controller),
        "analyzers": [
            export_analyzer_state(analyzer)
            for analyzer in controller.analyzers()
        ],
    }


def _analyzer_index(controller) -> dict:
    return {
        (analyzer.server_name, analyzer.engine.name): analyzer
        for analyzer in controller.analyzers()
    }


def wipe_cluster_state(controller) -> None:
    wipe_controller_state(controller)
    for analyzer in controller.analyzers():
        analyzer.amnesia()


def restore_cluster_state(controller, state: dict) -> None:
    """Refill the control plane from a checkpoint payload.

    Analyzers that exist live but are absent from the snapshot (replicas
    provisioned after the checkpoint was taken) simply start cold — their
    learned state was younger than the checkpoint and is legitimately lost.
    """
    if state.get("version") != STATE_VERSION:
        raise ValueError(
            f"unsupported checkpoint version: {state.get('version')!r}"
        )
    restore_controller_state(controller, state["controller"])
    live = _analyzer_index(controller)
    for payload in state["analyzers"]:
        analyzer = live.get((payload["server"], payload["engine"]))
        if analyzer is not None:
            restore_analyzer_state(analyzer, payload)
