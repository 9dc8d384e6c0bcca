"""Micro-benchmark of the interval close: what it copies and what it frees.

Two pieces of the close, each timed as built and through the formulation it
replaced:

* a stable-state refresh of one class's curve over a full 150 000-access
  window — ``LogAnalyzer.recompute_mrc`` records a pending curve of the
  newest 60 000 accesses (``MAX_MRC_TRACE``).  As built the curve references
  its slice of the window; through the copying window of
  ``tests/oracles/eager_window.py`` the slice is copied out where it is
  taken, as every refresh did before curves became references.  The MRC
  store is emptied before each refresh, so both sides take a new curve every
  time.
* the flush of an engine's pending records — 256 records that
  ``QueryExecutor.execute`` returned for a sequential scan reading 1 000
  pages an execution, as ``hog_scan``'s scan does — through
  ``EngineLog.ingest``, after which the list is let go, as
  ``DatabaseEngine.flush_logs`` does.  As built a record holds counters
  only, and the demand vector died at execution.  The replaced side wraps
  each record as the ``PagedExecutionRecord`` of ``tests/oracles/record.py``,
  carrying the vector the executor handed to the window, so the flush frees
  256 page lists.  Should the executor's record carry the vector again, the
  two sides cost the same.

The table (``-rP`` shows it) is microseconds per operation, best of
``REPEATS`` each, the two sides timed in alternation (``alternate.py``).
Each case asserts one "faster than" ratio and no absolute time: a reference
at least ten times faster than the copy, a flush of counters at least twice
as fast as one that frees the vectors.
"""

import sys
from pathlib import Path

from alternate import best_in_alternation

from repro.core.analyzer import MAX_MRC_TRACE, LogAnalyzer
from repro.engine.access import SequentialChunkScan
from repro.engine.bufferpool import LRUBufferPool
from repro.engine.engine import DatabaseEngine, EngineConfig
from repro.engine.executor import QueryExecutor
from repro.engine.pages import PageRange
from repro.engine.query import QueryClass
from repro.engine.statslog import EngineLog
from repro.sim.trace import AccessWindow

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.eager_window import EagerCopyWindow  # noqa: E402
from oracles.record import PagedExecutionRecord  # noqa: E402

WINDOW = 150_000
SCAN_PAGES = 1_000
RECORDS = 256
REPEATS = 20
KEY = "app/scan"


def _refresh(window_type):
    """One refresh of a full window's curve, on a window of ``window_type``."""
    engine = DatabaseEngine(EngineConfig(name="e", window_capacity=WINDOW))
    engine.log._windows[KEY] = window_type(WINDOW)
    pages = list(range(SCAN_PAGES))
    for _ in range(WINDOW // SCAN_PAGES + 2):  # full and wrapped
        engine.log.record_window(KEY, pages)
    analyzer = LogAnalyzer(engine, "s1")

    def refresh() -> None:
        analyzer.mrc.reset()
        entry = analyzer.recompute_mrc(KEY)
        assert entry.pending_slice == (engine.log.window_for(KEY).total_seen, MAX_MRC_TRACE)

    return refresh


class _KeepingLog(EngineLog):
    """An engine log that keeps the last demand vector it was handed."""

    def record_window(self, key: str, pages: list[int]) -> None:
        super().record_window(key, pages)
        self.last = pages


def _flush(carry_vector: bool):
    """One close's flush of the pending records, and the untimed fill
    before it."""
    log = _KeepingLog()
    executor = QueryExecutor(LRUBufferPool(4 * SCAN_PAGES), log)
    scan = QueryClass(
        "scan", "app", 1, "select * from t",
        SequentialChunkScan(PageRange("t", 1_000_000, 100_000), SCAN_PAGES),
        cpu_cost=0.001,
    )
    pending = []

    def fill() -> None:
        for _ in range(RECORDS):
            record = executor.execute(scan)
            if carry_vector:
                record = PagedExecutionRecord(*record[:7], log.last)
            pending.append(record)

    def flush() -> None:
        assert len(pending) == RECORDS
        log.ingest(pending)
        pending.clear()

    return flush, fill


def _row(label: str, built: float, replaced: float) -> None:
    print(f"{'us per operation':<48}{'as built':>10}{'replaced':>10}")
    print(f"{label:<48}{built:>10.1f}{replaced:>10.1f}")


def _microseconds(runs, setups=None) -> list[float]:
    return [
        seconds * 1e6 for seconds in best_in_alternation(runs, REPEATS, setups)
    ]


def test_a_refresh_references_its_slice():
    copy, reference = _microseconds(
        (_refresh(EagerCopyWindow), _refresh(AccessWindow))
    )
    _row(f"refresh, {MAX_MRC_TRACE}-access slice: reference / copy", reference, copy)
    assert reference < copy / 10


def test_a_flush_frees_no_page_vectors():
    (flush_vectors, fill_vectors), (flush_counters, fill_counters) = (
        _flush(True), _flush(False)
    )
    vectors, counters = _microseconds(
        (flush_vectors, flush_counters), setups=(fill_vectors, fill_counters)
    )
    _row(f"flush, {RECORDS} x {SCAN_PAGES}-page records: counters / vector",
         counters, vectors)
    assert counters < vectors / 2
