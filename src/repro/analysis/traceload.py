"""Trace compression: distill query logs into representative classes.

A production query log is far too large to replay against the simulator, but
the paper's machinery only needs each query class's *page-reference
behaviour*: how many pages a class touches, how skewed its popularity is and
whether it scans.  This module compresses a page-access trace (the
:class:`~repro.sim.trace.PageAccessTrace` the simulator emits, or a simple
CSV query log) into one fitted model per query class:

* **scan** classes — runs of consecutive page ids dominate the trace — are
  modelled as a cyclic sequential sweep over their footprint, the
  LRU-pathological shape of Figure 5's un-indexed BestSeller;
* everything else is modelled as a **zipf** popularity law: the unique pages
  ordered by observed frequency, plus an exponent ``theta`` fitted by L1
  distance between the empirical rank-frequency distribution and the exact
  Zipf mass function.

The compression is *validated by replay*: each class model regenerates a
synthetic trace of the original length and the per-class fetch ratio
(Mattson miss ratio at a reference pool size) must agree with the original
trace within a declared tolerance.  :class:`FittedPattern` then lets a
fitted model drive the simulator as a first-class
:class:`~repro.engine.access.AccessPattern`.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from ..engine.access import AccessPattern, ExecutionAccess, ZipfPages
from ..engine.query import normalize_template
from ..sim.rng import RandomStream, SeedSequenceFactory, ZipfGenerator
from ..sim.trace import PageAccessTrace

__all__ = [
    "ClassModel",
    "CompressionReport",
    "FittedPattern",
    "read_csv_trace",
    "pages_by_class",
    "fit_class_model",
    "compress_trace",
    "replay_model",
    "validate_compression",
]

DEFAULT_POOL_PAGES = 8192
DEFAULT_TOLERANCE = 0.05
# Fraction of +1 deltas above which a class is modelled as a sequential scan.
SCAN_DELTA_SHARE = 0.8
THETA_GRID = [round(0.05 * k, 2) for k in range(0, 40)]  # 0.00 .. 1.95

_PAGE_COLUMNS = ("page", "page_id")
_CLASS_COLUMNS = ("query_class", "class")
_SQL_COLUMNS = ("sql", "query", "statement")


@dataclass(frozen=True)
class ClassModel:
    """The compressed representation of one query class's page behaviour."""

    name: str
    kind: str  # "zipf" | "scan"
    accesses: int
    footprint: int
    theta: float  # 0.0 for scan models
    # zipf: unique pages ordered most- to least-frequent (ties: ascending id);
    # scan: unique pages ascending.
    pages: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("zipf", "scan"):
            raise ValueError(f"unknown model kind: {self.kind!r}")
        if self.accesses <= 0:
            raise ValueError(f"model needs accesses: {self.accesses}")
        if self.footprint != len(self.pages):
            raise ValueError(
                f"footprint {self.footprint} != page count {len(self.pages)}"
            )

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "accesses": self.accesses,
            "footprint": self.footprint,
            "theta": round(self.theta, 6),
        }


@dataclass
class CompressionReport:
    """Replay validation of a compressed trace, one row per class."""

    pool_pages: int
    tolerance: float
    rows: list[dict] = field(default_factory=list)

    @property
    def within_tolerance(self) -> bool:
        return all(row["within_tolerance"] for row in self.rows)


def read_csv_trace(source: str | Iterable[str]) -> PageAccessTrace:
    """Parse a CSV query log into a :class:`PageAccessTrace`.

    ``source`` is a file path or an iterable of CSV lines.  The log needs a
    page column (``page`` or ``page_id``) and a class column — either a
    ready class name (``query_class``/``class``) or raw SQL
    (``sql``/``query``/``statement``), which is normalised into a template
    via :func:`~repro.engine.query.normalize_template` so that literals do
    not explode the class space.
    """
    if isinstance(source, str):
        with open(source, newline="") as handle:
            return read_csv_trace(handle.readlines())
    reader = csv.DictReader(io.StringIO("".join(line.rstrip("\n") + "\n" for line in source)))
    if reader.fieldnames is None:
        raise ValueError("CSV trace has no header row")
    fields = [name.strip().lower() for name in reader.fieldnames]
    page_col = next((c for c in _PAGE_COLUMNS if c in fields), None)
    class_col = next((c for c in _CLASS_COLUMNS if c in fields), None)
    sql_col = next((c for c in _SQL_COLUMNS if c in fields), None)
    if page_col is None:
        raise ValueError(
            f"CSV trace needs a page column ({'/'.join(_PAGE_COLUMNS)}); "
            f"got {fields}"
        )
    if class_col is None and sql_col is None:
        raise ValueError(
            "CSV trace needs a query_class or sql column; got " f"{fields}"
        )
    trace = PageAccessTrace()
    for row in reader:
        row = {key.strip().lower(): value for key, value in row.items() if key}
        if class_col is not None:
            name = (row.get(class_col) or "").strip()
        else:
            name = normalize_template(row.get(sql_col) or "")
        if not name:
            raise ValueError(f"CSV row has no query class: {row}")
        trace.append(int(row[page_col]), name)
    return trace


def pages_by_class(trace: PageAccessTrace) -> dict[str, np.ndarray]:
    """Split a tagged trace into per-class page arrays (order preserved)."""
    pages = trace.pages()
    classes = np.asarray(trace.classes())
    return {
        str(name): pages[classes == name]
        for name in sorted(set(trace.classes()))
    }


def _sequential_share(pages: np.ndarray) -> float:
    """Fraction of successive accesses that advance by exactly one page."""
    if len(pages) < 2:
        return 0.0
    deltas = np.diff(pages)
    return float(np.count_nonzero(deltas == 1)) / len(deltas)


def _fit_theta(frequencies: np.ndarray) -> float:
    """Grid-fit a Zipf exponent to a descending rank-frequency vector."""
    empirical = frequencies / frequencies.sum()
    ranks = np.arange(1, len(frequencies) + 1, dtype=float)
    best_theta, best_error = 0.0, float("inf")
    for theta in THETA_GRID:
        weights = ranks ** (-theta)
        model = weights / weights.sum()
        error = float(np.abs(model - empirical).sum())
        if error < best_error:
            best_theta, best_error = theta, error
    return best_theta


def fit_class_model(name: str, pages: np.ndarray) -> ClassModel:
    """Fit one class's compressed model from its page sub-trace."""
    pages = np.asarray(pages, dtype=np.int64)
    if len(pages) == 0:
        raise ValueError(f"class {name!r} has an empty trace")
    if _sequential_share(pages) >= SCAN_DELTA_SHARE:
        unique = np.unique(pages)
        return ClassModel(
            name=name,
            kind="scan",
            accesses=len(pages),
            footprint=len(unique),
            theta=0.0,
            pages=tuple(int(p) for p in unique),
        )
    unique, counts = np.unique(pages, return_counts=True)
    # Most-frequent first; ties broken by ascending page id (np.lexsort's
    # last key is primary, and unique ids are already ascending).
    order = np.lexsort((unique, -counts))
    ordered_pages = unique[order]
    frequencies = counts[order].astype(float)
    return ClassModel(
        name=name,
        kind="zipf",
        accesses=len(pages),
        footprint=len(unique),
        theta=_fit_theta(frequencies),
        pages=tuple(int(p) for p in ordered_pages),
    )


def compress_trace(trace: PageAccessTrace) -> dict[str, ClassModel]:
    """Fit every class in a tagged trace; the compressed query log."""
    return {
        name: fit_class_model(name, pages)
        for name, pages in pages_by_class(trace).items()
    }


def replay_model(
    model: ClassModel, length: int | None = None, seed: int = 7
) -> np.ndarray:
    """Regenerate a synthetic page trace from a fitted model.

    Scan models sweep their footprint cyclically in ascending page order;
    zipf models draw ranks from the exact Zipf law and map them onto the
    frequency-ordered pages.  Deterministic in ``(model, length, seed)``.
    """
    if length is None:
        length = model.accesses
    if length <= 0:
        raise ValueError(f"replay length must be positive: {length}")
    pages = np.asarray(model.pages, dtype=np.int64)
    if model.kind == "scan":
        return pages[np.arange(length) % len(pages)]
    stream = SeedSequenceFactory(seed).stream(f"traceload-{model.name}")
    zipf = ZipfGenerator(len(pages), model.theta, stream)
    return pages[zipf.sample_many(length)]


def _fetch_ratio(pages: np.ndarray, pool_pages: int) -> float:
    """The class's fetch (miss) ratio at the reference pool size."""
    from ..core.mrc import MissRatioCurve

    return MissRatioCurve.from_trace(pages).miss_ratio(pool_pages)


def validate_compression(
    trace: PageAccessTrace,
    models: dict[str, ClassModel] | None = None,
    pool_pages: int = DEFAULT_POOL_PAGES,
    tolerance: float = DEFAULT_TOLERANCE,
    seed: int = 7,
) -> CompressionReport:
    """Replay every class model and compare per-class fetch ratios.

    The compression is good when, for each class, the synthetic trace's
    Mattson miss ratio at ``pool_pages`` differs from the original trace's
    by at most ``tolerance`` (absolute).
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative: {tolerance}")
    if models is None:
        models = compress_trace(trace)
    report = CompressionReport(pool_pages=pool_pages, tolerance=tolerance)
    for name, original in sorted(pages_by_class(trace).items()):
        model = models[name]
        synthetic = replay_model(model, length=len(original), seed=seed)
        original_ratio = _fetch_ratio(original, pool_pages)
        replay_ratio = _fetch_ratio(synthetic, pool_pages)
        error = abs(original_ratio - replay_ratio)
        report.rows.append(
            {
                "class": name,
                "kind": model.kind,
                "theta": round(model.theta, 6),
                "accesses": model.accesses,
                "footprint": model.footprint,
                "original_ratio": round(original_ratio, 6),
                "replay_ratio": round(replay_ratio, 6),
                "error": round(error, 6),
                "within_tolerance": error <= tolerance,
            }
        )
    return report


class FittedPattern(AccessPattern):
    """Drive the simulator from a fitted class model.

    The compressed query log becomes a first-class access pattern: each
    execution draws ``pages_per_execution`` references from the model's
    replay law, so a trace-derived workload can run through the same
    cluster harness as the hand-built benchmarks.
    """

    def __init__(
        self,
        model: ClassModel,
        pages_per_execution: int,
        stream: RandomStream,
    ) -> None:
        if pages_per_execution <= 0:
            raise ValueError(
                f"pages per execution must be positive: {pages_per_execution}"
            )
        self.model = model
        self.pages_per_execution = pages_per_execution
        # Boxed once for both replay laws (see ``PageRange.page_array``).
        self._pages = np.asarray(model.pages, dtype=np.int64).astype(object)
        self._cursor = 0
        self._zipf_replay = (
            ZipfPages(self._pages, model.theta, pages_per_execution, stream)
            if model.kind == "zipf"
            else None
        )

    def pages_for_execution(self) -> ExecutionAccess:
        if self._zipf_replay is not None:
            return self._zipf_replay.pages_for_execution()
        indices = (self._cursor + np.arange(self.pages_per_execution)) % len(
            self._pages
        )
        self._cursor = int((self._cursor + self.pages_per_execution) % len(self._pages))
        return ExecutionAccess(demand=self._pages[indices].tolist())

    def footprint_pages(self) -> int:
        return self.model.footprint
