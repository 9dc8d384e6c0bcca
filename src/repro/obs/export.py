"""The one record stream: every ``{"record": kind, ...}`` dict becomes JSONL
text here and comes back from it here, nowhere else in ``src/``.

One line per record: an optional ``meta`` line first (scenario name, seed,
intervals; never a wall-clock value), telemetry as ``span`` records in
completion order then ``metric`` snapshots sorted by name + labels, and the
flat kinds, each built beside the type whose fields it copies
(``allocation_records``, ``quality_records``, ``forecast_records``,
``journal_records``).  Keys are sorted and separators fixed, so two
identically-seeded runs produce **byte-identical** files — the determinism
regression suite hashes exactly this output.  DESIGN §8 has the schema table.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from pathlib import Path

__all__ = [
    "SCHEMA_VERSION",
    "RECORD_KEYS",
    "record_lines",
    "write_records",
    "read_records",
    "telemetry_records",
    "telemetry_lines",
    "write_telemetry",
]

SCHEMA_VERSION = 1

RECORD_KEYS: dict[str, tuple[str, ...]] = {
    "meta": (),
    "span": ("name", "start", "end", "cost"),
    "metric": ("type", "name", "labels"),
    "allocation": ("timestamp", "app", "action", "server", "replica",
                   "replica_count"),
    "quality": ("scenario", "precision", "recall", "f1", "true_positives",
                "false_positives", "false_negatives"),
    "forecast": ("interval", "app", "predicted_latency", "threshold",
                 "confidence", "decision", "acted", "outcome"),
    "journal": ("seq", "kind", "epoch", "interval_index", "action_kind",
                "app", "applied", "note"),
}
"""Kind → the keys ``repro obs report`` reads of it (a writer may add more)."""

_METRIC_KEYS = {
    "counter": ("value",),
    "gauge": ("value",),
    "histogram": ("bounds", "bucket_counts", "count", "sum", "min", "max"),
}


def record_lines(records: Iterable[dict]) -> list[str]:
    """The JSONL lines (no trailing newlines), in the order given."""
    return [
        json.dumps(record, sort_keys=True, separators=(",", ":"))
        for record in records
    ]


def write_records(path: str | Path, records: Iterable[dict]) -> Path:
    """Write records as JSONL, one per line; returns the path."""
    path = Path(path)
    path.write_text("".join(line + "\n" for line in record_lines(records)))
    return path


def read_records(lines: Iterable[str]) -> list[dict]:
    """Parse and validate JSONL lines (blank ones skipped; at least one)."""
    records: list[dict] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as error:
            raise ValueError(f"line {number}: not JSON ({error})") from None
        if not isinstance(record, dict):
            raise ValueError(f"line {number}: not a JSON object: {line.strip()}")
        kind = record.get("record")
        if kind not in RECORD_KEYS:
            raise ValueError(f"line {number}: unknown record kind {kind!r}")
        required = RECORD_KEYS[kind]
        if kind == "metric" and record.get("type") in _METRIC_KEYS:
            required += _METRIC_KEYS[record["type"]]
        missing = [key for key in required if key not in record]
        if missing:
            raise ValueError(
                f"line {number}: {kind} record lacks {', '.join(missing)}"
            )
        records.append(record)
    if not records:
        raise ValueError("no records")
    return records


def _clean(value):
    """Restrict attribute values to JSON scalars (stringify the rest)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_clean(item) for item in value]
    return str(value)


def telemetry_records(observability, meta: dict | None = None) -> list[dict]:
    """Everything one run produced, as JSON-ready dicts."""
    records: list[dict] = [
        {"record": "meta", "version": SCHEMA_VERSION, **(meta or {})}
    ]
    for span in observability.tracer.finished_spans():
        records.append(
            {
                "record": "span",
                "id": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "cost": span.cost,
                "attrs": {key: _clean(v) for key, v in sorted(span.attrs.items())},
            }
        )
    for snapshot in observability.registry.snapshot():
        records.append({"record": "metric", **snapshot})
    return records


def telemetry_lines(observability, meta: dict | None = None) -> list[str]:
    """One run's telemetry as JSONL lines, deterministically ordered."""
    return record_lines(telemetry_records(observability, meta))


def write_telemetry(
    path: str | Path, observability, meta: dict | None = None
) -> Path:
    """Write one run's telemetry as JSONL; returns the path."""
    return write_records(path, telemetry_records(observability, meta))
