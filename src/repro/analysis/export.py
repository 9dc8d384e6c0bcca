"""JSON export of experiment results.

Benchmarks and the CLI print human tables; downstream tooling (plotting,
regression dashboards) wants machine-readable output.  ``to_jsonable``
converts any of the experiment result dataclasses — nested dataclasses,
enums, numpy scalars and all — into plain JSON types, and ``export_result``
writes them to disk.  (JSONL record streams — telemetry, allocation,
quality, forecast, journal — are :mod:`repro.obs.export`'s.)
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = ["to_jsonable", "export_result"]


def to_jsonable(value):
    """Recursively convert ``value`` into JSON-serialisable types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {_key(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot export {type(value).__name__} to JSON")


def _key(key) -> str:
    if isinstance(key, Enum):
        return str(key.value)
    return str(key)


def export_result(path: str | Path, result, indent: int = 2) -> Path:
    """Serialise one experiment result to a JSON file; returns the path."""
    path = Path(path)
    payload = to_jsonable(result)
    path.write_text(json.dumps(payload, indent=indent, sort_keys=True) + "\n")
    return path
