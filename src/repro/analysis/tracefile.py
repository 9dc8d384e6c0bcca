"""Trace persistence: save and reload page-access traces for off-line work.

The paper notes that parts of its prototype (MRC determination, the Table 1
buffer-pool study) run "only through off-line trace analysis".  This module
is that workflow's file format: per-query-class page traces stored in a
single compressed ``.npz`` archive, round-tripping exactly.

Layout inside the archive: one int64 array per context key, plus a
``__meta__`` array carrying the format version.  Context keys contain ``/``
(``app/class``), which numpy's zip layer handles fine.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

__all__ = [
    "FORMAT_VERSION",
    "save_traces",
    "load_traces",
    "trace_summary",
]

FORMAT_VERSION = 1
_META_KEY = "__meta__"


def save_traces(
    path: str | Path | io.IOBase,
    traces: dict[str, np.ndarray | list[int]],
) -> None:
    """Write per-context traces to a compressed archive.

    A trace must be one-dimensional and hold integers: a float or boolean
    trace raises ``ValueError`` rather than being truncated to page ids, as
    :func:`load_traces` refuses it on the way back.
    """
    if not traces:
        raise ValueError("nothing to save: the trace dictionary is empty")
    arrays: dict[str, np.ndarray] = {}
    for key, trace in traces.items():
        if key == _META_KEY:
            raise ValueError(f"context key {key!r} is reserved")
        array = np.asarray(trace)
        if array.ndim != 1:
            raise ValueError(f"trace {key!r} must be one-dimensional")
        # An empty list has no integer dtype to carry, and nothing to truncate.
        if array.size and array.dtype.kind not in "iu":
            raise ValueError(
                f"trace {key!r} must hold integer page ids, not {array.dtype}"
            )
        arrays[key] = array.astype(np.int64)
    arrays[_META_KEY] = np.asarray([FORMAT_VERSION], dtype=np.int64)
    np.savez_compressed(path, **arrays)


def load_traces(path: str | Path | io.IOBase) -> dict[str, np.ndarray]:
    """Read a trace archive back into {context key: int64 array}.

    Anything :func:`save_traces` would not have written raises
    ``ValueError``: malformed metadata, no trace at all, or a trace that is
    not a one-dimensional integer array.
    """
    with np.load(path) as archive:
        if _META_KEY not in archive:
            raise ValueError("not a repro trace archive (missing metadata)")
        meta = archive[_META_KEY]
        if meta.shape != (1,) or meta.dtype.kind not in "iu":
            raise ValueError(
                f"malformed trace archive metadata: {meta.dtype} {meta.shape}"
            )
        version = int(meta[0])
        if version > FORMAT_VERSION:
            raise ValueError(
                f"trace archive version {version} is newer than supported "
                f"({FORMAT_VERSION})"
            )
        traces = {
            key: archive[key] for key in archive.files if key != _META_KEY
        }
    if not traces:
        raise ValueError("trace archive holds no trace")
    for key, array in traces.items():
        if array.ndim != 1 or array.dtype.kind not in "iu":
            raise ValueError(
                f"trace {key!r} must be a one-dimensional integer array, "
                f"not {array.dtype} {array.shape}"
            )
    return {key: array.astype(np.int64) for key, array in traces.items()}


def trace_summary(traces: dict[str, np.ndarray]) -> dict[str, dict[str, int]]:
    """Per-context length and footprint, for quick inspection."""
    return {
        key: {
            "accesses": int(len(array)),
            "distinct_pages": int(len(np.unique(array))) if len(array) else 0,
        }
        for key, array in traces.items()
    }
