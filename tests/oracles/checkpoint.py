"""Oracle: a miss-ratio curve in a checkpoint, one count at a time, read first.

``repro.recovery.state`` writes a pending curve as a reference to its slice of
the engine's access window, and an analysed curve's hit histogram as one
text of comma-separated counts, encoded once per curve and parsed with one
numpy call.  This is what it replaced (payload version 1): every curve read —
a pending one analysed — and its histogram written as a JSON list built by one
``int(count)`` per element on every export, read back through ``np.asarray``.
It is the specification of *what* a checkpoint holds of a curve — the same
counts, the same cold misses — and the baseline the checkpoint
micro-benchmark measures against.

:func:`per_element_checkpoints` swaps these into the recovery path, so a
whole controller can be exported and checkpointed both ways.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.mrc import MissRatioCurve, MRCEntry
from repro.recovery import state

__all__ = [
    "curve_to_jsonable_per_element",
    "curve_from_jsonable_per_element",
    "entry_to_jsonable_per_element",
    "per_element_checkpoints",
]


def curve_to_jsonable_per_element(curve: MissRatioCurve) -> dict:
    return {
        "hits": [int(count) for count in curve._hits],
        "cold": curve.cold_misses,
    }


def curve_from_jsonable_per_element(payload: dict) -> MissRatioCurve:
    return MissRatioCurve(
        np.asarray(payload["hits"], dtype=np.int64), payload["cold"]
    )


def entry_to_jsonable_per_element(entry: MRCEntry, window) -> dict:
    """Every entry as its curve and parameters: a pending one is analysed."""
    return {
        "curve": curve_to_jsonable_per_element(entry.curve),
        "params": state._params_to_jsonable(entry.parameters),
    }


@contextmanager
def per_element_checkpoints():
    """Within the block every export and restore uses the functions above."""
    served = (
        state._entry_to_jsonable,
        state._curve_to_jsonable,
        state._curve_from_jsonable,
    )
    state._entry_to_jsonable = entry_to_jsonable_per_element
    state._curve_to_jsonable = curve_to_jsonable_per_element
    state._curve_from_jsonable = curve_from_jsonable_per_element
    try:
        yield
    finally:
        (
            state._entry_to_jsonable,
            state._curve_to_jsonable,
            state._curve_from_jsonable,
        ) = served
