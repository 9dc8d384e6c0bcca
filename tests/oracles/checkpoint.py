"""Oracle: a miss-ratio curve in a checkpoint, one count at a time.

``repro.recovery.state`` writes a curve's hit histogram as one text of
comma-separated counts, encodes it once per curve and parses it with one
numpy call.  This is the pair it replaced (payload version 1): a JSON list
built by one ``int(count)`` per element on every export, read back through
``np.asarray``.  It is the specification of *what* a checkpoint holds of a
curve — the same counts, the same cold misses — and the baseline the
checkpoint micro-benchmark measures against.

:func:`per_element_checkpoints` swaps the pair into the recovery path, so a
whole controller can be exported and checkpointed both ways.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.mrc import MissRatioCurve
from repro.recovery import state

__all__ = [
    "curve_to_jsonable_per_element",
    "curve_from_jsonable_per_element",
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


@contextmanager
def per_element_checkpoints():
    """Within the block every export and restore uses the pair above."""
    served = state._curve_to_jsonable, state._curve_from_jsonable
    state._curve_to_jsonable = curve_to_jsonable_per_element
    state._curve_from_jsonable = curve_from_jsonable_per_element
    try:
        yield
    finally:
        state._curve_to_jsonable, state._curve_from_jsonable = served
