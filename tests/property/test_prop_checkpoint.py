"""Property: a curve's checkpoint text holds exactly what the list held.

``repro.recovery.state`` encodes a miss-ratio curve's hit histogram once,
as one text of comma-separated counts, and parses it with one numpy call.
The per-element pair it replaced lives in ``tests/oracles/checkpoint.py``;
for any histogram — empty, a single count, counts past 2**31 — both pairs
must bring back the same curve through a JSON round-trip, and the text a
curve was restored from must be the text it exports again.
"""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from oracles.checkpoint import (
    curve_from_jsonable_per_element,
    curve_to_jsonable_per_element,
)
from repro.core.mrc import MissRatioCurve
from repro.recovery.state import _curve_from_jsonable, _curve_to_jsonable

# Up to 200 counts below 2**53 keep ``total_accesses`` inside int64.
histograms = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=2**31, max_value=2**53),
    ),
    min_size=0,
    max_size=200,
)


def through_json(jsonable):
    return json.loads(json.dumps(jsonable, separators=(",", ":")))


@given(
    hits=histograms,
    cold=st.integers(min_value=0, max_value=2**40),
    memory=st.integers(min_value=1, max_value=4096),
)
@settings(max_examples=200, deadline=None)
def test_text_encoding_restores_the_curve_the_list_encoding_restores(
    hits, cold, memory
):
    curve = MissRatioCurve(np.array(hits, dtype=np.int64), cold)
    restored = _curve_from_jsonable(through_json(_curve_to_jsonable(curve)))
    reference = curve_from_jsonable_per_element(
        through_json(curve_to_jsonable_per_element(curve))
    )
    assert restored._hits.dtype == np.int64
    assert restored._hits.tolist() == reference._hits.tolist() == hits
    assert restored.cold_misses == reference.cold_misses == cold
    assert restored.total_accesses == reference.total_accesses
    if hits:  # ``parameters`` needs a depth to look at
        assert restored.parameters(memory) == reference.parameters(memory)


@given(hits=histograms, cold=st.integers(min_value=0, max_value=1000))
@settings(max_examples=100, deadline=None)
def test_restored_curve_exports_the_text_it_was_parsed_from(hits, cold):
    curve = MissRatioCurve(np.array(hits, dtype=np.int64), cold)
    first = _curve_to_jsonable(curve)
    assert _curve_to_jsonable(curve)["hits"] is first["hits"]
    parsed = through_json(first)
    again = _curve_to_jsonable(_curve_from_jsonable(parsed))
    assert again["hits"] is parsed["hits"]
    assert again == first
