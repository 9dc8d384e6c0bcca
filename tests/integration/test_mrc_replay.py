"""Replay of real analysis windows against the Fenwick oracle.

The differential suites feed ``stack_distances`` synthetic traces.  This one
records the windows a seeded zoo episode actually takes curves of — the
initial and doubling refreshes of the stable state, the recent and before
slices of diagnosis — and checks the end the artefacts depend on: the hit
histogram and the MRC parameters extracted from it.  Windows are recorded
where a trace enters an ``MRCEntry``, not where the kernel runs: most refresh
curves are never read, so the kernel never sees them, and the replay must
cover them all the same.
"""

import numpy as np
import pytest

import repro.core.mrc as mrc
from oracles.fenwick import stack_distances_fenwick
from repro.core.mrc import MissRatioCurve
from repro.experiments.zoo import run_zoo


@pytest.fixture(scope="module")
def recorded_windows():
    windows = []
    enter = mrc.MRCEntry.__init__

    def recording(entry, trace, *args):
        windows.append(trace.read())  # the window slice the entry references
        enter(entry, trace, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mrc.MRCEntry, "__init__", recording)
        run_zoo("flash_crowd", seed=7)
    return windows


def test_episode_analyses_windows_of_every_size(recorded_windows):
    lengths = sorted(len(window) for window in recorded_windows)
    assert len(lengths) >= 40
    assert lengths[0] <= 2_000 and lengths[-1] >= 50_000


def test_curves_of_recorded_windows_equal_the_oracles(recorded_windows):
    for window in recorded_windows:
        curve = MissRatioCurve.from_trace(window)
        oracle = MissRatioCurve.from_distances(stack_distances_fenwick(window))
        assert curve.cold_misses == oracle.cold_misses
        np.testing.assert_array_equal(curve._hits, oracle._hits)
        assert curve.parameters(8192) == oracle.parameters(8192)
