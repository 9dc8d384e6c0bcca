"""Micro-benchmark of the stack-distance kernel on a controller-sized window.

The window is the newest ``MAX_MRC_TRACE`` (60 000) references of the
Figure 5 BestSeller trace, i.e. the largest input the controller ever hands
to ``stack_distances``.  There is no timing gate: pytest-benchmark reports
what the kernel costs, and the assertion spot-checks a 5 000-reference
prefix against the Fenwick oracle (distance ``i`` depends on the references
before ``i`` only, so the prefix of the result is the result of the prefix).
"""

import sys
from pathlib import Path

import numpy as np

from repro.core.analyzer import MAX_MRC_TRACE
from repro.core.mrc import stack_distances
from repro.experiments.mrc_curves import trace_of_class
from repro.workloads.tpcw import BEST_SELLER, build_tpcw

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.fenwick import stack_distances_fenwick  # noqa: E402

ORACLE_PREFIX = 5_000


def test_stack_distances_on_a_bestseller_window(benchmark):
    best_seller = build_tpcw(seed=7).class_named(BEST_SELLER)
    window = trace_of_class(best_seller, executions=400)[-MAX_MRC_TRACE:]
    assert len(window) == MAX_MRC_TRACE

    distances = benchmark(stack_distances, window)

    assert np.array_equal(
        distances[:ORACLE_PREFIX], stack_distances_fenwick(window[:ORACLE_PREFIX])
    )
