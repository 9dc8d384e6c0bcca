"""Micro-benchmarks of the MRC kernels: the one pytest-benchmark file.

*Stack distances on a controller-sized window.*  The window is the newest
``MAX_MRC_TRACE`` (60 000) references of the Figure 5 BestSeller trace, i.e.
the largest input the controller ever hands to ``stack_distances``.  There
is no timing gate: pytest-benchmark reports what the kernel costs, and the
assertion spot-checks a 5 000-reference prefix against the Fenwick oracle
(distance ``i`` depends on the references before ``i`` only, so the prefix
of the result is the result of the prefix).

*Sampled vs exact MRC on the whole trace.*  That SHARDS-style sampling stays
in the exact estimate's regime is an artefact property
(``check_ablation_sampled_mrc``); that it is *faster* is a wall-clock one,
asserted here as a ratio on one machine (R = 0.1: ≈ 2.4 ms against ≈ 11.6),
the two timed in alternation (``alternate.py``).
"""

import sys
from pathlib import Path

import numpy as np
from alternate import best_in_alternation

from repro.core.analyzer import MAX_MRC_TRACE
from repro.core.mrc import MissRatioCurve, stack_distances
from repro.core.mrc_sampling import sampled_mrc
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


def test_sampled_mrc_is_faster_than_exact(benchmark):
    best_seller = build_tpcw(seed=7).class_named(BEST_SELLER)
    trace = trace_of_class(best_seller, executions=400)

    def exact():
        return MissRatioCurve.from_trace(trace).parameters(8192)

    def sampled():
        curve, _ = sampled_mrc(trace, rate=0.1, seed=11)
        return curve.parameters(8192)

    benchmark(sampled)

    exact_seconds, sampled_seconds = best_in_alternation((exact, sampled), 3)
    assert sampled_seconds < exact_seconds
