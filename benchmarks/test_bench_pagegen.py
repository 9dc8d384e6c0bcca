"""Micro-benchmark of page generation: draw-ahead blocks against the oracle.

Every TPC-W class generates the pages of ``EXECUTIONS`` executions twice from
the same seed: through the patterns as built (``ZipfGenerator`` draws ahead,
``ZipfPages`` and ``IndexLookup`` hand out slices of a block) and through
their per-execution oracles (``tests/oracles/pagegen.py``: one numpy call
sequence per execution, what ``src`` did before).  The table (``-rP`` shows
it) is microseconds per execution, best of ``REPEATS``.  The one assertion
is that the shopping-mix-weighted mean is lower for the blocks — classes
whose executions are hundreds of pages long (BestSeller) are expected to
read about equal, the arithmetic being the cost there.
"""

import sys
import timeit
from pathlib import Path

from repro.workloads.tpcw import build_tpcw

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.pagegen import per_execution_workload  # noqa: E402

EXECUTIONS = 5_000
REPEATS = 3


def _microseconds_per_execution(query_class) -> float:
    def run() -> None:
        for _ in range(EXECUTIONS):
            query_class.execute_pages()

    run()  # first blocks, warm caches
    return min(timeit.repeat(run, number=1, repeat=REPEATS)) / EXECUTIONS * 1e6


def test_block_served_page_generation_beats_per_execution_on_the_tpcw_mix():
    blocks = build_tpcw(seed=7)
    oracle = per_execution_workload(build_tpcw(seed=7))
    weights = blocks.normalized_weights()

    mean_blocks = mean_oracle = 0.0
    print(f"{'class':<24}{'weight':>8}{'oracle us':>11}{'blocks us':>11}")
    for served, reference in zip(blocks.classes(), oracle.classes()):
        assert served.execute_pages().demand == reference.execute_pages().demand
        per_block = _microseconds_per_execution(served)
        per_execution = _microseconds_per_execution(reference)
        weight = weights[served.name]
        mean_blocks += weight * per_block
        mean_oracle += weight * per_execution
        print(f"{served.name:<24}{weight:>8.2f}{per_execution:>11.2f}{per_block:>11.2f}")
    print(f"{'mix-weighted mean':<32}{mean_oracle:>11.2f}{mean_blocks:>11.2f}")

    assert mean_blocks < mean_oracle
