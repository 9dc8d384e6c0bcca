"""Timing in alternation, shared by the micro-benchmark files.

A machine shared with neighbours runs in bursts of full and reduced speed.
Timing an oracle and then the formulation that replaced it one after the
other can put a slow stretch on one side only and read a row the wrong way
round.  Taken in alternation, call for call, a stretch falls on every side
alike, and each side keeps its best call.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from time import perf_counter

__all__ = ["best_in_alternation"]


def best_in_alternation(
    runs: Sequence[Callable[[], object]],
    repeats: int,
    setups: Sequence[Callable[[], object] | None] | None = None,
) -> list[float]:
    """Seconds of the best of ``repeats`` calls of each of ``runs``, taken
    in alternation.  ``setups`` (one per run, or ``None``) run untimed before
    each timed call of their run, as ``timeit``'s ``setup`` does."""
    setups = [None] * len(runs) if setups is None else setups
    best = [float("inf")] * len(runs)
    for _ in range(repeats):
        for side, (run, setup) in enumerate(zip(runs, setups)):
            if setup is not None:
                setup()
            started = perf_counter()
            run()
            best[side] = min(best[side], perf_counter() - started)
    return best
