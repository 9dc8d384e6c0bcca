"""Deterministic fan-out of independent scenarios and sweep points.

Every sweep and ablation in this repository is a list of *independent*
simulation runs: each point seeds its own workload, wires its own cluster,
and never shares mutable state with its siblings.  That makes them
embarrassingly parallel — but only if parallelism cannot change the
answer.  This module guarantees that:

* each task runs under a **deterministic per-task seed** (explicit, or
  derived from the task name), so a task computes the same result no
  matter which worker picks it up, how many workers exist, or in what
  order tasks finish;
* results are **merged in submission order**, so the output list of a
  parallel run is byte-identical to the serial run — the equivalence
  suite pins this with a sha256 over the exported JSONL;
* ``workers=None``/``0``/``1`` short-circuits to a plain in-process loop,
  so the serial path has no executor overhead and no pickling round-trip.

Task functions must be module-level callables with picklable arguments
(:class:`~concurrent.futures.ProcessPoolExecutor` requirement).
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SweepTask", "run_sweep"]


@dataclass(frozen=True)
class SweepTask:
    """One independent unit of a sweep: a callable plus its arguments.

    ``seed`` is the per-task RNG seed; when ``None`` it is derived from the
    task name, so a renamed task reseeds but a reordered one does not.
    """

    name: str
    fn: Callable
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    seed: int | None = None

    def resolved_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        digest = hashlib.sha256(self.name.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big")


def _execute(task: SweepTask):
    """Run one task under its deterministic seed (in worker or in process).

    The global RNGs are seeded *per task* rather than per worker: a worker
    that executes three tasks leaves no RNG state behind for the next one,
    so scheduling cannot leak randomness between sweep points.
    """
    seed = task.resolved_seed()
    random.seed(seed)
    np.random.seed(seed % (2**32))
    return task.fn(*task.args, **task.kwargs)


def run_sweep(
    tasks: Iterable[SweepTask], workers: int | None = None
) -> list:
    """Run every task; return their results in submission order.

    With ``workers`` greater than 1 the tasks are sharded across a
    :class:`ProcessPoolExecutor`; otherwise they run serially in-process.
    Either way the result list matches the order of ``tasks`` exactly.
    """
    tasks = list(tasks)
    if workers is not None and workers < 0:
        raise ValueError(f"worker count must be non-negative: {workers}")
    if workers is None or workers <= 1 or len(tasks) <= 1:
        return [_execute(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        futures = [pool.submit(_execute, task) for task in tasks]
        return [future.result() for future in futures]
