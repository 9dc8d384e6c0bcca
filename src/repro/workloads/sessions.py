"""Markov-chain client sessions, the way TPC-W's emulated browsers work.

The TPC-W specification drives each emulated browser through a Markov chain
over web interactions (home → search → detail → cart → buy …); the mix
percentages the paper quotes are the chain's *stationary* distribution.
The i.i.d. mix sampling used by default is the right marginal but loses the
temporal correlation (a buyer issues cart/buy interactions back to back).

:class:`MarkovSessionModel` provides the chain: per-class transition rows,
validation, stationary-distribution computation (power iteration), and
sampling.  :func:`session_model_from_mix` builds a plausible chain whose
stationary distribution matches a workload's mix weights, by blending
"stay in a behavioural phase" transitions with mix-proportional jumps.
"""

from __future__ import annotations

import numpy as np

from ..sim.rng import CumulativeSampler, RandomStream
from .base import Workload

__all__ = ["MarkovSessionModel", "session_model_from_mix"]


class MarkovSessionModel:
    """A first-order Markov chain over query-class names."""

    def __init__(
        self,
        classes: list[str],
        transitions: dict[str, dict[str, float]],
        start: str | None = None,
    ) -> None:
        if not classes:
            raise ValueError("session model needs at least one class")
        if len(set(classes)) != len(classes):
            raise ValueError("class names must be unique")
        self.classes = list(classes)
        self._index = {name: i for i, name in enumerate(classes)}
        self.start = start if start is not None else classes[0]
        if self.start not in self._index:
            raise ValueError(f"unknown start class {self.start!r}")
        matrix = np.zeros((len(classes), len(classes)), dtype=float)
        for source, row in transitions.items():
            if source not in self._index:
                raise ValueError(f"unknown source class {source!r}")
            total = sum(row.values())
            if total <= 0:
                raise ValueError(f"transition row of {source!r} has no mass")
            for target, weight in row.items():
                if target not in self._index:
                    raise ValueError(f"unknown target class {target!r}")
                if weight < 0:
                    raise ValueError(
                        f"negative transition weight {source!r}->{target!r}"
                    )
                matrix[self._index[source], self._index[target]] = weight / total
        missing = [name for name in classes if matrix[self._index[name]].sum() == 0]
        if missing:
            raise ValueError(f"classes without transition rows: {missing}")
        self._matrix = matrix
        # Rows are immutable: one sampler each, built from the row exactly
        # as ``Generator.choice(n, p=row)`` would see it (not re-normalised).
        self._samplers = [CumulativeSampler(row) for row in matrix]

    def next_class(self, current: str, stream: RandomStream) -> str:
        """Sample the next interaction from ``current``'s transition row."""
        return self.classes[self._samplers[self._index[current]].draw(stream)]

    def transition_probability(self, source: str, target: str) -> float:
        return float(self._matrix[self._index[source], self._index[target]])

    def stationary_distribution(self, iterations: int = 200) -> dict[str, float]:
        """The chain's long-run class frequencies (power iteration)."""
        pi = np.full(len(self.classes), 1.0 / len(self.classes))
        for _ in range(iterations):
            pi = pi @ self._matrix
            pi /= pi.sum()
        return {name: float(pi[self._index[name]]) for name in self.classes}


def session_model_from_mix(
    workload: Workload, persistence: float = 0.3
) -> MarkovSessionModel:
    """A chain whose stationary distribution equals the workload's mix.

    Each row is ``persistence`` mass on staying with the current class plus
    ``1 - persistence`` mass distributed mix-proportionally — a "lazy" chain
    whose stationary distribution is exactly the mix (the mix-proportional
    part alone has the mix as its stationary vector, and adding a multiple
    of the identity does not change it), while ``persistence`` injects the
    burstiness real sessions exhibit.
    """
    if not 0 <= persistence < 1:
        raise ValueError(f"persistence must be in [0, 1): {persistence}")
    names = [entry.query_class.name for entry in workload.mix]
    weights = np.asarray([entry.weight for entry in workload.mix], dtype=float)
    if weights.sum() <= 0:
        raise ValueError("workload mix has no mass")
    probs = weights / weights.sum()
    transitions: dict[str, dict[str, float]] = {}
    for i, source in enumerate(names):
        row = {
            target: (1.0 - persistence) * probs[j]
            for j, target in enumerate(names)
        }
        row[source] = row.get(source, 0.0) + persistence
        transitions[source] = row
    start = names[int(np.argmax(probs))]
    return MarkovSessionModel(names, transitions, start=start)
