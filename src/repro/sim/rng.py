"""Deterministic random-number streams for the simulator.

Every stochastic component (client think times, query argument selection,
page-access patterns, load noise) draws from its own named stream derived
from a single experiment seed.  This gives two properties the reproduction
relies on:

* bit-for-bit reproducibility of every figure and table, and
* independence between components — adding draws to one component does not
  perturb any other component's sequence.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

__all__ = [
    "SeedSequenceFactory",
    "RandomStream",
    "CumulativeSampler",
    "ZipfGenerator",
]


ZIPF_BLOCK_DRAWS = 1024
"""Uniforms a :class:`ZipfGenerator` draws and looks up per refill."""


def _derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a root seed and a stream name."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RandomStream:
    """A named, independently seeded wrapper around ``numpy.random.Generator``."""

    def __init__(self, root_seed: int, name: str) -> None:
        self.name = name
        self.seed = _derive_seed(root_seed, name)
        self._rng = np.random.default_rng(self.seed)

    @property
    def generator(self) -> np.random.Generator:
        return self._rng

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._rng.uniform(low, high))

    def exponential(self, mean: float) -> float:
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive: {mean}")
        return float(self._rng.exponential(mean))

    def integers(self, low: int, high: int) -> int:
        """A uniform integer in ``[low, high)``."""
        return int(self._rng.integers(low, high))

    def integers_array(self, low: int, high: int, count: int) -> np.ndarray:
        """``count`` uniform integers in ``[low, high)`` as an int64 array.

        numpy's batched draw consumes the bit stream exactly as ``count``
        scalar :meth:`integers` calls would, so callers can vectorise the
        hot path without perturbing any seeded sequence.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative: {count}")
        return self._rng.integers(low, high, size=count)

    def choice(self, items: Sequence, weights: Sequence[float] | None = None):
        """Pick one element, optionally with (unnormalised) weights."""
        if weights is None:
            return items[int(self._rng.integers(0, len(items)))]
        return items[CumulativeSampler.from_weights(weights).draw(self)]

    def shuffle(self, items: list) -> None:
        self._rng.shuffle(items)


class CumulativeSampler:
    """Weighted index draws from a CDF computed once.

    ``CumulativeSampler(p).draw(stream)`` equals
    ``int(stream.generator.choice(len(p), p=p))`` bit for bit: without a
    size, ``choice`` normalises ``p.cumsum()`` by its last element and looks
    one ``random()`` up in it from the right.  The constructor performs
    exactly those operations in that order, once; a draw is then one
    ``random()`` and a bisection over the CDF as a list — the same index and
    the same single double consumed from the stream, without ``choice``'s
    per-call argument validation.  Meant for small supports (mix classes,
    transition rows), not for row-count sized CDFs.
    """

    __slots__ = ("_cdf",)

    def __init__(self, probabilities: Sequence[float]) -> None:
        probs = np.asarray(probabilities, dtype=float)
        if not (probs >= 0).all():
            raise ValueError("choice probabilities must be non-negative")
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        self._cdf: list[float] = cdf.tolist()

    @classmethod
    def from_weights(cls, weights: Sequence[float]) -> "CumulativeSampler":
        """A sampler over unnormalised weights (``p = weights / sum``)."""
        probs = np.asarray(weights, dtype=float)
        total = probs.sum()
        if not total > 0:
            raise ValueError("choice weights must have a positive sum")
        return cls(probs / total)

    def draw(self, stream: RandomStream) -> int:
        """One index in ``[0, len(p))``; consumes one double of ``stream``."""
        return bisect_right(self._cdf, stream._rng.random())


class SeedSequenceFactory:
    """Creates independent :class:`RandomStream` objects from one root seed."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: dict[str, RandomStream] = {}

    def stream(self, name: str) -> RandomStream:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = RandomStream(self.root_seed, name)
        return self._streams[name]


@lru_cache(maxsize=None)
def _zipf_cdf(n: int, theta: float) -> np.ndarray:
    """The CDF of Zipf(``n``, ``theta``) over ranks ``0 … n-1``, computed once
    per process.

    It depends on ``(n, theta)`` alone, never on a seed, so every generator
    of equal support and exponent shares the array, hence read-only.  Built
    in place: the ranks become the weights, then their running sum, then the
    CDF — one n-double array, not three (bit-identical).
    """
    cdf = np.arange(1, n + 1, dtype=float)
    cdf **= -theta
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


class ZipfGenerator:
    """Zipf-distributed integers over ``[0, n)`` with exponent ``theta``.

    Used to model skewed page popularity: database working sets typically
    follow a Zipf-like law, which is what makes small buffer pools effective
    and gives miss-ratio curves their characteristic knee.

    The implementation precomputes the CDF (:func:`_zipf_cdf`, shared by every
    generator of equal ``(n, theta)``) and samples by inverse transform, so
    draws are O(log n) and the distribution is exact (unlike
    ``numpy.random.zipf``, which is unbounded).

    *Draw-ahead.*  Uniforms are drawn and looked up :data:`ZIPF_BLOCK_DRAWS`
    at a time, and :meth:`sample` and :meth:`sample_many` hand the resulting
    ranks out first in, first out.  ``Generator.random(n)`` fills its output
    from the same ``next_double`` that ``random()`` returns once, one 64-bit
    word per double either way, so the k-th rank handed out is the rank the
    k-th scalar draw would have produced.  That holds only while this
    generator is its stream's sole consumer: a second consumer would see the
    stream a block further on.  Every refill therefore checks that the bit
    generator is where the previous refill left it, and raises otherwise.
    """

    def __init__(self, n: int, theta: float, stream: RandomStream) -> None:
        if n <= 0:
            raise ValueError(f"Zipf support size must be positive: {n}")
        if not theta >= 0:  # NaN fails this too
            raise ValueError(f"Zipf exponent must be non-negative: {theta}")
        self.n = n
        self.theta = theta
        self._stream = stream
        self._cdf = _zipf_cdf(n, theta)
        self._ranks = np.empty(0, dtype=np.int64)  # drawn ahead, unread from _next on
        self._next = 0
        self._state_after_refill: dict | None = None

    def _refill(self, shortfall: int) -> None:
        """Append at least ``shortfall`` fresh ranks to the unread tail."""
        rng = self._stream._rng
        if (
            self._state_after_refill is not None
            and rng.bit_generator.state != self._state_after_refill
        ):
            raise RuntimeError(
                f"stream {self._stream.name!r} was drawn from by someone other "
                "than the ZipfGenerator reading ahead on it: a draw-ahead "
                "stream must have exactly one consumer"
            )
        us = rng.random(max(ZIPF_BLOCK_DRAWS, shortfall))
        self._state_after_refill = rng.bit_generator.state
        fresh = self._cdf.searchsorted(us, "left")
        tail = self._ranks[self._next :]
        self._ranks = np.concatenate((tail, fresh)) if len(tail) else fresh
        self._next = 0

    def sample(self) -> int:
        """Draw one rank in ``[0, n)``; rank 0 is the most popular."""
        position = self._next
        if position == len(self._ranks):
            self._refill(1)
            position = 0
        self._next = position + 1
        return self._ranks.item(position)

    def sample_many(self, count: int) -> np.ndarray:
        """Draw ``count`` ranks as an int64 array."""
        if count < 0:
            raise ValueError(f"count must be non-negative: {count}")
        end = self._next + count
        if end > len(self._ranks):
            self._refill(end - len(self._ranks))
            end = count
        ranks = self._ranks[self._next : end]
        self._next = end
        return ranks

    def probability(self, rank: int) -> float:
        """Exact probability mass of ``rank``."""
        if not 0 <= rank < self.n:
            raise IndexError(f"rank {rank} outside [0, {self.n})")
        lower = self._cdf[rank - 1] if rank > 0 else 0.0
        return float(self._cdf[rank] - lower)
