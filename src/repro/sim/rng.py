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
from collections.abc import Callable, Iterator, Sequence
from functools import lru_cache
from operator import length_hint
from typing import NamedTuple

import numpy as np

__all__ = [
    "SeedSequenceFactory",
    "RandomStream",
    "CumulativeSampler",
    "ZipfGenerator",
]


STREAM_BLOCK_DRAWS = 1024
"""Values a :class:`RandomStream` draws ahead per block for
:meth:`~RandomStream.random` and :meth:`~RandomStream.exponential`."""

_NONE_LEFT: Iterator[float] = iter(())
"""The unread tail of no block (an exhausted iterator, shared)."""

ZIPF_BLOCK_DRAWS = 1024
"""Uniforms a :class:`ZipfGenerator` draws and looks up per refill."""

ZIPF_BUCKETS = 1 << 14
"""The most buckets a Zipf bucket table has (:func:`_zipf_buckets`)."""


def _derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a root seed and a stream name."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RandomStream:
    """A named, independently seeded wrapper around ``numpy.random.Generator``.

    *Draws from a block.*  :meth:`random` and :meth:`exponential` — the
    mix draw and the think time, one of each per emulated query — are
    served from one block of :data:`STREAM_BLOCK_DRAWS` values drawn ahead
    in one numpy call, because at one value per call numpy's per-call
    overhead, not the arithmetic, is the cost.  The block holds values of
    one kind: uniforms on ``[0, 1)``, or standard exponentials that
    :meth:`exponential` scales by its mean as numpy's scalar draw does.
    The k-th value handed out equals the k-th scalar draw bit for bit: a
    block fills from the same per-element routine a scalar draw calls once.

    Any other draw on the stream — :meth:`uniform`, :meth:`integers`,
    :meth:`choice` without weights, :meth:`shuffle`, :attr:`generator` (and
    through it a :class:`ZipfGenerator` refill or a
    :class:`~repro.engine.access.UniformWorkingSet` block), or a block of the
    other kind — first *rewinds*: it restores the bit-generator
    state saved before the block and redraws only the values already handed
    out, so the stream sits exactly where as many scalar draws would have
    left it.  The block lives on the stream, not on its consumer, so any
    number of consumers of one named stream still read the scalar sequence.
    """

    def __init__(self, root_seed: int, name: str) -> None:
        self.name = name
        self.seed = _derive_seed(root_seed, name)
        self._rng = np.random.default_rng(self.seed)
        # The block: its unread tail under its kind (the other kind's tail
        # is empty), its size, the numpy draw that filled it and the
        # bit-generator state before it (None: no block).
        self._uniforms: Iterator[float] = _NONE_LEFT
        self._exponentials: Iterator[float] = _NONE_LEFT
        self._block_size = 0
        self._block_draw: Callable[[int], np.ndarray] | None = None
        self._state_before_block: dict | None = None

    def _start_block(self, draw: Callable[[int], np.ndarray]) -> Iterator[float]:
        """Rewind, then draw a block through ``draw``; returns its tail."""
        self._rewind()
        self._state_before_block = self._rng.bit_generator.state
        self._block_draw = draw
        self._block_size = STREAM_BLOCK_DRAWS
        return iter(draw(STREAM_BLOCK_DRAWS).tolist())

    def _rewind(self) -> None:
        """Put the bit generator where the values handed out so far, drawn
        one at a time, would have left it, and drop the block."""
        state = self._state_before_block
        if state is None:
            return
        unread = length_hint(self._uniforms) + length_hint(self._exponentials)
        if unread:
            self._rng.bit_generator.state = state
            handed_out = self._block_size - unread
            if handed_out:
                self._block_draw(handed_out)
        self._uniforms = self._exponentials = _NONE_LEFT
        self._state_before_block = self._block_draw = None

    @property
    def generator(self) -> np.random.Generator:
        """The bit-exact numpy generator, rewound for a direct draw."""
        self._rewind()
        return self._rng

    def draw_ahead_generator(
        self, left_at: dict | None, consumer: str
    ) -> np.random.Generator:
        """:attr:`generator`, for a consumer that draws ahead on this stream
        and last left its bit generator in state ``left_at`` (``None``: it
        has not drawn yet).  Raises ``RuntimeError`` if anyone else has drawn
        since: the values drawn ahead equal scalar draws only while the
        consumer is the stream's one reader."""
        rng = self.generator
        if left_at is not None and rng.bit_generator.state != left_at:
            raise RuntimeError(
                f"stream {self.name!r} was drawn from by someone other than "
                f"the {consumer} reading ahead on it: a draw-ahead stream "
                "must have exactly one consumer"
            )
        return rng

    def random(self) -> float:
        """A uniform double in ``[0, 1)``, served from the block."""
        value = next(self._uniforms, None)
        if value is None:
            self._uniforms = self._start_block(self._rng.random)
            value = next(self._uniforms)
        return value

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        self._rewind()
        return float(self._rng.uniform(low, high))

    def exponential(self, mean: float) -> float:
        """An exponential draw of mean ``mean``, served from the block."""
        if not mean > 0:  # NaN fails this too
            raise ValueError(f"exponential mean must be positive: {mean}")
        value = next(self._exponentials, None)
        if value is None:
            self._exponentials = self._start_block(self._rng.standard_exponential)
            value = next(self._exponentials)
        return mean * value

    def integers(self, low: int, high: int) -> int:
        """A uniform integer in ``[low, high)``."""
        self._rewind()
        return int(self._rng.integers(low, high))

    def choice(self, items: Sequence, weights: Sequence[float] | None = None):
        """Pick one element, optionally with (unnormalised) weights."""
        if weights is None:
            return items[self.integers(0, len(items))]
        return items[CumulativeSampler.from_weights(weights).draw(self)]

    def shuffle(self, items: list) -> None:
        self._rewind()
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
        return bisect_right(self._cdf, stream.random())


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


class ZipfBuckets(NamedTuple):
    """The bucket table of one Zipf CDF (:func:`_zipf_buckets`)."""

    lo: np.ndarray
    """``lo[b]``: the rank of bucket ``b``'s lower edge ``b/m`` (int64)."""
    steps: int
    """Halving steps of the search, whose reach ``2^steps - 1`` covers the
    widest bucket's count of CDF entries."""


@lru_cache(maxsize=None)
def _zipf_buckets(n: int, theta: float) -> ZipfBuckets:
    """The bucket table of Zipf(``n``, ``theta``): ``m`` buckets of width
    ``1/m`` over ``[0, 1)``, computed once per process (read-only, shared
    like :func:`_zipf_cdf`).

    ``m`` is a power of two, at least ``16 n`` up to :data:`ZIPF_BUCKETS`, so
    most buckets hold no CDF step and none more than one while the support
    is small.  ``lo[b] = cdf.searchsorted(b / m, "left")`` for every bucket,
    and ``steps`` is the bit length of the widest bucket's count of CDF
    entries, ``max(lo[b + 1] - lo[b])``, where ``lo[m]`` follows the same
    formula.
    """
    cdf = _zipf_cdf(n, theta)
    m = min(ZIPF_BUCKETS, 1 << (16 * n - 1).bit_length())
    edges = cdf.searchsorted(np.arange(m + 1) / m, "left").astype(np.int64)
    lo = edges[:-1]
    lo.flags.writeable = False
    return ZipfBuckets(lo, int(np.diff(edges).max()).bit_length())


def _zipf_ranks(cdf: np.ndarray, buckets: ZipfBuckets, us: np.ndarray) -> np.ndarray:
    """``cdf.searchsorted(us, "left")`` for uniforms in ``[0, 1)``, as int64.

    For a power-of-two ``m``, ``u·m`` and ``b/m`` are exact, so ``u`` lies in
    bucket ``b = ⌊u·m⌋``, and ``searchsorted`` is monotone in ``u``, so
    ``lo[b] ≤ rank(u) ≤ lo[b+1]``.  The rank is a lower bound that starts at
    ``lo[b]`` and takes ``steps`` halving steps, ``2^(steps-1)`` down to 1,
    each one gather and one compare for every uniform at once: it moves up
    by a step where the entry just below it is still ``< u``.  The steps
    reach ``lo[b] + 2^steps - 1 ≥ lo[b+1]``; every entry from ``lo[b+1]`` on
    is ``≥ (b+1)/m > u`` and never moves it, and a probe past the end is
    clipped to ``cdf[n-1] = 1 > u``, which does not either.
    """
    lo, steps = buckets
    ranks = lo[(us * len(lo)).astype(np.intp)]
    for shift in range(steps - 1, 0, -1):
        half = 1 << shift
        ranks += half * (cdf.take(ranks + (half - 1), mode="clip") < us)
    if steps:  # the step of 1 probes the rank itself
        ranks += cdf.take(ranks, mode="clip") < us
    return ranks


class ZipfGenerator:
    """Zipf-distributed integers over ``[0, n)`` with exponent ``theta``.

    Used to model skewed page popularity: database working sets typically
    follow a Zipf-like law, which is what makes small buffer pools effective
    and gives miss-ratio curves their characteristic knee.

    The implementation precomputes the CDF (:func:`_zipf_cdf`, shared by every
    generator of equal ``(n, theta)``) and samples by inverse transform, so
    the distribution is exact (unlike ``numpy.random.zipf``, which is
    unbounded).  The inverse is read off the bucket table
    (:func:`_zipf_buckets`, built at the first refill) by :func:`_zipf_ranks`:
    a bounded search that starts at the uniform's bucket.

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
        self._buckets: ZipfBuckets | None = None
        self._ranks = np.empty(0, dtype=np.int64)  # drawn ahead, unread from _next on
        self._next = 0
        self._state_after_refill: dict | None = None

    def _refill(self, shortfall: int) -> None:
        """Append at least ``shortfall`` fresh ranks to the unread tail."""
        rng = self._stream.draw_ahead_generator(
            self._state_after_refill, "ZipfGenerator"
        )
        us = rng.random(max(ZIPF_BLOCK_DRAWS, shortfall))
        self._state_after_refill = rng.bit_generator.state
        if self._buckets is None:
            self._buckets = _zipf_buckets(self.n, self.theta)
        fresh = _zipf_ranks(self._cdf, self._buckets, us)
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
