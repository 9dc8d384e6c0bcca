"""Miss-ratio curve (MRC) tracking via Mattson's stack algorithm.

The MRC of a query class gives its page miss ratio at every possible memory
size.  Because LRU obeys the *inclusion property* (a memory of ``k + 1``
pages always contains the contents of a memory of ``k`` pages), one pass
over a page trace yields the miss ratio at **all** sizes simultaneously:
for each reference, the page's LRU *stack distance* ``d`` means a pool of at
least ``d`` pages would have hit, so ``Hit[d]`` is incremented; first-ever
references increment ``Hit[inf]``.  The paper's Equation (1):

    MR(m) = 1 - sum_{i<=m} Hit[i] / (sum_i Hit[i] + Hit[inf])

Stack distances are computed in ``O(N log N)`` — but fully vectorised:
the distance of reference ``i`` with previous occurrence ``prev[i]`` is
``(i - prev[i]) - #{k < i : prev[k] > prev[i]}`` (each later re-reference
of another page collapses one duplicate in the interval).  ``prev`` comes
from one sort of packed ``(page, position)`` keys.  The count-earlier-greater
term is evaluated over the warm references only, by a top-down stable
partition: listed in ``prev`` order, they are split level by level into the
earlier and the later half of their block, and the distance an element of
the later half moves to the right is the number of earlier references with a
larger ``prev`` that the split resolves — so every level is a compare and
two gathers over one packed array, with neither a sort nor a search.  The
classical per-element Fenwick-tree formulation lives in the test tree
(``tests/oracles/fenwick.py``) as the reference the unit and property suites
check the vectorised path against.

Two parameters summarise a curve (paper §3.3):

* **total memory needed** — the smaller of the server's memory and the size
  at which the miss ratio bottoms out (only cold misses remain); the miss
  ratio there is the **ideal miss ratio**;
* **acceptable memory needed** — the smallest size whose miss ratio is
  within a fixed threshold of the ideal; its miss ratio is the **acceptable
  miss ratio**.

A log analyzer keeps its classes' curves in one :class:`MRCCache`, one slot
per class: the class's :class:`MRCEntry` (pending until something reads it),
the :class:`MRCCacheKey` it was taken under and, after an assessment, the
parameters of the slice it was compared against (DESIGN §6).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..engine.query import app_of
from ..obs.registry import MetricRegistry, NULL_REGISTRY
from ..sim.trace import WindowSlice

__all__ = [
    "stack_distances",
    "MissRatioCurve",
    "MRCParameters",
    "MRCEntry",
    "MRCCacheKey",
    "MRCSlot",
    "MRCCache",
]

DEFAULT_ACCEPTABLE_THRESHOLD = 0.05
"""Acceptable miss ratio = ideal miss ratio + this threshold (paper §3.3;
the paper leaves the constant unspecified — 0.05 places the acceptable
memory at the knee of both convex and nearly flat curves)."""


_LEAF = 64
"""Largest block the partition levels leave to the direct in-block count
(measured flat between 16 and 96 on the controller's windows; DESIGN §6)."""


def _previous_occurrence(pages: np.ndarray) -> np.ndarray:
    """``prev[i]``: the last position before ``i`` that holds ``pages[i]``, or -1.

    One plain sort does the grouping: page and position are packed into a
    single ``int64`` key (``page << bits | position``), so sorting the keys
    lists every page's positions in increasing order, and neighbours with an
    equal page part are consecutive occurrences.  The keys are distinct, so
    the sort need not be stable.
    """
    n = len(pages)
    bits = (n - 1).bit_length()
    low = int(pages.min())
    if (int(pages.max()) - low) >> (63 - bits):
        # Ids spread too wide for one key.  Only equality of pages matters,
        # so dense ids serve as well.
        pages, low = np.unique(pages, return_inverse=True)[1], 0
    key = pages - low
    key <<= bits
    key |= np.arange(n, dtype=np.int64)
    key.sort()
    position = key & ((1 << bits) - 1)
    key >>= bits
    prev = np.empty(n, dtype=np.int64)
    prev[position[0]] = -1
    prev[position[1:]] = np.where(key[1:] == key[:-1], position[:-1], -1)
    return prev


def _intervening_reuses(prev: np.ndarray, n: int) -> np.ndarray:
    """``out[j] = #{k < j : prev[k] > prev[j]}`` for distinct ``prev`` in ``[0, n)``.

    ``prev`` holds the previous occurrences of the warm references, in trace
    order, so ``j`` is a reference's *rank* among them.  The ranks are listed
    in increasing ``prev`` order and then sorted back into rank order by a
    top-down stable partition: a block that holds the ranks
    ``[base, base + size)`` is split into the lower and the upper half of
    that range, each keeping its ``prev`` order.  An upper-half element that
    moves ``d`` places to the right has jumped over exactly the ``d``
    lower-half elements that stood behind it, i.e. the ``d`` references
    before it in the trace whose ``prev`` is larger: its displacement *is*
    its count at that level (DESIGN §6).  Rank and running count travel
    packed in one unsigned word, rank in the high bits, so that one compare
    against the block's middle rank tells the halves apart and the
    displacement is added without a shift.

    All blocks of a level are split at once: the lower halves are gathered
    into the front of the output and the upper halves into the back, so the
    blocks end up in bit-reversed order, which ``bases`` tracks and nothing
    else depends on.  Blocks of at most ``_LEAF`` ranks are finished by
    comparing every pair inside a block directly.  Padding ranks (beyond
    ``m``, behind everything in ``prev`` order) make all blocks equal-sized;
    they are never in a lower half relative to a real rank, so they count
    for nobody.
    """
    m = len(prev)
    levels = max(0, (-(-m // _LEAF) - 1).bit_length())
    leaf = -(-m >> levels)
    n_pad = leaf << levels
    count_bits = max(1, (n_pad - 1).bit_length())
    # MAX_MRC_TRACE keeps the controller's windows on the 32-bit word.
    word = np.uint32 if count_bits <= 16 else np.uint64
    shift = word(count_bits)

    # The ranks in increasing ``prev`` order: ``prev`` values are distinct
    # positions, so scattering each rank to its ``prev`` slot sorts them.
    slot = np.full(n, n_pad, dtype=word)
    slot[prev] = np.arange(m, dtype=word)
    packed = np.empty(n_pad, dtype=word)
    np.compress(slot < n_pad, slot, out=packed[:m])
    packed[m:] = np.arange(m, n_pad, dtype=word)
    packed <<= shift

    split = np.empty_like(packed)
    shifted = np.empty_like(packed)
    upper = np.empty(n_pad, dtype=bool)
    offset = np.arange(n_pad, dtype=word)
    bases = np.zeros(1, dtype=word)
    middle = n_pad >> 1
    for level in range(levels):
        size = n_pad >> level
        half = size >> 1
        blocks = packed.reshape(-1, size)
        np.greater_equal(
            blocks, ((bases + word(half)) << shift)[:, None],
            out=upper.reshape(-1, size),
        )
        # Upper half: new offset ``half + j`` minus old offset, added to the
        # count (the subtraction may wrap; the sum below undoes it).
        np.subtract(blocks, offset[:size], out=shifted.reshape(-1, size))
        np.compress(upper, shifted, out=split[middle:])
        moved = split[middle:].reshape(-1, half)
        moved += offset[half:size]
        np.logical_not(upper, out=upper)
        np.compress(upper, packed, out=split[:middle])
        bases = np.concatenate([bases, bases + word(half)])
        packed, split = split, packed

    # Leaves, one block per column: count the later, smaller ranks directly.
    columns = np.ascontiguousarray(packed.reshape(-1, leaf).T)
    behind = np.zeros(columns.shape, dtype=np.uint8)
    for step in range(1, leaf):
        smaller = columns[step:] < columns[: leaf - step]
        behind[: leaf - step] += smaller.view(np.uint8)
    columns += behind
    counts = np.empty(n_pad, dtype=np.int64)
    counts[columns >> shift] = columns & word((1 << count_bits) - 1)
    return counts[:m]


def stack_distances(trace: Sequence[int] | np.ndarray) -> np.ndarray:
    """LRU stack distance of every reference in ``trace``.

    A distance of ``d`` means the page sat at depth ``d`` (1-based) in the
    LRU stack, i.e. a pool of ``>= d`` pages would have hit.  First-ever
    references get distance 0 (the cold-miss marker).

    Vectorised: with ``prev[i]`` the previous occurrence of page
    ``trace[i]`` (or -1), the distance is ``i - prev[i]`` minus the number
    of references in between whose page re-appears before ``i`` — i.e.
    ``#{k < i : prev[k] > prev[i]}`` — because each such re-reference
    collapses one duplicate in the interval.  Cold references are dropped
    before counting: -1 is never the larger ``prev`` and their own count is
    unused.  Produces bit-identical output to the per-element Fenwick-tree
    oracle in ``tests/oracles/fenwick.py``.
    """
    pages = np.asarray(trace, dtype=np.int64)
    n = len(pages)
    distances = np.zeros(n, dtype=np.int64)
    if n < 2:
        return distances
    prev = _previous_occurrence(pages)
    warm = np.flatnonzero(prev >= 0)
    if len(warm):
        prev = prev[warm]
        distances[warm] = warm - prev - _intervening_reuses(prev, n)
    return distances


class MissRatioCurve:
    """The full MR(m) function of one page trace.

    A curve is a value: nothing changes it after construction.
    """

    def __init__(self, hit_counts: np.ndarray, cold_misses: int) -> None:
        """``hit_counts[d]`` (1-based ``d``; index 0 unused) is Hit[d]."""
        self._hits = np.asarray(hit_counts, dtype=np.int64)
        self.cold_misses = int(cold_misses)
        self.total_accesses = int(self._hits.sum()) + self.cold_misses
        self._cumulative = np.cumsum(self._hits)
        # The checkpoint text of ``_hits``; ``repro.recovery.state`` fills it
        # on the first checkpoint that holds this curve and reads it after.
        self._encoded_hits: str | None = None

    @classmethod
    def from_trace(cls, trace: Sequence[int] | np.ndarray) -> "MissRatioCurve":
        """Run Mattson's algorithm over ``trace`` and build the curve."""
        return cls.from_distances(stack_distances(trace))

    @classmethod
    def from_distances(
        cls, distances: np.ndarray, rate: float = 1.0
    ) -> "MissRatioCurve":
        """Histogram stack distances (0 marks a cold miss) into a curve.

        ``rate < 1`` says the distances come from a trace spatially sampled
        at that rate (:mod:`repro.core.mrc_sampling`) and rescales them back
        to full-trace stack depths; miss *ratios* need no count rescaling.
        """
        warm = distances[distances > 0]
        cold = len(distances) - len(warm)
        if rate < 1.0 and len(warm):
            warm = np.maximum(1, np.round(warm / rate)).astype(np.int64)
        max_depth = int(warm.max()) if len(warm) else 0
        return cls(np.bincount(warm, minlength=max_depth + 1), cold)

    @property
    def max_depth(self) -> int:
        """Deepest stack distance observed (the trace's reuse footprint)."""
        return len(self._hits) - 1

    def hits_at(self, memory_pages: int) -> int:
        """Hits a pool of ``memory_pages`` would have served on this trace."""
        if memory_pages < 0:
            raise ValueError(f"memory size must be non-negative: {memory_pages}")
        if memory_pages == 0 or self.total_accesses == 0:
            return 0
        index = min(memory_pages, self.max_depth)
        return int(self._cumulative[index]) if index >= 1 else 0

    def miss_ratio(self, memory_pages: int) -> float:
        """MR(m): predicted miss ratio with ``memory_pages`` of memory."""
        if self.total_accesses == 0:
            return 0.0
        return 1.0 - self.hits_at(memory_pages) / self.total_accesses

    def curve(self, sizes: Iterable[int]) -> list[tuple[int, float]]:
        """(size, miss ratio) samples for plotting or reporting."""
        return [(size, self.miss_ratio(size)) for size in sizes]

    @property
    def minimum_miss_ratio(self) -> float:
        """Miss ratio once every reuse is captured (cold misses only)."""
        return self.miss_ratio(self.max_depth)

    def parameters(
        self,
        server_memory_pages: int,
        acceptable_threshold: float = DEFAULT_ACCEPTABLE_THRESHOLD,
        flatness_epsilon: float = 1e-6,
    ) -> "MRCParameters":
        """Derive the paper's two MRC parameters for this curve."""
        if server_memory_pages <= 0:
            raise ValueError(
                f"server memory must be positive: {server_memory_pages}"
            )
        if acceptable_threshold < 0:
            raise ValueError(
                f"acceptable threshold must be non-negative: {acceptable_threshold}"
            )
        floor = self.minimum_miss_ratio
        saturation = self._smallest_size_with_ratio(floor + flatness_epsilon)
        total_memory = min(server_memory_pages, saturation)
        ideal = self.miss_ratio(total_memory)
        acceptable_memory = self._smallest_size_with_ratio(
            ideal + acceptable_threshold
        )
        acceptable_memory = min(acceptable_memory, total_memory)
        return MRCParameters(
            total_memory=total_memory,
            ideal_miss_ratio=ideal,
            acceptable_memory=acceptable_memory,
            acceptable_miss_ratio=self.miss_ratio(acceptable_memory),
            threshold=acceptable_threshold,
        )

    def _smallest_size_with_ratio(self, target: float) -> int:
        """Smallest m with MR(m) <= target (binary search on hits).

        The result is clamped to ``[1, max_depth]``: a pool needs at least
        one page, and sizes beyond the deepest observed reuse are all
        equivalent.  When the trace has no reuse at all (``max_depth == 0``
        — every reference a cold miss) every size is equivalent too, so 1 is
        returned for any target, matching :meth:`parameters`' semantics of
        "the size at which only cold misses remain" (tests pin this).
        """
        if self.total_accesses == 0:
            return 1
        needed_hits = (1.0 - target) * self.total_accesses
        # cumulative hits are non-decreasing in m; find first index meeting it
        index = int(np.searchsorted(self._cumulative, needed_hits - 1e-9, side="left"))
        return max(1, min(index, self.max_depth) if self.max_depth else 1)


@dataclass(frozen=True)
class MRCParameters:
    """The two sizes and two ratios the diagnosis algorithm consumes."""

    total_memory: int
    ideal_miss_ratio: float
    acceptable_memory: int
    acceptable_miss_ratio: float
    threshold: float = DEFAULT_ACCEPTABLE_THRESHOLD

    def significantly_differs_from(
        self,
        other: "MRCParameters",
        relative: float = 0.25,
        min_absolute_pages: int = 256,
    ) -> bool:
        """Whether memory needs changed enough to suspect this class.

        The paper recomputes a problem class's MRC and keeps it suspect when
        "the parameters of the MRC curve show a significantly higher total
        memory need"; we flag a relative change of ``relative`` or more in
        either parameter, in either direction (a *flatter* curve — lower
        acceptable memory — also signals an access-pattern change, as in the
        index-drop scenario).  Tiny working sets quantise coarsely, so the
        change must also clear ``min_absolute_pages`` — a 40-page jitter in
        a 100-page class is noise, not a plan change.
        """
        if relative < 0:
            raise ValueError(f"relative threshold must be non-negative: {relative}")

        def significant(new: int, old: int) -> bool:
            diff = abs(new - old)
            return diff >= relative * max(old, 1) and diff >= min_absolute_pages

        return significant(self.total_memory, other.total_memory) or significant(
            self.acceptable_memory, other.acceptable_memory
        )


class MRCEntry:
    """One recorded miss-ratio curve, analysed when something first reads it.

    A recorded entry holds a reference to its slice of the class's access
    window (:class:`~repro.sim.trace.WindowSlice`) and the memory size and
    threshold the curve will be analysed against.  Mattson's pass, the
    histogram and :meth:`MissRatioCurve.parameters` run on the first read of
    :attr:`curve` or :attr:`parameters`; the results are kept and the slice
    is let go.  An entry that is replaced or dropped before anything reads it
    is never analysed, and its slice is never copied out of the window
    (DESIGN §6, *Curves on demand*).
    """

    __slots__ = ("_pending", "_curve", "_params")

    def __init__(
        self,
        trace: WindowSlice,
        server_memory_pages: int,
        acceptable_threshold: float,
    ) -> None:
        self._pending: tuple | None = (
            trace, server_memory_pages, acceptable_threshold
        )
        self._curve: MissRatioCurve | None = None
        self._params: MRCParameters | None = None

    @classmethod
    def known(cls, params: MRCParameters, curve: MissRatioCurve) -> "MRCEntry":
        """An entry whose analysis is done, as a checkpoint restores it."""
        entry = cls.__new__(cls)
        entry._pending, entry._curve, entry._params = None, curve, params
        return entry

    @property
    def pending_slice(self) -> tuple[int, int] | None:
        """``(watermark, length)`` of the window slice a pending entry will
        analyse; ``None`` once it has been analysed."""
        if self._pending is None:
            return None
        trace = self._pending[0]
        return trace.watermark, trace.length

    def _analyse(self) -> None:
        trace, server_memory_pages, acceptable_threshold = self._pending
        curve = MissRatioCurve.from_trace(trace.read())
        self._params = curve.parameters(server_memory_pages, acceptable_threshold)
        self._curve = curve
        self._pending = None

    @property
    def curve(self) -> MissRatioCurve | None:
        if self._pending is not None:
            self._analyse()
        return self._curve

    @property
    def parameters(self) -> MRCParameters:
        if self._pending is not None:
            self._analyse()
        return self._params


@dataclass(frozen=True)
class MRCCacheKey:
    """What a class's curve was taken under.

    * ``window_version`` — the access window's ``total_seen`` watermark (a
      strictly increasing version number: any page access advances it, so
      an advanced window can never serve a stale curve);
    * ``variant`` — which slice of the window was analysed (full window,
      recent tail, assessment pair, ...), including anything else the slice
      bounds depend on.

    The pool size needs no place here: an engine's configuration is frozen.
    """

    window_version: int
    variant: str = "full"


@dataclass(slots=True)
class MRCSlot:
    """One class's curve: the entry, the key it was taken under and, after
    an assessment, the parameters of the slice it was compared against."""

    key: MRCCacheKey
    entry: MRCEntry
    before: MRCParameters | None = None


class MRCCache:
    """Each query class's miss-ratio curve, in one slot per class.

    MRCs are taken when a class is first scheduled and are *not* retaken
    unless an SLA violation occurs and the class's memory counters show
    outliers (paper §3.3) — recomputation is the expensive step this
    laziness is protecting.  :meth:`record` puts a pending :class:`MRCEntry`
    in the class's slot, replacing whatever was there unanalysed; the curve
    is analysed when something first reads it.

    Stack-distance analysis is the O(N log N) hot path of diagnosis; when a
    class's access window has not advanced since its curve was taken, that
    curve is *exactly* correct and the whole pass can be skipped: :meth:`get`
    serves the slot whose key matches.  A mismatch (window advance, a
    different slice variant) leaves the slot as it is until :meth:`record`
    replaces it.

    Hits and misses are published to the metric registry as
    ``mrc.cache.hits`` / ``mrc.cache.misses`` so regression tests can
    assert that a stale curve is never served (a hit never increments the
    ``mrc.recomputations`` counter).
    """

    def __init__(
        self,
        server_memory_pages: int,
        acceptable_threshold: float = DEFAULT_ACCEPTABLE_THRESHOLD,
        registry: MetricRegistry | None = None,
    ) -> None:
        if server_memory_pages <= 0:
            raise ValueError(
                f"server memory must be positive: {server_memory_pages}"
            )
        self.server_memory_pages = server_memory_pages
        self.acceptable_threshold = acceptable_threshold
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._slots: dict[str, MRCSlot] = {}
        self.recomputations = 0
        self.hits = 0

    def __len__(self) -> int:
        return len(self._slots)

    def get(self, context_key: str, key: MRCCacheKey) -> MRCSlot | None:
        """The class's slot if its curve was taken under ``key``, else ``None``."""
        slot = self._slots.get(context_key)
        if slot is not None and slot.key == key:
            self.hits += 1
            self.registry.counter("mrc.cache.hits").inc()
            return slot
        self.registry.counter("mrc.cache.misses").inc()
        return None

    def record(
        self, context_key: str, key: MRCCacheKey, trace: WindowSlice
    ) -> MRCSlot:
        """Take the curve of ``context_key``'s window slice, pending until read.

        Counts as a recomputation now (``mrc.recomputations``, and the trace
        length in ``mrc.trace_length``): the telemetry says when a curve was
        taken, whenever it is analysed.
        """
        entry = MRCEntry(trace, self.server_memory_pages, self.acceptable_threshold)
        slot = self._slots[context_key] = MRCSlot(key, entry)
        self.recomputations += 1
        app = app_of(context_key)
        self.registry.counter("mrc.recomputations", app=app).inc()
        self.registry.histogram("mrc.trace_length").observe(len(trace))
        return slot

    def slot(self, context_key: str) -> MRCSlot | None:
        """The class's slot, if it has one; counts nothing."""
        return self._slots.get(context_key)

    def slots(self) -> Iterator[tuple[str, MRCSlot]]:
        """``(context, slot)`` of every class with a curve, in the order the
        classes first got one; pending entries stay pending."""
        return iter(self._slots.items())

    def has(self, context_key: str) -> bool:
        return context_key in self._slots

    def _entry(self, context_key: str) -> MRCEntry:
        try:
            return self._slots[context_key].entry
        except KeyError:
            raise KeyError(f"no MRC recorded for context {context_key!r}") from None

    def parameters_of(self, context_key: str) -> MRCParameters:
        return self._entry(context_key).parameters

    def curve_of(self, context_key: str) -> MissRatioCurve:
        return self._entry(context_key).curve

    def contexts(self) -> list[str]:
        return sorted(self._slots)

    def reset(self) -> None:
        """Back to the freshly constructed state: no slots, zero tallies.

        Publishes nothing to the registry — the crash model
        (``LogAnalyzer.amnesia``) must emit no telemetry of its own.
        """
        self._slots.clear()
        self.recomputations = 0
        self.hits = 0
