"""Metric instruments and the registry that owns them.

Three instrument kinds, mirroring the usual telemetry vocabulary:

* :class:`Counter` — a monotonically increasing total (actions taken, MRC
  recomputations, queries routed);
* :class:`Gauge` — a point-in-time value (queue depth, resident pages);
* :class:`Histogram` — a fixed-bucket distribution: bucket counts, count,
  sum, min and max (interval latencies, trace lengths).

Instruments are keyed by ``(name, labels)``; asking the registry for the
same key twice returns the same instrument, so call sites never cache
handles.  Everything is plain Python arithmetic over ints and floats — no
wall clock, no randomness — which keeps snapshots byte-reproducible.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
]

LabelItems = tuple[tuple[str, str], ...]

DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    float(f"{mantissa}e{exponent}")
    for exponent in range(-4, 6)
    for mantissa in (1, 2, 5)
)
"""A 1-2-5 geometric ladder from 1e-4 to 5e5: wide enough for both
sub-second latencies and page/access counts without per-site tuning."""


def _label_key(labels: dict[str, object]) -> LabelItems:
    """Canonical, order-insensitive form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease: {amount}")
        self.value += amount

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """A point-in-time value that may move in either direction."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Histogram:
    """A fixed-bucket histogram.

    ``bounds`` are strictly increasing bucket *upper* bounds; an observation
    ``v`` lands in the first bucket whose bound is ``>= v``, and values above
    the last bound land in an implicit overflow bucket.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "sum",
                 "_min", "_max")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        bounds: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last slot = overflow
        self.count = 0
        self.sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


class MetricRegistry:
    """Owns every instrument of one telemetry domain.

    Lookup is get-or-create: ``registry.counter("x", app="tpcw")`` always
    returns the same :class:`Counter` for the same name + labels (labels are
    order-insensitive).  Registering the same key under two different
    instrument kinds is an error.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelItems], object] = {}

    def _get(self, factory, name: str, labels: dict, **kwargs):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory(name, key[1], **kwargs)
            self._instruments[key] = instrument
            return instrument
        if not isinstance(instrument, factory):
            raise TypeError(
                f"metric {name!r} {dict(key[1])} is a "
                f"{type(instrument).__name__}, not a {factory.__name__}"
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: Sequence[float] | None = None, **labels
    ) -> Histogram:
        kwargs = {} if buckets is None else {"bounds": buckets}
        return self._get(Histogram, name, labels, **kwargs)

    def instruments(self) -> list:
        """Every instrument, sorted by (name, labels) for stable output."""
        return [self._instruments[key] for key in sorted(self._instruments)]

    def snapshot(self) -> list[dict]:
        """JSON-ready records of every instrument, deterministically ordered."""
        return [instrument.snapshot() for instrument in self.instruments()]

    def value(self, name: str, **labels) -> float:
        """Convenience: current value of a counter/gauge (0.0 if absent)."""
        instrument = self._instruments.get((name, _label_key(labels)))
        if instrument is None:
            return 0.0
        return getattr(instrument, "value", 0.0)


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class NullRegistry(MetricRegistry):
    """The zero-overhead default: hands out shared no-op instruments."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._counter = _NullCounter("null")
        self._gauge = _NullGauge("null")
        self._histogram = _NullHistogram("null", bounds=(1.0,))

    def counter(self, name: str, **labels) -> Counter:
        return self._counter

    def gauge(self, name: str, **labels) -> Gauge:
        return self._gauge

    def histogram(
        self, name: str, buckets: Sequence[float] | None = None, **labels
    ) -> Histogram:
        return self._histogram

    def snapshot(self) -> list[dict]:
        return []


NULL_REGISTRY = NullRegistry()
"""Shared no-op registry; safe to use as a default everywhere."""
