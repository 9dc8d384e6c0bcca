"""Spatially-sampled miss-ratio curves (SHARDS-style).

Exact stack-distance analysis is O(N log N) in the trace length, which is
what makes the paper keep MRC recomputation lazy.  Spatial hashed sampling
(Waldspurger et al.'s SHARDS idea) cuts the cost by a constant factor R
while staying statistically faithful:

* a page participates iff ``hash(page) mod M < R * M`` — the *same* pages
  are always sampled, so every reuse pair of a sampled page survives intact;
* the reuse distance observed in the sampled trace underestimates the true
  distance by exactly the sampling rate in expectation, so distances are
  rescaled by ``1/R``;
* miss *ratios* need no count rescaling: each sampled access represents
  ``1/R`` accesses uniformly.

The result is a regular :class:`~repro.core.mrc.MissRatioCurve`, so the
parameter extraction (total/acceptable memory) and the rest of the pipeline
work unchanged.  ``rate=1.0`` degenerates to the exact computation — not
approximately: the sampler short-circuits and the curve is bitwise
identical to :meth:`MissRatioCurve.from_trace`.

**Error bound.** At real rates the extracted parameters (total memory,
acceptable memory) stay within :data:`SAMPLING_ERROR_BOUND` (25%) of the
exact values relative, with an absolute floor of ``64 / rate`` pages —
distance rescaling quantises depths to multiples of ``1/rate``, so small
footprints carry that granularity as irreducible noise.  The bound is
pinned by ``tests/property/test_prop_sampled_mrc.py``; it is what makes a
sampled curve safe to feed the diagnosis, whose own significance test
(``MRCParameters.significantly_differs_from``) also works at the 25%
level.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .mrc import MissRatioCurve, stack_distances

__all__ = ["SAMPLING_ERROR_BOUND", "SamplingStats", "sample_trace", "sampled_mrc"]

SAMPLING_ERROR_BOUND = 0.25
"""Documented relative error on the extracted MRC parameters at real
sampling rates (with a ``64 / rate``-page absolute floor); see the module
docstring and ``tests/property/test_prop_sampled_mrc.py``."""

_HASH_MODULUS = 1 << 24
_HASH_MULTIPLIER = 0x9E3779B1  # Fibonacci hashing constant


@dataclass(frozen=True)
class SamplingStats:
    """What the sampler kept."""

    rate: float
    input_length: int
    sampled_length: int

    @property
    def effective_rate(self) -> float:
        return self.sampled_length / self.input_length if self.input_length else 0.0


def _page_hashes(pages: np.ndarray, seed: int) -> np.ndarray:
    """A deterministic per-page hash in ``[0, _HASH_MODULUS)``."""
    mixed = (pages.astype(np.uint64) + np.uint64(seed)) * np.uint64(_HASH_MULTIPLIER)
    mixed ^= mixed >> np.uint64(16)
    return (mixed % np.uint64(_HASH_MODULUS)).astype(np.int64)


def sample_trace(
    trace: Sequence[int] | np.ndarray, rate: float, seed: int = 0
) -> tuple[np.ndarray, SamplingStats]:
    """Keep the accesses of pages whose hash falls under ``rate``."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"sampling rate must be in (0, 1]: {rate}")
    pages = np.asarray(trace, dtype=np.int64)
    if rate == 1.0:
        return pages, SamplingStats(rate, len(pages), len(pages))
    threshold = int(rate * _HASH_MODULUS)
    kept = pages[_page_hashes(pages, seed) < threshold]
    return kept, SamplingStats(rate, len(pages), len(kept))


def sampled_mrc(
    trace: Sequence[int] | np.ndarray, rate: float = 0.1, seed: int = 0
) -> tuple[MissRatioCurve, SamplingStats]:
    """Approximate MRC from a spatially sampled trace.

    Returns the curve plus the sampling statistics.  At ``rate=1.0`` the
    curve is bit-identical to :meth:`MissRatioCurve.from_trace`.
    """
    kept, stats = sample_trace(trace, rate, seed)
    return MissRatioCurve.from_distances(stack_distances(kept), rate), stats
