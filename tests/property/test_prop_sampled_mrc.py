"""Property tests pinning ``sampled_mrc`` against the exact computation.

Two contracts (the ``ablation_sampled_mrc`` scenario rests on them):

* ``rate=1.0`` is not "approximately" exact — the sampler short-circuits
  and the curve is **bitwise identical** to ``MissRatioCurve.from_trace``
  (same hit histogram, same cold-miss count);
* at real sampling rates the MRC *parameters* the diagnosis consumes
  (total memory, acceptable memory) stay within the error bound the
  module documents: 25% relative, with a ``64 / rate``-page absolute
  floor for small footprints (see :mod:`repro.core.mrc_sampling`).

Traces are generated from seeded reuse patterns (a hot set under a
looping scan) rather than raw ``st.lists`` — spatial sampling needs
enough distinct pages and reuse for the rescaling argument to apply,
which ten-element random lists never exercise.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.mrc import MissRatioCurve
from repro.core.mrc_sampling import SAMPLING_ERROR_BOUND, sampled_mrc

REAL_RATES = (0.5, 0.25, 0.1)


def _reuse_trace(seed: int, hot_pages: int, scan_pages: int, length: int) -> np.ndarray:
    """A seeded trace with genuine reuse: 70% hot-set zipf, 30% scan."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, hot_pages + 1, dtype=np.float64)
    weights = 1.0 / ranks
    weights /= weights.sum()
    hot = rng.choice(hot_pages, size=length, p=weights)
    scan = (np.arange(length) % scan_pages) + hot_pages
    take_hot = rng.random(length) < 0.7
    return np.where(take_hot, hot, scan).astype(np.int64)


trace_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=50, max_value=400),    # hot pages
    st.integers(min_value=100, max_value=800),   # scan pages
    st.integers(min_value=2_000, max_value=6_000),  # length
)


@given(params=trace_params)
@settings(max_examples=25, deadline=None)
def test_rate_one_is_bitwise_exact(params):
    trace = _reuse_trace(*params)
    exact = MissRatioCurve.from_trace(trace)
    approx, stats = sampled_mrc(trace, rate=1.0)
    assert stats.sampled_length == len(trace)
    assert approx.cold_misses == exact.cold_misses
    assert approx.total_accesses == exact.total_accesses
    np.testing.assert_array_equal(approx._hits, exact._hits)


@given(params=trace_params, rate=st.sampled_from(REAL_RATES))
@settings(max_examples=25, deadline=None)
def test_sampled_parameters_within_documented_bound(params, rate):
    trace = _reuse_trace(*params)
    pool = 8192
    exact = MissRatioCurve.from_trace(trace).parameters(pool)
    curve, stats = sampled_mrc(trace, rate=rate, seed=0)
    approx = curve.parameters(pool)

    slack = 64 / rate  # absolute floor: rescaling quantises to 1/rate pages
    for name in ("total_memory", "acceptable_memory"):
        expected = getattr(exact, name)
        measured = getattr(approx, name)
        bound = max(SAMPLING_ERROR_BOUND * expected, slack)
        assert abs(measured - expected) <= bound, (
            f"{name} off by {abs(measured - expected)} pages at rate {rate} "
            f"(exact {expected}, sampled {measured}, bound {bound:.0f}, "
            f"kept {stats.sampled_length}/{stats.input_length})"
        )


@given(params=trace_params, rate=st.sampled_from(REAL_RATES))
@settings(max_examples=25, deadline=None)
def test_sampling_actually_cuts_work(params, rate):
    trace = _reuse_trace(*params)
    _, stats = sampled_mrc(trace, rate=rate, seed=0)
    # The sampler must remove work (that's its whole point) but keep
    # enough of the trace to say anything: within 3x of the target rate.
    assert stats.sampled_length < stats.input_length
    assert stats.effective_rate <= min(1.0, 3.0 * rate)
    assert stats.effective_rate >= rate / 3.0
