"""Property-based tests for the observability layer's histograms.

Every observation lands in exactly one bucket, whatever the bounds: the
bucket counts of an exported histogram always add up to its count.
"""

from hypothesis import given, settings, strategies as st

from repro.obs import Histogram

values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
samples = st.lists(values, min_size=0, max_size=120)

bucket_bounds = st.lists(
    st.floats(min_value=-1e4, max_value=1e4,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=12, unique=True,
).map(lambda bounds: tuple(sorted(bounds)))


@given(observations=samples, bounds=bucket_bounds)
@settings(max_examples=60, deadline=None)
def test_every_observation_lands_in_exactly_one_bucket(observations, bounds):
    hist = Histogram("h", bounds=bounds)
    for value in observations:
        hist.observe(value)
    assert sum(hist.bucket_counts) == len(observations)
    assert len(hist.bucket_counts) == len(bounds) + 1
