"""Property-based tests for seeded randomness (named streams, Zipf draws)."""

from hypothesis import given, settings, strategies as st

from repro.sim.rng import RandomStream, SeedSequenceFactory, ZipfGenerator

@given(seed=st.integers(min_value=0, max_value=2**31), name=st.text(max_size=10))
@settings(max_examples=50, deadline=None)
def test_streams_reproducible(seed, name):
    a = RandomStream(seed, name)
    b = RandomStream(seed, name)
    assert [a.uniform() for _ in range(3)] == [b.uniform() for _ in range(3)]


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=500),
    theta=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_zipf_samples_in_range(seed, n, theta):
    factory = SeedSequenceFactory(seed)
    zipf = ZipfGenerator(n, theta, factory.stream("z"))
    for _ in range(20):
        assert 0 <= zipf.sample() < n


@given(
    n=st.integers(min_value=2, max_value=200),
    theta=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_zipf_mass_sums_to_one(n, theta):
    factory = SeedSequenceFactory(0)
    zipf = ZipfGenerator(n, theta, factory.stream("z"))
    total = sum(zipf.probability(rank) for rank in range(n))
    assert abs(total - 1.0) < 1e-9
