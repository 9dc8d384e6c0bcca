"""Unit tests for seeded random streams and the Zipf generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.pagegen import ZipfOracle

from repro.sim.rng import (
    RandomStream,
    SeedSequenceFactory,
    ZipfGenerator,
    _zipf_cdf,
)
from repro.workloads.tpcw import build_tpcw


class TestRandomStream:
    def test_same_seed_same_sequence(self):
        a = RandomStream(1, "x")
        b = RandomStream(1, "x")
        assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]

    def test_different_names_differ(self):
        a = RandomStream(1, "x")
        b = RandomStream(1, "y")
        assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = RandomStream(1, "x")
        b = RandomStream(2, "x")
        assert a.uniform() != b.uniform()

    def test_exponential_positive(self):
        stream = RandomStream(3, "exp")
        assert all(stream.exponential(1.0) > 0 for _ in range(50))

    def test_exponential_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            RandomStream(3, "exp").exponential(0.0)

    def test_integers_within_bounds(self):
        stream = RandomStream(4, "ints")
        values = [stream.integers(2, 7) for _ in range(200)]
        assert min(values) >= 2 and max(values) < 7

    def test_choice_uniform(self):
        stream = RandomStream(5, "choice")
        items = ["a", "b", "c"]
        assert all(stream.choice(items) in items for _ in range(50))

    def test_choice_weighted_respects_zero_weight(self):
        stream = RandomStream(6, "wchoice")
        picks = {stream.choice(["a", "b"], weights=[1.0, 0.0]) for _ in range(50)}
        assert picks == {"a"}

    def test_choice_rejects_zero_weight_sum(self):
        with pytest.raises(ValueError):
            RandomStream(6, "w").choice(["a"], weights=[0.0])

    def test_shuffle_preserves_elements(self):
        stream = RandomStream(7, "shuffle")
        items = list(range(20))
        stream.shuffle(items)
        assert sorted(items) == list(range(20))


class TestSeedSequenceFactory:
    def test_stream_is_cached(self):
        factory = SeedSequenceFactory(1)
        assert factory.stream("a") is factory.stream("a")

    def test_streams_independent_of_creation_order(self):
        f1 = SeedSequenceFactory(1)
        f2 = SeedSequenceFactory(1)
        f1.stream("a")  # extra stream created first
        assert f1.stream("b").uniform() == f2.stream("b").uniform()


class TestZipfGenerator:
    def test_rejects_bad_support(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0, 1.0, RandomStream(1, "z"))

    def test_rejects_negative_theta(self):
        with pytest.raises(ValueError):
            ZipfGenerator(10, -0.5, RandomStream(1, "z"))

    def test_rejects_nan_theta(self):
        with pytest.raises(ValueError):
            ZipfGenerator(10, float("nan"), RandomStream(1, "z"))

    def test_samples_within_range(self):
        zipf = ZipfGenerator(100, 0.9, RandomStream(2, "z"))
        samples = [zipf.sample() for _ in range(500)]
        assert min(samples) >= 0 and max(samples) < 100

    def test_skew_favours_low_ranks(self):
        zipf = ZipfGenerator(1000, 1.2, RandomStream(3, "z"))
        samples = zipf.sample_many(5000)
        top_share = np.mean(samples < 100)
        assert top_share > 0.5  # strongly skewed towards the head

    def test_theta_zero_is_uniform(self):
        zipf = ZipfGenerator(10, 0.0, RandomStream(4, "z"))
        assert zipf.probability(0) == pytest.approx(0.1)
        assert zipf.probability(9) == pytest.approx(0.1)

    def test_probabilities_sum_to_one(self):
        zipf = ZipfGenerator(50, 0.8, RandomStream(5, "z"))
        total = sum(zipf.probability(rank) for rank in range(50))
        assert total == pytest.approx(1.0)

    def test_probability_monotone_decreasing(self):
        zipf = ZipfGenerator(50, 0.8, RandomStream(6, "z"))
        probs = [zipf.probability(rank) for rank in range(50)]
        assert all(a >= b - 1e-12 for a, b in zip(probs, probs[1:]))

    def test_probability_rejects_out_of_range(self):
        zipf = ZipfGenerator(5, 0.8, RandomStream(7, "z"))
        with pytest.raises(IndexError):
            zipf.probability(5)

    def test_sample_many_count(self):
        zipf = ZipfGenerator(10, 0.5, RandomStream(8, "z"))
        assert len(zipf.sample_many(123)) == 123

    def test_sample_many_rejects_negative(self):
        zipf = ZipfGenerator(10, 0.5, RandomStream(8, "z"))
        with pytest.raises(ValueError):
            zipf.sample_many(-1)

    @pytest.mark.parametrize("theta", [0, 0.35, 0.5, 0.7, 0.8, 1.0, 1.2, 2.0])
    def test_in_place_cdf_is_the_three_array_cdf_bit_for_bit(self, theta):
        n = 100_003
        ranks = np.arange(1, n + 1, dtype=float)
        cdf = np.cumsum(ranks ** (-theta))
        cdf /= cdf[-1]
        zipf = ZipfGenerator(n, theta, RandomStream(9, "z"))
        assert zipf._cdf.tobytes() == cdf.tobytes()


class TestSharedCdf:
    """One CDF per ``(n, theta)`` per process: generators share it, never write it."""

    def test_equal_support_and_exponent_share_one_array(self):
        a = ZipfGenerator(1_000, 0.8, RandomStream(1, "a"))
        b = ZipfGenerator(1_000, 0.8, RandomStream(2, "b"))
        assert a._cdf is b._cdf
        assert ZipfGenerator(1_000, 0.9, RandomStream(1, "a"))._cdf is not a._cdf

    def test_shared_array_is_read_only(self):
        cdf = ZipfGenerator(1_000, 0.8, RandomStream(1, "a"))._cdf
        with pytest.raises(ValueError):
            cdf[0] = 1.0

    def test_sharing_generators_each_draw_their_own_oracle_sequence(self):
        n, theta = 5_000, 1.2
        a = ZipfGenerator(n, theta, RandomStream(1, "a"))
        b = ZipfGenerator(n, theta, RandomStream(2, "b"))
        assert a._cdf is b._cdf
        oracle_a = ZipfOracle(n, theta, RandomStream(1, "a"))
        oracle_b = ZipfOracle(n, theta, RandomStream(2, "b"))
        counts = np.random.default_rng(0).integers(0, 700, 40)
        for step, count in enumerate(counts.tolist()):
            for served, oracle in ((a, oracle_a), (b, oracle_b)):
                if step % 3 == 0:
                    assert served.sample() == oracle.sample()
                else:
                    assert np.array_equal(
                        served.sample_many(count), oracle.sample_many(count)
                    )

    def test_a_second_build_computes_no_cdf_and_draws_as_the_first(self):
        _zipf_cdf.cache_clear()
        cold = build_tpcw(seed=7)
        misses = _zipf_cdf.cache_info().misses
        warm = build_tpcw(seed=7)
        assert misses > 0
        assert _zipf_cdf.cache_info().misses == misses
        for first, second in zip(cold.classes(), warm.classes(), strict=True):
            for _ in range(3):
                assert first.execute_pages() == second.execute_pages()


# Seeded-randomness properties (named streams, Zipf draws).


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
