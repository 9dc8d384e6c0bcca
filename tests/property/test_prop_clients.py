"""Property: client draws served from a block equal one numpy call per draw.

``RandomStream`` serves ``random`` (the mix draw) and ``exponential`` (the
think time) from a block drawn ahead on the stream and rewinds it before any
other draw (``repro.sim.rng``).  The stock driver on stock streams is run
beside ``tests/oracles/clients.py`` — the driver of before on streams that
make one scalar numpy call per draw — through random interval lengths,
think times, population swaps up and down (``_resize_population`` staggers
each new session with a ``uniform`` on the think stream, so a rewind lands
wherever the block happens to be), two drivers built one after the other on
one ``Workload``, and foreign draws straight on the mix and think streams
(``integers``, ``shuffle``, ``uniform``, ``choice``, ``generator``, a
``ZipfGenerator`` refill, a ``UniformWorkingSet`` block, and a draw of the
other block kind).  Both sides must submit the same (class, timestamp,
latency) sequence, return the same foreign values, and leave every stream
at the same next scalar draw.  Block sizes of one to seven values put the
rewinds at many offsets (1024 is the stock size), and a fixed test puts one
at every offset of a five-value block, 0 and a full block included.

Two mutants show the check has teeth: a rewind that redraws the whole block
instead of the values handed out, and a ``uniform`` that draws without a
rewind.
"""

from __future__ import annotations

from operator import length_hint
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from oracles.clients import ScalarDrawDriver, ScalarStream, StreamsOf

import repro.sim.rng as rng_module
from repro.engine.access import UniformWorkingSet
from repro.engine.pages import PageRange
from repro.sim.rng import STREAM_BLOCK_DRAWS, RandomStream, ZipfGenerator
from repro.workloads.base import Workload
from repro.workloads.clients import ClosedLoopDriver
from repro.workloads.load import BurstLoad, ConstantLoad
from repro.workloads.tpcw import build_tpcw

TPCW = build_tpcw(3)
MIX = f"{TPCW.app}-mix"
THINK = f"{TPCW.app}-think"


class RecordingScheduler:
    """Accepts every query; its latency depends on the class and the count."""

    def __init__(self) -> None:
        self.submissions: list[tuple[str, float, float]] = []

    def submit(self, query_class, timestamp: float):
        count = len(self.submissions)
        latency = 0.002 * (1 + len(query_class.name) % 5) * (1 + count % 3)
        self.submissions.append((query_class.name, timestamp, latency))
        return SimpleNamespace(latency=latency)


class World:
    """One workload (mix and think streams of ``stream_type``) and two
    drivers on it, built one after the other, each with its own scheduler."""

    def __init__(self, stream_type, driver_type, seed: int, think: tuple) -> None:
        self.workload = Workload(
            app=TPCW.app,
            schema=TPCW.schema,
            catalog=TPCW.catalog,
            mix=list(TPCW.mix),
            seeds=StreamsOf(stream_type, seed),
        )
        self.schedulers = [RecordingScheduler(), RecordingScheduler()]
        self.drivers = [
            driver_type(self.workload, scheduler, ConstantLoad(0), think_time_mean=t)
            for scheduler, t in zip(self.schedulers, think)
        ]
        self.clock = [0.0, 0.0]

    def stream(self, name: str) -> RandomStream:
        return self.workload.seeds.stream(name)


def foreign_draw(stream: RandomStream, kind: str):
    """One draw straight on a stream, as someone other than the driver."""
    if kind == "integers":
        return stream.integers(0, 1000)
    if kind == "uniform_set":
        pages = PageRange("foreign", start=0, count=1000)
        return UniformWorkingSet(pages, 1000, 3, stream).pages_for_execution().demand
    if kind == "shuffle":
        items = list(range(8))
        stream.shuffle(items)
        return items
    if kind == "uniform":
        return stream.uniform(0.0, 2.0)
    if kind == "choice":
        return stream.choice("abcdef")
    if kind == "generator":
        return stream.generator.random()
    if kind == "zipf":
        return ZipfGenerator(50, 0.8, stream).sample_many(3).tolist()
    if kind == "random":
        return stream.random()
    assert kind == "exponential"
    return stream.exponential(0.7)


loads = st.one_of(
    st.builds(ConstantLoad, st.integers(min_value=0, max_value=12)),
    st.builds(
        BurstLoad,
        base=st.integers(min_value=0, max_value=6),
        start=st.floats(min_value=0.0, max_value=30.0),
        duration=st.floats(min_value=0.5, max_value=10.0),
        multiplier=st.floats(min_value=1.0, max_value=3.0),
    ),
)
steps = st.one_of(
    st.tuples(
        st.just("interval"),
        st.integers(min_value=0, max_value=1),
        st.floats(min_value=0.05, max_value=3.0),
    ),
    st.tuples(st.just("load"), st.integers(min_value=0, max_value=1), loads),
    st.tuples(
        st.just("foreign"),
        st.sampled_from([MIX, THINK]),
        st.sampled_from(
            [
                "integers", "uniform_set", "shuffle", "uniform", "choice",
                "generator", "zipf", "random", "exponential",
            ]
        ),
    ),
)
think_means = st.tuples(
    st.floats(min_value=0.05, max_value=2.0), st.floats(min_value=0.05, max_value=2.0)
)


def assert_driver_equals_oracle(stream_type, block, seed, think, script) -> None:
    saved = rng_module.STREAM_BLOCK_DRAWS
    rng_module.STREAM_BLOCK_DRAWS = block
    try:
        stock = World(stream_type, ClosedLoopDriver, seed, think)
        oracle = World(ScalarStream, ScalarDrawDriver, seed, think)
        for step in script:
            if step[0] == "interval":
                _, which, length = step
                for world in (stock, oracle):
                    start = world.clock[which]
                    world.drivers[which].run_interval(start, length)
                    world.clock[which] = start + length
            elif step[0] == "load":
                _, which, load = step
                for world in (stock, oracle):
                    world.drivers[which].load = load
            else:
                _, name, kind = step
                assert foreign_draw(stock.stream(name), kind) == foreign_draw(
                    oracle.stream(name), kind
                ), step
        for which in (0, 1):
            assert (
                stock.schedulers[which].submissions
                == oracle.schedulers[which].submissions
            )
            totals = [world.drivers[which].total_queries for world in (stock, oracle)]
            assert totals[0] == totals[1]
        for name in (MIX, THINK):
            draws = [world.stream(name).generator.random() for world in (stock, oracle)]
            assert draws[0] == draws[1], name
    finally:
        rng_module.STREAM_BLOCK_DRAWS = saved


@given(
    block=st.sampled_from([1, 2, 3, 4, 5, 7, STREAM_BLOCK_DRAWS]),
    seed=st.integers(min_value=0, max_value=2**16),
    think=think_means,
    script=st.lists(steps, min_size=1, max_size=14),
)
@settings(max_examples=120, deadline=None)
def test_block_served_draws_equal_one_scalar_draw_each(block, seed, think, script):
    assert_driver_equals_oracle(RandomStream, block, seed, think, script)


@pytest.mark.parametrize("block", [1, 4, STREAM_BLOCK_DRAWS])
def test_load_swaps_up_down_and_burst(block):
    """A fixed script: growth after 0 … many think draws, a shrink, a
    burst, a second driver on the same streams, foreign draws between."""
    script = [
        ("load", 0, ConstantLoad(3)),
        ("interval", 0, 2.0),
        ("load", 0, ConstantLoad(9)),
        ("interval", 0, 1.5),
        ("foreign", THINK, "zipf"),
        ("load", 1, BurstLoad(base=2, start=1.0, duration=2.0, multiplier=2.5)),
        ("interval", 1, 1.0),
        ("interval", 0, 1.0),
        ("interval", 1, 1.0),
        ("foreign", MIX, "shuffle"),
        ("load", 0, ConstantLoad(1)),
        ("interval", 0, 2.0),
        ("foreign", MIX, "integers"),
        ("interval", 1, 2.0),
        ("load", 0, ConstantLoad(6)),
        ("interval", 0, 2.0),
    ]
    assert_driver_equals_oracle(RandomStream, block, 11, (0.3, 0.8), script)


@pytest.mark.parametrize("kind", ["random", "exponential"])
@pytest.mark.parametrize("handed_out", range(0, 6))
@pytest.mark.parametrize(
    "draw", ["uniform", "integers", "shuffle", "generator", "zipf", "choice"]
)
def test_a_rewind_at_every_offset_of_a_block(kind, handed_out, draw):
    """Blocks of five: a foreign draw after 0 … 5 values handed out (5 is a
    full block, with nothing left to rewind)."""
    saved = rng_module.STREAM_BLOCK_DRAWS
    rng_module.STREAM_BLOCK_DRAWS = 5
    try:
        stock, scalar = RandomStream(5, "s"), ScalarStream(5, "s")
        for stream in (stock, scalar):
            stream.values = [
                stream.random() if kind == "random" else stream.exponential(0.4)
                for _ in range(handed_out)
            ]
            stream.values.append(foreign_draw(stream, draw))
            stream.values.append(stream.random())
            stream.values.append(stream.generator.random())
        assert stock.values == scalar.values
        assert stock._state_before_block is None  # the block was dropped
    finally:
        rng_module.STREAM_BLOCK_DRAWS = saved


class _RewindByBlockSize(RandomStream):
    """Mutant: a rewind redraws the whole block, not the values handed out."""

    def _rewind(self) -> None:
        unread = length_hint(self._uniforms) + length_hint(self._exponentials)
        if self._state_before_block is not None and unread:
            self._rng.bit_generator.state = self._state_before_block
            self._block_draw(self._block_size)
        self._uniforms = self._exponentials = iter(())
        self._state_before_block = None


class _UniformWithoutRewind(RandomStream):
    """Mutant: ``uniform`` draws without rewinding the block first."""

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._rng.uniform(low, high))


@pytest.mark.parametrize("mutant", [_RewindByBlockSize, _UniformWithoutRewind])
def test_the_check_catches_each_mutant(mutant):
    script = [
        ("load", 0, ConstantLoad(2)),
        ("interval", 0, 1.0),
        ("load", 0, ConstantLoad(4)),
        ("interval", 0, 1.0),
    ]
    assert_driver_equals_oracle(RandomStream, 8, 2, (0.5, 0.5), script)
    with pytest.raises(AssertionError):
        assert_driver_equals_oracle(mutant, 8, 2, (0.5, 0.5), script)
