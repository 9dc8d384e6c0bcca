"""Differential tests pinning the per-query fast path to its old formulas.

The class draw, the Zipf rank draws, the B+-tree lookup path, the Zipf
working set's page vector and the composite pattern were rewritten to do
per query only what changes per query.  The formulas they replaced live on
here and in ``tests/oracles/pagegen.py`` as oracles.  "Equal" always means
two things: the same values, and the same doubles consumed from the stream,
because every seeded artefact depends on which double reaches which
execution.  For code that draws what it returns, the second half is checked
by comparing the next ``random()`` of both generators afterwards.  The Zipf
generator draws ahead, so its stream sits up to a block further on; there
the check is that N executions *crossing at least two refills* equal N
executions of the oracle — a double lost, repeated or reordered at a refill
shifts every value after it.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.pagegen import (
    ZipfOracle,
    assert_interned,
    per_execution_locks,
    per_execution_twin,
    per_execution_workload,
)
from repro.engine.access import (
    BLOCK_PAGES,
    AccessPattern,
    CompositePattern,
    ExecutionAccess,
    IndexLookup,
    IndexRangeScan,
    SequentialChunkScan,
    UniformWorkingSet,
    ZipfPages,
    ZipfWorkingSet,
)
from repro.engine.indexes import BTreeIndex
from repro.engine.locks import LockMode, RowGroupLockPattern
from repro.engine.pages import PageRange, PageSpaceAllocator
from repro.engine.tables import Table
from repro.sim.rng import (
    ZIPF_BLOCK_DRAWS,
    CumulativeSampler,
    RandomStream,
    ZipfGenerator,
)
from repro.workloads.tpcw import (
    O_DATE_INDEX,
    build_tpcw,
    inject_unqualified_admin_update,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

positive_weight = st.floats(
    min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False
)
weight_vectors = st.lists(
    st.one_of(st.just(0.0), positive_weight), min_size=1, max_size=40
).filter(lambda weights: any(w > 0 for w in weights))


def stream_pair(seed: int) -> tuple[RandomStream, np.random.Generator]:
    """A stream for the new code and an equally seeded generator for the old."""
    stream = RandomStream(seed, "fastpath")
    return stream, np.random.default_rng(stream.seed)


def assert_same_position(stream: RandomStream, oracle: np.random.Generator) -> None:
    assert stream.generator.random() == oracle.random()


def twin_streams(seed: int) -> tuple[RandomStream, RandomStream]:
    """Two equally seeded streams: one to read ahead on, one for the oracle."""
    return RandomStream(seed, "fastpath"), RandomStream(seed, "fastpath")


def executions_crossing_two_refills(pages_per_execution: int) -> int:
    return 2 * max(ZIPF_BLOCK_DRAWS, BLOCK_PAGES) // pages_per_execution + 3


def assert_same_executions(pattern: AccessPattern, oracle: AccessPattern, count: int):
    for _ in range(count):
        access, expected = pattern.pages_for_execution(), oracle.pages_for_execution()
        assert access.demand == expected.demand
        assert access.prefetch == expected.prefetch
        assert all(type(page) is int for page in access.demand)


# --------------------------------------------------------------------- #
# Class draw: CumulativeSampler == Generator.choice                     #
# --------------------------------------------------------------------- #


@given(weights=weight_vectors, seed=seeds)
@settings(max_examples=200, deadline=None)
def test_sampler_equals_generator_choice(weights, seed):
    stream, oracle = stream_pair(seed)
    sampler = CumulativeSampler.from_weights(weights)
    w = np.asarray(weights, dtype=float)
    p = w / w.sum()
    for _ in range(50):
        assert sampler.draw(stream) == int(oracle.choice(len(w), p=p))
    assert_same_position(stream, oracle)


class _FixedUniforms:
    """Stands in for a stream's generator: ``random()`` replays a script, one
    value per scalar call, and pads a block draw with 0.5 once it runs out."""

    bit_generator = SimpleNamespace(state=None)

    def __init__(self, values):
        self._values = iter(values)

    def random(self, size=None):
        if size is None:
            return next(self._values)
        return np.asarray([next(self._values, 0.5) for _ in range(size)])


@given(weights=weight_vectors)
@settings(max_examples=200, deadline=None)
def test_sampler_cdf_and_tie_side_are_those_of_choice(weights):
    """Random uniforms land within an ulp of a CDF step about once in 1e16
    draws, so the CDF's bits and the side a tie falls on are pinned directly:
    ``choice`` computes ``cdf = p.cumsum(); cdf /= cdf[-1]`` and looks ``u``
    up with ``side="right"``."""
    w = np.asarray(weights, dtype=float)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    sampler = CumulativeSampler.from_weights(weights)
    assert sampler._cdf == cdf.tolist()
    ties = [0.0] + [u for u in cdf.tolist() if u < 1.0]
    stream = RandomStream(0, "ties")
    stream._rng = _FixedUniforms(ties)
    for u in ties:
        index = sampler.draw(stream)
        assert index == int(cdf.searchsorted(u, side="right"))
        assert weights[index] > 0


@given(weights=weight_vectors, seed=seeds)
@settings(max_examples=100, deadline=None)
def test_stream_choice_equals_generator_choice(weights, seed):
    stream, oracle = stream_pair(seed)
    items = list(range(len(weights)))
    w = np.asarray(weights, dtype=float)
    p = w / w.sum()
    for _ in range(20):
        assert stream.choice(items, weights) == int(oracle.choice(len(w), p=p))
    assert_same_position(stream, oracle)


@given(weights=weight_vectors)
@settings(max_examples=100, deadline=None)
def test_sampler_never_picks_a_zero_weight(weights):
    stream = RandomStream(11, "zero")
    sampler = CumulativeSampler.from_weights(weights)
    assert all(weights[sampler.draw(stream)] > 0 for _ in range(100))


@pytest.mark.parametrize("weights", [[0.0], [0.0, 0.0, 0.0], [float("nan"), 1.0]])
def test_sampler_rejects_a_non_positive_sum(weights):
    with pytest.raises(ValueError):
        CumulativeSampler.from_weights(weights)


def test_sampler_rejects_negative_probabilities():
    with pytest.raises(ValueError):
        CumulativeSampler.from_weights([2.0, -1.0])


# --------------------------------------------------------------------- #
# Zipf ranks: random() + ndarray.searchsorted == uniform() + np.search… #
# --------------------------------------------------------------------- #


def assert_zipf_equals_oracle(zipf_class, n, theta, seed, counts) -> None:
    """Scalar and vector draws interleaved on one generator, across refills."""
    stream, twin = twin_streams(seed)
    zipf = zipf_class(n, theta, stream)
    oracle = ZipfOracle(n, theta, twin)
    drawn = 0
    while drawn <= 2 * ZIPF_BLOCK_DRAWS:
        for count in counts:
            assert zipf.sample() == oracle.sample()
            ranks = zipf.sample_many(count)
            assert ranks.dtype == np.int64
            assert ranks.tolist() == oracle.sample_many(count).tolist()
            drawn += 1 + count


zipf_counts = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=ZIPF_BLOCK_DRAWS - 2, max_value=ZIPF_BLOCK_DRAWS + 300),
    ),
    min_size=1,
    max_size=6,
)


@given(
    n=st.integers(min_value=1, max_value=5000),
    theta=st.floats(min_value=0.0, max_value=2.5),
    seed=seeds,
    counts=zipf_counts,
)
@settings(max_examples=150, deadline=None)
def test_zipf_draws_equal_the_old_formulas(n, theta, seed, counts):
    assert_zipf_equals_oracle(ZipfGenerator, n, theta, seed, counts)


class _LastInFirstOut(ZipfGenerator):
    """Mutant: serves the newest rank of the block first."""

    def sample(self) -> int:
        return int(self.sample_many(1)[0])

    def sample_many(self, count: int) -> np.ndarray:
        if self._next + count > len(self._ranks):
            self._refill(self._next + count - len(self._ranks))
        keep = len(self._ranks) - count
        ranks, self._ranks = self._ranks[keep:], self._ranks[:keep]
        return ranks


class _TailDiscardingRefill(ZipfGenerator):
    """Mutant: a refill throws away the ranks not yet handed out."""

    def _refill(self, shortfall: int) -> None:
        self._next = len(self._ranks)
        super()._refill(shortfall)


@pytest.mark.parametrize("mutant", [_LastInFirstOut, _TailDiscardingRefill])
def test_the_zipf_check_catches_a_reordering_or_lossy_block(mutant):
    assert_zipf_equals_oracle(ZipfGenerator, 300, 0.6, 5, [3, 40])
    with pytest.raises(AssertionError):
        assert_zipf_equals_oracle(mutant, 300, 0.6, 5, [3, 40])


def test_a_second_consumer_of_a_draw_ahead_stream_is_an_error():
    stream = RandomStream(3, "shared")
    zipf = ZipfGenerator(50, 0.8, stream)
    zipf.sample()
    stream.uniform()
    with pytest.raises(RuntimeError, match="exactly one consumer"):
        zipf.sample_many(ZIPF_BLOCK_DRAWS)


@pytest.mark.parametrize("n,theta", [(1, 0.8), (7, 0.0), (300, 0.6), (300, 2.5)])
def test_zipf_ties_fall_on_the_lower_rank(n, theta):
    """``side="left"``: a uniform equal to a CDF step yields that step's rank."""
    cdf = np.cumsum(np.arange(1, n + 1, dtype=float) ** (-theta))
    cdf /= cdf[-1]
    ties = [0.0] + cdf.tolist()[:-1]
    stream = RandomStream(0, "ties")
    zipf = ZipfGenerator(n, theta, stream)
    stream._rng = _FixedUniforms(ties + ties)
    expected = [int(np.searchsorted(cdf, u, side="left")) for u in ties]
    assert [zipf.sample() for _ in ties] == expected
    assert zipf.sample_many(len(ties)).tolist() == expected


# --------------------------------------------------------------------- #
# Point-lookup path: tabulated levels == per-lookup derivation          #
# --------------------------------------------------------------------- #


def lookup_path_oracle(index: BTreeIndex, row: int) -> list[int]:
    """``BTreeIndex.lookup_path`` as it was before the level table."""
    leaf_index = min(row // index.leaf_entries, index.leaf_count - 1)
    path: list[int] = []
    level_sizes: list[int] = []
    size = index.leaf_count
    while size > 1:
        size = -(-size // index.fanout)
        level_sizes.append(size)
    offset_base = 0
    offsets: list[int] = []
    for size in reversed(level_sizes):
        stride = max(1, index.leaf_count // size)
        offsets.append(offset_base + min(leaf_index // stride, size - 1))
        offset_base += size
    if not offsets:
        offsets = [0]
    path.extend(
        index.internal_pages.page(min(o, index.internal_pages.count - 1))
        for o in offsets
    )
    path.append(index.leaf_of_row(row))
    return path


def make_index(rows: int, fanout: int, leaf_entries: int) -> BTreeIndex:
    allocator = PageSpaceAllocator(base=1000)
    table = Table.create(allocator, "t", row_count=rows, row_bytes=512)
    return BTreeIndex.create(
        allocator, "idx", table, fanout=fanout, leaf_entries=leaf_entries
    )


@pytest.mark.parametrize("rows", [1, 50, 399, 400, 401, 10_000, 123_457])
@pytest.mark.parametrize("fanout", [2, 3, 7, 200])
@pytest.mark.parametrize("leaf_entries", [1, 10, 400])
def test_lookup_path_equals_the_per_lookup_derivation(rows, fanout, leaf_entries):
    index = make_index(rows, fanout, leaf_entries)
    step = max(1, rows // 997)
    probes = set(range(0, rows, step)) | {0, rows - 1, rows // 2}
    for row in sorted(probes):
        assert index.lookup_path(row) == lookup_path_oracle(index, row)
    for row in (-1, rows, rows + 10):
        with pytest.raises(IndexError):
            index.lookup_path(row)


def test_lookup_path_of_a_single_leaf_tree_is_root_then_leaf():
    index = make_index(rows=50, fanout=200, leaf_entries=400)
    assert index.height == 1
    assert index.lookup_path(49) == [
        index.internal_pages.start,
        index.leaf_pages.start,
    ]


@given(
    rows=st.integers(min_value=1, max_value=200_000),
    fanout=st.integers(min_value=2, max_value=300),
    leaf_entries=st.integers(min_value=1, max_value=500),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_lookup_path_property(rows, fanout, leaf_entries, data):
    index = make_index(rows, fanout, leaf_entries)
    for _ in range(20):
        row = data.draw(st.integers(min_value=0, max_value=rows - 1))
        assert index.lookup_path(row) == lookup_path_oracle(index, row)


def test_lookup_path_clamps_to_an_undersized_internal_range():
    """A hand-built tree whose internal range is smaller than its levels
    clamps every offset to the last internal page, as the old code did."""
    allocator = PageSpaceAllocator()
    table = Table.create(allocator, "t", row_count=10_000, row_bytes=512)
    index = BTreeIndex(
        name="idx",
        table=table,
        fanout=3,
        leaf_entries=10,
        height=8,
        internal_pages=allocator.allocate("internal", 5),
        leaf_pages=allocator.allocate("leaf", 1000),
    )
    for row in range(0, 10_000, 37):
        assert index.lookup_path(row) == lookup_path_oracle(index, row)


# --------------------------------------------------------------------- #
# Page vectors                                                          #
# --------------------------------------------------------------------- #


@given(
    working_set=st.integers(min_value=1, max_value=400),
    theta=st.floats(min_value=0.0, max_value=1.5),
    per_execution=st.integers(min_value=1, max_value=60),
    seed=seeds,
)
@settings(max_examples=60, deadline=None)
def test_zipf_working_set_equals_range_page_array_of_the_layout(
    working_set, theta, per_execution, seed
):
    pages = PageRange("t", start=700, count=400)
    stream, oracle = stream_pair(seed)
    pattern = ZipfWorkingSet(pages, working_set, theta, per_execution, stream)
    # The old construction and per-execution formula, on the twin generator.
    layout = list(range(working_set))
    oracle.shuffle(layout)
    layout_array = np.asarray(layout, dtype=np.int64)
    cdf = np.cumsum(np.arange(1, working_set + 1, dtype=float) ** (-theta))
    cdf /= cdf[-1]
    for _ in range(executions_crossing_two_refills(per_execution)):
        ranks = np.searchsorted(cdf, oracle.uniform(size=per_execution), side="left")
        expected = pages.page_array(layout_array[ranks]).tolist()
        access = pattern.pages_for_execution()
        assert access.demand == expected
        assert all(type(page) is int for page in access.demand)
        assert access.prefetch == []


@given(
    footprint=st.integers(min_value=1, max_value=300),
    theta=st.floats(min_value=0.0, max_value=1.5),
    per_execution=st.integers(min_value=1, max_value=1500),
    seed=seeds,
)
@settings(max_examples=40, deadline=None)
def test_zipf_pages_equal_the_per_execution_oracle(
    footprint, theta, per_execution, seed
):
    """Also executions longer than a block (one execution per block)."""
    pages_by_rank = np.arange(5000, 5000 + 3 * footprint, 3, dtype=np.int64)
    count = executions_crossing_two_refills(per_execution)
    stream, twin = twin_streams(seed)
    assert_same_executions(
        ZipfPages(pages_by_rank, theta, per_execution, stream),
        per_execution_twin(ZipfPages(pages_by_rank, theta, per_execution, twin)),
        count,
    )


@given(
    rows=st.integers(min_value=1, max_value=200_000),
    fanout=st.integers(min_value=2, max_value=300),
    leaf_entries=st.integers(min_value=1, max_value=500),
    lookups=st.integers(min_value=1, max_value=3),
    rows_per_lookup=st.integers(min_value=1, max_value=5),
    key_space=st.one_of(st.none(), st.integers(min_value=1, max_value=300_000)),
    theta=st.floats(min_value=0.0, max_value=1.5),
    seed=seeds,
)
@settings(max_examples=60, deadline=None)
def test_index_lookup_equals_the_per_row_tree_walk(
    rows, fanout, leaf_entries, lookups, rows_per_lookup, key_space, theta, seed
):
    index = make_index(rows, fanout, leaf_entries)
    stream, twin = twin_streams(seed)

    def build(on: RandomStream) -> IndexLookup:
        return IndexLookup(
            index,
            on,
            lookups_per_execution=lookups,
            rows_per_lookup=rows_per_lookup,
            key_theta=theta,
            key_space=key_space,
        )

    assert_same_executions(
        build(stream),
        per_execution_twin(build(twin)),
        executions_crossing_two_refills(lookups),
    )


@given(
    rows=st.integers(min_value=2, max_value=200_000),
    leaf_entries=st.integers(min_value=1, max_value=500),
    span=st.integers(min_value=1, max_value=3000),
    theta=st.floats(min_value=0.0, max_value=1.5),
    seed=seeds,
)
@settings(max_examples=20, deadline=None)
def test_index_range_scan_takes_the_ranks_of_scalar_draws(
    rows, leaf_entries, span, theta, seed
):
    index = make_index(rows, 50, leaf_entries)
    stream, twin = twin_streams(seed)
    assert_same_executions(
        IndexRangeScan(index, stream, row_span=span, start_theta=theta),
        per_execution_twin(
            IndexRangeScan(index, twin, row_span=span, start_theta=theta)
        ),
        executions_crossing_two_refills(1),
    )


@given(
    group_count=st.integers(min_value=1, max_value=40),
    groups=st.integers(min_value=1, max_value=4),
    span_share=st.floats(min_value=0.0, max_value=1.0),
    theta=st.floats(min_value=0.0, max_value=1.5),
    seed=seeds,
)
@settings(max_examples=20, deadline=None)
def test_lock_sets_take_the_ranks_of_scalar_draws(
    group_count, groups, span_share, theta, seed
):
    span = max(1, round(span_share * group_count))
    stream, twin = twin_streams(seed)

    def build(on: RandomStream) -> RowGroupLockPattern:
        return RowGroupLockPattern(
            "t", group_count, LockMode.SHARED, on,
            groups_per_execution=groups, theta=theta, span=span,
        )

    pattern, oracle = build(stream), per_execution_locks(build(twin))
    for _ in range(executions_crossing_two_refills(groups)):
        assert pattern.requests() == oracle.requests()


# --------------------------------------------------------------------- #
# Swaps that land in the middle of a block                              #
# --------------------------------------------------------------------- #


def _assert_same_workload_steps(workload, oracle, steps: int) -> None:
    ranges = workload.schema.allocator.ranges()
    for query_class, expected in zip(workload.classes(), oracle.classes()):
        for _ in range(steps):
            access, wanted = query_class.execute_pages(), expected.execute_pages()
            assert access.demand == wanted.demand
            assert access.prefetch == wanted.prefetch
            # Whatever was swapped in emits its range's own objects.
            assert_interned(access.demand + access.prefetch, ranges)
            if query_class.lock_pattern is not None:
                assert (
                    query_class.lock_pattern.requests()
                    == expected.lock_pattern.requests()
                )


@pytest.mark.parametrize("seed", [7, 11])
def test_tpcw_survives_swaps_in_the_middle_of_a_block(seed):
    """The four ways a class changes what it executes mid-run — a plan switch
    by ``catalog.drop`` (and back), a wholesale replacement of pattern and
    lock pattern, a composite wrapped around a live leaf and unwrapped again
    (``write_burst``) and a ``pattern =`` reassignment (``working_set_drift``)
    — each after a number of executions that is no multiple of any block."""
    workload = build_tpcw(seed=seed)
    oracle = per_execution_workload(build_tpcw(seed=seed))
    sides = (workload, oracle)
    _assert_same_workload_steps(workload, oracle, 37)

    for side in sides:
        side.catalog.drop(O_DATE_INDEX)
    _assert_same_workload_steps(workload, oracle, 53)
    for side in sides:
        side.catalog.restore(O_DATE_INDEX)
        inject_unqualified_admin_update(side)
    admin = oracle.class_named("admin_update")
    admin.lock_pattern = per_execution_locks(admin.lock_pattern)
    _assert_same_workload_steps(workload, oracle, 3)

    saved = []
    for side in sides:
        confirm = side.class_named("buy_confirm")
        saved.append(confirm.pattern)
        confirm.pattern = CompositePattern(
            [
                confirm.pattern,
                SequentialChunkScan(
                    side.schema.table("cc_xacts").pages, chunk=40, region=2000
                ),
            ]
        )
        item = side.schema.table("item")
        drifted = ZipfWorkingSet(item.pages, 5000, 0.3, 60, side.seeds.stream("drift"))
        side.class_named("new_products").pattern = (
            drifted if side is workload else per_execution_twin(drifted)
        )
    _assert_same_workload_steps(workload, oracle, 41)
    for side, pattern in zip(sides, saved):
        side.class_named("buy_confirm").pattern = pattern
    _assert_same_workload_steps(workload, oracle, 2 * BLOCK_PAGES // 12 + 5)


@pytest.mark.parametrize("mutant", [_LastInFirstOut, _TailDiscardingRefill])
def test_the_pattern_check_catches_a_reordering_or_lossy_block(mutant, monkeypatch):
    pages = PageRange("t", start=0, count=500)

    def differential() -> None:
        stream, twin = twin_streams(11)
        assert_same_executions(
            ZipfWorkingSet(pages, 300, 0.6, 7, stream),
            per_execution_twin(ZipfWorkingSet(pages, 300, 0.6, 7, twin)),
            executions_crossing_two_refills(7),
        )

    differential()
    monkeypatch.setattr("repro.engine.access.ZipfGenerator", mutant)
    with pytest.raises(AssertionError):
        differential()


# --------------------------------------------------------------------- #
# Vectorised bounds checks                                              #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("rows", [1, 400, 10_000])
def test_vectorised_lookups_reject_the_rows_the_scalar_ones_reject(rows):
    index = make_index(rows, fanout=7, leaf_entries=10)
    table = index.table
    inside = np.asarray([0, rows // 2, rows - 1], dtype=np.int64)
    assert index.lookup_path_columns(inside).tolist() == [
        index.lookup_path(int(row)) for row in inside
    ]
    assert table.page_of_row_array(inside).tolist() == [
        table.page_of_row(int(row)) for row in inside
    ]
    for row in (-1, rows, rows + 10):
        with pytest.raises(IndexError):
            index.lookup_path(row)
        with pytest.raises(IndexError):
            table.page_of_row(row)
        for position in range(len(inside) + 1):
            probe = np.insert(inside, position, row)
            with pytest.raises(IndexError):
                index.lookup_path_columns(probe)
            with pytest.raises(IndexError):
                table.page_of_row_array(probe)
            with pytest.raises(IndexError):
                table.page_of_row_array(probe.reshape(2, 2))
    empty = np.empty(0, dtype=np.int64)
    assert index.lookup_path_columns(empty).shape == (0, len(index.lookup_path(0)))
    assert table.page_of_row_array(empty).tolist() == []


@given(
    working_set=st.integers(min_value=1, max_value=400),
    per_execution=st.integers(min_value=1, max_value=60),
    seed=seeds,
)
@settings(max_examples=100, deadline=None)
def test_uniform_working_set_equals_range_page_array_of_the_offsets(
    working_set, per_execution, seed
):
    """Bounds are checked at construction; each execution still emits what
    the per-execution ``PageRange.page_array`` (min/max-checked) emitted."""
    pages = PageRange("t", start=700, count=400)
    stream, oracle = stream_pair(seed)
    pattern = UniformWorkingSet(pages, working_set, per_execution, stream)
    for _ in range(5):
        offsets = oracle.integers(0, working_set, size=per_execution)
        access = pattern.pages_for_execution()
        assert access.demand == pages.page_array(offsets).tolist()
        assert all(type(page) is int for page in access.demand)
        assert access.prefetch == []
    assert_same_position(stream, oracle)


@given(
    count=st.integers(min_value=1, max_value=300),
    chunk=st.integers(min_value=1, max_value=400),
    readahead=st.integers(min_value=0, max_value=400),
    region=st.one_of(st.none(), st.integers(min_value=1, max_value=500)),
)
@settings(max_examples=150, deadline=None)
def test_sequential_scan_equals_range_page_array_of_the_offsets(
    count, chunk, readahead, region
):
    """Same for the cyclic scan, whatever the clamping of chunk, read-ahead
    and region: every emitted offset passes the range's own bounds check."""
    pages = PageRange("t", start=2_000_000, count=count)
    scan = SequentialChunkScan(pages, chunk, readahead=readahead, region=region)
    span = min(region or count, count)
    size = min(chunk, span)
    cursor = 0
    for _ in range(6):
        demand = pages.page_array((cursor + np.arange(size)) % span).tolist()
        cursor = (cursor + size) % span
        ahead = pages.page_array(
            (cursor + np.arange(min(readahead, span))) % span
        ).tolist()
        access = scan.pages_for_execution()
        assert access.demand == demand
        assert access.prefetch == demand + ahead
        assert all(type(page) is int for page in access.prefetch)


class _Scripted(AccessPattern):
    def __init__(self, accesses):
        self._accesses = iter(accesses)

    def pages_for_execution(self):
        return next(self._accesses)


page_lists = st.lists(st.integers(min_value=0, max_value=10_000), max_size=12)
accesses = st.builds(ExecutionAccess, demand=page_lists, prefetch=page_lists)


@given(parts=st.lists(accesses, min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_composite_equals_a_fold_of_merged(parts):
    folded = ExecutionAccess()
    for access in parts:
        folded = ExecutionAccess(
            folded.demand + access.demand, folded.prefetch + access.prefetch
        )
    before = [(list(a.demand), list(a.prefetch)) for a in parts]
    composite = CompositePattern([_Scripted([a]) for a in parts])
    result = composite.pages_for_execution()
    assert result.demand == folded.demand
    assert result.prefetch == folded.prefetch
    assert result.total_pages == folded.total_pages
    # The parts' own lists are neither aliased nor extended.
    assert [(a.demand, a.prefetch) for a in parts] == before
    assert all(result.demand is not a.demand for a in parts)
