"""Unit tests for trace compression: CSV parsing, fitting, replay.

Includes the differential test of satellite: the committed Figure 5/6
trace generators are compressed and replayed, and the per-class fetch
ratios must agree with the original traces within the declared tolerance.
"""

import numpy as np
import pytest

from repro.analysis.traceload import (
    DEFAULT_TOLERANCE,
    FittedPattern,
    compress_trace,
    fit_class_model,
    pages_by_class,
    read_csv_trace,
    replay_model,
    validate_compression,
)
from repro.sim.rng import SeedSequenceFactory
from repro.sim.trace import PageAccessTrace


def tagged_trace(pages_per_class):
    trace = PageAccessTrace()
    for name, pages in pages_per_class.items():
        trace.extend(pages, name)
    return trace


class TestReadCsvTrace:
    def test_query_class_column(self):
        lines = [
            "query_class,page",
            "app/home,10",
            "app/home,11",
            "app/search,42",
        ]
        trace = read_csv_trace(lines)
        assert len(trace) == 3
        assert trace.classes() == ["app/home", "app/home", "app/search"]
        assert trace.pages().tolist() == [10, 11, 42]

    def test_sql_column_is_normalised(self):
        lines = [
            "sql,page",
            "SELECT * FROM item WHERE i_id = 42,5",
            "SELECT * FROM item WHERE i_id = 99,6",
            "select name from author,7",
        ]
        trace = read_csv_trace(lines)
        assert sorted(set(trace.classes())) == [
            "select * from item where i_id = ?",
            "select name from author",
        ]

    def test_missing_page_column_rejected(self):
        with pytest.raises(ValueError, match="page column"):
            read_csv_trace(["query_class,offset", "a,1"])

    def test_missing_class_column_rejected(self):
        with pytest.raises(ValueError, match="query_class or sql"):
            read_csv_trace(["page", "1"])

    def test_file_path(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("query_class,page\napp/x,3\napp/x,4\n")
        trace = read_csv_trace(str(path))
        assert trace.pages().tolist() == [3, 4]


class TestFitClassModel:
    def test_scan_detection(self):
        pages = np.tile(np.arange(100, 150), 8)
        model = fit_class_model("app/scan", pages)
        assert model.kind == "scan"
        assert model.footprint == 50
        assert model.pages == tuple(range(100, 150))

    def test_zipf_detection_and_theta(self):
        from repro.sim.rng import ZipfGenerator

        stream = SeedSequenceFactory(3).stream("fit")
        zipf = ZipfGenerator(200, 0.8, stream)
        pages = 1000 + zipf.sample_many(20_000)
        model = fit_class_model("app/skewed", pages)
        assert model.kind == "zipf"
        # the grid fit recovers the generating exponent to within a step
        assert model.theta == pytest.approx(0.8, abs=0.1)

    def test_frequency_order_with_ascending_tiebreak(self):
        pages = np.asarray([7, 7, 7, 3, 3, 9, 9, 5])
        model = fit_class_model("app/x", pages)
        assert model.kind == "zipf"
        # counts: 7->3, 3->2, 9->2, 5->1; the 3/9 tie breaks ascending
        assert model.pages == (7, 3, 9, 5)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            fit_class_model("app/x", np.asarray([], dtype=np.int64))


class TestReplay:
    def test_scan_replay_is_cyclic(self):
        pages = np.tile(np.arange(10, 20), 5)
        model = fit_class_model("app/scan", pages)
        replay = replay_model(model, length=25)
        assert replay.tolist() == (list(range(10, 20)) * 3)[:25]

    def test_zipf_replay_is_deterministic(self):
        pages = np.asarray([1, 1, 1, 2, 2, 3, 5, 5, 5, 5])
        model = fit_class_model("app/x", pages)
        a = replay_model(model, length=50, seed=7)
        b = replay_model(model, length=50, seed=7)
        c = replay_model(model, length=50, seed=8)
        assert a.tolist() == b.tolist()
        assert a.tolist() != c.tolist()

    def test_replay_defaults_to_original_length(self):
        pages = np.asarray([1, 2, 3, 1, 2, 1])
        model = fit_class_model("app/x", pages)
        assert len(replay_model(model)) == 6


class TestValidateCompression:
    def test_synthetic_mix_within_tolerance(self):
        from repro.sim.rng import ZipfGenerator

        stream = SeedSequenceFactory(5).stream("mix")
        zipf = ZipfGenerator(500, 0.7, stream)
        trace = tagged_trace(
            {
                "app/skewed": (100 + zipf.sample_many(8000)).tolist(),
                "app/scan": np.tile(np.arange(5000, 5400), 10).tolist(),
            }
        )
        report = validate_compression(trace, pool_pages=256)
        assert len(report.rows) == 2
        assert report.within_tolerance, report.rows
        kinds = {row["class"]: row["kind"] for row in report.rows}
        assert kinds == {"app/skewed": "zipf", "app/scan": "scan"}

    def test_fig5_fig6_differential(self):
        # The committed figure traces: compress, replay, compare fetch
        # ratios at the figures' reference pool size.
        from repro.experiments.mrc_curves import trace_of_class
        from repro.workloads.rubis import SEARCH_ITEMS_BY_REGION, build_rubis
        from repro.workloads.tpcw import BEST_SELLER, build_tpcw

        tpcw = build_tpcw(seed=7)
        rubis = build_rubis(seed=11)
        trace = tagged_trace(
            {
                "tpcw/best_seller": trace_of_class(
                    tpcw.class_named(BEST_SELLER), 120
                ).tolist(),
                "rubis/search_items_by_region": trace_of_class(
                    rubis.class_named(SEARCH_ITEMS_BY_REGION), 60
                ).tolist(),
            }
        )
        report = validate_compression(
            trace, pool_pages=8192, tolerance=DEFAULT_TOLERANCE
        )
        assert report.within_tolerance, report.rows


class TestFittedPattern:
    def test_drives_executions_from_the_model(self):
        pages = np.asarray([1, 1, 1, 2, 2, 3] * 50)
        model = fit_class_model("app/x", pages)
        pattern = FittedPattern(
            model, pages_per_execution=16,
            stream=SeedSequenceFactory(9).stream("fp"),
        )
        access = pattern.pages_for_execution()
        assert len(access.demand) == 16
        assert set(access.demand) <= {1, 2, 3}
        assert pattern.footprint_pages() == 3

    def test_scan_pattern_sweeps_cyclically(self):
        pages = np.tile(np.arange(10, 16), 10)
        model = fit_class_model("app/scan", pages)
        pattern = FittedPattern(
            model, pages_per_execution=4,
            stream=SeedSequenceFactory(9).stream("fp"),
        )
        first = pattern.pages_for_execution().demand
        second = pattern.pages_for_execution().demand
        assert first == [10, 11, 12, 13]
        assert second == [14, 15, 10, 11]

    def test_pages_by_class_partitions(self):
        trace = tagged_trace({"a": [1, 2], "b": [3]})
        split = pages_by_class(trace)
        assert split["a"].tolist() == [1, 2]
        assert split["b"].tolist() == [3]
