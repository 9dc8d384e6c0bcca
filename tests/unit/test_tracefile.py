"""Unit tests for trace persistence and JSON export."""

import json

import numpy as np
import pytest

from repro.analysis.export import export_result, to_jsonable
from repro.analysis.tracefile import (
    FORMAT_VERSION,
    load_traces,
    save_traces,
    trace_summary,
)
from repro.core.diagnosis import Action, ActionKind
from repro.core.mrc import MRCParameters
from repro.experiments.results import MemoryContentionResult, PlacementRow


class TestTraceRoundTrip:
    def test_round_trip_arrays(self, tmp_path):
        path = tmp_path / "traces.npz"
        save_traces(path, {"app/q": [1, 2, 3], "app/r": np.arange(5)})
        loaded = load_traces(path)
        assert loaded["app/q"].tolist() == [1, 2, 3]
        assert loaded["app/r"].tolist() == [0, 1, 2, 3, 4]

    def test_dtype_is_int64(self, tmp_path):
        path = tmp_path / "traces.npz"
        save_traces(path, {"a": [1]})
        assert load_traces(path)["a"].dtype == np.int64

    def test_empty_dict_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_traces(tmp_path / "x.npz", {})

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_traces(tmp_path / "x.npz", {"__meta__": [1]})

    def test_multidimensional_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_traces(tmp_path / "x.npz", {"a": np.zeros((2, 2))})

    def test_non_archive_rejected(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez_compressed(path, a=np.arange(3))
        with pytest.raises(ValueError):
            load_traces(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.npz"
        np.savez_compressed(
            path, __meta__=np.asarray([FORMAT_VERSION + 1]), a=np.arange(3)
        )
        with pytest.raises(ValueError):
            load_traces(path)

    def test_empty_metadata_rejected(self, tmp_path):
        path = tmp_path / "empty_meta.npz"
        np.savez_compressed(
            path, __meta__=np.asarray([], dtype=np.int64), a=np.arange(3)
        )
        with pytest.raises(ValueError, match="metadata"):
            load_traces(path)

    def test_multidimensional_trace_rejected_on_load(self, tmp_path):
        path = tmp_path / "matrix.npz"
        np.savez_compressed(
            path, __meta__=np.asarray([FORMAT_VERSION]), a=np.zeros((2, 2), int)
        )
        with pytest.raises(ValueError, match="one-dimensional"):
            load_traces(path)

    def test_float_trace_rejected_not_truncated(self, tmp_path):
        path = tmp_path / "floats.npz"
        np.savez_compressed(
            path, __meta__=np.asarray([FORMAT_VERSION]), a=np.asarray([1.7, 2.2])
        )
        with pytest.raises(ValueError, match="integer"):
            load_traces(path)

    @pytest.mark.parametrize(
        "trace", [[1.7, 2.2], [True, False], np.asarray([1.0, 2.0])],
        ids=["floats", "bools", "float-array"],
    )
    def test_non_integer_trace_rejected_on_save(self, tmp_path, trace):
        path = tmp_path / "bad.npz"
        with pytest.raises(ValueError, match="integer"):
            save_traces(path, {"app/q": trace})
        assert not path.exists()

    def test_empty_trace_saved(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_traces(path, {"app/q": []})
        assert load_traces(path)["app/q"].tolist() == []

    def test_archive_without_traces_rejected(self, tmp_path):
        path = tmp_path / "meta_only.npz"
        np.savez_compressed(path, __meta__=np.asarray([FORMAT_VERSION]))
        with pytest.raises(ValueError, match="no trace"):
            load_traces(path)

    def test_summary(self, tmp_path):
        path = tmp_path / "traces.npz"
        save_traces(path, {"a": [1, 1, 2]})
        summary = trace_summary(load_traces(path))
        assert summary["a"] == {"accesses": 3, "distinct_pages": 2}


class TestJsonExport:
    def test_dataclass_with_nested_rows(self, tmp_path):
        result = MemoryContentionResult(
            rows=[PlacementRow("baseline", 0.5, 10.0)],
            rescheduled_context="rubis/x",
        )
        path = export_result(tmp_path / "t2.json", result)
        payload = json.loads(path.read_text())
        assert payload["rows"][0]["placement"] == "baseline"
        assert payload["rescheduled_context"] == "rubis/x"

    def test_enum_exported_as_value(self):
        action = Action(kind=ActionKind.APPLY_QUOTAS, app="a", reason="r")
        payload = to_jsonable(action)
        assert payload["kind"] == "apply_quotas"

    def test_mrc_parameters(self):
        payload = to_jsonable(MRCParameters(100, 0.1, 80, 0.12))
        assert payload == {
            "total_memory": 100,
            "ideal_miss_ratio": 0.1,
            "acceptable_memory": 80,
            "acceptable_miss_ratio": 0.12,
            "threshold": 0.05,
        }

    def test_numpy_scalars(self):
        assert to_jsonable(np.int64(4)) == 4
        assert to_jsonable(np.float64(0.5)) == 0.5
        assert to_jsonable(np.arange(3)) == [0, 1, 2]

    def test_dict_keys_coerced_to_str(self):
        assert to_jsonable({1: "a"}) == {"1": "a"}

    def test_sets_become_lists(self):
        assert sorted(to_jsonable({3, 1, 2})) == [1, 2, 3]

    def test_unexportable_type_raises(self):
        with pytest.raises(TypeError):
            to_jsonable(object())

    def test_file_ends_with_newline(self, tmp_path):
        path = export_result(tmp_path / "x.json", PlacementRow("p", 1.0, 2.0))
        assert path.read_text().endswith("\n")
