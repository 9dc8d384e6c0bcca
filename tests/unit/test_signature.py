"""Unit tests for stable-state signatures."""

import pytest

from repro.core.metrics import Metric, MetricVector
from repro.core.mrc import MissRatioCurve, MRCEntry, MRCParameters
from repro.core.signature import SignatureStore, StableStateSignature
from repro.sim.trace import AccessWindow


def vec(key="app/q", latency=0.5):
    return MetricVector(key, {Metric.LATENCY: latency})


def known(params):
    """An analysed entry with ``params``; the store never looks at its curve."""
    return MRCEntry.known(params, MissRatioCurve.from_trace([1]))


class TestStableStateSignature:
    def test_refresh_overwrites_metrics(self):
        sig = StableStateSignature("app/q", vec(latency=0.5))
        sig.refresh(vec(latency=0.7), timestamp=20.0)
        assert sig.metrics[Metric.LATENCY] == 0.7
        assert sig.recorded_at == 20.0

    def test_refresh_counts_intervals(self):
        sig = StableStateSignature("app/q", vec())
        sig.refresh(vec(), 10.0)
        sig.refresh(vec(), 20.0)
        assert sig.intervals_observed == 3

    def test_refresh_rejects_wrong_context(self):
        sig = StableStateSignature("app/q", vec())
        with pytest.raises(ValueError):
            sig.refresh(vec(key="app/other"), 10.0)


class TestSignatureStore:
    def test_record_creates_signatures(self):
        store = SignatureStore("server-1")
        store.record_stable({"app/q": vec()}, timestamp=10.0)
        assert "app/q" in store
        assert store.get("app/q").recorded_at == 10.0

    def test_record_refreshes_existing(self):
        store = SignatureStore("server-1")
        store.record_stable({"app/q": vec(latency=0.5)}, 10.0)
        store.record_stable({"app/q": vec(latency=0.9)}, 20.0)
        assert store.get("app/q").metrics[Metric.LATENCY] == 0.9

    def test_require_missing_raises(self):
        with pytest.raises(KeyError):
            SignatureStore("s").require("ghost")

    def test_get_missing_returns_none(self):
        assert SignatureStore("s").get("ghost") is None

    def test_set_mrc_creates_placeholder(self):
        store = SignatureStore("s")
        params = MRCParameters(100, 0.1, 80, 0.12)
        store.set_mrc("app/q", known(params))
        assert store.mrc_of("app/q") == params
        # Placeholder signatures carry no stable metrics...
        assert store.stable_vectors() == {}

    def test_set_mrc_on_existing_signature(self):
        store = SignatureStore("s")
        store.record_stable({"app/q": vec()}, 10.0)
        params = MRCParameters(100, 0.1, 80, 0.12)
        store.set_mrc("app/q", known(params))
        assert store.mrc_of("app/q") == params
        assert "app/q" in store.stable_vectors()

    def test_stable_vectors_excludes_placeholders(self):
        store = SignatureStore("s")
        store.set_mrc("app/placeholder", known(MRCParameters(1, 0.0, 1, 0.0)))
        store.record_stable({"app/real": vec(key="app/real")}, 10.0)
        assert list(store.stable_vectors()) == ["app/real"]

    def test_mrc_of_unknown_is_none(self):
        assert SignatureStore("s").mrc_of("ghost") is None

    def test_mrc_of_analyses_a_pending_curve(self):
        store = SignatureStore("s")
        window = AccessWindow(4)
        window.record_many([1, 2, 1, 2])
        store.set_mrc("app/q", MRCEntry(window.slice_ending_at(4, 4), 100, 0.05))
        assert store.mrc_of("app/q") == MissRatioCurve.from_trace(
            [1, 2, 1, 2]
        ).parameters(100, 0.05)

    def test_drop(self):
        store = SignatureStore("s")
        store.record_stable({"app/q": vec()}, 10.0)
        store.drop("app/q")
        assert "app/q" not in store

    def test_contexts_sorted(self):
        store = SignatureStore("s")
        store.record_stable(
            {"app/b": vec(key="app/b"), "app/a": vec(key="app/a")}, 10.0
        )
        assert store.contexts() == ["app/a", "app/b"]

    def test_len(self):
        store = SignatureStore("s")
        store.record_stable({"app/q": vec()}, 10.0)
        assert len(store) == 1
