"""Unit tests for the physical-server load and contention models."""

import pytest

from repro.cluster.server import (
    IntervalLoad,
    LoadModel,
    PhysicalServer,
    ServerSpec,
)


class TestServerSpec:
    def test_defaults_are_valid(self):
        spec = ServerSpec()
        assert spec.cores > 0 and spec.io_pages_per_sec > 0

    def test_rejects_bad_cores(self):
        with pytest.raises(ValueError):
            ServerSpec(cores=0)

    def test_rejects_bad_io(self):
        with pytest.raises(ValueError):
            ServerSpec(io_pages_per_sec=0)


class TestIntervalLoad:
    def test_add_accumulates(self):
        load = IntervalLoad()
        load.add(1.0, 10.0)
        load.add(0.5, 5.0)
        assert load.cpu_seconds == 1.5
        assert load.io_pages == 15.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            IntervalLoad().add(-1.0, 0.0)


class TestLoadModel:
    def make(self, cores=4, io=1000.0):
        return LoadModel(ServerSpec(cores=cores, io_pages_per_sec=io))

    def test_idle_factors_are_one(self):
        model = self.make()
        model.close_interval(10.0)
        assert model.cpu_factor == pytest.approx(1.0)
        assert model.io_factor == pytest.approx(1.0)

    def test_raw_utilisation_computed(self):
        model = self.make(cores=4)
        model.note_demand(cpu_seconds=20.0, io_pages=5000.0)
        model.close_interval(10.0)
        assert model.raw_cpu_utilisation == pytest.approx(0.5)
        assert model.raw_io_utilisation == pytest.approx(0.5)

    def test_ewma_smoothing(self):
        model = self.make()
        model.note_demand(cpu_seconds=40.0, io_pages=0.0)  # raw rho = 1.0
        model.close_interval(10.0)
        assert model.cpu_utilisation == pytest.approx(0.5)  # EWMA from 0
        model.close_interval(10.0)  # idle interval
        assert model.cpu_utilisation == pytest.approx(0.25)

    def test_cpu_factor_mild_at_moderate_load(self):
        # Sakasegawa: a multi-core box barely queues at 50% utilisation.
        model = self.make(cores=4)
        for _ in range(10):
            model.note_demand(cpu_seconds=20.0, io_pages=0.0)
            model.close_interval(10.0)
        assert model.cpu_factor < 1.3

    def test_cpu_factor_knee_at_saturation(self):
        model = self.make(cores=4)
        for _ in range(10):
            model.note_demand(cpu_seconds=60.0, io_pages=0.0)
            model.close_interval(10.0)
        assert model.cpu_factor > 5.0

    def test_io_factor_mm1_shape(self):
        model = self.make(io=1000.0)
        for _ in range(10):
            model.note_demand(cpu_seconds=0.0, io_pages=5000.0)
            model.close_interval(10.0)
        assert model.io_factor == pytest.approx(2.0, rel=0.05)

    def test_io_factor_capped(self):
        model = self.make(io=1000.0)
        for _ in range(10):
            model.note_demand(cpu_seconds=0.0, io_pages=100_000.0)
            model.close_interval(10.0)
        assert model.io_factor == pytest.approx(10.0, rel=0.01)

    def test_demand_resets_each_interval(self):
        model = self.make()
        model.note_demand(cpu_seconds=40.0, io_pages=0.0)
        model.close_interval(10.0)
        model.close_interval(10.0)
        assert model.raw_cpu_utilisation == 0.0

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            self.make().close_interval(0.0)


class TestPhysicalServer:
    def test_saturation_predicates(self):
        server = PhysicalServer("s", ServerSpec(cores=1, io_pages_per_sec=100))
        for _ in range(10):
            server.note_demand(cpu_seconds=20.0, io_pages=0.0)
            server.close_interval(10.0)
        assert server.cpu_saturated
        assert not server.io_saturated

    def test_idle_not_saturated(self):
        server = PhysicalServer("s")
        server.close_interval(10.0)
        assert not server.cpu_saturated and not server.io_saturated

    def test_factors_exposed(self):
        server = PhysicalServer("s")
        server.close_interval(10.0)
        assert server.cpu_factor >= 1.0
        assert server.io_factor >= 1.0

    def test_memory_pages_from_spec(self):
        server = PhysicalServer("s", ServerSpec(memory_pages=1234))
        assert server.memory_pages == 1234
