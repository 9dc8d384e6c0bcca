"""Unit tests for the closed-loop client driver and load functions."""

import pytest

from repro.cluster.replica import Replica
from repro.cluster.scheduler import Scheduler
from repro.cluster.server import PhysicalServer
from repro.sim.rng import SeedSequenceFactory
from repro.workloads.clients import ClosedLoopDriver
from repro.workloads.load import ConstantLoad, LoadFunction, SineLoad
from repro.workloads.tpcw import build_tpcw


class _TenThenThree(LoadFunction):
    """Ten clients for the first ten seconds, three after."""

    def clients_at(self, timestamp: float) -> int:
        return 10 if timestamp < 10.0 else 3


def make_driver(clients=5, think=1.0):
    workload = build_tpcw(seed=3)
    scheduler = Scheduler(workload.app)
    scheduler.add_replica(Replica.create("r1", workload.app, PhysicalServer("s")))
    driver = ClosedLoopDriver(
        workload,
        scheduler,
        load=ConstantLoad(clients),
        think_time_mean=think,
    )
    return workload, scheduler, driver


class TestClosedLoopDriver:
    def test_population_matches_load(self):
        _, _, driver = make_driver(clients=7)
        driver.run_interval(0.0, 10.0)
        assert driver.active_clients == 7

    def test_submissions_scale_with_clients(self):
        _, _, small = make_driver(clients=2)
        _, _, large = make_driver(clients=20)
        few = small.run_interval(0.0, 10.0)
        many = large.run_interval(0.0, 10.0)
        assert many > 3 * few

    def test_think_time_throttles(self):
        _, _, fast = make_driver(clients=5, think=0.5)
        _, _, slow = make_driver(clients=5, think=5.0)
        assert fast.run_interval(0.0, 10.0) > slow.run_interval(0.0, 10.0)

    def test_total_queries_accumulates(self):
        _, _, driver = make_driver()
        a = driver.run_interval(0.0, 10.0)
        b = driver.run_interval(10.0, 10.0)
        assert driver.total_queries == a + b

    def test_population_shrinks_with_load(self):
        workload = build_tpcw(seed=3)
        scheduler = Scheduler(workload.app)
        scheduler.add_replica(Replica.create("r1", workload.app, PhysicalServer("s")))
        driver = ClosedLoopDriver(workload, scheduler, load=_TenThenThree())
        driver.run_interval(0.0, 10.0)
        driver.run_interval(10.0, 10.0)
        assert driver.active_clients == 3

    def test_deterministic(self):
        _, _, a = make_driver()
        _, _, b = make_driver()
        assert a.run_interval(0.0, 10.0) == b.run_interval(0.0, 10.0)

    def test_rejects_bad_think_time(self):
        workload = build_tpcw(seed=3)
        scheduler = Scheduler(workload.app)
        with pytest.raises(ValueError):
            ClosedLoopDriver(workload, scheduler, think_time_mean=0.0)

    def test_rejects_bad_interval(self):
        _, _, driver = make_driver()
        with pytest.raises(ValueError):
            driver.run_interval(0.0, 0.0)


class TestLoadFunctions:
    def test_constant(self):
        load = ConstantLoad(12)
        assert load.clients_at(0.0) == 12
        assert load.clients_at(1e6) == 12

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLoad(-1)

    def test_sine_oscillates(self):
        load = SineLoad(base=100, amplitude=50, period=100.0)
        assert load.clients_at(25.0) == 150  # peak at quarter period
        assert load.clients_at(75.0) == 50  # trough at three quarters

    def test_sine_never_negative(self):
        load = SineLoad(base=10, amplitude=50, period=100.0)
        assert load.clients_at(75.0) == 0

    def test_sine_noise_bounded(self):
        seeds = SeedSequenceFactory(5)
        load = SineLoad(
            base=100, amplitude=0, period=100.0, noise=10, stream=seeds.stream("n")
        )
        values = [load.clients_at(t) for t in range(100)]
        assert all(90 <= v <= 110 for v in values)
        assert len(set(values)) > 1  # the noise actually varies

    def test_sine_rejects_bad_period(self):
        with pytest.raises(ValueError):
            SineLoad(base=1, amplitude=1, period=0.0)
