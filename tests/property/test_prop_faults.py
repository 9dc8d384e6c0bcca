"""Property-based tests for fault-subsystem determinism.

The contract that makes fault injection usable as a regression instrument:
a seeded :class:`FaultPlan` is pure data (same seed, same plan — always),
and replaying the same plan against identically-seeded clusters yields
byte-identical telemetry exports.  Chaos results are only comparable
across commits because of this.
"""

from hypothesis import given, settings, strategies as st

from repro.experiments.runner import ClusterHarness
from repro.faults import FaultKind, FaultPlan
from repro.obs import Observability, telemetry_lines
from repro.workloads.tpcw import build_tpcw

seeds = st.integers(min_value=0, max_value=2**16)


@given(seed=seeds, events=st.integers(min_value=0, max_value=12))
@settings(max_examples=50, deadline=None)
def test_random_plan_is_a_pure_function_of_its_seed(seed, events):
    kwargs = dict(
        replicas=["r1", "r2"], hosts=["h1", "h2"], engines=["e1"],
        apps=["app"], horizon=120.0, events=events,
    )
    first = FaultPlan.random(seed, **kwargs)
    second = FaultPlan.random(seed, **kwargs)
    assert first.events == second.events


@given(seed=seeds)
@settings(max_examples=50, deadline=None)
def test_random_plan_never_strands_a_replica(seed):
    plan = FaultPlan.random(seed, replicas=["r1", "r2", "r3"], events=10)
    for replica in ("r1", "r2", "r3"):
        balance = 0
        for event in plan.ordered():
            if event.target != replica:
                continue
            balance += 1 if event.kind is FaultKind.REPLICA_CRASH else -1
        assert balance == 0


def storm_plan(seed: int) -> FaultPlan:
    """A seeded storm confined to targets the two-replica cluster survives.

    Crashes only ever hit the second replica, so the first one keeps every
    read alive regardless of how the drawn events interleave.
    """
    return FaultPlan.random(
        seed,
        replicas=["tpcw-r2"],
        hosts=["server-1", "server-2"],
        engines=["tpcw-r1-engine", "tpcw-r2-engine"],
        apps=["tpcw"],
        horizon=30.0,
        events=4,
        min_outage=5.0,
        max_outage=15.0,
    )


def run_under(plan: FaultPlan):
    obs = Observability()
    harness = ClusterHarness.single_app(
        build_tpcw(seed=7), servers=2, clients=6, obs=obs
    )
    scheduler = harness.scheduler("tpcw")
    second = harness.resource_manager.allocate_replica(scheduler, timestamp=0.0)
    harness.controller.track_replica(second)
    harness.install_faults(plan)
    result = harness.run(intervals=3)
    return obs, result


@given(seed=seeds)
@settings(max_examples=5, deadline=None)
def test_replaying_a_plan_yields_byte_identical_telemetry(seed):
    plan = storm_plan(seed)
    meta = {
        "scenario": "fault-replay",
        "plan": [[e.at, e.kind.value, e.target] for e in plan.ordered()],
    }
    obs_a, result_a = run_under(plan)
    obs_b, result_b = run_under(storm_plan(seed))
    assert (telemetry_lines(obs_a, meta=meta)
            == telemetry_lines(obs_b, meta=meta))
    assert (result_a.mean_latency_series("tpcw")
            == result_b.mean_latency_series("tpcw"))
    assert (result_a.throughput_series("tpcw")
            == result_b.throughput_series("tpcw"))
