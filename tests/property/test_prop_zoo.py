"""Property-based tests for the workload zoo's generator contracts.

Three invariants every zoo scenario must hold for *every* seed, not just
the committed baseline seed:

* **determinism** — building the same scenario twice from the same seed
  yields a byte-identical access-trace probe (classes drawn from the mix
  and the page ids their executions touch);
* **label partition** — the ground-truth episodes tile ``[0, intervals)``
  exactly: every interval has one labelled cause, no gaps, no overlaps;
* **parameter envelopes** — every jittered scenario parameter stays inside
  its declared :data:`~repro.workloads.zoo.ZOO_ENVELOPES` band, so bench
  artefacts never record an out-of-contract run.
"""

from hypothesis import given, settings, strategies as st

from repro.workloads.zoo import ZOO_ENVELOPES, build_zoo_scenario, zoo_scenario_names
from zoo_probe import probe_digest

SCENARIOS = zoo_scenario_names()

scenario_names = st.sampled_from(SCENARIOS)
seeds = st.integers(min_value=0, max_value=10_000)


@given(name=scenario_names, seed=seeds)
@settings(max_examples=12, deadline=None)
def test_same_seed_same_trace(name, seed):
    """Same seed => byte-identical probe, across two independent builds."""
    first = probe_digest(build_zoo_scenario(name, seed=seed), samples=60)
    second = probe_digest(build_zoo_scenario(name, seed=seed), samples=60)
    assert first == second


@given(name=scenario_names, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_labels_partition_the_run(name, seed):
    """Episodes tile [0, intervals) exactly: one cause per interval."""
    scenario = build_zoo_scenario(name, seed=seed)
    labels = scenario.labels
    assert labels.intervals == scenario.intervals
    cursor = 0
    for label in labels.labels:
        assert label.start == cursor
        assert label.end > label.start
        cursor = label.end
    assert cursor == scenario.intervals
    # label_at agrees with the tiling at every interval.
    for interval in range(scenario.intervals):
        label = labels.label_at(interval)
        assert label.start <= interval < label.end


@given(name=scenario_names, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_params_within_declared_envelopes(name, seed):
    """Every jittered parameter stays inside its ZOO_ENVELOPES band."""
    scenario = build_zoo_scenario(name, seed=seed)
    envelope = ZOO_ENVELOPES[name]
    assert set(scenario.params) == set(envelope)
    for key, value in scenario.params.items():
        low, high = envelope[key]
        assert low <= value <= high, (
            f"{name}.{key} = {value} outside [{low}, {high}]"
        )


@given(name=scenario_names, seed=seeds)
@settings(max_examples=12, deadline=None)
def test_anomalous_contexts_come_from_the_scenario(name, seed):
    """Every labelled guilty context belongs to a scenario workload."""
    scenario = build_zoo_scenario(name, seed=seed)
    known = {
        f"{workload.app}/{query_class.name}"
        for workload in scenario.workloads
        for query_class in workload.classes()
    }
    # The OLAP storm's reporting class only joins the mix mid-run.
    known.add("tpcw/olap_report")
    for label in scenario.labels.anomalies():
        for context in label.contexts:
            assert context in known
