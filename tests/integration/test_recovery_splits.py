"""Split-point identity of zoo episodes whose restored curves get read.

``tests/property/test_prop_recovery.py`` interrupts a steady TPC-W run, in
which nothing reads a miss-ratio curve.  Here zoo episodes run with recovery
on and are interrupted before intervals ``SPLITS`` by snapshot → wipe →
restore → resume.  A restore rebuilds every pending curve from its slice of
the engine's access window, and the episodes then read some of them — the
planner's snapshot on ``flash_crowd``, diagnosis's ``ensure_mrc`` on
``olap_storm`` — so a slice read back wrong would move what the controller
names and does.  (``flash_crowd``'s classic diagnoses find no MRC suspect and
never reach a stored curve; that case pins the rest of the state.)
Detection events, actions, plans, per-interval latency and SLA verdicts
must equal the uninterrupted run's.
"""

import json

import pytest

import repro.experiments.zoo as zoo
from repro.core.controller import ControllerConfig
from repro.workloads.zoo import build_zoo_scenario

SPLITS = (5, 11, 17)


def run_episode(name, use_planner, splits):
    """The run's record, and the pending entries the splits restored."""
    scenario = build_zoo_scenario(name, seed=7)
    config = ControllerConfig(
        fallback_patience=scenario.fallback_patience, use_planner=use_planner
    )
    built, restored = [], []
    build = zoo._build_harness

    def split(harness):
        controller, supervisor = harness.controller, harness.recovery
        # The controller's logs are this test's record, not decision state.
        logs = controller.reports, controller.diagnoses, controller.plans
        state = json.loads(json.dumps(supervisor.snapshot()))
        supervisor.wipe()
        supervisor.restore_state(state)
        controller.reports, controller.diagnoses, controller.plans = logs
        restored.extend(
            slot.entry
            for analyzer in controller.analyzers()
            for _, slot in analyzer.mrc.slots()
            if slot.entry.pending_slice is not None
        )

    def with_recovery(scenario, obs, config):
        harness = build(scenario, obs, config)
        harness.enable_recovery()
        for index in splits:
            harness.at_interval(index, split)
        built.append(harness)
        return harness

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zoo, "_build_harness", with_recovery)
        result = zoo.run_zoo(scenario, config=config)
    (harness,) = built
    record = (
        result.events,
        result.actions,
        [plan.digest() for plan in harness.controller.plans],
        result.latency_series,
        result.sla_series,
    )
    return record, restored


@pytest.mark.parametrize(
    ("name", "use_planner", "reads_restored"),
    [
        ("flash_crowd", False, False),
        ("flash_crowd", True, True),
        ("olap_storm", False, True),
    ],
    ids=["flash_crowd-classic", "flash_crowd-planner", "olap_storm-classic"],
)
def test_interrupted_episode_equals_the_uninterrupted_one(
    name, use_planner, reads_restored
):
    uninterrupted, _ = run_episode(name, use_planner, splits=())
    interrupted, restored = run_episode(name, use_planner, splits=SPLITS)
    assert interrupted == uninterrupted
    # Restored pending curves were there; the episode read some of them.
    assert restored
    assert any(entry.pending_slice is None for entry in restored) == reads_restored
