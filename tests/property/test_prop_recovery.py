"""Property: recovery machinery is invisible on the healthy path.

Two pins, both byte-level on exported telemetry:

* enabling recovery (checkpoints and all) on a fault-free run exports
  exactly the bytes of a run without recovery, and
* interrupting a run at an arbitrary interval with checkpoint → wipe →
  restore, then resuming, exports exactly the bytes of the uninterrupted
  run — the serialized state is *complete* given the surviving data plane:
  nothing the rest of the run depends on lives outside it and the engines'
  access windows, from which restore re-reads the curves still pending
  (DESIGN §13, *Curves as references*).  The split comes after at least two
  checkpoints, and the controller runs classic or under the planner, whose
  snapshot reads restored curves.  ``use_forecast`` stays out: the
  forecaster is not checkpointed and restarts cold, so its gauges differ
  after a restore.  ``tests/integration/test_recovery_splits.py`` interrupts
  zoo episodes whose restored curves are read.

Every Hypothesis example runs two full simulations, so the example
budgets are deliberately small; the split point and cluster shape are the
interesting dimensions, not the volume.
"""

from hypothesis import given, settings, strategies as st

from repro.core.controller import ControllerConfig
from repro.experiments.runner import ClusterHarness
from repro.obs import Observability, telemetry_lines
from repro.recovery import RecoveryConfig
from repro.workloads import build_tpcw

META = {"scenario": "prop-recovery", "seed": 7}


CONFIGS = (ControllerConfig(), ControllerConfig(use_planner=True))


def make_harness(clients, obs, config):
    workload = build_tpcw(seed=7)
    return ClusterHarness.single_app(
        workload, servers=2, clients=clients, config=config, obs=obs,
    )


def run_uninterrupted(clients, intervals, recovery, config=CONFIGS[0]):
    obs = Observability()
    harness = make_harness(clients, obs, config)
    if recovery:
        harness.enable_recovery(RecoveryConfig(checkpoint_every_intervals=1))
    harness.run(intervals=intervals)
    return telemetry_lines(obs, meta=META)


def run_interrupted(clients, intervals, split, config):
    obs = Observability()
    harness = make_harness(clients, obs, config)
    supervisor = harness.enable_recovery(
        RecoveryConfig(checkpoint_every_intervals=1)
    )
    harness.run(intervals=split)
    assert supervisor.checkpoints.taken >= 2
    state = supervisor.snapshot()
    supervisor.wipe()
    supervisor.restore_state(state)
    harness.run(intervals=intervals - split)
    return telemetry_lines(obs, meta=META)


@given(
    clients=st.integers(min_value=6, max_value=14),
    intervals=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=6, deadline=None)
def test_recovery_enabled_is_byte_invisible(clients, intervals):
    """Recovery on vs off: same bytes when nothing crashes."""
    with_recovery = run_uninterrupted(clients, intervals, recovery=True)
    without = run_uninterrupted(clients, intervals, recovery=False)
    assert with_recovery == without


@given(
    clients=st.integers(min_value=6, max_value=14),
    intervals=st.integers(min_value=3, max_value=6),
    config=st.sampled_from(CONFIGS),
    data=st.data(),
)
@settings(max_examples=8, deadline=None)
def test_checkpoint_restore_resume_is_byte_identical(
    clients, intervals, config, data
):
    """Interrupt anywhere: restore must reproduce the uninterrupted run."""
    split = data.draw(
        st.integers(min_value=2, max_value=intervals - 1), label="split"
    )
    interrupted = run_interrupted(clients, intervals, split, config)
    uninterrupted = run_uninterrupted(clients, intervals, True, config)
    assert interrupted == uninterrupted
