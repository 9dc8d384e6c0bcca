"""Integration test for the read-routing ablation (noisy-neighbour host).

The ``ablations`` artefact holds each policy's latency, and the scenario's
invariant compares them; *where the reads went* lives only in the
outcome's ``details``, so it is pinned here.
"""

from repro.experiments.ablations import run_routing_policies


def test_least_loaded_drains_reads_off_the_noisy_host():
    round_robin, least_loaded = run_routing_policies()
    assert abs(round_robin.details["quiet_share"] - 0.5) < 0.1
    assert least_loaded.details["quiet_share"] > 0.6
