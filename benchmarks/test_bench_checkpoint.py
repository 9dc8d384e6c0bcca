"""Micro-benchmark of a control-plane checkpoint: encode-once against the oracle.

The cluster is the storm cluster of ``benchmarks/perf``'s ``incident_optin``
(TPC-W, two replicas, asynchronous replication, recovery on) without the
faults, run for ``INTERVALS`` intervals so the analyzers hold a few dozen
miss-ratio curves.  ``checkpoint_now`` is then timed on that one controller
three ways: as built with every curve's text forgotten (*first*: what the
first checkpoint to see a curve pays), as built with the texts in place
(*steady*: no new curve since the last checkpoint), and with the per-element
pair of ``tests/oracles/checkpoint.py`` swapped in (what every checkpoint
paid under payload version 1).  The table (``-rP`` shows it) is microseconds
per checkpoint, best of ``REPEATS``, and payload bytes.  The one assertion on
time is that the steady state beats the oracle; the payloads must hold the
same state.
"""

import json
import sys
import timeit
from pathlib import Path

from repro.cluster.server import ServerSpec
from repro.experiments.chaos import ChaosStormConfig
from repro.experiments.index_drop import (
    CPU_SCALE,
    EXPERIMENT_COST_MODEL,
    scale_cpu_costs,
)
from repro.experiments.runner import ClusterHarness
from repro.workloads.tpcw import build_tpcw

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.checkpoint import per_element_checkpoints  # noqa: E402

INTERVALS = 24
REPEATS = 20


def storm_cluster() -> ClusterHarness:
    config = ChaosStormConfig(clients=30)
    workload = build_tpcw(seed=config.workload_seed)
    scale_cpu_costs(workload, CPU_SCALE)
    harness = ClusterHarness.single_app(
        workload,
        servers=config.servers,
        clients=config.clients,
        sla_latency=config.sla_latency,
        server_spec=ServerSpec(cores=2),
        cost_model=EXPERIMENT_COST_MODEL,
    )
    scheduler = harness.scheduler(workload.app)
    scheduler.async_replication = True
    second = harness.resource_manager.allocate_replica(scheduler, timestamp=0.0)
    harness.controller.track_replica(second)
    harness.enable_recovery()
    harness.run(intervals=INTERVALS)
    return harness


def test_steady_state_checkpoint_beats_per_element_encoding():
    harness = storm_cluster()
    supervisor = harness.recovery
    now = harness.clock.now
    curves = {
        id(curve): curve
        for analyzer in harness.controller.analyzers()
        for _, curve, _ in analyzer.mrc.curves()
    }

    def forget_texts() -> None:
        for curve in curves.values():
            curve._encoded_hits = None

    def checkpoint() -> None:
        supervisor.checkpoint_now(now)

    def microseconds(setup=lambda: None) -> float:
        return min(timeit.repeat(checkpoint, setup, number=1, repeat=REPEATS)) * 1e6

    first = microseconds(forget_texts)
    steady = microseconds()
    built = supervisor.checkpoints.latest()
    with per_element_checkpoints():
        oracle = microseconds()
        listed = supervisor.checkpoints.latest()

    state = json.loads(built.payload)
    for analyzer in state["analyzers"]:
        held = list(analyzer["mrc"]["curves"].values()) + [
            entry["value"]["curve"] for entry in analyzer["mrc_cache"]["entries"]
        ]
        for curve in held:
            curve["hits"] = [int(count) for count in curve["hits"].split(",")]
    assert state == json.loads(listed.payload)

    counts = sum(len(curve._hits) for curve in curves.values())
    print(f"{len(curves)} curves, {counts} hit counts, {INTERVALS} intervals")
    print(f"{'checkpoint_now':<28}{'us':>10}{'payload bytes':>16}")
    print(f"{'oracle (per element)':<28}{oracle:>10.0f}{len(listed.payload):>16}")
    print(f"{'as built, first':<28}{first:>10.0f}{len(built.payload):>16}")
    print(f"{'as built, steady state':<28}{steady:>10.0f}{len(built.payload):>16}")

    assert steady < oracle
