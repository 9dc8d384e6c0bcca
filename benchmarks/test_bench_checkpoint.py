"""Micro-benchmark of a control-plane checkpoint: curves as they are against the oracle.

The cluster is the storm cluster of ``benchmarks/perf``'s ``incident_optin``
(TPC-W, two replicas, asynchronous replication, recovery on) without the
faults, run for ``INTERVALS`` intervals so the analyzers hold a few dozen
miss-ratio curves, nearly all of them pending: nothing read them.
``checkpoint_now`` is then timed on that one controller three ways, each from
the state the run left (restored from its own checkpoint before every
repeat): as built with the curves as they are (*pending*: each written as its
window slice), with the per-element oracle of ``tests/oracles/checkpoint.py``
swapped in (every curve analysed and listed count by count — what every
checkpoint of a new curve paid before curves were written as references),
and as built once every curve has been read (*all read*: the encode-once
steady state).  The three are timed in alternation (``alternate.py``), the
oracle's ``per_element_checkpoints`` swap entered and left around each of its
calls.  The table (``-rP`` shows it) is microseconds per checkpoint, best of
``REPEATS`` each, and payload bytes.  The one assertion on time is that
the pending checkpoint beats the oracle; the oracle's payload of the
restored controller must equal its payload of the run's own curves.
"""

import json
import sys
from pathlib import Path

from alternate import best_in_alternation

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


def test_pending_checkpoint_beats_per_element_encoding():
    harness = storm_cluster()
    supervisor = harness.recovery
    now = harness.clock.now
    analyzers = harness.controller.analyzers()
    built = json.dumps(supervisor.snapshot(), separators=(",", ":"))
    with per_element_checkpoints():
        # The run's own curves, read and listed: what the references in
        # ``built`` must restore to.
        expected = json.dumps(supervisor.snapshot(), separators=(",", ":"))

    def restore() -> None:
        supervisor.restore_state(json.loads(built))

    def read_every_curve() -> None:
        restore()
        for analyzer in analyzers:
            for _, slot in analyzer.mrc.slots():
                slot.entry.curve

    def checkpoint() -> None:
        supervisor.checkpoint_now(now)

    def per_element() -> None:
        with per_element_checkpoints():
            checkpoint()

    oracle, pending, all_read = (
        seconds * 1e6
        for seconds in best_in_alternation(
            (per_element, checkpoint, checkpoint),
            REPEATS,
            setups=(restore, restore, read_every_curve),
        )
    )
    payloads = []
    for setup, run in (
        (restore, per_element), (restore, checkpoint), (read_every_curve, checkpoint)
    ):
        setup()
        run()
        payloads.append(supervisor.checkpoints.latest().payload)
    listed, pending_payload, read_payload = payloads
    curves = [
        slot.entry.curve for analyzer in analyzers for _, slot in analyzer.mrc.slots()
    ]

    # Restored from the references and read, the controller lists what the
    # run's own curves listed.
    assert pending_payload == built
    assert listed == expected
    rows = [
        row
        for analyzer in json.loads(pending_payload)["analyzers"]
        for row in analyzer["mrc"]["slots"]
    ]
    references = sum("watermark" in row for row in rows)

    counts = sum(len(curve._hits) for curve in curves)
    print(f"{len(curves)} curves ({references} pending), {counts} hit counts, "
          f"{INTERVALS} intervals")
    print(f"{'checkpoint_now':<28}{'us':>10}{'payload bytes':>16}")
    print(f"{'oracle (per element)':<28}{oracle:>10.0f}{len(listed):>16}")
    print(f"{'as built, pending':<28}{pending:>10.0f}{len(pending_payload):>16}")
    print(f"{'as built, all read':<28}{all_read:>10.0f}{len(read_payload):>16}")

    assert references > 0
    assert pending < oracle
