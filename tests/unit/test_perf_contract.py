"""What ``benchmarks/perf/`` needs of ``src/``, as a test.

The benchmark measures layers from outside: ``layers.TRACE_POINTS`` names one
public function per layer, a ``Tracer`` patches each at class (or module)
level *after import*, and the count callbacks read positional arguments and
result attributes.  A traced run is ``INCORRECT`` when any layer of
``layers.DATA_PLANE`` records no call, so none of those functions may be
inlined away, renamed, held as a bound function taken at import time, or
called with the counted argument passed by keyword (the callbacks index
``args[1]`` of ``access_many`` / ``prefetch_many`` / ``Scheduler.submit`` /
``LogAnalyzer.close_interval``, ``args[2]`` of ``record_window``, ``args[0]``
of ``stack_distances``, and read ``.total_pages``, ``.waited``, ``.is_write``).
The workloads are built from ``repro``'s public names and ``ControllerConfig``
keywords, so those must keep resolving too.

Reads ``benchmarks/perf/`` and ``BENCHMARK.json``; edits neither.
"""

import ast
import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

from repro.cluster.scheduler import Scheduler
from repro.cluster.server import ServerSpec
from repro.core.controller import ControllerConfig
from repro.experiments.runner import ClusterHarness
from repro.workloads import build_tpcw
from repro.workloads.tpcw import O_DATE_INDEX

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks" / "perf"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def tracer():
    tracer = Tracer()
    layers.install(tracer)
    tracer.current_interval = 0  # counts and the ledger skip spans outside one
    try:
        yield tracer
    finally:
        tracer.uninstall()


def single_app() -> ClusterHarness:
    return ClusterHarness.single_app(
        build_tpcw(7), servers=1, clients=12, pool_pages=4096,
        server_spec=ServerSpec(cores=16),
    )


def two_replicas_with_quotas() -> ClusterHarness:
    """``spill_mix`` in small: partitioned pools, read-ahead, replicated
    writes, lock waits."""
    workload = build_tpcw(7, mix="ordering")
    workload.catalog.drop(O_DATE_INDEX)
    harness = ClusterHarness.single_app(
        workload, servers=2, clients=12, pool_pages=1024,
        config=ControllerConfig(startup_grace_intervals=10**9),
        server_spec=ServerSpec(cores=16),
    )
    scheduler = harness.scheduler(workload.app)
    second = harness.resource_manager.allocate_replica(
        scheduler, timestamp=0.0, pool_pages=1024
    )
    harness.controller.track_replica(second)
    for replica in harness.replicas_of(workload.app):
        replica.engine.set_quota(f"{workload.app}/best_seller", 256)
    return harness


@pytest.mark.parametrize("build", [single_app, two_replicas_with_quotas])
def test_every_data_plane_layer_records_and_no_count_callback_raises(tracer, build):
    harness = build()
    harness.run(3)  # a callback that cannot read its argument raises here
    analyzers = harness.controller.analyzers()
    # The same class's curve twice over an unchanged window: the second
    # lookup hits, which the runs above never do.
    key = analyzers[0].engine.log.context_keys()[0]
    analyzers[0].recompute_mrc(key)
    analyzers[0].recompute_mrc(key)

    ledger = tracer.ledger()
    silent = [layer for layer in layers.DATA_PLANE if ledger[layer][1] == 0]
    assert not silent, f"trace points that saw no call: {silent}"
    queries = tracer.counts["workloads.clients.run_interval.queries"]
    assert queries > 0
    assert ledger["workloads.base.sample_class"][1] == queries
    assert ledger["cluster.scheduler.submit"][1] == queries
    assert ledger["engine.executor.execute"][1] == ledger["engine.engine.execute"][1]
    assert ledger["engine.executor.execute"][1] >= queries
    assert tracer.counts["engine.query.execute_pages.pages"] > 0
    assert tracer.counts["engine.statslog.record_window.pages"] > 0
    if build is two_replicas_with_quotas:
        assert tracer.counts["cluster.scheduler.submit.writes"] > 0
        assert tracer.counts["engine.bufferpool.prefetch_many.pages"] > 0
        assert ledger["engine.locks.acquire"][1] > 0
    # Every lookup of a class's curve goes through the traced ``get``.
    stores = [analyzer.mrc for analyzer in analyzers]
    assert ledger["core.mrc.cache.get"][1] == sum(
        store.hits + store.recomputations for store in stores
    )
    assert tracer.counts["core.mrc.cache.get.hits"] == sum(
        store.hits for store in stores
    ) >= 1

    metrics = layers.per_layer_metrics(
        tracer, dict.fromkeys(layers.RECORDER_COUNTS, 0), wall_s=1.0
    )
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(metrics) == sorted(entry["name"] for entry in declared)


def test_uninstall_puts_the_originals_back():
    original = vars(Scheduler)["submit"]
    tracer = Tracer()
    layers.install(tracer)
    assert vars(Scheduler)["submit"].__wrapped__ is original
    tracer.uninstall()
    assert vars(Scheduler)["submit"] is original


def test_the_frozen_benchmark_still_imports_and_configures_src():
    """``benchmarks/perf/`` cannot change, so ``src/`` must keep every name
    it imports and every ``ControllerConfig`` keyword it passes.  This is
    what keeps ``use_planner`` / ``use_forecast``: ``incident_optin`` builds
    ``ControllerConfig(use_planner=True, use_forecast=True)``."""
    importlib.import_module("workloads")  # every ``from repro… import`` resolves

    fields = {field.name for field in dataclasses.fields(ControllerConfig)}
    passed = set()
    for path in sorted((ROOT / "benchmarks" / "perf").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "ControllerConfig"
            ):
                passed.update(kw.arg for kw in node.keywords)
    assert {"use_planner", "use_forecast"} <= passed
    assert passed <= fields, f"not ControllerConfig fields: {passed - fields}"


def _imported_modules(path: Path) -> set[str]:
    """Top-level names of every module ``path`` imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_one_wall_clock_ruler_in_src():
    """``benchmarks/perf/`` is the wall-clock ruler; inside ``src/`` only the
    scenario table's ``seconds`` column reads a clock, and nothing profiles
    (``python -m cProfile -m repro bench --only <name>`` does that from
    outside)."""
    src = ROOT / "src" / "repro"
    imports = {
        path.relative_to(src).as_posix(): _imported_modules(path)
        for path in sorted(src.rglob("*.py"))
    }
    assert "experiments/bench.py" in imports
    clocked = sorted(path for path, names in imports.items() if "time" in names)
    assert clocked == ["experiments/bench.py"]
    profiled = sorted(path for path, names in imports.items() if "cProfile" in names)
    assert profiled == []


def _unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports and never reads (``__all__`` counts as a read,
    ``from __future__`` imports are directives, not names)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            read.update(
                elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)
            )
    return sorted(
        f"{name} (line {line})" for name, line in imported.items() if name not in read
    )


def test_no_src_module_imports_a_name_it_never_uses():
    """No linter is installed, so this AST walk is the check; package
    ``__init__.py`` files import to re-export and are skipped."""
    src = ROOT / "src" / "repro"
    unused = {
        path.relative_to(src).as_posix(): names
        for path in sorted(src.rglob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path))
    }
    assert unused == {}
