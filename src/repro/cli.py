"""Command-line interface: regenerate any of the paper's artefacts.

Usage::

    python -m repro list                 # what can be reproduced
    python -m repro fig3                 # sine load / CPU provisioning
    python -m repro fig4 --seed 1        # index drop / outlier detection
    python -m repro fig5 | fig6          # miss-ratio curves
    python -m repro table1 | table2 | table3
    python -m repro locks                # the future-work lock scenario
    python -m repro chaos                # scripted fault storm
    python -m repro storm --seed 0       # seeded random fault storm
    python -m repro zoo                  # anomaly zoo + detection quality
    python -m repro plan --validate      # capacity plan + what-if validation
    python -m repro forecast             # reactive vs predictive SLA diff
    python -m repro obs report           # telemetry summary of the quickstart
    python -m repro bench --parallel 4   # benchmark scenarios, sharded
    python -m repro all --seed 7         # the paper's artefacts, in order

Every command but ``obs``, ``bench``, ``list`` and ``all`` is an entry of
the scenario table (:mod:`repro.experiments.bench`): its flags are the
keyword arguments of the entry's run (:data:`KNOBS`), ``--export PATH``
writes the artefact ``repro bench`` pins and ``--records PATH`` the entry's
JSONL records, where it has any.  Each runs a deterministic experiment and
prints the reproduced table or series next to the paper's reference numbers.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from collections.abc import Sequence
from functools import partial
from pathlib import Path

from .analysis.export import export_result
from .experiments.bench import (
    SCENARIOS,
    Scenario,
    add_bench_arguments,
    non_negative_int,
    positive_int,
    run_bench_command,
)
from .obs import write_records
from .workloads.zoo import ZOO_SCENARIOS, zoo_scenario_names

__all__ = ["main"]


def _obs(args) -> int:
    """``repro obs report`` — run the instrumented quickstart, summarise it."""
    from .obs import Observability, telemetry_records
    from .obs.report import TelemetrySummary

    if getattr(args, "input", None):
        try:
            text = Path(args.input).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            print(f"repro obs report: cannot read {args.input}: {error}",
                  file=sys.stderr)
            return 2
        try:
            summary = TelemetrySummary.from_lines(text.splitlines())
        except ValueError as error:  # says which line, and what is wrong
            print(f"repro obs report: malformed telemetry in {args.input}: "
                  f"{error}", file=sys.stderr)
            return 2
        print(summary.render())
        return 0

    obs = Observability()
    scenario = getattr(args, "scenario", "index-drop")
    allocations: list[dict] = []
    if scenario == "quickstart":
        from .cluster.resource_manager import allocation_records
        from .experiments.runner import quickstart_scenario

        intervals = args.intervals or 12
        clients = args.clients or 25
        harness, _ = quickstart_scenario(
            obs=obs, intervals=intervals, clients=clients
        )
        meta = {
            "scenario": "quickstart",
            "intervals": intervals,
            "clients": clients,
            "seed": 7,
        }
        # Feed the allocation timeline to the report only: the exported
        # telemetry (and its byte-identical golden) stays untouched.
        allocations = allocation_records(harness.controller.resource_manager)
    else:
        from .experiments.index_drop import IndexDropConfig, run_index_drop

        clients = args.clients or 60
        run_index_drop(IndexDropConfig(clients=clients), obs=obs)
        meta = {"scenario": "index-drop", "clients": clients, "seed": 7}
    records = telemetry_records(obs, meta)
    if getattr(args, "export", None):
        path = write_records(args.export, records)
        print(f"telemetry written: {path}")
        print()
    print(TelemetrySummary.from_records(records + allocations).render())
    return 0


COMMAND_SCENARIOS = {
    entry.command: entry for entry in SCENARIOS.values() if entry.command
}
"""``repro <command>``: every entry of the scenario table that names one."""

PAPER_SCENARIOS = {
    command: entry for command, entry in COMMAND_SCENARIOS.items() if entry.bench
}
"""``repro fig3 … locks`` and ``all``: the benchmarked entries with a
command, in the paper's order."""

KNOBS = {
    "clients": (positive_int, "override the emulated client population"),
    "intervals": (positive_int, "override the number of measurement intervals"),
    "executions": (positive_int, "override trace length (MRC commands)"),
    "seed": (non_negative_int, "workload seed"),
    "events": (positive_int, "events drawn for the random storm"),
    "horizon": (positive_int, "forecast horizon in intervals"),
    "margin": (float, "act-ahead margin as a fraction of the SLA"),
    "planner_seed": (non_negative_int, "planner search seed"),
    "validate": (bool, "replay the plan in a forked harness and compare "
                       "predicted vs simulated miss ratios (exit 1 on "
                       "mismatch)"),
    "apply": (bool, "actuate the plan on the scenario copy and report the "
                    "resulting actions"),
    "scenario": (tuple(zoo_scenario_names()), "run one zoo scenario (default: all) — "
                 + "; ".join(f"{name}: {ZOO_SCENARIOS[name](7).description}"
                             for name in zoo_scenario_names())),
}
"""Knob → (type, help).  A scenario's knobs are the keyword arguments of its
run; each becomes a ``--<knob>`` flag of its command (and a paper knob one
of ``all``).  A ``bool`` knob is a switch, a tuple lists its choices."""


def _knobs(entry: Scenario) -> dict:
    """The knobs of ``entry``'s run and their committed values."""
    parameters = inspect.signature(entry.run).parameters.values()
    return {parameter.name: parameter.default for parameter in parameters}


def _add_knob(parser: argparse.ArgumentParser, knob: str, default=None) -> None:
    kind, help_text = KNOBS[knob]
    if default is not None and not isinstance(default, bool):
        help_text += f" (default: {default})"
    if kind is bool:
        options = {"action": "store_true"}
    elif isinstance(kind, tuple):
        options = {"choices": kind}
    else:
        options = {"type": kind}
    parser.add_argument(
        f"--{knob.replace('_', '-')}", default=None, help=help_text, **options
    )


def _reproduce(entry: Scenario, args) -> int:
    """``repro <command>`` — run one scenario at the knobs given, print its
    rendering, write the files asked for; 1 when the entry's run fails."""
    overrides = {
        knob: getattr(args, knob)
        for knob in _knobs(entry)
        if getattr(args, knob) is not None
    }
    result = entry.run(**overrides)
    print(entry.render(result))
    export, records = getattr(args, "export", None), getattr(args, "records", None)
    if export or records:
        print()
    if export:
        print(f"artefact written: {export_result(export, entry.project(result))}")
    if records:
        print(f"records written: {write_records(records, entry.records(result))}")
    return 1 if entry.fails is not None and entry.fails(result) else 0


def _list(args) -> int:
    print("Reproducible artefacts:")
    for name, help_text in sorted(_COMMANDS.items()):
        if name not in ("list", "all"):
            print(f"  {name:8s} {help_text[1]}")
    return 0


def _all(args) -> int:
    for name, entry in PAPER_SCENARIOS.items():
        print(f"\n{'=' * 20} {name} {'=' * 20}")
        _reproduce(entry, args)
    return 0


_COMMANDS = {
    "list": (_list, "list the reproducible artefacts"),
    **{
        name: (partial(_reproduce, entry), entry.help)
        for name, entry in COMMAND_SCENARIOS.items()
    },
    "obs": (_obs, "telemetry: span timings, recomputations, actions"),
    "bench": (run_bench_command, "benchmark scenarios: run, time, check baselines"),
    "all": (_all, "run every artefact in order"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the tables and figures of 'Outlier Detection for "
            "Fine-grained Load Balancing in Database Clusters' (ICDE 2007)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        entry = COMMAND_SCENARIOS.get(name)
        if entry is not None:
            for knob, default in _knobs(entry).items():
                _add_knob(sub, knob, default)
            sub.add_argument("--export", metavar="PATH",
                             help="also write the run's artefact as JSON to "
                                  "this path")
            if entry.records is not None:
                sub.add_argument("--records", metavar="PATH",
                                 help="also write the run's records as "
                                      "JSONL to this path")
        elif name == "all":
            paper_knobs = (
                knob for entry in PAPER_SCENARIOS.values() for knob in _knobs(entry)
            )
            for knob in dict.fromkeys(paper_knobs):
                _add_knob(sub, knob)
        elif name == "bench":
            add_bench_arguments(sub)
        elif name == "obs":
            # Observability has its own sub-tree: `repro obs report [...]`.
            obs_subparsers = sub.add_subparsers(dest="obs_command", required=True)
            report = obs_subparsers.add_parser(
                "report",
                help="run an instrumented scenario and summarise telemetry",
            )
            report.add_argument("--scenario", choices=("index-drop", "quickstart"),
                                default="index-drop",
                                help="which scenario to instrument (default: "
                                     "index-drop, the full retuning pipeline)")
            _add_knob(report, "clients")
            _add_knob(report, "intervals")
            report.add_argument("--export", type=str, default=None,
                                help="also write telemetry JSONL to this path")
            report.add_argument("--input", type=str, default=None,
                                help="summarise an existing telemetry JSONL "
                                     "instead of running the scenario")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
