"""Command-line interface: regenerate any of the paper's artefacts.

Usage::

    python -m repro list                 # what can be reproduced
    python -m repro fig3                 # sine load / CPU provisioning
    python -m repro fig4                 # index drop / outlier detection
    python -m repro fig5 | fig6          # miss-ratio curves
    python -m repro table1 | table2 | table3
    python -m repro locks                # the future-work lock scenario
    python -m repro obs report           # telemetry summary of the quickstart
    python -m repro zoo                  # anomaly zoo + detection quality
    python -m repro plan --validate      # capacity plan + what-if validation
    python -m repro forecast             # reactive vs predictive SLA diff
    python -m repro bench --parallel 4   # benchmark scenarios, sharded
    python -m repro all                  # everything, in order

Each command runs the corresponding deterministic experiment and prints
the reproduced table/series next to the paper's reference numbers.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from collections.abc import Sequence
from functools import partial
from pathlib import Path

from .analysis.report import Table, format_series
from .experiments.bench import (
    SCENARIOS,
    Scenario,
    add_bench_arguments,
    positive_int,
    run_bench_command,
)

__all__ = ["main"]


def _given(value, default):
    """An optional flag's value, or ``default`` when it was not given."""
    return default if value is None else value


def _obs(args) -> int:
    """``repro obs report`` — run the instrumented quickstart, summarise it."""
    from .obs import Observability, telemetry_records, write_records
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

        intervals = _given(args.intervals, 12)
        clients = _given(args.clients, 25)
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

        clients = _given(args.clients, 60)
        run_index_drop(IndexDropConfig(clients=clients), obs=obs)
        meta = {"scenario": "index-drop", "clients": clients, "seed": 7}
    records = telemetry_records(obs, meta)
    if getattr(args, "export", None):
        path = write_records(args.export, records)
        print(f"telemetry written: {path}")
        print()
    print(TelemetrySummary.from_records(records + allocations).render())
    return 0


def _plan(args) -> int:
    """``repro plan`` — capacity planner on the contended planning point.

    Rebuilds the memory-contention scenario up to the moment the paper's
    controller would first react, snapshots the cluster, searches a
    capacity plan and prints it.  ``--validate`` replays the plan in a
    forked harness and compares predicted vs simulated miss ratios;
    ``--apply`` actuates it on the scenario copy and reports the actions.
    """
    from .experiments.planner_sweep import (
        PlannerSweepConfig,
        plan_at_planning_point,
        validate_at_planning_point,
    )

    config = PlannerSweepConfig(planner_seed=args.seed)
    plan, harness = plan_at_planning_point(config)
    print(plan.render())
    print(f"\nplan digest: {plan.digest()}")
    status = 0
    if args.validate:
        validation = validate_at_planning_point(plan, config)
        print()
        print(validation.render())
        if not validation.ok:
            status = 1
    if args.apply:
        actions = harness.controller.apply_plan(plan, harness.clock.now)
        print(f"\napplied {len(actions)} actions:")
        for action in actions:
            print(f"  {action.kind.value}: {action.reason}")
        released = [
            event
            for event in harness.controller.resource_manager.history
            if event.action == "release"
        ]
        if released:
            print(f"  plus {len(released)} replica release(s)")
    if args.export:
        from .analysis.export import export_result

        path = export_result(args.export, plan.to_jsonable())
        print(f"\nplan written: {path}")
    return status


def _chaos_storm(args) -> int:
    """``repro chaos --seed N`` — replay one seeded random storm."""
    from .experiments.chaos import (
        ChaosStormConfig,
        build_storm_plan,
        run_chaos_storm,
    )

    config = ChaosStormConfig(
        seed=args.seed,
        events=args.events,
        intervals=_given(args.intervals, ChaosStormConfig.intervals),
        clients=_given(args.clients, ChaosStormConfig.clients),
    )
    # The plan is a pure function of (seed, config): print it up front so
    # the operator sees what is about to hit the cluster, then replay it.
    plan = build_storm_plan(config, "tpcw")
    table = Table(
        title=f"storm plan (seed {config.seed}, {config.events} events)",
        headers=["t (s)", "fault", "target", "duration (s)"],
    )
    for event in plan.ordered():
        table.add_row(
            f"{event.at:.1f}",
            event.kind.value,
            event.target,
            f"{event.duration:.1f}" if event.duration else "-",
        )
    print(table.render())
    print()

    result = run_chaos_storm(config)
    print(
        format_series(
            f"storm — mean latency (seed {config.seed})",
            result.latency_series,
            x_label="t (s)",
            y_label="latency",
        )
    )
    table = Table(title="storm outcome", headers=["measure", "value"])
    table.add_row("SLA violations", str(result.violations))
    table.add_row("controller crashes", str(result.controller_crashes))
    table.add_row("controller restarts", str(result.controller_restarts))
    table.add_row("interval closes missed", str(result.missed_intervals))
    table.add_row("final controller epoch", str(result.epoch_final))
    table.add_row("duplicate actions", str(result.duplicate_actions))
    table.add_row("unmatched faults", str(result.unmatched_faults))
    print(table.render())
    print(f"\nfaults injected: {result.faults_injected}")
    print(f"final latency: {result.final_latency:.3f} s "
          f"(SLA {result.sla_latency:.1f} s, "
          f"met at end: {result.sla_met_at_end()})")
    return 0


def _chaos(args) -> int:
    """``repro chaos`` — the fault-injection storm and its degraded modes."""
    from .experiments.chaos import ChaosConfig, run_chaos

    if getattr(args, "seed", None) is not None:
        return _chaos_storm(args)
    config = ChaosConfig(
        intervals=_given(args.intervals, ChaosConfig.intervals),
        clients=_given(args.clients, ChaosConfig.clients),
    )
    result = run_chaos(config)
    print(
        format_series(
            "Chaos — mean latency (crash at t=125, recovery at t=205)",
            result.latency_series,
            x_label="t (s)",
            y_label="latency",
        )
    )
    table = Table(
        title="fault reactions",
        headers=["measure", "value"],
    )
    table.add_row("re-route intervals after crash", str(result.reroute_intervals))
    table.add_row("quarantined windows", str(result.quarantined_intervals))
    table.add_row(
        "violating+degraded intervals", str(result.violating_degraded_intervals)
    )
    table.add_row(
        "actions during quarantine", str(result.actions_during_quarantine)
    )
    table.add_row(
        "SLA violations during outage", str(result.violations_during_outage)
    )
    table.add_row(
        "intervals to SLA recovery", str(result.sla_recovery_intervals)
    )
    table.add_row(
        "stale pending writes dropped", str(result.pending_stale_dropped)
    )
    print(table.render())
    print(f"\nfaults injected: {result.faults_injected}")
    print(f"final latency: {result.final_latency:.3f} s "
          f"(SLA {result.sla_latency:.1f} s, "
          f"met at end: {result.sla_met_at_end()})")
    return 0


def _zoo(args) -> int:
    """``repro zoo`` — run workload-zoo scenarios, score detection quality."""
    from .workloads.zoo import ZOO_SCENARIOS, zoo_scenario_names

    if getattr(args, "list", False):
        print("Workload-zoo scenarios:")
        for name in zoo_scenario_names():
            scenario = ZOO_SCENARIOS[name](7)
            print(f"  {name:20s} {scenario.description}")
        return 0

    from .analysis.quality import quality_records
    from .experiments.zoo import run_zoo

    names = [args.scenario] if args.scenario else zoo_scenario_names()
    unknown = sorted(set(names) - set(zoo_scenario_names()))
    if unknown:
        print(f"repro zoo: unknown scenario(s) {unknown}; "
              f"known: {zoo_scenario_names()}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else 7
    table = Table(
        title=f"workload zoo — detection quality (seed {seed})",
        headers=["scenario", "precision", "recall", "F1", "tp", "fp", "fn",
                 "actions"],
    )
    records = [{"record": "meta", "scenario": "zoo", "seed": seed,
                "runs": names}]
    for name in names:
        result = run_zoo(name, seed=seed)
        quality = result.quality
        records += quality_records(quality)
        table.add_row(
            name,
            f"{quality.precision:.3f}",
            f"{quality.recall:.3f}",
            f"{quality.f1:.3f}",
            str(quality.true_positives),
            str(quality.false_positives),
            str(quality.false_negatives),
            str(len(result.actions)),
        )
    print(table.render())
    if getattr(args, "export", None):
        from .obs import write_records

        path = write_records(args.export, records)
        print(f"\nquality report written: {path}")
    return 0


def _forecast(args) -> int:
    """``repro forecast`` — reactive vs predictive SLA enforcement.

    Runs the forecast evaluation: two forecastable scenarios (the
    flash-crowd surge and a ramping chaos I/O slowdown), each once with
    the classic reactive controller and once with
    ``ControllerConfig.use_forecast``, then the frozen planning-point
    validation (predicted snapshot -> plan -> what-if replay).
    """
    from .experiments.forecast_eval import (
        ForecastEvalConfig,
        forecast_eval_artefact,
        run_forecast_eval,
    )

    config = ForecastEvalConfig(
        horizon=_given(args.horizon, ForecastEvalConfig.horizon),
        margin=_given(args.margin, ForecastEvalConfig.margin),
    )
    result = run_forecast_eval(config)
    artefact = forecast_eval_artefact(result)

    table = Table(
        title=f"reactive vs predictive (horizon {config.horizon}, "
              f"margin {config.margin:g})",
        headers=["scenario", "reactive", "predictive", "avoided",
                 "acted", "hits", "false alarms", "budget left"],
    )
    for outcome in result.outcomes:
        score = outcome.score
        table.add_row(
            outcome.name,
            str(score.violations_reactive),
            str(score.violations_predictive),
            str(score.intervals_avoided),
            str(score.acted),
            str(score.hits),
            str(score.false_alarms),
            str(outcome.stats.get("budget_remaining", 0)),
        )
    print(table.render())
    print()
    for outcome in result.outcomes:
        print(f"{outcome.name:12s} reactive   {outcome.sla_reactive}")
        print(f"{'':12s} predictive {outcome.sla_predictive}")
    print(f"\nSLA-violation intervals avoided: "
          f"{result.total_intervals_avoided}")
    if result.plan is not None:
        print(f"planning-point plan: {len(result.plan.steps)} steps, "
              f"digest {result.plan.digest()[:16]}")
    if result.validation is not None:
        checks = artefact["validation"]
        print(f"predicted vs simulated: max relative error "
              f"{checks['max_relative_error']:.4f} "
              f"(ok: {checks['ok']})")
    status = 0
    if result.validation is not None and not result.validation.ok:
        status = 1
    if args.export:
        from .analysis.export import export_result

        path = export_result(args.export, artefact)
        print(f"\nartefact written: {path}")
    if args.records:
        from .forecast.score import forecast_records
        from .obs import write_records

        meta = {"record": "meta", "scenario": "forecast_eval",
                "seed": config.seed, "horizon": config.horizon}
        path = write_records(
            args.records, [meta, *forecast_records(result.records())]
        )
        print(f"forecast records written: {path}")
    return status


PAPER_SCENARIOS = {
    entry.command: entry for entry in SCENARIOS.values() if entry.command
}
"""``repro fig3 … locks``: the scenarios of the table that name a command,
in the paper's order."""

KNOB_HELP = {
    "clients": "override the emulated client population",
    "intervals": "override the number of measurement intervals",
    "executions": "override trace length (MRC commands)",
}
"""A paper scenario's knobs are the keyword arguments of its run; each
becomes a ``--<knob>`` flag of its command (and of ``all``)."""


def _knobs(entry: Scenario) -> list[str]:
    return list(inspect.signature(entry.run).parameters)


def _reproduce(entry: Scenario, args) -> int:
    """``repro fig3 … locks`` — run one scenario, print its rendering."""
    overrides = {
        knob: getattr(args, knob)
        for knob in _knobs(entry)
        if getattr(args, knob) is not None
    }
    print(entry.render(entry.run(**overrides)))
    return 0


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
        for name, entry in PAPER_SCENARIOS.items()
    },
    "chaos": (_chaos, "fault-injection storm: failover, quarantine, recovery"),
    "plan": (_plan, "capacity planner: print/validate/apply a cluster plan"),
    "forecast": (_forecast, "predictive SLA enforcement: reactive vs forecast"),
    "obs": (_obs, "telemetry: span timings, recomputations, actions"),
    "zoo": (_zoo, "workload zoo: anomaly scenarios, detection quality"),
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
        if name == "obs":
            # Observability has its own sub-tree: `repro obs report [...]`.
            obs = subparsers.add_parser(name, help=help_text)
            obs_subparsers = obs.add_subparsers(dest="obs_command", required=True)
            report = obs_subparsers.add_parser(
                "report",
                help="run an instrumented scenario and summarise telemetry",
            )
            report.add_argument("--scenario", choices=("index-drop", "quickstart"),
                                default="index-drop",
                                help="which scenario to instrument (default: "
                                     "index-drop, the full retuning pipeline)")
            report.add_argument("--clients", type=positive_int, default=None,
                                help="override the emulated client population")
            report.add_argument("--intervals", type=positive_int, default=None,
                                help="override the number of measurement intervals")
            report.add_argument("--export", type=str, default=None,
                                help="also write telemetry JSONL to this path")
            report.add_argument("--input", type=str, default=None,
                                help="summarise an existing telemetry JSONL "
                                     "instead of running the scenario")
            continue
        if name == "bench":
            bench = subparsers.add_parser(name, help=help_text)
            add_bench_arguments(bench)
            continue
        if name == "zoo":
            zoo = subparsers.add_parser(name, help=help_text)
            zoo.add_argument("--list", action="store_true",
                             help="list the zoo scenarios and exit")
            zoo.add_argument("--scenario", type=str, default=None,
                             help="run one scenario (default: all)")
            zoo.add_argument("--seed", type=int, default=None,
                             help="scenario seed (default: 7, the baseline "
                                  "seed)")
            zoo.add_argument("--export", type=str, default=None,
                             help="also write the quality report as JSONL "
                                  "to this path")
            continue
        if name == "chaos":
            chaos = subparsers.add_parser(name, help=help_text)
            chaos.add_argument("--clients", type=positive_int, default=None,
                               help="override the emulated client population")
            chaos.add_argument("--intervals", type=positive_int, default=None,
                               help="override the number of measurement "
                                    "intervals")
            chaos.add_argument("--seed", type=int, default=None,
                               help="replay a seeded *random* storm instead "
                                    "of the scripted one (the plan is "
                                    "printed before the replay; same seed, "
                                    "same storm)")
            chaos.add_argument("--events", type=positive_int, default=6,
                               help="events in the random storm "
                                    "(default: %(default)s; only with "
                                    "--seed)")
            continue
        if name == "forecast":
            forecast = subparsers.add_parser(name, help=help_text)
            forecast.add_argument("--horizon", type=positive_int, default=None,
                                  help="forecast horizon in intervals "
                                       "(default: 2)")
            forecast.add_argument("--margin", type=float, default=None,
                                  help="act-ahead margin as a fraction of "
                                       "the SLA (default: 0.9)")
            forecast.add_argument("--export", type=str, default=None,
                                  help="also write the eval artefact as "
                                       "JSON to this path")
            forecast.add_argument("--records", type=str, default=None,
                                  help="also write the forecast-decision "
                                       "records as JSONL to this path")
            continue
        if name == "plan":
            plan = subparsers.add_parser(name, help=help_text)
            plan.add_argument("--seed", type=int, default=0,
                              help="planner search seed (default: 0)")
            plan.add_argument("--validate", action="store_true",
                              help="replay the plan in a forked harness and "
                                   "compare predicted vs simulated miss "
                                   "ratios (exit 1 on mismatch)")
            plan.add_argument("--apply", action="store_true",
                              help="actuate the plan on the scenario copy "
                                   "and report the resulting actions")
            plan.add_argument("--export", type=str, default=None,
                              help="also write the plan as JSON to this path")
            continue
        sub = subparsers.add_parser(name, help=help_text)
        if name in PAPER_SCENARIOS:
            knobs = _knobs(PAPER_SCENARIOS[name])
        else:
            knobs = list(KNOB_HELP) if name == "all" else []
        for knob in knobs:
            sub.add_argument(f"--{knob}", type=positive_int, default=None,
                             help=KNOB_HELP[knob])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
