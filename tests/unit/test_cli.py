"""Unit tests for the command-line interface."""

import importlib
from functools import partial

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.experiments.bench import SCENARIOS
from repro.experiments.results import IndexDropResult

PAPER_COMMANDS = ["fig3", "fig4", "fig5", "fig6", "table1", "table2", "table3",
                  "locks"]
TABLE_COMMANDS = [*PAPER_COMMANDS, "chaos", "storm", "plan", "zoo", "forecast"]
PAPER_DRIVERS = {
    "fig3": ("cpu_saturation", "run_cpu_saturation"),
    "fig4": ("index_drop", "run_index_drop"),
    "fig5": ("mrc_curves", "run_fig5_bestseller"),
    "fig6": ("mrc_curves", "run_fig6_search_items_by_region"),
    "table1": ("buffer_partitioning", "run_buffer_partitioning"),
    "table2": ("memory_contention", "run_memory_contention"),
    "table3": ("io_contention", "run_io_contention"),
    "locks": ("lock_contention", "run_lock_contention"),
}
"""Paper command → (module under ``repro.experiments``, driver its run calls)."""


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_known_commands_parse(self):
        parser = build_parser()
        for command in ("list", "fig3", "fig4", "fig5", "fig6",
                        "table1", "table2", "table3", "locks", "all"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_every_scenario_with_a_command_parses_with_its_knobs(self):
        commands = [entry for entry in SCENARIOS.values() if entry.command]
        assert [entry.command for entry in commands] == TABLE_COMMANDS
        assert list(cli.PAPER_SCENARIOS) == PAPER_COMMANDS
        parser = build_parser()
        for entry in commands:
            assert entry.render is not None
            argv, expected = [entry.command], {}
            for knob in cli._knobs(entry):
                kind, _ = cli.KNOBS[knob]
                flag = f"--{knob.replace('_', '-')}"
                if kind is bool:
                    argv.append(flag)
                    expected[knob] = True
                elif isinstance(kind, tuple):
                    argv += [flag, kind[0]]
                    expected[knob] = kind[0]
                else:
                    argv += [flag, "3"]
                    expected[knob] = 3
            args = parser.parse_args(argv)
            assert args.command == entry.command
            assert {knob: getattr(args, knob) for knob in expected} == expected

    def test_every_scenario_command_and_all_take_a_seed_of_zero(self):
        parser = build_parser()
        seeded = [command for command, entry in cli.COMMAND_SCENARIOS.items()
                  if "seed" in cli._knobs(entry)]
        assert seeded == TABLE_COMMANDS
        for command in [*seeded, "all"]:
            assert parser.parse_args([command, "--seed", "0"]).seed == 0
        with pytest.raises(SystemExit):
            parser.parse_args(["fig4", "--seed", "-1"])
        assert parser.parse_args(["plan", "--planner-seed", "0"]).planner_seed == 0

    def test_a_knob_the_scenario_does_not_have_is_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig3", "--executions", "5"])

    def test_overrides_parse(self):
        args = build_parser().parse_args(["fig4", "--clients", "10"])
        assert args.clients == 10
        args = build_parser().parse_args(["fig5", "--executions", "50"])
        assert args.executions == 50

    def test_forecast_options_parse(self):
        args = build_parser().parse_args(
            ["forecast", "--horizon", "3", "--margin", "0.8",
             "--export", "a.json", "--records", "r.jsonl"]
        )
        assert args.command == "forecast"
        assert args.horizon == 3
        assert args.margin == 0.8
        assert args.export == "a.json"
        assert args.records == "r.jsonl"

    def test_export_on_every_scenario_command_records_only_where_kept(self):
        parser = build_parser()
        for command, entry in cli.COMMAND_SCENARIOS.items():
            assert parser.parse_args([command, "--export", "a"]).export == "a"
            if entry.records is None:
                with pytest.raises(SystemExit):
                    parser.parse_args([command, "--records", "r"])
        assert [command for command, entry in cli.COMMAND_SCENARIOS.items()
                if entry.records] == ["zoo", "forecast"]


COUNT_FLAGS = [
    ("fig3", "--intervals"), ("fig4", "--clients"), ("fig5", "--executions"),
    ("all", "--clients"), ("all", "--intervals"), ("all", "--executions"),
    ("chaos", "--clients"), ("chaos", "--intervals"), ("storm", "--events"),
    ("forecast", "--horizon"), ("bench", "--parallel"),
]


class TestCountArguments:
    """Counts are checked where they enter: below 1 is a usage error."""

    @pytest.mark.parametrize("command,flag", COUNT_FLAGS)
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_values_below_one_exit_2(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as usage:
            main([command, flag, value])
        assert usage.value.code == 2
        assert f"argument {flag}: must be at least 1: {value}" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("flag", ["--clients", "--intervals"])
    def test_obs_report_counts_too(self, flag):
        with pytest.raises(SystemExit) as usage:
            main(["obs", "report", flag, "0"])
        assert usage.value.code == 2

    def test_an_absent_flag_is_the_default_not_zero(self, monkeypatch):
        seen = {}
        entry = cli.PAPER_SCENARIOS["fig4"]
        monkeypatch.setattr(entry, "run", lambda clients=60: seen.update(c=clients))
        monkeypatch.setattr(entry, "render", lambda result: "")
        assert main(["fig4"]) == 0 and seen == {"c": 60}
        assert main(["fig4", "--clients", "1"]) == 0 and seen == {"c": 1}


class TestListCommand:
    def test_lists_artefacts(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in PAPER_COMMANDS:
            assert name in out

    def test_paper_lines_come_from_the_scenario_table(self, capsys):
        main(["list"])
        lines = capsys.readouterr().out.splitlines()
        for entry in SCENARIOS.values():
            if entry.command:
                assert f"  {entry.command:8s} {entry.help}" in lines
        assert "  bench    benchmark scenarios: run, time, check baselines" in lines


class TestAllCommand:
    def test_visits_the_eight_paper_commands_in_order(self, monkeypatch, capsys):
        visited = []
        monkeypatch.setattr(
            cli, "_reproduce",
            lambda entry, args: visited.append(entry.command) or 0,
        )
        assert main(["all", "--clients", "10"]) == 0
        assert visited == PAPER_COMMANDS
        banners = [
            line.split()[1] for line in capsys.readouterr().out.splitlines()
            if line.startswith("=" * 20)
        ]
        assert banners == PAPER_COMMANDS

    def test_seed_reaches_every_paper_run(self, monkeypatch, capsys):
        seen = {}

        def record(command, seed=7):
            seen[command] = seed

        for command, entry in cli.PAPER_SCENARIOS.items():
            monkeypatch.setattr(entry, "run", partial(record, command))
            monkeypatch.setattr(entry, "render", lambda result: "")
        assert main(["all", "--seed", "3"]) == 0
        assert seen == dict.fromkeys(PAPER_COMMANDS, 3)

    def test_all_at_seed_7_hands_every_paper_driver_its_committed_seed(
        self, monkeypatch, capsys
    ):
        """``all --seed 7`` is ``all``: fig6 and table3 run RUBiS at seed + 4,
        as Table 2 does, so 7 reaches their drivers as the committed 11."""

        def driver_seeds(argv) -> dict:
            seen = {}
            for command, entry in cli.PAPER_SCENARIOS.items():
                module, driver = PAPER_DRIVERS[command]

                def stub(*args, command=command, **kwargs):
                    seen[command] = kwargs["seed"] if "seed" in kwargs else args[0].seed

                monkeypatch.setattr(
                    importlib.import_module(f"repro.experiments.{module}"), driver, stub
                )
                monkeypatch.setattr(entry, "render", lambda result: "")
            assert main(argv) == 0
            return seen

        committed = {**dict.fromkeys(PAPER_COMMANDS, 7), "fig6": 11, "table3": 11}
        assert driver_seeds(["all"]) == committed
        assert driver_seeds(["all", "--seed", "7"]) == committed


class TestFig4Rendering:
    """Fig. 4's text from stub results; ``latency_violation`` stays 0.0 in
    the artefact when no interval after the drop broke the SLA."""

    @staticmethod
    def render(violation: float) -> str:
        result = IndexDropResult(
            latency_before=0.11, latency_violation=violation, latency_after=0.77
        )
        return cli.PAPER_SCENARIOS["fig4"].render(result)

    def test_no_violation_is_said_and_not_printed_as_a_latency(self):
        out = self.render(0.0)
        assert (
            "latency: 0.11 s before the drop, no interval violated the SLA "
            "after it, 0.77 s in recovery"
        ) in out
        assert "0.00 s" not in out

    def test_a_violation_prints_the_three_latencies(self):
        assert "latency: 0.11 s -> 1.52 s -> 0.77 s" in self.render(1.52)


class TestFastCommands:
    """Commands cheap enough to execute inside a unit test."""

    def test_fig5_runs(self, capsys):
        assert main(["fig5", "--executions", "40"]) == 0
        out = capsys.readouterr().out
        assert "Miss Ratio Curve" in out
        assert "paper: 6982" in out

    @pytest.mark.parametrize("executions", ["1", "3", "4"])
    def test_fig5_degraded_trace_floors_at_one_execution(self, executions, capsys):
        assert main(["fig5", "--executions", executions]) == 0
        assert "degraded plan: acceptable" in capsys.readouterr().out

    def test_fig6_runs(self, capsys):
        assert main(["fig6", "--executions", "40"]) == 0
        out = capsys.readouterr().out
        assert "acceptable memory" in out

    def test_locks_runs(self, capsys):
        assert main(["locks", "--clients", "30"]) == 0
        out = capsys.readouterr().out
        assert "Lock contention" in out
        assert "baseline" in out


class TestObsCommand:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_report_parses_with_defaults(self):
        args = build_parser().parse_args(["obs", "report"])
        assert args.command == "obs"
        assert args.obs_command == "report"
        assert args.scenario == "index-drop"
        assert args.export is None
        assert args.input is None

    def test_report_options_parse(self, tmp_path):
        args = build_parser().parse_args(
            ["obs", "report", "--scenario", "quickstart",
             "--clients", "5", "--intervals", "2",
             "--export", str(tmp_path / "t.jsonl")]
        )
        assert args.scenario == "quickstart"
        assert args.clients == 5
        assert args.intervals == 2

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "report", "--scenario", "nope"])

    def test_report_runs_and_prints_sections(self, capsys):
        assert main(["obs", "report", "--scenario", "quickstart",
                     "--intervals", "2", "--clients", "5"]) == 0
        out = capsys.readouterr().out
        assert "Pipeline stages (top spans by work)" in out
        assert "MRC recomputations per application" in out
        assert "Controller actions by kind" in out

    def test_report_export_then_input_round_trip(self, capsys, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        assert main(["obs", "report", "--scenario", "quickstart",
                     "--intervals", "2", "--clients", "5",
                     "--export", str(path)]) == 0
        live = capsys.readouterr().out
        assert path.exists()
        assert main(["obs", "report", "--input", str(path)]) == 0
        replayed = capsys.readouterr().out
        # Summarising the exported file reproduces the live report.
        assert replayed.strip() in live

    def test_two_same_seed_exports_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            assert main(["obs", "report", "--scenario", "quickstart",
                         "--intervals", "2", "--clients", "5",
                         "--export", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("text, complaint", [
        ('{"record":"meta"}\n[1,2]\n', "line 2: not a JSON object: [1,2]"),
        ('{"record":"mystery"}\n', "line 1: unknown record kind 'mystery'"),
        ('{"record":"metric","name":"x"}\n',
         "line 1: metric record lacks type, labels"),
        ('{"record":"span","name":"x"}\n',
         "line 1: span record lacks start, end, cost"),
        ('{"record":"quality","scenario":"s"}\n',
         "line 1: quality record lacks precision"),
        ('{"record":"meta"}\n{"record":"span","na', "line 2: not JSON"),
        ("", "no records"),
    ])
    def test_malformed_input_exits_2_naming_the_line(
        self, text, complaint, tmp_path, capsys
    ):
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        assert main(["obs", "report", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"repro obs report: malformed telemetry in {path}: {complaint}"
                in captured.err)

    def test_unreadable_input_exits_2(self, tmp_path, capsys):
        assert main(["obs", "report", "--input", str(tmp_path / "no")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestOptInCommandsExecute:
    """``chaos``, ``storm``, ``zoo``, ``forecast`` and ``plan`` with the run
    stubbed by a hand-built real result: what they print, return and write."""

    def test_chaos_prints_series_and_reactions(self, monkeypatch, capsys):
        from repro.experiments import chaos

        seen = []
        result = chaos.ChaosResult(
            sla_latency=1.0,
            latency_series=[(10.0, 0.4), (20.0, 1.7)],
            sla_series=[True, False],
            reroute_intervals=1,
            quarantined_intervals=3,
            final_latency=1.7,
            faults_injected={"replica_crash": 1},
        )
        monkeypatch.setattr(
            chaos, "run_chaos", lambda config: seen.append(config) or result
        )
        assert main(["chaos", "--clients", "9"]) == 0
        assert seen == [chaos.ChaosConfig(clients=9)]
        out = capsys.readouterr().out
        assert "Chaos — mean latency" in out
        assert "fault reactions" in out
        assert "quarantined windows             3" in out
        assert "faults injected: {'replica_crash': 1}" in out
        assert "final latency: 1.700 s (SLA 1.0 s, met at end: False)" in out

    def test_storm_prints_the_plan_then_the_outcome(
        self, monkeypatch, capsys
    ):
        from repro.experiments import chaos

        config = chaos.ChaosStormConfig(seed=3, events=2, intervals=8)
        result = chaos.ChaosStormResult(
            seed=3,
            events=2,
            plan=chaos.build_storm_plan(config, "tpcw"),
            sla_latency=1.0,
            latency_series=[(10.0, 0.4)],
            sla_series=[True],
            controller_crashes=1,
            controller_restarts=1,
            epoch_final=2,
        )
        seen = []
        monkeypatch.setattr(
            chaos, "run_chaos_storm",
            lambda config: seen.append(config) or result,
        )
        assert main(["storm", "--seed", "3", "--events", "2",
                     "--intervals", "8"]) == 0
        assert seen == [config]
        out = capsys.readouterr().out
        assert out.index("storm plan (seed 3, 2 events)") < out.index(
            "storm — mean latency (seed 3)") < out.index("storm outcome")
        assert "final controller epoch  2" in out
        assert "met at end: True" in out

    @staticmethod
    def _stub_zoo(monkeypatch):
        from repro.analysis.quality import QualityReport
        from repro.experiments import zoo
        from repro.workloads.zoo import build_zoo_scenario

        def run_zoo(name, seed):
            return zoo.ZooRunResult(
                scenario=build_zoo_scenario(name, seed=seed),
                quality=QualityReport(
                    scenario=name, intervals=26, tolerance=2,
                    true_positives=5, false_positives=4,
                    precision=0.555556, recall=1.0, f1=0.714286,
                ),
                actions=[(9, "apply_quotas", "tpcw/best_seller")],
            )

        monkeypatch.setattr(zoo, "run_zoo", run_zoo)

    def test_zoo_records_are_a_file_obs_report_renders(
        self, monkeypatch, capsys, tmp_path
    ):
        self._stub_zoo(monkeypatch)
        path = tmp_path / "quality.jsonl"
        assert main(["zoo", "--scenario", "flash_crowd", "--seed", "11",
                     "--records", str(path)]) == 0
        out = capsys.readouterr().out
        assert "workload zoo — detection quality (seed 11)" in out
        assert "flash_crowd  0.556      1.000   0.714  5   4   0   1" in out
        assert f"records written: {path}" in out
        assert main(["obs", "report", "--input", str(path)]) == 0
        report = capsys.readouterr().out
        assert "runs=['flash_crowd'], scenario=zoo, seed=11" in report
        assert "Detection quality vs injected ground truth" in report
        assert "flash_crowd  0.556      1.000   0.714  5   4   0" in report

    def test_zoo_unknown_scenario_exits_2_naming_the_known_ones(self, capsys):
        with pytest.raises(SystemExit) as usage:
            main(["zoo", "--scenario", "nope"])
        assert usage.value.code == 2
        err = capsys.readouterr().err
        assert "argument --scenario: invalid choice: 'nope'" in err
        assert "'flash_crowd'" in err and "'write_burst'" in err

    def test_forecast_records_are_a_file_obs_report_renders(
        self, monkeypatch, capsys, tmp_path
    ):
        from repro.experiments import forecast_eval
        from repro.forecast.score import ForecastRecord, ForecastScore

        record = ForecastRecord(
            interval=7, app="tpcw", horizon=3, predicted_latency=1.2345678,
            threshold=0.9, confidence=0.8125, decision="act", acted=True,
            outcome="hit",
        )

        def run_forecast_eval(config):
            return forecast_eval.ForecastEvalResult(
                config=config,
                outcomes=[forecast_eval.ScenarioOutcome(
                    name="flash_crowd", app="tpcw",
                    score=ForecastScore(
                        acted=1, hits=1, violations_reactive=4,
                        violations_predictive=1,
                    ),
                    stats={"budget_remaining": 2},
                    records=[record],
                    sla_reactive="..XXXX", sla_predictive="..X...",
                )],
            )

        monkeypatch.setattr(forecast_eval, "run_forecast_eval",
                            run_forecast_eval)
        path = tmp_path / "forecast.jsonl"
        assert main(["forecast", "--horizon", "3",
                     "--records", str(path)]) == 0
        out = capsys.readouterr().out
        assert "reactive vs predictive (horizon 3, margin 0.9)" in out
        assert "flash_crowd  4         1           3        1      1" in out
        assert "SLA-violation intervals avoided: 3" in out
        assert f"records written: {path}" in out
        assert main(["obs", "report", "--input", str(path)]) == 0
        report = capsys.readouterr().out
        assert "horizon=3, scenario=forecast_eval, seed=7" in report
        assert "Forecast decisions (predictive SLA enforcement)" in report
        assert "7         tpcw  1.235      0.900      0.81" in report
        assert "Acted ahead 1× — 1 hits, 0 false alarms" in report

    def test_plan_validate_exits_1_on_a_failing_validation(
        self, monkeypatch, capsys, tmp_path
    ):
        from repro.experiments import planner_sweep
        from repro.planner.plan import CapacityPlan
        from repro.planner.validate import ClassCheck, PlanValidation

        plan = CapacityPlan(
            seed=5, interval_index=8, score_before=1.0, score_after=0.5
        )
        checks = [ClassCheck("tpcw/best_seller", 0.1, 0.4, accesses=100,
                             tolerance=0.25)]
        configs = []
        monkeypatch.setattr(
            planner_sweep, "plan_at_planning_point",
            lambda config: configs.append(config) or (plan, None),
        )
        monkeypatch.setattr(
            planner_sweep, "validate_at_planning_point",
            lambda plan, config: PlanValidation(checks=checks),
        )
        path = tmp_path / "plan.json"
        assert main(["plan", "--planner-seed", "5", "--export", str(path)]) == 0
        assert configs == [planner_sweep.PlannerSweepConfig(planner_seed=5)]
        out = capsys.readouterr().out
        assert "capacity plan @ interval 8 (seed 5)" in out
        assert f"plan digest: {plan.digest()}" in out
        assert f"artefact written: {path}" in out
        assert '"seed": 5' in path.read_text()
        assert main(["plan", "--planner-seed", "5", "--validate"]) == 1
        assert "-> MISMATCH" in capsys.readouterr().out
        checks[0] = ClassCheck("tpcw/best_seller", 0.4, 0.4, accesses=100,
                               tolerance=0.25)
        assert main(["plan", "--validate"]) == 0
        assert "-> OK" in capsys.readouterr().out
