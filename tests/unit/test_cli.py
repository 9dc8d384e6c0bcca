"""Unit tests for the command-line interface."""

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.experiments.bench import SCENARIOS

PAPER_COMMANDS = ["fig3", "fig4", "fig5", "fig6", "table1", "table2", "table3",
                  "locks"]


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
        assert [entry.command for entry in commands] == PAPER_COMMANDS
        parser = build_parser()
        for entry in commands:
            assert entry.render is not None
            argv = [entry.command]
            for knob in cli._knobs(entry):
                argv += [f"--{knob}", "3"]
            args = parser.parse_args(argv)
            assert args.command == entry.command
            assert all(getattr(args, knob) == 3 for knob in cli._knobs(entry))

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


COUNT_FLAGS = [
    ("fig3", "--intervals"), ("fig4", "--clients"), ("fig5", "--executions"),
    ("all", "--clients"), ("all", "--intervals"), ("all", "--executions"),
    ("chaos", "--clients"), ("chaos", "--intervals"), ("chaos", "--events"),
    ("forecast", "--horizon"), ("bench", "--parallel"),
    ("bench", "--profile-top"),
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
