"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out
        assert "ablation-metric" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_demo_fault_plan_flag(self):
        args = build_parser().parse_args(
            ["demo", "--fault-plan", "dead_chain=1,loss=0.1"]
        )
        assert args.fault_plan == "dead_chain=1,loss=0.1"

    def test_run_parser_flags(self):
        args = build_parser().parse_args(["run", "fig11", "--full", "--seed", "3"])
        assert args.experiment == "fig11"
        assert args.full
        assert args.seed == 3

    @pytest.mark.slow
    def test_run_fig8_quick(self, capsys):
        assert main(["run", "fig8"]) == 0
        out = capsys.readouterr().out
        assert "sign_flip_detected" in out
