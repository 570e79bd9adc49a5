"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(
            ["run", "--algorithm", "sharedbit"]
        )
        assert args.algorithm == "sharedbit"
        assert args.graph == "expander"
        assert args.tau == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "nope"])


class TestCommands:
    def test_run_sharedbit(self, capsys):
        code = main(
            [
                "run", "--algorithm", "sharedbit", "--graph", "cycle",
                "--n", "10", "--k", "2", "--seed", "1",
                "--max-rounds", "20000",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "solved" in out
        assert "sharedbit on cycle" in out

    def test_run_profile_counts_settled_connections(self, capsys):
        # Most of BlindMatch's blind connections join equal sets, which
        # stage 3 settles by row.
        code = main([
            "run", "--algorithm", "blindmatch", "--graph", "expander",
            "--n", "200", "--k", "1", "--seed", "3", "--max-rounds", "300",
            "--profile",
        ])
        out = capsys.readouterr().out
        assert code == 0
        connections = int(re.search(r"connections=(\d+) ", out).group(1))
        line = out.splitlines()[-1]
        assert re.fullmatch(r"settled_connections=\d+ of \d+ connections",
                            line)
        settled, total = map(int, re.findall(r"\d+", line))
        assert total == connections
        assert 0 < settled < connections

    def test_run_blindmatch_dynamic(self, capsys):
        code = main(
            [
                "run", "--algorithm", "blindmatch", "--graph", "path",
                "--n", "8", "--k", "1", "--tau", "1", "--seed", "2",
                "--max-rounds", "50000",
            ]
        )
        assert code == 0
        assert "tau=1" in capsys.readouterr().out

    def test_run_failure_exit_code(self, capsys):
        code = main(
            [
                "run", "--algorithm", "blindmatch", "--graph", "path",
                "--n", "12", "--k", "2", "--seed", "1",
                "--max-rounds", "3",
            ]
        )
        assert code == 1
        assert "NOT solved" in capsys.readouterr().out

    def test_scenario_command(self, capsys):
        code = main(
            [
                "scenario", "--name", "disaster", "--algorithm",
                "sharedbit", "--seed", "3", "--max-rounds", "60000",
            ]
        )
        assert code == 0
        assert "disaster" in capsys.readouterr().out
