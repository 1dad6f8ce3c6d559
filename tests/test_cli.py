"""The command-line experiment runner."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.size == "small"
        assert args.seed == 0

    def test_table3_methods_parsed(self):
        args = build_parser().parse_args(["table3", "--methods", "ge,hignn"])
        assert args.methods == "ge,hignn"

    def test_invalid_size_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--size", "huge"])


class TestCommands:
    def test_stats_runs(self, capsys):
        assert main(["stats", "--size", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "mini-taobao1" in out
        assert "mini-taobao3" in out

    def test_table3_rejects_unknown_method(self, capsys):
        assert main(["table3", "--methods", "nonsense", "--size", "tiny"]) == 2

    def test_table3_tiny_run(self, capsys):
        code = main(
            ["table3", "--size", "tiny", "--methods", "ge", "--epochs", "1",
             "--levels", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ge=" in out


class TestServeCommand:
    def test_serve_runs_and_prints_rounds(self, capsys):
        code = main(
            ["serve", "--users", "60", "--items", "40", "--edges", "240",
             "--rounds", "2", "--requests", "50", "--batch-size", "16"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "warmed 60x40 graph" in out
        assert "round" in out
        assert "total: 100 requests" in out

    def test_serve_json_report(self, capsys):
        import json

        code = main(
            ["serve", "--users", "60", "--items", "40", "--edges", "240",
             "--rounds", "2", "--requests", "50", "--batch-size", "16",
             "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["rounds"]) == 2
        assert data["total_requests"] == 100
        assert 0.0 <= data["hit_rate"] <= 1.0
        for row in data["rounds"]:
            assert row["refresh_mode"] in {"delta", "full"}
            assert row["req_per_sec"] > 0

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.rounds == 4
        assert args.refresh_every == 1
        assert args.refresh_threshold is None
