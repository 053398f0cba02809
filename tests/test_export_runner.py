"""Tests for result export (repro.eval.export) and the CLI runner."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.eval.export import load_json, result_rows, to_csv, to_json
from repro.eval.figure4 import Figure4Point, Figure4Result
from repro.eval.runner import build_parser, main
from repro.eval.table1 import Table1Entry, Table1Result
from repro.eval.table2 import Table2Entry, Table2Result


@pytest.fixture
def table2_result():
    return Table2Result(
        entries=[
            Table2Entry(1.0, 1.0, 0.58, 3500.0, 160.0, 0.9, 7000.0, 80.0, 0.25),
            Table2Entry(10.0, 9.9, 0.058, 450.0, 130.0, 7.0, 900.0, 45.0, 2.0),
        ]
    )


@pytest.fixture
def table1_result():
    return Table1Result(
        dense_per=5.3,
        entries=[
            Table1Entry("BSP", 1.0, 1.0, 5.3, 5.3, 1000),
            Table1Entry("BSP", 10.0, 8.0, 5.3, 5.8, 125),
        ],
    )


@pytest.fixture
def figure4_result():
    return Figure4Result(
        points=[
            Figure4Point(1.0, 1.0, 1.0, 1.0),
            Figure4Point(10.0, 9.9, 7.8, 7.7),
        ]
    )


class TestRows:
    def test_table1_rows(self, table1_result):
        rows = result_rows(table1_result)
        assert len(rows) == 2
        assert rows[1]["degradation"] == pytest.approx(0.5)
        assert rows[1]["params_kept"] == 125

    def test_table2_rows(self, table2_result):
        rows = result_rows(table2_result)
        assert rows[0]["gpu_time_us"] == 3500.0
        assert set(rows[0]) >= {"gop", "cpu_efficiency", "measured_rate"}

    def test_figure4_rows(self, figure4_result):
        rows = result_rows(figure4_result)
        assert rows[1]["gpu_speedup"] == 7.8

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            result_rows("not a result")


class TestFiles:
    def test_json_round_trip(self, table2_result, tmp_path):
        path = tmp_path / "t2.json"
        to_json(table2_result, path)
        rows = load_json(path)
        assert rows == result_rows(table2_result)

    def test_csv_readable(self, table1_result, tmp_path):
        path = tmp_path / "t1.csv"
        to_csv(table1_result, path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert rows[0]["method"] == "BSP"

    def test_csv_empty_result(self, tmp_path):
        path = tmp_path / "empty.csv"
        to_csv(Figure4Result(points=[]), path)
        assert path.read_text() == ""


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        for command in ("table1", "table2", "figure4", "all"):
            args = parser.parse_args([command] if command != "all" else ["all"])
            assert args.command == command

    @pytest.mark.parametrize(
        "argv",
        [
            ["stream-bench", "--scheme", "fp16"],
            ["stream-bench", "--scheme", "mixed"],
            ["tune", "--mixed"],
        ],
    )
    def test_a_removed_scheme_is_no_cli_option(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure4_command_end_to_end(self, tmp_path, capsys, monkeypatch):
        # Patch the sweep to a fast configuration so the CLI test is quick.
        import repro.eval.runner as runner
        from repro.eval.table2 import Table2Config

        fast = Table2Config(
            hidden_size=64, input_dim=24, timesteps=5,
            sweep=((1.0, 1.0, 1.0), (10.0, 1.0, 10.0)),
        )
        monkeypatch.setattr(runner, "Table2Config", lambda: fast)
        out = tmp_path / "fig4.json"
        assert main(["figure4", "--json", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "GPU speedup" in captured
        rows = json.loads(out.read_text())
        assert len(rows) == 2
        assert rows[0]["gpu_speedup"] == pytest.approx(1.0)

    def test_table2_command_csv(self, tmp_path, capsys, monkeypatch):
        import repro.eval.runner as runner
        from repro.eval.table2 import Table2Config

        fast = Table2Config(
            hidden_size=64, input_dim=24, timesteps=5,
            sweep=((1.0, 1.0, 1.0),),
        )
        monkeypatch.setattr(runner, "Table2Config", lambda: fast)
        out = tmp_path / "t2.csv"
        assert main(["table2", "--csv", str(out)]) == 0
        assert out.exists()
        assert "Table II" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, env, message",
        [
            (["stream-bench", "--sessions", "2", "--repeats", "1", "--chaos"], {},
             "chaos requires workers >= 1"),
            (["stream-bench", "--repeats", "0"], {}, "repeats must be >= 1, got 0"),
            (["tune", "--hidden-size", "16", "--schemes", "fp16"], {},
             "scheme must be one of (None, 'int8'), got 'fp16'"),
        ],
    )
    def test_typed_error_is_one_line_and_exit_2(self, argv, env, message):
        # ``main`` keeps raising (library callers); ``python -m repro`` prints ``error: ...``, exits 2
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv], env={**os.environ, **env, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr.splitlines()[-1] == f"error: {message}"
        assert "Traceback" not in done.stderr
