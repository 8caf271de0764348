"""CLI and CSV/SVG reporting: argument handling, exit codes, reproducibility."""

import json
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

import uavcov
from uavcov import cli, planner, reporting
from uavcov.channel import BUILTIN_ENVIRONMENTS
from uavcov.coverage import MAX_DRAWS
from uavcov.errors import InputError
from uavcov.reporting import OutputTable, emit_table, render_csv
from uavcov.scenario import MAX_USERS


def run_cli(argv):
    return cli.main([str(a) for a in argv])


def pool_sizes(monkeypatch) -> list:
    """The size of each thread pool built from here on, recorded as it is built."""
    sizes, pool = [], planner.ThreadPoolExecutor

    def recorded(max_workers):
        sizes.append(max_workers)
        return pool(max_workers)

    monkeypatch.setattr(planner, "ThreadPoolExecutor", recorded)
    return sizes


def started_threads(monkeypatch) -> list:
    """The threads started from here on, recorded as they start."""
    started, start = [], threading.Thread.start

    def record(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    return started


def read_csv(path):
    text = path.read_text(encoding="utf-8")
    comments = [ln for ln in text.split("\n") if ln.startswith("#")]
    data = [ln for ln in text.split("\n") if ln and not ln.startswith("#")]
    return text, comments, data[0].split(","), [ln.split(",") for ln in data[1:]]


class TestParseArgs:
    def test_sweep_plos_defaults(self, tmp_path):
        out = tmp_path / "plos.csv"
        config = cli.parse_args(["sweep-plos", "--env", "all", "--h", "100", "--out", str(out)])
        assert config.command == "sweep-plos"
        assert len(config.params["environments"]) == 4
        assert config.params["axis"] == "angle"
        assert (config.params["start"], config.params["stop"], config.params["step"]) == (
            0.5, 90.0, 0.5,
        )
        assert config.params["baseline_h_m"] == 100.0

    def test_usage_error_exit_1(self, capsys):
        assert run_cli(["sweep-plos", "--no-such-flag"]) == 1
        assert run_cli(["definitely-not-a-command"]) == 1
        assert run_cli([]) == 1

    def test_negative_altitude_exit_2_names_flag(self, capsys):
        code = run_cli(["sweep-plos", "--h", "-5"])
        assert code == 2
        assert "--h" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-coverage", "--step", "0"],
            ["sweep-coverage", "--start", "200", "--stop", "100"],
            ["optimize-altitude", "--steps", "1"],
            ["optimize-altitude", "--h-min", "500", "--h-max", "100"],
            ["coverage-radius", "--target", "1.5"],
            ["coverage-radius", "--resolution", "-2"],
            ["scenario", "--n-users", "0"],
            ["scenario", "--seed", "-3"],
            ["sweep-plos", "--env", "atlantis"],
            ["sweep-plos", "--sigma-los", "0"],
            ["sweep-plos", "--f-c", "-1"],
        ],
    )
    def test_semantic_errors_exit_2(self, argv, capsys):
        assert run_cli(argv) == 2
        assert capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, flag",
        [
            ("scenario", {"scenario": {"n_users": "10"}}, "--n-users"),
            ("scenario", {"scenario": {"n_users": True}}, "--n-users"),
            ("scenario", {"scenario": {"n_draws": 2.5}}, "--n-draws"),
            ("scenario", {"scenario": {"seed": False}}, "--seed"),
            ("scenario", {"scenario": {"seed": 1.0}}, "--seed"),
            ("scenario", {"scenario": {"area_side_m": "big"}}, "--area-side"),
            ("scenario", {"scenario": {"uav_x_m": [1]}}, "--uav-x"),
            ("scenario", {"scenario": {"area_shape": 3}}, "--area-shape"),
            ("scenario", {"radio": {"p_tx_dbm": "abc"}}, "--p-tx"),
            ("scenario", {"radio": {"bandwidth_hz": True}}, "--bandwidth"),
            ("sweep-coverage", {"sweep": {"mc_samples": "100"}}, "--mc-samples"),
            ("sweep-coverage", {"sweep": {"mc_samples": True}}, "--mc-samples"),
            ("sweep-coverage", {"sweep": {"step": "5"}}, "--step"),
            ("sweep-coverage", {"sweep": {"axis": ["angle"]}}, "--axis"),
            ("sweep-coverage", {"sweep": {"mode": {}}}, "--mode"),
            ("sweep-coverage", {"geometry": {"h_m": None, "r0_m": "far"}}, "--r0"),
            ("coverage-radius", {"geometry": {"h_m": "high"}}, "--h"),
            ("sweep-plos", {"environments": [7]}, "--config"),
            ("sweep-plos", {"environment": {"name": "x", "a": "q", "b": 0.1,
                                            "mu_los_db": 1, "mu_nlos_db": 20}}, "--config"),
            ("sweep-plos", {"environment": {"name": 4, "a": 9.0, "b": 0.1,
                                            "mu_los_db": 1, "mu_nlos_db": 20}}, "--config"),
            # integers past the largest double
            ("scenario", {"scenario": {"area_side_m": 10**400}}, "--area-side"),
            ("scenario", {"radio": {"f_c_hz": -10**309}}, "--f-c"),
            ("sweep-plos", {"environment": {"name": "x", "a": 10**400, "b": 0.1,
                                            "mu_los_db": 1, "mu_nlos_db": 20}}, "--config"),
        ],
    )
    def test_wrong_json_types_exit_2_name_flag(self, tmp_path, capsys, command, config, flag):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"error: {flag}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("raw", [
        b'{"scenario": {"area_side_m": 1' + b"0" * 5000 + b"}}",  # past int's digit limit
        b'\xff\xfe{"scenario": {}}',  # not UTF-8
        b"[" * 200_000,  # nested past the decoder's recursion limit
    ], ids=["long-integer", "not-utf8", "deep-nesting"])
    def test_unreadable_config_values_exit_2(self, tmp_path, capsys, raw):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(raw)
        assert run_cli(["scenario", "--n-users", "2", "--n-draws", "1", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "error: --config: invalid JSON in" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sweep-plos", "--step", "1e-9"], "--step"),
            (["sweep-coverage", "--step", "5e-324", "--mc-samples", "10"], "--step"),
            (["optimize-altitude", "--steps", str(2**24 + 1)], "--steps"),
            (["coverage-radius", "--resolution", "1e-9"], "--resolution"),
            (["scenario", "--n-users", "3", "--n-draws", "2", "--uav-x", "nan"], "--uav-x"),
            (["scenario", "--n-users", "3", "--n-draws", "2", "--uav-y", "inf"], "--uav-y"),
            (["scenario", "--n-users", "3", "--n-draws", "2", "--uav-y=-inf"], "--uav-y"),
            (["scenario", "--n-users", str(MAX_USERS + 1), "--n-draws", "1"], "--n-users"),
            (["scenario", "--n-users", "10000000000000", "--n-draws", "1"], "--n-users"),
            (["scenario", "--n-users", "3", "--n-draws", "2", "--p-tx", "1e300"], "--p-tx"),
            # non-finite values no range check of the CLI's own caught
            (["sweep-plos", "--h", "nan"], "--h"),
            (["sweep-plos", "--h", "inf"], "--h"),
            (["sweep-pathloss", "--r0", "inf"], "--r0"),
            (["sweep-plos", "--start", "nan"], "--start"),
            (["sweep-plos", "--stop", "nan"], "--stop"),
            (["sweep-plos", "--step", "inf"], "--step"),
            (["sweep-plos", "--f-c", "nan"], "--f-c"),
            (["sweep-plos", "--sigma-los", "nan"], "--sigma-los"),
            (["sweep-plos", "--sigma-nlos", "inf"], "--sigma-nlos"),
            (["coverage-radius", "--h", "inf"], "--h"),
            (["coverage-radius", "--r-max", "inf"], "--r-max"),
            (["optimize-altitude", "--r-edge", "nan"], "--r-edge"),
            (["optimize-altitude", "--h-max", "inf"], "--h-max"),
            (["scenario", "--area-side", "nan"], "--area-side"),
            (["scenario", "--uav-h", "nan"], "--uav-h"),
            # ranges the library checks, the CLI no longer a second time
            (["sweep-pathloss", "--r0=-1"], "--r0"),
            (["sweep-coverage", "--step", "0"], "--step"),
            (["sweep-coverage", "--start", "200", "--stop", "100"], "--start"),
            (["sweep-plos", "--start", "0"], "--start"),
            (["sweep-plos", "--stop", "95"], "--stop"),
            (["sweep-coverage", "--axis", "distance", "--start=-1"], "--start"),
            (["sweep-coverage", "--axis", "altitude", "--start", "0"], "--start"),
            (["sweep-plos", "--sigma-los", "0"], "--sigma-los"),
            (["sweep-coverage", "--sigma-nlos=-1"], "--sigma-nlos"),
            (["sweep-plos", "--f-c=-1"], "--f-c"),
            (["scenario", "--bandwidth", "0"], "--bandwidth"),
            (["optimize-altitude", "--r-edge=-1"], "--r-edge"),
            (["optimize-altitude", "--h-min", "0"], "--h-min"),
            (["optimize-altitude", "--h-min", "500", "--h-max", "100"], "--h-max"),
            (["optimize-altitude", "--steps", "1"], "--steps"),
            (["coverage-radius", "--h", "0"], "--h"),
            (["coverage-radius", "--target", "1.5"], "--target"),
            (["coverage-radius", "--r-max=-1"], "--r-max"),
            (["coverage-radius", "--resolution", "0"], "--resolution"),
            (["scenario", "--n-users", "0"], "--n-users"),
            (["scenario", "--n-draws", "0"], "--n-draws"),
            (["scenario", "--area-side", "0"], "--area-side"),
            (["scenario", "--uav-h", "0"], "--uav-h"),
            # a shadowing deviation whose deficit (or whose sigma**2) leaves a double
            (["sweep-coverage", "--env", "urban", "--sigma-los=5e-324"], "--sigma-los"),
            (["sweep-coverage", "--env", "urban", "--mode", "paper-literal",
              "--sigma-nlos=1e-200"], "--sigma-nlos"),
            (["scenario", "--n-users", "3", "--n-draws", "2", "--sigma-los=1e308"],
             "--sigma-los"),
        ],
    )
    def test_library_refusals_exit_2_name_flag(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out.csv"
        assert run_cli(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert f"error: {flag}: " in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep-coverage", "scenario"])
    def test_environment_mean_loss_past_the_db_bound_exit_2(self, tmp_path, capsys, command):
        cfg, out = tmp_path / "env.json", tmp_path / "out.csv"
        cfg.write_text(json.dumps({"environment": {
            "name": "x", "a": 9.6, "b": 0.28, "mu_los_db": 1.0, "mu_nlos_db": 1.7e308,
            "sigma_nlos_db": 0.5}}), encoding="utf-8")
        assert run_cli([command, "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "error: --env: " in err and "mu_nlos_db" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, flag",
        [
            ('{"scenario": {"uav_x_m": NaN}}', "--uav-x"),
            ('{"scenario": {"uav_y_m": Infinity}}', "--uav-y"),
            ('{"scenario": {"uav_x_m": 1e999}}', "--uav-x"),
        ],
    )
    def test_non_finite_uav_position_in_config_exit_2(self, tmp_path, capsys, text, flag):
        cfg, out = tmp_path / "bad.json", tmp_path / "out.csv"
        cfg.write_text(text, encoding="utf-8")
        assert run_cli(["scenario", "--n-users", "3", "--n-draws", "2", "--config", cfg,
                        "--out", out]) == 2
        assert f"error: {flag}: " in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_seed_overridden_by_flag(self, tmp_path):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({"scenario": {"n_users": 17, "seed": 3}}))
        config = cli.parse_args(["scenario", "--config", str(cfg), "--seed", "7"])
        assert config.params["seed"] == 7
        assert config.params["n_users"] == 17

    def test_config_file_values_apply(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "radio": {"p_min_dbm": -72.5, "f_c_hz": 2.4e9},
                    "environments": ["urban", "suburban"],
                    "geometry": {"h_m": 140.0},
                    "sweep": {"axis": "distance", "start": 10, "stop": 60, "step": 10},
                }
            )
        )
        config = cli.parse_args(["sweep-coverage", "--config", str(cfg)])
        assert config.params["radio"]["p_min_dbm"] == -72.5
        assert config.params["radio"]["f_c_hz"] == 2.4e9
        assert [e["name"] for e in config.params["environments"]] == ["urban", "suburban"]
        assert config.params["baseline_h_m"] == 140.0
        assert config.params["axis"] == "distance"
        assert config.params["stop"] == 60.0

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sweeep": {"start": 1}}))
        assert run_cli(["sweep-plos", "--config", str(cfg)]) == 2
        assert "sweeep" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, argv, flag, message",
        [
            (None, ["--config", "missing.json"], "--config", "cannot read"),
            ([1, 2], [], "--config", "top level must be a JSON object"),
            ({"radio": 5}, [], "--config", "'radio' must be an object"),
            ({"radio": {"nope": 1}}, [], "--config", "unknown key 'radio.nope'"),
            ({"environment": "urban", "environments": ["urban"]}, [], "--config",
             "not both"),
            ({"environment": {"name": "x", "a": 9.6, "b": 0.28, "mu_los_db": 1,
                              "mu_nlos_db": 20, "zzz": 1}}, [], "--config",
             "unknown environment key 'zzz'"),
            ({"environment": {"name": "x", "a": 9.6}}, [], "--config",
             "missing keys: b, mu_los_db, mu_nlos_db"),
            (None, ["--env", "urban", "--env", "suburban"], "--env",
             "exactly one environment, got 2"),
            (None, ["--workers", "0"], "--workers", "must be >= 1, got 0"),
        ],
        ids=["unreadable", "top-level-list", "section-not-object", "unknown-sub-key",
             "both-environment-keys", "unknown-environment-key", "missing-environment-keys",
             "two-scenario-environments", "no-workers"],
    )
    def test_structural_refusals_exit_2(self, tmp_path, monkeypatch, capsys, config, argv,
                                        flag, message):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            Path("c.json").write_text(json.dumps(config), encoding="utf-8")
            argv = ["--config", "c.json", *argv]
        assert run_cli(["scenario", "--n-users", "2", "--n-draws", "1", *argv,
                        "--out", "out.csv"]) == 2
        captured = capsys.readouterr()
        assert f"error: {flag}: " in captured.err and message in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert sorted(os.listdir()) == (["c.json"] if config is not None else [])

    @pytest.mark.parametrize("config", [None, {"environment": "nope"}], ids=["flag", "config"])
    def test_unknown_environment_line(self, tmp_path, monkeypatch, capsys, config):
        monkeypatch.chdir(tmp_path)
        argv = ["--env", "nope"]
        if config is not None:
            Path("c.json").write_text(json.dumps(config), encoding="utf-8")
            argv = ["--config", "c.json"]
        assert run_cli(["sweep-plos", *argv]) == 2
        assert capsys.readouterr().err == (
            "uavcov: error: --env: unknown environment 'nope'; built-ins: suburban, urban, "
            "dense-urban, high-rise-urban\n")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["scenario", "--n-users", "65536", "--n-draws", "65537"], "--n-draws"),
            (["scenario", "--n-users", "1", "--n-draws", str(MAX_DRAWS + 1)], "--n-draws"),
            (["scenario", "--n-users", "1", "--n-draws", "100000000000"], "--n-draws"),
            # past the draw cap of a scenario of any size
            (["scenario", "--n-users", "1", "--n-draws", str((1 << 22) + 1)], "--n-draws"),
            (["sweep-coverage", "--env", "urban", "--start", "15", "--stop", "15", "--step", "1",
              "--mc-samples", str(cli.MAX_DRAWS + 1)], "--mc-samples"),
            # the default distance grid: 4 environments x 98 rows = 392 cells
            (["sweep-coverage", "--mc-samples", str(cli.MAX_DRAWS // 392 + 1)],
             "--mc-samples"),
            (["sweep-coverage", "--env", "urban", "--step", "200",
              "--mc-samples", "100000000000000"], "--mc-samples"),
        ],
    )
    def test_work_cap_refused_before_any_work(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            code = run_cli(argv + ["--out", out])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {flag}: " in err and "Traceback" not in err
        assert not out.exists()
        assert peak < 1 << 20

    def test_mc_draw_cap_is_inclusive(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_DRAWS", 20)
        argv = ["sweep-coverage", "--env", "urban", "--start", "15", "--stop", "25",
                "--step", "10", "--out", tmp_path / "out.csv", "--mc-samples"]
        assert run_cli(argv + ["10"]) == 0
        assert run_cli(argv + ["11"]) == 2

    def test_mc_draw_cap_checked_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        def refuse(spec):
            raise AssertionError("the sweep was evaluated before the draw cap was checked")

        monkeypatch.setattr(cli, "run_sweep", refuse)
        assert run_cli(["sweep-coverage", "--mc-samples", cli.MAX_DRAWS, "--out",
                        tmp_path / "out.csv"]) == 2
        assert capsys.readouterr().err == (
            "uavcov: error: --mc-samples: Monte Carlo samples per point over 392 cells must "
            f"lie in [1, {cli.MAX_DRAWS // 392}], got {cli.MAX_DRAWS}\n")

    def test_custom_environment_object(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "environment": {
                        "name": "port-district",
                        "a": 7.0,
                        "b": 0.25,
                        "mu_los_db": 0.4,
                        "mu_nlos_db": 18.0,
                    }
                }
            )
        )
        config = cli.parse_args(["sweep-plos", "--config", str(cfg)])
        assert [e["name"] for e in config.params["environments"]] == ["port-district"]
        assert config.params["environments"][0]["sigma_los_db"] == 3.0

    def test_sigma_overrides_every_environment(self):
        config = cli.parse_args(["sweep-coverage", "--sigma-los", "4.5", "--sigma-nlos", "9.5"])
        for env in config.params["environments"]:
            assert env["sigma_los_db"] == 4.5
            assert env["sigma_nlos_db"] == 9.5


class TestCsvFormat:
    def test_fig3_sweep_row_count_and_columns(self, tmp_path):
        out = tmp_path / "plos.csv"
        assert run_cli(["sweep-plos", "--env", "all", "--h", "100", "--out", out]) == 0
        text, comments, header, rows = read_csv(out)
        assert len(rows) == 180
        assert header[0] == "angle_deg"
        assert len(header) == 5
        assert all(col.startswith("p_los[") for col in header[1:])
        assert text.endswith("\n") and "\r" not in text

    def test_distance_sweep_row_count(self, tmp_path):
        out = tmp_path / "coverage.csv"
        assert run_cli(["sweep-coverage", "--out", out]) == 0
        _, _, header, rows = read_csv(out)
        assert len(rows) == 98
        assert header[0] == "distance_m"

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep-pathloss", "--env", "urban", "--out"]
        assert run_cli(argv + [a]) == 0
        assert run_cli(argv + [b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_metadata_round_trip(self, tmp_path):
        out = tmp_path / "pathloss.csv"
        assert run_cli(
            ["sweep-pathloss", "--env", "all", "--h", "120", "--p-min", "-75", "--out", out]
        ) == 0
        text = out.read_text(encoding="utf-8")
        params = reporting.parse_metadata(text)
        rebuilt = cli.execute(cli.config_from_params(params))
        assert render_csv(rebuilt) == text

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "--env", "urban", "--n-users", "40", "--n-draws", "6", "--seed", "13"],
            ["optimize-altitude", "--env", "all", "--h-min", "50", "--h-max", "300",
             "--steps", "26"],
            ["coverage-radius", "--env", "suburban", "--target", "0.8"],
            ["sweep-coverage", "--env", "urban", "--start", "100", "--stop", "200",
             "--step", "50", "--mc-samples", "5000", "--seed", "21"],
        ],
    )
    def test_metadata_round_trip_all_commands(self, tmp_path, argv):
        out = tmp_path / "table.csv"
        assert run_cli(argv + ["--out", out]) == 0
        text = out.read_text(encoding="utf-8")
        params = reporting.parse_metadata(text)
        rebuilt = cli.execute(cli.config_from_params(params))
        assert render_csv(rebuilt) == text

    def test_unknown_command_in_metadata_raises(self):
        text = '# config: {"command":"sweep-nothing","environments":[]}\nx\n'
        with pytest.raises(ValueError, match="unknown command 'sweep-nothing'"):
            cli.execute(cli.config_from_params(reporting.parse_metadata(text)))

    def test_metadata_without_config_line_raises(self):
        with pytest.raises(ValueError, match="no '# config:' metadata line"):
            reporting.parse_metadata("# uavcov 0.1.0\n# command: sweep-plos\nangle_deg\n1\n")

    def test_nine_significant_digits(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run_cli(["sweep-plos", "--env", "urban", "--out", out]) == 0
        _, _, _, rows = read_csv(out)
        # p_los at the first grid angle has a long mantissa; 9 significant
        # digits means at most 10 visible digit characters and a dot
        cell = rows[0][1]
        digits = [c for c in cell if c.isdigit()]
        assert len(digits) <= 10
        assert "," not in cell

    def test_empty_table_header_and_metadata_only(self, tmp_path):
        table = OutputTable(
            header=["x", "y"], columns=[np.array([]), np.array([])],
            metadata={"params": {"command": "sweep-plos"}}
        )
        out = tmp_path / "empty.csv"
        emit_table(table, str(out))
        text, comments, header, rows = read_csv(out)
        assert header == ["x", "y"]
        assert rows == []
        assert comments

    def test_ragged_rows_rejected(self):
        table = OutputTable(header=["x", "y"], columns=[np.array([1.0, 2.0]), np.array([3.0])],
                            metadata={})
        with pytest.raises(ValueError, match="column 1 has 1 rows, column 0 has 2"):
            render_csv(table)

    def test_stdout_when_no_out(self, capsys):
        assert run_cli(["sweep-plos", "--env", "urban", "--step", "45"]) == 0
        got = capsys.readouterr().out
        assert "angle_deg" in got
        assert got.count("\n") >= 3

    def test_io_failure_exit_3(self, tmp_path, capsys):
        assert run_cli(["sweep-plos", "--out", tmp_path / "nodir" / "x.csv"]) == 3
        assert capsys.readouterr().err

    def test_never_partially_overwrites(self, tmp_path):
        target = tmp_path / "keep.csv"
        target.mkdir()  # replace onto a directory fails after the temp write
        code = run_cli(["sweep-plos", "--env", "urban", "--out", target])
        assert code == 3
        assert target.is_dir()
        assert not list(target.iterdir())
        leftovers = [p for p in tmp_path.iterdir() if p != target]
        assert leftovers == []  # temp file cleaned up


class TestCommands:
    def test_show_envs_prints_table_values(self, capsys):
        assert run_cli(["show-envs"]) == 0
        out = capsys.readouterr().out
        for token in ("suburban", "urban", "dense-urban", "high-rise-urban",
                      "5.2", "0.35", "0.1", "21",
                      "10.6", "0.18", "20",
                      "11.95", "0.14", "1.6", "23",
                      "26.5", "0.13", "2.3", "34"):
            assert token in out

    def test_optimize_altitude_table(self, tmp_path):
        out = tmp_path / "alt.csv"
        assert run_cli(
            ["optimize-altitude", "--env", "urban", "--r-edge", "500",
             "--h-min", "50", "--h-max", "500", "--steps", "46", "--out", out]
        ) == 0
        _, _, header, rows = read_csv(out)
        assert header == ["environment", "h_star_m", "p_cov_star"]
        assert len(rows) == 1
        assert rows[0][0] == "urban"
        assert 50.0 <= float(rows[0][1]) <= 500.0

    def test_coverage_radius_table(self, tmp_path):
        out = tmp_path / "rad.csv"
        assert run_cli(
            ["coverage-radius", "--env", "all", "--h", "100", "--target", "0.5",
             "--r-max", "800", "--resolution", "10", "--out", out]
        ) == 0
        _, _, header, rows = read_csv(out)
        assert header == ["environment", "max_radius_m"]
        assert len(rows) == 4

    def test_scenario_csv_deterministic_and_worker_invariant(self, tmp_path, monkeypatch):
        paths = [tmp_path / name for name in ("s1.csv", "s2.csv", "s4.csv")]
        base = ["scenario", "--env", "urban", "--n-users", "300", "--n-draws", "10",
                "--seed", "11", "--p-min", "-70"]
        assert run_cli(base + ["--out", paths[0]]) == 0
        assert run_cli(base + ["--out", paths[1], "--workers", "1"]) == 0
        # 4 usable CPUs and a thread granted per user-draw, so that the normals are drawn
        # on the helper thread
        monkeypatch.setattr(planner, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(planner, "_THREAD_WORK", 1)
        started = started_threads(monkeypatch)
        assert run_cli(base + ["--out", paths[2], "--workers", "4"]) == 0
        assert len(started) == 1
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]
        _, comments, header, rows = read_csv(paths[0])
        assert len(rows) == 300
        assert header[:4] == ["x_m", "y_m", "r0_m", "theta_deg"]
        assert any(ln.startswith("# summary:") for ln in comments)

    def test_scenario_summary_line_parses(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["scenario", "--env", "urban", "--n-users", "50", "--n-draws", "4",
                        "--seed", "5", "--out", out]) == 0
        summary_line = next(
            ln for ln in out.read_text().split("\n") if ln.startswith("# summary:")
        )
        summary = json.loads(summary_line[len("# summary:"):])
        assert 0.0 <= summary["mean_p_cov"] <= 1.0
        assert len(summary["covered_fraction_draws"]) == 4
        assert summary["energy_efficiency_bpj"] == pytest.approx(
            summary["sum_rate_bps"] / summary["total_power_w"], rel=1e-9
        )

    def test_sweep_coverage_mc_columns_worker_invariant(self, tmp_path, monkeypatch):
        # 4 usable CPUs and a thread granted per draw, so that 2 to 4 workers run the 3 cells
        # on a pool of 2 or 3 threads; the sweep's one run of points builds none
        monkeypatch.setattr(planner, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(planner, "_THREAD_WORK", 1)
        sizes = pool_sizes(monkeypatch)
        paths = {w: tmp_path / f"mc{w}.csv" for w in (1, 2, 3, 4)}
        base = ["sweep-coverage", "--env", "urban", "--start", "100", "--stop", "300",
                "--step", "100", "--p-min", "-70", "--mc-samples", "20000", "--seed", "3"]
        for workers, path in paths.items():
            assert run_cli(base + ["--workers", workers, "--out", path]) == 0
        assert sizes == [2, 3, 3]
        assert len({path.read_bytes() for path in paths.values()}) == 1
        _, _, header, rows = read_csv(paths[1])
        assert header == ["distance_m", "p_cov[urban]", "p_cov_mc[urban]", "mc_stderr[urban]"]
        assert len(rows) == 3
        for row in rows:
            assert abs(float(row[1]) - float(row[2])) <= 5 * float(row[3]) + 1e-9

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mc_cells_go_through_the_module_name(self, tmp_path, monkeypatch, workers):
        # wrapping cli.coverage_monte_carlo sees every (environment, row) cell once
        calls = []
        real = cli.coverage_monte_carlo

        def counted(*args, **kwargs):
            calls.append(kwargs["seed"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "coverage_monte_carlo", counted)
        assert run_cli(["sweep-coverage", "--env", "urban", "--env", "suburban", "--start",
                        "100", "--stop", "300", "--step", "100", "--mc-samples", "10",
                        "--seed", "5", "--workers", workers, "--out", tmp_path / "mc.csv"]) == 0
        assert sorted(calls) == [5 + 1_000_003 * cell for cell in range(6)]

    @pytest.mark.parametrize("workers, cpus, size", [
        (100_000, 2, 2),  # capped at the usable CPUs
        (3, 8, 3),
        (100_000, 64, 6),  # capped at the 2 x 3 cells
        (1, 8, 1),
    ])
    def test_mc_pool_size_is_bounded(self, tmp_path, monkeypatch, workers, cpus, size):
        # a thread for every draw, so that the 60 draws' pool is bounded by the rest
        monkeypatch.setattr(planner, "_THREAD_WORK", 1)
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(planner, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert run_cli(["sweep-coverage", "--env", "urban", "--env", "suburban", "--start",
                        "100", "--stop", "300", "--step", "100", "--mc-samples", "10",
                        "--workers", workers, "--out", tmp_path / "mc.csv"]) == 0
        # only the Monte Carlo cells: the sweep's block scan, and a pool of one thread, run
        # on the calling thread
        assert sizes == ([size] if size > 1 else [])

    def test_mc_pool_without_sched_getaffinity(self, tmp_path, monkeypatch):
        # platforms other than Linux have no os.sched_getaffinity; the CPU count stands in
        argv = ["sweep-coverage", "--env", "urban", "--start", "100", "--stop", "300",
                "--step", "100", "--mc-samples", "10", "--workers", "2", "--out"]
        assert run_cli(argv + [tmp_path / "with.csv"]) == 0
        monkeypatch.setattr(planner, "_THREAD_WORK", 1)
        sizes = pool_sizes(monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert run_cli(argv + [tmp_path / "without.csv"]) == 0
        # one usable CPU grants one thread, so neither the block scan nor the Monte Carlo
        # cells build a pool
        assert sizes == []
        assert (tmp_path / "with.csv").read_bytes() == (tmp_path / "without.csv").read_bytes()

    # planner grids of three runs of blocks and a part, with every built-in environment
    RUN = planner._RUN_BLOCKS * planner._BLOCK
    PLANNERS = {
        "optimize-altitude": ["optimize-altitude", "--env", "all", "--steps", str(3 * RUN + 5)],
        "coverage-radius": ["coverage-radius", "--env", "all", "--target", "0.5",
                            "--resolution", str(2000.0 / (3 * RUN + 4))],
    }

    @pytest.mark.parametrize("command", sorted(PLANNERS))
    def test_planner_tables_worker_invariant(self, tmp_path, monkeypatch, command):
        # 4 usable CPUs and a thread granted per kernel point, so that 2 to 4 workers run
        # the scans of two runs or more on a pool
        monkeypatch.setattr(planner, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(planner, "_THREAD_WORK", 1)
        sizes = pool_sizes(monkeypatch)
        paths = {w: tmp_path / f"p{w}.csv" for w in (1, 2, 3, 4)}
        for workers, path in paths.items():
            assert run_cli(self.PLANNERS[command] + ["--workers", workers, "--out", path]) == 0
        # each command runs one scan, which keeps 3 runs: a pool at each of 2 to 4 workers
        assert sizes == [2, 3, 3]
        assert len({path.read_bytes() for path in paths.values()}) == 1
        _, _, _, rows = read_csv(paths[1])
        assert [row[0] for row in rows] == ["suburban", "urban", "dense-urban", "high-rise-urban"]

    @pytest.mark.parametrize("command", sorted(PLANNERS))
    @pytest.mark.parametrize("workers, cpus, size", [
        (100_000, 2, 2),  # capped at the usable CPUs
        (3, 8, 3),
        (100_000, 64, 4),  # capped at the 4 runs of the grid: one span of runs each
        (1, 8, 1),
    ])
    def test_planner_pool_size_is_bounded(self, tmp_path, monkeypatch, command, workers, cpus,
                                          size):
        # a thread for every kernel point, so that the pools are bounded by the rest
        monkeypatch.setattr(planner, "_THREAD_WORK", 1)
        sizes = pool_sizes(monkeypatch)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        # a threshold far below any loss makes p_cov 1 everywhere, so no bound rules a block
        # out: the altitude scan runs all 4 runs, and the radius scan only the last block,
        # whose last point qualifies, on the calling thread, as a pool of one would
        expect = [size] if command == "optimize-altitude" and size > 1 else []
        assert run_cli(self.PLANNERS[command] + ["--p-min", "-500", "--workers", workers,
                                                 "--out", tmp_path / "p.csv"]) == 0
        assert sizes == expect
        # a grid of one run is one span, whatever the environments, and builds no pool
        argv = ["optimize-altitude", "--steps", "50"] if command == "optimize-altitude" else [
            "coverage-radius"]
        assert run_cli(argv + ["--env", "all", "--workers", workers,
                               "--out", tmp_path / "p.csv"]) == 0
        assert sizes == expect

    def test_an_unpruned_scan_of_two_quanta_gets_two_threads(self, tmp_path, monkeypatch):
        # --p-min -500 keeps every block: the altitude scan runs steps x 4 environments
        # kernel points, and a second thread from 2 * _THREAD_WORK of them on
        sizes = pool_sizes(monkeypatch)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(2)))
        steps = 2 * planner._THREAD_WORK // len(BUILTIN_ENVIRONMENTS)
        assert steps * len(BUILTIN_ENVIRONMENTS) >= 1 << 19
        for grid, expect in ((steps - 1, []), (steps, [2])):
            assert run_cli(["optimize-altitude", "--env", "all", "--steps", grid, "--p-min",
                            "-500", "--workers", "4", "--out", tmp_path / "p.csv"]) == 0
            assert sizes == expect
            sizes.clear()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_a_sweep_without_mc_starts_no_thread(self, tmp_path, monkeypatch, workers):
        started = started_threads(monkeypatch)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(4)))
        assert run_cli(["sweep-coverage", "--env", "all", "--axis", "altitude", "--workers",
                        workers, "--out", tmp_path / "s.csv"]) == 0
        assert started == []

    def test_mc_cells_get_a_second_thread_from_two_quanta_of_draws(self, tmp_path,
                                                                   monkeypatch):
        # 4 cells: one environment, 4 rows
        sizes = pool_sizes(monkeypatch)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(2)))
        samples = 2 * planner._THREAD_WORK // 4
        for draws, expect in ((samples - 1, []), (samples, [2])):
            assert run_cli(["sweep-coverage", "--env", "urban", "--start", "100", "--stop",
                            "400", "--step", "100", "--mc-samples", draws, "--workers", "4",
                            "--out", tmp_path / "mc.csv"]) == 0
            assert sizes == expect
            sizes.clear()

    def test_radius_at_planner_grid_size_pins_its_kernel_points(self, tmp_path, monkeypatch):
        points = []
        kernel = planner._coverage_arrays

        def counted(*args):
            result = kernel(*args)
            points.append(result.p_cov.size)
            return result

        monkeypatch.setattr(planner, "_coverage_arrays", counted)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(2)))
        started = started_threads(monkeypatch)
        assert run_cli(["coverage-radius", "--env", "all", "--resolution", "0.001",
                        "--workers", "2", "--out", tmp_path / "r.csv"]) == 0
        # 4 * 2048 kernel points are far below two _THREAD_WORK: no thread starts
        assert started == []
        # per environment, the bound call's 4 points per block of the 2000001-point grid,
        # 977 blocks of 2048 points, and the one block that holds the last qualifying end
        # point: 4 * (4 * 977 + 2048) = 23824 points in all (67504 with 2**14-point blocks)
        assert planner._BLOCK == 2048
        assert sum(points) == 23824

    def test_altitude_at_planner_grid_size_skips_the_saturated_plateau(self, tmp_path,
                                                                       monkeypatch):
        points = []
        kernel = planner._coverage_arrays

        def counted(*args):
            result = kernel(*args)
            points.append(result.p_cov.size)
            return result

        monkeypatch.setattr(planner, "_coverage_arrays", counted)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(2)))
        started = started_threads(monkeypatch)
        assert run_cli(["optimize-altitude", "--env", "all", "--steps", "2000000",
                        "--workers", "2", "--out", tmp_path / "h.csv"]) == 0
        # 18 * 2048 + 3 * 1152 kernel points are far below two _THREAD_WORK: no thread starts
        assert started == []
        # per environment, the bound call's 4 points per block of the 2000000-point grid,
        # 977 blocks of 2048 points, the last of 1152; then the blocks whose bound reaches
        # the largest end point: suburban's 18 around its optimum (blocks 806 to 823), on a
        # plateau where its LoS tail is 1.0 and 1 - p_cov varies only below 1.2e-9, and
        # the last block, where the other three environments peak at h_max. So
        # 4 * 4 * 977 + 18 * 2048 + 3 * 1152 = 55952 points in all. With 2**14-point
        # blocks it read 136496, and a slack of 1e-9 of the larger tail kept 940464
        assert planner._BLOCK == 2048
        assert sum(points) == 55952

    @pytest.mark.parametrize("command", sorted(PLANNERS))
    def test_planner_without_environments_writes_an_empty_table(self, tmp_path, command):
        cfg, out = tmp_path / "none.json", tmp_path / "p.csv"
        cfg.write_text('{"environments": []}', encoding="utf-8")
        assert run_cli([command, "--config", cfg, "--workers", "2", "--out", out]) == 0
        assert read_csv(out)[3] == []

    @pytest.mark.parametrize("argv, environments", [
        (["sweep-plos", "--env", "all", "--step", "30"], None),
        (["sweep-pathloss", "--env", "urban", "--step", "100"], None),
        (["sweep-coverage", "--step", "100"], None),
        (["sweep-coverage", "--env", "all", "--step", "200", "--mc-samples", "100"], None),
        (["optimize-altitude", "--steps", "50"], None),
        (["coverage-radius", "--env", "suburban"], None),
        (["optimize-altitude"], []),
        (["coverage-radius"], []),
        (["scenario", "--n-users", "10", "--n-draws", "1"], None),
    ], ids=["plos", "pathloss", "coverage", "coverage-mc", "optimize", "radius",
            "optimize-no-env", "radius-no-env", "scenario"])
    def test_every_table_column_is_a_typed_array(self, argv, environments):
        params = cli.parse_args(argv).params
        if environments is not None:  # a replayed config, as from a `# config:` line
            params = {**params, "environments": environments}
        table = cli.execute(cli.config_from_params(params))
        assert len(table.columns) == len(table.header) >= 2
        for column in table.columns:
            assert isinstance(column, np.ndarray) and column.ndim == 1
            assert column.dtype.kind in "biufU"

    @pytest.mark.parametrize("names", [[], ["urban", "suburban"]], ids=["none", "two"])
    def test_scenario_replay_takes_exactly_one_environment(self, names):
        # the command line refuses the same count; a replay reaches execute directly
        params = cli.parse_args(["scenario", "--n-users", "10", "--n-draws", "1"]).params
        envs = [{**params["environments"][0], "name": name} for name in names]
        with pytest.raises(InputError) as error:
            cli.execute(cli.config_from_params({**params, "environments": envs}))
        assert error.value.field == "environments"
        assert str(error.value) == f"scenario takes exactly one environment, got {len(names)}"
        assert cli._FIELD_FLAGS[error.value.field] == "--env"

    @pytest.mark.parametrize("command", cli.SWEEP_COMMANDS)
    def test_sweep_without_environments_names_env(self, tmp_path, capsys, command):
        cfg, out = tmp_path / "none.json", tmp_path / "s.csv"
        cfg.write_text('{"environments": []}', encoding="utf-8")
        assert run_cli([command, "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == (
            "uavcov: error: --env: sweep needs at least one environment\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(set(cli.COMMANDS) - {"show-envs"}))
    def test_environment_refused_before_the_radio(self, tmp_path, capsys, command):
        # both inputs are bad; every command builds the environments first
        bad = {"name": "bad", "a": 9.6, "b": 0.16, "mu_los_db": 1.0, "mu_nlos_db": 20.0,
               "sigma_los_db": 0.0}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"environment": bad, "radio": {"p_tx_dbm": 1e9}}),
                       encoding="utf-8")
        assert run_cli([command, "--config", cfg, "--out", tmp_path / "o.csv"]) == 2
        assert "error: --sigma-los: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["optimize-altitude", "--steps", "1"], "--steps"),
        (["coverage-radius", "--resolution", "0"], "--resolution"),
    ])
    def test_planner_refusal_on_the_pool_exit_2(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out.csv"
        assert run_cli(argv + ["--env", "all", "--workers", "2", "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"error: {flag}: " in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, scan", [("optimize-altitude", "optimal_altitude"),
                                               ("coverage-radius", "max_coverage_radius")])
    def test_planner_bad_environment_refused_before_any_scan(self, tmp_path, capsys,
                                                             monkeypatch, command, scan):
        calls = []
        real = getattr(cli, scan)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, scan, counted)
        bad = {"name": "bad", "a": 9.6, "b": 0.16, "mu_los_db": 1.0, "mu_nlos_db": 20.0,
               "sigma_los_db": 0.0}
        cfg, out = tmp_path / "c.json", tmp_path / "p.csv"
        cfg.write_text(json.dumps({"environments": ["urban", "suburban", bad]}),
                       encoding="utf-8")
        assert run_cli([command, "--config", cfg, "--workers", "2", "--out", out]) == 2
        assert "error: --sigma-los: " in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_steep_sigmoid_sweeps_without_warning(self, tmp_path, capsys):
        cfg, out = tmp_path / "steep.json", tmp_path / "plos.csv"
        cfg.write_text(json.dumps({"environment": {"name": "steep", "a": 60, "b": 20,
                                                   "mu_los_db": 1, "mu_nlos_db": 20}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["sweep-plos", "--config", cfg, "--out", out]) == 0
        assert capsys.readouterr().err == ""
        _, _, header, rows = read_csv(out)
        assert header == ["angle_deg", "p_los[steep]"]
        values = {float(angle): float(p) for angle, p in rows}
        assert all(p == 0.0 for angle, p in values.items() if angle < 24.5)
        assert all(p > 0.0 for angle, p in values.items() if angle >= 25.0)
        assert values[90.0] == 1.0

    def test_paper_literal_mode_flag(self, tmp_path):
        a, b = tmp_path / "std.csv", tmp_path / "lit.csv"
        base = ["sweep-coverage", "--env", "urban", "--p-min", "-70", "--out"]
        assert run_cli(base + [a]) == 0
        assert run_cli(base + [b, "--mode", "paper-literal"]) == 0
        assert a.read_bytes() != b.read_bytes()
        assert "paper-literal" in b.read_text()


class TestOutputFiles:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_out_files_respect_umask(self, tmp_path, umask):
        out = tmp_path / "plos.csv"
        previous = os.umask(umask)
        try:
            assert run_cli(["sweep-plos", "--env", "urban", "--step", "30", "--out", out,
                            "--plot"]) == 0
        finally:
            os.umask(previous)
        for path in (out, out.with_suffix(".svg")):
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plos.csv", "plos.svg"]

    def test_version_is_the_header_version(self):
        assert uavcov.__version__ is reporting.TOOL_VERSION
        table = OutputTable(header=["x"], columns=[np.array([])], metadata={})
        assert render_csv(table).startswith(f"# uavcov {uavcov.__version__}\n")


class TestPlot:
    def test_plot_writes_svg_beside_csv(self, tmp_path):
        out = tmp_path / "plos.csv"
        assert run_cli(["sweep-plos", "--env", "all", "--out", out, "--plot"]) == 0
        svg = tmp_path / "plos.svg"
        assert svg.exists()
        text = svg.read_text(encoding="utf-8")
        assert text.startswith("<svg")
        assert 'width="800"' in text and 'height="500"' in text
        for name in ("suburban", "urban", "dense-urban", "high-rise-urban"):
            assert name in text
        assert text.count("<polyline") >= 4
        minidom.parseString(text)

    @staticmethod
    def run_with_environment_name(tmp_path, command, name):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"environment": {"name": name, "a": 9.6, "b": 0.16,
                                                   "mu_los_db": 1.0, "mu_nlos_db": 20.0}}))
        return run_cli([*command, "--config", cfg, "--out", tmp_path / "out.csv", "--plot"])

    @pytest.mark.parametrize("command", [["optimize-altitude", "--steps", "5"], ["sweep-plos"]])
    @pytest.mark.parametrize("name", ["a\nb", "a,b", "a\tb", "a\x00b", "a\u2028b"])
    def test_an_environment_name_that_breaks_a_line_or_a_cell_exits_2(self, tmp_path, capsys,
                                                                     command, name):
        assert self.run_with_environment_name(tmp_path, command, name) == 2
        err = capsys.readouterr().err
        assert err.startswith("uavcov: error: --env: ") and "Traceback" not in err
        assert [path.name for path in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize("command", [["optimize-altitude", "--steps", "5"], ["sweep-plos"]])
    def test_markup_in_an_environment_name_is_escaped_in_the_chart(self, tmp_path, command):
        name = "a&b <c>"
        assert self.run_with_environment_name(tmp_path, command, name) == 0
        lines = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()
        assert f"# environment: {name} a=9.6 b=0.16 mu_los_db=1 mu_nlos_db=20 " \
               "sigma_los_db=3 sigma_nlos_db=8" in lines
        rows = [line.count(",") for line in lines if not line.startswith("#")]
        assert len(set(rows)) == 1
        svg = minidom.parse(str(tmp_path / "out.svg"))
        texts = [node.firstChild.data for node in svg.getElementsByTagName("text")]
        assert (f"p_los[{name}]" in texts) == (command == ["sweep-plos"])

    def test_plot_without_out_rejected(self, capsys):
        assert run_cli(["sweep-plos", "--plot"]) == 2
        assert "--plot" in capsys.readouterr().err


class TestNumberFormatting:
    def test_nine_sig_digits_and_locale_independence(self):
        assert reporting.format_number(0.5) == "0.5"
        assert reporting.format_number(180.0) == "180"
        assert reporting.format_number(0.97156649128611287) == "0.971566491"
        assert reporting.format_number(-14.810666666666667) == "-14.8106667"
        assert reporting.format_number(5) == "5"
        assert reporting.format_number("urban") == "urban"

    def test_round_half_even_not_locale(self):
        out = reporting.format_number(1234567.891)
        assert "," not in out
        assert out == "1234567.89"

    def test_render_csv_cells_match_format_number(self):
        # one array per kind, its edge cells first; each cell prints as its Python scalar
        floats = [0.5, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, 1.0e300,
                  1234567.891, 0.1 + 0.2]
        n = len(floats)
        columns = [np.array(floats), np.resize(np.float32([0.1, -2.5]), n),
                   np.resize(np.int64([7, -2**63, 2**63 - 1]), n),
                   np.resize(np.uint64([2**64 - 1, 0]), n), np.resize([True, False], n),
                   np.resize(np.array(["urban", "100%s", ""]), n)]
        table = OutputTable(header=[f"c{i}" for i in range(len(columns))], columns=columns,
                            metadata={})
        body = render_csv(table).split("\n")[-n - 1:-1]
        rows = list(zip(*(column.tolist() for column in columns)))
        assert body == [",".join(reporting.format_number(c) for c in row) for row in rows]
        assert body[0] == "0.5,0.100000001,7,18446744073709551615,1,urban"
        assert body[1] == "-0,-2.5,-9223372036854775808,0,0,100%s"


def _module_env():
    src = str(Path(uavcov.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["uavcov", "uavcov.cli"])
    def test_python_dash_m_runs_the_cli(self, module):
        done = subprocess.run([sys.executable, "-m", module, "show-envs"], env=_module_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == cli._env_listing() + "\n"
        assert done.stderr == ""

    def test_reader_closing_stdout_early_is_quiet(self):
        # ~4 MB of CSV, far more than a pipe buffers, so writes go on after the close
        proc = subprocess.Popen([sys.executable, "-m", "uavcov", "scenario", "--n-users",
                                 "40000", "--n-draws", "1"], env=_module_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline() == b"# uavcov 0.1.0\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
            proc.wait(timeout=10)
        assert proc.returncode == 0
        assert err == b""


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestExtremeValues:
    @pytest.mark.parametrize(
        "extra, code, flag",
        [
            (["--noise-density=-1e300"], 2, "--noise-density"),
            (["--bandwidth", "1e-300"], 0, None),
            (["--f-c", "1e-300"], 0, None),
            (["--area-side", "1e-300", "--uav-h", "1e-300"], 0, None),
            # within the radio bounds, but the summary would leave a double
            (["--p-tx=-3000", "--g-db", "3000"], 2, "--p-tx"),
            (["--bandwidth", "1e305", "--p-tx", "3000", "--g-db", "3000",
              "--noise-density=-3000", "--f-c", "1e-300"], 2, "--bandwidth"),
        ],
    )
    def test_scenario_rates_finite_or_refused(self, tmp_path, capsys, extra, code, flag):
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["scenario", "--n-users", "2", "--n-draws", "1", *extra,
                            "--out", out]) == code
        err = capsys.readouterr().err
        if flag is not None:
            assert f"error: {flag}: " in err and "Traceback" not in err
            assert not out.exists()
            return
        _, comments, header, rows = read_csv(out)
        summary = [line for line in comments if line.startswith("# summary: ")]
        assert len(summary) == 1
        json.loads(summary[0][len("# summary: "):], parse_constant=_reject_constant)
        rates = np.array([float(row[header.index("rate_bps")]) for row in rows])
        assert np.all(np.isfinite(rates)) and np.all(rates > 0.0)

    @pytest.mark.parametrize("argv", [
        ["coverage-radius", "--env", "urban", "--h=1e300"],
        ["optimize-altitude", "--env", "urban", "--r-edge=1e300", "--steps", "50"],
        ["scenario", "--env", "urban", "--n-users", "20", "--n-draws", "2", "--uav-h=1e300"],
        ["scenario", "--env", "urban", "--n-users", "20", "--n-draws", "2",
         "--area-side=1e300"],
        ["sweep-pathloss", "--env", "urban", "--f-c", "1e-300", "--axis", "altitude",
         "--start", "1e-20", "--stop", "1e-20", "--step", "1", "--r0", "0"],
        ["scenario", "--n-users", "2", "--n-draws", "1", "--f-c", "5e-324", "--uav-h", "5e-324",
         "--area-side", "5e-324"],
    ], ids=["radius-high-uav", "optimize-far-edge", "scenario-high-uav", "scenario-wide-area",
            "pathloss-ratio-underflows", "scenario-subnormal"])
    def test_free_space_loss_stays_finite(self, tmp_path, capsys, argv):
        # 4*pi*f*d/c overflows or underflows; each cell must still be a finite number
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli([*argv, "--out", out]) == 0
        assert capsys.readouterr().err == ""
        _, comments, header, rows = read_csv(out)
        cells = [cell for row in rows for cell in row if cell not in BUILTIN_ENVIRONMENTS]
        assert rows and all(np.isfinite(float(cell)) for cell in cells)
        for line in comments:
            if line.startswith("# summary: "):
                json.loads(line[len("# summary: "):], parse_constant=_reject_constant)
        if argv[0] == "sweep-pathloss":
            assert float(rows[0][1]) == pytest.approx(-6546.55209, abs=1e-5)

    SCENARIO = ["scenario", "--env", "urban", "--n-users", "200", "--n-draws", "2"]

    @pytest.mark.parametrize("argv, flag", [
        (SCENARIO + ["--area-side", "1.7e308", "--uav-x", "0", "--uav-y", "0"], "--area-side"),
        (SCENARIO + ["--uav-x=-1.7e308"], "--uav-x"),
        (SCENARIO + ["--uav-y", "1.7e308"], "--uav-y"),
        (SCENARIO + ["--uav-h", "1.7e308"], "--uav-h"),
        (["coverage-radius", "--env", "urban", "--h", "1.7e308", "--r-max", "1.7e308",
          "--resolution", "1e306"], "--h"),
        (["coverage-radius", "--env", "urban", "--r-max", "1.7e308", "--resolution", "1e306"],
         "--r-max"),
        (["optimize-altitude", "--env", "urban", "--r-edge", "1.7e308"], "--r-edge"),
        (["optimize-altitude", "--env", "urban", "--h-min", "1e308", "--h-max", "1.7e308"],
         "--h-min"),
        (["optimize-altitude", "--env", "urban", "--h-max", "1.7e308"], "--h-max"),
        (["sweep-pathloss", "--env", "urban", "--h", "1.7e308"], "--h"),
        (["sweep-coverage", "--env", "urban", "--axis", "altitude", "--r0", "1.7e308"], "--r0"),
        (["sweep-pathloss", "--env", "urban", "--start", "0", "--stop", "1.7e308", "--step",
          "1e308"], "--stop"),
        (["sweep-plos", "--env", "urban", "--start", "1e-305", "--stop", "1", "--step", "1"],
         "--start"),
    ], ids=["area-side", "uav-x", "uav-y", "uav-h", "radius-h", "r-max", "r-edge", "h-min",
            "h-max", "sweep-h", "sweep-r0", "sweep-stop", "shallow-angle"])
    def test_lengths_past_the_bound_exit_2(self, tmp_path, capsys, argv, flag):
        # lengths past channel.MAX_LENGTH_M; some would take np.hypot or h / tan(theta) to inf
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"error: {flag}: " in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field, flag", [("g_db", "--g-db"), ("p_min_dbm", "--p-min")])
    def test_radio_db_fields_bounded(self, tmp_path, capsys, field, flag):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"radio": {field: 3000.5}}), encoding="utf-8")
        assert run_cli(["sweep-plos", "--env", "urban", "--config", cfg]) == 2
        assert f"error: {flag}: " in capsys.readouterr().err

    def test_null_environments_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"environments": null}', encoding="utf-8")
        assert run_cli(["sweep-plos", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "error: --config: " in err and "Traceback" not in err
