"""Pinned argument resolution: what ``cli.parse_args`` makes of every option of every command.

Each case sets one option, by its flag or by its config-file key, and pins the
whole resolved ``RunConfig`` as canonical JSON, so an int that turns into a
float or a default that moves shows up as a changed string. The expected values
in ``parse_args_pins.json`` were frozen from the CLI before its options were
declared in one table. A deliberate change of resolution re-freezes them in
the open: ``PYTHONPATH=src python3 tests/test_parse_args.py`` prints the
current values.
"""

import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from uavcov import cli
from uavcov.reporting import format_number

PINS = Path(__file__).with_name("parse_args_pins.json")

# (flag, flag value, config "section.key" or None, config value); values differ
# from the defaults so that every case moves its option
RADIO = [
    ("--f-c", "2.4e9", "radio.f_c_hz", 2400000000),
    ("--p-tx", "33", "radio.p_tx_dbm", 33),
    ("--g-db", "1.5", "radio.g_db", 1.5),
    ("--p-min", "-72.5", "radio.p_min_dbm", -72.5),
    ("--noise-density", "-170", "radio.noise_density_dbm_hz", -170),
    ("--bandwidth", "1e7", "radio.bandwidth_hz", 1e7),
    ("--sigma-los", "4.5", None, None),
    ("--sigma-nlos", "9.5", None, None),
    ("--env", "suburban", None, None),
]
SWEEP = [
    ("--axis", "altitude", "sweep.axis", "altitude"),
    ("--start", "25", "sweep.start", 25),
    ("--stop", "400", "sweep.stop", 400.5),
    ("--step", "2.5", "sweep.step", 2.5),
    ("--h", "150", "geometry.h_m", 140),
    ("--r0", "250", "geometry.r0_m", 260.5),
    ("--mode", "paper-literal", "sweep.mode", "paper-literal"),
    ("--seed", "4", "sweep.seed", 6),
]
OPTIONS = {
    "sweep-plos": RADIO + SWEEP,
    "sweep-pathloss": RADIO + SWEEP,
    "sweep-coverage": RADIO + SWEEP + [("--mc-samples", "50", "sweep.mc_samples", 70)],
    "optimize-altitude": RADIO + [
        ("--r-edge", "450", None, None),
        ("--h-min", "60", None, None),
        ("--h-max", "1500", None, None),
        ("--steps", "300", None, None),
        ("--mode", "paper-literal", None, None),
        ("--seed", "4", None, None),
    ],
    "coverage-radius": RADIO + [
        ("--h", "150", "geometry.h_m", 140),
        ("--target", "0.75", None, None),
        ("--r-max", "1200", None, None),
        ("--resolution", "2.5", None, None),
        ("--mode", "paper-literal", None, None),
        ("--seed", "4", None, None),
    ],
    "scenario": RADIO + [
        ("--n-users", "17", "scenario.n_users", 23),
        ("--n-draws", "5", "scenario.n_draws", 7),
        ("--area-side", "800", "scenario.area_side_m", 900),
        ("--area-shape", "disk", "scenario.area_shape", "disk"),
        ("--uav-x", "120", "scenario.uav_x_m", 130),
        ("--uav-y", "-40", "scenario.uav_y_m", -50.5),
        ("--uav-h", "150", "scenario.uav_h_m", 140),
        ("--mode", "paper-literal", "scenario.mode", "paper-literal"),
        ("--seed", "4", "scenario.seed", 6),
    ],
}


def _cases():
    # case id -> (argv, config or None)
    cases = {"show-envs": (["show-envs"], None)}
    for command, options in OPTIONS.items():
        cases[f"{command}/defaults"] = ([command], None)
        # a scenario takes exactly one environment
        env = "high-rise-urban" if command == "scenario" else "all"
        cases[f"{command}/env-mode-seed"] = (
            [command, "--env", env, "--mode", "paper-literal", "--seed", "4"], None)
        # one environment keeps the pins short; the defaults case pins the default list
        base = [command, "--env", "urban"]
        for flag, flag_value, config_key, config_value in options:
            argv = [command] if flag == "--env" else base
            cases[f"{command}/{flag}"] = (argv + [f"{flag}={flag_value}"], None)
            if config_key is not None:
                section, key = config_key.split(".")
                cases[f"{command}/{config_key}"] = (base, {section: {key: config_value}})
    cases.update({
        "sweep-coverage/flag-beats-config": (
            ["sweep-coverage", "--h", "150", "--step=10", "--seed", "2", "--p-tx", "30"],
            {"geometry": {"h_m": 140}, "sweep": {"step": 20, "seed": 9},
             "radio": {"p_tx_dbm": 20}}),
        "scenario/flag-beats-config": (
            ["scenario", "--n-users", "17", "--area-shape", "disk"],
            {"scenario": {"n_users": 23, "area_shape": "square"}}),
        "sweep-coverage/null-is-unset": (
            ["sweep-coverage"],
            {"radio": {"f_c_hz": None}, "geometry": {"h_m": None, "r0_m": None},
             "sweep": {"axis": None, "start": None, "mode": None, "seed": None,
                       "mc_samples": None}}),
        "scenario/null-is-unset": (
            ["scenario"], {"scenario": {"n_users": None, "uav_x_m": None, "area_shape": None}}),
        "coverage-radius/geometry-h": (["coverage-radius"], {"geometry": {"h_m": 175.5}}),
        "coverage-radius/flag-beats-geometry-h": (
            ["coverage-radius", "--h", "120"], {"geometry": {"h_m": 175.5}}),
        "sweep-coverage/axis-angle-grid": (["sweep-coverage", "--axis", "angle"], None),
        "sweep-plos/axis-from-config-grid": (["sweep-plos"], {"sweep": {"axis": "distance"}}),
        "sweep-plos/unread-key-ignored": (["sweep-plos"], {"sweep": {"mc_samples": 5}}),
        "optimize-altitude/unread-sections-ignored": (
            ["optimize-altitude"],
            {"geometry": {"h_m": 150}, "sweep": {"seed": 3, "mode": "paper-literal"},
             "scenario": {"seed": 3}}),
        "scenario/unread-sections-ignored": (
            ["scenario"], {"geometry": {"h_m": 150}, "sweep": {"seed": 3}}),
        "sweep-plos/environments-list": (["sweep-plos"],
                                         {"environments": ["urban", "High_Rise Urban"]}),
        "sweep-plos/environment-name": (["sweep-plos"], {"environment": "dense urban"}),
        "scenario/environment-object": (
            ["scenario", "--sigma-nlos", "7"],
            {"environment": {"name": "port", "a": 7, "b": 0.25, "mu_los_db": 0.4,
                             "mu_nlos_db": 18, "sigma_los_db": 2}}),
        "sweep-pathloss/env-repeated": (
            ["sweep-pathloss", "--env", "urban", "--env", "all"], None),
        "scenario/run-flags": (["scenario", "--out", "x.csv", "--plot", "--workers", "3"], None),
    })
    return cases


CASES = _cases()


def resolve(argv, config):
    """The canonical JSON of ``cli.parse_args`` on argv plus an optional config file."""
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "cfg.json")
            Path(path).write_text(json.dumps(config), encoding="utf-8")
            argv = argv + ["--config", path]
        run = cli.parse_args(argv)
    return json.dumps(dataclasses.asdict(run), sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text(encoding="utf-8"))


def test_every_case_is_pinned(pins):
    assert sorted(pins) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_parse_args_resolves_as_pinned(case, pins):
    assert resolve(*CASES[case]) == pins[case]


def test_config_sections_accept_the_same_keys():
    assert cli._CONFIG_SECTIONS == {
        "radio": {"f_c_hz", "p_tx_dbm", "g_db", "p_min_dbm", "noise_density_dbm_hz",
                  "bandwidth_hz"},
        "environment": None,
        "environments": None,
        "geometry": {"r0_m", "h_m"},
        "sweep": {"axis", "start", "stop", "step", "mode", "seed", "mc_samples"},
        "scenario": {"n_users", "area_side_m", "area_shape", "uav_x_m", "uav_y_m", "uav_h_m",
                     "n_draws", "seed", "mode"},
    }


def test_library_fields_name_the_same_flags():
    env = dict.fromkeys(("name", "a", "b", "mu_los_db", "mu_nlos_db"), "--env")
    expected = {
        **env, "sigma_los_db": "--sigma-los", "sigma_nlos_db": "--sigma-nlos",
        "f_c_hz": "--f-c", "p_tx_dbm": "--p-tx", "g_db": "--g-db", "p_min_dbm": "--p-min",
        "noise_density_dbm_hz": "--noise-density", "bandwidth_hz": "--bandwidth",
        "r0_m": "--r0", "h_m": "--h", "start": "--start", "stop": "--stop", "step": "--step",
        "r_edge": "--r-edge", "h_min": "--h-min", "h_max": "--h-max", "steps": "--steps",
        "h": "--h", "target": "--target", "r_max_scan": "--r-max", "resolution": "--resolution",
        "n_users": "--n-users", "n_draws": "--n-draws", "area_side_m": "--area-side",
        "uav_x_m": "--uav-x", "uav_y_m": "--uav-y", "uav_h_m": "--uav-h",
        "mc_samples": "--mc-samples",
    }
    assert {field: cli._FIELD_FLAGS.get(field) for field in expected} == expected


def test_readme_tables_give_each_option_its_config_key_and_default():
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").split("\n")
    for option in cli._OPTIONS:
        if option.key is None or option.default_by:  # run flags; defaults that follow the axis
            continue
        config = f"`{option.config}`" if option.config else "flag only"
        default = "area centre" if option.default is None else format_number(option.default)
        row_end = f"| {config} | {default} |"
        assert any(line.startswith(f"| `{option.flag}`") and line.endswith(row_end)
                   for line in lines), (option.flag, row_end)


if __name__ == "__main__":
    current = {case: resolve(*CASES[case]) for case in sorted(CASES)}
    sys.stdout.write(json.dumps(current, indent=1, sort_keys=True) + "\n")
