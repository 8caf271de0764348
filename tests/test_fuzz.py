"""Fuzzed argv and config files: the CLI exits 0-3, never with a traceback.

Every refusal with exit 2 names the flag at fault, and leaves no output file. Every
success writes a CSV whose uncommented lines have one column count, and a chart that
parses as XML.
Counts that only cost time (``--n-draws``, ``--mc-samples``) are drawn small,
so each example runs in milliseconds.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from xml.dom import minidom

from hypothesis import given, settings
from hypothesis import strategies as st

from uavcov import cli

FLOATS = ["-1.5", "0", "nan", "inf", "-inf", "1e300"]
INTS = ["-1", "0", "nan", "inf", str(10**20)]
SMALL_INTS = ["-1", "0", "nan", "3"]
JSON_VALUES = [-1.5, 0, math.nan, math.inf, -math.inf, 1e300, 10**20,
               "x", True, None, [1], {}]
SMALL_JSON_VALUES = [value for value in JSON_VALUES if value != 10**20]

RADIO = {"--f-c": FLOATS, "--p-tx": FLOATS, "--g-db": FLOATS, "--p-min": FLOATS,
         "--noise-density": FLOATS, "--bandwidth": FLOATS,
         "--sigma-los": FLOATS, "--sigma-nlos": FLOATS, "--seed": INTS}
SWEEP = {"--start": FLOATS, "--stop": FLOATS, "--step": FLOATS, "--h": FLOATS,
         "--r0": FLOATS, "--axis": ["angle", "distance", "altitude", "nope"]}

# command -> (fixed argv, fuzzed flags, config sections and keys it reads)
COMMANDS = {
    "sweep-plos": ([], {**RADIO, **SWEEP}, ["radio", "geometry", "sweep"]),
    "sweep-pathloss": ([], {**RADIO, **SWEEP}, ["radio", "geometry", "sweep"]),
    "sweep-coverage": (["--mc-samples", "5"], {**RADIO, **SWEEP, "--mc-samples": SMALL_INTS},
                       ["radio", "geometry", "sweep"]),
    "optimize-altitude": (["--steps", "50"],
                          {**RADIO, "--r-edge": FLOATS, "--h-min": FLOATS, "--h-max": FLOATS,
                           "--steps": INTS}, ["radio"]),
    "coverage-radius": ([], {**RADIO, "--h": FLOATS, "--target": FLOATS, "--r-max": FLOATS,
                             "--resolution": FLOATS}, ["radio", "geometry"]),
    "scenario": (["--n-users", "20", "--n-draws", "2"],
                 {**RADIO, "--n-users": INTS, "--n-draws": SMALL_INTS, "--area-side": FLOATS,
                  "--uav-x": FLOATS, "--uav-y": FLOATS, "--uav-h": FLOATS},
                 ["radio", "scenario"]),
}
CONFIG_KEYS = {section: sorted(keys) for section, keys in cli._CONFIG_SECTIONS.items()
               if keys is not None}
# keys whose large values cost only time
SMALL_KEYS = {"n_draws", "mc_samples"}
# a line break or a comma would split a CSV line or cell; markup would break the chart
ENV_NAMES = ["fuzz", "a\nb", "a,b", "a\tb", "a&b <c>"]


def run_main(argv, config=None, plot=False):
    """Run the CLI in process; return (exit code, stderr, {output file name: text})."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        argv = list(argv) + ["--out", out] + (["--plot"] if plot else [])
        if config is not None:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(config, handle)
            argv += ["--config", path]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        written = {}
        for name in set(os.listdir(tmp)) - {"cfg.json"}:
            with open(os.path.join(tmp, name), encoding="utf-8", newline="") as handle:
                written[name] = handle.read()
        return code, err.getvalue(), written


def check(code, err, written):
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
    if code == 2:
        assert re.search(r"^uavcov: error: --[a-z][a-z0-9-]*: ", err, re.MULTILINE), err
        assert not written, err
    if code == 0:
        lines = written["out.csv"].split("\n")
        assert len({line.count(",") for line in lines[:-1] if not line.startswith("#")}) == 1
        if "out.svg" in written:
            minidom.parseString(written["out.svg"])


@st.composite
def flag_argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    fixed, flags, _ = COMMANDS[command]
    names = draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=3,
                          unique=True))
    # --flag=value, so that argparse does not read "-1.5" as a flag
    argv = [command, "--env", "urban", *fixed]
    argv += [f"{name}={draw(st.sampled_from(flags[name]))}" for name in names]
    return argv + ["--workers", str(draw(st.integers(1, 4)))]


@st.composite
def config_case(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    fixed, _, sections = COMMANDS[command]
    config = {}
    for section in draw(st.lists(st.sampled_from(sections), min_size=1, unique=True)):
        key = draw(st.sampled_from(CONFIG_KEYS[section]))
        values = SMALL_JSON_VALUES if key in SMALL_KEYS else JSON_VALUES
        config[section] = {key: draw(st.sampled_from(values))}
    if draw(st.booleans()):
        env = {"name": "fuzz", "a": 9.6, "b": 0.16, "mu_los_db": 1.0, "mu_nlos_db": 20.0}
        key = draw(st.sampled_from(cli._ENV_KEYS))
        env[key] = draw(st.sampled_from(ENV_NAMES if key == "name" else JSON_VALUES))
        config["environment"] = env
    argv = [command, *fixed, "--workers", str(draw(st.integers(1, 4)))]
    if "environment" not in config:
        argv += ["--env", "urban"]
    return argv, config


@given(argv=flag_argv(), plot=st.booleans())
@settings(deadline=None, max_examples=150, derandomize=True)
def test_fuzzed_flags_exit_cleanly(argv, plot):
    check(*run_main(argv, plot=plot))


@given(case=config_case(), plot=st.booleans())
@settings(deadline=None, max_examples=150, derandomize=True)
def test_fuzzed_config_files_exit_cleanly(case, plot):
    argv, config = case
    check(*run_main(argv, config=config, plot=plot))
