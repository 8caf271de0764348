"""Command-line front end: sweeps, planners, scenario runs, environment listing.

Exit codes: 0 success, 1 usage error, 2 semantically invalid value, 3 I/O
failure. Flag values override config-file values, which override defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channel import BUILTIN_ENVIRONMENTS, EnvironmentProfile, LinkGeometry, builtin_environment
from .coverage import MAX_DRAWS, FormulationMode, RadioConfig, coverage_monte_carlo
from .errors import InputError, check_in
from .planner import (
    AXIS_ALTITUDE,
    AXIS_DISTANCE,
    AXIS_ELEVATION,
    DEFAULT_ALTITUDE_SWEEP,
    DEFAULT_ANGLE_SWEEP,
    DEFAULT_DISTANCE_SWEEP,
    SweepSpec,
    _map_on_pool,
    max_coverage_radius,
    optimal_altitude,
    run_sweep,
    sweep_grid,
)
# render_csv is bound here, unused, so that a wrapper set on this module sees any call
from .reporting import (OutputTable, _BodyPrefetch, _csv_chunks, emit_table, format_number,
                        render_csv)
from .scenario import AREA_SHAPES, ScenarioSpec, evaluate_scenario

# glibc maps an allocation above its mmap threshold (128 KiB at start) and unmaps it on
# free; freeing a larger mapped block raises the threshold, and the heap's trim threshold
# with it, to that block's size. So this 4 MiB array, freed untouched, keeps the 128 KiB
# temporaries of the planners' runs and the scenario's link blocks on the heap (see
# planner._RUN_BLOCKS and scenario._BLOCK) and adds no resident memory.
# The CLI owns the process, so it, not the library, sets the allocator's state
np.empty(1 << 19)

SWEEP_COMMANDS = ("sweep-plos", "sweep-pathloss", "sweep-coverage")
_RUN_COMMANDS = SWEEP_COMMANDS + ("optimize-altitude", "coverage-radius", "scenario")
COMMANDS = _RUN_COMMANDS + ("show-envs",)

_AXIS_TO_PLANNER = {"angle": AXIS_ELEVATION, "distance": AXIS_DISTANCE, "altitude": AXIS_ALTITUDE}
_AXIS_GRID = {
    "angle": DEFAULT_ANGLE_SWEEP,
    "distance": DEFAULT_DISTANCE_SWEEP,
    "altitude": DEFAULT_ALTITUDE_SWEEP,
}
_AXIS_COLUMN = {"angle": "angle_deg", "distance": "distance_m", "altitude": "altitude_m"}
_DEFAULT_AXIS = {"sweep-plos": "angle", "sweep-pathloss": "distance", "sweep-coverage": "distance"}
_SWEEP_METRIC = {"sweep-plos": "p_los", "sweep-pathloss": "mean_pl_db", "sweep-coverage": "p_cov"}

_ENV_KEYS = tuple(f.name for f in fields(EnvironmentProfile))
# the defaults that the library's dataclasses declare
_ENV_DEFAULTS, _RADIO_DEFAULTS, _SCENARIO_DEFAULTS = (
    {f.name: f.default for f in fields(cls) if f.default is not MISSING}
    for cls in (EnvironmentProfile, RadioConfig, ScenarioSpec))
_MODES = tuple(m.value for m in FormulationMode)


class _Option(NamedTuple):
    """One command-line option: the parser, the config schema and the resolution read it."""

    flag: str
    key: str | None  # params key, "radio.<key>" inside params["radio"]; None: no param
    kind: object  # float, int or a tuple of choices; str, bool or list: a flag-only option
    default: object  # a value, or with default_by a mapping keyed by params[default_by]
    help: str
    config: str | None = None  # the "section.key" of a config file that may set it
    field: str | None = None  # the library error field, where it is not the key's last part
    default_by: str | None = None
    # refused when parsed, even on a command that draws nothing (the library refuses a
    # negative seed only where it draws); --mc-samples 0 turns the Monte Carlo columns off
    non_negative: bool = False
    commands: tuple = _RUN_COMMANDS

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


def _for(commands: tuple, *options: _Option) -> tuple[_Option, ...]:
    return tuple(option._replace(commands=commands) for option in options)


def _radio(flag: str, key: str, help_text: str) -> _Option:
    return _Option(flag, f"radio.{key}", float, _RADIO_DEFAULTS[key], help_text, f"radio.{key}")


def _scenario(flag: str, key: str, kind, help_text: str, default=None) -> _Option:
    return _Option(flag, key, kind, _SCENARIO_DEFAULTS.get(key, default), help_text,
                   f"scenario.{key}", commands=("scenario",))


def _per_section(option: _Option) -> tuple[_Option, ...]:
    # a sweep reads it from section "sweep", a scenario from "scenario", a planner not at all
    return (*_for(SWEEP_COMMANDS, option._replace(config=f"sweep.{option.key}")),
            *_for(("optimize-altitude", "coverage-radius"), option),
            *_for(("scenario",), option._replace(config=f"scenario.{option.key}")))


# every command's UAV altitude defaults to the scenario's
_UAV_H_M = _SCENARIO_DEFAULTS["uav_h_m"]
# optimize-altitude searches the grid of the default altitude sweep
_H_MIN, _H_MAX, _H_STEP = DEFAULT_ALTITUDE_SWEEP
_STARTS, _STOPS, _STEPS = ({axis: grid[i] for axis, grid in _AXIS_GRID.items()} for i in range(3))

# each option once, in the order the parser lists them and values are resolved
_OPTIONS = (
    _Option("--config", None, str, None, "JSON config file"),
    _Option("--out", None, str, None, "output CSV path (default: stdout)"),
    _Option("--plot", None, bool, False, "also write an SVG chart beside the CSV"),
    _Option("--workers", None, int, 1, "worker threads; results do not depend on it"),
    _Option("--env", None, list, None,
            "environment name, repeatable; 'all' selects every built-in", field="environments"),
    _Option("--sigma-los", None, float, None, "override LoS shadowing deviation, dB",
            field="sigma_los_db"),
    _Option("--sigma-nlos", None, float, None, "override NLoS shadowing deviation, dB",
            field="sigma_nlos_db"),
    _radio("--f-c", "f_c_hz", "carrier frequency, Hz"),
    _radio("--p-tx", "p_tx_dbm", "transmit power, dBm"),
    _radio("--g-db", "g_db", "antenna gain, dB"),
    _radio("--p-min", "p_min_dbm", "receiver threshold, dBm"),
    _radio("--noise-density", "noise_density_dbm_hz", "noise density, dBm/Hz"),
    _radio("--bandwidth", "bandwidth_hz", "channel bandwidth, Hz"),
    *_for(SWEEP_COMMANDS,
          _Option("--axis", "axis", tuple(_AXIS_GRID), _DEFAULT_AXIS, "sweep axis", "sweep.axis",
                  default_by="command"),
          # start, stop and step default to the grid of the resolved axis
          _Option("--start", "start", float, _STARTS, "grid start", "sweep.start",
                  default_by="axis"),
          _Option("--stop", "stop", float, _STOPS, "grid stop", "sweep.stop", default_by="axis"),
          _Option("--step", "step", float, _STEPS, "grid step", "sweep.step", default_by="axis"),
          _Option("--h", "baseline_h_m", float, _UAV_H_M, "baseline UAV altitude, m",
                  "geometry.h_m", "h_m"),
          _Option("--r0", "baseline_r0_m", float, 200.0, "baseline ground distance, m",
                  "geometry.r0_m", "r0_m")),
    *_for(("optimize-altitude",),
          _Option("--r-edge", "r_edge_m", float, 500.0, "served edge distance, m", None, "r_edge"),
          _Option("--h-min", "h_min_m", float, _H_MIN, "lowest altitude, m", None, "h_min"),
          _Option("--h-max", "h_max_m", float, _H_MAX, "highest altitude, m", None, "h_max"),
          _Option("--steps", "steps", int, round((_H_MAX - _H_MIN) / _H_STEP) + 1, "grid points")),
    *_for(("coverage-radius",),
          _Option("--h", "h_m", float, _UAV_H_M, "UAV altitude, m", "geometry.h_m", "h"),
          _Option("--target", "target", float, 0.9, "coverage target in (0,1)"),
          _Option("--r-max", "r_max_m", float, 2000.0, "scan limit, m", None, "r_max_scan"),
          _Option("--resolution", "resolution_m", float, 5.0, "scan step, m", None, "resolution")),
    _scenario("--n-users", "n_users", int, "user count", 1000),
    _scenario("--n-draws", "n_draws", int, "shadowing draws"),
    _scenario("--area-side", "area_side_m", float, "area side, m"),
    _scenario("--area-shape", "area_shape", AREA_SHAPES, "service area shape"),
    _scenario("--uav-h", "uav_h_m", float, "UAV altitude, m"),
    _scenario("--uav-x", "uav_x_m", float, "UAV x, m (default: area centre)"),
    _scenario("--uav-y", "uav_y_m", float, "UAV y, m (default: area centre)"),
    *_per_section(_Option("--mode", "mode", _MODES, FormulationMode.STANDARD.value,
                          "coverage formulation")),
    *_per_section(_Option("--seed", "seed", int, 0, "seed for stochastic draws",
                          non_negative=True)),
    _Option("--mc-samples", "mc_samples", int, 0,
            "add Monte Carlo columns with this many draws per point", "sweep.mc_samples",
            non_negative=True, commands=("sweep-coverage",)),
)
# field named by a library error -> the flag that sets it; an environment
# field without a flag of its own is set through --env
_FIELD_FLAGS = {**dict.fromkeys(_ENV_KEYS, "--env"),
                **{option.field or option.key.rpartition(".")[2]: option.flag
                   for option in _OPTIONS if option.field or option.key}}


def _config_sections() -> dict:
    # an environment is a name, an object or a list of them, checked by _resolve_environments
    sections = dict.fromkeys(("environment", "environments"))
    for section, _, key in (option.config.partition(".") for option in _OPTIONS if option.config):
        sections.setdefault(section, set()).add(key)
    return sections


_CONFIG_SECTIONS = _config_sections()


@dataclass
class RunConfig:
    """One fully resolved command invocation; ``params`` is JSON-canonical."""

    command: str
    params: dict
    out: str | None = None
    plot: bool = False
    workers: int = 1


def _fail(flag: str, message: str):
    print(f"uavcov: error: {flag}: {message}", file=sys.stderr)
    raise SystemExit(2)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; semantic validation elsewhere exits 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# argparse keywords per kind; any other kind is a tuple of choices
_ARGPARSE_KIND = {float: {"type": float}, int: {"type": int}, str: {},
                  bool: {"action": "store_true"}, list: {"action": "append"}}


def _help(option: _Option, command: str) -> str:
    # of the defaults that follow another option, only those keyed by the command are known
    default = option.default.get(command) if option.default_by else option.default
    if default is None or default is False:
        return option.help
    return f"{option.help} (default {format_number(default)})"


def build_parser() -> _Parser:
    parser = _Parser(prog="uavcov",
                     description="UAV-to-ground coverage modelling for disaster deployments")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (help_text, _) in _COMMAND_TABLE.items():
        sub = subs.add_parser(command, help=help_text)
        for option in _OPTIONS:
            if command in option.commands:
                # a parameter's flag left unset falls through to the config file
                sub.add_argument(option.flag, help=_help(option, command),
                                 default=None if option.key else option.default,
                                 **_ARGPARSE_KIND.get(option.kind, {"choices": option.kind}))
    return parser


def _as_kind(flag: str, value, kind):
    # config-file values arrive as any JSON type; flags arrive already typed
    if isinstance(kind, tuple):
        if not isinstance(value, str) or value not in kind:
            _fail(flag, f"must be one of {', '.join(kind)}; got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        _fail(flag, f"must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # a JSON integer past the largest double
        _fail(flag, f"must be a number within the range of a double, got an integer of "
                    f"{len(str(abs(value)))} digits")


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        _fail("--config", f"cannot read {path}: {exc}")
    except ValueError as exc:  # not UTF-8, not JSON, or an integer of too many digits
        _fail("--config", f"invalid JSON in {path}: {exc}")
    if not isinstance(raw, dict):
        _fail("--config", "top level must be a JSON object")
    for key, value in raw.items():
        if key not in _CONFIG_SECTIONS:
            _fail("--config", f"unknown key {key!r}")
        allowed = _CONFIG_SECTIONS[key]
        if allowed is not None:
            if not isinstance(value, dict):
                _fail("--config", f"{key!r} must be an object")
            for sub_key in value:
                if sub_key not in allowed:
                    _fail("--config", f"unknown key {f'{key}.{sub_key}'!r}")
    if "environment" in raw and "environments" in raw:
        _fail("--config", "give either 'environment' or 'environments', not both")
    return raw


def _env_dict_from_name(name: str) -> dict:
    try:
        env = builtin_environment(name)
    except KeyError as exc:
        _fail("--env", exc.args[0])  # str() of a KeyError quotes its message
    return asdict(env)


def _env_dict_from_object(obj: dict) -> dict:
    for key in obj:
        if key not in _ENV_KEYS:
            _fail("--config", f"unknown environment key {key!r}")
    missing = [key for key in _ENV_KEYS if key not in obj and key not in _ENV_DEFAULTS]
    if missing:
        _fail("--config", f"environment object missing keys: {', '.join(missing)}")
    if not isinstance(obj["name"], str):
        _fail("--config", f"environment name must be a string, got {obj['name']!r}")
    return {key: obj.get(key, _ENV_DEFAULTS.get(key)) for key in _ENV_KEYS}


def _resolve_environments(ns, file_cfg: dict, command: str) -> list[dict]:
    if ns.env:
        envs = [_env_dict_from_name(name) for item in ns.env
                for name in (BUILTIN_ENVIRONMENTS if item == "all" else (item,))]
    elif "environment" in file_cfg or "environments" in file_cfg:
        items = (file_cfg["environments"] if "environments" in file_cfg
                 else [file_cfg["environment"]])
        if not isinstance(items, list):
            _fail("--config", "'environments' must be a list")
        if not all(isinstance(item, (str, dict)) for item in items):
            _fail("--config", "each environment must be a name or an object")
        envs = [
            _env_dict_from_name(item) if isinstance(item, str) else _env_dict_from_object(item)
            for item in items
        ]
    elif command == "scenario":
        envs = [_env_dict_from_name("urban")]
    else:
        envs = [_env_dict_from_name(name) for name in BUILTIN_ENVIRONMENTS]

    # the flags that override one field of every environment
    overrides = {option.field: getattr(ns, option.dest) for option in _OPTIONS
                 if option.field in _ENV_KEYS and getattr(ns, option.dest) is not None}
    for env in envs:
        env.update(overrides)
        for key in _ENV_KEYS[1:]:
            env[key] = _as_kind(f"--config: environment {key!r}", env[key], float)
    return envs


def _resolve(option: _Option, ns, file_cfg: dict, params: dict):
    # an option without a config key reads section "", which no config file has
    section, _, key = (option.config or "").partition(".")
    default = option.default[params[option.default_by]] if option.default_by else option.default
    # the flag, else the config file, else the default; JSON null leaves a value unset
    for value in (getattr(ns, option.dest), file_cfg.get(section, {}).get(key), default):
        if value is not None:
            break
    else:  # an option whose default is None stays unset
        return None
    value = _as_kind(option.flag, value, option.kind)
    if option.non_negative and value < 0:
        _fail(option.flag, f"must be a non-negative integer, got {value}")
    return value


def parse_args(argv=None) -> RunConfig:
    """Resolve argv (plus any config file) into a canonical RunConfig.

    Raises SystemExit(1) for usage errors and SystemExit(2) for values the
    library cannot even be handed (wrong JSON type, bad config structure); the
    offending flag is named. Range checks are the library's, at execute time.
    """
    ns = build_parser().parse_args(argv)
    command = ns.command

    if command == "show-envs":
        return RunConfig(command=command, params={"command": command})

    file_cfg = _load_config_file(ns.config) if ns.config else {}
    if ns.plot and not ns.out:
        _fail("--plot", "requires --out")
    if ns.workers < 1:
        _fail("--workers", f"must be >= 1, got {ns.workers}")

    params: dict = {"command": command,
                    "environments": _resolve_environments(ns, file_cfg, command)}
    for option in _OPTIONS:
        if option.key and command in option.commands:
            section, _, key = option.key.rpartition(".")
            target = params.setdefault(section, {}) if section else params
            target[key] = _resolve(option, ns, file_cfg, params)
    return RunConfig(command=command, params=params, out=ns.out, plot=ns.plot,
                     workers=ns.workers)


def config_from_params(params: dict, out=None, plot=False, workers=1) -> RunConfig:
    """Rebuild a RunConfig from the metadata block of an emitted CSV."""
    return RunConfig(command=params["command"], params=params, out=out, plot=plot,
                     workers=workers)


def _sweep_table(config: RunConfig, envs: list, radio: RadioConfig) -> OutputTable:
    params = config.params
    spec = SweepSpec(
        axis=_AXIS_TO_PLANNER[params["axis"]],
        start=params["start"], stop=params["stop"], step=params["step"],
        environments=envs,
        baseline=LinkGeometry(params["baseline_r0_m"], params["baseline_h_m"]),
        radio=radio,
        mode=params["mode"],
    )
    mc_samples = params.get("mc_samples", 0)
    if mc_samples:  # the draw cap is checked before any point is evaluated
        values, grid_r0, grid_h = sweep_grid(spec)
        n_rows = len(values)
        n_cells = len(envs) * n_rows
        check_in(mc_samples, 1, MAX_DRAWS // n_cells, "mc_samples",
                 f"Monte Carlo samples per point over {n_cells} cells", kind=int)
    result = run_sweep(spec)
    metric = _SWEEP_METRIC[config.command]
    header = [_AXIS_COLUMN[params["axis"]]] + [f"{metric}[{name}]"
                                               for name in result.environment_names]
    columns = [result.axis_values, *getattr(result, metric)]

    notes = []
    if params["axis"] == "angle":
        notes.append(
            "angle sweep holds the baseline altitude fixed and derives the ground "
            "distance as r0 = h / tan(theta); theta = 90 deg maps to r0 = 0"
        )

    if mc_samples:
        def estimate(cell: int):
            j, i = divmod(cell, n_rows)  # environment j, row i
            # a global looked up per call, so a wrapper set on this module sees every cell
            return coverage_monte_carlo(
                LinkGeometry(float(grid_r0[i]), float(grid_h[i])), envs[j], radio,
                n_samples=mc_samples, seed=params["seed"] + 1_000_003 * cell,
            )

        estimates = _map_on_pool(estimate, range(n_cells), config.workers)
        pairs = np.array([(mc.estimate, mc.std_error) for mc in estimates])
        for name, rows in zip(result.environment_names, pairs.reshape(-1, n_rows, 2)):
            header += [f"p_cov_mc[{name}]", f"mc_stderr[{name}]"]
            columns += list(rows.T)
        notes.append(
            f"Monte Carlo columns use {mc_samples} draws per point; per-point seeds "
            "derive from the base seed, the environment index, and the row index"
        )

    return OutputTable(header=header, columns=columns,
                       metadata={"params": params, "notes": notes})


def _optimize_table(config: RunConfig, envs: list, radio: RadioConfig) -> OutputTable:
    params = config.params
    best = optimal_altitude(params["r_edge_m"], envs, radio, h_min=params["h_min_m"],
                            h_max=params["h_max_m"], steps=params["steps"], mode=params["mode"],
                            workers=config.workers)
    return OutputTable(
        header=["environment", "h_star_m", "p_cov_star"],
        columns=[np.array([env.name for env in envs], dtype=str),
                 np.array([b.h_star_m for b in best], dtype=float),
                 np.array([b.p_cov_star for b in best], dtype=float)],
        metadata={"params": params,
                  "notes": ["altitude grid search; ties break toward the lowest altitude"]},
    )


def _radius_table(config: RunConfig, envs: list, radio: RadioConfig) -> OutputTable:
    params = config.params
    radii = max_coverage_radius(params["h_m"], envs, radio, target=params["target"],
                                r_max_scan=params["r_max_m"], resolution=params["resolution_m"],
                                mode=params["mode"], workers=config.workers)
    return OutputTable(
        header=["environment", "max_radius_m"],
        columns=[np.array([env.name for env in envs], dtype=str), np.array(radii, dtype=float)],
        metadata={"params": params},
    )


def _scenario_table(config: RunConfig, envs: list, radio: RadioConfig) -> OutputTable:
    params = config.params
    # checked here, so a replayed config is refused as the command line is
    if len(envs) != 1:
        raise InputError(f"scenario takes exactly one environment, got {len(envs)}",
                         field="environments")
    spec = ScenarioSpec(env=envs[0], radio=radio,
                        **{f.name: params[f.name] for f in fields(ScenarioSpec)
                           if f.name not in ("env", "radio")})
    # the CSV body is formatted while the shadowing waits for its normals; the summary
    # line that comes before it needs the shadowing's result
    body = _BodyPrefetch()
    result = evaluate_scenario(spec, workers=config.workers,
                               idle=lambda records: body.steps(list(records.columns.values())))
    # the per-user columns, in CSV column order
    columns = result.records.columns
    return OutputTable(header=list(columns), columns=list(columns.values()),
                       metadata={"params": params, "summary": asdict(result.summary)},
                       prefetch=body)


def _env_listing() -> str:
    table = [_ENV_KEYS]
    for env in BUILTIN_ENVIRONMENTS.values():
        table.append(tuple(format_number(value) for value in asdict(env).values()))
    widths = [max(len(row[i]) for row in table) for i in range(len(_ENV_KEYS))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in table]
    lines.append("")
    lines.append("sigma columns are library defaults, not part of the environment parameter "
                 "table; override with --sigma-los / --sigma-nlos.")
    return "\n".join(lines)


# each command's help line and the builder of its table; show-envs prints text
_COMMAND_TABLE = {
    **{command: (f"{metric} sweep", _sweep_table) for command, metric in _SWEEP_METRIC.items()},
    "optimize-altitude": ("grid-search the best UAV altitude", _optimize_table),
    "coverage-radius": ("largest served radius meeting a target", _radius_table),
    "scenario": ("populate an area and evaluate every user", _scenario_table),
    "show-envs": ("print the built-in environment parameters", None),
}


def execute(config: RunConfig) -> OutputTable | str:
    """Run a resolved command; tables are returned, show-envs yields text.

    A run command's model inputs are built here, the environments first and the radio
    second, so every command refuses them in one order.
    """
    if config.command not in _COMMAND_TABLE:
        raise ValueError(f"unknown command {config.command!r}")
    _, build = _COMMAND_TABLE[config.command]
    if build is None:
        return _env_listing()
    envs = [EnvironmentProfile(**env) for env in config.params["environments"]]
    return build(config, envs, RadioConfig(**config.params["radio"]))


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        result = execute(config)
    except ValueError as exc:
        flag = _FIELD_FLAGS.get(getattr(exc, "field", None))
        print(f"uavcov: error: {flag + ': ' if flag else ''}{exc}", file=sys.stderr)
        return 2
    if isinstance(result, str):
        print(result)
        return 0
    if config.out is None:
        try:
            for chunk in _csv_chunks(result):
                sys.stdout.write(chunk)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader stopped early (``| head``), which is not an error of this run;
            # stdout goes to devnull so that the flush at exit does not raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 0
    try:
        emit_table(result, config.out, plot=config.plot)
    except OSError as exc:
        print(f"uavcov: error: cannot write {config.out}: {exc}", file=sys.stderr)
        return 3
    return 0


def console_main() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
