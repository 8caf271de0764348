"""Command-line front end: sweeps, planners, scenario runs, environment listing.

Exit codes: 0 success, 1 usage error, 2 semantically invalid value, 3 I/O
failure. Flag values override config-file values, which override defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .channel import BUILTIN_ENVIRONMENTS, EnvironmentProfile, LinkGeometry, builtin_environment
from .coverage import FormulationMode, RadioConfig, coverage_monte_carlo
from .errors import InvalidSpecError
from .planner import (
    AXIS_ALTITUDE,
    AXIS_DISTANCE,
    AXIS_ELEVATION,
    DEFAULT_ALTITUDE_SWEEP,
    DEFAULT_ANGLE_SWEEP,
    DEFAULT_DISTANCE_SWEEP,
    SweepSpec,
    max_coverage_radius,
    optimal_altitude,
    run_sweep,
    sweep_grid,
)
from .reporting import OutputTable, emit_table, format_number, render_csv
from .scenario import AREA_SHAPES, ScenarioSpec, evaluate_scenario

SWEEP_COMMANDS = ("sweep-plos", "sweep-pathloss", "sweep-coverage")
COMMANDS = SWEEP_COMMANDS + ("optimize-altitude", "coverage-radius", "scenario", "show-envs")

_AXIS_TO_PLANNER = {"angle": AXIS_ELEVATION, "distance": AXIS_DISTANCE, "altitude": AXIS_ALTITUDE}
_AXIS_GRID = {
    "angle": DEFAULT_ANGLE_SWEEP,
    "distance": DEFAULT_DISTANCE_SWEEP,
    "altitude": DEFAULT_ALTITUDE_SWEEP,
}
_AXIS_COLUMN = {"angle": "angle_deg", "distance": "distance_m", "altitude": "altitude_m"}
_DEFAULT_AXIS = {"sweep-plos": "angle", "sweep-pathloss": "distance", "sweep-coverage": "distance"}
_SWEEP_METRIC = {"sweep-plos": "p_los", "sweep-pathloss": "mean_pl_db", "sweep-coverage": "p_cov"}
# the most Monte Carlo draws of one sweep, checked before any cell is drawn; at the
# ~26 ns per draw measured with two worker threads (2 vCPU) a run at the cap takes ~110 s
MAX_MC_DRAWS = 1 << 32

_RADIO_FLAGS = {
    "f_c_hz": ("--f-c", "carrier frequency, Hz"),
    "p_tx_dbm": ("--p-tx", "transmit power, dBm"),
    "g_db": ("--g-db", "antenna gain, dB"),
    "p_min_dbm": ("--p-min", "receiver threshold, dBm"),
    "noise_density_dbm_hz": ("--noise-density", "noise density, dBm/Hz"),
    "bandwidth_hz": ("--bandwidth", "channel bandwidth, Hz"),
}
_RADIO_KEYS = tuple(_RADIO_FLAGS)
_MODES = tuple(m.value for m in FormulationMode)
_ENV_KEYS = ("name", "a", "b", "mu_los_db", "mu_nlos_db", "sigma_los_db", "sigma_nlos_db")
# field named by a library error -> the flag that sets it; an environment
# field without a flag of its own is set through --env
_FIELD_FLAGS = {
    **dict.fromkeys(_ENV_KEYS, "--env"),
    "sigma_los_db": "--sigma-los", "sigma_nlos_db": "--sigma-nlos",
    **{key: flag for key, (flag, _) in _RADIO_FLAGS.items()},
    # LinkGeometry and sweep_grid
    "r0_m": "--r0", "h_m": "--h", "start": "--start", "stop": "--stop", "step": "--step",
    # optimal_altitude
    "r_edge": "--r-edge", "h_min": "--h-min", "h_max": "--h-max", "steps": "--steps",
    # max_coverage_radius
    "h": "--h", "target": "--target", "r_max_scan": "--r-max", "resolution": "--resolution",
    # ScenarioSpec
    "n_users": "--n-users", "n_draws": "--n-draws", "area_side_m": "--area-side",
    "uav_x_m": "--uav-x", "uav_y_m": "--uav-y", "uav_h_m": "--uav-h",
    # the Monte Carlo draw cap of _sweep_table
    "mc_samples": "--mc-samples",
}

_CONFIG_SECTIONS = {
    "radio": set(_RADIO_KEYS),
    "environment": None,  # string or object, validated separately
    "environments": None,
    "geometry": {"r0_m", "h_m"},
    "sweep": {"axis", "start", "stop", "step", "mode", "seed", "mc_samples"},
    "scenario": {
        "n_users", "area_side_m", "area_shape", "uav_x_m", "uav_y_m", "uav_h_m",
        "n_draws", "seed", "mode",
    },
}


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


def _add_radio_flags(sub):
    for key, (flag, help_text) in _RADIO_FLAGS.items():
        sub.add_argument(flag, dest=key, type=float, help=help_text)


def _add_common_flags(sub):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--out", help="output CSV path (default: stdout)")
    sub.add_argument("--plot", action="store_true", help="also write an SVG chart beside the CSV")
    sub.add_argument("--workers", type=int, default=1,
                     help="worker threads; results do not depend on it")
    sub.add_argument("--mode", choices=_MODES,
                     help="coverage formulation (default standard)")
    sub.add_argument("--seed", type=int, help="seed for stochastic draws")
    sub.add_argument("--env", action="append",
                     help="environment name, repeatable; 'all' selects every built-in")
    sub.add_argument("--sigma-los", type=float, help="override LoS shadowing deviation, dB")
    sub.add_argument("--sigma-nlos", type=float, help="override NLoS shadowing deviation, dB")
    _add_radio_flags(sub)


def build_parser() -> _Parser:
    parser = _Parser(prog="uavcov",
                     description="UAV-to-ground coverage modelling for disaster deployments")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for command in SWEEP_COMMANDS:
        sub = subs.add_parser(command, help=f"{_SWEEP_METRIC[command]} sweep")
        _add_common_flags(sub)
        sub.add_argument("--axis", choices=["angle", "distance", "altitude"],
                         help=f"sweep axis (default {_DEFAULT_AXIS[command]})")
        sub.add_argument("--start", type=float, help="grid start")
        sub.add_argument("--stop", type=float, help="grid stop")
        sub.add_argument("--step", type=float, help="grid step")
        sub.add_argument("--h", type=float, help="baseline UAV altitude, m")
        sub.add_argument("--r0", type=float, help="baseline ground distance, m")
        if command == "sweep-coverage":
            sub.add_argument("--mc-samples", type=int,
                             help="add Monte Carlo columns with this many draws per point")

    sub = subs.add_parser("optimize-altitude", help="grid-search the best UAV altitude")
    _add_common_flags(sub)
    sub.add_argument("--r-edge", type=float, help="served edge distance, m (default 500)")
    sub.add_argument("--h-min", type=float, help="lowest altitude, m (default 50)")
    sub.add_argument("--h-max", type=float, help="highest altitude, m (default 2000)")
    sub.add_argument("--steps", type=int, help="grid points (default 1951)")

    sub = subs.add_parser("coverage-radius", help="largest served radius meeting a target")
    _add_common_flags(sub)
    sub.add_argument("--h", type=float, help="UAV altitude, m (default 100)")
    sub.add_argument("--target", type=float, help="coverage target in (0,1) (default 0.9)")
    sub.add_argument("--r-max", type=float, help="scan limit, m (default 2000)")
    sub.add_argument("--resolution", type=float, help="scan step, m (default 5)")

    sub = subs.add_parser("scenario", help="populate an area and evaluate every user")
    _add_common_flags(sub)
    sub.add_argument("--n-users", type=int, help="user count (default 1000)")
    sub.add_argument("--n-draws", type=int, help="shadowing draws (default 100)")
    sub.add_argument("--area-side", type=float, help="area side, m (default 1000)")
    sub.add_argument("--area-shape", choices=["square", "disk"], help="service area shape")
    sub.add_argument("--uav-x", type=float, help="UAV x, m (default: area centre)")
    sub.add_argument("--uav-y", type=float, help="UAV y, m (default: area centre)")
    sub.add_argument("--uav-h", type=float, help="UAV altitude, m (default 100)")

    subs.add_parser("show-envs", help="print the built-in environment parameters")
    return parser


def _pick(*candidates):
    for value in candidates:
        if value is not None:
            return value
    return None


# config-file values arrive as any JSON type; flags arrive already typed
def _as_int(flag: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(flag, f"must be an integer, got {value!r}")
    return value


def _as_float(flag: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(flag, f"must be a number, got {value!r}")
    return float(value)


def _as_choice(flag: str, value, choices) -> str:
    if not isinstance(value, str) or value not in choices:
        _fail(flag, f"must be one of {', '.join(choices)}; got {value!r}")
    return value


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        _fail("--config", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
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
                    _fail("--config", f"unknown key {key}.{sub_key!r}")
    if "environment" in raw and "environments" in raw:
        _fail("--config", "give either 'environment' or 'environments', not both")
    return raw


def _env_dict_from_name(name: str) -> dict:
    try:
        env = builtin_environment(name)
    except KeyError as exc:
        _fail("--env", str(exc))
    return {key: getattr(env, key if key != "name" else "name") for key in _ENV_KEYS}


def _env_dict_from_object(obj: dict) -> dict:
    for key in obj:
        if key not in _ENV_KEYS:
            _fail("--config", f"unknown environment key {key!r}")
    missing = [key for key in ("name", "a", "b", "mu_los_db", "mu_nlos_db") if key not in obj]
    if missing:
        _fail("--config", f"environment object missing keys: {', '.join(missing)}")
    if not isinstance(obj["name"], str):
        _fail("--config", f"environment name must be a string, got {obj['name']!r}")
    out = dict(obj)
    out.setdefault("sigma_los_db", 3.0)
    out.setdefault("sigma_nlos_db", 8.0)
    return {key: out[key] for key in _ENV_KEYS}


def _resolve_environments(ns, file_cfg: dict, command: str) -> list[dict]:
    if ns.env:
        names = []
        for item in ns.env:
            if item == "all":
                names.extend(BUILTIN_ENVIRONMENTS)
            else:
                names.append(item)
        envs = [_env_dict_from_name(name) for name in names]
    elif "environment" in file_cfg or "environments" in file_cfg:
        items = file_cfg.get("environments", None)
        if items is None:
            items = [file_cfg["environment"]]
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

    for env in envs:
        if ns.sigma_los is not None:
            env["sigma_los_db"] = ns.sigma_los
        if ns.sigma_nlos is not None:
            env["sigma_nlos_db"] = ns.sigma_nlos
        for key in _ENV_KEYS[1:]:
            env[key] = _as_float(f"--config: environment {key!r}", env[key])
    if command == "scenario" and len(envs) != 1:
        _fail("--env", f"scenario takes exactly one environment, got {len(envs)}")
    return envs


def _resolve_radio(ns, file_cfg: dict) -> dict:
    file_radio = file_cfg.get("radio", {})
    defaults = RadioConfig()
    return {
        key: _as_float(flag, _pick(getattr(ns, key, None), file_radio.get(key),
                                   getattr(defaults, key)))
        for key, (flag, _) in _RADIO_FLAGS.items()
    }


def _resolve_seed(ns, section: dict) -> int:
    seed = _as_int("--seed", _pick(ns.seed, section.get("seed"), 0))
    if seed < 0:
        _fail("--seed", f"must be a non-negative integer, got {seed}")
    return seed


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

    envs = _resolve_environments(ns, file_cfg, command)
    radio = _resolve_radio(ns, file_cfg)
    geometry = file_cfg.get("geometry", {})
    params: dict = {"command": command, "environments": envs, "radio": radio}

    if command in SWEEP_COMMANDS:
        sweep_cfg = file_cfg.get("sweep", {})
        axis = _as_choice("--axis", _pick(ns.axis, sweep_cfg.get("axis"), _DEFAULT_AXIS[command]),
                          tuple(_AXIS_TO_PLANNER))
        grid_default = _AXIS_GRID[axis]
        start = _as_float("--start", _pick(ns.start, sweep_cfg.get("start"), grid_default[0]))
        stop = _as_float("--stop", _pick(ns.stop, sweep_cfg.get("stop"), grid_default[1]))
        step = _as_float("--step", _pick(ns.step, sweep_cfg.get("step"), grid_default[2]))
        h = _as_float("--h", _pick(ns.h, geometry.get("h_m"), 100.0))
        r0 = _as_float("--r0", _pick(ns.r0, geometry.get("r0_m"), 200.0))
        params.update(
            axis=axis, start=start, stop=stop, step=step,
            baseline_r0_m=r0, baseline_h_m=h,
            mode=_as_choice("--mode", _pick(ns.mode, sweep_cfg.get("mode"), "standard"), _MODES),
            seed=_resolve_seed(ns, sweep_cfg),
        )
        if command == "sweep-coverage":
            mc = _as_int("--mc-samples",
                         _pick(getattr(ns, "mc_samples", None), sweep_cfg.get("mc_samples"), 0))
            if mc < 0:
                _fail("--mc-samples", f"must be a non-negative integer, got {mc}")
            params["mc_samples"] = mc

    elif command == "optimize-altitude":
        r_edge = float(_pick(ns.r_edge, 500.0))
        h_min = float(_pick(ns.h_min, 50.0))
        h_max = float(_pick(ns.h_max, 2000.0))
        steps = _as_int("--steps", _pick(ns.steps, 1951))
        params.update(
            r_edge_m=r_edge, h_min_m=h_min, h_max_m=h_max, steps=steps,
            mode=_pick(ns.mode, "standard"), seed=_resolve_seed(ns, {}),
        )

    elif command == "coverage-radius":
        h = _as_float("--h", _pick(ns.h, geometry.get("h_m"), 100.0))
        target = float(_pick(ns.target, 0.9))
        r_max = float(_pick(ns.r_max, 2000.0))
        resolution = float(_pick(ns.resolution, 5.0))
        params.update(
            h_m=h, target=target, r_max_m=r_max, resolution_m=resolution,
            mode=_pick(ns.mode, "standard"), seed=_resolve_seed(ns, {}),
        )

    elif command == "scenario":
        scen_cfg = file_cfg.get("scenario", {})
        n_users = _as_int("--n-users", _pick(ns.n_users, scen_cfg.get("n_users"), 1000))
        n_draws = _as_int("--n-draws", _pick(ns.n_draws, scen_cfg.get("n_draws"), 100))
        area_side = _as_float("--area-side",
                              _pick(ns.area_side, scen_cfg.get("area_side_m"), 1000.0))
        area_shape = _as_choice("--area-shape",
                                _pick(ns.area_shape, scen_cfg.get("area_shape"), "square"),
                                AREA_SHAPES)
        uav_x = _pick(ns.uav_x, scen_cfg.get("uav_x_m"))
        uav_y = _pick(ns.uav_y, scen_cfg.get("uav_y_m"))
        uav_h = _as_float("--uav-h", _pick(ns.uav_h, scen_cfg.get("uav_h_m"), 100.0))
        params.update(
            n_users=n_users, n_draws=n_draws, area_side_m=area_side, area_shape=area_shape,
            uav_x_m=None if uav_x is None else _as_float("--uav-x", uav_x),
            uav_y_m=None if uav_y is None else _as_float("--uav-y", uav_y),
            uav_h_m=uav_h,
            mode=_as_choice("--mode", _pick(ns.mode, scen_cfg.get("mode"), "standard"), _MODES),
            seed=_resolve_seed(ns, scen_cfg),
        )

    return RunConfig(command=command, params=params, out=ns.out, plot=ns.plot,
                     workers=ns.workers)


def config_from_params(params: dict, out=None, plot=False, workers=1) -> RunConfig:
    """Rebuild a RunConfig from the metadata block of an emitted CSV."""
    return RunConfig(command=params["command"], params=params, out=out, plot=plot,
                     workers=workers)


def _sweep_table(config: RunConfig) -> OutputTable:
    params = config.params
    envs = [EnvironmentProfile(**e) for e in params["environments"]]
    radio = RadioConfig(**params["radio"])
    spec = SweepSpec(
        axis=_AXIS_TO_PLANNER[params["axis"]],
        start=params["start"], stop=params["stop"], step=params["step"],
        environments=envs,
        baseline=LinkGeometry(params["baseline_r0_m"], params["baseline_h_m"]),
        radio=radio,
        mode=params["mode"],
    )
    result = run_sweep(spec)
    metric = _SWEEP_METRIC[config.command]
    header = [_AXIS_COLUMN[params["axis"]]] + [f"{metric}[{name}]"
                                               for name in result.environment_names]
    columns = [result.axis_values.tolist(),
               *(getattr(cols, metric).tolist() for cols in result.columns)]

    notes = []
    if params["axis"] == "angle":
        notes.append(
            "angle sweep holds the baseline altitude fixed and derives the ground "
            "distance as r0 = h / tan(theta); theta = 90 deg maps to r0 = 0"
        )

    mc_samples = params.get("mc_samples", 0)
    if mc_samples:
        values, grid_r0, grid_h = sweep_grid(spec)
        n_rows = len(values)
        n_cells = len(envs) * n_rows
        if n_cells * mc_samples > MAX_MC_DRAWS:
            raise InvalidSpecError(f"{n_cells} cells x {mc_samples} samples exceeds "
                                   f"{MAX_MC_DRAWS} draws", field="mc_samples")

        def estimate(cell: int):
            j, i = divmod(cell, n_rows)  # environment j, row i
            # a global looked up per call, so a wrapper set on this module sees every cell
            return coverage_monte_carlo(
                LinkGeometry(float(grid_r0[i]), float(grid_h[i])), envs[j], radio,
                n_samples=mc_samples, seed=params["seed"] + 1_000_003 * cell,
            )

        # cells are independent and each is deterministic, so threads change no byte;
        # more threads than usable CPUs would only contend for them
        workers = min(config.workers, n_cells, len(os.sched_getaffinity(0)))
        if workers == 1:
            estimates = [estimate(cell) for cell in range(n_cells)]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                estimates = list(pool.map(estimate, range(n_cells)))
        for j, name in enumerate(result.environment_names):
            header += [f"p_cov_mc[{name}]", f"mc_stderr[{name}]"]
            cells = estimates[j * n_rows:(j + 1) * n_rows]
            columns += [[mc.estimate for mc in cells], [mc.std_error for mc in cells]]
        notes.append(
            f"Monte Carlo columns use {mc_samples} draws per point; per-point seeds "
            "derive from the base seed, the environment index, and the row index"
        )

    return OutputTable(header=header, rows=list(zip(*columns)),
                       metadata={"params": params, "notes": notes})


def _optimize_table(config: RunConfig) -> OutputTable:
    params = config.params
    radio = RadioConfig(**params["radio"])
    rows = []
    for env_dict in params["environments"]:
        env = EnvironmentProfile(**env_dict)
        best = optimal_altitude(
            params["r_edge_m"], env, radio,
            h_min=params["h_min_m"], h_max=params["h_max_m"], steps=params["steps"],
            mode=params["mode"],
        )
        rows.append((env.name, best.h_star_m, best.p_cov_star))
    return OutputTable(
        header=["environment", "h_star_m", "p_cov_star"],
        rows=rows,
        metadata={"params": params,
                  "notes": ["altitude grid search; ties break toward the lowest altitude"]},
    )


def _radius_table(config: RunConfig) -> OutputTable:
    params = config.params
    radio = RadioConfig(**params["radio"])
    rows = []
    for env_dict in params["environments"]:
        env = EnvironmentProfile(**env_dict)
        radius = max_coverage_radius(
            params["h_m"], env, radio, target=params["target"],
            r_max_scan=params["r_max_m"], resolution=params["resolution_m"],
            mode=params["mode"],
        )
        rows.append((env.name, radius))
    return OutputTable(
        header=["environment", "max_radius_m"],
        rows=rows,
        metadata={"params": params},
    )


def _scenario_table(config: RunConfig) -> OutputTable:
    params = config.params
    spec = ScenarioSpec(env=EnvironmentProfile(**params["environments"][0]),
                        radio=RadioConfig(**params["radio"]),
                        **{f.name: params[f.name] for f in fields(ScenarioSpec)
                           if f.name not in ("env", "radio")})
    result = evaluate_scenario(spec)
    # one column per UserRecord field, in field order
    columns = result.records.columns
    header = list(columns)
    rows = list(zip(*(col.tolist() for col in columns.values())))
    return OutputTable(header=header, rows=rows,
                       metadata={"params": params, "summary": asdict(result.summary)})


def _env_listing() -> str:
    header = ("name", "a", "b", "mu_los_db", "mu_nlos_db", "sigma_los_db", "sigma_nlos_db")
    table = [header]
    for env in BUILTIN_ENVIRONMENTS.values():
        table.append((env.name,) + tuple(
            format_number(getattr(env, key)) for key in header[1:]
        ))
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in table]
    lines.append("")
    lines.append("sigma columns are library defaults, not part of the environment parameter "
                 "table; override with --sigma-los / --sigma-nlos.")
    return "\n".join(lines)


def execute(config: RunConfig) -> OutputTable | str:
    """Run a resolved command; tables are returned, show-envs yields text."""
    if config.command == "show-envs":
        return _env_listing()
    if config.command in SWEEP_COMMANDS:
        return _sweep_table(config)
    if config.command == "optimize-altitude":
        return _optimize_table(config)
    if config.command == "coverage-radius":
        return _radius_table(config)
    if config.command == "scenario":
        return _scenario_table(config)
    raise ValueError(f"unknown command {config.command!r}")


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
        sys.stdout.write(render_csv(result))
        return 0
    try:
        emit_table(result, config.out, plot=config.plot)
    except OSError as exc:
        print(f"uavcov: error: cannot write {config.out}: {exc}", file=sys.stderr)
        return 3
    return 0


def console_main() -> None:
    raise SystemExit(main(sys.argv[1:]))
