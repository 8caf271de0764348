"""The one refusal contract: every library refusal is an ``InputError`` that names its field.

One row per checked site: the call, the field it must name, and whether the
CLI can reach that field. Each refusal is an ``InputError``, carries its field,
reads in the one message form where it goes through ``errors.check_in``, and a
field the CLI can reach maps to a flag. A parse of the library's modules checks
that no ``raise`` there raises anything else, and that every field they name
maps to a flag or is listed as out of the CLI's reach.
"""

import ast
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from uavcov import cli
from uavcov.channel import MAX_LENGTH_M, URBAN, EnvironmentProfile, LinkGeometry, fspl_db, p_los
from uavcov.coverage import MAX_DRAWS, RadioConfig, coverage_monte_carlo, coverage_probability
from uavcov.errors import InputError, check_in
from uavcov.planner import (AXIS_ALTITUDE, AXIS_DISTANCE, AXIS_ELEVATION, SweepSpec,
                            max_coverage_radius, optimal_altitude, sweep_grid)
from uavcov.scenario import ScenarioSpec, evaluate_links, evaluate_scenario, generate_users

FORM = re.compile(r"^.+ must lie in [\[(]\S+, \S+[\])]( \S+)?, got .+$")
GEOM = LinkGeometry(100.0, 100.0)
ORIGIN_UAV = (0.0, 0.0, 100.0)


def env(**kwargs):
    return EnvironmentProfile("probe", **{**dict(a=5.0, b=0.1, mu_los_db=1.0,
                                                 mu_nlos_db=20.0), **kwargs})


def sweep(**kwargs):
    spec = dict(axis=AXIS_ELEVATION, start=0.5, stop=90.0, step=0.5, environments=(URBAN,),
                baseline=LinkGeometry(0.0, 100.0), radio=RadioConfig())
    return sweep_grid(SweepSpec(**{**spec, **kwargs}))


def altitude(**kwargs):
    return optimal_altitude(**{**dict(r_edge=500.0, environments=(URBAN,), radio=RadioConfig(),
                                      h_min=50.0, h_max=2000.0, steps=100), **kwargs})


def radius(**kwargs):
    return max_coverage_radius(**{**dict(h=100.0, environments=(URBAN,), radio=RadioConfig(),
                                         target=0.9, r_max_scan=500.0, resolution=5.0),
                                  **kwargs})


def scenario(**kwargs):
    return ScenarioSpec(**{**dict(n_users=10, env=URBAN, radio=RadioConfig(), seed=1), **kwargs})


def scenario_run(**kwargs):
    return evaluate_scenario(scenario(), **kwargs)


def links(positions, uav=ORIGIN_UAV):
    return evaluate_links(positions, uav, URBAN, RadioConfig())


def monte_carlo(n_samples=10, seed=1):
    return coverage_monte_carlo(GEOM, URBAN, RadioConfig(), n_samples, seed)


# (call, field, the CLI can reach the field, the message is in the one form)
ROWS = {
    "env-a-nan": (lambda: env(a=math.nan), "a", True, True),
    "env-b-inf": (lambda: env(b=math.inf), "b", True, True),
    "env-mu-nlos-huge": (lambda: env(mu_nlos_db=1.7e308), "mu_nlos_db", True, True),
    "env-mu-los-above-nlos": (lambda: env(mu_los_db=21.0), "mu_los_db", True, True),
    "env-mu-los-negative": (lambda: env(mu_los_db=-1.0), "mu_los_db", True, True),
    "env-sigma-los-zero": (lambda: env(sigma_los_db=0.0), "sigma_los_db", True, True),
    "env-sigma-nlos-nan": (lambda: env(sigma_nlos_db=math.nan), "sigma_nlos_db", True, True),
    **{f"env-name-{label}": (lambda name=name: EnvironmentProfile(name, 5.0, 0.1, 1.0, 20.0),
                             "name", True, False)
       for label, name in (("newline", "a\nb"), ("comma", "a,b"), ("not-str", 4))},
    "geometry-r0-negative": (lambda: LinkGeometry(-1.0, 100.0), "r0_m", True, True),
    "geometry-h-nan": (lambda: LinkGeometry(100.0, math.nan), "h_m", True, True),
    "geometry-h-none": (lambda: LinkGeometry(100.0, None), "h_m", True, True),
    "p-los-above-90": (lambda: p_los(90.1, URBAN), "theta_deg", False, True),
    "p-los-array-nan": (lambda: p_los([10.0, math.nan], URBAN), "theta_deg", False, True),
    "fspl-frequency-zero": (lambda: fspl_db(0.0, 10.0), "f_c_hz", False, True),
    "fspl-distance-negative": (lambda: fspl_db(2e9, [1.0, -3.0]), "d_m", False, True),
    "fspl-shapes-do-not-broadcast": (lambda: fspl_db(np.ones(2), np.ones(3)), "d_m", False,
                                     False),
    "radio-p-tx-huge": (lambda: RadioConfig(p_tx_dbm=1e9), "p_tx_dbm", True, True),
    "radio-g-nan": (lambda: RadioConfig(g_db=math.nan), "g_db", True, True),
    "radio-p-min-inf": (lambda: RadioConfig(p_min_dbm=-math.inf), "p_min_dbm", True, True),
    "radio-noise-huge": (lambda: RadioConfig(noise_density_dbm_hz=3001.0),
                         "noise_density_dbm_hz", True, True),
    "radio-frequency-nan": (lambda: RadioConfig(f_c_hz=math.nan), "f_c_hz", True, True),
    "radio-frequency-array": (lambda: RadioConfig(f_c_hz=np.array(2e9)), "f_c_hz", True, True),
    "radio-bandwidth-zero": (lambda: RadioConfig(bandwidth_hz=0.0), "bandwidth_hz", True, True),
    "mc-samples-zero": (lambda: monte_carlo(n_samples=0), "n_samples", False, True),
    "mc-samples-fraction": (lambda: monte_carlo(n_samples=2.5), "n_samples", False, True),
    "mc-samples-bool": (lambda: monte_carlo(n_samples=True), "n_samples", False, True),
    "mc-seed-negative": (lambda: monte_carlo(seed=-1), "seed", True, True),
    "mc-seed-fraction": (lambda: monte_carlo(seed=1.5), "seed", True, True),
    "sweep-step-zero": (lambda: sweep(step=0.0), "step", True, True),
    "sweep-step-nan": (lambda: sweep(step=math.nan), "step", True, True),
    "sweep-stop-past-90": (lambda: sweep(stop=95.0), "stop", True, True),
    "sweep-stop-nan": (lambda: sweep(stop=math.nan), "stop", True, True),
    "sweep-stop-past-length": (lambda: sweep(axis=AXIS_DISTANCE, stop=1e308), "stop", True,
                               True),
    "sweep-start-past-stop": (lambda: sweep(start=50.0, stop=10.0), "start", True, True),
    "sweep-start-past-negative-stop": (lambda: sweep(stop=-1.0), "start", True, True),
    "sweep-angle-start-zero": (lambda: sweep(start=0.0), "start", True, True),
    "sweep-altitude-start-zero": (lambda: sweep(axis=AXIS_ALTITUDE, start=0.0, stop=10.0),
                                  "start", True, True),
    "sweep-start-inf": (lambda: sweep(start=math.inf), "start", True, True),
    "altitude-h-min-zero": (lambda: altitude(h_min=0.0), "h_min", True, True),
    "altitude-h-max-below-h-min": (lambda: altitude(h_max=40.0), "h_max", True, True),
    "altitude-h-max-past-length": (lambda: altitude(h_max=1e308), "h_max", True, True),
    "altitude-steps-one": (lambda: altitude(steps=1), "steps", True, True),
    "altitude-steps-fraction": (lambda: altitude(steps=2.5), "steps", True, True),
    "altitude-steps-nan": (lambda: altitude(steps=math.nan), "steps", True, True),
    "altitude-r-edge-negative": (lambda: altitude(r_edge=-5.0), "r_edge", True, True),
    # the CLI refuses --workers below 1 itself, so only library callers reach these
    **{f"{name}-workers-{label}": (lambda call=call, value=value: call(workers=value),
                                   "workers", False, True)
       for name, call in (("altitude", altitude), ("radius", radius), ("scenario", scenario_run))
       for label, value in (("fraction", 1.5), ("zero", 0), ("negative", -3), ("bool", True),
                            ("nan", math.nan))},
    "radius-target-one": (lambda: radius(target=1.0), "target", True, True),
    "radius-resolution-zero": (lambda: radius(resolution=0.0), "resolution", True, True),
    "radius-h-nan": (lambda: radius(h=math.nan), "h", True, True),
    "radius-r-max-negative": (lambda: radius(r_max_scan=-1.0), "r_max_scan", True, True),
    "scenario-users-zero": (lambda: scenario(n_users=0), "n_users", True, True),
    "scenario-users-fraction": (lambda: scenario(n_users=2.5), "n_users", True, True),
    "scenario-draws-nan": (lambda: scenario(n_draws=math.nan), "n_draws", True, True),
    "scenario-draws-bool": (lambda: scenario(n_draws=True), "n_draws", True, True),
    "scenario-draws-past-cap": (lambda: scenario(n_users=1, n_draws=MAX_DRAWS + 1),
                                "n_draws", True, True),
    "scenario-draws-past-draw-cap": (lambda: scenario(n_users=1, n_draws=(1 << 22) + 1),
                                     "n_draws", True, True),
    "scenario-seed-negative": (lambda: scenario(seed=-1), "seed", True, True),
    "scenario-seed-fraction": (lambda: scenario(seed=0.5), "seed", True, True),
    "scenario-area-zero": (lambda: scenario(area_side_m=0.0), "area_side_m", True, True),
    "scenario-uav-x-nan": (lambda: scenario(uav_x_m=math.nan), "uav_x_m", True, True),
    "scenario-uav-y-inf": (lambda: scenario(uav_y_m=math.inf), "uav_y_m", True, True),
    "scenario-uav-h-negative": (lambda: scenario(uav_h_m=-10.0), "uav_h_m", True, True),
    "users-zero": (lambda: generate_users(0, 1000.0, 1), "n_users", True, True),
    "users-area-negative": (lambda: generate_users(10, -1.0, 1), "area_side_m", True, True),
    "users-seed-negative": (lambda: generate_users(10, 1000.0, -1), "seed", True, True),
    "users-shape": (lambda: generate_users(10, 1000.0, 1, "hexagon"), "area_shape", True, False),
    "links-position-nan": (lambda: links(np.array([[math.nan, 0.0]])), "positions", False, True),
    "links-positions-1d": (lambda: links(np.array([1.0, 2.0])), "positions", False, False),
    "links-positions-empty": (lambda: links(np.zeros((0, 2))), "positions", False, False),
    "links-position-past-length": (lambda: links(np.array([[1.7e308, 0.0]]),
                                                 (-1.7e308, 0.0, 100.0)), "positions", False,
                                   True),
    "links-uav-x-past-length": (lambda: links(np.array([[0.0, 0.0]]), (-1.7e308, 0.0, 100.0)),
                                "uav_x_m", True, True),
    "links-uav-h-negative": (lambda: links(np.array([[1.0, 2.0]]), (0.0, 0.0, -100.0)),
                             "uav_h_m", True, True),
    # legal fields whose summary leaves a double; each names the flag that a caller lowers
    "scenario-efficiency-overflow": (lambda: evaluate_scenario(scenario(
        radio=RadioConfig(p_tx_dbm=-3000.0, g_db=3000.0))), "p_tx_dbm", True, False),
    "scenario-sum-rate-overflow": (lambda: evaluate_scenario(scenario(
        radio=RadioConfig(bandwidth_hz=1e305, p_tx_dbm=3000.0, g_db=3000.0,
                          noise_density_dbm_hz=-3000.0, f_c_hz=1e-300))), "bandwidth_hz",
                                   True, False),
    # the CLI restricts --mode to its choices, so only library callers reach these
    "sweep-mode": (lambda: sweep(mode="bogus"), "mode", False, False),
    "scenario-mode": (lambda: scenario(mode="bogus"), "mode", False, False),
    "coverage-mode": (lambda: coverage_probability(GEOM, URBAN, RadioConfig(), mode="bogus"),
                      "mode", False, False),
    "altitude-mode": (lambda: altitude(mode="bogus"), "mode", False, False),
    "radius-mode": (lambda: radius(mode="bogus"), "mode", False, False),
    "links-mode": (lambda: evaluate_links(np.array([[1.0, 2.0]]), ORIGIN_UAV, URBAN,
                                          RadioConfig(), mode="bogus"), "mode", False, False),
}


@pytest.mark.parametrize("call, field, cli_reaches, one_form", ROWS.values(), ids=ROWS.keys())
def test_refusal_names_its_field(call, field, cli_reaches, one_form):
    with pytest.raises(InputError) as info:
        call()
    assert info.value.field == field
    if cli_reaches:
        assert field in cli._FIELD_FLAGS
    if one_form:
        assert FORM.match(str(info.value)), str(info.value)


def test_bounds_and_types():
    # each end is inclusive or exclusive as its bracket says
    assert check_in(0.0, 0.0, 1.0, "x", "x") == 0.0
    assert check_in(1.0, 0.0, 1.0, "x", "x", "", "(]") == 1.0
    for value, ends in ((0.0, "(]"), (1.0, "[)"), (math.nan, "[]"), (math.inf, "[]")):
        with pytest.raises(InputError):
            check_in(value, 0.0, 1.0, "x", "x", "", ends)
    # numpy integers are counts; a bool, a float and a numpy bool are not
    assert check_in(np.int64(3), 1, 10, "n", "count", kind=int) == 3
    for value in (True, 3.0, np.bool_(True)):
        with pytest.raises(InputError):
            check_in(value, 0, 10, "n", "count", kind=int)
    # an array shows its first value outside; a value of another type shows its repr
    with pytest.raises(InputError, match=r"^x must lie in \[0, 1\] m, got 5.0$"):
        check_in(np.array([0.5, 5.0, 7.0]), 0, 1, "x", "x", "m", kind=np.ndarray)
    with pytest.raises(InputError, match=r"got '1'$"):
        check_in("1", 0, 2, "x", "x")
    assert check_in(np.array([MAX_LENGTH_M]), 0.0, MAX_LENGTH_M, "x", "x",
                    kind=np.ndarray).shape == (1,)
    # a refusal always names its field, also after a round trip through pickle
    with pytest.raises(TypeError):
        InputError("x must lie in [0, 1], got 2")
    copied = pickle.loads(pickle.dumps(InputError("x must lie in [0, 1], got 2", field="x")))
    assert (str(copied), copied.field) == ("x must lie in [0, 1], got 2", "x")


# the library modules under the contract, and the one documented exception to it: an
# unknown built-in name is a failed lookup, which a caller catches as KeyError
CONTRACT_MODULES = ("channel", "coverage", "errors", "planner", "scenario")
EXEMPT = {("channel", "builtin_environment"): "KeyError"}


def _raise_sites(tree: ast.AST, function: str = "<module>"):
    # (innermost enclosing function, raise node) for every raise statement
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Raise):
            yield function, node
        yield from _raise_sites(node, node.name if isinstance(node, ast.FunctionDef) else function)


def test_every_raise_is_an_input_error_with_a_field():
    source = Path(cli.__file__).parent
    exempt_seen, modules_seen, bad = set(), set(), []
    for module in CONTRACT_MODULES:
        tree = ast.parse((source / f"{module}.py").read_text(encoding="utf-8"))
        for function, node in _raise_sites(tree):
            call = node.exc
            name = call.func.id if (isinstance(call, ast.Call)
                                    and isinstance(call.func, ast.Name)) else None
            if EXEMPT.get((module, function)) == name:
                exempt_seen.add((module, function))
            elif name == "InputError" and "field" in {k.arg for k in call.keywords}:
                modules_seen.add(module)
            else:
                bad.append(f"{module}.py:{node.lineno} in {function}")
    assert bad == []
    assert exempt_seen == set(EXEMPT) and modules_seen == set(CONTRACT_MODULES)


# the fields that the library names but no CLI flag sets: the arguments of the public
# functions that the CLI does not call, and the planners' and the scenario's worker count,
# which the CLI checks as --workers before the library sees it
CLI_UNREACHABLE = ("d_m", "theta_deg", "n_samples", "positions", "workers")


def _named_fields(trees: list) -> set:
    """Every field that a library call names: a ``field`` argument of InputError, check_in or
    a helper that passes its own ``field`` on, as a string or as a loop over strings."""
    takes_field = {"InputError": 1}  # callee -> position of its field argument
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                names = [arg.arg for arg in node.args.args]
                if "field" in names and node.name != "__init__":
                    takes_field[node.name] = names.index("field")
    fields, unresolved = set(), []

    def visit(node, loops: dict, params: set):
        if isinstance(node, ast.FunctionDef):
            params = {arg.arg for arg in node.args.args}
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            items = node.iter.elts if isinstance(node.iter, ast.Tuple) else []
            if items and all(isinstance(item, ast.Constant) for item in items):
                loops = {**loops, node.target.id: {item.value for item in items}}
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            if callee in takes_field:
                position = takes_field[callee]
                (arg,) = ([k.value for k in node.keywords if k.arg == "field"]
                          or node.args[position:position + 1])
                if isinstance(arg, ast.Constant):
                    fields.add(arg.value)
                elif isinstance(arg, ast.Name) and arg.id in loops:
                    fields.update(loops[arg.id])
                # a helper's own field parameter is named at the helper's call sites
                elif not (isinstance(arg, ast.Name) and arg.id == "field" and "field" in params):
                    unresolved.append(ast.unparse(node))
        for child in ast.iter_child_nodes(node):
            visit(child, loops, params)

    for tree in trees:
        visit(tree, {}, set())
    assert unresolved == []
    return fields


def test_every_library_field_has_a_flag_or_is_out_of_the_clis_reach():
    source = Path(cli.__file__).parent
    fields = _named_fields([ast.parse((source / f"{module}.py").read_text(encoding="utf-8"))
                            for module in CONTRACT_MODULES])
    assert {"environments", "sigma_los_db", "f_c_hz", "n_draws", "step"} <= fields
    assert sorted(fields - set(cli._FIELD_FLAGS) - set(CLI_UNREACHABLE)) == []
    # each unreachable field is named by the library and has no flag
    assert set(CLI_UNREACHABLE) <= fields and not set(CLI_UNREACHABLE) & set(cli._FIELD_FLAGS)
