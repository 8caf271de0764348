"""The package surface that the benchmark's tracer (perfbench/tracer.py) relies on.

The tracer wraps functions under the names their calling modules bind, so a
wrapper set on ``cli`` or on ``planner``/``scenario`` sees every call, and it
reads a few result shapes. A rename or a changed shape here breaks the
benchmark while every other test still passes.
"""

import numpy as np
import pytest

from uavcov import cli, coverage, planner, reporting, scenario
from uavcov.channel import BUILTIN_ENVIRONMENTS, URBAN, LinkGeometry, _angle_and_fspl
from uavcov.coverage import FormulationMode, RadioConfig
from uavcov.planner import AXIS_DISTANCE, SweepSpec

CLI_BINDINGS = {
    "run_sweep": planner,
    "sweep_grid": planner,
    "optimal_altitude": planner,
    "max_coverage_radius": planner,
    "coverage_monte_carlo": coverage,
    "evaluate_scenario": scenario,
    "emit_table": reporting,
    "render_csv": reporting,
}


def counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("name", sorted(CLI_BINDINGS))
def test_cli_binds_the_traced_functions(name):
    assert getattr(cli, name) is getattr(CLI_BINDINGS[name], name)


@pytest.mark.parametrize("module", [planner, scenario], ids=lambda m: m.__name__)
def test_kernel_bindings_return_p_cov_last(module):
    radio = RadioConfig()
    theta, fspl = _angle_and_fspl(np.array([0.0, 50.0, 300.0]), np.full(3, 100.0), radio.f_c_hz)
    result = module._coverage_arrays(theta, fspl, URBAN, radio, FormulationMode.STANDARD)
    assert result[-1] is result.p_cov
    assert result[-1].size == 3


@pytest.mark.parametrize("command", ["optimize-altitude", "coverage-radius"])
def test_planner_kernel_once_per_environment_per_block(monkeypatch, tmp_path, command):
    # the tracer's coverage.kernel_points sums result[-1].size over the wrapped calls, so
    # every point the planners evaluate, their bounds' included, must pass through them
    n = 3 * planner._BLOCK + 5
    grid = (["--steps", str(n)] if command == "optimize-altitude" else
            ["--target", "0.5", "--resolution", str(2000.0 / (n - 1))])
    kernel, calls = planner._coverage_arrays, []

    def wrapper(theta, fspl, env, *args):
        result = kernel(theta, fspl, env, *args)
        # the angle column is kept, so that its id is not reused
        calls.append((theta, env.name, result))
        return result

    tails = counting(monkeypatch, coverage, "q_function")
    monkeypatch.setattr(planner, "_coverage_arrays", wrapper)
    assert cli.main([command, "--env", "all", *grid, "--workers", "2",
                     "--out", str(tmp_path / "p.csv")]) == 0
    assert all(result[-1] is result.p_cov for _, _, result in calls)
    # the kernel takes both tails of each point it evaluates, and nothing else takes one
    assert sum(tail.size for tail in tails) == 2 * sum(result[-1].size for _, _, result in calls)
    # one bound call per environment over 4 points of each of the 4 blocks; then each block
    # that an environment runs, once for that environment
    bounds = [name for _, name, result in calls if result[-1].size == 16]
    assert sorted(bounds) == sorted(BUILTIN_ENVIRONMENTS)
    blocks = [(id(theta), name) for theta, name, result in calls if result[-1].size != 16]
    assert len(set(blocks)) == len(blocks)
    assert sum(result[-1].size for _, _, result in calls) <= (n + 16) * len(BUILTIN_ENVIRONMENTS)


def test_wrapped_bindings_see_every_call(monkeypatch, tmp_path):
    planner_kernel = counting(monkeypatch, planner, "_coverage_arrays")
    scenario_kernel = counting(monkeypatch, scenario, "_coverage_arrays")
    cells = counting(monkeypatch, cli, "coverage_monte_carlo")
    sweeps = counting(monkeypatch, cli, "run_sweep")
    out = str(tmp_path / "out.csv")
    assert cli.main(["sweep-coverage", "--env", "urban", "--env", "suburban", "--start", "15",
                     "--stop", "35", "--step", "10", "--mc-samples", "10", "--out", out]) == 0
    assert len(sweeps) == 1 and len(planner_kernel) == 2 and len(cells) == 6
    assert len(sweeps[0].rows) * len(sweeps[0].environment_names) == 6
    assert cli.main(["optimize-altitude", "--env", "urban", "--steps", "20", "--out", out]) == 0
    assert cli.main(["coverage-radius", "--env", "urban", "--out", out]) == 0
    # each planner's bound call, then its one block
    assert len(planner_kernel) == 6
    assert cli.main(["scenario", "--n-users", "30", "--n-draws", "2", "--out", out]) == 0
    assert len(scenario_kernel) == 1 and scenario_kernel[0][-1].size == 30


def test_len_of_sweep_rows():
    spec = SweepSpec(AXIS_DISTANCE, 15.0, 500.0, 5.0, environments=(URBAN,),
                     baseline=LinkGeometry(200.0, 100.0), radio=RadioConfig())
    assert len(planner.run_sweep(spec).rows) == 98


@pytest.mark.parametrize("n_users", [1, 7, 403])
def test_len_of_links_is_the_user_count(n_users):
    positions = scenario.generate_users(n_users, 100.0, seed=n_users)
    links = scenario.evaluate_links(positions, (50.0, 50.0, 100.0), URBAN, RadioConfig(),
                                    FormulationMode.STANDARD, workers=1)
    assert len(links) == len(positions) == n_users


def test_workers_keyword_still_accepted():
    geom, radio = LinkGeometry(200.0, 100.0), RadioConfig()
    assert (coverage.coverage_monte_carlo(geom, URBAN, radio, n_samples=100, seed=1, workers=2)
            == coverage.coverage_monte_carlo(geom, URBAN, radio, n_samples=100, seed=1))
    positions = scenario.generate_users(10, 100.0, seed=1)
    assert (scenario.evaluate_links(positions, (50.0, 50.0, 100.0), URBAN, radio,
                                    FormulationMode.STANDARD, workers=2)
            == scenario.evaluate_links(positions, (50.0, 50.0, 100.0), URBAN, radio))


def test_planners_skip_most_of_planner_grid(monkeypatch, tmp_path):
    # planner-grid's two commands: 2e6 altitudes and 2000 m at 0.001 m, the four built-ins;
    # the bounds left ~7% of the grid's points to the kernel when they were written
    kernel = counting(monkeypatch, planner, "_coverage_arrays")
    out = str(tmp_path / "p.csv")
    assert cli.main(["optimize-altitude", "--env", "all", "--steps", "2000000", "--workers", "2",
                     "--out", out]) == 0
    assert cli.main(["coverage-radius", "--env", "all", "--resolution", "0.001", "--workers", "2",
                     "--out", out]) == 0
    full = len(BUILTIN_ENVIRONMENTS) * (2_000_000 + 2_000_001)
    assert sum(result[-1].size for result in kernel) <= full // 4
