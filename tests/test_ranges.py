"""The one range rule: every library bound goes through ``errors.check_in``.

One row per checked site: the call, the field it must name, and whether the
CLI can reach that field. Each refusal is a ValueError subclass (never a
TypeError or an IndexError), carries its field, reads in the one message form,
and a field the CLI can reach maps to a flag.
"""

import math
import re

import numpy as np
import pytest

from uavcov import cli
from uavcov.channel import (MAX_LENGTH_M, URBAN, EnvironmentProfile, LinkGeometry, fspl_db,
                            mean_path_loss_db, p_los)
from uavcov.coverage import RadioConfig, branch_argument, coverage_monte_carlo
from uavcov.errors import DomainError, InvalidSpecError, check_in
from uavcov.planner import (AXIS_ALTITUDE, AXIS_DISTANCE, AXIS_ELEVATION, SweepSpec,
                            max_coverage_radius, optimal_altitude, sweep_grid)
from uavcov.scenario import (MAX_USER_DRAWS, ScenarioSpec, energy_efficiency, evaluate_links,
                             generate_users)

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
    "geometry-r0-negative": (lambda: LinkGeometry(-1.0, 100.0), "r0_m", True, True),
    "geometry-h-nan": (lambda: LinkGeometry(100.0, math.nan), "h_m", True, True),
    "geometry-h-none": (lambda: LinkGeometry(100.0, None), "h_m", True, True),
    "p-los-above-90": (lambda: p_los(90.1, URBAN), "theta_deg", False, True),
    "p-los-array-nan": (lambda: p_los([10.0, math.nan], URBAN), "theta_deg", False, True),
    "fspl-frequency-zero": (lambda: fspl_db(0.0, 10.0), "f_c_hz", False, True),
    "fspl-distance-negative": (lambda: fspl_db(2e9, [1.0, -3.0]), "d_m", False, True),
    "mean-path-loss-frequency-nan": (lambda: mean_path_loss_db(GEOM, URBAN, math.nan), "f_c_hz",
                                     False, True),
    "mean-path-loss-frequency-array": (lambda: mean_path_loss_db(GEOM, URBAN, np.array(2e9)),
                                       "f_c_hz", False, True),
    "radio-p-tx-huge": (lambda: RadioConfig(p_tx_dbm=1e9), "p_tx_dbm", True, True),
    "radio-g-nan": (lambda: RadioConfig(g_db=math.nan), "g_db", True, True),
    "radio-p-min-inf": (lambda: RadioConfig(p_min_dbm=-math.inf), "p_min_dbm", True, True),
    "radio-noise-huge": (lambda: RadioConfig(noise_density_dbm_hz=3001.0),
                         "noise_density_dbm_hz", True, True),
    "radio-frequency-nan": (lambda: RadioConfig(f_c_hz=math.nan), "f_c_hz", True, True),
    "radio-bandwidth-zero": (lambda: RadioConfig(bandwidth_hz=0.0), "bandwidth_hz", True, True),
    "branch-sigma-zero": (lambda: branch_argument(RadioConfig(), 100.0, 1.0, 0.0), "sigma_db",
                          False, True),
    "branch-mu-nan": (lambda: branch_argument(RadioConfig(), 100.0, math.nan, 3.0), "mu_db",
                      False, True),
    "branch-path-loss-inf": (lambda: branch_argument(RadioConfig(), math.inf, 1.0, 3.0),
                             "path_loss_db", False, True),
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
    "radius-target-one": (lambda: radius(target=1.0), "target", True, True),
    "radius-resolution-zero": (lambda: radius(resolution=0.0), "resolution", True, True),
    "radius-h-nan": (lambda: radius(h=math.nan), "h", True, True),
    "radius-r-max-negative": (lambda: radius(r_max_scan=-1.0), "r_max_scan", True, True),
    "scenario-users-zero": (lambda: scenario(n_users=0), "n_users", True, True),
    "scenario-users-fraction": (lambda: scenario(n_users=2.5), "n_users", True, True),
    "scenario-draws-nan": (lambda: scenario(n_draws=math.nan), "n_draws", True, True),
    "scenario-draws-bool": (lambda: scenario(n_draws=True), "n_draws", True, True),
    "scenario-draws-past-cap": (lambda: scenario(n_users=1, n_draws=MAX_USER_DRAWS + 1),
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
    "energy-efficiency-power-zero": (lambda: energy_efficiency(1e6, 0.0), "total_power_w", False,
                                     True),
}


@pytest.mark.parametrize("call, field, cli_reaches, one_form", ROWS.values(), ids=ROWS.keys())
def test_refusal_names_its_field(call, field, cli_reaches, one_form):
    with pytest.raises(ValueError) as info:
        call()
    assert not isinstance(info.value, (TypeError, IndexError))
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
        with pytest.raises(DomainError):
            check_in(value, 0.0, 1.0, "x", "x", "", ends)
    # numpy integers are counts; a bool, a float and a numpy bool are not
    assert check_in(np.int64(3), 1, 10, "n", "count", kind=int) == 3
    for value in (True, 3.0, np.bool_(True)):
        with pytest.raises(DomainError):
            check_in(value, 0, 10, "n", "count", kind=int)
    # an array shows its first value outside; a value of another type shows its repr
    with pytest.raises(InvalidSpecError, match=r"^x must lie in \[0, 1\] m, got 5.0$"):
        check_in(np.array([0.5, 5.0, 7.0]), 0, 1, "x", "x", "m", kind=np.ndarray,
                 error=InvalidSpecError)
    with pytest.raises(DomainError, match=r"got '1'$"):
        check_in("1", 0, 2, "x", "x")
    assert check_in(np.array([MAX_LENGTH_M]), 0.0, MAX_LENGTH_M, "x", "x",
                    kind=np.ndarray).shape == (1,)
