"""The coverage kernel against an exact-arithmetic evaluation of the same formulas.

``exact_columns`` evaluates the model with mpmath at 50 digits: the elevation
angle, the free-space loss, the LoS sigmoid, the mean path loss, both coverage
deficits, both Gaussian tails and ``p_cov``. The links cover both formulation
modes and the four built-in environments, and reach the deep tail (``p_cov``
near 1e-300), the subnormal tails where scipy's erfc flushes to 0 (deficits of
37.5 to 38.6), the near-certain edge (``1 - p_cov`` near 1e-12), angles next to
0 and 90 degrees, and free-space losses near -13000 and +12000 dB. Their exact
columns are pinned in ``kernel_oracle_pins.json``; ``PYTHONPATH=src python3
tests/test_kernel_oracle.py`` prints the table again.

Each column of ``_coverage_arrays(*_angle_and_fspl(...))`` must lie within each
of its bounds in ``BOUNDS`` of the pinned value. The bounds are the kernel's error as
measured under numpy 2.4.6 and scipy 1.17.1 on x86-64, with a margin; a change
that moves a column past its bound made the model less accurate there. Beyond the
pins, ``q_function`` is held to the tails' bounds at 4000 deficits drawn across
[-40, 40] with a fixed seed, against mpmath at 40 digits.
"""

import json
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from uavcov.channel import BUILTIN_ENVIRONMENTS, SPEED_OF_LIGHT, _angle_and_fspl
from uavcov.coverage import (CoverageColumns, FormulationMode, RadioConfig, _coverage_arrays,
                             q_function)

PINS = Path(__file__).with_name("kernel_oracle_pins.json")
DIGITS = 50
COLUMNS = CoverageColumns._fields
# the bound of each (column, kind): "rel" bounds |kernel - exact| / max(|exact|, TINY);
# "abs" bounds |kernel - exact| for the deficits, which cross zero at the coverage edge;
# "comp" bounds a tail's error less 2*EPS*exact, over max(min(exact, 1 - exact), TINY):
# erfc's error is relative to the nearer of 0 and 1, plus the rounding of a tail near 1.
# planner._block_bounds charges each tail's error so, at 1000 times the "comp" bound.
# "tiny" bounds |kernel - exact| / TINY where a tail's deficit lies in FLUSH_BAND, and
# there it stands in for "rel" and "comp" of that tail and of p_cov: scipy's erfc returns
# subnormal tails there, then 0 from a deficit of ~37.6771, where the tail is still
# ~5.9e-311 (0.0026 TINY). planner._block_bounds covers that error with its _TINY
BOUNDS = {
    ("theta_deg", "rel"): 1e-15,
    ("p_los", "rel"): 2e-15,
    ("fspl_db", "rel"): 1e-15,
    ("mean_pl_db", "rel"): 1e-15,
    ("deficit_los", "abs"): 4e-12,
    ("deficit_nlos", "abs"): 1e-12,
    ("q_los", "rel"): 4e-13,
    ("q_nlos", "rel"): 1e-12,
    ("q_los", "comp"): 1e-12,
    ("q_nlos", "comp"): 1e-12,
    ("p_cov", "rel"): 1e-12,
    ("q_los", "tiny"): 0.01,
    ("q_nlos", "tiny"): 0.01,
    ("p_cov", "tiny"): 0.01,
}
# below the smallest normal double the relative error is taken against this floor
TINY = np.finfo(float).tiny
EPS = np.finfo(float).eps

# deficits from just above the smallest normal tail (Q = TINY near 37.52) to past the
# smallest subnormal one (near 38.5), and the flush links' deficits within them
FLUSH_BAND = (37.5, 38.6)
FLUSH_DEFICITS = (37.55, 37.65, 37.68, 37.75, 38.55)

# the radio of every link, unless the link names a carrier frequency of its own
RADIO = RadioConfig()
GRID_H = (1.0, 100.0, 3000.0)
GRID_R0 = (0.0, 1e-6, 0.1, 1.0, 10.0, 100.0, 300.0, 1e3, 3e3, 1e4, 1e5, 1e6)
# (r0_m, h_m, f_c_hz): a link near 90 degrees, one near 0 degrees, and the free-space
# loss at its extremes, where the kernel takes the sum of the logarithms
EDGES = ((1e-10, 100.0, RADIO.f_c_hz), (100.0, 1e-12, RADIO.f_c_hz), (0.0, 5e-324, RADIO.f_c_hz),
         (0.0, 5e-324, 5e-324), (1e307, 1e307, sys.float_info.max))


def exact_columns(r0_m: float, h_m: float, f_c_hz: float, env_name: str, mode: str) -> dict:
    """Every kernel column of one link at ``DIGITS`` digits, each as a decimal string."""
    env, radio = BUILTIN_ENVIRONMENTS[env_name], RADIO
    with mpmath.workdps(DIGITS):
        r0, h, f = mpmath.mpf(r0_m), mpmath.mpf(h_m), mpmath.mpf(f_c_hz)
        theta = mpmath.degrees(mpmath.atan2(h, r0))
        d = mpmath.sqrt(r0 * r0 + h * h)
        fspl = 20 * mpmath.log10(4 * mpmath.pi * f * d / SPEED_OF_LIGHT)
        a, b = mpmath.mpf(env.a), mpmath.mpf(env.b)
        pl = 1 / (1 + a * mpmath.exp(-b * (theta - a)))
        mean_pl = fspl + env.mu_los_db * pl + env.mu_nlos_db * (1 - pl)
        loss = mean_pl if mode == FormulationMode.PAPER_LITERAL.value else fspl
        power = 2 if mode == FormulationMode.PAPER_LITERAL.value else 1
        budget = mpmath.mpf(radio.p_min_dbm) - radio.p_tx_dbm - radio.g_db
        deficit_los = (budget + loss + env.mu_los_db) / mpmath.mpf(env.sigma_los_db) ** power
        deficit_nlos = (budget + loss + env.mu_nlos_db) / mpmath.mpf(env.sigma_nlos_db) ** power
        q_los = mpmath.erfc(deficit_los / mpmath.sqrt(2)) / 2
        q_nlos = mpmath.erfc(deficit_nlos / mpmath.sqrt(2)) / 2
        values = (theta, pl, fspl, mean_pl, deficit_los, deficit_nlos, q_los, q_nlos,
                  pl * q_los + (1 - pl) * q_nlos)
        return {name: mpmath.nstr(value, 25) for name, value in zip(COLUMNS, values)}


def _search(objective, target: float) -> float:
    """The double ``x`` in [1e-300, 1e300] where ``objective(x)``, increasing in log x,
    reaches ``target``, by bisection over log10 x."""
    lo, hi = -300.0, 300.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if objective(10.0 ** mid) < target:
            lo = mid
        else:
            hi = mid
    return 10.0 ** lo


def links(env_name: str, mode: str) -> list:
    """The (r0_m, h_m, f_c_hz) links of one environment and mode."""
    def log_p_cov(r0):  # falls as the user moves out
        return -float(mpmath.log10(mpmath.mpf(exact_columns(r0, 100.0, RADIO.f_c_hz,
                                                            env_name, mode)["p_cov"])))

    def log_miss(h):  # 1 - p_cov, which grows with the distance
        with mpmath.workdps(DIGITS):
            p_cov = mpmath.mpf(exact_columns(0.0, h, RADIO.f_c_hz, env_name, mode)["p_cov"])
            return float(mpmath.log10(1 - p_cov))

    def nlos_deficit(r0):  # the larger tail's deficit, past the deep link; grows with r0
        return float(exact_columns(r0, 100.0, RADIO.f_c_hz, env_name, mode)["deficit_nlos"])

    grid = [(r0, h, RADIO.f_c_hz) for h in GRID_H for r0 in GRID_R0]
    deep = (_search(log_p_cov, 300.0), 100.0, RADIO.f_c_hz)
    near_one = (0.0, _search(log_miss, -12.0), RADIO.f_c_hz)
    flush = [(_search(nlos_deficit, d), 100.0, RADIO.f_c_hz) for d in FLUSH_DEFICITS]
    return grid + [deep, near_one, *EDGES, *flush]


def pin_table() -> dict:
    return {f"{mode}/{env_name}": [[r0, h, f, exact_columns(r0, h, f, env_name, mode)]
                                   for r0, h, f in links(env_name, mode)]
            for mode in (m.value for m in FormulationMode) for env_name in BUILTIN_ENVIRONMENTS}


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text(encoding="utf-8"))


def kernel_errors(pins: dict) -> dict:
    """The largest error of each column over every pinned link, as ``BOUNDS`` measures it."""
    worst = dict.fromkeys(BOUNDS, 0.0)
    for group, rows in pins.items():
        mode, env_name = group.split("/")
        env = BUILTIN_ENVIRONMENTS[env_name]
        for f_c_hz in sorted({f for _, _, f, _ in rows}):
            # the links of one carrier go through the kernel as one array, as a sweep's do
            picked = [row for row in rows if row[2] == f_c_hz]
            r0, h = (np.array([row[i] for row in picked]) for i in (0, 1))
            cols = _coverage_arrays(*_angle_and_fspl(r0, h, f_c_hz), env,
                                    RadioConfig(f_c_hz=f_c_hz), FormulationMode(mode))
            flushed = {f"q_{tail}": np.array([FLUSH_BAND[0] <= float(row[3][f"deficit_{tail}"])
                                              <= FLUSH_BAND[1] for row in picked])
                       for tail in ("los", "nlos")}
            flushed["p_cov"] = flushed["q_los"] | flushed["q_nlos"]
            for name, kind in BOUNDS:
                error = scaled_errors(kind, getattr(cols, name),
                                      [row[3][name] for row in picked])
                if name in flushed:
                    # "tiny" checks the links in the band, the other kinds the rest
                    error = np.where(flushed[name] == (kind == "tiny"), error, 0.0)
                worst[name, kind] = max(worst[name, kind], float(error.max()))
    return worst


def scaled_errors(kind: str, kernel: np.ndarray, exact_digits: list) -> np.ndarray:
    """``|kernel - exact|`` of each value as ``BOUNDS``' ``kind`` measures it; the exact
    values are given as decimal strings."""
    exact = np.array([float(digits) for digits in exact_digits])
    error = np.abs(kernel - exact)
    if kind == "tiny":
        return error / TINY
    if kind == "rel":
        return error / np.maximum(np.abs(exact), TINY)
    if kind == "comp":
        # 1 - exact from the pinned digits, not from exact rounded to a double
        with mpmath.workdps(DIGITS):
            complement = np.array([float(1 - mpmath.mpf(digits)) for digits in exact_digits])
        return (np.maximum(error - 2 * EPS * exact, 0.0)
                / np.maximum(np.minimum(exact, complement), TINY))
    return error


def test_pins_cover_the_tails_angles_and_extremes(pins):
    assert len(pins) == 2 * len(BUILTIN_ENVIRONMENTS)
    for rows in pins.values():
        p_cov = [mpmath.mpf(row[3]["p_cov"]) for row in rows]
        fspl = [float(row[3]["fspl_db"]) for row in rows]
        theta = [float(row[3]["theta_deg"]) for row in rows]
        assert min(p for p in p_cov if p >= 1e-305) < 1e-295
        assert any(1e-13 < 1 - p < 1e-11 for p in p_cov)
        assert min(theta) < 1e-10 and max(t for t in theta if t < 90.0) > 90.0 - 1e-9
        assert min(fspl) < -13000.0 and max(fspl) > 12000.0


def test_pins_reach_the_flush_of_the_tails(pins):
    # per group: tails in the band that are subnormal, that scipy flushes to 0 while the
    # exact tail is still a subnormal, and that are below the smallest subnormal
    for group, rows in pins.items():
        mode, env_name = group.split("/")
        picked = [row for row in rows
                  if FLUSH_BAND[0] <= float(row[3]["deficit_nlos"]) <= FLUSH_BAND[1]]
        assert len(picked) == len(FLUSH_DEFICITS), group
        exact = [mpmath.mpf(row[3]["q_nlos"]) for row in picked]
        r0, h = (np.array([row[i] for row in picked]) for i in (0, 1))
        q_nlos = _coverage_arrays(*_angle_and_fspl(r0, h, RADIO.f_c_hz),
                                  BUILTIN_ENVIRONMENTS[env_name], RADIO,
                                  FormulationMode(mode)).q_nlos
        assert any(0 < q < TINY for q in q_nlos), group
        assert any(q == 0 and e > 5e-324 for q, e in zip(q_nlos, exact)), group
        assert any(e < 2.5e-324 for e in exact), group


def test_kernel_columns_within_their_bounds_of_the_exact_model(pins):
    worst = kernel_errors(pins)
    assert {key: error for key, error in worst.items() if error > BOUNDS[key]} == {}


def test_q_function_within_the_tails_bounds_at_random_deficits():
    # the pins are fixed links; these deficits fall anywhere in [-40, 40], at 40 digits
    x = np.random.default_rng(20).uniform(-40.0, 40.0, 4000)
    with mpmath.workdps(40):
        exact = [mpmath.nstr(mpmath.erfc(mpmath.mpf(v) / mpmath.sqrt(2)) / 2, 25)
                 for v in x.tolist()]
    in_band = (x >= FLUSH_BAND[0]) & (x <= FLUSH_BAND[1])
    # deficits on both tails, in the flush band, and just below it, where Q < 1e-300
    assert x.min() < -39.0 and np.count_nonzero(in_band) >= 20
    assert np.count_nonzero((x > 37.05) & (x < FLUSH_BAND[0])) >= 10
    kernel = q_function(x)
    worst = {(name, kind): float(np.where(in_band == (kind == "tiny"),
                                          scaled_errors(kind, kernel, exact), 0.0).max())
             for name, kind in BOUNDS if name in ("q_los", "q_nlos")}
    assert {key: error for key, error in worst.items() if error > BOUNDS[key]} == {}


# a grid link, the deep tail, the near-certain edge, both free-space extremes and a flush link
@pytest.mark.parametrize("group, index", [("standard/urban", 0), ("standard/suburban", 36),
                                          ("paper-literal/high-rise-urban", 37),
                                          ("paper-literal/dense-urban", 41),
                                          ("standard/high-rise-urban", 42),
                                          ("paper-literal/urban", 45)])
def test_pins_are_what_the_exact_model_gives(pins, group, index):
    r0, h, f_c_hz, columns = pins[group][index]
    mode, env_name = group.split("/")
    assert exact_columns(r0, h, f_c_hz, env_name, mode) == columns


if __name__ == "__main__":
    sys.stdout.write(json.dumps(pin_table(), indent=1) + "\n")
