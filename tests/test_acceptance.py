"""Acceptance gate: ten criteria, each printed as one pass/fail line.

Oracle constants were computed independently with mpmath at 50 decimal digits
(sigmoid LoS values, free-space loss, Gaussian tail); grid searches are checked
against plain-loop re-implementations; stochastic criteria use fixed,
documented seeds. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from uavcov import cli
from uavcov.channel import (
    BUILTIN_ENVIRONMENTS,
    DENSE_URBAN,
    HIGH_RISE_URBAN,
    SUBURBAN,
    URBAN,
    LinkGeometry,
    fspl_db,
    p_los,
    p_nlos,
    slant_distance,
)
from uavcov.coverage import (
    RadioConfig,
    coverage_monte_carlo,
    coverage_probability,
    q_function,
)
from uavcov.planner import max_coverage_radius, optimal_altitude
from uavcov.scenario import ScenarioSpec, evaluate_scenario, generate_users

# independent high-precision evaluations of the LoS sigmoid with the built-in
# environment rows (mpmath, 50 dps)
ORACLE_PLOS = {
    ("suburban", 20.0): 0.97156649128611287432,
    ("urban", 45.0): 0.97877549736316204822,
    ("dense-urban", 45.0): 0.89531958790443912937,
    ("high-rise-urban", 45.0): 0.29480822373354996844,
}
ORACLE_FSPL_2GHZ_100M = 78.468383135162997712
ORACLE_DOUBLING_DB = 6.0205999132796239043

ALL_ENVS = tuple(BUILTIN_ENVIRONMENTS.values())


def report(number, description):
    print(f"ACCEPTANCE {number:02d} PASS: {description}")


class Stopwatch:
    def __init__(self, budget_s):
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc == (None, None, None):
            assert self.elapsed < self.budget_s, (
                f"runtime {self.elapsed:.1f}s exceeds the {self.budget_s}s budget"
            )


def test_criterion_01_los_point_values():
    with Stopwatch(1.0):
        for (name, theta), oracle in ORACLE_PLOS.items():
            got = p_los(theta, BUILTIN_ENVIRONMENTS[name])
            assert abs(got - oracle) <= 1e-9, f"{name} at {theta} deg"
        # the frozen oracles are the documented point values (to print precision)
        printed = {
            ("suburban", 20.0): 0.971574,
            ("urban", 45.0): 0.978774,
            ("dense-urban", 45.0): 0.895320,
            ("high-rise-urban", 45.0): 0.294836,
        }
        for key, value in printed.items():
            assert abs(ORACLE_PLOS[key] - value) <= 3e-5
    report(1, "LoS sigmoid point values match the high-precision oracle within 1e-9")


def test_criterion_02_los_saturation_angles():
    with Stopwatch(1.0):
        theta = np.arange(0.5, 90.5, 0.5)
        suburban = p_los(theta, SUBURBAN)
        urban = p_los(theta, URBAN)
        assert np.all(suburban[theta >= 20.0] >= 0.97)
        assert np.all(urban[theta >= 45.0] >= 0.97)
    report(2, "suburban LoS >= 0.97 beyond 20 deg and urban beyond 45 deg on the 0.5 deg grid")


def test_criterion_03_identity_suite():
    with Stopwatch(5.0):
        theta = np.arange(0.0, 90.5, 0.5)
        for env in ALL_ENVS:
            assert np.max(np.abs(p_los(theta, env) + p_nlos(theta, env) - 1.0)) <= 1e-15

        rng = np.random.default_rng(1301)
        x = rng.uniform(-8.0, 8.0, size=1000)
        assert np.max(np.abs(q_function(x) + q_function(-x) - 1.0)) <= 1e-12

        # 100 x 100 geometry grid: every point for every environment
        r0_grid = np.linspace(0.0, 2000.0, 100)
        h_grid = np.linspace(1.0, 1500.0, 100)
        rr, hh = np.meshgrid(r0_grid, h_grid)
        points = [(float(r), float(h)) for r, h in zip(rr.ravel(), hh.ravel())]
        assert len(points) == 10_000
        radio = RadioConfig()
        for env in ALL_ENVS:
            for r0, h in points:
                geom = LinkGeometry(r0, h)
                base = fspl_db(2e9, slant_distance(geom))
                pl = coverage_probability(geom, env, radio).mean_pl_db
                assert base + env.mu_los_db - 1e-9 <= pl <= base + env.mu_nlos_db + 1e-9
    report(3, "probability, Gaussian-tail, and path-loss-band identities hold at tolerance")


def test_criterion_04_fspl_laws():
    with Stopwatch(1.0):
        for d in (1.0, 50.0, 100.0, 777.0):
            assert abs(fspl_db(2e9, 2 * d) - fspl_db(2e9, d) - ORACLE_DOUBLING_DB) <= 1e-9
        got = fspl_db(2e9, 100.0)
        assert abs(got - ORACLE_FSPL_2GHZ_100M) <= 1e-9
        assert abs(got - 78.468) <= 5e-3
    report(4, "free-space loss obeys the doubling law and the 2 GHz / 100 m oracle")


def test_criterion_05_analytic_vs_monte_carlo_grid():
    with Stopwatch(60.0):
        geoms = [(250.0, 100.0), (500.0, 150.0), (400.0, 250.0)]
        thresholds = [-58.0, -64.0]
        seed = 20260808  # documented; every cell must sit within 3 standard errors
        cells = 0
        for j, env in enumerate(ALL_ENVS):
            for g, (r0, h) in enumerate(geoms):
                for t_i, p_min in enumerate(thresholds):
                    radio = RadioConfig(p_min_dbm=p_min)
                    geom = LinkGeometry(r0, h)
                    analytic = coverage_probability(geom, env, radio).p_cov
                    mc = coverage_monte_carlo(
                        geom, env, radio, n_samples=1_000_000,
                        seed=seed + 97 * (j * 6 + g * 2 + t_i),
                    )
                    assert mc.std_error > 0.0
                    assert abs(mc.estimate - analytic) <= 3.0 * mc.std_error, (
                        f"{env.name} r0={r0} h={h} p_min={p_min}: "
                        f"{analytic} vs {mc.estimate} +- {mc.std_error}"
                    )
                    cells += 1
        assert cells == 24
    report(5, "analytic coverage matches the 10^6-draw Monte Carlo oracle in all 24 cells")


def test_criterion_06_monotonicity():
    with Stopwatch(2.0):
        geom = LinkGeometry(300.0, 100.0)
        thresholds = np.linspace(-110.0, -30.0, 50)
        for env in ALL_ENVS:
            covs = [
                coverage_probability(geom, env, RadioConfig(p_min_dbm=float(t))).p_cov
                for t in thresholds
            ]
            assert np.all(np.diff(covs) <= 1e-15), env.name
        theta = np.arange(0.5, 90.5, 0.5)
        for env in ALL_ENVS:
            assert np.all(np.diff(p_los(theta, env)) > 0.0), env.name
    report(6, "coverage is non-increasing in the threshold and LoS strictly increasing in angle")


def test_criterion_07_optimizer_equivalence():
    def brute_best_altitude(r_edge, env, radio, h_min, h_max, steps, mode):
        best_h, best_cov = None, -1.0
        for h in np.linspace(h_min, h_max, steps):
            cov = coverage_probability(LinkGeometry(r_edge, float(h)), env, radio, mode).p_cov
            if cov > best_cov:
                best_h, best_cov = float(h), cov
        return best_h, best_cov

    def brute_radius(h, env, radio, target, r_max, resolution, mode):
        best, k = 0.0, 0
        while k * resolution <= r_max + 1e-9 * resolution:
            r = k * resolution
            if coverage_probability(LinkGeometry(r, h), env, radio, mode).p_cov >= target:
                best = r
            k += 1
        return best

    with Stopwatch(10.0):
        rng = np.random.default_rng(20260421)
        for trial in range(10):
            env = ALL_ENVS[int(rng.integers(0, 4))]
            radio = RadioConfig(p_min_dbm=float(rng.uniform(-95.0, -55.0)))
            mode = "paper-literal" if trial % 4 == 0 else "standard"

            r_edge = float(rng.uniform(0.0, 900.0))
            h_min = float(rng.uniform(20.0, 150.0))
            h_max = h_min + float(rng.uniform(100.0, 1800.0))
            steps = int(rng.integers(50, 400))
            (got,) = optimal_altitude(r_edge, (env,), radio, h_min, h_max, steps, mode=mode)
            bf_h, bf_cov = brute_best_altitude(r_edge, env, radio, h_min, h_max, steps, mode)
            assert got.h_star_m == bf_h and got.p_cov_star == bf_cov, f"altitude trial {trial}"

            h = float(rng.uniform(40.0, 400.0))
            target = float(rng.uniform(0.15, 0.97))
            resolution = float(rng.choice([2.0, 5.0, 10.0]))
            r_max = float(rng.uniform(200.0, 1200.0))
            (got_r,) = max_coverage_radius(h, (env,), radio, target, r_max, resolution,
                                           mode=mode)
            assert got_r == brute_radius(h, env, radio, target, r_max, resolution, mode), (
                f"radius trial {trial}"
            )
    report(7, "grid optimizers return the exact brute-force grid point in 10 random configs")


def test_criterion_08_seeded_csv_determinism(tmp_path):
    with Stopwatch(30.0):
        paths = {name: tmp_path / f"{name}.csv"
                 for name in ("s_a", "s_b", "s_w1", "s_w4", "mc_w1", "mc_w4")}
        scenario = ["scenario", "--env", "urban", "--n-users", "500", "--n-draws", "20",
                    "--seed", "31", "--p-min", "-68"]
        assert cli.main(scenario + ["--out", str(paths["s_a"])]) == 0
        assert cli.main(scenario + ["--out", str(paths["s_b"])]) == 0
        assert cli.main(scenario + ["--out", str(paths["s_w1"]), "--workers", "1"]) == 0
        assert cli.main(scenario + ["--out", str(paths["s_w4"]), "--workers", "4"]) == 0
        blob = paths["s_a"].read_bytes()
        assert blob == paths["s_b"].read_bytes()
        assert blob == paths["s_w1"].read_bytes()
        assert blob == paths["s_w4"].read_bytes()

        mc = ["sweep-coverage", "--env", "dense-urban", "--start", "100", "--stop", "500",
              "--step", "100", "--p-min", "-66", "--mc-samples", "100000", "--seed", "8"]
        assert cli.main(mc + ["--workers", "1", "--out", str(paths["mc_w1"])]) == 0
        assert cli.main(mc + ["--workers", "4", "--out", str(paths["mc_w4"])]) == 0
        assert paths["mc_w1"].read_bytes() == paths["mc_w4"].read_bytes()
    report(8, "seeded scenario and Monte Carlo CSVs are byte-identical across runs and workers")


def test_criterion_09_figure_reproduction_smoke(tmp_path):
    def rows_of(path):
        lines = [ln for ln in path.read_text(encoding="utf-8").split("\n")
                 if ln and not ln.startswith("#")]
        return lines[0].split(","), [ln.split(",") for ln in lines[1:]]

    with Stopwatch(5.0):
        plos = tmp_path / "fig_plos.csv"
        pathloss = tmp_path / "fig_pathloss.csv"
        cov_angle = tmp_path / "fig_cov_angle.csv"
        cov_dist = tmp_path / "fig_cov_dist.csv"
        assert cli.main(["sweep-plos", "--env", "all", "--h", "100",
                         "--out", str(plos)]) == 0
        assert cli.main(["sweep-pathloss", "--env", "all", "--h", "100",
                         "--out", str(pathloss)]) == 0
        assert cli.main(["sweep-coverage", "--env", "all", "--axis", "angle", "--h", "100",
                         "--out", str(cov_angle)]) == 0
        assert cli.main(["sweep-coverage", "--env", "all", "--h", "100",
                         "--out", str(cov_dist)]) == 0

        header, rows = rows_of(plos)
        assert len(rows) == 180
        assert header == ["angle_deg", "p_los[suburban]", "p_los[urban]",
                          "p_los[dense-urban]", "p_los[high-rise-urban]"]
        assert len(rows_of(pathloss)[1]) == 98
        assert len(rows_of(cov_angle)[1]) == 180
        assert len(rows_of(cov_dist)[1]) == 98

        at45 = next(row for row in rows if float(row[0]) == 45.0)
        values = [float(cell) for cell in at45[1:]]
        assert values[0] > values[1] > values[2] > values[3]
    report(9, "default sweeps emit 180/98-row CSVs with the 45 deg LoS ordering preserved")


def test_criterion_10_scenario_statistics():
    with Stopwatch(30.0):
        spec = ScenarioSpec(
            n_users=10_000,
            env=URBAN,
            radio=RadioConfig(p_min_dbm=-68.0),
            seed=4104,
            n_draws=25,
        )
        result = evaluate_scenario(spec)
        p = result.summary.mean_p_cov
        mean_frac = float(np.mean(result.summary.covered_fraction_draws))
        se = math.sqrt(p * (1.0 - p) / (spec.n_users * spec.n_draws))
        assert abs(mean_frac - p) <= 3.0 * se, f"{mean_frac} vs {p} (se {se})"

        pos = generate_users(10_000, 1000.0, seed=4104)
        bound = 1000.0 * 3.0 * (1.0 / math.sqrt(12.0)) / 100.0
        assert abs(pos[:, 0].mean() - 500.0) <= bound
        assert abs(pos[:, 1].mean() - 500.0) <= bound
    report(10, "empirical covered fractions and user placement match their analytic laws")
