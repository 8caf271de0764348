"""Sweep and grid-search planners, checked against independent brute-force scans."""

import math
import sys
import tracemalloc
from dataclasses import astuple
from typing import NamedTuple

import numpy as np
import pytest

from uavcov import planner
from uavcov.channel import (
    BUILTIN_ENVIRONMENTS,
    EnvironmentProfile,
    MAX_LENGTH_M,
    SUBURBAN,
    URBAN,
    LinkGeometry,
    _angle_and_fspl,
    fspl_db,
    slant_distance,
)
from uavcov.coverage import RadioConfig, coverage_probability
from uavcov.errors import InputError
from uavcov.planner import (
    AXIS_ALTITUDE,
    AXIS_DISTANCE,
    AXIS_ELEVATION,
    DEFAULT_ALTITUDE_SWEEP,
    DEFAULT_ANGLE_SWEEP,
    DEFAULT_DISTANCE_SWEEP,
    MAX_GRID_POINTS,
    AltitudeOptimum,
    SweepSpec,
    max_coverage_radius,
    optimal_altitude,
    run_sweep,
    sweep_grid,
)

ALL_ENVS = tuple(BUILTIN_ENVIRONMENTS.values())


def angle_spec(**overrides):
    base = dict(
        axis=AXIS_ELEVATION,
        start=0.5,
        stop=90.0,
        step=0.5,
        environments=ALL_ENVS,
        baseline=LinkGeometry(200.0, 100.0),
        radio=RadioConfig(),
    )
    base.update(overrides)
    return SweepSpec(**base)


def brute_force_best_altitude(r_edge, env, radio, h_min, h_max, steps, mode="standard"):
    """Plain-loop argmax over the same altitude grid, first maximum wins."""
    best_h, best_cov = None, -1.0
    for h in np.linspace(h_min, h_max, steps):
        cov = coverage_probability(LinkGeometry(r_edge, float(h)), env, radio, mode).p_cov
        if cov > best_cov:
            best_h, best_cov = float(h), cov
    return best_h, best_cov


def brute_force_radius(h, env, radio, target, r_max, resolution, mode="standard"):
    """Plain-loop scan of every grid radius, keeping the largest that qualifies."""
    best = 0.0
    k = 0
    while k * resolution <= r_max + 1e-9 * resolution:
        r = k * resolution
        if coverage_probability(LinkGeometry(r, h), env, radio, mode).p_cov >= target:
            best = r
        k += 1
    return best


class TestRunSweep:
    def test_default_angle_grid_shape(self):
        result = run_sweep(angle_spec())
        assert len(result.rows) == 180
        assert result.environment_names == tuple(e.name for e in ALL_ENVS)
        values = [row.axis_value for row in result.rows]
        assert values[0] == pytest.approx(0.5)
        assert values[-1] == pytest.approx(90.0)
        assert np.all(np.diff(values) > 0)

    def test_suburban_crosses_097_by_20_degrees(self):
        result = run_sweep(angle_spec(environments=(SUBURBAN,)))
        for row in result.rows:
            if row.axis_value >= 20.0:
                assert row.cells[0].p_los >= 0.97

    def test_degenerate_grid_single_row(self):
        spec = angle_spec(axis=AXIS_DISTANCE, start=100.0, stop=150.0, step=500.0)
        result = run_sweep(spec)
        assert len(result.rows) == 1
        assert result.rows[0].axis_value == pytest.approx(100.0)

    def test_distance_sweep_path_loss_band(self):
        spec = angle_spec(
            axis=AXIS_DISTANCE, start=15.0, stop=500.0, step=5.0,
            baseline=LinkGeometry(0.0, 100.0),
        )
        result = run_sweep(spec)
        assert len(result.rows) == 98
        for row in result.rows:
            d = slant_distance(LinkGeometry(row.axis_value, 100.0))
            base = fspl_db(2e9, d)
            for env, cell in zip(ALL_ENVS, row.cells):
                assert base + env.mu_los_db - 1e-9 <= cell.mean_pl_db
                assert cell.mean_pl_db <= base + env.mu_nlos_db + 1e-9

    def test_environment_order_permutes_columns(self):
        fwd = run_sweep(angle_spec(environments=(URBAN, SUBURBAN)))
        rev = run_sweep(angle_spec(environments=(SUBURBAN, URBAN)))
        assert fwd.environment_names == ("urban", "suburban")
        assert rev.environment_names == ("suburban", "urban")
        for row_f, row_r in zip(fwd.rows, rev.rows):
            assert row_f.axis_value == row_r.axis_value
            assert row_f.cells[0] == row_r.cells[1]
            assert row_f.cells[1] == row_r.cells[0]

    def test_angle_sweep_couples_distance_through_altitude(self):
        spec = angle_spec(start=30.0, stop=30.0, step=1.0, environments=(URBAN,),
                          baseline=LinkGeometry(0.0, 100.0))
        row = run_sweep(spec).rows[0]
        r0 = 100.0 / math.tan(math.radians(30.0))
        expect = coverage_probability(LinkGeometry(r0, 100.0), URBAN, RadioConfig()).p_cov
        assert row.cells[0].p_cov == pytest.approx(expect, abs=1e-12)

    def test_zenith_row_matches_overhead_geometry(self):
        spec = angle_spec(start=90.0, stop=90.0, step=1.0, environments=(URBAN,),
                          baseline=LinkGeometry(0.0, 100.0))
        row = run_sweep(spec).rows[0]
        expect = coverage_probability(LinkGeometry(0.0, 100.0), URBAN, RadioConfig())
        assert row.cells[0].p_los == expect.p_los
        assert row.cells[0].p_cov == expect.p_cov

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(start=50.0, stop=10.0, step=1.0),
            dict(step=0.0),
            dict(step=-1.0),
            dict(environments=()),
            dict(axis="frequency"),
            dict(start=0.0),  # angle sweep cannot start at zero elevation
            dict(stop=95.0),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(InputError):
            run_sweep(angle_spec(**kwargs))

    def test_coverage_non_increasing_with_distance_default_grids(self):
        spec = angle_spec(axis=AXIS_DISTANCE, start=15.0, stop=500.0, step=5.0,
                          baseline=LinkGeometry(0.0, 100.0))
        result = run_sweep(spec)
        for j in range(len(ALL_ENVS)):
            covs = [row.cells[j].p_cov for row in result.rows]
            assert np.all(np.diff(covs) <= 1e-15)


class TestOptimalAltitude:
    def test_tie_breaks_to_lowest(self):
        # threshold far below any loss saturates every altitude at p_cov == 1
        radio = RadioConfig(p_min_dbm=-500.0)
        (got,) = optimal_altitude(500.0, (URBAN,), radio, h_min=100.0, h_max=200.0, steps=2)
        assert got.h_star_m == 100.0
        assert got.p_cov_star == 1.0

    def test_matches_brute_force_default_grid(self):
        radio = RadioConfig()
        (got,) = optimal_altitude(500.0, (URBAN,), radio, h_min=50.0, h_max=2000.0, steps=1951)
        h_bf, cov_bf = brute_force_best_altitude(500.0, URBAN, radio, 50.0, 2000.0, 1951)
        assert got.h_star_m == h_bf
        assert got.p_cov_star == cov_bf

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(1234)
        for trial in range(10):
            r_edge = float(rng.uniform(50.0, 800.0))
            h_min = float(rng.uniform(20.0, 120.0))
            h_max = h_min + float(rng.uniform(200.0, 1500.0))
            steps = int(rng.integers(50, 400))
            env = ALL_ENVS[trial % 4]
            radio = RadioConfig(p_min_dbm=float(rng.uniform(-95.0, -60.0)))
            mode = "paper-literal" if trial % 3 == 0 else "standard"
            (got,) = optimal_altitude(r_edge, (env,), radio, h_min, h_max, steps, mode=mode)
            h_bf, cov_bf = brute_force_best_altitude(r_edge, env, radio, h_min, h_max, steps, mode)
            assert got.h_star_m == h_bf, f"trial {trial}"
            assert got.p_cov_star == cov_bf, f"trial {trial}"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(h_min=0.0, h_max=100.0),
            dict(h_min=200.0, h_max=100.0),
            dict(h_min=100.0, h_max=100.0),
            dict(steps=1),
            dict(r_edge=-5.0),
        ],
    )
    def test_invalid_ranges_rejected(self, kwargs):
        base = dict(r_edge=500.0, environments=(URBAN,), radio=RadioConfig(),
                    h_min=50.0, h_max=2000.0, steps=100)
        base.update(kwargs)
        with pytest.raises(InputError):
            optimal_altitude(**base)


class TestMaxCoverageRadius:
    def test_unreachable_target_returns_zero(self):
        radio = RadioConfig(p_min_dbm=0.0)  # threshold far above any received power
        got = max_coverage_radius(100.0, (URBAN,), radio, target=0.9,
                                  r_max_scan=1000.0, resolution=10.0)
        assert got == (0.0,)

    def test_saturated_target_returns_grid_edge(self):
        radio = RadioConfig(p_min_dbm=-500.0)
        got = max_coverage_radius(100.0, (URBAN,), radio, target=0.5,
                                  r_max_scan=995.0, resolution=10.0)
        assert got == (990.0,)

    def test_matches_brute_force(self):
        radio = RadioConfig(p_min_dbm=-72.0)
        (got,) = max_coverage_radius(100.0, (URBAN,), radio, target=0.9,
                                     r_max_scan=2000.0, resolution=5.0)
        expect = brute_force_radius(100.0, URBAN, radio, 0.9, 2000.0, 5.0)
        assert got == expect
        assert got > 0.0

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(77)
        for trial in range(10):
            h = float(rng.uniform(40.0, 500.0))
            target = float(rng.uniform(0.2, 0.98))
            resolution = float(rng.choice([2.0, 5.0, 12.5]))
            r_max = float(rng.uniform(300.0, 1500.0))
            env = ALL_ENVS[trial % 4]
            radio = RadioConfig(p_min_dbm=float(rng.uniform(-90.0, -60.0)))
            (got,) = max_coverage_radius(h, (env,), radio, target, r_max, resolution)
            expect = brute_force_radius(h, env, radio, target, r_max, resolution)
            assert got == expect, f"trial {trial}"

    @pytest.mark.parametrize(
        "kwargs",
        [dict(target=0.0), dict(target=1.0), dict(target=-0.2), dict(resolution=0.0),
         dict(resolution=-1.0)],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        base = dict(h=100.0, environments=(URBAN,), radio=RadioConfig(), target=0.9,
                    r_max_scan=500.0, resolution=5.0)
        base.update(kwargs)
        with pytest.raises(InputError):
            max_coverage_radius(**base)


def test_default_grids():
    assert DEFAULT_ANGLE_SWEEP == (0.5, 90.0, 0.5)
    assert DEFAULT_DISTANCE_SWEEP == (15.0, 500.0, 5.0)
    assert DEFAULT_ALTITUDE_SWEEP == (50.0, 2000.0, 1.0)


class TestGridCap:
    """Grids larger than MAX_GRID_POINTS are refused before anything is allocated."""

    CALLS = {
        "step": lambda step: sweep_grid(
            angle_spec(axis=AXIS_DISTANCE, start=0.0, stop=1000.0, step=step)),
        "resolution": lambda step: max_coverage_radius(
            100.0, (URBAN,), RadioConfig(), target=0.9, r_max_scan=1000.0, resolution=step),
    }

    @pytest.mark.parametrize("field", sorted(CALLS))
    @pytest.mark.parametrize("step", [1e-9, 5e-324, 1000.0 / MAX_GRID_POINTS])
    def test_huge_grid_refused_without_allocating(self, field, step):
        tracemalloc.start()
        try:
            with pytest.raises(InputError) as info:
                self.CALLS[field](step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.field == field
        assert peak < 1 << 20

    def test_huge_steps_refused_without_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(InputError) as info:
                optimal_altitude(500.0, (URBAN,), RadioConfig(), 50.0, 2000.0,
                                 steps=MAX_GRID_POINTS + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.field == "steps"
        assert peak < 1 << 20

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(planner, "MAX_GRID_POINTS", 11)
        values = sweep_grid(angle_spec(axis=AXIS_DISTANCE, start=0.0, stop=10.0, step=1.0))[0]
        assert len(values) == 11
        assert max_coverage_radius(100.0, (URBAN,), RadioConfig(p_min_dbm=-500.0), 0.5,
                                   r_max_scan=10.0, resolution=1.0) == (10.0,)
        optimal_altitude(500.0, (URBAN,), RadioConfig(), 50.0, 60.0, steps=11)
        with pytest.raises(InputError):
            sweep_grid(angle_spec(axis=AXIS_DISTANCE, start=0.0, stop=11.0, step=1.0))
        with pytest.raises(InputError):
            max_coverage_radius(100.0, (URBAN,), RadioConfig(), 0.5, r_max_scan=11.0,
                                resolution=1.0)
        with pytest.raises(InputError):
            optimal_altitude(500.0, (URBAN,), RadioConfig(), 50.0, 60.0, steps=12)

    def test_benchmark_sized_grids_fit(self):
        # the largest grid the CLI benchmarks run: coverage-radius over 2000 m at 0.001 m
        radii = planner._grid(0.0, 2000.0, 0.001, "resolution")
        assert len(radii) == 2_000_001 < MAX_GRID_POINTS


def test_integer_grid_inputs_give_a_float_grid():
    spec = angle_spec(axis=AXIS_DISTANCE, start=0, stop=10, step=5, environments=(URBAN,))
    result = run_sweep(spec)
    assert result.axis_values.dtype == np.float64
    assert [type(row.axis_value) for row in result.rows] == [float, float, float]
    assert result.axis_values.tolist() == [0.0, 5.0, 10.0]
    assert result == run_sweep(angle_spec(axis=AXIS_DISTANCE, start=0.0, stop=10.0, step=5.0,
                                          environments=(URBAN,)))


def test_float_grid_keeps_its_bits():
    for start, stop, step in (DEFAULT_ANGLE_SWEEP, DEFAULT_DISTANCE_SWEEP, (0.0, 2000.0, 0.001)):
        n = math.floor((stop - start) / step + 1e-9) + 1
        expect = start + step * np.arange(n)
        assert planner._grid(start, stop, step, "step").tobytes() == expect.tobytes()


def _altitude_ranges(count: int, seed: int) -> list:
    """Log-uniform (h_min, h_max) pairs, wide and narrow, plus a range whose step is 0."""
    rng = np.random.default_rng(seed)
    low, high = -323.0, math.log10(MAX_LENGTH_M)
    ranges = [(5e-324, 1e-323)]
    for _ in range(count):
        a, b = sorted(10.0 ** rng.uniform(low, high, size=2))
        ranges.append((a, b))
        # a span far below h_min, where the rounding of h_min + k*step shows most
        ranges.append((b, min(b + b * 10.0 ** rng.uniform(-15.0, 0.0), MAX_LENGTH_M)))
    return [(float(a), float(b)) for a, b in ranges if 0.0 < a < b]


def _keep_every_block(n, coordinates, environments, radio, mode) -> list:
    """A stand-in for ``planner._block_bounds`` that proves nothing, so every block runs."""
    m = -(-n // planner._BLOCK)
    return [(np.full(2 * m, -math.inf), np.full(m, math.inf)) for _ in environments]


def _scanned_altitudes(monkeypatch, h_min, h_max, steps) -> list:
    """The altitude runs optimal_altitude hands the model, in scan order; none is skipped."""
    blocks = []

    def record(r0, h, f_c_hz):
        blocks.append(h)
        return np.zeros(np.size(h), dtype=int), np.zeros(np.size(h))

    monkeypatch.setattr(planner, "_angle_and_fspl", record)
    monkeypatch.setattr(planner, "_coverage_arrays", lambda theta, *rest: _PCov(theta))
    monkeypatch.setattr(planner, "_block_bounds", _keep_every_block)
    optimal_altitude(500.0, (URBAN,), RadioConfig(), h_min, h_max, steps)
    return blocks


class TestAltitudeBlocks:
    """optimal_altitude builds its altitudes per run of blocks, with np.linspace's bits."""

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("block", [97, planner._BLOCK])
    def test_blocks_are_linspace_bit_for_bit(self, monkeypatch, block, offset):
        monkeypatch.setattr(planner, "_BLOCK", block)
        run = planner._RUN_BLOCKS * block
        steps = run + offset
        for h_min, h_max in _altitude_ranges(20, seed=block + offset):
            blocks = _scanned_altitudes(monkeypatch, h_min, h_max, steps)
            assert [b.size for b in blocks] == [run] * (steps // run) + (
                [steps % run] if steps % run else [])
            expect = np.linspace(h_min, h_max, steps)
            assert np.concatenate(blocks).tobytes() == expect.tobytes(), (h_min, h_max)

    def test_a_step_that_underflows_takes_numpys_fallback(self, monkeypatch):
        # (1e-323 - 5e-324) / 3 rounds to 0: h_min + k*step would read 5e-324 at k = 2
        (got,) = _scanned_altitudes(monkeypatch, 5e-324, 1e-323, 4)
        assert got.tobytes() == np.linspace(5e-324, 1e-323, 4).tobytes()
        assert got[2] == 1e-323

    def test_the_optimum_at_the_last_point_is_h_max_itself(self):
        # 10 + (50/39999)*39999 reads 60.00000000000001; np.linspace pins its last point
        (got,) = optimal_altitude(500.0, (SUBURBAN,), RadioConfig(), 10.0, 60.0, 40000)
        assert got.h_star_m == 60.0


# block sizes: single points, sizes that do not divide the grid, the default, one block
BLOCKS = [1, 3, 7, planner._BLOCK, 10_000]


class _PCov(NamedTuple):
    p_cov: np.ndarray


class _Kernel:
    """A stand-in for both stages of the model: point k of the scan gets ``values[k]``.

    optimal_altitude scans altitudes 1, 2, ..., n and max_coverage_radius radii
    0, 1, ..., n - 1, so a point's coordinate gives its index, which the first
    stage passes on in place of the elevation angle. Crafted values obey no
    bound, so the planners skip no block.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def install(self, monkeypatch):
        monkeypatch.setattr(planner, "_angle_and_fspl", self.angle_and_fspl)
        monkeypatch.setattr(planner, "_coverage_arrays", self)
        monkeypatch.setattr(planner, "_block_bounds", _keep_every_block)

    @staticmethod
    def angle_and_fspl(r0, h, f_c_hz):
        index = np.asarray(h, dtype=int) - 1 if np.ndim(h) else np.asarray(r0, dtype=int)
        return index, index

    def __call__(self, theta, fspl, env, radio, mode):
        return _PCov(self.values[theta])


NAN = math.nan
CRAFTED = {
    "flat": [0.5] * 20,
    "ties-across-boundaries": [0.1] * 6 + [0.9, 0.9] + [0.2] * 5 + [0.9, 0.9] + [0.3] * 5,
    "later-strictly-larger": [0.4, 0.6, 0.6, 0.5, 0.6, 0.7, 0.7, 0.1, 0.7],
    "first-nan-wins": [0.1, 0.95, 0.3, 0.2, 0.1, 0.0, 0.5, NAN, 0.99, 1.0, NAN, 0.2],
    "nan-first": [NAN, 1.0, 1.0, NAN],
    "nan-after-boundary": [0.2] * 7 + [NAN] + [0.9] * 6,
    "signed-zeros": [-0.0, 0.0, -0.0, 0.0, -1.0, 0.0, -0.0],
    "last-point-qualifies": [0.95] + [0.1] * 12 + [0.95],
    "none-qualify": [0.1, NAN, 0.3, -math.inf, 0.89],
    "random": np.random.default_rng(8).choice([0.1, 0.5, 0.9, 0.95, NAN], size=57),
}


# radius scans of 4 blocks of 5 at target 0.9: (p_cov per point, the blocks that run)
RADIUS_RULE = {
    # block 1's last point qualifies and block 2's bound is below the target; block 0
    # qualifies too, but before the last qualifying end point
    "end-point-then-bound-below": ([0.95] + [0.1] * 8 + [0.95] + [0.1] * 5 + [0.2] * 5, [1]),
    # block 1's end points fail, but its interior point is the last qualifying one
    "interior-after-end-point": ([0.1] * 4 + [0.95] + [0.1] * 2 + [0.95] + [0.1] * 12, [0, 1]),
    # no end point qualifies: the blocks whose bound reaches the target
    "no-end-point": ([0.1, 0.95] + [0.1] * 10 + [0.92] + [0.1] * 7, [0, 2]),
    # nothing qualifies; block 1's NaN bound proves nothing, so it runs
    "none-qualify": ([0.1] * 7 + [NAN] + [0.5] * 12, [1]),
}


def _true_bounds(values):
    """A stand-in for ``planner._block_bounds``: the true end points, each block's maximum."""
    def block_bounds(n, coordinates, environments, radio, mode) -> list:
        blocks = [values[lo:lo + planner._BLOCK] for lo in range(0, n, planner._BLOCK)]
        ends = np.array([b[0] for b in blocks] + [b[-1] for b in blocks])
        return [(ends, np.array([b.max() for b in blocks]))] * len(environments)

    return block_bounds


def _same(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes() or (math.isnan(a) and math.isnan(b))


class TestBlockedScans:
    """The planners scan in blocks and must give what one whole-grid scan gives."""

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("name", sorted(CRAFTED))
    def test_crafted_p_cov_matches_whole_grid(self, monkeypatch, block, name):
        values = np.asarray(CRAFTED[name], dtype=float)
        n = len(values)
        monkeypatch.setattr(planner, "_BLOCK", block)
        _Kernel(values).install(monkeypatch)

        best = int(np.argmax(values))
        (got,) = optimal_altitude(500.0, (URBAN,), RadioConfig(), 1.0, float(n), n)
        assert got.h_star_m == best + 1.0
        assert _same(got.p_cov_star, values[best])

        qualifying = np.flatnonzero(values >= 0.9)
        got = max_coverage_radius(100.0, (URBAN,), RadioConfig(), 0.9, float(n - 1), 1.0)
        assert got == (float(qualifying[-1]) if qualifying.size else 0.0,)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("name", sorted(RADIUS_RULE))
    def test_radius_runs_from_the_last_qualifying_end_point(self, monkeypatch, name, workers):
        values, expect_ran = RADIUS_RULE[name]
        values = np.asarray(values, dtype=float)
        monkeypatch.setattr(planner, "_BLOCK", 5)
        kernel = _Kernel(values)
        kernel.install(monkeypatch)
        monkeypatch.setattr(planner, "_block_bounds", _true_bounds(values))
        ran = []

        def recorded(theta, *args):
            ran.extend(np.unique(theta // 5).tolist())
            return kernel(theta, *args)

        monkeypatch.setattr(planner, "_coverage_arrays", recorded)
        got = max_coverage_radius(100.0, (URBAN,), RadioConfig(), 0.9, float(len(values) - 1),
                                  1.0, workers=workers)
        qualifying = np.flatnonzero(values >= 0.9)
        assert got == (float(qualifying[-1]) if qualifying.size else 0.0,)
        assert sorted(ran) == expect_ran

    @pytest.mark.parametrize("mode", ["standard", "paper-literal"])
    @pytest.mark.parametrize("block", BLOCKS)
    def test_real_kernel_same_bits_as_one_call(self, monkeypatch, block, mode):
        n = 5003
        radio = RadioConfig(p_min_dbm=-75.0)
        altitudes = np.linspace(20.0, 3000.0, n)
        radii = 0.5 * np.arange(n)
        whole_h = planner._coverage_arrays(*_angle_and_fspl(400.0, altitudes, radio.f_c_hz),
                                           URBAN, radio, planner.FormulationMode(mode)).p_cov
        whole_r = planner._coverage_arrays(*_angle_and_fspl(radii, 150.0, radio.f_c_hz),
                                           URBAN, radio, planner.FormulationMode(mode)).p_cov

        monkeypatch.setattr(planner, "_BLOCK", block)
        first_stage, kernel = planner._angle_and_fspl, planner._coverage_arrays
        # each first stage's angle column with its (r0, h) coordinates; the kernel's p_cov
        # per call, with the coordinates of the slice of a first stage it ran on, or None
        stages, calls = [], []

        def angle_and_fspl(r0, h, f_c_hz):
            columns = first_stage(r0, h, f_c_hz)
            stages.append((columns[0], np.broadcast_arrays(r0, h)))
            return columns

        def wrapped(theta, *args):
            result = kernel(theta, *args)
            found = None
            for stage, coordinates in stages:
                if np.may_share_memory(theta, stage):
                    at = (theta.ctypes.data - stage.ctypes.data) // stage.itemsize
                    found = [c[at:at + theta.size] for c in coordinates]
            calls.append((found, result.p_cov))
            return result

        monkeypatch.setattr(planner, "_angle_and_fspl", angle_and_fspl)
        monkeypatch.setattr(planner, "_coverage_arrays", wrapped)

        def evaluated(axis, coordinate, whole) -> int:
            # a call on a run of a first stage is that run's byte-equal slice of the
            # whole-grid call; the one other call is the bound's, over 4 points per block
            bound_calls, points_run = [], 0
            for block_points, p_cov in calls:
                if block_points is None:
                    bound_calls.append(p_cov.size)
                    continue
                values = block_points[coordinate]
                lo = int(np.searchsorted(axis, values[0]))
                assert axis[lo:lo + values.size].tobytes() == values.tobytes()
                assert p_cov.tobytes() == whole[lo:lo + values.size].tobytes()
                points_run += p_cov.size
            assert bound_calls == [4 * -(-n // block)]
            calls.clear()
            stages.clear()
            return points_run

        (got,) = optimal_altitude(400.0, (URBAN,), radio, 20.0, 3000.0, n, mode)
        assert evaluated(altitudes, 1, whole_h) < n or block >= n
        best = int(np.argmax(whole_h))
        assert (got.h_star_m, got.p_cov_star) == (altitudes[best], whole_h[best])

        (got,) = max_coverage_radius(150.0, (URBAN,), radio, 0.6, 0.5 * (n - 1), 0.5, mode)
        assert evaluated(radii, 0, whole_r) < n or block >= n
        qualifying = radii[whole_r >= 0.6]
        assert 0 < qualifying.size < n
        assert got == qualifying[-1]


class _Pools:
    """Records the size of every pool the planners start; ``cpus`` usable CPUs."""

    def __init__(self, monkeypatch, cpus=8):
        self.sizes = []
        pool = planner.ThreadPoolExecutor

        def recorded(max_workers):
            self.sizes.append(max_workers)
            return pool(max_workers)

        monkeypatch.setattr(planner, "ThreadPoolExecutor", recorded)
        monkeypatch.setattr(planner.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)


def _scans(environments, radio, n, mode="standard", workers=1):
    """Both planners on ``n``-point grids: altitudes 20..3000 m and radii 0.5 m apart."""
    return (optimal_altitude(400.0, environments, radio, 20.0, 3000.0, n, mode, workers),
            max_coverage_radius(150.0, environments, radio, 0.6, 0.5 * (n - 1), 0.5, mode,
                                workers))


# a small block, so that grids of a few runs of blocks stay cheap
SPAN_BLOCK = 64
SPAN_RUN = planner._RUN_BLOCKS * SPAN_BLOCK


class TestSpanScans:
    """Every environment in one scan, on contiguous spans of blocks over the pool."""

    @pytest.mark.parametrize("mode", ["standard", "paper-literal"])
    def test_environments_together_equal_each_alone(self, monkeypatch, mode):
        monkeypatch.setattr(planner, "_BLOCK", SPAN_BLOCK)
        first_stage = []
        angle_and_fspl = planner._angle_and_fspl

        def counted(r0, h, f_c_hz):
            first_stage.append(np.atleast_1d(h))
            return angle_and_fspl(r0, h, f_c_hz)

        monkeypatch.setattr(planner, "_angle_and_fspl", counted)
        radio = RadioConfig(p_min_dbm=-75.0)
        optima = optimal_altitude(400.0, ALL_ENVS, radio, 20.0, 3000.0, 5 * SPAN_BLOCK + 3, mode,
                                  workers=2)
        # the end points of the 6 blocks, then the angle and FSPL of each run of blocks that
        # some environment keeps, once for all environments: the grid is one run long
        assert first_stage[0].size == 12
        kept = [h[0] for h in first_stage[1:]]
        assert len(kept) == 1
        radii = max_coverage_radius(150.0, ALL_ENVS, radio, 0.6, 0.5 * (5 * SPAN_BLOCK + 2), 0.5,
                                    mode, workers=2)
        assert len(optima) == len(radii) == len(ALL_ENVS)
        for env, optimum, radius in zip(ALL_ENVS, optima, radii):
            (alone,), (alone_radius,) = _scans((env,), radio, 5 * SPAN_BLOCK + 3, mode)
            assert _same(optimum.h_star_m, alone.h_star_m)
            assert _same(optimum.p_cov_star, alone.p_cov_star)
            assert _same(radius, alone_radius)

    @pytest.mark.parametrize("n", [k * SPAN_RUN + d for k in (1, 2, 5) for d in (-1, 0, 1)])
    def test_same_results_at_one_to_four_workers(self, monkeypatch, n):
        monkeypatch.setattr(planner, "_BLOCK", SPAN_BLOCK)
        pools = _Pools(monkeypatch)
        radio = RadioConfig(p_min_dbm=-75.0)
        results = {workers: _scans(ALL_ENVS, radio, n, workers=workers) for workers in range(1, 5)}
        for got in results.values():
            assert [astuple(o) for o in got[0]] == [astuple(o) for o in results[1][0]]
            assert got[1] == results[1][1]
        # a pool per altitude scan and per radius scan, one thread per span
        assert len(pools.sizes) >= 8 and max(pools.sizes) <= min(4, -(-n // SPAN_BLOCK))

    def test_more_threads_than_cores_switching_often(self, monkeypatch):
        # spans share only read-only inputs; each keeps its own results
        monkeypatch.setattr(planner, "_BLOCK", SPAN_BLOCK)
        _Pools(monkeypatch, cpus=16)
        radio = RadioConfig(p_min_dbm=-75.0)
        serial = _scans(ALL_ENVS, radio, 16 * SPAN_RUN + 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = _scans(ALL_ENVS, radio, 16 * SPAN_RUN + 1, workers=16)
        finally:
            sys.setswitchinterval(interval)
        assert [astuple(o) for o in threaded[0]] == [astuple(o) for o in serial[0]]
        assert threaded[1] == serial[1]

    def test_a_tie_across_spans_breaks_to_the_lowest_altitude(self, monkeypatch):
        monkeypatch.setattr(planner, "_BLOCK", SPAN_BLOCK)
        pools = _Pools(monkeypatch)
        # a threshold far below any loss: every p_cov is 1.0
        optima, radii = _scans(ALL_ENVS, RadioConfig(p_min_dbm=-500.0), 10 * SPAN_RUN,
                               workers=4)
        assert pools.sizes == [4, 1]
        assert [(o.h_star_m, o.p_cov_star) for o in optima] == [(20.0, 1.0)] * len(ALL_ENVS)
        assert radii == (0.5 * (10 * SPAN_RUN - 1),) * len(ALL_ENVS)

    def test_last_qualifying_radius_at_the_first_point_of_the_last_span(self, monkeypatch):
        # 160 points in 4 runs of 8 blocks of 5 at 3 threads; the stub proves nothing, so
        # all 4 runs go in one scan of 3 spans
        monkeypatch.setattr(planner, "_BLOCK", 5)
        run = planner._RUN_BLOCKS * 5
        _Pools(monkeypatch)
        values = ([0.95] * 3 + [0.1] * (2 * run - 3) + [0.95] + [0.1] * (run - 1) + [0.95]
                  + [0.1] * (run - 1))
        _Kernel(values).install(monkeypatch)
        spans = []
        map_on_pool = planner._map_on_pool

        def recorded(fn, items, workers):
            spans.extend(items)
            return map_on_pool(fn, items, workers)

        monkeypatch.setattr(planner, "_map_on_pool", recorded)
        got = max_coverage_radius(100.0, (URBAN, SUBURBAN), RadioConfig(), 0.9,
                                  float(4 * run - 1), 1.0, workers=3)
        assert [[lo for lo, _, _ in span] for span in spans] == [[0], [run], [2 * run, 3 * run]]
        assert got == (3.0 * run, 3.0 * run)

    def test_no_environments_start_no_pool(self, monkeypatch):
        def refuse(max_workers):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(planner, "ThreadPoolExecutor", refuse)
        assert optimal_altitude(500.0, (), RadioConfig(), 50.0, 2000.0, 100, workers=2) == ()
        assert max_coverage_radius(100.0, [], RadioConfig(), 0.9, 500.0, 5.0, workers=2) == ()
        # nor a scan in which no environment keeps a block: no bound reaches the target
        assert max_coverage_radius(100.0, ALL_ENVS, RadioConfig(p_min_dbm=50.0), 0.9, 2000.0,
                                   0.1, workers=2) == (0.0,) * len(ALL_ENVS)
        # the arguments are still checked
        with pytest.raises(InputError):
            optimal_altitude(500.0, (), RadioConfig(), 50.0, 2000.0, 1)


class TestMergedRuns:
    """Kept blocks reach the model merged into runs of at most ``_RUN_BLOCKS`` blocks."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_a_scan_of_every_block_runs_the_aligned_runs(self, monkeypatch, workers, extra):
        # the stub proves nothing, so both planners run every block, as the worst case does:
        # one first stage per run for all environments, and one kernel call per run for
        # each environment, never one per block
        monkeypatch.setattr(planner, "_BLOCK", 5)
        _Pools(monkeypatch)
        run = 8 * 5  # 2**14 points at the default block, as a sweep's calls
        n = 3 * run + extra
        values = np.random.default_rng(n).random(n)
        kernel = _Kernel(values)
        kernel.install(monkeypatch)
        stages, calls = [], []

        def angle_and_fspl(r0, h, f_c_hz):
            index, _ = _Kernel.angle_and_fspl(r0, h, f_c_hz)
            stages.append((int(index[0]), int(index[-1]) + 1))
            return index, index

        def recorded(theta, fspl, env, *rest):
            calls.append((env.name, int(theta[0]), int(theta[-1]) + 1))
            return kernel(theta, fspl, env, *rest)

        monkeypatch.setattr(planner, "_angle_and_fspl", angle_and_fspl)
        monkeypatch.setattr(planner, "_coverage_arrays", recorded)
        runs = [(lo, min(lo + run, n)) for lo in range(0, n, run)]
        assert len(runs) == -(-n // run)
        scans = [
            (lambda: optimal_altitude(500.0, (URBAN, SUBURBAN), RadioConfig(), 1.0, float(n), n,
                                      workers=workers),
             (AltitudeOptimum(float(np.argmax(values) + 1), float(values.max())),) * 2),
            (lambda: max_coverage_radius(100.0, (URBAN, SUBURBAN), RadioConfig(), 0.9,
                                         float(n - 1), 1.0, workers=workers),
             (float(np.flatnonzero(values >= 0.9)[-1]),) * 2),
        ]
        for scan, expect in scans:
            stages.clear()
            calls.clear()
            assert scan() == expect
            assert sorted(stages) == runs
            for env in (URBAN, SUBURBAN):
                assert sorted(lh for name, *lh in calls if name == env.name) == [
                    list(r) for r in runs]

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_each_environment_runs_its_own_kept_blocks(self, monkeypatch, workers):
        monkeypatch.setattr(planner, "_BLOCK", 5)
        _Pools(monkeypatch)
        assert planner._RUN_BLOCKS == 8  # runs end at multiples of 40 points
        # 93 points in 19 blocks, the last of 3. "a" keeps a whole run, two blocks past its
        # end and the last block; "b" three separate stretches; "c" nothing
        kept = [[0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 90], [10, 15, 25, 50, 55, 60], []]
        stages, calls = [], []

        def angle_and_fspl(r0, h, f_c_hz):
            stages.append((int(r0[0]), int(r0[-1]) + 1))
            return r0, r0

        def kernel(theta, fspl, env, radio, mode):
            calls.append(env)
            return _PCov(theta)

        monkeypatch.setattr(planner, "_angle_and_fspl", angle_and_fspl)
        monkeypatch.setattr(planner, "_coverage_arrays", kernel)
        got = planner._scan(93, kept, lambda k: (k, 100.0), ("a", "b", "c"), RadioConfig(),
                            planner.FormulationMode.STANDARD, workers,
                            lambda lo, columns: (lo, columns.p_cov.size))
        # the first stage runs once on each run of the blocks that some environment keeps
        assert sorted(stages) == [(0, 40), (40, 65), (90, 93)]
        assert got == [[(0, 40), (40, 10), (90, 3)], [(10, 10), (25, 5), (50, 15)], []]
        assert sorted(calls) == ["a"] * 3 + ["b"] * 3


# the traced peak of a scan: one run of the kernel's columns and temporaries, whatever
# the grid size, since no scan holds its axis, and the bound pass's columns at 4 points
# per block (both traced 0.17-0.80 MiB at 2**16 to 2**22 points and 3.2 MiB at the
# 2**24-point cap; 1.26-1.28 MiB at 2**22 with 2**14-point blocks)
SCAN_PEAK_BOUND = 4 << 20


@pytest.mark.parametrize("n", [1 << 16, 1 << 20, 1 << 22, MAX_GRID_POINTS])
@pytest.mark.parametrize("scan", ["optimal_altitude", "max_coverage_radius"])
def test_scan_memory_is_one_block(scan, n):
    calls = {
        "optimal_altitude": lambda: optimal_altitude(500.0, (URBAN,), RadioConfig(), 50.0,
                                                     2000.0, n),
        "max_coverage_radius": lambda: max_coverage_radius(100.0, (URBAN,), RadioConfig(), 0.9,
                                                           float(n - 1), 1.0),
    }
    tracemalloc.start()
    try:
        calls[scan]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SCAN_PEAK_BOUND


SIGMAS = (1e-150, 1e-9, 0.5, 3.0, 8.0, 3000.0)


def _random_environment(rng) -> EnvironmentProfile:
    """Random sigmoid and loss parameters; some with equal means, sigmas at both bounds."""
    def sigma() -> float:
        return float(rng.choice(SIGMAS) if rng.random() < 0.6 else 10.0 ** rng.uniform(-3, 3))

    mu_los = float(rng.uniform(0.0, 10.0))
    mu_nlos = mu_los if rng.random() < 0.2 else mu_los + float(rng.uniform(0.0, 40.0))
    return EnvironmentProfile("random", a=float(10.0 ** rng.uniform(-1, 2)),
                              b=float(10.0 ** rng.uniform(-2, 1)), mu_los_db=mu_los,
                              mu_nlos_db=mu_nlos, sigma_los_db=sigma(), sigma_nlos_db=sigma())


def _random_altitudes(rng, n: int) -> tuple:
    """(r_edge, altitudes, coordinates): an altitude grid as optimal_altitude scans it.

    The edge distance may be 0; the span runs from a few ulps to orders of
    magnitude, and some grids end at ``MAX_LENGTH_M``.
    """
    r_edge = 0.0 if rng.random() < 0.2 else float(10.0 ** rng.uniform(-3, 5))
    if rng.random() < 0.2:
        h_min, h_max = MAX_LENGTH_M * (1.0 - 10.0 ** rng.uniform(-15, -1)), MAX_LENGTH_M
    else:
        h_min = float(10.0 ** rng.uniform(-2, 5))
        h_max = h_min * (1.0 + 10.0 ** rng.uniform(-13, 2))
    values = np.linspace(h_min, h_max, n)
    return r_edge, values, lambda k: (r_edge, values[k])


def _random_radii(rng, n: int) -> tuple:
    """(h, radii, coordinates): a distance grid from 0 as max_coverage_radius scans it.

    The grid holds about ``n`` points; some altitudes and scan limits reach
    ``MAX_LENGTH_M``'s order.
    """
    h = MAX_LENGTH_M if rng.random() < 0.1 else float(10.0 ** rng.uniform(-2, 5))
    r_max = float(10.0 ** (rng.uniform(-2, 307) if rng.random() < 0.2 else rng.uniform(-1, 5)))
    values = planner._grid(0.0, r_max, r_max / (n - 1), "resolution")
    return h, values, lambda k: (values[k], h)


def _random_radio(rng, env, mode, theta, fspl) -> RadioConfig:
    """A threshold that puts the coverage edge near one of the points, on one, or far off.

    On one: a tail's deficit is ~0 there, a step where that tail's sigma is tiny.
    """
    choice = rng.random()
    if choice < 0.15:
        return RadioConfig(p_min_dbm=-3000.0)  # p_cov stuck at 1 (but at the farthest links)
    if choice < 0.3:
        return RadioConfig(p_min_dbm=3000.0)  # p_cov stuck at 0 (but where sigma is huge)
    columns = planner._coverage_arrays(theta, fspl, env, RadioConfig(),
                                       planner.FormulationMode(mode))
    loss = columns.mean_pl_db if mode == "paper-literal" else columns.fspl_db
    budget = RadioConfig().p_tx_dbm + RadioConfig().g_db
    if choice < 0.7:
        p_min = budget - float(rng.choice(loss)) - rng.choice([env.mu_los_db, env.mu_nlos_db])
    else:
        p_min = budget - float(np.median(loss)) + float(rng.normal(0.0, 30.0))
    return RadioConfig(p_min_dbm=float(np.clip(p_min, -3000.0, 3000.0)))


def _whole_grid(coordinates, n, env, radio, mode) -> np.ndarray:
    return planner._coverage_arrays(*_angle_and_fspl(*coordinates(np.arange(n)), radio.f_c_hz),
                                    env, radio, planner.FormulationMode(mode)).p_cov


@pytest.mark.parametrize("seed", range(8))
def test_block_bounds_hold_for_every_point_of_every_block(monkeypatch, seed):
    """p_cov never exceeds its block's bound, nor at the block's corners a few ulps out.

    The kernel's first stage is monotone along either axis only up to its own
    rounding, so the bound must also cover points whose angle and FSPL lie
    those few ulps past the block's end points, even where sigma = 1e-150
    makes a tail a step.
    """
    rng = np.random.default_rng(seed)
    for case in range(40):
        block = int(rng.choice([1, 7, 64, 257]))
        monkeypatch.setattr(planner, "_BLOCK", block)
        scan = _random_altitudes if rng.random() < 0.5 else _random_radii
        _, values, coordinates = scan(rng, int(rng.integers(2, 1500)))
        n = len(values)
        theta, fspl = _angle_and_fspl(*coordinates(np.arange(n)), RadioConfig().f_c_hz)
        env = _random_environment(rng)
        mode = planner.FormulationMode(rng.choice(["standard", "paper-literal"]))
        # the edge near a block's first point, where its FSPL is lowest
        radio = _random_radio(rng, env, mode, theta[::block], fspl[::block])
        p_cov = planner._coverage_arrays(theta, fspl, env, radio, mode).p_cov
        ((at_ends, bound),) = planner._block_bounds(n, coordinates, (env,), radio, mode)
        # p_cov at the blocks' first points, then at their last points, bit for bit
        end_points = np.r_[0:n:block, block - 1:n - 1:block, n - 1]
        assert at_ends.tobytes() == p_cov[end_points].tobytes(), (seed, case)
        for j, lo in enumerate(range(0, n, block)):
            hi = min(lo + block, n)
            assert not (p_cov[lo:hi] > bound[j]).any(), (seed, case, j)
            ends = np.array([lo, hi - 1])
            nudge = 8 * np.spacing(theta[ends]).max()
            low = fspl[ends].min()
            corners = planner._coverage_arrays(
                np.array([theta[ends].min() - nudge, theta[ends].max() + nudge]),
                np.full(2, low - 8 * np.spacing(low)), env, radio, mode).p_cov
            assert not (corners > bound[j]).any(), (seed, case, j)


@pytest.mark.parametrize("seed", range(8))
def test_block_bounds_are_never_looser_than_a_margin_of_the_larger_tail(monkeypatch, seed):
    """Over the cases above, each bound is at most the mix plus ``_MARGIN`` of the larger
    corner tail and ``_TINY``, the bound's slack before tails were charged from the nearer
    of 0 and 1, plus the ulp terms: no input loses pruning, deep tails and
    paper-literal mode included."""
    block_bounds, kernel, checked = planner._block_bounds, planner._coverage_arrays, []
    eps = np.finfo(float).eps

    def compared(n, coordinates, environments, radio, mode):
        calls = []

        def recorded(*args):
            calls.append(kernel(*args))
            return calls[-1]

        monkeypatch.setattr(planner, "_coverage_arrays", recorded)
        try:
            result = block_bounds(n, coordinates, environments, radio, mode)
        finally:
            monkeypatch.setattr(planner, "_coverage_arrays", kernel)
        for columns, (_, bound) in zip(calls, result):
            m = len(bound)
            q_los, q_nlos = columns.q_los[3 * m:], columns.q_nlos[3 * m:]
            larger = np.maximum(q_los, q_nlos)
            mixes = (q_nlos + p_los * (q_los - q_nlos)
                     for p_los in (columns.p_los[2 * m:3 * m], columns.p_los[3 * m:]))
            margin = np.maximum(*mixes) + planner._MARGIN * larger + planner._TINY
            # to within the rounding of the two sums
            limit = (margin + (planner._TAIL_ULPS + planner._MIX_ULPS) * larger
                     + 4 * eps * margin)
            assert not (bound > limit).any(), (seed, len(checked))
            checked.append(m)
        return result

    monkeypatch.setattr(planner, "_block_bounds", compared)
    test_block_bounds_hold_for_every_point_of_every_block(monkeypatch, seed)
    assert len(checked) == 40


@pytest.mark.parametrize("seed", range(6))
def test_pruned_planners_equal_the_whole_grid_at_one_to_four_workers(monkeypatch, seed):
    """Both planners against an argmax and a last-qualifying scan of one whole-grid kernel call."""
    monkeypatch.setattr(planner.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    monkeypatch.setattr(planner, "_BLOCK", 64)
    kernel, points = planner._coverage_arrays, []

    def counted(*args):
        result = kernel(*args)
        points.append(result.p_cov.size)
        return result

    rng = np.random.default_rng(100 + seed)
    skipped = 0
    for case in range(13):
        if case < 12:
            r_edge, altitudes, heights = _random_altitudes(rng, int(rng.integers(2, 3000)))
            h, radii, distances = _random_radii(rng, int(rng.integers(2, 3000)))
            envs = tuple(_random_environment(rng) for _ in range(int(rng.integers(1, 4))))
            mode = str(rng.choice(["standard", "paper-literal"]))
            radio = _random_radio(rng, envs[0], mode,
                                  *_angle_and_fspl(*distances(np.arange(len(radii))), 2e9))
        else:
            # one case that prunes on purpose, whatever the random ones do: a built-in
            # environment on grids of 47 blocks, most of them far below the optimum
            r_edge, altitudes = 500.0, np.linspace(20.0, 3000.0, 3000)
            h, radii = 100.0, planner._grid(0.0, 3000.0, 1.0, "resolution")

            def heights(k):
                return r_edge, altitudes[k]

            def distances(k):
                return radii[k], h

            envs, mode, radio = (ALL_ENVS[seed % len(ALL_ENVS)],), "standard", RadioConfig()
        whole_h = [_whole_grid(heights, len(altitudes), env, radio, mode) for env in envs]
        whole_r = [_whole_grid(distances, len(radii), env, radio, mode) for env in envs]
        # a target that some grid point meets exactly, or a random one
        met = np.concatenate(whole_r)
        met = met[(met > 0.0) & (met < 1.0)]
        target = float(rng.choice(met) if met.size and rng.random() < 0.5
                       else rng.uniform(0.01, 0.99))
        expect_h = [(altitudes[k], p[k]) for p in whole_h for k in [int(np.argmax(p))]]
        expect_r = [float(radii[q[-1]]) if q.size else 0.0
                    for q in (np.flatnonzero(p >= target) for p in whole_r)]
        monkeypatch.setattr(planner, "_coverage_arrays", counted)
        for workers in range(1, 5):
            points.clear()
            got = optimal_altitude(r_edge, envs, radio, altitudes[0], altitudes[-1],
                                   len(altitudes), mode, workers)
            assert [(o.h_star_m, o.p_cov_star) for o in got] == expect_h, (seed, case, workers)
            assert all(_same(o.p_cov_star, p) for o, (_, p) in zip(got, expect_h))
            skipped += sum(points) < len(envs) * len(altitudes)
            got = max_coverage_radius(h, envs, radio, target, radii[-1], radii[1], mode, workers)
            assert list(got) == expect_r, (seed, case, workers)
        monkeypatch.setattr(planner, "_coverage_arrays", kernel)
    assert skipped  # the bound ruled some blocks out


def test_a_nan_bound_keeps_its_block(monkeypatch):
    monkeypatch.setattr(planner, "_BLOCK", SPAN_BLOCK)
    radio, n = RadioConfig(p_min_dbm=-75.0), 20 * SPAN_BLOCK
    expect = _scans(ALL_ENVS, radio, n)
    bounds, kernel, points = planner._block_bounds, planner._coverage_arrays, []

    def nan_bounds(*args):
        return [(lower, np.full_like(bound, math.nan)) for lower, bound in bounds(*args)]

    def counted(*args):
        result = kernel(*args)
        points.append(result.p_cov.size)
        return result

    monkeypatch.setattr(planner, "_block_bounds", nan_bounds)
    monkeypatch.setattr(planner, "_coverage_arrays", counted)
    optima = optimal_altitude(400.0, ALL_ENVS, radio, 20.0, 3000.0, n)
    # each environment's bound call over 4 points per block, then every block
    assert sum(points) == len(ALL_ENVS) * (4 * 20 + n)
    radii = max_coverage_radius(150.0, ALL_ENVS, radio, 0.6, 0.5 * (n - 1), 0.5)
    assert (optima, radii) == expect
