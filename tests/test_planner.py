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


def _scanned_altitudes(monkeypatch, h_min, h_max, steps) -> list:
    """The altitude blocks optimal_altitude hands the model, in scan order."""
    blocks = []

    def record(r0, h, f_c_hz):
        blocks.append(h)
        return np.zeros(np.size(h), dtype=int), None

    monkeypatch.setattr(planner, "_angle_and_fspl", record)
    monkeypatch.setattr(planner, "_coverage_arrays", lambda theta, *rest: _PCov(theta))
    optimal_altitude(500.0, (URBAN,), RadioConfig(), h_min, h_max, steps)
    return blocks


class TestAltitudeBlocks:
    """optimal_altitude builds its altitudes per block, with np.linspace's bits."""

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("block", [97, planner._BLOCK])
    def test_blocks_are_linspace_bit_for_bit(self, monkeypatch, block, offset):
        monkeypatch.setattr(planner, "_BLOCK", block)
        steps = block + offset
        for h_min, h_max in _altitude_ranges(20, seed=block + offset):
            blocks = _scanned_altitudes(monkeypatch, h_min, h_max, steps)
            assert [b.size for b in blocks] == [block] * (steps // block) + (
                [steps % block] if steps % block else [])
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
    stage passes on in place of the elevation angle.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def install(self, monkeypatch):
        monkeypatch.setattr(planner, "_angle_and_fspl", self.angle_and_fspl)
        monkeypatch.setattr(planner, "_coverage_arrays", self)

    @staticmethod
    def angle_and_fspl(r0, h, f_c_hz):
        index = np.asarray(h, dtype=int) - 1 if np.ndim(h) else np.asarray(r0, dtype=int)
        return index, None

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
        kernel = planner._coverage_arrays
        sizes, blocks = [], []

        def wrapped(*args, **kwargs):
            result = kernel(*args, **kwargs)
            sizes.append(result[-1].size)
            blocks.append(result.p_cov)
            return result

        monkeypatch.setattr(planner, "_coverage_arrays", wrapped)
        (got,) = optimal_altitude(400.0, (URBAN,), radio, 20.0, 3000.0, n, mode)
        # the tracer's coverage.kernel_points sums the sizes of the wrapped calls
        assert sum(sizes) == n and len(sizes) == -(-n // block)
        assert np.concatenate(blocks).tobytes() == whole_h.tobytes()
        best = int(np.argmax(whole_h))
        assert (got.h_star_m, got.p_cov_star) == (altitudes[best], whole_h[best])

        sizes.clear()
        blocks.clear()
        (got,) = max_coverage_radius(150.0, (URBAN,), radio, 0.6, 0.5 * (n - 1), 0.5, mode)
        assert sum(sizes) == n
        assert np.concatenate(blocks).tobytes() == whole_r.tobytes()
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


# a small block, so that grids of a few blocks stay cheap
SPAN_BLOCK = 64


class TestSpanScans:
    """Every environment in one scan, on contiguous spans of blocks over the pool."""

    @pytest.mark.parametrize("mode", ["standard", "paper-literal"])
    def test_environments_together_equal_each_alone(self, monkeypatch, mode):
        monkeypatch.setattr(planner, "_BLOCK", SPAN_BLOCK)
        first_stage = []
        angle_and_fspl = planner._angle_and_fspl

        def counted(r0, h, f_c_hz):
            first_stage.append(np.size(r0) * np.size(h))
            return angle_and_fspl(r0, h, f_c_hz)

        monkeypatch.setattr(planner, "_angle_and_fspl", counted)
        radio = RadioConfig(p_min_dbm=-75.0)
        optima, radii = _scans(ALL_ENVS, radio, 5 * SPAN_BLOCK + 3, mode, workers=2)
        # the angle and FSPL of each of the 6 blocks of each scan, once for all environments
        assert sorted(first_stage) == [3, 3] + [SPAN_BLOCK] * 10
        assert len(optima) == len(radii) == len(ALL_ENVS)
        for env, optimum, radius in zip(ALL_ENVS, optima, radii):
            (alone,), (alone_radius,) = _scans((env,), radio, 5 * SPAN_BLOCK + 3, mode)
            assert _same(optimum.h_star_m, alone.h_star_m)
            assert _same(optimum.p_cov_star, alone.p_cov_star)
            assert _same(radius, alone_radius)

    @pytest.mark.parametrize("n", [k * SPAN_BLOCK + d for k in (1, 2, 5) for d in (-1, 0, 1)])
    def test_same_results_at_one_to_four_workers(self, monkeypatch, n):
        monkeypatch.setattr(planner, "_BLOCK", SPAN_BLOCK)
        pools = _Pools(monkeypatch)
        radio = RadioConfig(p_min_dbm=-75.0)
        results = {workers: _scans(ALL_ENVS, radio, n, workers=workers) for workers in range(1, 5)}
        for got in results.values():
            assert [astuple(o) for o in got[0]] == [astuple(o) for o in results[1][0]]
            assert got[1] == results[1][1]
        blocks = -(-n // SPAN_BLOCK)
        # one pool per scan, one thread per span
        assert pools.sizes == [min(workers, blocks) for workers in range(1, 5) for _ in "ab"]

    def test_more_threads_than_cores_switching_often(self, monkeypatch):
        # spans share only read-only inputs; each keeps its own results
        monkeypatch.setattr(planner, "_BLOCK", SPAN_BLOCK)
        _Pools(monkeypatch, cpus=16)
        radio = RadioConfig(p_min_dbm=-75.0)
        serial = _scans(ALL_ENVS, radio, 16 * SPAN_BLOCK + 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = _scans(ALL_ENVS, radio, 16 * SPAN_BLOCK + 1, workers=16)
        finally:
            sys.setswitchinterval(interval)
        assert [astuple(o) for o in threaded[0]] == [astuple(o) for o in serial[0]]
        assert threaded[1] == serial[1]

    def test_a_tie_across_spans_breaks_to_the_lowest_altitude(self, monkeypatch):
        monkeypatch.setattr(planner, "_BLOCK", SPAN_BLOCK)
        pools = _Pools(monkeypatch)
        # a threshold far below any loss: every p_cov is 1.0
        optima, radii = _scans(ALL_ENVS, RadioConfig(p_min_dbm=-500.0), 10 * SPAN_BLOCK,
                               workers=4)
        assert pools.sizes == [4, 4]
        assert [(o.h_star_m, o.p_cov_star) for o in optima] == [(20.0, 1.0)] * len(ALL_ENVS)
        assert radii == (0.5 * (10 * SPAN_BLOCK - 1),) * len(ALL_ENVS)

    def test_last_qualifying_radius_at_the_first_point_of_the_last_span(self, monkeypatch):
        # 20 points in 4 blocks of 5 over 3 threads: spans of blocks [0], [1] and [2, 3]
        monkeypatch.setattr(planner, "_BLOCK", 5)
        _Pools(monkeypatch)
        values = [0.95] * 3 + [0.1] * 7 + [0.95] + [0.1] * 9
        _Kernel(values).install(monkeypatch)
        spans = []
        map_on_pool = planner._map_on_pool

        def recorded(fn, items, workers):
            spans.extend(items)
            return map_on_pool(fn, items, workers)

        monkeypatch.setattr(planner, "_map_on_pool", recorded)
        got = max_coverage_radius(100.0, (URBAN, SUBURBAN), RadioConfig(), 0.9, 19.0, 1.0,
                                  workers=3)
        assert [span[0] for span in spans] == [0, 5, 10]
        assert got == (10.0, 10.0)

    def test_no_environments_start_no_pool(self, monkeypatch):
        def refuse(max_workers):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(planner, "ThreadPoolExecutor", refuse)
        assert optimal_altitude(500.0, (), RadioConfig(), 50.0, 2000.0, 100, workers=2) == ()
        assert max_coverage_radius(100.0, [], RadioConfig(), 0.9, 500.0, 5.0, workers=2) == ()
        # the arguments are still checked
        with pytest.raises(InputError):
            optimal_altitude(500.0, (), RadioConfig(), 50.0, 2000.0, 1)


# the traced peak of a scan: one block of the kernel's columns and temporaries, whatever
# the grid size, since no scan holds its axis (both traced 1.26-1.28 MiB at 2**16 to
# 2**22 points)
SCAN_PEAK_BOUND = 4 << 20


@pytest.mark.parametrize("n", [1 << 16, 1 << 20, 1 << 22])
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
