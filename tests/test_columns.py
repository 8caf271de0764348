"""The named coverage kernel: every result path reads the same bits from its columns.

``_coverage_arrays`` returns one ``CoverageColumns`` array per model quantity.
``coverage_probability``, ``run_sweep``, ``evaluate_links`` and the Monte Carlo
estimator must show exactly those bits, so the comparisons here are on the
raw bytes of the doubles, not on values within a tolerance. A coordinate that
is constant over a call goes to the kernel as a scalar (or a read-only
broadcast view) and must give the bits of a full-size copy.
"""

import tracemalloc

import numpy as np
import pytest

from uavcov import coverage, planner, scenario
from uavcov.channel import (
    BUILTIN_ENVIRONMENTS,
    URBAN,
    LinkGeometry,
    _angle_and_fspl,
    _los_and_mean_loss,
    mean_path_loss_db,
    p_nlos,
)
from uavcov.coverage import (
    _MC_CHUNK,
    CoverageColumns,
    FormulationMode,
    RadioConfig,
    _coverage_arrays,
    coverage_monte_carlo,
    coverage_probability,
    noise_power_dbm,
    received_power_dbm,
)
from uavcov.planner import (
    _BLOCK,
    AXES,
    AXIS_ALTITUDE,
    AXIS_DISTANCE,
    AXIS_ELEVATION,
    SweepCell,
    SweepRow,
    SweepSpec,
    max_coverage_radius,
    optimal_altitude,
    run_sweep,
    sweep_grid,
)
from uavcov.scenario import evaluate_links, generate_users

ENVS = tuple(BUILTIN_ENVIRONMENTS.values())
MODES = tuple(FormulationMode)
RADIO = RadioConfig(f_c_hz=2.4e9, p_min_dbm=-75.0)
R0 = np.array([0.0, 1.0, 15.0, 200.0, 1234.5, 5000.0, 1e-300])
H = np.array([1.0, 100.0, 100.0, 750.0, 30.0, 2000.0, 50.0])
FIELDS = ("theta_deg", "p_los", "fspl_db", "mean_pl_db", "deficit_los", "deficit_nlos",
          "q_los", "q_nlos", "p_cov")
SWEEP_FIELDS = ("p_los", "mean_pl_db", "p_cov")


def kernel(r0, h, env, radio, mode) -> CoverageColumns:
    """Both stages of the model over (r0, h) arrays, as every result path composes them."""
    return _coverage_arrays(*_angle_and_fspl(r0, h, radio.f_c_hz), env, radio, mode)


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def sweep_spec(axis, mode=FormulationMode.STANDARD, **overrides):
    grid = {AXIS_ELEVATION: (0.5, 90.0, 0.5), AXIS_DISTANCE: (0.0, 500.0, 5.0),
            AXIS_ALTITUDE: (50.0, 2000.0, 7.0)}[axis]
    return SweepSpec(axis, *grid, environments=ENVS, baseline=LinkGeometry(200.0, 100.0),
                     radio=overrides.get("radio", RADIO), mode=mode)


class TestCoverageColumns:
    def test_fields_by_name_with_p_cov_last(self):
        cols = kernel(R0, H, URBAN, RADIO, FormulationMode.STANDARD)
        assert isinstance(cols, CoverageColumns)
        assert cols._fields == FIELDS
        assert cols[-1] is cols.p_cov

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("env", ENVS, ids=lambda env: env.name)
    def test_p_nlos_is_the_complement_bit_for_bit(self, env, mode):
        cols = kernel(R0, H, env, RADIO, mode)
        assert bits(cols.p_nlos) == bits(1.0 - cols.p_los)
        assert bits(cols.p_nlos) == bits(p_nlos(cols.theta_deg, env))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("env", ENVS, ids=lambda env: env.name)
    def test_breakdown_and_scalar_kernel_match_the_columns(self, env, mode):
        cols = kernel(R0, H, env, RADIO, mode)
        for i, (r0, h) in enumerate(zip(R0.tolist(), H.tolist())):
            point = kernel(r0, h, env, RADIO, mode)
            for name in FIELDS:
                assert bits(getattr(point, name)) == bits(getattr(cols, name)[i]), name
            at_point = coverage_probability(LinkGeometry(r0, h), env, RADIO, mode)
            assert type(at_point) is CoverageColumns
            for name in (*CoverageColumns._fields, "p_nlos"):
                got = getattr(at_point, name)
                assert type(got) is float
                assert bits(got) == bits(getattr(cols, name)[i]), name
            assert bits(mean_path_loss_db(LinkGeometry(r0, h), env, RADIO.f_c_hz)) == bits(
                cols.mean_pl_db[i])


class TestSweepColumns:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("axis", AXES)
    def test_columns_are_the_kernel_on_the_grid(self, axis, mode):
        spec = sweep_spec(axis, mode)
        values, r0, h = sweep_grid(spec)
        result = run_sweep(spec)
        assert bits(result.axis_values) == bits(values)
        for j, env in enumerate(ENVS):
            expect = kernel(r0, h, env, RADIO, mode)
            for name in SWEEP_FIELDS:
                assert len(getattr(result, name)) == len(ENVS)
                assert bits(getattr(result, name)[j]) == bits(getattr(expect, name)), name

    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("axis", AXES)
    def test_blocks_join_to_the_whole_grid_bit_for_bit(self, axis, mode, n):
        # grids of n points that end before, on, after and between block boundaries
        start, stop = {AXIS_ELEVATION: (0.5, 90.0), AXIS_DISTANCE: (0.0, n - 1.0),
                       AXIS_ALTITUDE: (50.0, n + 49.0)}[axis]
        spec = SweepSpec(axis, start, stop, (stop - start) / (n - 1), environments=ENVS,
                         baseline=LinkGeometry(200.0, 100.0), radio=RADIO, mode=mode)
        values, r0, h = sweep_grid(spec)
        assert len(values) == n
        result = run_sweep(spec)
        assert bits(result.axis_values) == bits(values)
        for j, env in enumerate(ENVS):
            # the reference: both stages of the model once on the whole grid
            whole = _coverage_arrays(*_angle_and_fspl(r0, h, RADIO.f_c_hz), env, RADIO, mode)
            for name in SWEEP_FIELDS:
                assert bits(getattr(result, name)[j]) == bits(getattr(whole, name)), name

    @pytest.mark.parametrize("axis", AXES)
    def test_rows_are_built_from_the_columns(self, axis):
        spec = sweep_spec(axis)
        _, r0, h = sweep_grid(spec)
        per_env = [kernel(r0, h, env, RADIO, spec.mode) for env in ENVS]
        result = run_sweep(spec)
        rows = result.rows
        assert type(rows) is tuple and len(rows) == len(result.axis_values)
        for i, row in enumerate(rows):
            assert type(row) is SweepRow and type(row.axis_value) is float
            assert bits(row.axis_value) == bits(result.axis_values[i])
            assert len(row.cells) == len(ENVS)
            for cell, cols in zip(row.cells, per_env):
                assert type(cell) is SweepCell
                for name in SweepCell.__dataclass_fields__:
                    value = getattr(cell, name)
                    assert type(value) is float
                    assert bits(value) == bits(getattr(cols, name)[i]), name

    def test_run_sweep_builds_no_rows(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a per-row object was built")

        monkeypatch.setattr(planner, "SweepRow", refuse)
        monkeypatch.setattr(planner, "SweepCell", refuse)
        result = run_sweep(sweep_spec(AXIS_DISTANCE))
        assert len(result.axis_values) == 101
        with pytest.raises(AssertionError):
            result.rows

    def test_equality_compares_values(self):
        spec = sweep_spec(AXIS_DISTANCE)
        first, second = run_sweep(spec), run_sweep(spec)
        assert first is not second and first == second
        assert first != run_sweep(sweep_spec(AXIS_DISTANCE, radio=RadioConfig()))
        assert first != run_sweep(sweep_spec(AXIS_ELEVATION))
        assert first != "not a sweep"


class TestConstantGeometry:
    # sweep_grid returns (values, r0, h)
    @pytest.mark.parametrize("axis, constant", [(AXIS_ELEVATION, 2), (AXIS_DISTANCE, 2),
                                                (AXIS_ALTITUDE, 1)])
    def test_sweep_grid_broadcasts_its_constant_coordinate(self, axis, constant):
        grid = sweep_grid(sweep_spec(axis))
        fixed = grid[constant]
        assert fixed.shape == grid[0].shape and fixed.strides == (0,)
        assert fixed.dtype == np.float64 and not fixed.flags.writeable

    @pytest.mark.parametrize("axis", AXES)
    def test_integer_grid_keeps_a_fractional_baseline(self, axis):
        # a constant copied with the integer grid's dtype would lose its fraction
        spec = SweepSpec(axis, 45, 45, 5, environments=(URBAN,),
                         baseline=LinkGeometry(200.7, 100.5), radio=RADIO)
        _, r0, h = sweep_grid(spec)
        fixed, baseline = (r0, 200.7) if axis == AXIS_ALTITUDE else (h, 100.5)
        assert fixed[0] == baseline
        point = coverage_probability(LinkGeometry(float(r0[0]), float(h[0])), URBAN, RADIO)
        assert bits(run_sweep(spec).p_cov[0]) == bits(point.p_cov)

    @pytest.mark.parametrize("mode", MODES)
    def test_constant_coordinate_reaches_the_kernel_as_a_scalar(self, monkeypatch, mode):
        calls = []

        def recorded(r0, h, f_c_hz):
            result = _angle_and_fspl(r0, h, f_c_hz)
            calls.append((r0, h, f_c_hz, result))
            return result

        monkeypatch.setattr(planner, "_angle_and_fspl", recorded)
        monkeypatch.setattr(scenario, "_angle_and_fspl", recorded)
        positions = generate_users(500, 1000.0, seed=2)
        scans = [
            (lambda env: optimal_altitude(450.0, (env,), RADIO, h_min=10.0, h_max=3000.0,
                                          steps=997, mode=mode), (0, 1)),
            (lambda env: max_coverage_radius(120.0, (env,), RADIO, target=0.5,
                                             r_max_scan=4000.0, resolution=3.0, mode=mode),
             (1, 0)),
            (lambda env: evaluate_links(positions, (300.0, 700.0, 80.0), env, RADIO, mode),
             (1, 0)),
        ]
        for env in ENVS:
            # optimal_altitude fixes r0; max_coverage_radius and the links fix h. The
            # planners' bound points and their blocks alike get the fixed one as a scalar
            for scan, dims in scans:
                first = len(calls)
                scan(env)
                assert {(np.ndim(r0), np.ndim(h)) for r0, h, *_ in calls[first:]} == {dims}
        for axis in AXES:
            run_sweep(sweep_spec(axis, mode))
        # a sweep's constant coordinate arrives as sweep_grid's view of one double
        assert all(0 in r0.strides + h.strides for r0, h, *_ in calls[-len(AXES):])

        # the broadcast columns are the columns of full-size copies, bit for bit
        for r0, h, f_c_hz, result in calls:
            shape = result[0].shape
            copied = _angle_and_fspl(np.broadcast_to(r0, shape).copy(),
                                     np.broadcast_to(h, shape).copy(), f_c_hz)
            assert bits(result[0]) == bits(copied[0])
            assert bits(result[1]) == bits(copied[1])

    @pytest.mark.parametrize("axis, grid", [(AXIS_ELEVATION, (0.5, 90.0, 1e-3)),
                                            (AXIS_DISTANCE, (0.0, 99_999.0, 1.0)),
                                            (AXIS_ALTITUDE, (50.0, 100_049.0, 1.0))])
    def test_run_sweep_holds_three_arrays_per_environment(self, axis, grid):
        spec = SweepSpec(axis, *grid, environments=ENVS, baseline=LinkGeometry(200.0, 100.0),
                         radio=RADIO)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_sweep(spec)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        n = len(result.axis_values)
        assert n > 89_000
        # p_los, mean_pl_db and p_cov per environment, the axis, and small objects
        assert held <= (3 * len(ENVS) + 1) * 8 * n + 64 * 1024

    @pytest.mark.parametrize("n", [100_000, 1_000_000])
    def test_run_sweep_peak_is_the_kept_columns_plus_one_join(self, n):
        spec = SweepSpec(AXIS_DISTANCE, 0.0, n - 1.0, 1.0, environments=ENVS,
                         baseline=LinkGeometry(200.0, 100.0), radio=RADIO)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_sweep(spec)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(result.axis_values) == n
        # what the sweep keeps, one environment's three columns as they are joined from
        # its blocks, and the kernel columns of two blocks; a kernel run on the whole grid
        # would add about nine grid-sized arrays
        assert peak <= (3 * len(ENVS) + 1) * 8 * n + 3 * 8 * n + 2 * 9 * 8 * _BLOCK


class TestLinkColumns:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("env", ENVS, ids=lambda env: env.name)
    def test_link_columns_are_the_kernel(self, env, mode):
        positions = generate_users(400, 1000.0, seed=3)
        uav = (420.0, 610.0, 120.0)
        records = evaluate_links(positions, uav, env, RADIO, mode)
        links = scenario._link_arrays(positions, uav, env, RADIO, mode)
        r0 = records.columns["r0_m"]
        cols = kernel(r0, np.full_like(r0, uav[2]), env, RADIO, mode)
        for name in ("theta_deg", "p_los", "mean_pl_db", "p_cov"):
            assert bits(records.columns[name]) == bits(getattr(cols, name)), name
        assert bits(links["fspl_db"]) == bits(cols.fspl_db)
        snr = (RADIO.p_tx_dbm + RADIO.g_db - cols.mean_pl_db) - noise_power_dbm(RADIO)
        assert bits(records.columns["snr_db"]) == bits(snr)


def covered_draws(pl, margin, env, n_samples, seed):
    """Covered draws of the chunk sampler for a given p_los and link margin."""
    covered = 0
    for k in range((n_samples + _MC_CHUNK - 1) // _MC_CHUNK):
        size = min(_MC_CHUNK, n_samples - k * _MC_CHUNK)
        rng = np.random.Generator(np.random.Philox(seed).jumped(k))
        u = rng.random(size)
        z = rng.standard_normal(size)
        x = np.where(u < pl, env.mu_los_db + env.sigma_los_db * z,
                     env.mu_nlos_db + env.sigma_nlos_db * z)
        covered += int(np.count_nonzero(x <= margin))
    return covered


class TestMonteCarloColumns:
    @pytest.mark.parametrize("env", ENVS, ids=lambda env: env.name)
    def test_matches_a_sampler_fed_from_the_kernel_columns(self, env):
        radio = RadioConfig(p_min_dbm=-70.0)
        cols = kernel(R0, H, env, radio, FormulationMode.STANDARD)
        for i, (r0, h) in enumerate(zip(R0.tolist(), H.tolist())):
            margin = received_power_dbm(radio, cols.fspl_db[i]) - radio.p_min_dbm
            mc = coverage_monte_carlo(LinkGeometry(r0, h), env, radio, n_samples=5000,
                                      seed=i)
            assert mc.estimate == covered_draws(cols.p_los[i], margin, env, 5000, i) / 5000

    @pytest.mark.parametrize("forced_p_los", [0.0, 1.0])
    def test_p_los_comes_from_the_channel_kernel(self, monkeypatch, forced_p_los):
        geom, radio = LinkGeometry(200.0, 100.0), RadioConfig(p_min_dbm=-60.0)
        theta, fspl = _angle_and_fspl(geom.r0_m, geom.h_m, radio.f_c_hz)
        mean_pl = _los_and_mean_loss(theta, fspl, URBAN)[1]
        monkeypatch.setattr(coverage, "_los_and_mean_loss",
                            lambda *args: (forced_p_los, mean_pl))
        mc = coverage_monte_carlo(geom, URBAN, radio, n_samples=20_000, seed=4)
        margin = received_power_dbm(radio, fspl) - radio.p_min_dbm
        assert mc.estimate == covered_draws(forced_p_los, margin, URBAN, 20_000, 4) / 20_000
