"""Disaster-area population, per-user link statistics, aggregate metrics."""

import math
import tracemalloc

import numpy as np
import pytest

from uavcov import scenario
from uavcov.channel import URBAN, LinkGeometry
from uavcov.coverage import (
    RadioConfig,
    coverage_probability,
    noise_power_dbm,
    received_power_dbm,
)
from uavcov.errors import DomainError, InvalidSpecError
from uavcov.scenario import (
    MAX_USER_DRAWS,
    MAX_USERS,
    ScenarioSpec,
    UserColumns,
    UserRecord,
    energy_efficiency,
    evaluate_links,
    evaluate_scenario,
    generate_users,
)


def make_spec(**overrides):
    base = dict(
        n_users=200,
        env=URBAN,
        radio=RadioConfig(p_min_dbm=-70.0),
        seed=42,
        n_draws=25,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestGenerateUsers:
    def test_same_seed_identical(self):
        a = generate_users(500, 1000.0, seed=9)
        b = generate_users(500, 1000.0, seed=9)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a = generate_users(500, 1000.0, seed=9)
        b = generate_users(500, 1000.0, seed=10)
        assert not np.array_equal(a, b)

    def test_all_inside_square(self):
        pos = generate_users(10_000, 1000.0, seed=3)
        assert pos.shape == (10_000, 2)
        assert np.all((pos >= 0.0) & (pos <= 1000.0))

    def test_mean_position_law_of_large_numbers(self):
        pos = generate_users(10_000, 1000.0, seed=3)
        bound = 3.0 * (1000.0 / math.sqrt(12.0)) / 100.0  # 3 sigma of the mean
        assert abs(pos[:, 0].mean() - 500.0) <= bound
        assert abs(pos[:, 1].mean() - 500.0) <= bound

    def test_disk_shape_inside_disk(self):
        pos = generate_users(5000, 1000.0, seed=5, shape="disk")
        r = np.hypot(pos[:, 0] - 500.0, pos[:, 1] - 500.0)
        assert np.all(r <= 500.0 + 1e-9)
        # points actually spread over the disk, not clustered at the centre
        assert r.max() > 450.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidSpecError):
            generate_users(0, 1000.0, seed=1)
        with pytest.raises(InvalidSpecError):
            generate_users(10, -1.0, seed=1)
        with pytest.raises(InvalidSpecError):
            generate_users(10, 1000.0, seed=1, shape="hexagon")


class TestEvaluateLinks:
    def test_user_at_ground_projection(self):
        records = evaluate_links(
            np.array([[500.0, 500.0]]), (500.0, 500.0, 120.0), URBAN, RadioConfig()
        )
        assert records[0].r0_m == 0.0
        assert records[0].theta_deg == 90.0

    def test_matches_scalar_coverage_path(self):
        positions = np.array([[100.0, 900.0], [62.5, 412.0], [777.0, 3.0]])
        uav = (500.0, 500.0, 150.0)
        radio = RadioConfig(p_min_dbm=-66.0)
        records = evaluate_links(positions, uav, URBAN, radio)
        for rec, (x, y) in zip(records, positions):
            r0 = math.hypot(x - 500.0, y - 500.0)
            bd = coverage_probability(LinkGeometry(r0, 150.0), URBAN, radio)
            assert rec.p_cov == bd.p_cov
            assert rec.p_los == bd.p_los
            expect_snr = received_power_dbm(radio, rec.mean_pl_db) - noise_power_dbm(radio)
            assert rec.snr_db == pytest.approx(expect_snr, abs=1e-12)
            expect_rate = radio.bandwidth_hz * math.log2(1.0 + 10.0 ** (rec.snr_db / 10.0))
            assert rec.rate_bps == pytest.approx(expect_rate, rel=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(8)
        positions = rng.uniform(0.0, 1000.0, size=(50, 2))
        uav = (480.0, 515.0, 110.0)
        radio = RadioConfig(p_min_dbm=-68.0)
        base = evaluate_links(positions, uav, URBAN, radio)
        offset = np.array([3250.0, -1875.0])
        moved = evaluate_links(
            positions + offset, (uav[0] + offset[0], uav[1] + offset[1], uav[2]), URBAN, radio
        )
        for rec_a, rec_b in zip(base, moved):
            assert rec_b.x_m == pytest.approx(rec_a.x_m + offset[0])
            assert rec_b.y_m == pytest.approx(rec_a.y_m + offset[1])
            assert rec_b.r0_m == pytest.approx(rec_a.r0_m, abs=1e-9)
            assert rec_b.theta_deg == pytest.approx(rec_a.theta_deg, abs=1e-9)
            assert rec_b.p_cov == pytest.approx(rec_a.p_cov, abs=1e-12)
            assert rec_b.rate_bps == pytest.approx(rec_a.rate_bps, rel=1e-12)

    def test_worker_count_does_not_change_records(self):
        positions = generate_users(403, 1000.0, seed=2)
        uav = (500.0, 500.0, 100.0)
        serial = evaluate_links(positions, uav, URBAN, RadioConfig())
        threaded = evaluate_links(positions, uav, URBAN, RadioConfig(), workers=4)
        assert serial == threaded


class TestEvaluateScenario:
    def test_bit_identical_reruns(self):
        a = evaluate_scenario(make_spec())
        b = evaluate_scenario(make_spec())
        assert a.records == b.records
        assert a.summary == b.summary

    def test_summary_aggregates(self):
        result = evaluate_scenario(make_spec())
        p_cov = [rec.p_cov for rec in result.records]
        assert result.summary.mean_p_cov == pytest.approx(float(np.mean(p_cov)), abs=1e-15)
        rates = [rec.rate_bps for rec in result.records]
        assert result.summary.sum_rate_bps == pytest.approx(float(np.sum(rates)), rel=1e-15)
        # 40 dBm transmitter -> 10 W
        assert result.summary.total_power_w == pytest.approx(10.0, rel=1e-12)
        assert result.summary.energy_efficiency_bpj == pytest.approx(
            result.summary.sum_rate_bps / 10.0, rel=1e-12
        )
        assert len(result.summary.covered_fraction_draws) == 25

    def test_analytic_fields_independent_of_n_draws(self):
        few = evaluate_scenario(make_spec(n_draws=2))
        many = evaluate_scenario(make_spec(n_draws=60))
        assert few.records == many.records
        assert few.summary.mean_p_cov == many.summary.mean_p_cov
        assert len(few.summary.covered_fraction_draws) == 2
        assert len(many.summary.covered_fraction_draws) == 60

    def test_draw_fractions_consistent_with_analytic_mixture(self):
        spec = make_spec(n_users=2000, n_draws=40, seed=99)
        result = evaluate_scenario(spec)
        mean_frac = float(np.mean(result.summary.covered_fraction_draws))
        p = result.summary.mean_p_cov
        se = math.sqrt(p * (1.0 - p) / (spec.n_users * spec.n_draws))
        assert abs(mean_frac - p) <= 3.0 * se

    def test_uav_defaults_to_area_centre(self):
        spec = make_spec(n_users=1, seed=0, area_side_m=800.0)
        result = evaluate_scenario(spec)
        rec = result.records[0]
        assert rec.r0_m == pytest.approx(math.hypot(rec.x_m - 400.0, rec.y_m - 400.0), abs=1e-9)

    def test_disk_scenario_runs(self):
        result = evaluate_scenario(make_spec(area_shape="disk", n_users=300))
        r0 = [rec.r0_m for rec in result.records]
        assert max(r0) <= 500.0 * math.sqrt(2.0)  # UAV at centre; disk radius 500

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidSpecError):
            make_spec(n_users=0)
        with pytest.raises(InvalidSpecError):
            make_spec(n_draws=0)
        with pytest.raises(InvalidSpecError):
            make_spec(area_side_m=0.0)
        with pytest.raises(InvalidSpecError):
            make_spec(uav_h_m=-10.0)
        with pytest.raises(InvalidSpecError):
            make_spec(area_shape="triangle")

    def test_user_cap_refused_without_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidSpecError) as info:
                make_spec(n_users=MAX_USERS + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.field == "n_users"
        assert peak < 1 << 20
        assert make_spec(n_users=MAX_USERS).n_users == MAX_USERS

    @pytest.mark.parametrize("n_users, n_draws", [
        (1, MAX_USER_DRAWS + 1), (1 << 16, (1 << 16) + 1), (MAX_USERS, 1025), (1, 10**11),
    ])
    def test_user_draw_cap_refused_without_allocating(self, n_users, n_draws):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidSpecError) as info:
                make_spec(n_users=n_users, n_draws=n_draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.field == "n_draws"
        assert peak < 1 << 20
        # at the cap the spec is accepted; nothing is run
        assert make_spec(n_users=1 << 16, n_draws=1 << 16).n_draws == 1 << 16
        assert make_spec(n_users=MAX_USERS, n_draws=1024).n_users == MAX_USERS

    @pytest.mark.parametrize("field", ["uav_x_m", "uav_y_m"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_uav_position_rejected(self, field, value):
        with pytest.raises(InvalidSpecError) as info:
            make_spec(**{field: value})
        assert info.value.field == field


def dense_covered_fractions(spec):
    """The shadowing draws as one (n_draws, n_users) array each: the reference layout."""
    positions = generate_users(spec.n_users, spec.area_side_m, spec.seed, spec.area_shape)
    records = evaluate_links(positions, spec.uav_position, spec.env, spec.radio, spec.mode)
    p_los = records.columns["p_los"]
    fspl = scenario._link_arrays(positions, spec.uav_position, spec.env, spec.radio,
                                 spec.mode)["fspl_db"]
    env, radio = spec.env, spec.radio
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(1,)))
    u = rng.random((spec.n_draws, spec.n_users))
    z = rng.standard_normal((spec.n_draws, spec.n_users))
    excess = np.where(u < p_los, env.mu_los_db + env.sigma_los_db * z,
                      env.mu_nlos_db + env.sigma_nlos_db * z)
    margin = radio.p_tx_dbm + radio.g_db - fspl - radio.p_min_dbm
    return tuple((excess <= margin).mean(axis=1).tolist())


class TestStreamedShadowing:
    @pytest.mark.parametrize("block", [1, 7, 1000, 1 << 20])
    @pytest.mark.parametrize("shape", [(1, 1), (37, 11), (200, 25), (1500, 3)])
    def test_any_block_size_reproduces_dense_draws(self, block, shape, monkeypatch):
        n_users, n_draws = shape
        spec = make_spec(n_users=n_users, n_draws=n_draws, seed=n_users + n_draws)
        monkeypatch.setattr(scenario, "SHADOWING_BLOCK_ELEMENTS", block)
        got = evaluate_scenario(spec).summary.covered_fraction_draws
        assert got == dense_covered_fractions(spec)

    def test_peak_memory_flat_in_n_draws(self):
        def peak(n_draws):
            spec = make_spec(n_users=20_000, n_draws=n_draws)
            tracemalloc.start()
            try:
                evaluate_scenario(spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak(40), peak(400)
        assert many <= 1.5 * few, (few, many)


class TestUserColumns:
    def make(self, n=5):
        positions = generate_users(n, 1000.0, seed=4)
        return evaluate_links(positions, (500.0, 500.0, 100.0), URBAN, RadioConfig())

    def test_sequence_protocol(self):
        view = self.make()
        assert isinstance(view, UserColumns)
        assert len(view) == 5
        records = list(view)
        assert all(isinstance(rec, UserRecord) for rec in records)
        assert [view[i] for i in range(5)] == records
        assert view[-1] == records[-1]
        assert list(view[1:4]) == records[1:4]
        assert view == records and records == view
        with pytest.raises(IndexError):
            view[5]

    def test_record_values_are_python_floats_of_the_columns(self):
        view = self.make()
        rec = view[2]
        for name, column in view.columns.items():
            value = getattr(rec, name)
            assert type(value) is float
            assert value == column[2]

    def test_columns_read_only(self):
        view = self.make()
        assert list(view.columns) == [
            "x_m", "y_m", "r0_m", "theta_deg", "p_los", "mean_pl_db", "p_cov", "snr_db",
            "rate_bps",
        ]
        with pytest.raises(ValueError):
            view.columns["p_cov"][0] = 1.0

    def test_equality(self):
        a, b = self.make(), self.make()
        assert a == b
        assert a != self.make(6)
        assert a != list(a)[:-1]
        assert a != "not records"


class TestEnergyEfficiency:
    def test_direct_division(self):
        assert energy_efficiency(5e6, 10.0) == 5e5

    def test_zero_rate(self):
        assert energy_efficiency(0.0, 3.0) == 0.0

    def test_power_scaling(self):
        assert energy_efficiency(1e7, 20.0) == pytest.approx(
            energy_efficiency(1e7, 10.0) / 2.0, rel=1e-15
        )

    def test_rate_doubling(self):
        assert energy_efficiency(2 * 3.7e6, 10.0) == pytest.approx(
            2.0 * energy_efficiency(3.7e6, 10.0), rel=1e-15
        )

    def test_rejects_non_positive_power(self):
        with pytest.raises(DomainError):
            energy_efficiency(1e6, 0.0)
        with pytest.raises(DomainError):
            energy_efficiency(1e6, -2.0)
