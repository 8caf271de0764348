"""Disaster-area population, per-user link statistics, aggregate metrics."""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from uavcov import planner, scenario
from uavcov.channel import SUBURBAN, URBAN, EnvironmentProfile, LinkGeometry, _angle_and_fspl
from uavcov.coverage import (
    MAX_DRAWS,
    RadioConfig,
    coverage_probability,
    noise_power_dbm,
    received_power_dbm,
)
from uavcov.errors import InputError
from uavcov.scenario import (
    MAX_USERS,
    ScenarioSpec,
    UserColumns,
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
        with pytest.raises(InputError):
            generate_users(0, 1000.0, seed=1)
        with pytest.raises(InputError):
            generate_users(10, -1.0, seed=1)
        with pytest.raises(InputError):
            generate_users(10, 1000.0, seed=1, shape="hexagon")


class TestEvaluateLinks:
    def test_user_at_ground_projection(self):
        cols = evaluate_links(
            np.array([[500.0, 500.0]]), (500.0, 500.0, 120.0), URBAN, RadioConfig()
        ).columns
        assert cols["r0_m"][0] == 0.0
        assert cols["theta_deg"][0] == 90.0

    def test_matches_scalar_coverage_path(self):
        positions = np.array([[100.0, 900.0], [62.5, 412.0], [777.0, 3.0]])
        uav = (500.0, 500.0, 150.0)
        radio = RadioConfig(p_min_dbm=-66.0)
        cols = evaluate_links(positions, uav, URBAN, radio).columns
        for i, (x, y) in enumerate(positions):
            r0 = math.hypot(x - 500.0, y - 500.0)
            bd = coverage_probability(LinkGeometry(r0, 150.0), URBAN, radio)
            assert cols["p_cov"][i] == bd.p_cov
            assert cols["p_los"][i] == bd.p_los
            snr_db = float(cols["snr_db"][i])
            expect_snr = received_power_dbm(radio, cols["mean_pl_db"][i]) - noise_power_dbm(radio)
            assert snr_db == pytest.approx(expect_snr, abs=1e-12)
            expect_rate = radio.bandwidth_hz * math.log2(1.0 + 10.0 ** (snr_db / 10.0))
            assert cols["rate_bps"][i] == pytest.approx(expect_rate, rel=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(8)
        positions = rng.uniform(0.0, 1000.0, size=(50, 2))
        uav = (480.0, 515.0, 110.0)
        radio = RadioConfig(p_min_dbm=-68.0)
        base = evaluate_links(positions, uav, URBAN, radio).columns
        offset = np.array([3250.0, -1875.0])
        moved = evaluate_links(
            positions + offset, (uav[0] + offset[0], uav[1] + offset[1], uav[2]), URBAN, radio
        ).columns
        assert len(moved["x_m"]) == len(base["x_m"]) == 50
        np.testing.assert_allclose(moved["x_m"], base["x_m"] + offset[0], rtol=1e-6)
        np.testing.assert_allclose(moved["y_m"], base["y_m"] + offset[1], rtol=1e-6)
        np.testing.assert_allclose(moved["r0_m"], base["r0_m"], rtol=0, atol=1e-9)
        np.testing.assert_allclose(moved["theta_deg"], base["theta_deg"], rtol=0, atol=1e-9)
        np.testing.assert_allclose(moved["p_cov"], base["p_cov"], rtol=0, atol=1e-12)
        np.testing.assert_allclose(moved["rate_bps"], base["rate_bps"], rtol=1e-12)

    def test_worker_count_does_not_change_records(self):
        positions = generate_users(403, 1000.0, seed=2)
        uav = (500.0, 500.0, 100.0)
        serial = evaluate_links(positions, uav, URBAN, RadioConfig())
        threaded = evaluate_links(positions, uav, URBAN, RadioConfig(), workers=4)
        assert serial == threaded


    def test_rate_past_the_overflow_of_the_linear_snr(self):
        # 10 ** (snr_db / 10) overflows past ~3082 dB; the rate is then the log form
        radio = RadioConfig(f_c_hz=1e-300)
        cols = evaluate_links(np.array([[0.0, 0.0], [300.0, 400.0]]), (0.0, 0.0, 100.0),
                              URBAN, radio).columns
        for snr_db, rate_bps in zip(cols["snr_db"].tolist(), cols["rate_bps"].tolist()):
            assert snr_db > 3100.0
            assert rate_bps == radio.bandwidth_hz * (snr_db * (math.log2(10.0) / 10.0))


class TestEvaluateScenario:
    def test_bit_identical_reruns(self):
        a = evaluate_scenario(make_spec())
        b = evaluate_scenario(make_spec())
        assert a.records == b.records
        assert a.summary == b.summary

    def test_summary_aggregates(self):
        result = evaluate_scenario(make_spec())
        p_cov = result.records.columns["p_cov"].tolist()
        assert result.summary.mean_p_cov == pytest.approx(float(np.mean(p_cov)), abs=1e-15)
        rates = result.records.columns["rate_bps"].tolist()
        assert result.summary.sum_rate_bps == pytest.approx(float(np.sum(rates)), rel=1e-15)
        # 40 dBm transmitter -> 10 W
        assert result.summary.total_power_w == pytest.approx(10.0, rel=1e-12)
        assert result.summary.energy_efficiency_bpj == pytest.approx(
            result.summary.sum_rate_bps / 10.0, rel=1e-12
        )
        summary = result.summary
        assert summary.energy_efficiency_bpj == summary.sum_rate_bps / summary.total_power_w
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
        cols = result.records.columns
        x, y, r0 = (float(cols[name][0]) for name in ("x_m", "y_m", "r0_m"))
        assert r0 == pytest.approx(math.hypot(x - 400.0, y - 400.0), abs=1e-9)

    def test_disk_scenario_runs(self):
        result = evaluate_scenario(make_spec(area_shape="disk", n_users=300))
        r0 = result.records.columns["r0_m"]
        assert len(r0) == 300
        assert r0.max() <= 500.0 * math.sqrt(2.0)  # UAV at centre; disk radius 500

    def test_invalid_specs_rejected(self):
        with pytest.raises(InputError):
            make_spec(n_users=0)
        with pytest.raises(InputError):
            make_spec(n_draws=0)
        with pytest.raises(InputError):
            make_spec(area_side_m=0.0)
        with pytest.raises(InputError):
            make_spec(uav_h_m=-10.0)
        with pytest.raises(InputError):
            make_spec(area_shape="triangle")

    def test_user_cap_refused_without_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(InputError) as info:
                make_spec(n_users=MAX_USERS + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.field == "n_users"
        assert peak < 1 << 20
        assert make_spec(n_users=MAX_USERS).n_users == MAX_USERS

    @pytest.mark.parametrize("n_users, n_draws", [
        (1, MAX_DRAWS + 1), (1 << 16, (1 << 16) + 1), (MAX_USERS, 1025), (1, 10**11),
        (1, (1 << 22) + 1),
    ])
    def test_user_draw_cap_refused_without_allocating(self, n_users, n_draws):
        tracemalloc.start()
        try:
            with pytest.raises(InputError) as info:
                make_spec(n_users=n_users, n_draws=n_draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.field == "n_draws"
        assert peak < 1 << 20
        # at the cap the spec is accepted; nothing is run
        assert make_spec(n_users=1 << 16, n_draws=1 << 16).n_draws == 1 << 16
        assert make_spec(n_users=MAX_USERS, n_draws=1024).n_users == MAX_USERS
        assert make_spec(n_users=1, n_draws=1 << 22).n_draws == 1 << 22

    @pytest.mark.parametrize("field", ["uav_x_m", "uav_y_m"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_uav_position_rejected(self, field, value):
        with pytest.raises(InputError) as info:
            make_spec(**{field: value})
        assert info.value.field == field


def link_margins(spec):
    """Each user's LoS probability and link margin, as the reference computes them."""
    positions = generate_users(spec.n_users, spec.area_side_m, spec.seed, spec.area_shape)
    records = evaluate_links(positions, spec.uav_position, spec.env, spec.radio, spec.mode)
    radio = spec.radio
    fspl = _angle_and_fspl(records.columns["r0_m"], spec.uav_h_m, radio.f_c_hz)[1]
    return records.columns["p_los"], radio.p_tx_dbm + radio.g_db - fspl - radio.p_min_dbm


def dense_covered_fractions(spec):
    """The shadowing draws as one (n_draws, n_users) array each: the reference layout.

    A draw's excess loss is picked by value from its class and then compared
    with the margin, as the Monte Carlo reference sampler does.
    """
    p_los, margin = link_margins(spec)
    env = spec.env
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(1,)))
    u = rng.random((spec.n_draws, spec.n_users))
    z = rng.standard_normal((spec.n_draws, spec.n_users))
    excess = np.where(u < p_los, env.mu_los_db + env.sigma_los_db * z,
                      env.mu_nlos_db + env.sigma_nlos_db * z)
    return tuple((excess <= margin).mean(axis=1).tolist())


CANYON = EnvironmentProfile("canyon", a=26.5, b=0.5, mu_los_db=2.3, mu_nlos_db=34.0)
SHARP = EnvironmentProfile("sharp", a=10.6, b=0.18, mu_los_db=1.0, mu_nlos_db=20.0,
                           sigma_los_db=1e-13, sigma_nlos_db=1e-13)
WIDE_NLOS = EnvironmentProfile("wide-nlos", a=10.6, b=0.18, mu_los_db=0.0, mu_nlos_db=1.0,
                               sigma_los_db=1e-13, sigma_nlos_db=8.0)

# (environment, area side, UAV position, receiver threshold in dBm or None, the first
# user's link margin in dB or None), after the Monte Carlo sampler's reference cases:
# p_los near 0 and near 1, and margins at a class mean, with a 1e-13 dB deviation where
# the float rounding of mu + sigma*z decides the draw. In a 1e-12 m area every user's
# margin lies within a fraction of that deviation of the first user's. With the margin
# below WIDE_NLOS's LoS mean, an NLoS draw can pass where a LoS draw cannot.
SHADOWING_CASES = {
    "plos-near-0": (CANYON, 10.0, (5000.0, 0.0, 1.0), -95.0, None),
    "plos-near-1": (SUBURBAN, 1.0, (0.5, 0.5, 300.0), -46.0, None),
    "margin-at-nlos-mean": (URBAN, 1e-12, (200.0, 0.0, 100.0), None, URBAN.mu_nlos_db),
    "tiny-sigma-at-los-mean": (SHARP, 1e-12, (200.0, 0.0, 100.0), None, SHARP.mu_los_db),
    "tiny-sigma-at-nlos-mean": (SHARP, 1e-12, (200.0, 0.0, 100.0), None, SHARP.mu_nlos_db),
    "nlos-passes-where-los-fails": (WIDE_NLOS, 1e-12, (200.0, 0.0, 100.0), None, -1.0),
}


def shadowing_case(name):
    env, side, (x, y, h), p_min, margin = SHADOWING_CASES[name]
    spec = dict(env=env, area_side_m=side, uav_x_m=x, uav_y_m=y, uav_h_m=h, n_users=50,
                n_draws=40, seed=11)
    if p_min is None:
        # the threshold that puts the first user's margin at (about) ``margin``
        p_min = link_margins(make_spec(radio=RadioConfig(p_min_dbm=0.0), **spec))[1][0] - margin
    return make_spec(radio=RadioConfig(p_min_dbm=p_min), **spec)


@pytest.fixture
def four_cpus(monkeypatch):
    """Four usable CPUs and a thread granted per user-draw, so that workers=2 draws the
    normals on the helper thread on any host, whatever the scenario's size."""
    monkeypatch.setattr(planner, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(planner, "_THREAD_WORK", 1)


def started_threads(monkeypatch) -> list:
    """The threads started from here on, recorded as they start."""
    started, start = [], threading.Thread.start

    def record(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    return started


class TestStreamedShadowing:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("block", [1, 7, 1000, 1 << 20])
    @pytest.mark.parametrize("shape", [(1, 1), (37, 11), (200, 25), (1500, 3)])
    def test_any_block_size_reproduces_dense_draws(self, block, shape, workers, four_cpus,
                                                   monkeypatch):
        n_users, n_draws = shape
        spec = make_spec(n_users=n_users, n_draws=n_draws, seed=n_users + n_draws)
        monkeypatch.setattr(scenario, "SHADOWING_BLOCK_ELEMENTS", block)
        got = evaluate_scenario(spec, workers=workers).summary.covered_fraction_draws
        assert got == dense_covered_fractions(spec)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("block", [7, 1 << 20])
    @pytest.mark.parametrize("case", sorted(SHADOWING_CASES))
    def test_extreme_and_tie_cases_reproduce_dense_draws(self, case, block, workers, four_cpus,
                                                         monkeypatch):
        spec = shadowing_case(case)
        monkeypatch.setattr(scenario, "SHADOWING_BLOCK_ELEMENTS", block)
        got = evaluate_scenario(spec, workers=workers).summary.covered_fraction_draws
        assert got == dense_covered_fractions(spec)

    def test_draws_do_not_depend_on_the_worker_count(self, four_cpus, monkeypatch):
        # blocks of at most 1000 user-draws cut each draw of 1500 users into two runs of 750
        monkeypatch.setattr(scenario, "SHADOWING_BLOCK_ELEMENTS", 1000)
        spec = make_spec(n_users=1500, n_draws=9, seed=3)
        results = [evaluate_scenario(spec, workers=workers) for workers in range(1, 5)]
        for result in results[1:]:
            assert result.summary == results[0].summary
            assert result.records == results[0].records

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shape, blocks", [
        # a draw spans blocks: each draw of 1500 users is two blocks of 1 x 750
        ((1500, 9), [(1, 750)] * 18),
        # a block holds several draws: 27 whole draws of 37 users, then the 19 left
        ((37, 100), [(27, 37)] * 3 + [(19, 37)]),
    ])
    def test_one_compare_per_rectangular_block(self, shape, blocks, workers, four_cpus,
                                               monkeypatch):
        draw_covered, shapes = scenario._draw_covered, []

        def counted(is_los, *args):
            shapes.append(is_los.shape)
            return draw_covered(is_los, *args)

        n_users, n_draws = shape
        spec = make_spec(n_users=n_users, n_draws=n_draws, seed=5)
        monkeypatch.setattr(scenario, "SHADOWING_BLOCK_ELEMENTS", 1000)
        monkeypatch.setattr(scenario, "_draw_covered", counted)
        got = evaluate_scenario(spec, workers=workers).summary.covered_fraction_draws
        assert shapes == blocks
        assert max(rows * users for rows, users in shapes) <= 1000
        assert got == dense_covered_fractions(spec)

    @pytest.mark.parametrize("cpus, workers, helpers", [(4, 1, 0), (4, 2, 1), (4, 3, 1),
                                                        (4, 4, 1), (1, 4, 0)])
    def test_one_helper_thread_at_most(self, cpus, workers, helpers, monkeypatch):
        monkeypatch.setattr(planner, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(planner, "_THREAD_WORK", 1)
        started = started_threads(monkeypatch)
        monkeypatch.setattr(scenario, "SHADOWING_BLOCK_ELEMENTS", 7)
        evaluate_scenario(make_spec(), workers=workers)
        assert len(started) == helpers
        assert not any(thread.is_alive() for thread in started)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_raise_in_the_compare_propagates(self, workers, four_cpus, monkeypatch):
        draw_covered, calls = scenario._draw_covered, []

        def failing(*args):
            calls.append(None)
            if len(calls) == 100:
                raise RuntimeError("compare failed")
            return draw_covered(*args)

        baseline = threading.active_count()
        monkeypatch.setattr(scenario, "SHADOWING_BLOCK_ELEMENTS", 7)
        monkeypatch.setattr(scenario, "_draw_covered", failing)
        with pytest.raises(RuntimeError, match="compare failed"):
            evaluate_scenario(make_spec(), workers=workers)
        assert len(calls) == 100
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_raise_in_the_fill_propagates(self, workers, four_cpus, monkeypatch):
        # the normals' generator fails on its 100th block; the uniforms' draw as before
        calls = []

        class FailingNormals(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                calls.append(threading.current_thread())
                if len(calls) == 100:
                    raise RuntimeError("fill failed")
                return super().standard_normal(*args, **kwargs)

        baseline = threading.active_count()
        monkeypatch.setattr(scenario, "SHADOWING_BLOCK_ELEMENTS", 7)
        monkeypatch.setattr(np.random, "Generator", FailingNormals)
        with pytest.raises(RuntimeError, match="fill failed"):
            evaluate_scenario(make_spec(), workers=workers)
        # at workers=2 the fills already queued behind the failed one may still run
        assert 100 <= len(calls) <= 102
        # the fills ran on the calling thread at workers=1 and on the helper at workers=2
        assert (calls[0] is threading.main_thread()) == (workers == 1)
        assert threading.active_count() == baseline

    def test_cases_reach_the_extremes_and_the_ties(self):
        assert link_margins(shadowing_case("plos-near-0"))[0].max() < 1e-6
        assert link_margins(shadowing_case("plos-near-1"))[0].min() > 1.0 - 1e-9
        # every user's margin within two deviations of the class mean
        for name in ("tiny-sigma-at-los-mean", "tiny-sigma-at-nlos-mean"):
            margin = link_margins(shadowing_case(name))[1]
            assert np.all(np.abs(margin - SHADOWING_CASES[name][4]) <= 2e-13), name

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_flat_in_n_draws(self, workers, four_cpus):
        def peak(n_draws):
            spec = make_spec(n_users=20_000, n_draws=n_draws)
            tracemalloc.start()
            try:
                evaluate_scenario(spec, workers=workers)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak(40), peak(400)
        assert many <= 1.5 * few, (few, many)


class TestBoundedWorkingSet:
    @pytest.mark.parametrize("mode", ["standard", "paper-literal"])
    @pytest.mark.parametrize("n", [1, 7, 8, 1000])
    def test_blocked_links_equal_one_whole_call(self, n, mode, monkeypatch):
        # every 10th user lies ~7e306 m out, where 4*pi*f*d/c overflows, so some blocks
        # of 7 take _fspl's per-link np.where path and others do not
        positions = generate_users(n, 1000.0, seed=n)
        positions[::10] = 5e306
        uav = (500.0, 500.0, 100.0)
        sizes = []
        kernel = scenario._coverage_arrays

        def counted(theta, *args):
            sizes.append(len(theta))
            return kernel(theta, *args)

        monkeypatch.setattr(scenario, "_coverage_arrays", counted)

        def links(block):
            monkeypatch.setattr(scenario, "_BLOCK", block)
            sizes.clear()
            cols = scenario._link_arrays(positions, uav, URBAN, RadioConfig(),
                                         scenario.FormulationMode(mode))
            return cols, list(sizes)

        whole, whole_sizes = links(n)
        blocked, blocked_sizes = links(7)
        assert whole_sizes == [n]
        assert blocked_sizes == [min(7, n - lo) for lo in range(0, n, 7)]
        assert list(blocked) == list(whole)
        for name in whole:
            assert blocked[name].tobytes() == whole[name].tobytes(), name
        # a far user's 4*pi*f*d/c is past the largest double, 10**308.25, and its link
        # margin, the budget less its FSPL, finite
        radio = RadioConfig()
        budget = radio.p_tx_dbm + radio.g_db - radio.p_min_dbm
        assert np.isfinite(whole["margin_db"]).all()
        assert n < 10 or whole["margin_db"][0] < budget - 20 * 308.25 < whole["margin_db"][1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_per_added_user(self, workers, four_cpus):
        # the link kernel's temporaries and the shadowing's are fixed blocks, so an added
        # user costs only what is kept: 16 B of position and 8 columns of 8 B, its
        # shadowing margin among them. One draw of 2**18 users spans several shadowing
        # blocks
        def peak(n_users):
            spec = make_spec(n_users=n_users, n_draws=3)
            tracemalloc.start()
            try:
                evaluate_scenario(spec, workers=workers)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = 1 << 15, 1 << 18
        per_user = (peak(many) - peak(few)) / (many - few)
        assert per_user <= 96, per_user
        assert many > scenario.SHADOWING_BLOCK_ELEMENTS

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_per_added_draw(self, workers, four_cpus):
        # a draw keeps only its count of covered users and its covered fraction, so a run
        # at the draw cap traces less than one at the user cap, at the bound per user above
        def peak(n_draws):
            spec = make_spec(n_users=1, n_draws=n_draws)
            tracemalloc.start()
            try:
                evaluate_scenario(spec, workers=workers)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = 1 << 14, 1 << 18
        per_draw = (peak(many) - peak(few)) / (many - few)
        assert per_draw <= 64, per_draw
        assert 64 * scenario._MAX_N_DRAWS <= 96 * MAX_USERS


class TestUserColumns:
    def make(self, n=5):
        positions = generate_users(n, 1000.0, seed=4)
        return evaluate_links(positions, (500.0, 500.0, 100.0), URBAN, RadioConfig())

    def test_columns_read_only(self):
        view = self.make()
        assert isinstance(view, UserColumns)
        assert len(view) == 5
        assert repr(view) == "UserColumns(<5 users>)"
        assert all(column.dtype == np.float64 and column.shape == (5,)
                   for column in view.columns.values())
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
        assert a != "not records"


class TestEnergyEfficiency:
    """``ScenarioSummary.energy_efficiency_bpj``: the sum rate over the transmit power."""

    def test_direct_division(self):
        for p_tx in (40.0, 10.0, -25.5):
            summary = evaluate_scenario(make_spec(radio=RadioConfig(p_tx_dbm=p_tx),
                                                  n_draws=1)).summary
            assert summary.total_power_w == 10.0 ** ((p_tx - 30.0) / 10.0)
            assert summary.energy_efficiency_bpj == summary.sum_rate_bps / summary.total_power_w

    def test_zero_rate(self):
        # at the lowest legal transmit power every SNR rounds 1 + snr to 1, so no user has a
        # rate; the power, 1e-303 W, is still a positive double and nothing is refused
        summary = evaluate_scenario(make_spec(radio=RadioConfig(p_tx_dbm=-3000.0),
                                              n_draws=1)).summary
        assert summary.sum_rate_bps == 0.0 and summary.energy_efficiency_bpj == 0.0
        assert summary.total_power_w == pytest.approx(1e-303, rel=1e-12)

    def test_power_scaling(self):
        # 10 dB more transmit power and 10 dB less gain keep every received power, so the
        # rate stays and the efficiency falls tenfold
        base = evaluate_scenario(make_spec(n_draws=1)).summary
        louder = evaluate_scenario(make_spec(radio=RadioConfig(p_min_dbm=-70.0, p_tx_dbm=50.0,
                                                               g_db=-7.0), n_draws=1)).summary
        assert louder.sum_rate_bps == base.sum_rate_bps
        assert louder.total_power_w == 10.0 * base.total_power_w
        assert louder.energy_efficiency_bpj == pytest.approx(base.energy_efficiency_bpj / 10.0,
                                                             rel=1e-15)

    def test_threshold_leaves_it_unchanged(self):
        # the receiver threshold sets coverage, not the Shannon rate
        base = evaluate_scenario(make_spec(n_draws=1)).summary
        strict = evaluate_scenario(make_spec(radio=RadioConfig(p_min_dbm=-60.0),
                                             n_draws=1)).summary
        assert strict.mean_p_cov < base.mean_p_cov
        assert (strict.sum_rate_bps, strict.total_power_w, strict.energy_efficiency_bpj) == (
            base.sum_rate_bps, base.total_power_w, base.energy_efficiency_bpj)

    @pytest.mark.parametrize("radio, field", [
        (RadioConfig(p_tx_dbm=-3000.0, g_db=3000.0), "p_tx_dbm"),
        (RadioConfig(bandwidth_hz=1e305, p_tx_dbm=3000.0, g_db=3000.0,
                     noise_density_dbm_hz=-3000.0, f_c_hz=1e-300), "bandwidth_hz"),
    ], ids=["efficiency", "sum-rate"])
    def test_an_overflow_is_refused_before_any_draw(self, radio, field, monkeypatch):
        def never(*args):
            raise AssertionError("the shadowing ran")

        monkeypatch.setattr(scenario, "_covered_fractions", never)
        with pytest.raises(InputError) as info:
            evaluate_scenario(make_spec(radio=radio), workers=2, idle=never)
        assert info.value.field == field
