"""Downlink coverage: Gaussian tail, deficit terms, analytic mixture, Monte Carlo.

The Gaussian-tail oracle grid was computed with mpmath (erfc at 30 dps) and is
frozen below; the x = 1 entry was additionally cross-checked by direct numerical
integration of the normal density over [1, inf).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavcov.channel import (
    BUILTIN_ENVIRONMENTS,
    MAX_ABS_DB,
    MAX_LENGTH_M,
    MIN_SIGMA_DB,
    SUBURBAN,
    URBAN,
    EnvironmentProfile,
    LinkGeometry,
    elevation_angle_deg,
    fspl_db,
    p_los,
    slant_distance,
)
from uavcov.coverage import (
    _MC_CHUNK,
    FormulationMode,
    RadioConfig,
    coverage_monte_carlo,
    coverage_probability,
    noise_power_dbm,
    q_function,
    received_power_dbm,
    _last_passing_double,
    _z_threshold,
)
from uavcov.errors import InputError

Q_TAIL_ORACLE = {
    -8.0: 0.9999999999999993779,
    -7.5: 0.99999999999996809108,
    -7.0: 0.99999999999872018746,
    -6.5: 0.99999999995983999416,
    -6.0: 0.99999999901341235496,
    -5.5: 0.99999998101043753411,
    -5.0: 0.99999971334842812081,
    -4.5: 0.99999660232687526994,
    -4.0: 0.99996832875816688008,
    -3.5: 0.99976737092096447496,
    -3.0: 0.99865010196836990547,
    -2.5: 0.99379033467422386483,
    -2.0: 0.9772498680518207928,
    -1.5: 0.933192798731141934,
    -1.0: 0.84134474606854294859,
    -0.5: 0.69146246127401310364,
    0.0: 0.5,
    0.5: 0.30853753872598689636,
    1.0: 0.15865525393145705141,
    1.5: 0.066807201268858066004,
    2.0: 0.0227501319481792072,
    2.5: 0.006209665325776135167,
    3.0: 0.0013498980316300945267,
    3.5: 0.00023262907903552503635,
    4.0: 0.000031671241833119921254,
    4.5: 3.3976731247300604017e-6,
    5.0: 2.8665157187919391167e-7,
    5.5: 1.8989562465887719384e-8,
    6.0: 9.865876450376981407e-10,
    6.5: 4.0160005838591178083e-11,
    7.0: 1.2798125438858350044e-12,
    7.5: 3.1908916729108962278e-14,
    8.0: 6.2209605742717841235e-16,
}

FSPL_2GHZ_100M = 78.468383135162997712
MEAN_PL_100_100_SUBURBAN_2GHZ = 81.578780014498106451


def make_radio(**overrides):
    base = dict(
        f_c_hz=2e9,
        p_tx_dbm=40.0,
        g_db=3.0,
        p_min_dbm=-80.0,
        noise_density_dbm_hz=-174.0,
        bandwidth_hz=5e6,
    )
    base.update(overrides)
    return RadioConfig(**base)


class TestQFunction:
    def test_half_at_zero(self):
        assert q_function(0.0) == 0.5

    def test_tail_integral_oracle(self):
        assert q_function(1.0) == pytest.approx(0.15865525393145705141, rel=1e-12)

    def test_oracle_grid(self):
        for x, expect in Q_TAIL_ORACLE.items():
            assert q_function(x) == pytest.approx(expect, rel=1e-10)

    def test_strictly_decreasing_and_bounded(self):
        x = np.linspace(-8.0, 8.0, 4001)
        q = q_function(x)
        assert np.all(np.diff(q) <= 0)
        assert np.all((q > 0) & (q < 1))
        # strict decrease where the slope is resolvable in double precision
        inner = np.linspace(-5.0, 5.0, 2001)
        assert np.all(np.diff(q_function(inner)) < 0)

    @given(x=st.floats(-8.0, 8.0, allow_nan=False))
    @settings(deadline=None, max_examples=300)
    def test_symmetry(self, x):
        assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-12)


class TestDeficits:
    """The kernel's deficits, read from ``coverage_probability``; the oracle in
    ``test_kernel_oracle.py`` pins their formula in both modes to 50 digits."""

    GEOM = LinkGeometry(0.0, 100.0)

    def test_exact_balance_gives_zero(self):
        fspl = coverage_probability(self.GEOM, SUBURBAN, make_radio()).fspl_db
        radio = make_radio(p_min_dbm=40.0 + 3.0 - fspl - SUBURBAN.mu_los_db)
        assert coverage_probability(self.GEOM, SUBURBAN, radio).deficit_los == pytest.approx(
            0.0, abs=1e-12)

    @pytest.mark.parametrize("mode", list(FormulationMode))
    def test_threshold_linearity(self, mode):
        # lowering the threshold by one deviation lowers the standard deficit by 1, and
        # the paper-literal one, normalized by the variance, by 1 / sigma
        power = 2 if mode is FormulationMode.PAPER_LITERAL else 1
        for sigma, field in ((SUBURBAN.sigma_los_db, "deficit_los"),
                             (SUBURBAN.sigma_nlos_db, "deficit_nlos")):
            a0 = getattr(coverage_probability(self.GEOM, SUBURBAN, make_radio(), mode), field)
            a1 = getattr(coverage_probability(self.GEOM, SUBURBAN,
                                              make_radio(p_min_dbm=-80.0 - sigma), mode), field)
            assert a0 - a1 == pytest.approx(sigma / sigma ** power, abs=1e-12)

    def test_standard_mode_oracle(self):
        # (-80 - 40 - 3 + FSPL(2 GHz, 100 m) + mu) / sigma, with mpmath at 50 digits
        bd = coverage_probability(self.GEOM, SUBURBAN, make_radio())
        assert bd.deficit_los == pytest.approx(-14.810538954945667429, abs=1e-12)
        assert bd.deficit_nlos == pytest.approx(-2.9414521081046252860, abs=1e-12)

    def test_paper_literal_divides_by_variance(self):
        # the averaged path loss in place of the FSPL, over sigma**2; mpmath at 50 digits
        bd = coverage_probability(self.GEOM, SUBURBAN, make_radio(), FormulationMode.PAPER_LITERAL)
        assert bd.deficit_los == pytest.approx(-4.9257352072025552317, abs=1e-12)
        assert bd.deficit_nlos == pytest.approx(-0.36611901351285932945, abs=1e-12)
        assert bd.deficit_los == pytest.approx(
            (-80.0 - 40.0 - 3.0 + bd.mean_pl_db + SUBURBAN.mu_los_db) / 9.0, abs=1e-12)

    @pytest.mark.parametrize("mode", list(FormulationMode))
    def test_breakdown_deficits_match_the_formula_bitwise(self, mode):
        # the radio's three fields are summed first, then the loss and the mean excess loss
        radio = make_radio(p_min_dbm=-63.0)
        bd = coverage_probability(LinkGeometry(320.0, 140.0), URBAN, radio, mode)
        literal = mode is FormulationMode.PAPER_LITERAL
        loss = bd.mean_pl_db if literal else bd.fspl_db
        budget = radio.p_min_dbm - radio.p_tx_dbm - radio.g_db
        for mu, sigma, got in ((URBAN.mu_los_db, URBAN.sigma_los_db, bd.deficit_los),
                               (URBAN.mu_nlos_db, URBAN.sigma_nlos_db, bd.deficit_nlos)):
            assert got == (budget + loss + mu) / (sigma * sigma if literal else sigma)

    @pytest.mark.parametrize("mode", list(FormulationMode))
    def test_sigma_at_the_floor_keeps_the_deficits_finite(self, mode):
        # sigma**2 = 1e-300 is still a normal double, so paper-literal's quotient is finite
        env = EnvironmentProfile("floor", a=5.2, b=0.35, mu_los_db=0.1, mu_nlos_db=21.0,
                                 sigma_los_db=MIN_SIGMA_DB, sigma_nlos_db=MIN_SIGMA_DB)
        bd = coverage_probability(self.GEOM, env, make_radio(), mode)
        assert all(math.isfinite(value) for value in bd)
        assert bd.deficit_los < -1e150 and bd.deficit_nlos < -1e150
        assert bd.p_cov == 1.0
        with pytest.raises(InputError) as info:
            EnvironmentProfile("floor", a=5.2, b=0.35, mu_los_db=0.1, mu_nlos_db=21.0,
                               sigma_los_db=math.nextafter(MIN_SIGMA_DB, 0.0))
        assert info.value.field == "sigma_los_db"

    @pytest.mark.parametrize("field, bound, past", [
        ("p_tx_dbm", -MAX_ABS_DB, math.nextafter(-MAX_ABS_DB, -math.inf)),
        ("p_tx_dbm", MAX_ABS_DB, math.nextafter(MAX_ABS_DB, math.inf)),
        ("g_db", -MAX_ABS_DB, math.nextafter(-MAX_ABS_DB, -math.inf)),
        ("g_db", MAX_ABS_DB, math.nextafter(MAX_ABS_DB, math.inf)),
        ("p_min_dbm", -MAX_ABS_DB, math.nextafter(-MAX_ABS_DB, -math.inf)),
        ("p_min_dbm", MAX_ABS_DB, math.nextafter(MAX_ABS_DB, math.inf)),
        ("f_c_hz", 5e-324, 0.0),
        ("f_c_hz", 1.7976931348623157e308, math.inf),
        ("mu_los_db", 21.0, math.nextafter(21.0, math.inf)),
        ("mu_nlos_db", MAX_ABS_DB, math.nextafter(MAX_ABS_DB, math.inf)),
        ("sigma_los_db", MIN_SIGMA_DB, math.nextafter(MIN_SIGMA_DB, 0.0)),
        ("sigma_los_db", MAX_ABS_DB, math.nextafter(MAX_ABS_DB, math.inf)),
        ("sigma_nlos_db", MIN_SIGMA_DB, math.nextafter(MIN_SIGMA_DB, 0.0)),
        ("sigma_nlos_db", MAX_ABS_DB, math.nextafter(MAX_ABS_DB, math.inf)),
        ("r0_m", MAX_LENGTH_M, math.nextafter(MAX_LENGTH_M, math.inf)),
        ("h_m", MAX_LENGTH_M, math.nextafter(MAX_LENGTH_M, math.inf)),
        ("h_m", 5e-324, 0.0),
    ])
    def test_every_deficit_input_is_bounded_where_it_is_made(self, field, bound, past):
        # each value the deficits read is checked by the object that carries it: at its
        # bound the kernel's columns are finite in both modes, one double past it is refused
        def build(value):
            env = dict(a=5.2, b=0.35, mu_los_db=0.1, mu_nlos_db=21.0)
            geom = dict(r0_m=100.0, h_m=100.0)
            radio = {}
            owner = (env if field.startswith(("mu_", "sigma_"))
                     else geom if field in geom else radio)
            owner[field] = value
            return (LinkGeometry(**geom), EnvironmentProfile("edge", **env),
                    make_radio(**radio))

        for mode in FormulationMode:
            bd = coverage_probability(*build(bound), mode)
            assert all(math.isfinite(value) for value in bd), mode
            assert 0.0 <= bd.p_cov <= 1.0
        with pytest.raises(InputError) as info:
            build(past)
        assert info.value.field == field

    @pytest.mark.parametrize("mode", list(FormulationMode))
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_deficits_finite_at_the_extremes_of_every_legal_field(self, mode, sign):
        # the largest numerator a legal radio, environment and finite FSPL can make,
        # over the smallest legal sigma; RuntimeWarning is an error in this suite
        env = EnvironmentProfile("edge", a=5.0, b=0.1, mu_los_db=MAX_ABS_DB,
                                 mu_nlos_db=MAX_ABS_DB, sigma_los_db=MIN_SIGMA_DB,
                                 sigma_nlos_db=MIN_SIGMA_DB)
        radio = RadioConfig(f_c_hz=1.7976931348623157e308 if sign > 0 else 5e-324,
                            p_tx_dbm=-sign * MAX_ABS_DB, g_db=-sign * MAX_ABS_DB,
                            p_min_dbm=sign * MAX_ABS_DB)
        h = MAX_LENGTH_M if sign > 0 else 5e-324
        bd = coverage_probability(LinkGeometry(0.0, h), env, radio, mode)
        assert all(math.isfinite(value) for value in bd)
        assert abs(bd.deficit_los) > 1e150 and abs(bd.deficit_nlos) > 1e150
        assert bd.p_cov == (0.0 if sign > 0 else 1.0)

    def test_mode_accepts_strings(self):
        radio = make_radio()
        for mode in FormulationMode:
            assert coverage_probability(self.GEOM, URBAN, radio, mode.value) == (
                coverage_probability(self.GEOM, URBAN, radio, mode))


class TestLinkBudget:
    def test_received_power_zero_loss(self):
        assert received_power_dbm(make_radio(), 0.0) == 43.0

    def test_received_power_oracle(self):
        got = received_power_dbm(make_radio(), MEAN_PL_100_100_SUBURBAN_2GHZ)
        assert got == pytest.approx(-38.578780014498106451, abs=1e-9)

    def test_loss_linearity(self):
        r = make_radio()
        assert received_power_dbm(r, 50.0) - received_power_dbm(r, 57.5) == pytest.approx(7.5)

    def test_noise_unit_bandwidth(self):
        assert noise_power_dbm(make_radio(bandwidth_hz=1.0)) == -174.0

    def test_noise_5mhz_oracle(self):
        assert noise_power_dbm(make_radio()) == pytest.approx(-107.01029995663981195, abs=1e-9)

    def test_noise_tenfold_bandwidth(self):
        assert noise_power_dbm(make_radio(bandwidth_hz=5e7)) - noise_power_dbm(
            make_radio()
        ) == pytest.approx(10.0, abs=1e-12)

    def test_noise_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            make_radio(bandwidth_hz=0.0)


class TestCoverageProbability:
    def test_deep_threshold_saturates(self):
        bd = coverage_probability(LinkGeometry(200.0, 100.0), URBAN, make_radio(p_min_dbm=-200.0))
        assert bd.p_cov >= 1.0 - 1e-12

    def test_breakdown_mixture_identity(self):
        bd = coverage_probability(LinkGeometry(350.0, 120.0), URBAN, make_radio(p_min_dbm=-60.0))
        assert bd.p_cov == pytest.approx(
            bd.p_los * bd.q_los + bd.p_nlos * bd.q_nlos, abs=1e-15
        )
        for p in (bd.p_los, bd.p_nlos, bd.q_los, bd.q_nlos, bd.p_cov):
            assert 0.0 <= p <= 1.0

    def test_equal_branch_means_give_half(self):
        # mu_los == mu_nlos lets one threshold zero both deficit terms
        env = EnvironmentProfile("flat", a=9.0, b=0.2, mu_los_db=5.0, mu_nlos_db=5.0,
                                 sigma_los_db=4.0, sigma_nlos_db=4.0)
        geom = LinkGeometry(200.0, 100.0)
        fspl = fspl_db(2e9, slant_distance(geom))
        radio = make_radio(p_min_dbm=40.0 + 3.0 - fspl - 5.0)
        bd = coverage_probability(geom, env, radio)
        assert bd.p_cov == pytest.approx(0.5, abs=1e-12)

    def test_branch_collapse_independent_of_theta(self):
        env = EnvironmentProfile("flat", a=9.0, b=0.2, mu_los_db=5.0, mu_nlos_db=5.0,
                                 sigma_los_db=4.0, sigma_nlos_db=4.0)
        radio = make_radio(p_min_dbm=-55.0)
        # Pythagorean pairs share slant distance 500 exactly, so only the
        # elevation angle (hence the LoS share) differs between cases
        geoms = [LinkGeometry(400.0, 300.0), LinkGeometry(300.0, 400.0),
                 LinkGeometry(140.0, 480.0), LinkGeometry(0.0, 500.0)]
        assert len({slant_distance(g) for g in geoms}) == 1
        breakdowns = [coverage_probability(g, env, radio) for g in geoms]
        assert len({bd.p_los for bd in breakdowns}) == len(geoms)
        assert len({bd.p_cov for bd in breakdowns}) == 1
        # collapsed mixture equals the common tail value bit-exactly
        for bd in breakdowns:
            assert bd.p_cov == bd.q_nlos == bd.q_los

    def test_monotone_in_threshold(self):
        geom = LinkGeometry(300.0, 100.0)
        for env in BUILTIN_ENVIRONMENTS.values():
            thresholds = np.linspace(-120.0, -20.0, 50)
            covs = [coverage_probability(geom, env, make_radio(p_min_dbm=float(t))).p_cov
                    for t in thresholds]
            assert np.all(np.diff(covs) <= 1e-15)

    def test_joint_power_shift_invariance(self):
        geom = LinkGeometry(250.0, 90.0)
        base = coverage_probability(geom, URBAN, make_radio(p_min_dbm=-65.0)).p_cov
        for delta in (-17.0, 8.5, 30.0):
            shifted = coverage_probability(
                geom, URBAN, make_radio(p_tx_dbm=40.0 + delta, p_min_dbm=-65.0 + delta)
            ).p_cov
            assert shifted == pytest.approx(base, abs=1e-12)

    def test_paper_literal_mode_differs(self):
        geom = LinkGeometry(250.0, 90.0)
        radio = make_radio(p_min_dbm=-65.0)
        std = coverage_probability(geom, URBAN, radio)
        lit = coverage_probability(geom, URBAN, radio, mode="paper-literal")
        assert std.p_cov != lit.p_cov
        assert lit.p_cov == pytest.approx(
            lit.p_los * lit.q_los + lit.p_nlos * lit.q_nlos, abs=1e-15
        )


class TestMonteCarlo:
    def test_same_seed_bit_identical(self):
        geom = LinkGeometry(200.0, 100.0)
        radio = make_radio(p_min_dbm=-60.0)
        a = coverage_monte_carlo(geom, URBAN, radio, n_samples=40_000, seed=7)
        b = coverage_monte_carlo(geom, URBAN, radio, n_samples=40_000, seed=7)
        assert a.estimate == b.estimate
        assert a.std_error == b.std_error

    def test_worker_count_does_not_change_result(self):
        geom = LinkGeometry(200.0, 100.0)
        radio = make_radio(p_min_dbm=-60.0)
        serial = coverage_monte_carlo(geom, URBAN, radio, n_samples=200_001, seed=3, workers=1)
        threaded = coverage_monte_carlo(geom, URBAN, radio, n_samples=200_001, seed=3, workers=4)
        assert serial.estimate == threaded.estimate

    def test_rejects_zero_samples(self):
        with pytest.raises(InputError):
            coverage_monte_carlo(LinkGeometry(200.0, 100.0), URBAN, make_radio(), 0, seed=1)

    def test_degenerate_sigma_matches_indicator_mixture(self):
        env = EnvironmentProfile("sharp", a=10.6, b=0.18, mu_los_db=1.0, mu_nlos_db=20.0,
                                 sigma_los_db=1e-9, sigma_nlos_db=1e-9)
        geom = LinkGeometry(200.0, 100.0)
        fspl = fspl_db(2e9, slant_distance(geom))
        # threshold between the two branch means: LoS covered, NLoS not
        radio = make_radio(p_min_dbm=40.0 + 3.0 - fspl - 10.0)
        mc = coverage_monte_carlo(geom, env, radio, n_samples=200_000, seed=11)
        bd = coverage_probability(geom, env, radio)
        expect = bd.p_los * 1.0 + bd.p_nlos * 0.0
        assert mc.estimate == pytest.approx(expect, abs=5 * mc.std_error + 1e-12)

    def test_consistent_with_analytic(self):
        geom = LinkGeometry(200.0, 100.0)
        radio = make_radio(p_min_dbm=-58.0)
        analytic = coverage_probability(geom, URBAN, radio).p_cov
        mc = coverage_monte_carlo(geom, URBAN, radio, n_samples=1_000_000, seed=20240917)
        assert abs(mc.estimate - analytic) <= 3.0 * mc.std_error

    def test_std_error_formula(self):
        mc = coverage_monte_carlo(
            LinkGeometry(200.0, 100.0), SUBURBAN, make_radio(p_min_dbm=-55.0),
            n_samples=50_000, seed=5,
        )
        expect = math.sqrt(mc.estimate * (1.0 - mc.estimate) / 50_000)
        assert mc.std_error == pytest.approx(expect, rel=1e-12)


def reference_covered(geom, env, radio, n_samples, seed):
    """Covered draws as the chunk sampler first counted them: a fresh Philox per
    chunk and the excess loss built as floats, then compared with the margin."""
    pl = p_los(elevation_angle_deg(geom), env)
    fspl = fspl_db(radio.f_c_hz, slant_distance(geom))
    margin = radio.p_tx_dbm + radio.g_db - fspl - radio.p_min_dbm
    covered = 0
    for k in range((n_samples + _MC_CHUNK - 1) // _MC_CHUNK):
        size = min(_MC_CHUNK, n_samples - k * _MC_CHUNK)
        rng = np.random.Generator(np.random.Philox(seed).jumped(k))
        u = rng.random(size)
        z = rng.standard_normal(size)
        x = np.where(
            u < pl,
            env.mu_los_db + env.sigma_los_db * z,
            env.mu_nlos_db + env.sigma_nlos_db * z,
        )
        covered += int(np.count_nonzero(x <= margin))
    return covered


def margin_at(geom, env_mu):
    """A receiver threshold that puts the link margin at (about) ``env_mu``."""
    return 40.0 + 3.0 - fspl_db(2e9, slant_distance(geom)) - env_mu


CANYON = EnvironmentProfile("canyon", a=26.5, b=0.5, mu_los_db=2.3, mu_nlos_db=34.0)

# (geometry, environment, p_min): p_los near 0, near 1, and in between, with the
# margin inside a branch's spread or within rounding of a branch mean
SAMPLER_CASES = {
    "plos-near-0": (LinkGeometry(5000.0, 1.0), CANYON, -95.0),
    "plos-near-1": (LinkGeometry(0.0, 300.0), SUBURBAN, -75.0),
    "mid": (LinkGeometry(200.0, 100.0), URBAN, -60.0),
    "margin-at-nlos-mean": (LinkGeometry(200.0, 100.0), URBAN,
                            margin_at(LinkGeometry(200.0, 100.0), 20.0)),
    "tiny-sigma-at-los-mean": (
        LinkGeometry(200.0, 100.0),
        EnvironmentProfile("sharp", a=10.6, b=0.18, mu_los_db=1.0, mu_nlos_db=20.0,
                           sigma_los_db=1e-13, sigma_nlos_db=1e-13),
        margin_at(LinkGeometry(200.0, 100.0), 1.0)),
    # the margin below the LoS mean: an NLoS draw can pass where a LoS draw cannot
    "nlos-passes-where-los-fails": (
        LinkGeometry(200.0, 100.0),
        EnvironmentProfile("wide-nlos", a=10.6, b=0.18, mu_los_db=0.0, mu_nlos_db=1.0,
                           sigma_los_db=1e-13, sigma_nlos_db=8.0),
        margin_at(LinkGeometry(200.0, 100.0), -1.0)),
}


class TestMonteCarloReference:
    @pytest.mark.parametrize("n_samples", [1, 32767, 32768, 32769, 100_000])
    @pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
    def test_matches_float_sampler(self, case, n_samples):
        geom, env, p_min = SAMPLER_CASES[case]
        radio = make_radio(p_min_dbm=p_min)
        for seed in (0, 9, 1_000_003 * 717 + 5):
            mc = coverage_monte_carlo(geom, env, radio, n_samples=n_samples, seed=seed)
            covered = reference_covered(geom, env, radio, n_samples, seed)
            assert mc.estimate == covered / n_samples, (case, n_samples, seed)

    def test_cases_cover_both_extremes_of_p_los(self):
        theta = {name: elevation_angle_deg(geom) for name, (geom, _, _) in SAMPLER_CASES.items()}
        assert p_los(theta["plos-near-0"], CANYON) < 1e-6
        assert p_los(theta["plos-near-1"], SUBURBAN) > 1.0 - 1e-9


def test_a_cell_draws_every_chunk_from_one_bit_generator(monkeypatch):
    # chunk k's stream is set on the cell's one Philox, where jumped(k) would build a
    # fresh one per chunk; the draws are those of the reference's jumped(k) streams
    made = []

    class OnePhilox(np.random.Philox):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

        def jumped(self, *args, **kwargs):
            raise AssertionError("a chunk stream was jumped")

    geom, env, p_min = SAMPLER_CASES["mid"]
    radio, n_samples = make_radio(p_min_dbm=p_min), 3 * _MC_CHUNK + 17
    monkeypatch.setattr(np.random, "Philox", OnePhilox)
    mc = coverage_monte_carlo(geom, env, radio, n_samples=n_samples, seed=9)
    assert len(made) == 1
    monkeypatch.undo()
    assert mc.estimate == reference_covered(geom, env, radio, n_samples, 9) / n_samples


finite = dict(allow_nan=False, allow_infinity=False)


class TestZThreshold:
    @given(
        mu=st.one_of(st.floats(-1e3, 1e3, **finite), st.floats(-1e300, 1e300, **finite)),
        sigma=st.one_of(st.floats(1e-3, 1e3), st.floats(5e-324, 1e-6), st.floats(1e-6, 1e300)),
        delta=st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9), st.floats(-1e3, 1e3)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(mu=34.0, sigma=8.0, delta=0.001, seed=0)
    @example(mu=34.0, sigma=8.0, delta=1e-7, seed=0)
    @example(mu=1e300, sigma=1e-300, delta=0.0, seed=0)
    @example(mu=-0.0, sigma=5e-324, delta=0.0, seed=0)
    @settings(deadline=None, max_examples=400)
    def test_threshold_is_exact_and_cheap(self, mu, sigma, delta, seed):
        margin = mu + delta
        evaluations = []

        def passes(z):
            evaluations.append(z)
            return mu + sigma * z <= margin

        z_star = _last_passing_double(passes, (margin - mu) / sigma)
        assert len(evaluations) <= 66
        assert z_star == _z_threshold(mu, sigma, margin)
        assert passes(z_star) and not passes(math.nextafter(z_star, math.inf))

        z = np.concatenate([
            [z_star, math.nextafter(z_star, -math.inf), math.nextafter(z_star, math.inf),
             0.0, -0.0, (margin - mu) / sigma],
            np.random.default_rng(seed).standard_normal(256),
        ])
        with np.errstate(over="ignore", invalid="ignore"):
            expect = mu + sigma * z <= margin
        np.testing.assert_array_equal(z <= z_star, expect)
