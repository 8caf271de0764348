"""Air-to-ground channel math: geometry, LoS probability, path loss.

Expected values marked "oracle" were computed independently with mpmath at
50 decimal digits from the closed-form definitions; they are frozen here so
the tests never depend on the code path they check.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavcov import channel
from uavcov.channel import (
    BUILTIN_ENVIRONMENTS,
    DENSE_URBAN,
    HIGH_RISE_URBAN,
    SUBURBAN,
    URBAN,
    EnvironmentProfile,
    LinkGeometry,
    elevation_angle_deg,
    fspl_db,
    mean_path_loss_db,
    p_los,
    p_nlos,
    slant_distance,
)
from uavcov.coverage import FormulationMode, RadioConfig, _coverage_arrays, coverage_probability
from uavcov.errors import DomainError, InvalidGeometryError

# mpmath oracles (50 dps), truncated to double precision
SLANT_500_100 = 509.90195135927848300
ELEV_500_100 = 11.309932474020213086
PLOS_SUBURBAN_20 = 0.97156649128611287432
PLOS_URBAN_45 = 0.97877549736316204822
PLOS_DENSE_45 = 0.89531958790443912937
PLOS_HIGHRISE_45 = 0.29480822373354996844
PLOS_SUBURBAN_45 = 0.99999536255046426857
FSPL_2GHZ_100M = 78.468383135162997712
DOUBLING_DB = 6.0205999132796239043
MEAN_PL_100_100_SUBURBAN_2GHZ = 81.578780014498106451


class TestEnvironmentProfile:
    def test_builtin_table_values(self):
        table = {
            "suburban": (5.2, 0.35, 0.1, 21.0),
            "urban": (10.6, 0.18, 1.0, 20.0),
            "dense-urban": (11.95, 0.14, 1.6, 23.0),
            "high-rise-urban": (26.5, 0.13, 2.3, 34.0),
        }
        assert set(BUILTIN_ENVIRONMENTS) == set(table)
        for name, (a, b, mu_l, mu_n) in table.items():
            env = BUILTIN_ENVIRONMENTS[name]
            assert (env.a, env.b, env.mu_los_db, env.mu_nlos_db) == (a, b, mu_l, mu_n)

    def test_builtin_sigma_defaults(self):
        # not part of the parameter table; documented library defaults
        for env in BUILTIN_ENVIRONMENTS.values():
            assert env.sigma_los_db == 3.0
            assert env.sigma_nlos_db == 8.0

    def test_custom_environment(self):
        env = EnvironmentProfile("campus", a=8.0, b=0.2, mu_los_db=0.5, mu_nlos_db=15.0)
        assert p_los(45.0, env) == pytest.approx(1 / (1 + 8.0 * math.exp(-0.2 * 37.0)))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a=0.0, b=0.1, mu_los_db=1.0, mu_nlos_db=2.0),
            dict(a=5.0, b=-0.1, mu_los_db=1.0, mu_nlos_db=2.0),
            dict(a=5.0, b=0.1, mu_los_db=-0.5, mu_nlos_db=2.0),
            dict(a=5.0, b=0.1, mu_los_db=3.0, mu_nlos_db=2.0),
            dict(a=5.0, b=0.1, mu_los_db=1.0, mu_nlos_db=2.0, sigma_los_db=0.0),
            dict(a=5.0, b=0.1, mu_los_db=1.0, mu_nlos_db=2.0, sigma_nlos_db=-1.0),
            dict(a=math.nan, b=0.1, mu_los_db=1.0, mu_nlos_db=2.0),
            dict(a=5.0, b=math.inf, mu_los_db=1.0, mu_nlos_db=2.0),
        ],
    )
    def test_invalid_profile_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EnvironmentProfile("bad", **kwargs)

    @pytest.mark.parametrize("field, value", [
        ("sigma_los_db", 5e-324), ("sigma_nlos_db", 1e-200),
        ("sigma_los_db", math.nextafter(channel.MIN_SIGMA_DB, 0.0)),
        ("sigma_nlos_db", math.nextafter(channel.MAX_ABS_DB, math.inf)), ("sigma_los_db", 1e308),
        ("mu_nlos_db", 1.7e308), ("mu_nlos_db", math.nextafter(channel.MAX_ABS_DB, math.inf)),
        ("mu_los_db", 1e300), ("mu_los_db", math.nan), ("sigma_nlos_db", math.nan),
        ("sigma_los_db", math.inf),
    ])
    def test_db_field_out_of_range_names_the_field(self, field, value):
        kwargs = dict(a=5.0, b=0.1, mu_los_db=1.0, mu_nlos_db=20.0)
        with pytest.raises(DomainError) as info:
            EnvironmentProfile("bad", **{**kwargs, field: value})
        assert info.value.field == field

    def test_db_field_bounds_are_inclusive(self):
        for sigma in (channel.MIN_SIGMA_DB, 1e-13, 1e-9, channel.MAX_ABS_DB):
            EnvironmentProfile("edge", a=5.0, b=0.1, mu_los_db=channel.MAX_ABS_DB,
                               mu_nlos_db=channel.MAX_ABS_DB, sigma_los_db=sigma,
                               sigma_nlos_db=sigma)

    def test_lookup_accepts_loose_names(self):
        assert channel.builtin_environment("dense urban") is DENSE_URBAN
        assert channel.builtin_environment("Highrise_Urban") is HIGH_RISE_URBAN
        with pytest.raises(KeyError):
            channel.builtin_environment("orbital")


class TestGeometry:
    def test_pythagorean_triple(self):
        assert slant_distance(LinkGeometry(r0_m=3.0, h_m=4.0)) == pytest.approx(5.0, abs=1e-12)

    def test_directly_overhead(self):
        assert slant_distance(LinkGeometry(r0_m=0.0, h_m=120.0)) == 120.0

    def test_slant_oracle(self):
        assert slant_distance(LinkGeometry(500.0, 100.0)) == pytest.approx(SLANT_500_100, abs=1e-9)

    def test_elevation_45(self):
        assert elevation_angle_deg(LinkGeometry(100.0, 100.0)) == pytest.approx(45.0, abs=1e-12)

    def test_elevation_zenith(self):
        assert elevation_angle_deg(LinkGeometry(0.0, 50.0)) == 90.0

    def test_elevation_oracle(self):
        assert elevation_angle_deg(LinkGeometry(500.0, 100.0)) == pytest.approx(
            ELEV_500_100, abs=1e-9
        )

    @pytest.mark.parametrize(
        "r0,h",
        [(-1.0, 100.0), (float("nan"), 100.0), (100.0, 0.0), (100.0, -5.0),
         (float("inf"), 100.0), (100.0, float("nan"))],
    )
    def test_invalid_geometry_rejected(self, r0, h):
        with pytest.raises(InvalidGeometryError):
            LinkGeometry(r0, h)

    @pytest.mark.parametrize("mode", list(FormulationMode))
    def test_scalar_helpers_are_the_kernel_bits(self, mode):
        # 10**4 seeded links over eight decades of distance and six of altitude, plus r0 = 0
        rng = np.random.default_rng(2014)
        r0s = [0.0, *(10.0 ** rng.uniform(-3.0, 5.0, 10_000)).tolist()]
        hs = [120.0, *(10.0 ** rng.uniform(-2.0, 4.0, 10_000)).tolist()]
        radio = RadioConfig()
        angle_diffs = fspl_diffs = 0
        for r0, h in zip(r0s, hs):
            geom = LinkGeometry(r0, h)
            kernel = coverage_probability(geom, URBAN, radio, mode)
            angle_diffs += elevation_angle_deg(geom) != kernel.theta_deg
            fspl_diffs += fspl_db(radio.f_c_hz, slant_distance(geom)) != kernel.fspl_db
        assert (angle_diffs, fspl_diffs) == (0, 0)

    @given(
        r0=st.floats(0.0, 1e5, allow_nan=False),
        h=st.floats(0.1, 1e4, allow_nan=False),
    )
    @settings(deadline=None, max_examples=200)
    def test_slant_bounds_and_angle_range(self, r0, h):
        geom = LinkGeometry(r0, h)
        d = slant_distance(geom)
        assert max(r0, h) <= d <= r0 + h + 1e-9
        phi = elevation_angle_deg(geom)
        assert 0.0 < phi <= 90.0


class TestLosProbability:
    def test_exponent_vanishes_at_theta_equals_a(self):
        # theta == a makes the sigmoid exponent zero: value is 1/(1+a)
        assert p_los(5.2, SUBURBAN) == pytest.approx(1 / 6.2, abs=1e-15)
        assert p_nlos(5.2, SUBURBAN) == pytest.approx(5.2 / 6.2, abs=1e-15)

    def test_point_oracles(self):
        assert p_los(20.0, SUBURBAN) == pytest.approx(PLOS_SUBURBAN_20, abs=1e-12)
        assert p_los(45.0, URBAN) == pytest.approx(PLOS_URBAN_45, abs=1e-12)
        assert p_los(45.0, DENSE_URBAN) == pytest.approx(PLOS_DENSE_45, abs=1e-12)
        assert p_los(45.0, HIGH_RISE_URBAN) == pytest.approx(PLOS_HIGHRISE_45, abs=1e-12)

    def test_domain_rejected(self):
        for bad in (-0.1, 90.1, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                p_los(bad, URBAN)
            with pytest.raises(DomainError):
                p_nlos(bad, URBAN)

    def test_exact_zero_far_below_the_knee_without_warning(self):
        # exp overflows to inf below ~24.5 degrees here; 1 / (1 + a*inf) is exactly 0
        steep = EnvironmentProfile("steep", a=60.0, b=20.0, mu_los_db=1.0, mu_nlos_db=20.0)
        theta = np.arange(0.0, 90.5, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pl = p_los(theta, steep)
            assert p_los(0.0, steep) == 0.0 and p_nlos(0.0, steep) == 1.0
            mean_pl = mean_path_loss_db(LinkGeometry(1e4, 1.0), steep, 2e9)
        assert np.all(pl[theta < 24.5] == 0.0) and np.all(pl[theta >= 25.0] > 0.0)
        assert pl[-1] == 1.0
        assert mean_pl == fspl_db(2e9, math.hypot(1e4, 1.0)) + 20.0

    def test_complement_identity_on_grid(self):
        theta = np.arange(0.0, 90.5, 0.5)
        for env in BUILTIN_ENVIRONMENTS.values():
            pl = p_los(theta, env)
            pn = p_nlos(theta, env)
            assert np.all(pl > 0.0) and np.all(pl < 1.0)
            assert np.all(pn > 0.0) and np.all(pn < 1.0)
            assert np.max(np.abs(pl + pn - 1.0)) <= 1e-15

    def test_p_nlos_values_bit_for_bit(self):
        # the sigmoid written out, as p_nlos once repeated it
        theta = np.concatenate([np.arange(0.0, 90.5, 0.5), [1e-300, 5e-324, 89.999999]])
        for env in BUILTIN_ENVIRONMENTS.values():
            expect = 1.0 - 1.0 / (1.0 + env.a * np.exp(-env.b * (theta - env.a)))
            np.testing.assert_array_equal(p_nlos(theta, env), expect)
            for t, e in zip(theta.tolist(), expect.tolist()):
                got = p_nlos(t, env)
                assert type(got) is float and got == e

    def test_strictly_increasing_on_grid(self):
        theta = np.arange(0.0, 90.5, 0.5)
        for env in BUILTIN_ENVIRONMENTS.values():
            pl = p_los(theta, env)
            assert np.all(np.diff(pl) > 0.0)

    def test_ordering_at_45_degrees(self):
        values = [p_los(45.0, env) for env in (SUBURBAN, URBAN, DENSE_URBAN, HIGH_RISE_URBAN)]
        assert values == sorted(values, reverse=True)
        assert values[0] == pytest.approx(PLOS_SUBURBAN_45, abs=1e-12)

    @given(
        theta=st.floats(0.0, 90.0, allow_nan=False),
        a=st.floats(0.1, 50.0, allow_nan=False),
        b=st.floats(0.01, 1.0, allow_nan=False),
    )
    @settings(deadline=None, max_examples=200)
    def test_complement_identity_any_environment(self, theta, a, b):
        env = EnvironmentProfile("gen", a=a, b=b, mu_los_db=1.0, mu_nlos_db=20.0)
        assert abs(p_los(theta, env) + p_nlos(theta, env) - 1.0) <= 1e-15


class TestPathLoss:
    def test_zero_db_argument(self):
        # f_c * d = c / (4 pi) makes the log argument exactly one
        c = 299792458.0
        assert fspl_db(c / (4 * math.pi), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_fspl_oracle(self):
        assert fspl_db(2e9, 100.0) == pytest.approx(FSPL_2GHZ_100M, abs=1e-9)

    def test_distance_doubling(self):
        for d in (1.0, 37.5, 512.0):
            delta = fspl_db(2e9, 2 * d) - fspl_db(2e9, d)
            assert delta == pytest.approx(DOUBLING_DB, abs=1e-9)

    @given(
        f_c=st.floats(1e6, 1e11, allow_nan=False),
        d=st.floats(1e-3, 1e5, allow_nan=False),
    )
    @settings(deadline=None, max_examples=200)
    def test_doubling_law_property(self, f_c, d):
        assert fspl_db(f_c, 2 * d) - fspl_db(f_c, d) == pytest.approx(DOUBLING_DB, abs=1e-9)

    def test_domain_rejected(self):
        for f_c, d in [(0.0, 10.0), (-1e9, 10.0), (2e9, 0.0), (2e9, -3.0)]:
            with pytest.raises(DomainError):
                fspl_db(f_c, d)

    @pytest.mark.parametrize("f_c, d", [
        (1e300, 1e300),  # 4*pi*f*d overflows
        (2e9, 1e300),
        (1e-300, 1e-20),  # the ratio underflows to 0
        (5e-324, 5e-324),
        (1e-160, 1e-150),  # the ratio is subnormal
        (1e-310, 1e300),  # 4*pi*f is subnormal, so the normal ratio lost its low bits
        (5e-324, 1e300),
    ])
    def test_finite_where_the_ratio_is_not_a_normal_double(self, f_c, d):
        logs = math.log10(4 * math.pi / 299792458.0) + math.log10(f_c) + math.log10(d)
        got = fspl_db(f_c, d)
        assert math.isfinite(got)
        assert got == pytest.approx(20 * logs, rel=1e-14)

    def test_normal_ratios_keep_the_product_form_bit_for_bit(self):
        # one array mixing normal and non-normal links: only the latter take the log sum
        f = np.array([2e9, 1e300, 5.8e9, 1e-300, 7e8, 1e-310])
        d = np.array([100.0, 1e300, 1e-3, 1e-20, 12345.678, 1e300])
        got = fspl_db(f, d)
        normal = [0, 2, 4]
        expect = 20.0 * np.log10(4.0 * np.pi * f[normal] * d[normal] / 299792458.0)
        assert np.array_equal(got[normal], expect)
        logs = np.log10(4 * np.pi / 299792458.0) + np.log10(f[[1, 3, 5]]) + np.log10(d[[1, 3, 5]])
        assert np.allclose(got[[1, 3, 5]], 20 * logs, rtol=1e-14, atol=0.0)
        assert fspl_db(2e9, 100.0) == expect[0]

    def test_mean_path_loss_finite_at_the_largest_frequency(self):
        # 4*pi*f overflows before the distance is applied
        f_c = 1.5e308
        logs = math.log10(4 * math.pi / 299792458.0) + math.log10(f_c) + math.log10(200.0)
        pl = mean_path_loss_db(LinkGeometry(0.0, 200.0), URBAN, f_c)
        assert math.isfinite(pl)
        assert pl == pytest.approx(20 * logs, abs=URBAN.mu_nlos_db + 1e-9)

    def test_monotonic_in_distance_and_frequency(self):
        d = np.linspace(1.0, 5000.0, 200)
        assert np.all(np.diff(fspl_db(2e9, d)) > 0)
        f = np.linspace(1e8, 1e10, 200)
        assert np.all(np.diff(fspl_db(f, 100.0)) > 0)


class TestMeanPathLoss:
    def test_zero_excess_equals_fspl(self):
        env = EnvironmentProfile("clear", a=9.6, b=0.28, mu_los_db=0.0, mu_nlos_db=0.0)
        geom = LinkGeometry(250.0, 100.0)
        assert mean_path_loss_db(geom, env, 2e9) == pytest.approx(
            fspl_db(2e9, slant_distance(geom)), abs=1e-12
        )

    def test_mean_pl_oracle(self):
        got = mean_path_loss_db(LinkGeometry(100.0, 100.0), SUBURBAN, 2e9)
        assert got == pytest.approx(MEAN_PL_100_100_SUBURBAN_2GHZ, abs=1e-9)

    def test_bounded_by_excess_loss_band(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            geom = LinkGeometry(float(rng.uniform(0, 2000)), float(rng.uniform(10, 1500)))
            for env in BUILTIN_ENVIRONMENTS.values():
                base = fspl_db(2e9, slant_distance(geom))
                pl = mean_path_loss_db(geom, env, 2e9)
                assert base + env.mu_los_db - 1e-9 <= pl <= base + env.mu_nlos_db + 1e-9

    def test_overhead_limit(self):
        # r0 -> 0 tends continuously to the zenith evaluation
        h = 150.0
        limit = mean_path_loss_db(LinkGeometry(0.0, h), URBAN, 2e9)
        expect = fspl_db(2e9, h) + URBAN.mu_los_db * p_los(90.0, URBAN) + URBAN.mu_nlos_db * p_nlos(
            90.0, URBAN
        )
        assert limit == pytest.approx(expect, abs=1e-12)
        near = mean_path_loss_db(LinkGeometry(1e-9, h), URBAN, 2e9)
        assert near == pytest.approx(limit, abs=1e-9)

    def test_equals_the_coverage_kernel_bit_for_bit(self):
        radio = RadioConfig(f_c_hz=2.4e9)
        for env in BUILTIN_ENVIRONMENTS.values():
            for r0 in (0.0, 15.0, 200.0, 1234.5):
                for h in (1.0, 100.0, 750.0):
                    kernel = _coverage_arrays(r0, h, env, radio,
                                              FormulationMode.STANDARD).mean_pl_db
                    assert mean_path_loss_db(LinkGeometry(r0, h), env, 2.4e9) == float(kernel)

    @pytest.mark.parametrize("f_c", [float("nan"), np.float64("nan"), 0.0, -2e9, float("inf")])
    def test_bad_frequency_names_its_field(self, f_c):
        with pytest.raises(DomainError) as info:
            mean_path_loss_db(LinkGeometry(100.0, 100.0), URBAN, f_c)
        assert info.value.field == "f_c_hz"

    def test_continuous_in_r0(self):
        h = 100.0
        r = np.linspace(0.0, 500.0, 2001)
        pl = np.array([mean_path_loss_db(LinkGeometry(float(x), h), URBAN, 2e9) for x in r])
        assert np.max(np.abs(np.diff(pl))) < 0.1
