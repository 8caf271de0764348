"""Downlink coverage probability under dB-domain Gaussian shadowing.

The analytic model mixes a Gaussian-tail term per link class (LoS, NLoS),
weighted by the LoS probability. A seeded Monte Carlo estimator drawing from
the same generative model serves as the independent cross-check.
"""

from __future__ import annotations

import importlib.util
import math
import struct
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .channel import (MAX_ABS_DB, EnvironmentProfile, LinkGeometry, _angle_and_fspl,
                      _los_and_mean_loss)
from .errors import InputError, check_in

_SQRT2 = math.sqrt(2.0)


def _load_erfc():
    """scipy's ``erfc`` ufunc, without running ``scipy/__init__.py`` or
    ``scipy/special/__init__.py``.

    The latter loads scipy's array-API backends (array_api_compat, numpy.f2py,
    numpy.testing, numpy.ma and more): ~0.25 s and ~20 MB of every run's start-up, which
    the ufunc needs none of; the former adds ~8 ms and ~1.4 MB more.
    ``scipy.special._special_ufuncs`` holds the very object that ``scipy.special.erfc``
    names and links only libstdc++; ``_ufuncs`` would link scipy's OpenBLAS, whose thread
    busy-waits after loading. Unexecuted ``scipy`` and ``scipy.special`` modules stand in
    as the parent packages while the submodule loads and then leave ``sys.modules``, the
    submodule with its stand-in parent. So a later ``import scipy.special`` runs the whole
    packages and loads the submodule again, which binds it as the package's attribute;
    the extension's cached init gives it the same ufunc. A package already imported is
    used as it is, and a scipy without ``_special_ufuncs`` takes the plain import.
    """
    stand_ins = [name for name in ("scipy", "scipy.special") if name not in sys.modules]
    try:
        for name in stand_ins:
            sys.modules[name] = importlib.util.module_from_spec(importlib.util.find_spec(name))
        from scipy.special._special_ufuncs import erfc
        return erfc
    except ImportError:
        pass
    finally:
        if "scipy.special" in stand_ins:
            stand_ins.append("scipy.special._special_ufuncs")
        for name in stand_ins:
            sys.modules.pop(name, None)
    from scipy.special import erfc
    return erfc


_erfc = _load_erfc()

# Monte Carlo draws are partitioned into fixed-size chunks; chunk k always
# consumes the counter-based stream Philox(seed).jumped(k), so the estimate is
# a sum of integers that no scheduling order can change.
_MC_CHUNK = 1 << 15

_DOUBLE = struct.Struct("<d")
_INT64 = struct.Struct("<q")
# doubles in numeric order map onto consecutive integers, -inf..inf onto
# -_KEY_INF.._KEY_INF, with -0.0 and +0.0 sharing key 0
_SIGN = 1 << 63
_KEY_INF = _INT64.unpack(_DOUBLE.pack(math.inf))[0]
# the threshold search first probes this many doubles either side of its guess
_GUESS_ULPS = 64


class FormulationMode(str, Enum):
    """How the per-branch deficit terms of the coverage mixture are assembled.

    ``standard`` puts the free-space loss plus one per-branch excess loss in
    the numerator and normalizes by the shadowing standard deviation; it is
    the reading consistent with Gaussian excess loss and is what the Monte
    Carlo estimator validates. ``paper-literal`` reproduces the published form
    of the arguments verbatim for auditing: the LoS/NLoS-averaged path loss in
    the numerator (so the branch excess is counted twice) and the variance as
    the normalizer.
    """

    STANDARD = "standard"
    PAPER_LITERAL = "paper-literal"

    @classmethod
    def _missing_(cls, value):
        # every entry point converts its mode through here, so one refusal serves them all
        raise InputError(f"unknown formulation mode {value!r}; expected one of "
                         f"{tuple(mode.value for mode in cls)}", field="mode")


@dataclass(frozen=True)
class RadioConfig:
    """Link-budget constants for the UAV downlink.

    Defaults: 2 GHz carrier, 40 dBm (10 W) UAV transmit power, 3 dB antenna
    gain, -80 dBm receiver threshold, -174 dBm/Hz noise density, 5 MHz channel.
    """

    f_c_hz: float = 2e9
    p_tx_dbm: float = 40.0
    g_db: float = 3.0
    p_min_dbm: float = -80.0
    noise_density_dbm_hz: float = -174.0
    bandwidth_hz: float = 5e6

    def __post_init__(self):
        # +-3000 dB is a factor of 10**300: the transmit power in watts,
        # 10 ** ((p_tx_dbm - 30) / 10), overflows a double above ~3100 dBm and
        # rounds to 0 below ~-3200 dBm
        for field in ("p_tx_dbm", "g_db", "p_min_dbm", "noise_density_dbm_hz"):
            check_in(getattr(self, field), -MAX_ABS_DB, MAX_ABS_DB, field,
                     f"radio config: {field}", "dB")
        for field in ("f_c_hz", "bandwidth_hz"):
            check_in(getattr(self, field), 0.0, math.inf, field, f"radio config: {field}", "Hz",
                     "()")


class CoverageColumns(NamedTuple):
    """The coverage model over broadcast (r0, h) arrays, one named array per quantity.

    :func:`coverage_probability` returns the same record at one point, with a
    float in every field.
    """

    theta_deg: np.ndarray
    p_los: np.ndarray
    fspl_db: np.ndarray
    mean_pl_db: np.ndarray
    deficit_los: np.ndarray
    deficit_nlos: np.ndarray
    q_los: np.ndarray
    q_nlos: np.ndarray
    p_cov: np.ndarray

    @property
    def p_nlos(self) -> np.ndarray:
        return 1.0 - self.p_los


@dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: float
    std_error: float
    n_samples: int


def q_function(x):
    """Standard normal tail probability P(Z > x)."""
    out = 0.5 * _erfc(np.asarray(x, dtype=float) / _SQRT2)
    return float(out) if np.isscalar(x) else out


def _deficit(radio: RadioConfig, loss, mu: float, sigma: float, mode: FormulationMode):
    numerator = (radio.p_min_dbm - radio.p_tx_dbm - radio.g_db) + loss + mu
    if mode is FormulationMode.PAPER_LITERAL:
        return numerator / (sigma * sigma)
    return numerator / sigma


def _coverage_arrays(theta_deg, fspl_db, env: EnvironmentProfile, radio: RadioConfig,
                     mode: FormulationMode) -> CoverageColumns:
    """Coverage of one environment from the columns of ``channel._angle_and_fspl``.

    The environment stage of the vectorized model; the first stage's elevation
    angle and FSPL pass through to the result unchanged. No validation.
    """
    pl, mean_pl = _los_and_mean_loss(theta_deg, fspl_db, env)
    loss = mean_pl if mode is FormulationMode.PAPER_LITERAL else fspl_db
    a = _deficit(radio, loss, env.mu_los_db, env.sigma_los_db, mode)
    b = _deficit(radio, loss, env.mu_nlos_db, env.sigma_nlos_db, mode)
    q_los = q_function(a)
    q_nlos = q_function(b)
    # q_nlos + pl*(q_los - q_nlos) == pl*q_los + (1 - pl)*q_nlos, but collapses
    # bit-exactly to the common tail when both branches coincide
    p_cov = q_nlos + pl * (q_los - q_nlos)
    return CoverageColumns(theta_deg, pl, fspl_db, mean_pl, a, b, q_los, q_nlos, p_cov)


def coverage_probability(
    geom: LinkGeometry,
    env: EnvironmentProfile,
    radio: RadioConfig,
    mode: FormulationMode | str = FormulationMode.STANDARD,
) -> CoverageColumns:
    """Probability that received power meets the threshold, with every kernel quantity."""
    theta, fspl = _angle_and_fspl(geom.r0_m, geom.h_m, radio.f_c_hz)
    cols = _coverage_arrays(theta, fspl, env, radio, FormulationMode(mode))
    return CoverageColumns._make(map(float, cols))


def _double_key(x: float) -> int:
    bits = _INT64.unpack(_DOUBLE.pack(x))[0]
    return bits if bits >= 0 else -(bits & (_SIGN - 1))


def _key_double(key: int) -> float:
    return _DOUBLE.unpack(_INT64.pack(key if key >= 0 else -_SIGN - key))[0]


def _last_passing_double(passes, guess: float) -> float:
    """Largest double ``z`` with ``passes(z)``.

    ``passes`` must be monotone: true at -inf, false at +inf, and true up to
    some double and false above it. The search bisects over the doubles in
    numeric order. It first probes ``_GUESS_ULPS`` doubles either side of
    ``guess``, so it takes 9 evaluations when the answer lies between the two
    probes and at most 66 wherever it lies.
    """
    lo, hi = -_KEY_INF, _KEY_INF  # passes at lo, fails at hi
    start = _double_key(guess)
    for probe in (start - _GUESS_ULPS, start + _GUESS_ULPS):
        if lo < probe < hi:
            if passes(_key_double(probe)):
                lo = probe
            else:
                hi = probe
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(_key_double(mid)):
            lo = mid
        else:
            hi = mid
    return _key_double(lo)


def _z_threshold(mu: float, sigma: float, margin: float) -> float:
    """Largest double ``z`` for which ``mu + sigma * z <= margin`` holds in float64.

    With ``sigma > 0`` the rounded sum never decreases as ``z`` grows, so for
    any double ``z`` the test ``z <= _z_threshold(mu, sigma, margin)`` gives
    the same answer as ``mu + sigma * z <= margin``, bit for bit.
    """
    return _last_passing_double(lambda z: mu + sigma * z <= margin, (margin - mu) / sigma)


def _draw_covered(los, covered_if_los, covered_if_nlos):
    """The draw rule of both samplers: each draw is judged by its own link class's test.

    Works in place: the result is ``covered_if_los``, and both test masks are overwritten,
    so the callers pass fresh temporaries.
    """
    covered_if_los &= los
    np.greater(covered_if_nlos, los, out=covered_if_nlos)  # covered_if_nlos & ~los
    covered_if_los |= covered_if_nlos
    return covered_if_los


# the most draws of one run of either sampler (a sweep's Monte Carlo cells x samples, a
# scenario's users x draws), checked before any draw is made. The benchmark's medians give
# ~12.6 ns per Monte Carlo draw (mc-check's run_s over its 3.6e7 draws, two worker threads)
# and at most ~18 ns per scenario user-draw (scenario-area's run_s over its 10^7, links and
# CSV included; 2-vCPU x86-64, numpy 2.4), so a run at the cap takes ~55-80 s
MAX_DRAWS = 1 << 32


def coverage_monte_carlo(
    geom: LinkGeometry,
    env: EnvironmentProfile,
    radio: RadioConfig,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> MonteCarloEstimate:
    """Estimate coverage by sampling the generative shadowing model.

    Each draw picks LoS with probability p_los(elevation), adds Gaussian
    excess loss for that class, and tests received power against the
    threshold. A cell runs on the calling thread; ``workers`` is accepted for
    compatibility and has no effect (the CLI spreads whole cells over threads
    instead). Fixed seeds give bit-identical estimates.
    """
    check_in(n_samples, 1, math.inf, "n_samples", "sample count", "", "[)", kind=int)
    check_in(seed, 0, math.inf, "seed", "seed", "", "[)", kind=int)
    # the same p_los and free-space loss bits as the analytic kernel's columns
    theta, fspl = _angle_and_fspl(geom.r0_m, geom.h_m, radio.f_c_hz)
    pl = _los_and_mean_loss(theta, fspl, env)[0]
    # covered iff excess loss X <= link margin
    margin = float(received_power_dbm(radio, fspl) - radio.p_min_dbm)
    # X = mu + sigma*z <= margin  <=>  z <= z*, exactly, per class
    z_los = _z_threshold(env.mu_los_db, env.sigma_los_db, margin)
    z_nlos = _z_threshold(env.mu_nlos_db, env.sigma_nlos_db, margin)

    # chunk k's state is Philox(seed)'s with counter word 2 set to k, exactly where
    # jumped(k) puts it; setting it takes ~1 us, where jumped(k) builds a throwaway Philox
    # seeded from OS entropy (~20 us)
    bits = np.random.Philox(seed)
    state = bits.state
    rng = np.random.Generator(bits)
    covered = 0
    for k in range((n_samples + _MC_CHUNK - 1) // _MC_CHUNK):
        state["state"]["counter"][2] = k
        bits.state = state
        size = min(_MC_CHUNK, n_samples - k * _MC_CHUNK)
        los = rng.random(size) < pl
        z = rng.standard_normal(size)
        covered += int(np.count_nonzero(_draw_covered(los, z <= z_los, z <= z_nlos)))

    estimate = covered / n_samples
    std_error = math.sqrt(estimate * (1.0 - estimate) / n_samples)
    return MonteCarloEstimate(estimate=estimate, std_error=std_error, n_samples=n_samples)


def received_power_dbm(radio: RadioConfig, total_path_loss_db: float) -> float:
    """Received power: transmit power plus antenna gain minus total loss."""
    return radio.p_tx_dbm + radio.g_db - total_path_loss_db


def noise_power_dbm(radio: RadioConfig) -> float:
    """Thermal noise integrated over the channel bandwidth."""
    return radio.noise_density_dbm_hz + 10.0 * math.log10(radio.bandwidth_hz)
