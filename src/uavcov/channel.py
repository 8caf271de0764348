"""Closed-form air-to-ground channel model.

Link geometry between a hovering UAV and a ground user, the elevation-angle
sigmoid for the LoS probability, and free-space plus environment excess path
loss. Everything here is a pure function; array inputs broadcast elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_in

SPEED_OF_LIGHT = 299792458.0  # m/s, exact by definition
# the largest magnitude of a dB field of RadioConfig or EnvironmentProfile
MAX_ABS_DB = 3000.0
# the largest magnitude of a free-space loss, in dB: 20*log10(4*pi*f*d/c) lies within
# -13080 dB (f = d = 5e-324) and +12170 dB (f = d = the largest double) for any positive
# finite frequency and distance
MAX_ABS_FSPL_DB = 13100.0
# the smallest shadowing deviation, in dB. A coverage deficit divides a numerator by
# sigma, or by sigma**2 in paper-literal mode. The numerator sums three radio dB fields
# and up to two mean excess losses, each within MAX_ABS_DB, and an FSPL within
# MAX_ABS_FSPL_DB, so it is below 3e4 dB. sigma**2 >= 1e-300, a normal double, keeps the
# quotient below 3e304.
MIN_SIGMA_DB = 1e-150
# the largest length, in meters, of a distance, an altitude, an area side or a UAV
# coordinate. A scenario user's offset from the UAV is at most two lengths per axis, so
# its ground distance is at most hypot(2, 2) = 2.83 lengths and its slant distance
# hypot(r0, h) at most 3 lengths; 3e307 is below the largest double, 1.8e308, so no
# np.hypot of the model overflows.
MAX_LENGTH_M = 1e307


@dataclass(frozen=True)
class EnvironmentProfile:
    """Propagation environment for the elevation-angle LoS model.

    ``a`` and ``b`` shape the LoS-probability sigmoid (``b`` in 1/degree);
    ``mu_los_db``/``mu_nlos_db`` are the mean excess losses added to free-space
    loss on LoS/NLoS links; ``sigma_los_db``/``sigma_nlos_db`` are the
    shadowing standard deviations of those excess losses.

    The environment parameter table behind the four built-ins specifies only
    (a, b, mu_los, mu_nlos); the shadowing deviations default to 3 dB LoS /
    8 dB NLoS and should be overridden when better values are known.
    """

    name: str
    a: float
    b: float
    mu_los_db: float
    mu_nlos_db: float
    sigma_los_db: float = 3.0
    sigma_nlos_db: float = 8.0

    def __post_init__(self):
        where = f"environment {self.name!r}"
        # the name is printed into a CSV header line and cell, and a chart's legend
        if not isinstance(self.name, str) or not self.name.isprintable() or "," in self.name:
            raise InputError(f"{where}: name must be printable text with no comma", field="name")
        check_in(self.a, 0.0, math.inf, "a", f"{where}: a", "", "()")
        check_in(self.b, 0.0, math.inf, "b", f"{where}: b", "1/degree", "()")
        check_in(self.mu_nlos_db, -MAX_ABS_DB, MAX_ABS_DB, "mu_nlos_db",
                 f"{where}: mu_nlos_db", "dB")
        # within MAX_ABS_DB too, as mu_nlos_db is
        check_in(self.mu_los_db, 0.0, self.mu_nlos_db, "mu_los_db", f"{where}: mu_los_db", "dB")
        # bounded above too, so that mu + sigma * z stays finite for every normal draw z
        for field in ("sigma_los_db", "sigma_nlos_db"):
            check_in(getattr(self, field), MIN_SIGMA_DB, MAX_ABS_DB, field, f"{where}: {field}",
                     "dB")


SUBURBAN = EnvironmentProfile("suburban", a=5.2, b=0.35, mu_los_db=0.1, mu_nlos_db=21.0)
URBAN = EnvironmentProfile("urban", a=10.6, b=0.18, mu_los_db=1.0, mu_nlos_db=20.0)
DENSE_URBAN = EnvironmentProfile("dense-urban", a=11.95, b=0.14, mu_los_db=1.6, mu_nlos_db=23.0)
HIGH_RISE_URBAN = EnvironmentProfile(
    "high-rise-urban", a=26.5, b=0.13, mu_los_db=2.3, mu_nlos_db=34.0
)

BUILTIN_ENVIRONMENTS: dict[str, EnvironmentProfile] = {
    env.name: env for env in (SUBURBAN, URBAN, DENSE_URBAN, HIGH_RISE_URBAN)
}


def builtin_environment(name: str) -> EnvironmentProfile:
    """Look up a built-in profile, tolerating space/underscore/case variants."""
    key = name.strip().lower().replace("_", "-").replace(" ", "-")
    if key == "highrise-urban":
        key = "high-rise-urban"
    try:
        return BUILTIN_ENVIRONMENTS[key]
    except KeyError:
        raise KeyError(
            f"unknown environment {name!r}; built-ins: {', '.join(BUILTIN_ENVIRONMENTS)}"
        ) from None


@dataclass(frozen=True)
class LinkGeometry:
    """Horizontal distance and UAV altitude of one UAV-to-user link, in meters."""

    r0_m: float
    h_m: float

    def __post_init__(self):
        check_in(self.r0_m, 0.0, MAX_LENGTH_M, "r0_m", "ground distance", "m")
        check_in(self.h_m, 0.0, MAX_LENGTH_M, "h_m", "altitude", "m", "(]")


def _elevation_and_slant(r0_m, h_m):
    r0 = np.asarray(r0_m, dtype=float)
    h = np.asarray(h_m, dtype=float)
    return np.degrees(np.arctan2(h, r0)), np.hypot(r0, h)


def slant_distance(geom: LinkGeometry) -> float:
    """3-D UAV-to-user distance sqrt(r0^2 + h^2) in meters."""
    return float(_elevation_and_slant(geom.r0_m, geom.h_m)[1])


def elevation_angle_deg(geom: LinkGeometry) -> float:
    """Elevation angle at the user in degrees; 90 when the UAV is overhead."""
    return float(_elevation_and_slant(geom.r0_m, geom.h_m)[0])


def _los_sigmoid(theta, env: EnvironmentProfile):
    # far below the knee exp overflows to inf, and 1 / (1 + a*inf) is the exact limit 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + env.a * np.exp(-env.b * (theta - env.a)))


_LOG10_4PI_OVER_C = np.log10(4.0 * np.pi / SPEED_OF_LIGHT)
_TINY = np.finfo(float).tiny


def _fspl(f_c_hz, d_m):
    # the product form holds where 4*pi*f and the ratio are positive normal doubles; where
    # either overflowed, lost its low bits or reached 0, the sum of the three logarithms
    # stays finite. The per-link mask is built only when the extremes show such a link;
    # an empty input has no extremes and no such link.
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        four_pi_f = 4.0 * np.pi * f_c_hz
        ratio = four_pi_f * d_m / SPEED_OF_LIGHT
        fspl = 20.0 * np.log10(ratio)
        if ratio.size and ((four_pi_f < _TINY).any() or ratio.min() < _TINY
                           or ratio.max() == np.inf):
            normal = (four_pi_f >= _TINY) & (ratio >= _TINY) & (ratio < np.inf)
            fspl = np.where(normal, fspl,
                            20.0 * (_LOG10_4PI_OVER_C + np.log10(f_c_hz) + np.log10(d_m)))
    return fspl


def p_los(theta_deg, env: EnvironmentProfile):
    """LoS probability at elevation angle ``theta_deg`` (degrees, in [0, 90]).

    Sigmoid 1 / (1 + a*exp(-b*(theta - a))), strictly increasing in the angle:
    the steeper the look angle, the fewer obstructions cut the direct ray.
    """
    theta = check_in(np.asarray(theta_deg, dtype=float), 0.0, 90.0, "theta_deg",
                     "elevation angle", "degrees", kind=np.ndarray)
    out = _los_sigmoid(theta, env)
    return float(out) if np.isscalar(theta_deg) else out


def p_nlos(theta_deg, env: EnvironmentProfile):
    """Complement of :func:`p_los`."""
    return 1.0 - p_los(theta_deg, env)


def fspl_db(f_c_hz, d_m):
    """Free-space path loss 20*log10(4*pi*f*d/c) in dB."""
    f = check_in(np.asarray(f_c_hz, dtype=float), 0.0, math.inf, "f_c_hz", "carrier frequency",
                 "Hz", "()", kind=np.ndarray)
    d = check_in(np.asarray(d_m, dtype=float), 0.0, math.inf, "d_m", "distance", "m", "()",
                 kind=np.ndarray)
    try:
        np.broadcast_shapes(f.shape, d.shape)
    except ValueError:
        raise InputError(f"distance shape {d.shape} does not broadcast with carrier frequency "
                         f"shape {f.shape}", field="d_m") from None
    out = _fspl(f, d)
    return float(out) if np.isscalar(f_c_hz) and np.isscalar(d_m) else out


def _angle_and_fspl(r0_m, h_m, f_c_hz):
    """Elevation angle in degrees and FSPL over parallel (r0, h) arrays; no validation.

    The environment-independent stage of the model: a scan computes it once per
    block of points and feeds it to every environment's stage.
    """
    theta, d = _elevation_and_slant(r0_m, h_m)
    return theta, _fspl(f_c_hz, d)


def _los_and_mean_loss(theta_deg, fspl_db, env: EnvironmentProfile):
    """LoS probability and mean path loss of one environment, from the first stage's columns."""
    pl = _los_sigmoid(theta_deg, env)
    return pl, fspl_db + env.mu_los_db * pl + env.mu_nlos_db * (1.0 - pl)
