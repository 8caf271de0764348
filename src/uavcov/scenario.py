"""Populate a service area with ground users and evaluate one UAV serving them.

Per-user analytic link statistics come from the channel and coverage modules
and stay numpy columns, which ``UserColumns`` holds read-only. The empirical
covered fraction re-draws the shadowing model once per user per draw from a
stream derived from the scenario seed, so results are reproducible bit for
bit. Draws are generated in blocks of whole draws, so memory grows with the
number of users, not with the number of draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .channel import MAX_LENGTH_M, EnvironmentProfile, _angle_and_fspl
from .coverage import (MAX_DRAWS, FormulationMode, RadioConfig, _coverage_arrays,
                       _draw_covered, noise_power_dbm, received_power_dbm)
from .errors import InputError, check_in

AREA_SHAPES = ("square", "disk")

# user-draws per shadowing block: the scenario's working set is a few arrays of
# this many elements whatever n_draws is (a block holds at least one whole draw,
# so one draw of n_users is the floor); 2**18 was a little faster than 2**20
SHADOWING_BLOCK_ELEMENTS = 1 << 18

# the most users one scenario may hold, checked before anything is allocated; a
# CLI scenario run written to a file peaked at ~66 MB plus ~0.14 KB of RSS per user
# (10^5 to 5*10^5 users, numpy 2.4, x86-64), so a run at the cap peaks near 0.65 GB
MAX_USERS = 1 << 22


@dataclass(frozen=True)
class ScenarioSpec:
    """One service area, one UAV, one environment, one seed.

    The UAV defaults to the area centre. ``area_shape`` selects a square of
    side ``area_side_m`` or the inscribed disk of radius ``area_side_m / 2``.
    """

    n_users: int
    env: EnvironmentProfile
    radio: RadioConfig
    seed: int
    area_side_m: float = 1000.0
    area_shape: str = "square"
    uav_x_m: float | None = None
    uav_y_m: float | None = None
    uav_h_m: float = 100.0
    n_draws: int = 100
    mode: FormulationMode = FormulationMode.STANDARD

    def __post_init__(self):
        object.__setattr__(self, "mode", FormulationMode(self.mode))
        _check_users(self.n_users, self.area_side_m, self.seed, self.area_shape)
        # the draw cap, as a bound on the draws of this many users
        check_in(self.n_draws, 1, MAX_DRAWS // self.n_users, "n_draws",
                 f"shadowing draw count for n_users={self.n_users}", kind=int)
        # a UAV coordinate left unset is the area centre, which lies within the bound
        _check_uav(self.uav_position)

    @property
    def uav_position(self) -> tuple[float, float, float]:
        centre = self.area_side_m / 2.0
        x = centre if self.uav_x_m is None else self.uav_x_m
        y = centre if self.uav_y_m is None else self.uav_y_m
        return (x, y, self.uav_h_m)


# the per-user columns, in CSV column order
_COLUMN_NAMES = ("x_m", "y_m", "r0_m", "theta_deg", "p_los", "mean_pl_db", "p_cov", "snr_db",
                 "rate_bps")


class UserColumns:
    """Per-user link statistics as read-only numpy columns.

    ``columns`` maps each column name, in CSV column order, to a read-only
    float64 array; ``len`` is the user count. Two views are equal when their
    columns are equal element for element.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: dict):
        arrays = {}
        for name in _COLUMN_NAMES:
            array = np.asarray(columns[name], dtype=float).view()
            array.flags.writeable = False
            arrays[name] = array
        self.columns = MappingProxyType(arrays)

    def __len__(self) -> int:
        return len(self.columns["x_m"])

    def __eq__(self, other):
        if not isinstance(other, UserColumns):
            return NotImplemented
        return all(np.array_equal(self.columns[name], other.columns[name])
                   for name in _COLUMN_NAMES)

    __hash__ = None

    def __repr__(self) -> str:
        return f"UserColumns(<{len(self)} users>)"


@dataclass(frozen=True)
class ScenarioSummary:
    mean_p_cov: float
    covered_fraction_draws: tuple[float, ...]
    sum_rate_bps: float
    total_power_w: float
    energy_efficiency_bpj: float


@dataclass(frozen=True)
class ScenarioResult:
    records: UserColumns
    summary: ScenarioSummary


def _check_users(n_users, area_side_m, seed, area_shape) -> None:
    # the checks that ScenarioSpec and generate_users share, under ScenarioSpec's fields
    check_in(n_users, 1, MAX_USERS, "n_users", "user count", kind=int)
    check_in(area_side_m, 0.0, MAX_LENGTH_M, "area_side_m", "area side", "m", "(]")
    check_in(seed, 0, math.inf, "seed", "seed", "", "[)", kind=int)
    if area_shape not in AREA_SHAPES:
        raise InputError(f"unknown area shape {area_shape!r}; expected one of {AREA_SHAPES}",
                         field="area_shape")


def _check_uav(uav) -> None:
    x, y, h = uav
    check_in(x, -MAX_LENGTH_M, MAX_LENGTH_M, "uav_x_m", "UAV position uav_x_m", "m")
    check_in(y, -MAX_LENGTH_M, MAX_LENGTH_M, "uav_y_m", "UAV position uav_y_m", "m")
    check_in(h, 0.0, MAX_LENGTH_M, "uav_h_m", "UAV altitude", "m", "(]")


def generate_users(n: int, area_side_m: float, seed: int, shape: str = "square") -> np.ndarray:
    """Uniform user positions, shape (n, 2), deterministic per seed."""
    _check_users(n, area_side_m, seed, shape)
    rng = np.random.default_rng(seed)
    if shape == "square":
        return rng.random((n, 2)) * area_side_m
    # uniform over the inscribed disk: radius scales with sqrt(U)
    radius = area_side_m / 2.0
    r = radius * np.sqrt(rng.random(n))
    phi = 2.0 * np.pi * rng.random(n)
    centre = area_side_m / 2.0
    return np.column_stack((centre + r * np.cos(phi), centre + r * np.sin(phi)))


def _link_arrays(positions, uav, env, radio, mode):
    x, y = positions[:, 0], positions[:, 1]
    r0 = np.hypot(x - uav[0], y - uav[1])
    theta, fspl = _angle_and_fspl(r0, uav[2], radio.f_c_hz)
    cols = _coverage_arrays(theta, fspl, env, radio, mode)
    snr_db = received_power_dbm(radio, cols.mean_pl_db) - noise_power_dbm(radio)
    # 10 ** (snr_db / 10) overflows past ~3082 dB, but 1 + x == x in float64 from
    # ~160 dB on, so there log2(1 + x) is log2(x) = snr_db * log2(10) / 10
    with np.errstate(over="ignore"):
        snr = 10.0 ** (snr_db / 10.0)
        rate = radio.bandwidth_hz * np.where(np.isfinite(snr), np.log2(1.0 + snr),
                                             snr_db * (math.log2(10.0) / 10.0))
    return {
        "x_m": x, "y_m": y, "r0_m": r0, "theta_deg": cols.theta_deg, "p_los": cols.p_los,
        "fspl_db": cols.fspl_db, "mean_pl_db": cols.mean_pl_db, "p_cov": cols.p_cov,
        "snr_db": snr_db, "rate_bps": rate,
    }


def evaluate_links(
    positions: np.ndarray,
    uav: tuple[float, float, float],
    env: EnvironmentProfile,
    radio: RadioConfig,
    mode: FormulationMode | str = FormulationMode.STANDARD,
    workers: int = 1,
) -> UserColumns:
    """Analytic per-user link statistics for explicit positions and UAV site.

    ``positions`` is an (n, 2) array of user coordinates. They and the UAV's x
    and y lie within +-MAX_LENGTH_M, the UAV's altitude in (0, MAX_LENGTH_M]. The
    links are evaluated on the calling thread; ``workers`` is accepted for
    compatibility and has no effect.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2 or not positions.size:
        raise InputError("positions must be an (n, 2) array with n >= 1, got shape "
                         f"{positions.shape}", field="positions")
    check_in(positions, -MAX_LENGTH_M, MAX_LENGTH_M, "positions", "user position", "m",
             kind=np.ndarray)
    _check_uav(uav)
    return UserColumns(_link_arrays(positions, uav, env, radio, FormulationMode(mode)))


def energy_efficiency(sum_rate_bps: float, total_power_w: float) -> float:
    """System sum-rate per watt of transmit power, in bits per joule."""
    check_in(total_power_w, 0.0, math.inf, "total_power_w", "total power", "W", "()")
    return sum_rate_bps / total_power_w


def _covered_fractions(spec: ScenarioSpec, p_los: np.ndarray, fspl: np.ndarray) -> tuple:
    """Covered fraction of the users in each of ``spec.n_draws`` shadowing draws.

    Draw ``d`` of user ``i`` takes the uniform and the normal at flat index
    ``d * n_users + i`` of two streams: the uniforms from the scenario's
    shadowing generator, the normals from a copy of it advanced past every
    uniform. That is exactly where a single ``random((n_draws, n_users))``
    followed by ``standard_normal((n_draws, n_users))`` would take them, so
    the block size never changes a result.
    """
    env, radio = spec.env, spec.radio
    # one shadowing realization per (draw, user); stream independent of the
    # position stream so adding draws never disturbs the layout
    uniform_bits = np.random.PCG64(np.random.SeedSequence(entropy=spec.seed, spawn_key=(1,)))
    normal_bits = np.random.PCG64()
    normal_bits.state = uniform_bits.state
    normal_bits.advance(spec.n_draws * spec.n_users)  # one 64-bit output per uniform
    uniforms = np.random.Generator(uniform_bits)
    normals = np.random.Generator(normal_bits)

    margin = received_power_dbm(radio, fspl) - radio.p_min_dbm
    rows = max(1, SHADOWING_BLOCK_ELEMENTS // spec.n_users)
    fractions = []
    for first in range(0, spec.n_draws, rows):
        shape = (min(rows, spec.n_draws - first), spec.n_users)
        u = uniforms.random(shape)
        z = normals.standard_normal(shape)
        covered = _draw_covered(u < p_los, env.mu_los_db + env.sigma_los_db * z <= margin,
                                env.mu_nlos_db + env.sigma_nlos_db * z <= margin)
        fractions.extend(covered.mean(axis=1).tolist())
    return tuple(fractions)


def evaluate_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Generate users, evaluate every link, and aggregate the area metrics.

    ``covered_fraction_draws`` holds one covered fraction per shadowing draw;
    each draw realizes an independent LoS/NLoS pick and excess loss for every
    user. All randomness derives from ``spec.seed``.
    """
    positions = generate_users(spec.n_users, spec.area_side_m, spec.seed, spec.area_shape)
    cols = _link_arrays(positions, spec.uav_position, spec.env, spec.radio, spec.mode)
    fractions = _covered_fractions(spec, cols["p_los"], cols["fspl_db"])

    radio = spec.radio
    with np.errstate(over="ignore"):
        sum_rate = float(np.sum(cols["rate_bps"]))
    total_power_w = 10.0 ** ((radio.p_tx_dbm - 30.0) / 10.0)
    efficiency = energy_efficiency(sum_rate, total_power_w)
    # legal but extreme radio values and geometry can still carry these past a double
    if not math.isfinite(sum_rate):
        raise InputError("sum rate overflows a double", field="bandwidth_hz")
    if not math.isfinite(efficiency):
        raise InputError(f"energy efficiency {sum_rate} bps / {total_power_w} W overflows a "
                         "double", field="p_tx_dbm")
    summary = ScenarioSummary(
        mean_p_cov=float(np.mean(cols["p_cov"])),
        covered_fraction_draws=fractions,
        sum_rate_bps=sum_rate,
        total_power_w=total_power_w,
        energy_efficiency_bpj=efficiency,
    )
    return ScenarioResult(records=UserColumns(cols), summary=summary)

