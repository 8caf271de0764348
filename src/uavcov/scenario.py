"""Populate a service area with ground users and evaluate one UAV serving them.

Per-user analytic link statistics come from the channel and coverage modules
and stay numpy columns, which ``UserColumns`` holds read-only. The empirical
covered fraction re-draws the shadowing model once per user per draw from a
stream derived from the scenario seed, so results are reproducible bit for
bit. The link kernel runs on fixed blocks of users, and the draws on rectangles of
the (draw, user) grid of at most a fixed number of user-draws, so a scenario holds
its per-user columns, a count per draw and a fixed working set.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .channel import MAX_LENGTH_M, EnvironmentProfile, _angle_and_fspl
from .coverage import (MAX_DRAWS, FormulationMode, RadioConfig, _coverage_arrays,
                       _draw_covered, noise_power_dbm, received_power_dbm)
from .errors import InputError, check_in
from .planner import _pool_size

AREA_SHAPES = ("square", "disk")

# users per link block: the link kernel's temporaries, 2**14 doubles each, are 128 KiB,
# which cli keeps on the heap by raising glibc's mmap threshold at import
_BLOCK = 1 << 14

# user-draws per shadowing block: the shadowing's working set is a few arrays of this
# many elements whatever n_users and n_draws are. 10^5 users x 100 draws shadowed in
# 0.194, 0.189, 0.187 and 0.195 s at 2**14, 2**15, 2**16 and 2**17 on the calling thread,
# and in 0.137, 0.131, 0.128 and 0.130 s with the normals on the helper thread
# (in-process, median of 9), and the CLI run peaked at 51.6-51.8 MB RSS from 2**14 to
# 2**16 against 53.7-53.9 MB at 2**17, at either thread count (numpy 2.4, 2-vCPU x86-64)
SHADOWING_BLOCK_ELEMENTS = 1 << 16

# blocks of normals drawn ahead of the block compared, each in a buffer of its own. The
# 10^5-user CLI scenario at --workers 2, its CSV body formatted while the shadowing waits,
# ran in a median 0.217 s at a lead of 2 and 0.208 s at 3 (8 alternating fresh runs each,
# numpy 2.4, 2-vCPU x86-64). One step, a chunk of text, took ~1.8 ms, and a block of
# normals ~0.8 ms, so a lead of 2 lets the helper run dry during a step
_LEAD = 3

# the most users one scenario may hold, checked before anything is allocated; a
# CLI scenario run written to a file peaked at ~45 MB plus ~77 B of RSS per user
# (10^5 to 10^6 users, numpy 2.4, x86-64): its position and eight link columns, the
# shadowing margin among them. A run at the cap peaked at 362 MB
MAX_USERS = 1 << 22

# the most draws one scenario may make, checked before anything is allocated. A CLI run
# written to a file traced ~55 B per added draw (a count and a fraction; 1 user, 2**14 to
# 2**18 draws) and ~81 B per added user (1 draw, 2**15 to 2**18 users), so one at this cap
# traces ~0.23 GB, less than the ~0.34 GB of one at MAX_USERS users (numpy 2.4, x86-64)
_MAX_N_DRAWS = 1 << 22


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
        # the draw cap, and MAX_DRAWS as a bound on the draws of this many users
        check_in(self.n_draws, 1, min(_MAX_N_DRAWS, MAX_DRAWS // self.n_users), "n_draws",
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
# the columns _link_arrays fills block by block; x_m and y_m are views of the positions.
# margin_db, the link margin that the shadowing draws are compared with, is not printed
_LINK_COLUMNS = ("r0_m", "theta_deg", "p_los", "margin_db", "mean_pl_db", "p_cov", "snr_db",
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
    # the kernel runs on blocks of users, so its temporaries are one block whatever
    # n_users is; every step is elementwise, so each element keeps the bits of one
    # whole-column call (_fspl's extremes only decide whether its per-link np.where runs)
    x, y = positions[:, 0], positions[:, 1]
    columns = {"x_m": x, "y_m": y}
    columns.update((name, np.empty(len(x))) for name in _LINK_COLUMNS)
    for lo in range(0, len(x), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        r0 = np.hypot(x[block] - uav[0], y[block] - uav[1])
        theta, fspl = _angle_and_fspl(r0, uav[2], radio.f_c_hz)
        cols = _coverage_arrays(theta, fspl, env, radio, mode)
        margin = received_power_dbm(radio, fspl) - radio.p_min_dbm
        snr_db = received_power_dbm(radio, cols.mean_pl_db) - noise_power_dbm(radio)
        # 10 ** (snr_db / 10) overflows past ~3082 dB, but 1 + x == x in float64 from
        # ~160 dB on, so there log2(1 + x) is log2(x) = snr_db * log2(10) / 10
        with np.errstate(over="ignore"):
            snr = 10.0 ** (snr_db / 10.0)
            rate = radio.bandwidth_hz * np.where(np.isfinite(snr), np.log2(1.0 + snr),
                                                 snr_db * (math.log2(10.0) / 10.0))
        for name, values in zip(_LINK_COLUMNS, (r0, cols.theta_deg, cols.p_los, margin,
                                                cols.mean_pl_db, cols.p_cov, snr_db, rate)):
            columns[name][block] = values
    return columns


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


def _done(fn, *args) -> Future:
    # fn(*args) run now, as a finished future, so that one loop serves both paths
    future = Future()
    future.set_result(fn(*args))
    return future


def _covered_fractions(spec: ScenarioSpec, p_los: np.ndarray, margin: np.ndarray,
                       workers: int, idle: Iterator) -> tuple:
    """Covered fraction of the users in each of ``spec.n_draws`` shadowing draws.

    ``p_los`` and ``margin`` are the users' LoS probabilities and link margins,
    the received power over free space less the receiver threshold.

    Draw ``d`` of user ``i`` takes the uniform and the normal at flat index
    ``d * n_users + i`` of two streams: the uniforms from the scenario's
    shadowing generator, the normals from a copy of it advanced past every
    uniform. That is exactly where a single ``random((n_draws, n_users))``
    followed by ``standard_normal((n_draws, n_users))`` would take them. The
    streams are drawn in blocks that are rectangles of the (draw, user) grid, of at
    most ``SHADOWING_BLOCK_ELEMENTS`` user-draws whatever ``n_users`` is: whole
    draws where one fits, else equal runs of one draw's users. A block's corners
    follow from its index and the spec alone, and its user-draws are contiguous in
    flat order, so each block is one compare. Each draw keeps an integer count of
    covered users, and ``count / n_users`` has the bits of the draw's mean, since a
    float sum of 0/1 values is exact, so the block size never changes a result.

    The normals of block ``k + _LEAD`` are drawn into one of ``_LEAD + 1`` buffers
    while block ``k`` is compared. Where ``_pool_size`` grants the ``n_draws * n_users``
    user-draws 2 threads or more of ``workers``, they are drawn on one helper thread,
    the only one a scenario starts, and otherwise on the calling thread. The normal
    stream is one generator consumed in block order either way, so the fractions do
    not depend on ``workers``. It is not split further: the ziggurat takes a variable
    number of outputs per normal, so no block's position in the stream is known
    before the blocks ahead of it are drawn.

    While the next block's normals are not yet drawn, the calling thread takes one
    step of ``idle`` at a time in place of waiting; ``idle``'s items are true until it
    runs out, and what is left of it is left untaken. A fill run on the calling thread
    is done before it is waited for, so there no step is taken.
    """
    env, n = spec.env, spec.n_users
    total = spec.n_draws * n
    # one shadowing realization per (draw, user); stream independent of the
    # position stream so adding draws never disturbs the layout
    seeds = np.random.SeedSequence(entropy=spec.seed, spawn_key=(1,))
    uniforms = np.random.Generator(np.random.PCG64(seeds))
    # the same stream advanced past every uniform, each one 64-bit output
    normals = np.random.Generator(np.random.PCG64(seeds).advance(total))

    # block k is draws d0:d1 of users i0:i1: `per` whole draws where a draw fits in a
    # block, else one of a draw's `pieces` runs of `width` users
    per = max(1, SHADOWING_BLOCK_ELEMENTS // n)
    pieces = -(-n // SHADOWING_BLOCK_ELEMENTS)
    width = -(-n // pieces)
    n_blocks = -(-spec.n_draws // per) * pieces

    def corners(k):
        d0, i0 = k // pieces * per, k % pieces * width
        return d0, min(d0 + per, spec.n_draws), i0, min(i0 + width, n)

    u = np.empty((min(per, spec.n_draws), width))
    # block k's normals are in z_blocks[k % buffers]: the block compared, the ones drawn
    # ahead of it, and the one being drawn into the buffer that the block before the
    # compared one released
    buffers = _LEAD + 1
    z_blocks = [np.empty_like(u) for _ in range(buffers)]

    def fill(k):
        d0, d1, i0, i1 = corners(k)
        normals.standard_normal(out=z_blocks[k % buffers][:d1 - d0, :i1 - i0])

    counts = np.zeros(spec.n_draws, dtype=np.intp)
    # an executor starts its thread at the first submit, so the inline path starts none
    with ThreadPoolExecutor(1) as pool:
        submit = pool.submit if _pool_size(workers, total) >= 2 else _done
        ahead = [submit(fill, k) for k in range(min(_LEAD, n_blocks))]
        for k in range(n_blocks):
            while not ahead[0].done() and next(idle, False):
                pass
            ahead.pop(0).result()
            if k + _LEAD < n_blocks:
                ahead.append(submit(fill, k + _LEAD))
            d0, d1, i0, i1 = corners(k)
            us = uniforms.random(out=u[:d1 - d0, :i1 - i0])
            zs, users = z_blocks[k % buffers][:d1 - d0, :i1 - i0], slice(i0, i1)
            covered = _draw_covered(us < p_los[users],
                                    env.mu_los_db + env.sigma_los_db * zs <= margin[users],
                                    env.mu_nlos_db + env.sigma_nlos_db * zs <= margin[users])
            counts[d0:d1] += np.count_nonzero(covered, axis=1)
    return tuple((counts / n).tolist())


def evaluate_scenario(spec: ScenarioSpec, workers: int = 1,
                      idle: Callable[[UserColumns], Iterator] | None = None) -> ScenarioResult:
    """Generate users, evaluate every link, and aggregate the area metrics.

    ``covered_fraction_draws`` holds one covered fraction per shadowing draw;
    each draw realizes an independent LoS/NLoS pick and excess loss for every
    user. All randomness derives from ``spec.seed``. ``workers`` is an integer
    of at least 1, the most threads the shadowing may use. Where it and the usable
    CPUs are both at least 2 and the scenario draws at least ``2 * _THREAD_WORK``
    user-draws (``planner._pool_size``'s rule), the shadowing's normals are drawn
    on one helper thread, ahead of the draws that the calling thread compares.
    The result does not depend on ``workers``.

    The summary's sum rate and energy efficiency need only the links, so one that leaves
    a double (``InputError`` naming ``bandwidth_hz`` or ``p_tx_dbm``) is refused before
    any draw is made or ``idle`` is called.

    ``idle``, if given, is called with the result's records once the links are
    evaluated, and returns an iterator of work whose items are true: the calling
    thread takes its steps one at a time while it would otherwise wait for the
    helper's normals, and leaves the rest untaken. Without the helper it takes none.
    """
    check_in(workers, 1, math.inf, "workers", "worker count", "", "[)", kind=int)
    positions = generate_users(spec.n_users, spec.area_side_m, spec.seed, spec.area_shape)
    cols = _link_arrays(positions, spec.uav_position, spec.env, spec.radio, spec.mode)
    with np.errstate(over="ignore"):
        sum_rate = float(np.sum(cols["rate_bps"]))
    if not math.isfinite(sum_rate):
        raise InputError("sum rate overflows a double", field="bandwidth_hz")
    # p_tx_dbm >= -MAX_ABS_DB makes this at least 1e-303 W, a positive normal double
    total_power_w = 10.0 ** ((spec.radio.p_tx_dbm - 30.0) / 10.0)
    efficiency = sum_rate / total_power_w
    if not math.isfinite(efficiency):
        raise InputError(f"energy efficiency {sum_rate} bps / {total_power_w} W overflows a "
                         "double", field="p_tx_dbm")
    records = UserColumns(cols)
    fractions = _covered_fractions(spec, cols["p_los"], cols["margin_db"], workers,
                                   iter(()) if idle is None else idle(records))
    summary = ScenarioSummary(
        mean_p_cov=float(np.mean(cols["p_cov"])),
        covered_fraction_draws=fractions,
        sum_rate_bps=sum_rate,
        total_power_w=total_power_w,
        energy_efficiency_bpj=efficiency,
    )
    return ScenarioResult(records=records, summary=summary)
