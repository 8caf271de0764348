"""Deployment planning: axis sweeps and grid searches over the coverage model.

The grid searches answer what an exhaustive scan of the grid answers, bit for
bit: the coverage objective is not known to be unimodal in altitude, so no
search assumes it is, and a block of the grid is skipped only where a bound
proves that it cannot hold the answer (``_block_bounds``). The model runs in
two stages: the elevation angle and FSPL of a set of points
(``channel._angle_and_fspl``), which no environment changes, then
``_coverage_arrays`` once per environment on those columns. Sweeps and grid
searches alike take every environment in one call and run on one block
engine, ``_scan``: it cuts the grid into blocks, computes the first stage of
each block it is asked for once for all environments, and hands each
environment's block columns to a reducer. Contiguous spans of blocks run on a
thread pool (``_map_on_pool``, which also runs the CLI's Monte Carlo cells).
Each span keeps per-block results that merge in block order, so no result
depends on the number of threads.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channel import MAX_LENGTH_M, _TINY, EnvironmentProfile, LinkGeometry, _angle_and_fspl
from .coverage import FormulationMode, RadioConfig, _coverage_arrays
from .errors import InputError, check_in

AXIS_ELEVATION = "elevation-angle-deg"
AXIS_DISTANCE = "user-distance-m"
AXIS_ALTITUDE = "altitude-m"
AXES = (AXIS_ELEVATION, AXIS_DISTANCE, AXIS_ALTITUDE)

# (start, stop, step) grids used by the CLI figure-reproduction sweeps
DEFAULT_ANGLE_SWEEP = (0.5, 90.0, 0.5)
DEFAULT_DISTANCE_SWEEP = (15.0, 500.0, 5.0)
DEFAULT_ALTITUDE_SWEEP = (50.0, 2000.0, 1.0)

# the most points one grid may hold, checked before the grid is allocated; a
# float64 array of this many points takes 128 MiB
MAX_GRID_POINTS = 1 << 24

# the planners run the model on blocks of this many points, whose temporaries stay in
# cache. The two scans of perfbench's planner-grid (4 environments x 2e6 points each)
# at two threads took (median of 5; x86-64, 2 vCPUs) 1.32 s at 2**12 and 0.98 s at
# 2**13, where the threads' many small numpy calls contend for the interpreter lock,
# 0.76 s at 2**14 and 0.67-0.69 s at 2**15 and 2**16; 2**15 also added ~2.7 MB to the
# benchmark's peak RSS. Those scans ran every block; now that the planners skip blocks on
# a bound over each block, the block size also sets how tight that bound is
_BLOCK = 1 << 14

# A block's bound is the kernel at a corner widened outward, the angles by _WIDEN degrees
# and the FSPL down by _WIDEN dB. The first stage is off from the exact model by a few
# ulps of its intermediates, which stay below 90 degrees (ulp 1.4e-14) and below
# MAX_ABS_FSPL_DB, 13100 dB (ulp 1.8e-12); paper-literal mode's mean loss adds two means
# within MAX_ABS_DB, so its sums stay below 19100 dB (ulp 3.6e-12). _WIDEN is over 10**5
# of the largest of these, so the corner's computed loss lies below every computed loss of
# its block. Every later rounding is monotone (sum, quotient by sigma or sigma**2, the
# halving of the deficit), so the corner's deficit is no larger than any of the block's,
# even where sigma = MIN_SIGMA_DB makes a tail a step. What is left is erfc's own error,
# within 1e-12 relative (tests/test_kernel_oracle.py bounds both tails so), and the
# mix's rounding, a few ulps of the larger tail: _MARGIN times the larger corner tail
# covers both 300 times over, and _TINY the tails below the normal doubles.
_WIDEN = 1e-6
_MARGIN = 1e-9


@dataclass(frozen=True)
class SweepSpec:
    """One sweep axis plus everything needed to evaluate the model on it.

    Elevation-angle sweeps hold the baseline altitude fixed and derive the
    ground distance from it (r0 = h / tan(theta)); distance sweeps hold the
    baseline altitude; altitude sweeps hold the baseline ground distance.
    """

    axis: str
    start: float
    stop: float
    step: float
    environments: tuple[EnvironmentProfile, ...]
    baseline: LinkGeometry
    radio: RadioConfig
    mode: FormulationMode = FormulationMode.STANDARD

    def __post_init__(self):
        object.__setattr__(self, "environments", tuple(self.environments))
        object.__setattr__(self, "mode", FormulationMode(self.mode))


@dataclass(frozen=True)
class SweepCell:
    p_los: float
    p_nlos: float
    mean_pl_db: float
    p_cov: float


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    cells: tuple[SweepCell, ...]


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep as columns: per quantity, one kernel array per environment.

    ``rows`` builds the row objects from the columns on each access.
    """

    axis: str
    environment_names: tuple[str, ...]
    axis_values: np.ndarray = field(repr=False)
    p_los: tuple[np.ndarray, ...] = field(repr=False)
    mean_pl_db: tuple[np.ndarray, ...] = field(repr=False)
    p_cov: tuple[np.ndarray, ...] = field(repr=False)

    # kept while perfbench/tracer.py counts sweep cells as len(result.rows)
    @property
    def rows(self) -> tuple[SweepRow, ...]:
        cells = (zip(p_los.tolist(), (1.0 - p_los).tolist(), mean_pl.tolist(), p_cov.tolist())
                 for p_los, mean_pl, p_cov in zip(self.p_los, self.mean_pl_db, self.p_cov))
        return tuple(SweepRow(value, tuple(SweepCell(*cell) for cell in row))
                     for value, *row in zip(self.axis_values.tolist(), *cells))

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return (self.axis_values, *self.p_los, *self.mean_pl_db, *self.p_cov)

    def __eq__(self, other):
        if not isinstance(other, SweepResult):
            return NotImplemented
        return ((self.axis, self.environment_names) == (other.axis, other.environment_names)
                and all(map(np.array_equal, self._arrays(), other._arrays())))


def _grid_points(start: float, stop: float, step: float, field: str) -> int:
    # tolerance keeps exact multiples of step from dropping the last point
    span = (stop - start) / step + 1e-9
    if not span < MAX_GRID_POINTS:  # the grid holds floor(span) + 1 points
        raise InputError(f"{field} {step} over [{start}, {stop}] gives more than "
                         f"{MAX_GRID_POINTS} grid points", field=field)
    return math.floor(span) + 1


def _grid_block(start: float, step: float, lo: int, hi: int) -> np.ndarray:
    # a float arange keeps integer start and step from giving an integer grid; point k
    # is start + step*k with the same bits whichever block it falls in
    return start + step * np.arange(lo, hi, dtype=float)


def _grid(start: float, stop: float, step: float, field: str) -> np.ndarray:
    return _grid_block(start, step, 0, _grid_points(start, stop, step, field))


def sweep_grid(spec: SweepSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate a sweep and return its (axis values, r0, h) arrays."""
    if not spec.environments:
        raise InputError("sweep needs at least one environment", field="environments")
    if spec.axis not in AXES:
        raise InputError(f"unknown sweep axis {spec.axis!r}; expected one of {AXES}",
                         field="axis")
    unit = "degrees" if spec.axis == AXIS_ELEVATION else "m"
    check_in(spec.step, 0.0, math.inf, "step", "step", unit, "()")
    # the stop first, so that a start past the stop is the start's fault; distances may
    # start at 0, elevation angles and altitudes may not
    check_in(spec.stop, -math.inf, 90.0 if spec.axis == AXIS_ELEVATION else MAX_LENGTH_M,
             "stop", f"{spec.axis} sweep stop", unit, "(]")
    check_in(spec.start, 0.0, spec.stop, "start", f"{spec.axis} sweep start", unit,
             "[]" if spec.axis == AXIS_DISTANCE else "(]")

    values = _grid(spec.start, spec.stop, spec.step, "step")
    # the constant coordinate is a read-only view of one double, not a copy per point
    h = np.broadcast_to(float(spec.baseline.h_m), values.shape)
    if spec.axis == AXIS_ELEVATION:
        # a shallow enough first angle takes h / tan(theta) past any length, even to inf
        with np.errstate(over="ignore", divide="ignore"):
            r0 = np.where(values >= 90.0, 0.0, spec.baseline.h_m / np.tan(np.radians(values)))
        if not r0[0] <= MAX_LENGTH_M:  # the first angle gives the farthest ground distance
            raise InputError(f"an elevation angle of {spec.start} deg at altitude "
                             f"{spec.baseline.h_m} m puts the user beyond {MAX_LENGTH_M:g} m",
                             field="start")
    elif spec.axis == AXIS_DISTANCE:
        r0 = values
    else:
        h, r0 = values, np.broadcast_to(float(spec.baseline.r0_m), values.shape)
    return values, r0, h


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate LoS probability, mean path loss, and coverage on the grid, block by block."""
    values, r0, h = sweep_grid(spec)
    every = [range(0, len(values), _BLOCK)] * len(spec.environments)
    blocks = _scan(len(values), every, lambda lo, hi: (r0[lo:hi], h[lo:hi]), spec.environments,
                   spec.radio, spec.mode, 1, lambda lo, c: (c.p_los, c.mean_pl_db, c.p_cov))
    # each block keeps three columns; one environment's are joined, and dropped, at a time
    joined = [tuple(map(np.concatenate, zip(*blocks.pop(0)))) for _ in spec.environments]
    p_los, mean_pl_db, p_cov = zip(*joined)
    return SweepResult(spec.axis, tuple(env.name for env in spec.environments), values,
                       p_los, mean_pl_db, p_cov)


def _usable_cpus() -> int:
    # sched_getaffinity exists only on some platforms (Linux, not macOS or Windows)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(workers: int, n_items: int) -> int:
    # more threads than items or usable CPUs would only idle or contend for them; a pool
    # of 0 is refused, so no items still get one
    return max(1, min(workers, n_items, _usable_cpus()))


def _map_on_pool(fn, items, workers: int) -> list:
    """``fn`` over ``items`` on a thread pool of at most ``workers``; results in item order.

    Items are independent and each is deterministic, so threads change no byte.
    The first item to raise, in item order, raises here.
    """
    with ThreadPoolExecutor(_pool_size(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def _scan(n: int, starts: list, coordinates, environments: tuple, radio: RadioConfig,
          mode: FormulationMode, workers: int, reduce) -> list:
    """``reduce(lo, columns)`` for the blocks ``[lo, hi)`` of an ``n``-point scan, per environment.

    ``starts[j]`` holds the ascending starts of the blocks that environment
    ``j`` runs. ``coordinates(lo, hi)`` gives a block's (r0, h). Each block
    that some environment runs has its elevation angle and FSPL computed once,
    and the kernel then runs on them once per environment that runs the block;
    ``reduce`` gets its ``CoverageColumns``, which live for one block unless
    ``reduce`` keeps some of them. The blocks are cut into contiguous spans,
    one per pool thread. Returns one list per environment of its block results
    in block order, whatever the spans.
    """
    runs = [set(s) for s in starts]
    blocks = sorted(set().union(*runs))
    k = _pool_size(workers, len(blocks))
    spans = [blocks[j * len(blocks) // k:(j + 1) * len(blocks) // k] for j in range(k)]

    def run(span: list) -> list:
        results = [[] for _ in environments]
        for lo in span:
            theta, fspl = _angle_and_fspl(*coordinates(lo, min(lo + _BLOCK, n)), radio.f_c_hz)
            for out, env, env_runs in zip(results, environments, runs):
                if lo in env_runs:
                    # a global looked up per call, so a wrapper set on this module sees
                    # every block
                    out.append(reduce(lo, _coverage_arrays(theta, fspl, env, radio, mode)))
        return results

    per_span = _map_on_pool(run, spans, k)
    return [[r for span in per_span for r in span[j]] for j in range(len(environments))]


def _block_bounds(n: int, coordinates, environments: tuple, radio: RadioConfig,
                  mode: FormulationMode) -> list:
    """Per environment, the largest ``p_cov`` at the blocks' end points and a bound per block.

    The end points are grid points, so the first value is at most the grid's
    maximum; no ``p_cov`` that the kernel computes in block ``j`` exceeds the
    bound's entry ``j``. Along either planner axis the elevation angle and the
    slant distance, so the FSPL, are monotone: a block's angles lie between its
    end points' and its FSPL is at least the smaller end point's. As
    ``EnvironmentProfile`` holds ``a, b, sigma > 0`` and ``mu_los <= mu_nlos``,
    both tails fall as the FSPL grows and, in paper-literal mode, rise with
    ``p_los``, so the corner of the highest angle and the lowest FSPL bounds
    them; ``p_cov`` mixes them linearly in ``p_los``, so its bound is the larger
    mix of the corner's tails at the two end angles. A NaN bound proves nothing.
    The end points and the corners of every block go through the kernel in one
    call per environment.
    """
    starts = np.arange(0, n, _BLOCK)
    m = len(starts)
    ends = np.concatenate([starts, np.minimum(starts + _BLOCK, n) - 1]).tolist()
    # the planners' fixed coordinate stays one scalar, as in their blocks
    r0, h = (np.hstack(axis) if np.ndim(axis[0]) else axis[0]
             for axis in zip(*(coordinates(k, k + 1) for k in ends)))
    theta, fspl = _angle_and_fspl(r0, h, radio.f_c_hz)
    low_fspl = np.minimum(fspl[:m], fspl[m:]) - _WIDEN
    points = (np.concatenate([theta, np.minimum(theta[:m], theta[m:]) - _WIDEN,
                              np.maximum(theta[:m], theta[m:]) + _WIDEN]),
              np.concatenate([fspl, low_fspl, low_fspl]))
    bounds = []
    for env in environments:
        columns = _coverage_arrays(*points, env, radio, mode)
        q_los, q_nlos = columns.q_los[3 * m:], columns.q_nlos[3 * m:]
        mixes = (q_nlos + p_los * (q_los - q_nlos)
                 for p_los in (columns.p_los[2 * m:3 * m], columns.p_los[3 * m:]))
        bound = np.maximum(*mixes) + _MARGIN * np.maximum(q_los, q_nlos) + _TINY
        bounds.append((np.max(columns.p_cov[:2 * m]), bound))
    return bounds


@dataclass(frozen=True)
class AltitudeOptimum:
    h_star_m: float
    p_cov_star: float


def optimal_altitude(
    r_edge: float,
    environments: tuple[EnvironmentProfile, ...],
    radio: RadioConfig,
    h_min: float,
    h_max: float,
    steps: int,
    mode: FormulationMode | str = FormulationMode.STANDARD,
    workers: int = 1,
) -> tuple[AltitudeOptimum, ...]:
    """Altitude on the grid maximizing coverage at ground distance ``r_edge``, per environment.

    The answer is the exhaustive grid's, ties broken toward the lowest
    altitude (first grid maximum), and no unimodality is assumed: a block of
    the grid is skipped only where its bound (``_block_bounds``) lies below
    ``p_cov`` at some block's end point. The scan runs on up to ``workers``
    threads; the result does not depend on that number.
    """
    check_in(h_min, 0.0, MAX_LENGTH_M, "h_min", "h_min", "m", "(]")
    check_in(h_max, h_min, MAX_LENGTH_M, "h_max", "h_max", "m", "(]")
    check_in(steps, 2, MAX_GRID_POINTS, "steps", "grid steps", kind=int)
    check_in(r_edge, 0.0, MAX_LENGTH_M, "r_edge", "edge distance", "m")
    check_in(workers, 1, math.inf, "workers", "worker count", "", "[)", kind=int)
    environments, mode = tuple(environments), FormulationMode(mode)
    if not environments:
        return ()
    h_min, h_max = float(h_min), float(h_max)
    span = h_max - h_min
    step = span / (steps - 1)

    def altitudes(lo: int, hi: int) -> np.ndarray:
        # numpy's linspace(h_min, h_max, steps)[lo:hi] bit for bit, built per block so
        # that no scan holds the whole axis: its start + k*step, its k/(steps-1)*span
        # where the step underflows to 0, and its last point pinned to h_max
        if step:
            block = _grid_block(h_min, step, lo, hi)
        else:
            block = h_min + np.arange(lo, hi, dtype=float) / (steps - 1) * span
        if hi == steps:
            block[-1] = h_max
        return block

    def first_maximum(lo: int, columns):
        i = int(np.argmax(columns.p_cov))
        return lo + i, columns.p_cov[i]

    def coordinates(lo: int, hi: int):
        return r_edge, altitudes(lo, hi)

    # an end point's p_cov is at most the grid's maximum, so every point that ties the
    # maximum lies in a block whose bound is not below it
    kept = [(np.flatnonzero(~(bound < lower)) * _BLOCK).tolist()
            for lower, bound in _block_bounds(steps, coordinates, environments, radio, mode)]
    optima = []
    for blocks in _scan(steps, kept, coordinates, environments, radio, mode, workers,
                        first_maximum):
        # the first maximum among the kept blocks' first maxima is np.argmax over the
        # whole grid
        firsts, maxima = zip(*blocks)
        k = int(np.argmax(maxima))
        optima.append(AltitudeOptimum(h_star_m=float(altitudes(firsts[k], firsts[k] + 1)[0]),
                                      p_cov_star=float(maxima[k])))
    return tuple(optima)


def max_coverage_radius(
    h: float,
    environments: tuple[EnvironmentProfile, ...],
    radio: RadioConfig,
    target: float,
    r_max_scan: float,
    resolution: float,
    mode: FormulationMode | str = FormulationMode.STANDARD,
    workers: int = 1,
) -> tuple[float, ...]:
    """Largest grid distance within ``r_max_scan`` still meeting the target, per environment.

    The answer is the exhaustive grid's, 0 where no grid point qualifies, and
    no unimodality of the coverage curve is assumed: the blocks whose bound
    (``_block_bounds``) reaches the target run from the last one backward, a
    batch of the pool's size at a time, until a batch holds a qualifying point.
    The scan runs on up to ``workers`` threads; the result does not depend on
    that number.
    """
    check_in(target, 0.0, 1.0, "target", "coverage target", "", "()")
    check_in(resolution, 0.0, math.inf, "resolution", "scan resolution", "m", "()")
    check_in(h, 0.0, MAX_LENGTH_M, "h", "altitude", "m", "(]")
    check_in(r_max_scan, 0.0, MAX_LENGTH_M, "r_max_scan", "scan limit", "m")
    check_in(workers, 1, math.inf, "workers", "worker count", "", "[)", kind=int)
    environments, mode = tuple(environments), FormulationMode(mode)
    n = _grid_points(0.0, r_max_scan, resolution, "resolution")
    if not environments:
        return ()

    def last_qualifying(lo: int, columns) -> int:
        qualifying = np.flatnonzero(columns.p_cov >= target)
        return lo + int(qualifying[-1]) if qualifying.size else -1

    def coordinates(lo: int, hi: int):
        # the radii are built per block, so no scan holds an array of the whole grid
        return _grid_block(0.0, resolution, lo, hi), h

    candidates = [(np.flatnonzero(~(bound < target)) * _BLOCK).tolist()
                  for _, bound in _block_bounds(n, coordinates, environments, radio, mode)]
    batch = _pool_size(workers, -(-n // _BLOCK))
    lasts = [-1] * len(environments)
    while any(candidates):
        runs = [blocks[-batch:] for blocks in candidates]
        for j, found in enumerate(_scan(n, runs, coordinates, environments, radio, mode,
                                        workers, last_qualifying)):
            # every later candidate ran in an earlier batch and held no qualifying point
            last = max(found, default=-1)
            if last >= 0:
                lasts[j], candidates[j] = last, []
            else:
                del candidates[j][-batch:]
    return tuple(0.0 if last < 0 else float(_grid_block(0.0, resolution, last, last + 1)[0])
                 for last in lasts)
