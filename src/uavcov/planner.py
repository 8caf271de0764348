"""Deployment planning: axis sweeps and grid searches over the coverage model.

The grid searches answer what an exhaustive scan of the grid answers, bit for
bit: the coverage objective is not known to be unimodal in altitude, so no
search assumes it is. Both planners run, in one scan, the blocks of the grid
that the kernel at the blocks' end points and a bound over each block
(``_block_bounds``) cannot prove free of the answer. The model runs in
two stages: the elevation angle and FSPL of a set of points
(``channel._angle_and_fspl``), which no environment changes, then
``_coverage_arrays`` once per environment on those columns. Sweeps and grid
searches alike take every environment in one call and run on one block
engine, ``_scan``: it merges the contiguous blocks it is asked for into runs
of at most ``_RUN_BLOCKS`` blocks, computes the first stage of each run once
for all environments, and hands each environment's runs of those columns to a
reducer. The bound is taken over narrow blocks, which keeps it tight, while
the kernel runs on runs as long as a sweep's. Contiguous spans of runs go on a
thread pool (``_map_on_pool``, which also runs the CLI's Monte Carlo cells).
Each span keeps per-run results that merge in grid order, so no result
depends on the number of threads.
"""

from __future__ import annotations

import bisect
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

# the planners bound the model, and keep or skip it, on blocks of this many points: a
# narrower block has a tighter bound, so fewer points run, but 4 bound points per block.
# planner-grid's two commands (4 environments; 2e6 altitudes, 2e6 + 1 radii), in-process
# cli.main at --workers 2, blocks run in runs of 2**14 points at every width, median of
# 30 interleaved runs (10 at --p-min -500; x86-64, 2 vCPUs):
#
#   width  kernel points  ms     paper-literal points  ms     --p-min -500 ms
#   2**10     95 680      14.7        213 056          24.1        242
#   2**11     79 776      13.9        250 400          26.2        246
#   2**12     96 928      16.1        322 848          27.9        237
#   2**13    134 176      16.4        450 208          35.3        237
#   2**14    204 000      20.5        659 296          43.7        231
#
# The bound points are counted in. --p-min -500 rules no block out, so every width runs
# the same 2**14-point runs there, and its spread is wider than its moves.
# A run's float temporaries, 2**14 doubles, are exactly 128 KiB: glibc's initial mmap
# threshold. At that threshold every run's arrays are mapped and faulted in afresh:
# optimize-altitude at planner-grid size took a median of ~3900 minor faults in its run
# (1190-5201) against ~740 with the threshold raised, and the two planner-grid commands
# ran ~8% slower (in-process, median of 30). cli raises the threshold at import
_BLOCK = 1 << 11

# kept blocks reach the kernel merged into runs of at most this many blocks, cut at the
# multiples of their length, 2**14 points: a scan of every block, a sweep's included,
# makes the 2**14-point calls that block sizes were tuned on when every block ran. There
# 2**12 and 2**13 took 1.32 and 0.98 s against 0.76 s at 2**14, where the threads' many
# small numpy calls contend for the interpreter lock, and 2**15 added ~2.7 MB of peak RSS
_RUN_BLOCKS = 8

# A block's bound is the kernel at a corner widened outward, the angles by _WIDEN degrees
# and the FSPL down by _WIDEN dB. The first stage is off from the exact model by a few
# ulps of its intermediates, which stay below 90 degrees (ulp 1.4e-14) and below
# MAX_ABS_FSPL_DB, 13100 dB (ulp 1.8e-12); paper-literal mode's mean loss adds two means
# within MAX_ABS_DB, so its sums stay below 19100 dB (ulp 3.6e-12). _WIDEN is over 10**5
# of the largest of these, so the corner's computed loss lies below every computed loss of
# its block. Every later rounding is monotone (sum, quotient by sigma or sigma**2, the
# halving of the deficit), so the corner's deficit is no larger than any of the block's,
# even where sigma = MIN_SIGMA_DB makes a tail a step.
# What is left is erfc's own error and the mix's rounding. erfc's rational approximations
# (W. J. Cody, Math. Comp. 23, 1969) err relative to the smaller of erfc and 2 - erfc, and
# near saturation the result is 2 - erfc(|x|), rounded at 2: a computed tail of at least
# the smallest normal double is within rho*min(Q, 1 - Q) + 2*eps*Q of the exact tail Q of
# its deficit, rho = 1e-12 (tests/test_kernel_oracle.py's "comp" bound pins this for both
# tails). Below that, scipy's erfc returns subnormal tails and then 0, from a deficit of
# x = 37.6771 where Q is still ~5.9e-311: an absolute error of at most ~0.0026*_TINY,
# which the _TINY added below covers (the oracle's "tiny" bound pins it at 0.01*_TINY). As
# f(Q) = Q + rho*min(Q, 1 - Q) increases in Q for rho < 1, a point's tail is at most
# f(Q) + 2*eps*Q at the corner's exact tail Q, so within 2*rho*min(q, 1 - q) + 4*eps*q of
# the corner's computed tail q, to first order: _MARGIN*min(q, 1 - q) + _TAIL_ULPS*q covers
# that 500 and 8 times over, and stays 32 ulps of 1 on a saturated tail. p_cov mixes the
# tails linearly in p_los and rises with each, so each tail's charge is weighted by its
# share of the mix, p_los or 1 - p_los, at each end angle, and the larger of the two sums
# is added. The mix rounds at the point, at the corner and where the bound adds up, within
# 4*eps of the larger tail in all: _MIX_ULPS covers that twice, and _TINY the tails below
# the normal doubles.
_WIDEN = 1e-6
_MARGIN = 1e-9
_TAIL_ULPS = 32 * np.finfo(float).eps
_MIX_ULPS = 8 * np.finfo(float).eps


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


def _grid_at(start: float, step: float, k: np.ndarray) -> np.ndarray:
    # a float product keeps integer start and step from giving an integer grid; point k
    # is start + step*k with the same bits whichever run or end point asks for it
    return start + np.multiply(step, k, dtype=float)


def _grid(start: float, stop: float, step: float, field: str) -> np.ndarray:
    return _grid_at(start, step, np.arange(_grid_points(start, stop, step, field)))


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
    """Evaluate LoS probability, mean path loss, and coverage on the grid, run by run."""
    values, r0, h = sweep_grid(spec)
    every = [range(0, len(values), _BLOCK)] * len(spec.environments)

    def coordinates(k: np.ndarray):
        # the scan asks for contiguous runs: slices keep the constant coordinate a view
        run = slice(k[0], k[-1] + 1)
        return r0[run], h[run]

    blocks = _scan(len(values), every, coordinates, spec.environments, spec.radio, spec.mode, 1,
                   lambda lo, c: (c.p_los, c.mean_pl_db, c.p_cov))
    # each run keeps three columns; one environment's are joined, and dropped, at a time
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


def _runs(blocks, n: int) -> list:
    """The ascending block starts ``blocks`` of an ``n``-point grid as contiguous runs.

    Each run is a list ``[lo, hi)``. It holds at most ``_RUN_BLOCKS`` blocks:
    it ends at every multiple of ``_RUN_BLOCKS * _BLOCK``, so a scan of every
    block runs in aligned runs of that length.
    """
    length = _RUN_BLOCKS * _BLOCK
    runs = []
    for lo in blocks:
        if runs and runs[-1][1] == lo and lo % length:
            runs[-1][1] = lo + _BLOCK
        else:
            runs.append([lo, lo + _BLOCK])
    if runs:  # only the grid's last block can be short
        runs[-1][1] = min(runs[-1][1], n)
    return runs


def _scan(n: int, starts: list, coordinates, environments: tuple, radio: RadioConfig,
          mode: FormulationMode, workers: int, reduce) -> list:
    """``reduce(lo, columns)`` for the runs ``[lo, hi)`` of an ``n``-point scan, per environment.

    ``starts[j]`` holds the ascending starts of the blocks that environment
    ``j`` runs, which ``_runs`` merges into that environment's runs.
    ``coordinates(k)`` gives the (r0, h) of the grid points ``k``, an integer
    array. The blocks that some environment runs merge into runs of their own
    too, each of which has its elevation angle and FSPL computed once; the
    kernel then runs once on each environment's run, a slice of those columns.
    ``reduce`` gets its ``CoverageColumns``, which live for one run unless
    ``reduce`` keeps some of them. The merged runs are cut into contiguous
    spans, one per pool thread. Returns one list per environment of its run
    results in grid order, whatever the spans.
    """
    merged = _runs(sorted(set().union(*starts)), n)
    if not merged:
        return [[] for _ in environments]
    # each environment's runs lie inside the merged runs, which end at the same multiples
    firsts = [lo for lo, _ in merged]
    plan = [(lo, hi, [[] for _ in environments]) for lo, hi in merged]
    for j, blocks in enumerate(starts):
        for lo, hi in _runs(blocks, n):
            plan[bisect.bisect_right(firsts, lo) - 1][2][j].append((lo, hi))
    k = _pool_size(workers, len(plan))
    spans = [plan[j * len(plan) // k:(j + 1) * len(plan) // k] for j in range(k)]

    def run(span: list) -> list:
        results = [[] for _ in environments]
        for first, last, env_runs in span:
            theta, fspl = _angle_and_fspl(*coordinates(np.arange(first, last)), radio.f_c_hz)
            for out, env, runs in zip(results, environments, env_runs):
                for lo, hi in runs:
                    part = slice(lo - first, hi - first)
                    # a global looked up per call, so a wrapper set on this module sees
                    # every run
                    out.append(reduce(lo, _coverage_arrays(theta[part], fspl[part], env, radio,
                                                           mode)))
        return results

    per_span = _map_on_pool(run, spans, k)
    return [[r for span in per_span for r in span[j]] for j in range(len(environments))]


def _block_bounds(n: int, coordinates, environments: tuple, radio: RadioConfig,
                  mode: FormulationMode) -> list:
    """Per environment, ``p_cov`` at the blocks' first then last points, and a bound per block.

    ``coordinates(k)`` applies the axis's one grid rule to the index array
    ``k``, so the end points, taken in one call, have the bits that the scan
    gives them; no ``p_cov`` that the kernel computes in block ``j`` exceeds
    the bound's entry ``j``. Along either planner axis the elevation angle and the
    slant distance, so the FSPL, are monotone: a block's angles lie between its
    end points' and its FSPL is at least the smaller end point's. As
    ``EnvironmentProfile`` holds ``a, b, sigma > 0`` and ``mu_los <= mu_nlos``,
    both tails fall as the FSPL grows and, in paper-literal mode, rise with
    ``p_los``, so the corner of the highest angle and the lowest FSPL bounds
    them; ``p_cov`` mixes them linearly in ``p_los``, so its bound is the larger
    mix of the corner's tails at the two end angles, plus their erfc error and
    the mix's rounding (derived above ``_MARGIN``). A NaN bound proves nothing.
    The end points and the corners of every block go through the kernel in one
    call per environment.
    """
    starts = np.arange(0, n, _BLOCK)
    m = len(starts)
    ends = np.concatenate([starts, np.minimum(starts + _BLOCK, n) - 1])
    theta, fspl = _angle_and_fspl(*coordinates(ends), radio.f_c_hz)
    low_fspl = np.minimum(fspl[:m], fspl[m:]) - _WIDEN
    points = (np.concatenate([theta, np.minimum(theta[:m], theta[m:]) - _WIDEN,
                              np.maximum(theta[:m], theta[m:]) + _WIDEN]),
              np.concatenate([fspl, low_fspl, low_fspl]))
    bounds = []
    for env in environments:
        columns = _coverage_arrays(*points, env, radio, mode)
        q_los, q_nlos = columns.q_los[3 * m:], columns.q_nlos[3 * m:]
        err_los, err_nlos = (_MARGIN * np.minimum(q, 1.0 - q) + _TAIL_ULPS * q
                             for q in (q_los, q_nlos))
        p_ends = (columns.p_los[2 * m:3 * m], columns.p_los[3 * m:])
        mix = np.maximum(*(q_nlos + p_los * (q_los - q_nlos) for p_los in p_ends))
        err = np.maximum(*(p_los * err_los + (1.0 - p_los) * err_nlos for p_los in p_ends))
        bound = mix + err + _MIX_ULPS * np.maximum(q_los, q_nlos) + _TINY
        bounds.append((columns.p_cov[:2 * m], bound))
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

    def altitudes(k: np.ndarray) -> np.ndarray:
        # numpy's linspace(h_min, h_max, steps)[k] bit for bit, built per run so that no
        # scan holds the whole axis: its start + k*step, its k/(steps-1)*span where the
        # step underflows to 0, and its last point pinned to h_max
        grid = _grid_at(h_min, step, k) if step else h_min + k / (steps - 1) * span
        grid[k == steps - 1] = h_max
        return grid

    def first_maximum(lo: int, columns):
        i = int(np.argmax(columns.p_cov))
        return lo + i, columns.p_cov[i]

    def coordinates(k: np.ndarray):
        return r_edge, altitudes(k)

    # an end point's p_cov is at most the grid's maximum, so every point that ties the
    # maximum lies in a block whose bound is not below it
    kept = [(np.flatnonzero(~(bound < np.max(ends))) * _BLOCK).tolist()
            for ends, bound in _block_bounds(steps, coordinates, environments, radio, mode)]
    optima = []
    for blocks in _scan(steps, kept, coordinates, environments, radio, mode, workers,
                        first_maximum):
        # the first maximum among the kept blocks' first maxima is np.argmax over the
        # whole grid
        firsts, maxima = zip(*blocks)
        k = int(np.argmax(maxima))
        optima.append(AltitudeOptimum(h_star_m=float(altitudes(np.array([firsts[k]]))[0]),
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
    no unimodality of the coverage curve is assumed: one scan runs the blocks
    whose bound (``_block_bounds``) reaches the target, from the last block that
    has an end point meeting it, or from the first block if none has. The scan
    runs on up to ``workers`` threads; the result does not depend on that number.
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

    def coordinates(k: np.ndarray):
        # the radii are built per run, so no scan holds an array of the whole grid
        return _grid_at(0.0, resolution, k), h

    kept = []
    for ends, bound in _block_bounds(n, coordinates, environments, radio, mode):
        # the last block with a qualifying end point holds an answer, and its bound reaches
        # the target; a later qualifying point lies in a later block whose bound does too
        first = (np.flatnonzero(ends >= target) % len(bound)).max(initial=0)
        kept.append(((np.flatnonzero(~(bound[first:] < target)) + first) * _BLOCK).tolist())
    lasts = (max(found, default=-1) for found in _scan(n, kept, coordinates, environments,
                                                       radio, mode, workers, last_qualifying))
    return tuple(0.0 if last < 0 else float(_grid_at(0.0, resolution, last))
                 for last in lasts)
