"""Deployment planning: axis sweeps and grid searches over the coverage model.

All searches are exhaustive grid scans by design: the coverage objective is
not known to be unimodal in altitude, and grids keep every result
bit-reproducible. The model runs in two stages: the elevation angle and FSPL
of a set of points (``channel._angle_and_fspl``), which no environment
changes, then ``_coverage_arrays`` once per environment on those columns.
The grid searches take every environment in one call and cut the grid into
blocks: each block's first stage is computed once for all environments, and
contiguous spans of blocks run on a thread pool (``_map_on_pool``, which also
runs the CLI's Monte Carlo cells). Each span keeps per-block results that
merge in block order, so no result depends on the number of threads.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channel import MAX_LENGTH_M, EnvironmentProfile, LinkGeometry, _angle_and_fspl
from .coverage import FormulationMode, RadioConfig, _coverage_arrays
from .errors import InvalidRangeError, InvalidSpecError, check_in

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
# benchmark's peak RSS
_BLOCK = 1 << 14


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
        raise InvalidRangeError(
            f"{field} {step} over [{start}, {stop}] gives more than {MAX_GRID_POINTS} "
            "grid points", field=field,
        )
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
        raise InvalidSpecError("sweep needs at least one environment", field="environments")
    if spec.axis not in AXES:
        raise InvalidSpecError(f"unknown sweep axis {spec.axis!r}; expected one of {AXES}",
                               field="axis")
    unit = "degrees" if spec.axis == AXIS_ELEVATION else "m"
    check_in(spec.step, 0.0, math.inf, "step", "step", unit, "()", error=InvalidSpecError)
    # the stop first, so that a start past the stop is the start's fault; distances may
    # start at 0, elevation angles and altitudes may not
    check_in(spec.stop, -math.inf, 90.0 if spec.axis == AXIS_ELEVATION else MAX_LENGTH_M,
             "stop", f"{spec.axis} sweep stop", unit, "(]", error=InvalidSpecError)
    check_in(spec.start, 0.0, spec.stop, "start", f"{spec.axis} sweep start", unit,
             "[]" if spec.axis == AXIS_DISTANCE else "(]", error=InvalidSpecError)

    values = _grid(spec.start, spec.stop, spec.step, "step")
    # the constant coordinate is a read-only view of one double, not a copy per point
    h = np.broadcast_to(float(spec.baseline.h_m), values.shape)
    if spec.axis == AXIS_ELEVATION:
        # a shallow enough first angle takes h / tan(theta) past any length, even to inf
        with np.errstate(over="ignore", divide="ignore"):
            r0 = np.where(values >= 90.0, 0.0, spec.baseline.h_m / np.tan(np.radians(values)))
        if not r0[0] <= MAX_LENGTH_M:  # the first angle gives the farthest ground distance
            raise InvalidSpecError(f"an elevation angle of {spec.start} deg at altitude "
                                   f"{spec.baseline.h_m} m puts the user beyond "
                                   f"{MAX_LENGTH_M:g} m", field="start")
    elif spec.axis == AXIS_DISTANCE:
        r0 = values
    else:
        h, r0 = values, np.broadcast_to(float(spec.baseline.r0_m), values.shape)
    return values, r0, h


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate LoS probability, mean path loss, and coverage on the grid."""
    values, r0, h = sweep_grid(spec)
    theta, fspl = _angle_and_fspl(r0, h, spec.radio.f_c_hz)
    columns = (_coverage_arrays(theta, fspl, env, spec.radio, spec.mode)
               for env in spec.environments)
    # each environment keeps three columns; its others go before the next is evaluated
    p_los, mean_pl_db, p_cov = zip(*((c.p_los, c.mean_pl_db, c.p_cov) for c in columns))
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


def _scan(n: int, coordinates, environments: tuple, radio: RadioConfig,
          mode: FormulationMode, workers: int, reduce) -> list:
    """``reduce(lo, p_cov)`` for each block ``[lo, hi)`` of an ``n``-point scan, per environment.

    ``coordinates(lo, hi)`` gives the block's (r0, h). Each block's elevation
    angle and FSPL are computed once, and the kernel then runs once per
    environment on them; its columns live for one block only. The blocks are
    cut into contiguous spans, one per pool thread. Returns one list per
    environment of its block results in block order, whatever the spans.
    """
    blocks = range(0, n, _BLOCK)
    k = _pool_size(workers, len(blocks))
    spans = [blocks[j * len(blocks) // k:(j + 1) * len(blocks) // k] for j in range(k)]

    def run(span: range) -> list:
        results = [[] for _ in environments]
        for lo in span:
            theta, fspl = _angle_and_fspl(*coordinates(lo, min(lo + _BLOCK, n)), radio.f_c_hz)
            for out, env in zip(results, environments):
                # a global looked up per call, so a wrapper set on this module sees every block
                out.append(reduce(lo, _coverage_arrays(theta, fspl, env, radio, mode).p_cov))
        return results

    per_span = _map_on_pool(run, spans, k)
    return [[r for span in per_span for r in span[j]] for j in range(len(environments))]


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

    Ties break toward the lowest altitude (first grid maximum). The scan runs
    on up to ``workers`` threads; the result does not depend on that number.
    """
    check_in(h_min, 0.0, MAX_LENGTH_M, "h_min", "h_min", "m", "(]", error=InvalidRangeError)
    check_in(h_max, h_min, MAX_LENGTH_M, "h_max", "h_max", "m", "(]", error=InvalidRangeError)
    check_in(steps, 2, MAX_GRID_POINTS, "steps", "grid steps", kind=int, error=InvalidRangeError)
    check_in(r_edge, 0.0, MAX_LENGTH_M, "r_edge", "edge distance", "m", error=InvalidRangeError)
    environments, mode = tuple(environments), FormulationMode(mode)
    if not environments:
        return ()
    altitudes = np.linspace(h_min, h_max, steps)

    def first_maximum(lo: int, p_cov: np.ndarray):
        i = int(np.argmax(p_cov))
        return lo + i, p_cov[i]

    optima = []
    for blocks in _scan(steps, lambda lo, hi: (r_edge, altitudes[lo:hi]), environments,
                        radio, mode, workers, first_maximum):
        # the first maximum among the blocks' first maxima is np.argmax over the whole
        # grid, a NaN included
        firsts, maxima = zip(*blocks)
        k = int(np.argmax(maxima))
        optima.append(AltitudeOptimum(h_star_m=float(altitudes[firsts[k]]),
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

    Scans the whole grid outward rather than bisecting, so no unimodality of
    the coverage curve is assumed; 0 where no grid point qualifies. The scan
    runs on up to ``workers`` threads; the result does not depend on that number.
    """
    check_in(target, 0.0, 1.0, "target", "coverage target", "", "()", error=InvalidRangeError)
    check_in(resolution, 0.0, math.inf, "resolution", "scan resolution", "m", "()",
             error=InvalidRangeError)
    check_in(h, 0.0, MAX_LENGTH_M, "h", "altitude", "m", "(]", error=InvalidRangeError)
    check_in(r_max_scan, 0.0, MAX_LENGTH_M, "r_max_scan", "scan limit", "m",
             error=InvalidRangeError)
    environments, mode = tuple(environments), FormulationMode(mode)
    n = _grid_points(0.0, r_max_scan, resolution, "resolution")
    if not environments:
        return ()

    def last_qualifying(lo: int, p_cov: np.ndarray) -> int:
        qualifying = np.flatnonzero(p_cov >= target)
        return lo + int(qualifying[-1]) if qualifying.size else -1

    # the radii are built per block, so no scan holds an array of the whole grid
    lasts = (max(blocks) for blocks in _scan(
        n, lambda lo, hi: (_grid_block(0.0, resolution, lo, hi), h), environments, radio,
        mode, workers, last_qualifying))
    return tuple(0.0 if last < 0 else float(_grid_block(0.0, resolution, last, last + 1)[0])
                 for last in lasts)
