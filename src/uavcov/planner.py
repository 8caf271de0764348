"""Deployment planning: axis sweeps and grid searches over the coverage model.

All searches are exhaustive grid scans by design: the coverage objective is
not known to be unimodal in altitude, and grids keep every result
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import EnvironmentProfile, LinkGeometry
from .coverage import FormulationMode, RadioConfig, _coverage_arrays
from .errors import InvalidRangeError, InvalidSpecError

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

# the planners run the kernel on blocks of this many points, whose temporaries stay
# in cache; 2**12 to 2**16 ran alike
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
    if not 0.0 < spec.step < math.inf:
        raise InvalidSpecError(f"step must be finite and > 0, got {spec.step}", field="step")
    for name in ("start", "stop"):
        if not math.isfinite(getattr(spec, name)):
            raise InvalidSpecError(f"{name} must be finite, got {getattr(spec, name)}",
                                   field=name)
    if spec.start > spec.stop:
        raise InvalidSpecError(f"need start <= stop, got [{spec.start}, {spec.stop}]",
                               field="start")
    # distances may start at 0; elevation angles and altitudes must not
    if spec.start < 0.0 or (spec.start == 0.0 and spec.axis != AXIS_DISTANCE):
        raise InvalidSpecError(f"{spec.axis} sweeps cannot start at {spec.start}", field="start")
    if spec.axis == AXIS_ELEVATION and spec.stop > 90.0:
        raise InvalidSpecError("elevation-angle sweeps must lie within (0, 90] degrees",
                               field="stop")

    values = _grid(spec.start, spec.stop, spec.step, "step")
    # the constant coordinate is a read-only view of one double, not a copy per point
    h = np.broadcast_to(float(spec.baseline.h_m), values.shape)
    if spec.axis == AXIS_ELEVATION:
        r0 = np.where(values >= 90.0, 0.0, spec.baseline.h_m / np.tan(np.radians(values)))
    elif spec.axis == AXIS_DISTANCE:
        r0 = values
    else:
        h, r0 = values, np.broadcast_to(float(spec.baseline.r0_m), values.shape)
    return values, r0, h


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate LoS probability, mean path loss, and coverage on the grid."""
    values, r0, h = sweep_grid(spec)
    columns = (_coverage_arrays(r0, h, env, spec.radio, spec.mode) for env in spec.environments)
    # each environment keeps three columns; its others go before the next is evaluated
    p_los, mean_pl_db, p_cov = zip(*((c.p_los, c.mean_pl_db, c.p_cov) for c in columns))
    return SweepResult(spec.axis, tuple(env.name for env in spec.environments), values,
                       p_los, mean_pl_db, p_cov)


def _p_cov_blocks(n: int, coordinates, env: EnvironmentProfile, radio: RadioConfig,
                  mode: FormulationMode):
    """Yield ``(lo, p_cov)`` for each block ``[lo, hi)`` of an ``n``-point scan.

    ``coordinates(lo, hi)`` gives the block's (r0, h). The kernel's columns live
    for one block only, so a scan holds its axis array plus one block of them.
    """
    for lo in range(0, n, _BLOCK):
        r0, h = coordinates(lo, min(lo + _BLOCK, n))
        yield lo, _coverage_arrays(r0, h, env, radio, mode).p_cov


@dataclass(frozen=True)
class AltitudeOptimum:
    h_star_m: float
    p_cov_star: float


def optimal_altitude(
    r_edge: float,
    env: EnvironmentProfile,
    radio: RadioConfig,
    h_min: float,
    h_max: float,
    steps: int,
    mode: FormulationMode | str = FormulationMode.STANDARD,
) -> AltitudeOptimum:
    """Altitude on the grid maximizing coverage at ground distance ``r_edge``.

    Ties break toward the lowest altitude (first grid maximum).
    """
    if not 0.0 < h_min < math.inf:
        raise InvalidRangeError(f"h_min must be finite and > 0, got {h_min}", field="h_min")
    if not h_min < h_max < math.inf:
        raise InvalidRangeError(f"need h_min < h_max < inf, got [{h_min}, {h_max}]",
                                field="h_max")
    if steps < 2:
        raise InvalidRangeError(f"need at least 2 grid steps, got {steps}", field="steps")
    if steps > MAX_GRID_POINTS:
        raise InvalidRangeError(f"steps {steps} exceeds {MAX_GRID_POINTS} grid points",
                                field="steps")
    if not 0.0 <= r_edge < math.inf:
        raise InvalidRangeError(f"edge distance must be finite and >= 0, got {r_edge}",
                                field="r_edge")
    mode = FormulationMode(mode)
    altitudes = np.linspace(h_min, h_max, steps)
    # the first maximum of each block; the first maximum among those is np.argmax over
    # the whole grid, a NaN included
    firsts, maxima = [], []
    for lo, p_cov in _p_cov_blocks(steps, lambda lo, hi: (r_edge, altitudes[lo:hi]),
                                   env, radio, mode):
        i = int(np.argmax(p_cov))
        firsts.append(lo + i)
        maxima.append(p_cov[i])
    k = int(np.argmax(maxima))
    return AltitudeOptimum(h_star_m=float(altitudes[firsts[k]]), p_cov_star=float(maxima[k]))


def max_coverage_radius(
    h: float,
    env: EnvironmentProfile,
    radio: RadioConfig,
    target: float,
    r_max_scan: float,
    resolution: float,
    mode: FormulationMode | str = FormulationMode.STANDARD,
) -> float:
    """Largest grid distance within ``r_max_scan`` still meeting the target.

    Scans the whole grid outward rather than bisecting, so no unimodality of
    the coverage curve is assumed; returns 0 when no grid point qualifies.
    """
    if not 0.0 < target < 1.0:
        raise InvalidRangeError(f"coverage target must lie in (0, 1), got {target}",
                                field="target")
    if not 0.0 < resolution < math.inf:
        raise InvalidRangeError(f"scan resolution must be finite and > 0, got {resolution}",
                                field="resolution")
    if not 0.0 < h < math.inf:
        raise InvalidRangeError(f"altitude must be finite and > 0, got {h}", field="h")
    if not 0.0 <= r_max_scan < math.inf:
        raise InvalidRangeError(f"scan limit must be finite and >= 0, got {r_max_scan}",
                                field="r_max_scan")
    mode = FormulationMode(mode)
    n = _grid_points(0.0, r_max_scan, resolution, "resolution")
    last = None
    for lo, p_cov in _p_cov_blocks(n, lambda lo, hi: (_grid_block(0.0, resolution, lo, hi), h),
                                   env, radio, mode):
        qualifying = np.flatnonzero(p_cov >= target)
        if qualifying.size:
            last = lo + int(qualifying[-1])
    return 0.0 if last is None else float(_grid_block(0.0, resolution, last, last + 1)[0])
