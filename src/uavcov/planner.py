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
from .coverage import CoverageColumns, FormulationMode, RadioConfig, _coverage_arrays
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
    """A sweep as columns; ``rows`` builds the row objects from them on each access."""

    axis: str
    environment_names: tuple[str, ...]
    axis_values: np.ndarray = field(repr=False)
    columns: tuple[CoverageColumns, ...] = field(repr=False)

    @property
    def rows(self) -> tuple[SweepRow, ...]:
        cells = (zip(c.p_los.tolist(), c.p_nlos.tolist(), c.mean_pl_db.tolist(),
                     c.p_cov.tolist()) for c in self.columns)
        return tuple(SweepRow(value, tuple(SweepCell(*cell) for cell in row))
                     for value, *row in zip(self.axis_values.tolist(), *cells))

    def __eq__(self, other):
        if not isinstance(other, SweepResult):
            return NotImplemented
        return ((self.axis, self.environment_names, self.rows)
                == (other.axis, other.environment_names, other.rows))


def _grid(start: float, stop: float, step: float, field: str) -> np.ndarray:
    # tolerance keeps exact multiples of step from dropping the last point
    span = (stop - start) / step + 1e-9
    if not span < MAX_GRID_POINTS:  # the grid holds floor(span) + 1 points
        raise InvalidRangeError(
            f"{field} {step} over [{start}, {stop}] gives more than {MAX_GRID_POINTS} "
            "grid points", field=field,
        )
    return start + step * np.arange(math.floor(span) + 1)


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
    if spec.axis == AXIS_ELEVATION:
        h = np.full_like(values, spec.baseline.h_m)
        r0 = np.where(values >= 90.0, 0.0, spec.baseline.h_m / np.tan(np.radians(values)))
    elif spec.axis == AXIS_DISTANCE:
        r0 = values
        h = np.full_like(values, spec.baseline.h_m)
    else:
        h = values
        r0 = np.full_like(values, spec.baseline.r0_m)
    return values, r0, h


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate LoS probability, mean path loss, and coverage on the grid."""
    values, r0, h = sweep_grid(spec)
    return SweepResult(
        axis=spec.axis,
        environment_names=tuple(env.name for env in spec.environments),
        axis_values=values,
        columns=tuple(_coverage_arrays(r0, h, env, spec.radio, spec.mode)
                      for env in spec.environments),
    )


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
    edge = np.full_like(altitudes, r_edge)
    p_cov = _coverage_arrays(edge, altitudes, env, radio, mode).p_cov
    best = int(np.argmax(p_cov))
    return AltitudeOptimum(h_star_m=float(altitudes[best]), p_cov_star=float(p_cov[best]))


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
    radii = _grid(0.0, r_max_scan, resolution, "resolution")
    p_cov = _coverage_arrays(radii, np.full_like(radii, h), env, radio, mode).p_cov
    qualifying = radii[p_cov >= target]
    return float(qualifying[-1]) if qualifying.size else 0.0
