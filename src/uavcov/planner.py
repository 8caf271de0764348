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


@dataclass(frozen=True)
class SweepResult:
    axis: str
    environment_names: tuple[str, ...]
    rows: tuple[SweepRow, ...] = field(repr=False)

    @property
    def axis_values(self) -> list[float]:
        return [row.axis_value for row in self.rows]


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
        raise InvalidSpecError("sweep needs at least one environment")
    if not (math.isfinite(spec.step) and spec.step > 0):
        raise InvalidSpecError(f"step must be > 0, got {spec.step}")
    if not (math.isfinite(spec.start) and math.isfinite(spec.stop)) or spec.start > spec.stop:
        raise InvalidSpecError(f"need start <= stop, got [{spec.start}, {spec.stop}]")
    if spec.axis not in AXES:
        raise InvalidSpecError(f"unknown sweep axis {spec.axis!r}; expected one of {AXES}")

    values = _grid(spec.start, spec.stop, spec.step, "step")
    if spec.axis == AXIS_ELEVATION:
        if spec.start <= 0.0 or spec.stop > 90.0:
            raise InvalidSpecError("elevation-angle sweeps must lie within (0, 90] degrees")
        h = np.full_like(values, spec.baseline.h_m)
        r0 = np.where(values >= 90.0, 0.0, spec.baseline.h_m / np.tan(np.radians(values)))
    elif spec.axis == AXIS_DISTANCE:
        if spec.start < 0.0:
            raise InvalidSpecError("user distances must be >= 0")
        r0 = values
        h = np.full_like(values, spec.baseline.h_m)
    else:
        if spec.start <= 0.0:
            raise InvalidSpecError("altitudes must be > 0")
        h = values
        r0 = np.full_like(values, spec.baseline.r0_m)
    return values, r0, h


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate LoS probability, mean path loss, and coverage on the grid."""
    values, r0, h = sweep_grid(spec)
    columns = []
    for env in spec.environments:
        pl, pn, _, mean_pl, _, _, _, _, p_cov = _coverage_arrays(
            r0, h, env, spec.radio, spec.mode
        )
        columns.append((pl, pn, mean_pl, p_cov))

    rows = tuple(
        SweepRow(
            axis_value=float(values[i]),
            cells=tuple(
                SweepCell(float(pl[i]), float(pn[i]), float(mean_pl[i]), float(p_cov[i]))
                for pl, pn, mean_pl, p_cov in columns
            ),
        )
        for i in range(len(values))
    )
    return SweepResult(
        axis=spec.axis,
        environment_names=tuple(env.name for env in spec.environments),
        rows=rows,
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
    if not (math.isfinite(h_min) and math.isfinite(h_max) and 0.0 < h_min < h_max):
        raise InvalidRangeError(f"need 0 < h_min < h_max, got [{h_min}, {h_max}]")
    if steps < 2:
        raise InvalidRangeError(f"need at least 2 grid steps, got {steps}")
    if steps > MAX_GRID_POINTS:
        raise InvalidRangeError(f"steps {steps} exceeds {MAX_GRID_POINTS} grid points",
                                field="steps")
    if not (math.isfinite(r_edge) and r_edge >= 0.0):
        raise InvalidRangeError(f"edge distance must be >= 0, got {r_edge}")
    mode = FormulationMode(mode)
    altitudes = np.linspace(h_min, h_max, steps)
    p_cov = _coverage_arrays(np.full_like(altitudes, r_edge), altitudes, env, radio, mode)[-1]
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
    if not (math.isfinite(target) and 0.0 < target < 1.0):
        raise InvalidRangeError(f"coverage target must lie in (0, 1), got {target}")
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise InvalidRangeError(f"scan resolution must be > 0, got {resolution}")
    if not (math.isfinite(h) and h > 0.0):
        raise InvalidRangeError(f"altitude must be > 0, got {h}")
    if not (math.isfinite(r_max_scan) and r_max_scan >= 0.0):
        raise InvalidRangeError(f"scan limit must be >= 0, got {r_max_scan}")
    mode = FormulationMode(mode)
    radii = _grid(0.0, r_max_scan, resolution, "resolution")
    p_cov = _coverage_arrays(radii, np.full_like(radii, h), env, radio, mode)[-1]
    qualifying = radii[p_cov >= target]
    return float(qualifying[-1]) if qualifying.size else 0.0
