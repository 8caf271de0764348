"""The four benchmark workloads: the uavcov argv each runs, and the output oracle.

A workload is a list of CLI invocations run back to back; one pass over the
list is an iteration. Inputs derive from the workload seed only. The default
seed keeps the README default geometry (no --h, --r0, --r-edge or --target)
and its outputs must match the SHA-256 digests frozen in ``digests.json``;
every other seed varies that geometry and is checked by the seed-independent
checks below.

figure-set is runnable (``--workload figure-set``) and self-tested but not
listed in BENCHMARK.json, so it gates nothing: on a shared 2-core host its
run_s (about 50 ms of pure-Python row materialization and SVG rendering)
moved by +54% and -27% between two sets of ten runs, beyond the largest
bound a metric may have. mc-check passes ``--plot`` so that ``render_svg``
and the SVG checks still run on a listed workload: a 12-series chart of its
180 rows, the size of figure-set's sweep charts.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 1
ENVS = ("suburban", "urban", "dense-urban", "high-rise-urban")
WORKERS = "2"

# One line each: why the workload exists and which layer it stresses.
WHY = {
    "scenario-area": "1e5 users x 100 draws: scenario shadowing, UserRecord materialization and a "
                     "10 MB CSV dominate; carries the peak RSS; kernel ~2%",
    "mc-check": "720 Monte Carlo cells, 3.6e7 draws at --workers 2: ~99% of run_s is MC "
                "sampling; small CSV and --plot chart, no scenario work",
    "planner-grid": "optimize-altitude + coverage-radius on 1.6e7 grid points: the coverage "
                    "kernel on large arrays is ~97% of run_s; no RNG",
    "figure-set": "the six README figure commands with --plot at default grids: interpreter "
                  "set-up dominates; the only render_svg and sweep-row workload",
}
WORKLOADS = tuple(WHY)

# full: the sizes the benchmark measures; tiny: the self-test smoke sizes
SCALES = {
    "full": {"n_users": 100_000, "n_draws": 100, "mc_samples": 50_000,
             "steps": 2_000_000, "resolution": 0.001},
    "tiny": {"n_users": 2_000, "n_draws": 20, "mc_samples": 2_000,
             "steps": 20_000, "resolution": 0.1},
}

_SCENARIO_HEADER = ("x_m", "y_m", "r0_m", "theta_deg", "p_los", "mean_pl_db", "p_cov",
                    "snr_db", "rate_bps")
_R_MAX = 2000.0  # coverage-radius default scan limit


def _per_env(metric):
    return tuple(f"{metric}[{env}]" for env in ENVS)


@dataclass(frozen=True)
class Invocation:
    """One CLI run: its argv (``--out`` is appended by the runner) and what it must emit."""

    name: str
    argv: tuple
    header: tuple
    rows: int
    params: dict = field(default_factory=dict)  # values the ``# config:`` line must carry
    svg_series: int | None = None  # polylines expected in the SVG; None means no --plot

    @property
    def outputs(self) -> tuple:
        return (f"{self.name}.csv",) + ((f"{self.name}.svg",) if self.svg_series is not None
                                        else ())


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    scale: str
    invocations: tuple
    work_units: float  # users, MC draws, grid points or figures per iteration
    work_unit: str


def _geometry(seed: int) -> dict:
    """README defaults for the default seed, a seeded variation otherwise."""
    if seed == DEFAULT_SEED:
        return {}
    rng = random.Random(seed)
    return {"h": round(rng.uniform(80.0, 120.0), 1), "r0": round(rng.uniform(150.0, 250.0), 1),
            "r_edge": round(rng.uniform(400.0, 600.0), 1),
            "target": round(rng.uniform(0.85, 0.95), 3)}


def _flag(geo: dict, key: str, flag: str) -> tuple:
    return (flag, str(geo[key])) if key in geo else ()


def build_plan(workload: str, seed: int, scale: str = "full") -> Plan:
    """The invocations of one iteration of ``workload`` for ``seed``."""
    size = SCALES[scale]
    geo = _geometry(seed)
    common = ("--workers", WORKERS)
    if workload == "scenario-area":
        n_users, n_draws = size["n_users"], size["n_draws"]
        argv = ("scenario", "--env", "urban", "--n-users", str(n_users), "--n-draws",
                str(n_draws), "--seed", str(seed)) + common
        invs = (Invocation("scenario", argv, _SCENARIO_HEADER, n_users,
                           {"n_users": n_users, "n_draws": n_draws, "seed": seed}),)
        return Plan(workload, seed, scale, invs, n_users, "users")
    if workload == "mc-check":
        samples = size["mc_samples"]
        argv = ("sweep-coverage", "--axis", "angle", "--env", "all", "--mc-samples",
                str(samples), "--seed", str(seed), "--plot") + common + _flag(geo, "h", "--h")
        header = ("angle_deg",) + _per_env("p_cov") + tuple(
            col for env in ENVS for col in (f"p_cov_mc[{env}]", f"mc_stderr[{env}]"))
        # every column after the first is a series of the chart
        invs = (Invocation("mc", argv, header, 180,
                           {"mc_samples": samples, "seed": seed, "axis": "angle"},
                           len(header) - 1),)
        return Plan(workload, seed, scale, invs, 180 * len(ENVS) * samples, "draws")
    if workload == "planner-grid":
        steps, resolution = size["steps"], size["resolution"]
        r_edge, target = geo.get("r_edge", 500.0), geo.get("target", 0.9)
        invs = (
            Invocation("optimize", ("optimize-altitude", "--env", "all", "--r-edge",
                                    format(r_edge, "g"), "--steps", str(steps)) + common,
                       ("environment", "h_star_m", "p_cov_star"), len(ENVS),
                       {"steps": steps, "r_edge_m": r_edge}),
            Invocation("radius", ("coverage-radius", "--env", "all", "--target",
                                  format(target, "g"), "--resolution", format(resolution, "g"))
                       + common,
                       ("environment", "max_radius_m"), len(ENVS),
                       {"target": target, "resolution_m": resolution}),
        )
        points = len(ENVS) * (steps + math.floor(_R_MAX / resolution + 1e-9) + 1)
        return Plan(workload, seed, scale, invs, points, "points")
    if workload == "figure-set":
        plot = ("--env", "all", "--plot") + common
        h = _flag(geo, "h", "--h")
        invs = (
            Invocation("plos", ("sweep-plos",) + plot + h, ("angle_deg",) + _per_env("p_los"),
                       180, {"axis": "angle"}, len(ENVS)),
            Invocation("pathloss", ("sweep-pathloss",) + plot + h,
                       ("distance_m",) + _per_env("mean_pl_db"), 98, {"axis": "distance"},
                       len(ENVS)),
            Invocation("coverage", ("sweep-coverage",) + plot + h,
                       ("distance_m",) + _per_env("p_cov"), 98, {"axis": "distance"}, len(ENVS)),
            Invocation("coverage_alt", ("sweep-coverage", "--axis", "altitude") + plot
                       + _flag(geo, "r0", "--r0"),
                       ("altitude_m",) + _per_env("p_cov"), 1951, {"axis": "altitude"},
                       len(ENVS)),
            Invocation("optimize", ("optimize-altitude",) + plot + _flag(geo, "r_edge",
                                                                         "--r-edge"),
                       ("environment", "h_star_m", "p_cov_star"), len(ENVS), {}, 1),
            Invocation("radius", ("coverage-radius",) + plot + h,
                       ("environment", "max_radius_m"), len(ENVS), {}, 0),
        )
        return Plan(workload, seed, scale, invs, len(invs), "figures")
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _floats(cells, where: str, errors: list) -> list:
    try:
        values = [float(c) for c in cells]
    except ValueError:
        errors.append(f"{where}: non-numeric cell in {cells!r}")
        return []
    if not all(math.isfinite(v) for v in values):
        errors.append(f"{where}: non-finite cell in {cells!r}")
    return values


def check_csv(inv: Invocation, text: str, parse_metadata) -> list:
    """Seed-independent checks of one CSV; returns the list of failures (empty if correct).

    ``parse_metadata`` is uavcov's own reader of the ``# config:`` line.
    """
    errors = []
    lines = text.split("\n")
    if lines[-1] != "":
        errors.append("CSV does not end with a newline")
    lines = lines[:-1]
    n_meta = 0
    while n_meta < len(lines) and lines[n_meta].startswith("#"):
        n_meta += 1
    if n_meta == len(lines):
        return errors + ["CSV has no header row"]
    header = tuple(lines[n_meta].split(","))
    if header != inv.header:
        errors.append(f"header {header!r} != {inv.header!r}")
    body = [line.split(",") for line in lines[n_meta + 1:]]
    if len(body) != inv.rows:
        errors.append(f"{len(body)} rows, expected {inv.rows}")

    config_lines = [line for line in lines[:n_meta] if line.startswith("# config: ")]
    try:
        params = parse_metadata(text)
    except ValueError as exc:
        return errors + [f"parse_metadata failed: {exc}"]
    if len(config_lines) != 1 or config_lines[0] != "# config: " + json.dumps(
            params, sort_keys=True, separators=(",", ":")):
        errors.append("# config: line does not round-trip through parse_metadata")
    if params.get("command") != inv.argv[0]:
        errors.append(f"config command {params.get('command')!r} != {inv.argv[0]!r}")
    for key, want in inv.params.items():
        if params.get(key) != want:
            errors.append(f"config {key}={params.get(key)!r}, expected {want!r}")
    if errors:
        return errors

    numeric_from = 1 if header[0] == "environment" else 0
    columns = list(zip(*(_floats(row[numeric_from:], f"row {i}", errors)
                         for i, row in enumerate(body)))) if body else []
    if errors or not columns:
        return errors
    col = dict(zip(header[numeric_from:], columns))
    command = inv.argv[0]
    if command == "sweep-coverage" and params.get("mc_samples"):
        n = params["mc_samples"]
        for env in ENVS:
            for i, (mc, analytic, stderr) in enumerate(zip(
                    col[f"p_cov_mc[{env}]"], col[f"p_cov[{env}]"], col[f"mc_stderr[{env}]"])):
                # 5 sigma, where sigma is the larger of the estimated stderr and the
                # binomial deviation at the analytic p_cov. The estimated stderr alone
                # is 0 when all draws of a cell land on one side, as they often do
                # for p_cov near 1; with it alone ~12% of 50000-draw runs would fail
                # some cell of a correct program, with both ~1e-4 do.
                sigma = max(stderr, math.sqrt(analytic * (1.0 - analytic) / n), 1.0 / n)
                if abs(mc - analytic) > 5.0 * sigma:
                    errors.append(f"row {i} {env}: |p_cov_mc - p_cov| = {abs(mc - analytic):.3g}"
                                  f" > 5 sigma = {5.0 * sigma:.3g}")
    elif command == "scenario":
        summary_lines = [line for line in lines[:n_meta] if line.startswith("# summary: ")]
        summary = json.loads(summary_lines[0][len("# summary: "):]) if summary_lines else {}
        draws = summary.get("covered_fraction_draws", [])
        if len(draws) != params["n_draws"]:
            errors.append(f"{len(draws)} covered fractions, expected {params['n_draws']}")
        else:
            # each draw is an independent Bernoulli per user, so the mean over
            # n_users * n_draws outcomes has a standard deviation <= 0.5/sqrt(N)
            tol = 5.0 * 0.5 / math.sqrt(params["n_users"] * params["n_draws"])
            gap = abs(sum(draws) / len(draws) - summary.get("mean_p_cov", math.inf))
            if not gap <= tol:
                errors.append(f"mean covered fraction differs from mean_p_cov by {gap:.3g}"
                              f" > {tol:.3g}")
    elif command == "optimize-altitude":
        for h, p in zip(col["h_star_m"], col["p_cov_star"]):
            if not params["h_min_m"] <= h <= params["h_max_m"] or not 0.0 <= p <= 1.0:
                errors.append(f"optimum (h={h}, p={p}) outside [h_min, h_max] x [0, 1]")
    elif command == "coverage-radius":
        for radius in col["max_radius_m"]:
            if not 0.0 <= radius <= params["r_max_m"]:
                errors.append(f"radius {radius} outside [0, r_max]")
    return errors


def check_svg(inv: Invocation, text: str) -> list:
    errors = []
    if not text.startswith("<svg") or not text.endswith("</svg>\n"):
        errors.append("SVG is not a single <svg> element")
    if text.count("<polyline") != inv.svg_series:
        errors.append(f"{text.count('<polyline')} polylines, expected {inv.svg_series}")
    return errors


def check_file(inv: Invocation, name: str, data: bytes, parse_metadata,
               digests: dict | None) -> list:
    """All checks of one output file; returns the list of failures (empty if correct).

    ``digests`` maps file name to the frozen SHA-256 when the default seed
    runs at full scale, and is None otherwise.
    """
    errors = []
    if digests is not None and sha256(data) != digests.get(name):
        errors.append("SHA-256 differs from the frozen digest")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        errors.append("not UTF-8")
    else:
        try:
            errors += check_svg(inv, text) if name.endswith(".svg") else check_csv(
                inv, text, parse_metadata)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            # a malformed output counts as failed; it must not stop the benchmark
            errors.append(f"malformed output: {exc!r}")
    return [f"{name}: {e}" for e in errors]
