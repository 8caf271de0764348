"""Per-layer metrics: which end-to-end metric each should move, and how each is derived.

Layers are uavcov's modules. ``channel`` has no metric of its own (its formula
runs inside the coverage kernel, plus scalar calls once per Monte Carlo cell)
and ``errors`` does no work. Metrics of a layer that a workload never calls
read 0 on that workload.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

# metric -> the end-to-end metric and workload it should move
MOVES = {
    "cli.import_s": "setup_s on every workload, most visibly figure-set",
    "cli.parse_s": "setup_s on every workload, most visibly figure-set",
    "cli.execute_self_s": "run_s on scenario-area and figure-set",
    "coverage.kernel_points": "run_s and work_per_s on planner-grid; no change on mc-check",
    "coverage.kernel_s": "run_s and work_per_s on planner-grid; no change on mc-check",
    "coverage.kernel_ns_per_point": "run_s and work_per_s on planner-grid; no change on mc-check",
    "coverage.mc_calls": "run_s on mc-check",
    "coverage.mc_draws": "run_s on mc-check",
    "coverage.mc_s": "run_s on mc-check",
    "coverage.mc_ns_per_draw": "run_s on mc-check",
    "coverage.mc_speedup_2w": "run_s on mc-check",
    "planner.sweep_calls": "run_s on figure-set",
    "planner.sweep_cells": "run_s on figure-set",
    "planner.sweep_s": "run_s on figure-set",
    "planner.sweep_ns_per_cell": "run_s on figure-set",
    "planner.optimize_s": "run_s and work_per_s on planner-grid",
    "planner.radius_s": "run_s and work_per_s on planner-grid",
    "scenario.user_draws": "run_s, wall_s, peak_rss_mb on scenario-area; no change elsewhere",
    "scenario.records": "run_s, wall_s, peak_rss_mb on scenario-area; no change elsewhere",
    "scenario.evaluate_s": "run_s, wall_s, peak_rss_mb on scenario-area; no change elsewhere",
    "scenario.links_s": "run_s, wall_s, peak_rss_mb on scenario-area; no change elsewhere",
    "scenario.shadowing_s": "run_s, wall_s, peak_rss_mb on scenario-area; no change elsewhere",
    "scenario.ns_per_user_draw": "run_s, wall_s, peak_rss_mb on scenario-area",
    "reporting.csv_rows": "run_s on scenario-area; small on figure-set, nil on planner-grid",
    "reporting.csv_bytes": "run_s on scenario-area; small on figure-set, nil on planner-grid",
    "reporting.render_csv_s": "run_s on scenario-area; small on figure-set, nil on planner-grid",
    "reporting.csv_ns_per_row": "run_s on scenario-area",
    "reporting.svg_points": "run_s on mc-check (its --plot chart) and figure-set",
    "reporting.render_svg_s": "run_s on mc-check (its --plot chart) and figure-set",
    "reporting.write_s": "run_s on scenario-area",
    "reporting.bytes_written": "run_s on scenario-area",
    "scenario.peak_traced_mb": "peak_rss_mb on scenario-area",
    "planner.peak_traced_mb": "peak_rss_mb on planner-grid",
    "reporting.peak_traced_mb": "peak_rss_mb on scenario-area",
    "trace.overhead_frac": "none: the cost of the traced run itself",
}


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _per_ns(seconds: float, count: float) -> float:
    return seconds / count * 1e9 if count else 0.0


def _union_s(intervals: list) -> float:
    """Length of the union of (start, end) intervals.

    Spans opened on pool threads overlap; their union is the elapsed time,
    where their sum would be thread time.
    """
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def iteration_layers(spans: list, links_s: float, links_records: int) -> dict:
    """Per-layer elapsed times and counts over the spans of one traced iteration."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    counts = defaultdict(float)
    calls = defaultdict(int)
    for span in spans:
        by_name[span["name"]].append((span["start"], span["end"]))
        calls[span["name"]] += 1
        for key in ("points", "draws", "cells", "rows", "bytes", "user_draws"):
            if key in span:
                counts[(span["name"], key)] += span[key]
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    total = defaultdict(float, {name: _union_s(iv) for name, iv in by_name.items()})
    self_s = defaultdict(float)
    for span in spans:
        self_s[span["name"]] += _dur(span) - _union_s(children[span["id"]])

    kernel_points = counts[("coverage.kernel", "points")]
    mc_draws = counts[("coverage.coverage_monte_carlo", "draws")]
    sweep_cells = counts[("planner.run_sweep", "cells")]
    user_draws = counts[("scenario.evaluate_scenario", "user_draws")]
    csv_rows = counts[("reporting.render_csv", "rows")]
    evaluate_s = total["scenario.evaluate_scenario"]
    shadowing_s = (evaluate_s - total["scenario.generate_users"] - links_s) if evaluate_s else 0.0
    return {
        "cli.parse_s": total["cli.parse_args"],
        "cli.execute_self_s": self_s["cli.execute"],
        "coverage.kernel_points": kernel_points,
        "coverage.kernel_s": total["coverage.kernel"],
        "coverage.kernel_ns_per_point": _per_ns(total["coverage.kernel"], kernel_points),
        "coverage.mc_calls": calls["coverage.coverage_monte_carlo"],
        "coverage.mc_draws": mc_draws,
        "coverage.mc_s": total["coverage.coverage_monte_carlo"],
        "coverage.mc_ns_per_draw": _per_ns(total["coverage.coverage_monte_carlo"], mc_draws),
        "planner.sweep_calls": calls["planner.run_sweep"],
        "planner.sweep_cells": sweep_cells,
        "planner.sweep_s": total["planner.run_sweep"],
        "planner.sweep_ns_per_cell": _per_ns(total["planner.run_sweep"], sweep_cells),
        "planner.optimize_s": total["planner.optimal_altitude"],
        "planner.radius_s": total["planner.max_coverage_radius"],
        "scenario.user_draws": user_draws,
        "scenario.records": links_records if evaluate_s else 0,
        "scenario.evaluate_s": evaluate_s,
        "scenario.links_s": links_s if evaluate_s else 0.0,
        "scenario.shadowing_s": shadowing_s,
        "scenario.ns_per_user_draw": _per_ns(shadowing_s, user_draws),
        "reporting.csv_rows": csv_rows,
        "reporting.csv_bytes": counts[("reporting.render_csv", "bytes")],
        "reporting.render_csv_s": total["reporting.render_csv"],
        "reporting.csv_ns_per_row": _per_ns(total["reporting.render_csv"], csv_rows),
        "reporting.svg_points": counts[("reporting.render_svg", "points")],
        "reporting.render_svg_s": total["reporting.render_svg"],
        "reporting.write_s": self_s["reporting.emit_table"],
        "reporting.bytes_written": counts[("reporting.emit_table", "bytes")],
    }


def derive(trace: dict, memory: dict) -> tuple:
    """Every per-layer metric from a ``spans`` tracer result and a ``memory`` one,
    plus ``(layer values, traced run_s)`` of each traced iteration.

    Times are medians over the traced iterations; ``coverage.mc_speedup_2w``
    is the median of the replays' workers=1 over workers=2 ratios;
    ``trace.overhead_frac`` is
    the median traced run_s over the median untraced run_s of the same
    interpreter, minus 1.
    """
    spans = {span["id"]: span for span in trace["spans"]}
    traced = [it for it in trace["iterations"] if it["traced"]]
    untraced = [it for it in trace["iterations"] if not it["traced"]]
    links = trace["links_s"] or [0.0] * len(traced)
    per_iteration = [
        iteration_layers([spans[i] for i in it["span_ids"]], link_s, trace["links_records"])
        for it, link_s in zip(traced, links)
    ]
    metrics = {name: statistics.median(values[name] for values in per_iteration)
               for name in per_iteration[0]}

    def run_s(iteration):
        return sum(inv["run_s"] for inv in iteration["invocations"])

    traced_run_s = [run_s(it) for it in traced]
    speedups = trace["mc_speedups"]
    metrics["coverage.mc_speedup_2w"] = statistics.median(speedups) if speedups else 0.0
    metrics["cli.import_s"] = trace["import_s"]
    for layer in ("scenario", "planner", "reporting"):
        metrics[f"{layer}.peak_traced_mb"] = memory["peak_bytes"][layer] / 2**20
    metrics["trace.overhead_frac"] = (statistics.median(traced_run_s)
                                      / statistics.median(map(run_s, untraced)) - 1.0)
    return metrics, list(zip(per_iteration, traced_run_s))
