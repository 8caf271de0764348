"""Traced in-process runs of one workload, in a fresh interpreter of their own.

Usage: python3 tracer.py spans|memory --workload W --seed S --scale X
       --seconds T --workdir DIR --out FILE

``spans`` wraps uavcov's public functions as the calling module binds them
(``cli.run_sweep``, ``reporting.render_csv``, ...) and records one span per
call: name, start, end, parent span and invocation id. Spans stay in memory
and are written to FILE when the run ends. Iterations alternate with the
wrappers switched off and on, so the tracing overhead is measured in the same
warm interpreter. After the traced iterations, untraced replays give the
numbers the CLI path does not expose: ``evaluate_links`` on the scenario's
positions, and the Monte Carlo cells of one iteration replayed at workers=1
and workers=2, in alternating order, MC_REPLAY_PAIRS times.

``memory`` runs one iteration under ``tracemalloc`` and records, per layer,
the peak traced allocation above the level at entry to its public calls. It
is a pass of its own so the allocation hooks never enter a span time.

No file of the program is changed: everything here patches module
attributes at run time.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import threading
import time
import tracemalloc

import workloads

MC_REPLAY_PAIRS = 3


class Tracer:
    """Span recorder; ``enabled`` switches every wrapper between recording and pass-through."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.invocation = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped to record a ``name`` span; ``count(args, kwargs, result)``
        adds work counts to the span after its end time is taken."""

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            # a span opened on a worker thread belongs to the main thread's open span
            parents = stack or self._main_stack
            parent = parents[-1] if parents else None
            span_id = next(self._ids)
            if name == "cli.main":
                self.invocation = span_id
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {"id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "invocation": self.invocation}
            if count is not None:
                span.update(count(args, kwargs, result))
            self.spans.append(span)
            return result

        return traced


def _polyline_points(svg: str) -> int:
    return sum(len(line.split('points="', 1)[1].split('"', 1)[0].split())
               for line in svg.split("\n") if line.startswith("<polyline"))


def _output_bytes(args, kwargs, result) -> dict:
    target = str(args[1] if len(args) > 1 else kwargs["path"])
    plot = args[2] if len(args) > 2 else kwargs.get("plot", False)
    paths = [target] + ([os.path.splitext(target)[0] + ".svg"] if plot else [])
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


def install_spans(tracer: Tracer, cli, planner, scenario, reporting) -> dict:
    """Wrap every traced binding in place; returns the recorded calls needed by the replays."""
    calls = {"mc": [], "scenario": []}

    def kernel_points(args, kwargs, result):
        return {"points": int(result[-1].size)}

    def mc_draws(args, kwargs, result):
        calls["mc"].append((args, kwargs))
        return {"draws": kwargs.get("n_samples", args[3] if len(args) > 3 else 0)}

    def sweep_cells(args, kwargs, result):
        return {"cells": len(result.rows) * len(result.environment_names)}

    def scenario_call(args, kwargs, result):
        calls["scenario"].append((args, kwargs))
        return {"user_draws": args[0].n_users * args[0].n_draws}

    def csv_rows(args, kwargs, result):
        # the output is ASCII, so characters are bytes
        return {"rows": len(args[0].rows), "bytes": len(result)}

    def svg_points(args, kwargs, result):
        return {"points": _polyline_points(result)}

    targets = [
        (cli, "main", "cli.main", None),
        (cli, "parse_args", "cli.parse_args", None),
        (cli, "execute", "cli.execute", None),
        (cli, "run_sweep", "planner.run_sweep", sweep_cells),
        (cli, "sweep_grid", "planner.sweep_grid", None),
        (cli, "optimal_altitude", "planner.optimal_altitude", None),
        (cli, "max_coverage_radius", "planner.max_coverage_radius", None),
        (cli, "coverage_monte_carlo", "coverage.coverage_monte_carlo", mc_draws),
        (planner, "_coverage_arrays", "coverage.kernel", kernel_points),
        (scenario, "_coverage_arrays", "coverage.kernel", kernel_points),
        (cli, "evaluate_scenario", "scenario.evaluate_scenario", scenario_call),
        (scenario, "generate_users", "scenario.generate_users", None),
        (cli, "emit_table", "reporting.emit_table", _output_bytes),
        (cli, "render_csv", "reporting.render_csv", csv_rows),
        (reporting, "render_csv", "reporting.render_csv", csv_rows),
        (reporting, "render_svg", "reporting.render_svg", svg_points),
    ]
    for module, attr, name, count in targets:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))
    return calls


def install_memory(cli, peaks: dict) -> None:
    """Record the peak traced allocation of each layer's public calls."""
    targets = {"evaluate_scenario": "scenario", "run_sweep": "planner",
               "optimal_altitude": "planner", "max_coverage_radius": "planner",
               "emit_table": "reporting"}
    for attr, layer in targets.items():
        fn = getattr(cli, attr)

        def measured(*args, _fn=fn, _layer=layer, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return _fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                peaks[_layer] = max(peaks[_layer], peak)

        setattr(cli, attr, measured)


def run_iteration(cli, plan, workdir: str, resolved: list) -> list:
    """Run every invocation of ``plan`` through ``cli.main``; one record per invocation."""
    records = []
    for inv in plan.invocations:
        out = os.path.join(workdir, f"{inv.name}.csv")
        code = cli.main(list(inv.argv) + ["--out", out])
        done = time.perf_counter()
        hashes = {}
        for name in inv.outputs:
            with open(os.path.join(workdir, name), "rb") as handle:
                hashes[name] = hashlib.sha256(handle.read()).hexdigest()
        records.append({"name": inv.name, "code": code, "run_s": done - resolved[-1],
                        "sha256": hashes})
    return records


def _replay_links(scenario, args, kwargs) -> tuple:
    spec = args[0]
    workers = kwargs.get("workers", args[1] if len(args) > 1 else 1)
    positions = scenario.generate_users(spec.n_users, spec.area_side_m, spec.seed,
                                        spec.area_shape)
    start = time.perf_counter()
    records = scenario.evaluate_links(positions, spec.uav_position, spec.env, spec.radio,
                                      spec.mode, workers=workers)
    return time.perf_counter() - start, len(records)


def _replay_mc(coverage, calls: list, workers: int) -> float:
    start = time.perf_counter()
    for args, kwargs in calls:
        coverage.coverage_monte_carlo(*args, **{**kwargs, "workers": workers})
    return time.perf_counter() - start


def _mc_speedups(coverage, calls: list) -> list:
    """workers=1 time over workers=2 time of the same cells, one ratio per pair of
    replays; the pairs alternate which worker count runs first."""
    ratios = []
    for pair in range(MC_REPLAY_PAIRS):
        seconds = {workers: _replay_mc(coverage, calls, workers)
                   for workers in ((1, 2) if pair % 2 == 0 else (2, 1))}
        ratios.append(seconds[1] / seconds[2])
    return ratios


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["spans", "memory"])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=sorted(workloads.SCALES))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    plan = workloads.build_plan(args.workload, args.seed, args.scale)

    start = time.perf_counter()
    from uavcov import cli, coverage, planner, reporting, scenario
    import_s = time.perf_counter() - start

    resolved = []
    resolve = cli.parse_args

    def parse_args(argv=None):
        config = resolve(argv)
        resolved.append(time.perf_counter())
        return config

    cli.parse_args = parse_args
    result = {"mode": args.mode, "import_s": import_s, "iterations": []}

    if args.mode == "memory":
        peaks = {"scenario": 0, "planner": 0, "reporting": 0}
        install_memory(cli, peaks)
        tracemalloc.start()
        result["iterations"].append(
            {"traced": False, "invocations": run_iteration(cli, plan, args.workdir, resolved)})
        tracemalloc.stop()
        result["peak_bytes"] = peaks
    else:
        tracer = Tracer()
        calls = install_spans(tracer, cli, planner, scenario, reporting)
        links = []
        # warm-up, then pairs in alternating order: untraced/traced, traced/untraced, ...
        order = [False]
        while True:
            for traced in order:
                tracer.enabled = traced
                first_span = len(tracer.spans)
                records = run_iteration(cli, plan, args.workdir, resolved)
                tracer.enabled = False
                result["iterations"].append({
                    "traced": traced, "invocations": records,
                    "span_ids": [s["id"] for s in tracer.spans[first_span:]]})
                if traced and calls["scenario"]:
                    links.append(_replay_links(scenario, *calls["scenario"][-1]))
            n_pairs = sum(it["traced"] for it in result["iterations"])
            if n_pairs and time.perf_counter() - start >= args.seconds:
                break
            order = [False, True] if n_pairs % 2 == 0 else [True, False]
        result["iterations"].pop(0)  # the warm-up
        result["spans"] = tracer.spans
        result["links_s"] = [t for t, _ in links]
        result["links_records"] = links[0][1] if links else 0
        mc_calls = calls["mc"][: len(calls["mc"]) // n_pairs]  # one traced iteration's cells
        result["mc_speedups"] = _mc_speedups(coverage, mc_calls) if mc_calls else []
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
