"""uavcov benchmark: real CLI invocations per workload, checked outputs, named metrics.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds T] [--trace 0|1]
                             [--scale full|tiny]
    python3 perfbench/run.py --freeze    # re-freeze digests.json after a deliberate byte change

``all`` runs the workloads listed in BENCHMARK.json; ``--freeze`` and
``--workload`` also reach figure-set, which is runnable but not listed.

The load is one client in a closed loop: each uavcov invocation is a fresh
interpreter, started only after the previous one exited. ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json as medians over the iterations run in
``--seconds``. ``--trace 1`` reports the per-layer metrics: a short untraced
baseline, then one traced interpreter (tracer.py spans) and one tracemalloc
interpreter (tracer.py memory). Every output is checked (workloads.py); an
invocation fails on a non-zero exit, on bytes that differ from the run's first
invocation, on a digest mismatch at the default seed, or on any content check.

Timings are process-level counters only: ``time.perf_counter`` in parent and
child (CLOCK_MONOTONIC on Linux, so the two are comparable), the child's own
peak RSS (VmHWM, see child.py) and ``tracemalloc`` in the memory pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A result file with
provenance and sample counts is written under ``.perfbench_work/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
CHILD_TIMEOUT_S = 120.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn(argv: list, workdir: Path) -> dict:
    """One untraced CLI invocation: set-up, run and wall time, peak RSS, exit code."""
    stamp = workdir / "stamp.json"
    stamp.unlink(missing_ok=True)
    with open(workdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(stamp), *argv],
                                cwd=workdir, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        end = time.perf_counter()
    sample = {"code": code, "wall_s": end - start}
    if stamp.exists():
        stamps = json.loads(stamp.read_text(encoding="utf-8"))
        sample["setup_s"] = stamps["resolved"] - start
        sample["run_s"] = stamps["done"] - stamps["resolved"]
        sample["peak_rss_mb"] = stamps["vm_hwm_kb"] / 1024.0
    return sample


class Oracle:
    """Checks every invocation's outputs and counts failures against attempts."""

    def __init__(self, digests: dict | None):
        from uavcov.reporting import parse_metadata

        self.parse_metadata = parse_metadata
        self.digests = digests
        self.reference = {}  # output file -> SHA-256 of the run's first invocation
        self.verdicts = {}  # (file, SHA-256) -> failures, so identical bytes are parsed once
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, inv: workloads.Invocation, code: int, blobs: dict, stderr: str = ""):
        self.attempted += 1
        errors = [f"exit code {code}: {stderr.strip()[-300:]}"] if code != 0 else []
        for name in inv.outputs:
            data = blobs.get(name)
            digest = None if data is None else workloads.sha256(data)
            errors += self.check_file(inv, name, digest, data)
        if errors:
            self.failed += 1
            self.failures.append({"invocation": inv.name, "errors": errors[:10]})

    def check_file(self, inv, name: str, digest: str | None, data: bytes | None) -> list:
        if digest is None:
            return [f"{name}: missing"]
        expected = self.reference.setdefault(name, digest)
        if digest != expected:
            return [f"{name}: bytes differ from the first invocation of this run"]
        if (name, digest) not in self.verdicts:
            self.verdicts[(name, digest)] = workloads.check_file(
                inv, name, data, self.parse_metadata, self.digests)
        return self.verdicts[(name, digest)]


def read_outputs(inv: workloads.Invocation, workdir: Path) -> dict:
    """Read and remove the invocation's outputs, so the next one must write its own."""
    blobs = {}
    for name in inv.outputs:
        path = workdir / name
        if path.exists():
            blobs[name] = path.read_bytes()
            path.unlink()
    return blobs


def measure(plan: workloads.Plan, oracle: Oracle, workdir: Path, seconds: float,
            min_iterations: int) -> list:
    """Closed-loop iterations for ``seconds``; one list of invocation samples per iteration."""
    iterations = []
    start = time.perf_counter()
    while len(iterations) < min_iterations or time.perf_counter() - start < seconds:
        samples = []
        for inv in plan.invocations:
            sample = spawn(list(inv.argv) + ["--out", f"{inv.name}.csv"], workdir)
            stderr = (workdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
            oracle.record(inv, sample["code"], read_outputs(inv, workdir), stderr)
            samples.append(sample)
        iterations.append(samples)
    return iterations


def end_to_end(plan: workloads.Plan, iterations: list) -> dict:
    """Medians over iterations; an iteration's times are sums over its invocations."""
    complete = [it for it in iterations if all("run_s" in s for s in it)] or iterations
    per_it = {key: [sum(s.get(key, 0.0) for s in it) for it in complete]
              for key in ("setup_s", "run_s", "wall_s")}
    per_it["peak_rss_mb"] = [max(s.get("peak_rss_mb", 0.0) for s in it) for it in complete]
    metrics = {key: statistics.median(values) for key, values in per_it.items()}
    metrics["work_per_s"] = plan.work_units / metrics["wall_s"]
    return metrics


def run_tracer(mode: str, plan: workloads.Plan, workdir: Path, seconds: float,
               out: Path) -> dict:
    argv = [sys.executable, str(HERE / "tracer.py"), mode, "--workload", plan.workload,
            "--seed", str(plan.seed), "--scale", plan.scale, "--seconds", str(seconds),
            "--workdir", str(workdir), "--out", str(out)]
    proc = subprocess.run(argv, cwd=workdir, env=child_env(), stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S + seconds, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"tracer {mode} failed:\n{proc.stderr.decode(errors='replace')}")
    return json.loads(out.read_text(encoding="utf-8"))


def record_tracer_outputs(oracle: Oracle, result: dict) -> None:
    """Count the in-process invocations too: exit code and output bytes."""
    for iteration in result["iterations"]:
        for rec in iteration["invocations"]:
            oracle.attempted += 1
            errors = [f"exit code {rec['code']}"] if rec["code"] != 0 else []
            errors += [f"{name}: bytes differ from the first invocation of this run"
                       for name, digest in rec["sha256"].items()
                       if digest != oracle.reference.get(name)]
            if errors:
                oracle.failed += 1
                oracle.failures.append({"invocation": f"{rec['name']} ({result['mode']})",
                                        "errors": errors})


def focus(workload: str, per_layer: dict, iterations: list, e2e: dict) -> dict:
    """The share of the workload taken by the layer it was chosen to stress.

    ``iterations`` holds (layer values, traced run_s) per traced iteration;
    the share is their median.
    """
    if workload == "figure-set":
        share, threshold = e2e["setup_s"] / e2e["wall_s"], 0.6
        return {"what": "untraced setup_s / wall_s, with reporting.render_svg_s > 0",
                "value": share, "threshold": threshold,
                "met": share >= threshold and per_layer["reporting.render_svg_s"] > 0}
    parts, threshold = {
        "mc-check": (("coverage.mc_s",), 0.9),
        "planner-grid": (("planner.optimize_s", "planner.radius_s"), 0.9),
        "scenario-area": (("scenario.shadowing_s", "scenario.links_s",
                           "reporting.render_csv_s"), 0.75),
    }[workload]
    share = statistics.median(sum(values[p] for p in parts) / run_s
                              for values, run_s in iterations)
    return {"what": " + ".join(parts) + " over traced run_s", "value": share,
            "threshold": threshold, "met": share >= threshold}


def provenance(plan: workloads.Plan, samples: dict) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    sources = sorted((SRC / "uavcov").glob("*.py"))
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": workloads.sha256(b"".join(p.name.encode() + p.read_bytes()
                                                for p in sources)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "seed": plan.seed, "scale": plan.scale,
        "sizes": {inv.name: " ".join(inv.argv) for inv in plan.invocations},
        "work_units": {"per_iteration": plan.work_units, "unit": plan.work_unit},
        "samples": samples,
    }


def load_digests(plan: workloads.Plan) -> dict | None:
    if plan.seed != workloads.DEFAULT_SEED or plan.scale != "full":
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(plan.workload, {})


def run_workload(name: str, args, spec: dict) -> tuple:
    """Measure one workload; returns (metrics, oracle, result file contents)."""
    plan = workloads.build_plan(name, args.seed, args.scale)
    workdir = WORK / f"{name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    oracle = Oracle(None if args.freeze else load_digests(plan))
    try:
        # fill the bytecode and page caches, which users do not pay on every run
        subprocess.run([sys.executable, "-c", "import uavcov.cli"], cwd=workdir,
                       env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)
        if args.trace == 0:
            iterations = measure(plan, oracle, workdir, args.seconds, 1 if args.freeze else 3)
            metrics = end_to_end(plan, iterations)
            samples = {"iterations": len(iterations),
                       "invocations": len(iterations) * len(plan.invocations)}
            extra = {"iterations": iterations}
        else:
            iterations = measure(plan, oracle, workdir, 0.25 * args.seconds, 1)
            results = WORK / "results"
            results.mkdir(parents=True, exist_ok=True)
            spans_file = results / f"spans-{name}-seed{args.seed}.json"
            trace = run_tracer("spans", plan, workdir, 0.45 * args.seconds, spans_file)
            memory = run_tracer("memory", plan, workdir, 0.0, workdir / "memory.json")
            for result in (trace, memory):
                record_tracer_outputs(oracle, result)
            metrics, traced = layers.derive(trace, memory)
            e2e = end_to_end(plan, iterations)
            samples = {"untraced_iterations": len(iterations),
                       "traced_iterations": sum(it["traced"] for it in trace["iterations"]),
                       "in_process_untraced_iterations": sum(
                           not it["traced"] for it in trace["iterations"]),
                       "memory_iterations": len(memory["iterations"])}
            extra = {"spans_file": str(spans_file.relative_to(ROOT)),
                     "traced_run_s": [run_s for _, run_s in traced],
                     "untraced_end_to_end": e2e, "focus": focus(name, metrics, traced, e2e)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wanted = spec["end_to_end" if args.trace == 0 else "per_layer"]
    metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    report = {"workload": name, "why": workloads.WHY[name], "trace": args.trace,
              "provenance": provenance(plan, samples), "metrics": metrics,
              "attempted": oracle.attempted, "failed": oracle.failed,
              "failures": oracle.failures, **extra}
    if args.freeze:
        report["outputs"] = dict(oracle.reference)
    return metrics, oracle, report


def print_report(report: dict) -> None:
    samples = report["provenance"]["samples"]
    print(f"== {report['workload']} (seed {report['provenance']['seed']}, "
          f"{report['provenance']['scale']}) samples {json.dumps(samples)}")
    for name, metric in report["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  failed/attempted {report['failed']}/{report['attempted']}")
    for failure in report["failures"][:5]:
        print(f"  FAILED {failure['invocation']}: {'; '.join(failure['errors'][:3])}")
    if "focus" in report:
        f = report["focus"]
        print(f"  focus: {f['what']} = {f['value']:.3f} (threshold {f['threshold']}, "
              f"{'met' if f['met'] else 'NOT met'})")


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--freeze", action="store_true",
                        help="write digests.json from one default-seed iteration per workload")
    args = parser.parse_args(argv)
    if not (SRC / "uavcov" / "cli.py").is_file():
        print(f"perfbench: no uavcov sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.freeze:
        args.seed, args.scale, args.trace, args.seconds = workloads.DEFAULT_SEED, "full", 0, 0.0

    if args.freeze:
        names = workloads.WORKLOADS
    elif args.workload == "all":
        names = tuple(w["name"] for w in spec["workloads"])
    else:
        names = (args.workload,)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    merged, frozen = {}, {}
    for name in names:
        metrics, oracle, report = run_workload(name, args, spec)
        (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=1), encoding="utf-8")
        print_report(report)
        attempted += oracle.attempted
        failed += oracle.failed
        frozen[name] = report.get("outputs")
        merged.update(metrics if len(names) == 1 else
                      {f"{name}.{key}": value for key, value in metrics.items()})
    if args.freeze:
        if failed:
            print("perfbench: outputs failed their checks; digests not frozen", file=sys.stderr)
            return 1
        DIGESTS.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
        print(f"froze {DIGESTS.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
