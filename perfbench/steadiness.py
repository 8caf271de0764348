"""Steadiness check: run the suite twice on the same code and compare the two sets.

Usage (from the repository root):
    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                    [--seconds T]

Each set runs ``run.py --trace 0`` once per seed for every workload. For each
workload and end-to-end metric it reports the spread of each set (distance
between the first and third quartile over the median, as
``statistics.quantiles(values, n=4)`` gives them) and how far the second
set's median moved from the first's, in either direction, as a share of the
first. The two sets agree when every spread except ``setup_s``'s is within
the metric's bound and the move is within it too; a spread above a third of
the bound is flagged as marginal.
Exits 1 when the sets disagree or a run reports incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(first: list, second: list, metric: dict) -> dict:
    """Verdict for one workload and metric, from the values of the two sets."""
    bound = metric["bound"]
    medians = [statistics.median(first), statistics.median(second)]
    spreads = [spread(first), spread(second)]
    move = (medians[1] - medians[0]) / medians[0]
    spread_ok = metric["name"] == "setup_s" or all(s <= bound for s in spreads)
    return {"medians": medians, "spreads": spreads, "move": move,
            "agree": spread_ok and abs(move) <= bound,
            "marginal": any(s > bound / 3 for s in spreads)}


def run_once(workload: str, seed: int, seconds: float | None) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--trace", "0"] + ([] if seconds is None else ["--seconds", str(seconds)])
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)

    names = args.workloads.split(",")
    seeds = range(args.first_seed, args.first_seed + args.runs)
    values = {(w, m["name"]): [] for w in names for m in spec["end_to_end"]}
    incorrect = []
    for _ in range(2):
        for workload in names:
            current = {m["name"]: [] for m in spec["end_to_end"]}
            for seed in seeds:
                result = run_once(workload, seed, args.seconds)
                if not result["correct"]:
                    incorrect.append((workload, seed))
                for name, metric in result["metrics"].items():
                    current[name].append(metric["value"])
            for name, series in current.items():
                values[(workload, name)].append(series)

    report, agree = [], not incorrect
    print(f"{'workload':14s} {'metric':12s} {'bound':>6s} {'medians':>24s} "
          f"{'spreads':>16s} {'move':>8s}  verdict")
    for workload in names:
        for metric in spec["end_to_end"]:
            first, second = values[(workload, metric["name"])]
            if len(first) < 2:
                continue
            row = compare(first, second, metric)
            agree = agree and row["agree"]
            verdict = ("agree" if row["agree"] else "DISAGREE") + (
                " (marginal spread)" if row["marginal"] else "")
            print(f"{workload:14s} {metric['name']:12s} {metric['bound']:6.2f} "
                  f"{' '.join(f'{m:.5g}' for m in row['medians']):>24s} "
                  f"{' '.join(f'{s:.3f}' for s in row['spreads']):>16s} "
                  f"{row['move']:+8.3f}  {verdict}")
            report.append({"workload": workload, "metric": metric["name"],
                           "bound": metric["bound"], "values": [first, second], **row})
    for workload, seed in incorrect:
        print(f"INCORRECT outputs: {workload} seed {seed}")
    out = ROOT / ".perfbench_work" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seeds": list(seeds), "rows": report},
                              indent=1), encoding="utf-8")
    print(f"{'the two sets agree' if agree else 'the sets DISAGREE'}; details in "
          f"{out.relative_to(ROOT)}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
