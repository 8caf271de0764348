"""Self-tests of the benchmark: BENCHMARK.json format, tiny smoke runs, oracle negatives.

Run from the repository root (they are not part of the tier-1 suite under tests/):
    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import layers
import run
import steadiness
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
sys.path.insert(0, str(run.SRC))


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def test_benchmark_json_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"] and 1 <= SPEC["run_seconds"] <= 60
    assert {w["name"]: w["why"] for w in SPEC["workloads"]}.items() <= workloads.WHY.items()
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.MOVES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace",
                 str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "mc-check", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def _outputs(workload, seed, tmp_path):
    """Run a tiny workload's invocations in-process; returns (plan, {name: bytes})."""
    from uavcov import cli

    plan = workloads.build_plan(workload, seed, "tiny")
    blobs = {}
    for inv in plan.invocations:
        assert cli.main(list(inv.argv) + ["--out", str(tmp_path / f"{inv.name}.csv")]) == 0
        blobs.update(run.read_outputs(inv, tmp_path))
    return plan, blobs


def _failed(plan, blobs, digests=None, code=0):
    oracle = run.Oracle(digests)
    for inv in plan.invocations:
        oracle.record(inv, code, {n: blobs[n] for n in inv.outputs if n in blobs})
    return oracle.failed


def _edit_row(blob, row, column, value):
    lines = blob.decode().split("\n")
    first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    cells = lines[first + row].split(",")
    cells[column] = value
    lines[first + row] = ",".join(cells)
    return "\n".join(lines).encode()


def test_oracle_passes_real_outputs_and_their_digests(tmp_path):
    plan, blobs = _outputs("figure-set", 3, tmp_path)
    digests = {name: workloads.sha256(data) for name, data in blobs.items()}
    assert _failed(plan, blobs) == 0 and _failed(plan, blobs, digests) == 0


def test_tampered_digest_counts_as_failed(tmp_path):
    plan, blobs = _outputs("mc-check", 3, tmp_path)
    assert _failed(plan, blobs, {"mc.csv": "0" * 64}) == 1


def test_corrupted_rows_count_as_failed(tmp_path):
    plan, blobs = _outputs("mc-check", 3, tmp_path)
    mc_column = 1 + len(workloads.ENVS)  # p_cov_mc of the first environment
    assert _failed(plan, {"mc.csv": _edit_row(blobs["mc.csv"], 7, mc_column, "0.999")}) == 1
    assert _failed(plan, {"mc.csv": _edit_row(blobs["mc.csv"], 7, 0, "x")}) == 1
    dropped = blobs["mc.csv"].decode().rsplit("\n", 2)[0] + "\n"
    assert _failed(plan, {"mc.csv": dropped.encode()}) == 1

    plan, blobs = _outputs("planner-grid", 3, tmp_path)
    bad = {**blobs, "optimize.csv": _edit_row(blobs["optimize.csv"], 0, 2, "1.5")}
    assert _failed(plan, bad) == 1


def test_scenario_summary_and_config_tampering_count_as_failed(tmp_path):
    plan, blobs = _outputs("scenario-area", 3, tmp_path)
    text = blobs["scenario.csv"].decode()
    assert _failed(plan, blobs) == 0
    summary = re.search(r'"mean_p_cov": ([0-9.e-]+)', text).group(1)
    off = text.replace(f'"mean_p_cov": {summary}', '"mean_p_cov": 0.01', 1)
    assert _failed(plan, {"scenario.csv": off.encode()}) == 1
    seed = text.replace('"seed":3', '"seed":4', 1)
    assert _failed(plan, {"scenario.csv": seed.encode()}) == 1


def test_bytes_differing_within_a_run_and_bad_exit_count_as_failed(tmp_path):
    plan, blobs = _outputs("mc-check", 3, tmp_path)
    inv = plan.invocations[0]
    oracle = run.Oracle(None)
    oracle.record(inv, 0, blobs)
    oracle.record(inv, 0, {"mc.csv": blobs["mc.csv"].replace(b"\n", b"\n\n", 1)})
    oracle.record(inv, 1, blobs)
    assert (oracle.attempted, oracle.failed) == (3, 2)


def test_steadiness_verdicts():
    metric = {"name": "wall_s", "better": "lower", "bound": 0.1}
    steady = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert steadiness.compare(steady, steady, metric)["agree"]
    slower = [v * 1.2 for v in steady]
    assert not steadiness.compare(steady, slower, metric)["agree"]
    assert not steadiness.compare(slower, steady, metric)["agree"]  # a move either way
    assert steadiness.compare(steady, [v * 1.05 for v in steady], metric)["agree"]
    noisy = [0.5, 1.0, 1.5, 1.0, 0.7]
    assert not steadiness.compare(noisy, noisy, metric)["agree"]
    assert steadiness.compare(noisy, noisy, {**metric, "name": "setup_s"})["agree"]
    faster = {"name": "work_per_s", "better": "higher", "bound": 0.1}
    assert not steadiness.compare(steady, [v * 0.8 for v in steady], faster)["agree"]
