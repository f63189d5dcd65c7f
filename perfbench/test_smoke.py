"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTED = ("sic.search.restarts", "sampling.draws", "sampling.interval.terms",
           "operators.validate.calls", "cli.invocations")


def bench(workload, trace, seed=3, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines, out.stderr


def result(workload, trace, seed=3):
    code, lines, stderr = bench(workload, trace, seed)
    assert code == 0, stderr
    data = json.loads(lines[-1])
    assert set(data) == {"correct", "attempted", "failed", "metrics"}
    assert data["attempted"] >= 1 and 0 <= data["failed"] <= data["attempted"]
    digest = next(line for line in lines if line.startswith("output digest"))
    return data, digest


def units(spec_metrics):
    return {m["name"]: m["unit"] for m in spec_metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    data, _ = result(workload, 0)
    assert {n: m["unit"] for n, m in data["metrics"].items()} == units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in data["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_and_digest_repeat(workload):
    first, digest_1 = result(workload, 1)
    second, digest_2 = result(workload, 1)
    assert {n: m["unit"] for n, m in first["metrics"].items()} == units(SPEC["per_layer"])
    for name in COUNTED:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["cli.invocations"]["value"] >= 1
    assert digest_1 == digest_2


def test_interval_defect_is_reported_apart_from_failures():
    code, lines, stderr = bench("experiments", 0)
    assert code == 0, stderr
    data = json.loads(lines[-1])
    assert data["failed"] == 0 and data["correct"] is True
    defects = [line for line in lines if line.startswith("KNOWN DEFECT interval n=100000")]
    assert any("0 <= K <= 100000" in line and "outside [0, 1]" in line for line in defects)
    traced, _ = result("experiments", 1)
    assert traced["metrics"]["sampling.interval.known_defects"]["value"] >= 1


def test_refuses_to_run_without_the_program():
    bare = HERE / ".smoke"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", ".smoke", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, lines, _ = bench(WORKLOADS[0], 0, cwd=bare)
        assert code != 0
        assert not lines
    finally:
        shutil.rmtree(bare, ignore_errors=True)
