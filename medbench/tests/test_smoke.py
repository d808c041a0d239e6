"""Tiny-size smoke run: every workload emits every metric named in BENCHMARK.json.

Run from the repository root: ``python3 -m pytest medbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    argv = [sys.executable, script, "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_every_metric(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    report = json.loads(done.stdout.splitlines()[-2])
    assert report["inputs_sha256"] and report["failed_frac"] == 0.0
    assert {"git_sha", "python", "numpy", "scipy", "nproc", "blas_threads"} <= set(report["environment"])


def test_same_seed_same_input_bytes():
    hashes = [json.loads(run_bench("fit_curve", 0).stdout.splitlines()[-2])["inputs_sha256"] for _ in range(2)]
    assert hashes[0] == hashes[1]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "medbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = run_bench("fit_curve", 0, cwd=tmp_path, script=str(tmp_path / "medbench" / "run.py"))
    assert done.returncode != 0 and done.stdout == ""
