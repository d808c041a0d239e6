"""Fault injection: a corrupted output must make the run report failed tasks.

Each case runs the benchmark in-process at tiny size and corrupts what the
program wrote before the benchmark checks it.
"""

import csv
import json

import pytest

import run
import workloads
from conftest import ROOT


def rewrite_rows(path, edit):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    body = edit(header, body)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header] + body)


def shift(column, delta, row=0):
    def edit(header, body):
        j = header.index(column)
        for r in body if row is None else [body[row]]:
            r[j] = f"{float(r[j]) + delta:.6f}"
        return body

    return edit


def swap_nde_bounds(header, body):
    lo, hi = header.index("nde_lo"), header.index("nde_hi")
    body[3][lo], body[3][hi] = body[3][hi], body[3][lo]
    return body


ROW_FAULTS = {
    "te_off_by_0.01": shift("te", 0.01),
    "nde_bounds_swapped": swap_nde_bounds,
    "last_row_dropped": lambda header, body: body[:-1],
    "every_nie_ui_hi_up_1e-3": shift("nie_ui_hi", 1e-3, row=None),
}


def run_corrupted(monkeypatch, capsys, workload, corrupt):
    real = run.run_cli

    def corrupting(argv, *rest):
        result = real(argv, *rest)
        corrupt(argv)
        return result

    monkeypatch.setattr(run, "run_cli", corrupting)
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0.1", "--tiny"]) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("fault", sorted(ROW_FAULTS))
def test_perturbed_curve_row_fails(monkeypatch, capsys, fault):
    def corrupt(argv):
        if argv[0] == "curve":
            rewrite_rows(argv[argv.index("--out") + 1], ROW_FAULTS[fault])

    report, result = run_corrupted(monkeypatch, capsys, "fit_curve", corrupt)
    assert report["failed_frac"] > 0 and report["failures"]
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_perturbed_coefficient_fails(monkeypatch, capsys):
    def corrupt(argv):
        if argv[0] != "fit":
            return
        path = argv[argv.index("--out") + 1]
        with open(path) as fh:
            models = json.load(fh)
        models["outcome"]["coefficients"][1] += 1e-3
        with open(path, "w") as fh:
            json.dump(models, fh)

    report, result = run_corrupted(monkeypatch, capsys, "fit_curve", corrupt)
    assert report["failed_frac"] > 0
    assert any("outcome score" in f for f in report["failures"])


def test_perturbed_sweep_fails(monkeypatch, capsys):
    real = workloads.Sensitivity.sweep_and_trace

    def corrupting(self, bundle):
        result = real(self, bundle)
        curve = result[2]
        curve.nde[len(curve.nde) // 2] += 1e-9
        return result

    monkeypatch.setattr(workloads.Sensitivity, "sweep_and_trace", corrupting)
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "sensitivity", "--seed", "5", "--seconds", "0.1", "--tiny"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-2])
    assert report["failed_frac"] > 0


def test_traced_drop_count_mismatch_fails(monkeypatch, capsys):
    real = workloads.FitCurve.setup

    def miscounting(self):
        real(self)
        self.injected += 1

    monkeypatch.setattr(workloads.FitCurve, "setup", miscounting)
    monkeypatch.chdir(ROOT)
    argv = ["--workload", "fit_curve", "--seed", "5", "--seconds", "0.1", "--trace", "1", "--tiny"]
    assert run.main(argv) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-2])
    assert report["failed_frac"] > 0
    assert any("load_csv dropped" in f for f in report["failures"])
