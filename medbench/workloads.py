"""The two benchmark workloads: inputs, one task, and its output checks.

The CLI workload's task is a list of ``medbounds.cli`` argument vectors run in
order; the runner executes each in a fresh ``python -m medbounds.cli``
process (untraced) or through ``medbounds.cli.main`` in-process (traced).
The library workload's task is a direct call into the package.
"""

from __future__ import annotations

import contextlib
import io
import os
import warnings

import numpy as np

import medbounds as mb
import medbounds.cli

import checks
import inputs

FULL = {"large_n": 250_000, "dense_step": 0.064, "sweep_points": 100_001, "bundles_per_task": 8}
TINY = {"large_n": 20_000, "dense_step": 1.6, "sweep_points": 1_001, "bundles_per_task": 2}
COHORT_N = 3270
BLANK_FRAC = 0.01
X_STAR = 10.0
ALPHA = 0.05
COHORT_GRID = {"from": 20, "to": 170, "step": 10}


class Workload:
    name = ""
    result_rows = 0  # contrast rows the task emits (the calls_per_row base)
    items = 0  # work units one task completes, for items_per_s
    injected = 0  # blank cells the set-up wrote into the CSV the task loads

    def __init__(self, work_dir: str, seed: int, size: dict):
        self.dir = work_dir
        self.seed = seed
        self.size = size
        self.inputs: dict[str, str] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def setup(self) -> None:
        """Write every input file; called repeatedly, each call rewrites the same bytes."""
        raise NotImplementedError

    def hashes(self) -> dict:
        return {name: inputs.sha256(p) for name, p in sorted(self.inputs.items())}

    def argvs(self, task: int) -> list[list[str]]:
        """CLI argument vectors of one task (empty for a library workload)."""
        return []

    def library_steps(self, task: int) -> list:
        """Zero-argument calls that make up one library task, timed one by one."""
        raise NotImplementedError

    def check(self, task: int, result) -> list[str]:
        raise NotImplementedError

    def grid_contrasts(self, grid: dict) -> list:
        """Contrasts of a ``curve`` run on ``grid``, in output order (x-major)."""
        count = int(round((grid["to"] - grid["from"]) / grid["step"]))
        xs = [float(grid["from"]) + float(grid["step"]) * k for k in range(count + 1)]
        return [mb.Contrast(x, X_STAR, p) for x in xs for p in self.profiles]

    def rng(self, task: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, 2, task])


def _exit_failures(result) -> list[str]:
    return [f"medbounds {o.argv[0]} exited {o.code}: {o.stderr.strip()[-300:]}" for o in result if o.code]


class FitCurve(Workload):
    name = "fit_curve"
    _rows = None  # complete CSV rows parsed for the score check; the bytes never change

    def setup(self):
        n = self.size["large_n"]
        table = inputs.cohort_table(n, self.seed)
        blanks = inputs.blank_cells(n, self.seed, BLANK_FRAC)
        self.injected = len(blanks[0])
        self.inputs["large.csv"] = self.path("large.csv")
        inputs.write_csv(self.inputs["large.csv"], table, blanks)
        # profiles are given in the config, so `curve` reads models.json and not the CSV
        self.profiles = inputs.gender_profiles(table)
        grid = {"from": 10, "to": 170, "step": self.size["dense_step"]}
        self.inputs["config.json"] = self.path("config.json")
        inputs.write_config(
            self.inputs["config.json"], self.inputs["large.csv"],
            {"x": grid, "x_star": X_STAR, "profiles": self.profiles},
        )
        self.contrasts = self.grid_contrasts(grid)
        self.result_rows = self.items = len(self.contrasts)

    def argvs(self, task):
        cfg, models = self.inputs["config.json"], self.path("task_models.json")
        return [
            ["fit", "--config", cfg, "--out", models],
            ["curve", "--config", cfg, "--models", models, "--format", "csv", "--out", self.path("task_curve.csv")],
        ]

    def check(self, task, result):
        fails = _exit_failures(result)
        if fails:
            return fails
        if self._rows is None:
            self._rows = checks.complete_rows(self.inputs["large.csv"])
        if len(self._rows[1]) != self.size["large_n"] - self.injected:
            return [f"{len(self._rows[1])} complete rows in the CSV, expected {self.size['large_n'] - self.injected}"]
        models_path = self.path("task_models.json")
        fails = checks.check_fit(result[0].stderr, models_path, self._rows, self.injected)
        with open(self.path("task_curve.csv")) as fh:
            fails += checks.check_rows(fh.read(), self.contrasts, checks.load_models(models_path), ALPHA, self.rng(task))
        return fails


class Sensitivity(Workload):
    name = "sensitivity"

    def setup(self):
        """Demo-cohort CSV and config, then models.json from ``fit`` in-process."""
        table = inputs.cohort_table(COHORT_N, self.seed)
        self.inputs["cohort.csv"] = self.path("cohort.csv")
        inputs.write_csv(self.inputs["cohort.csv"], table)
        self.inputs["config.json"] = self.path("config.json")
        inputs.write_config(self.inputs["config.json"], self.inputs["cohort.csv"], {"x": COHORT_GRID, "x_star": X_STAR})
        self.inputs["models.json"] = self.path("models.json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = medbounds.cli.main(["fit", "--config", self.inputs["config.json"], "--out", self.inputs["models.json"]])
        if code != 0:
            raise RuntimeError(f"set-up fit exited with {code}")
        self.profiles = inputs.gender_profiles(table)
        outcome, mediator = checks.load_models(self.inputs["models.json"])
        self.bundles = [mb.predictor_bundle(outcome, mediator, c) for c in self.grid_contrasts(COHORT_GRID)]
        self.points = self.size["sweep_points"]
        self.shifts = np.linspace(-30.0, 30.0, self.points)
        self.items = self.size["bundles_per_task"]

    def library_steps(self, task):
        """One step per bundle of the next ``items`` in the cycle; each returns (bundle, swept, curve)."""
        bundles = [self.bundles[j % len(self.bundles)] for j in range(task * self.items, (task + 1) * self.items)]
        return [lambda b=b: self.sweep_and_trace(b) for b in bundles]

    def sweep_and_trace(self, bundle):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return bundle, mb.sweep_bounds(bundle, points=self.points), mb.sensitivity_curve(bundle, self.shifts)

    def check(self, task, result):
        return [f for r in result for f in checks.check_sensitivity(*r)]


WORKLOADS = {w.name: w for w in (FitCurve, Sensitivity)}
