"""Span tracing around calls into medbounds' public functions, from outside.

``Tracer`` replaces each target function on every ``medbounds`` module
attribute that refers to it, so calls through a re-export or a
``from .x import f`` name are seen, nested calls included (for example
``effect_bounds`` inside ``bound_covariance``). Spans (name, start, end,
parent, task) stay in memory until the run writes them out. The program
itself is not modified.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import defaultdict

TARGETS = (
    ("medbounds.cli", "main", "cli.main"),
    ("medbounds.glm", "load_csv", "glm.load_csv"),
    ("medbounds.glm", "fit_logistic", "glm.fit_logistic"),
    ("medbounds.effects", "predictor_bundle", "effects.predictor_bundle"),
    ("medbounds.effects", "point_effects", "effects.point_effects"),
    ("medbounds.bounds", "effect_bounds", "bounds.effect_bounds"),
    ("medbounds.uncertainty", "bound_covariance", "uncertainty.bound_covariance"),
    ("medbounds.uncertainty", "uncertainty_intervals", "uncertainty.uncertainty_intervals"),
    ("medbounds.scm", "sweep_bounds", "scm.sweep_bounds"),
    ("medbounds.bounds", "sensitivity_curve", "bounds.sensitivity_curve"),
)
CONTRAST = (
    "effects.predictor_bundle",
    "effects.point_effects",
    "bounds.effect_bounds",
    "uncertainty.bound_covariance",
    "uncertainty.uncertainty_intervals",
)
INGEST_FIT = ("glm.load_csv", "glm.fit_logistic.outcome", "glm.fit_logistic.mediator")
ORACLE = ("scm.sweep_bounds", "bounds.sensitivity_curve")
GROUPS = {"ingest_fit": INGEST_FIT, "contrast": CONTRAST, "oracle": ORACLE}

PER_LAYER = (
    [
        ("cli.import_s", "s"),
        ("medbounds.import_s", "s"),
        ("glm.load_csv.busy_s", "s"),
        ("glm.load_csv.rows_per_s", "1/s"),
        ("glm.load_csv.rows_dropped", "count"),
        ("glm.fit_logistic.outcome.busy_s", "s"),
        ("glm.fit_logistic.mediator.busy_s", "s"),
        ("glm.fit_logistic.outcome.iterations", "count"),
        ("glm.fit_logistic.mediator.iterations", "count"),
    ]
    + [(f"{f}.{m}", u) for f in CONTRAST for m, u in (("us_per_call", "us"), ("calls_per_row", "calls/row"))]
    + [
        ("cli.main.self_s", "s"),
        ("scm.sweep_bounds.ms_per_call", "ms"),
        ("scm.sweep_bounds.points_per_s", "1/s"),
        ("bounds.sensitivity_curve.ms_per_call", "ms"),
        ("trace.overhead_frac", "frac"),
        ("share.startup", "frac"),
        ("share.ingest_fit", "frac"),
        ("share.contrast", "frac"),
        ("share.oracle", "frac"),
        ("share.other", "frac"),
    ]
)


class Tracer:
    """Records spans while installed; ``task`` tags the spans of one task."""

    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(list)  # (name, task) -> values recorded at that boundary
        self.task = -1
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        signature = inspect.signature(fn) if name == "glm.fit_logistic" else None

        def traced(*args, **kwargs):
            label = name
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                label = f"{name}.{bound.arguments['role']}"
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.task)
            if signature is not None:
                counts[(label + ".iterations", self.task)].append(result.report.iterations)
            elif name == "glm.load_csv":
                counts[("glm.load_csv.rows", self.task)].append((str(args[0]), result.n))
            return result

        return traced

    def __enter__(self):
        modules = [m for k, m in list(sys.modules.items()) if k == "medbounds" or k.startswith("medbounds.")]
        for modname, attr, name in TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
        return False

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,task\n")
            for name, start, end, parent, task in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{task}\n")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, task_walls, untraced_walls, imports, file_rows, result_rows, cli_calls, sweep_points):
    """Per-layer metrics from the spans of the traced tasks.

    ``task_walls`` maps traced task id -> wall time; ``untraced_walls`` lists
    the in-process walls of the interleaved untraced tasks. ``file_rows``
    maps a CSV path to its data-row count. ``result_rows`` and ``cli_calls``
    are per task. Timings are medians over tasks; per-call figures pool all
    calls.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start

    def outermost(i, group):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] in group:
                return False
            parent = spans[parent][3]
        return True

    tasks = sorted(task_walls)
    incl = defaultdict(float)  # (name, task) -> inclusive seconds
    self_s = defaultdict(float)
    calls = defaultdict(int)  # name -> calls over all traced tasks
    total = defaultdict(float)  # name -> inclusive seconds over all traced tasks
    grouped = defaultdict(float)  # (group, task) -> seconds in outermost spans
    for i, (name, start, end, parent, task) in enumerate(spans):
        incl[(name, task)] += end - start
        self_s[(name, task)] += end - start - child[i]
        calls[name] += 1
        total[name] += end - start
        for group, names in GROUPS.items():
            if name in names and outermost(i, names):
                grouped[(group, task)] += end - start

    def per_task(table, name):
        return _median([table[(name, t)] for t in tasks])

    loads = [(t, path, n) for t in tasks for path, n in tracer.counts[("glm.load_csv.rows", t)]]
    m = {
        "cli.import_s": imports["medbounds.cli"],
        "medbounds.import_s": imports["medbounds"],
        "glm.load_csv.busy_s": per_task(incl, "glm.load_csv"),
        "glm.load_csv.rows_per_s": _ratio(sum(file_rows[p] for _, p, _ in loads), total["glm.load_csv"]),
        "glm.load_csv.rows_dropped": _median(
            [sum(file_rows[p] - n for u, p, n in loads if u == t) for t in tasks]
        ),
        "cli.main.self_s": per_task(self_s, "cli.main"),
        "scm.sweep_bounds.ms_per_call": 1e3 * _ratio(total["scm.sweep_bounds"], calls["scm.sweep_bounds"]),
        "scm.sweep_bounds.points_per_s": _ratio(
            3 * sweep_points * calls["scm.sweep_bounds"], total["scm.sweep_bounds"]
        ),
        "bounds.sensitivity_curve.ms_per_call": 1e3
        * _ratio(total["bounds.sensitivity_curve"], calls["bounds.sensitivity_curve"]),
        "trace.overhead_frac": _ratio(_median(list(task_walls.values())), _median(untraced_walls)) - 1.0,
    }
    for role in ("outcome", "mediator"):
        name = f"glm.fit_logistic.{role}"
        m[name + ".busy_s"] = per_task(incl, name)
        m[name + ".iterations"] = _median([v for t in tasks for v in tracer.counts[(name + ".iterations", t)]])
    rows = result_rows * len(tasks)
    for name in CONTRAST:
        m[name + ".us_per_call"] = 1e6 * _ratio(total[name], calls[name])
        m[name + ".calls_per_row"] = _ratio(calls[name], rows)

    startup = cli_calls * imports["medbounds.cli"]
    shares = defaultdict(list)
    for t in tasks:
        whole = startup + task_walls[t]
        parts = {"startup": startup, **{g: grouped[(g, t)] for g in GROUPS}}
        for key, value in parts.items():
            shares[key].append(value / whole)
        shares["other"].append(1.0 - sum(parts.values()) / whole)
    for key, values in shares.items():
        m["share." + key] = _median(values)
    return m
