"""Output checks. Each returns a list of failure messages; empty means correct.

Result rows are compared with the library's scalar path (the same public
functions the CLI calls) and, for a few rows, with the grid-sweep oracle.
Fitted models are checked by recomputing the score X'(y - p) with plain
numpy from the CSV the benchmark wrote.
"""

from __future__ import annotations

import csv
import io
import json
import re
import warnings

import numpy as np

import medbounds as mb
from medbounds.glm import model_from_dict

EFFECTS = ("nde", "nie", "te")
PARTS = ("", "_lo", "_hi", "_ui_lo", "_ui_hi")
ROW_HEADER = ["x", "x_star", "profile"] + [e + p for e in EFFECTS for p in PARTS]
PRINT_TOL = 1e-6  # rows are printed with 6 decimals
SWEEP_TOL = 1e-5
SENSITIVITY_SWEEP_TOL = 1e-6
SHIFT_ZERO_TOL = 1e-12
SCORE_TOL = 1e-6  # max |X_j'(y - p)| / max |X_j| at the saved coefficients
N_LIBRARY_ROWS = 8  # seeded rows compared with the library scalar path
N_SWEEP_ROWS = 2  # of those, rows also compared with sweep_bounds
CHECK_SWEEP_POINTS = 100_001
MAX_MESSAGES = 5


def profile_label(profile: dict) -> str:
    return ",".join(f"{k}={profile[k]:g}" for k in sorted(profile))


def load_models(path):
    with open(path) as fh:
        payload = json.load(fh)
    return model_from_dict(payload["outcome"]), model_from_dict(payload["mediator"])


def library_row(outcome, mediator, contrast, alpha: float) -> dict:
    """Expected result row from the scalar library path."""
    bundle = mb.predictor_bundle(outcome, mediator, contrast)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eb = mb.effect_bounds(bundle)
        ui = mb.uncertainty_intervals(eb, mb.bound_covariance(bundle), alpha)
    row = {}
    for e in EFFECTS:
        bound, interval = getattr(eb, e), getattr(ui, e)
        row[e] = getattr(eb.point, e)
        row[e + "_lo"], row[e + "_hi"] = bound.lower, bound.upper
        row[e + "_ui_lo"], row[e + "_ui_hi"] = interval.lower, interval.upper
    return row


def check_rows(text, contrasts, models, alpha, rng):
    """Check CSV result rows against the expected contrasts, in CLI order.

    ``contrasts`` lists the expected ``mb.Contrast`` of every row. Checks the
    shape, the key columns, lo <= point <= hi <= ui_hi with ui_lo <= lo for
    every effect, te = nde + nie, ``N_LIBRARY_ROWS`` seeded rows against the
    library and ``N_SWEEP_ROWS`` of those against ``sweep_bounds``.
    """
    lines = list(csv.reader(io.StringIO(text)))
    if not lines or lines[0] != ROW_HEADER:
        return [f"header {lines[0] if lines else None} != {ROW_HEADER}"]
    rows = lines[1:]
    if len(rows) != len(contrasts):
        return [f"{len(rows)} rows, expected {len(contrasts)}"]
    bad = [i for i, r in enumerate(rows) if len(r) != len(ROW_HEADER)]
    if bad:
        return [f"rows {bad[:MAX_MESSAGES]} do not have {len(ROW_HEADER)} columns"]
    fails = []
    for i, (r, c) in enumerate(zip(rows, contrasts)):
        if (
            abs(float(r[0]) - c.active) > PRINT_TOL
            or abs(float(r[1]) - c.reference) > PRINT_TOL
            or r[2] != profile_label(dict(c.profile))
        ):
            fails.append(f"row {i}: key {r[:3]} != ({c.active}, {c.reference}, {dict(c.profile)})")
            if len(fails) >= MAX_MESSAGES:
                return fails
    vals = np.array([[float(v) for v in r[3:]] for r in rows])
    col = {name: vals[:, j] for j, name in enumerate(ROW_HEADER[3:])}
    for e in EFFECTS:
        # rounding to the printed digits is monotone, so the order must survive it
        ok = (
            (col[e + "_ui_lo"] <= col[e + "_lo"])
            & (col[e + "_lo"] <= col[e])
            & (col[e] <= col[e + "_hi"])
            & (col[e + "_hi"] <= col[e + "_ui_hi"])
        )
        for i in np.flatnonzero(~ok)[:MAX_MESSAGES]:
            fails.append(f"row {i}: {e} endpoints out of order")
    gap = np.abs(col["te"] - col["nde"] - col["nie"])
    for i in np.flatnonzero(gap > 1.5 * PRINT_TOL)[:MAX_MESSAGES]:
        fails.append(f"row {i}: te != nde + nie (gap {gap[i]:.3g})")

    outcome, mediator = models
    picks = rng.choice(len(rows), size=min(N_LIBRARY_ROWS, len(rows)), replace=False)
    for k, i in enumerate(picks):
        expected = library_row(outcome, mediator, contrasts[i], alpha)
        for name, want in expected.items():
            if abs(col[name][i] - want) > PRINT_TOL:
                fails.append(f"row {i}: {name} {col[name][i]} != library {want:.9f}")
        if k < N_SWEEP_ROWS:
            bundle = mb.predictor_bundle(outcome, mediator, contrasts[i])
            swept = mb.sweep_bounds(bundle, points=CHECK_SWEEP_POINTS)
            for e in EFFECTS:
                pair = getattr(swept, e)
                if max(abs(col[e + "_lo"][i] - pair.lower), abs(col[e + "_hi"][i] - pair.upper)) > SWEEP_TOL:
                    fails.append(f"row {i}: {e} bounds disagree with sweep_bounds")
    return fails[: 4 * MAX_MESSAGES]


def complete_rows(path) -> tuple[list[str], np.ndarray]:
    """Header and the rows without an empty cell, parsed with numpy."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        lines = [ln for ln in fh if ",," not in ln and not ln.startswith(",") and not ln.endswith(",\n")]
    return header, np.loadtxt(lines, delimiter=",", ndmin=2)


def score_norm(design: list[str], columns: dict, response: np.ndarray, coefficients) -> float:
    """max_j |X_j'(y - p)| / max |X_j| for a design of plain column terms."""
    n = len(response)
    X = np.column_stack([np.ones(n) if term == "1" else columns[term] for term in design])
    p = 1.0 / (1.0 + np.exp(-(X @ np.asarray(coefficients, dtype=float))))
    return float(np.max(np.abs(X.T @ (response - p)) / np.abs(X).max(axis=0)))


def check_fit(stderr: str, models_path, csv_rows, injected: int) -> list[str]:
    """Drop count on stderr equals the injected blanks; the score vanishes."""
    fails = []
    counts = [int(v) for v in re.findall(r"dropped (\d+) rows", stderr)]
    if counts != [injected]:
        fails.append(f"stderr drop counts {counts} != [{injected}]")
    with open(models_path) as fh:
        payload = json.load(fh)
    header, arr = csv_rows
    columns = {name: arr[:, j] for j, name in enumerate(header)}
    for role, response in (("outcome", "y"), ("mediator", "m")):
        model = payload[role]
        norm = score_norm(model["design"], columns, columns[response], model["coefficients"])
        if not norm <= SCORE_TOL:
            fails.append(f"{role} score norm {norm:.3g} > {SCORE_TOL}")
    return fails


def check_sensitivity(bundle, swept, curve) -> list[str]:
    """Sweep oracle equals the closed form; the curve at shift 0 equals the point."""
    fails = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        closed = mb.effect_bounds(bundle)
        point = mb.point_effects(bundle)
    for e in EFFECTS:
        a, b = getattr(swept, e), getattr(closed, e)
        err = max(abs(a.lower - b.lower), abs(a.upper - b.upper))
        if not err <= SENSITIVITY_SWEEP_TOL:
            fails.append(f"sweep_bounds {e} differs from effect_bounds by {err:.3g}")
    i0 = int(np.argmin(np.abs(curve.shifts)))
    for e in EFFECTS:
        err = abs(float(getattr(curve, e)[i0]) - getattr(point, e))
        if not err <= SHIFT_ZERO_TOL:
            fails.append(f"sensitivity_curve {e} at shift 0 differs from point_effects by {err:.3g}")
    return fails
