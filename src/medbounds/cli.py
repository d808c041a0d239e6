"""Batch command-line front end.

Subcommands: fit, effects, bounds, curve, simulate, validate. A JSON config
file carries the column mapping, the two model designs, contrasts and
output options; command-line flags override config fields. Exit codes:
0 success, 1 user error, 2 numerical failure, 3 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
import warnings

import numpy as np

from .bounds import effect_bounds
from .effects import Contrast, point_effects, predictor_bundle
from .errors import IngestionError, MedboundsError, MissingVariableError
from .glm import (
    Dataset,
    Point,
    fit_logistic,
    load_csv,
    model_from_dict,
    model_to_dict,
    parse_design,
)
from .scm import StructuralModel, demo_cohort_scm, sample_dataset
from .uncertainty import bound_covariance, uncertainty_intervals
from .validate import run_validation

EXIT_OK = 0
EXIT_USER = 1
EXIT_NUMERIC = 2
EXIT_VALIDATION = 3

DEFAULT_ALPHA = 0.05
DEFAULT_X_STAR = 10.0


class UserError(MedboundsError):
    """Configuration or invocation problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UserError(message)


# --------------------------------------------------------------------------
# Config handling
# --------------------------------------------------------------------------


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UserError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UserError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise UserError("config must be a JSON object")
    return cfg


def _columns(cfg: dict) -> dict:
    cols = cfg.get("columns")
    if not cols:
        raise UserError("config needs a 'columns' mapping (outcome/mediator/exposure)")
    for key in ("outcome", "mediator", "exposure"):
        if key not in cols:
            raise UserError(f"columns mapping lacks '{key}'")
    cols.setdefault("covariates", [])
    return cols


def _read_data(cfg: dict, args) -> Dataset:
    path = args.data or cfg.get("data")
    if not path:
        raise UserError("no data file given (use --data or the config 'data' field)")
    cols = _columns(cfg)
    return load_csv(
        path,
        outcome=cols["outcome"],
        mediator=cols["mediator"],
        exposure=cols["exposure"],
        covariates=cols["covariates"],
    )


def _designs(cfg: dict):
    try:
        outcome = parse_design(cfg["outcome_design"])
        mediator = parse_design(cfg["mediator_design"])
    except KeyError as exc:
        raise UserError(f"config lacks {exc} design") from None
    except ValueError as exc:
        raise UserError(f"bad design: {exc}") from None
    if mediator.includes_mediator:
        raise UserError("mediator_design must not reference the mediator 'm'")
    return outcome, mediator


def _number(value, what: str) -> float:
    """A JSON or flag value that must be a finite number, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise UserError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _contrasts(cfg: dict) -> dict:
    spec = cfg.get("contrasts", {})
    if not isinstance(spec, dict):
        raise UserError("config 'contrasts' must be an object")
    return spec


def _alpha(cfg: dict, args) -> float:
    alpha = _number(args.alpha if args.alpha is not None else cfg.get("alpha", DEFAULT_ALPHA), "alpha")
    if not 0.0 < alpha < 1.0:
        raise UserError(f"alpha must be in (0, 1), got {alpha}")
    return alpha


def _parse_profile_flags(pairs) -> dict:
    profile = {}
    for item in pairs or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise UserError(f"--profile expects key=val, got {item!r}")
        try:
            profile[key.strip()] = _number(float(val), f"--profile value for {key!r}")
        except ValueError:
            raise UserError(f"--profile value for {key!r} is not a number") from None
    return profile


def _x_values(cfg: dict, args) -> list[float]:
    if args.x:
        return [_number(v, "--x") for v in args.x]
    spec = _contrasts(cfg).get("x")
    if spec is None:
        raise UserError("no active exposure levels given (use --x or config contrasts.x)")
    if isinstance(spec, dict):
        try:
            lo, hi = _number(spec["from"], "contrasts.x 'from'"), _number(spec["to"], "contrasts.x 'to'")
        except KeyError as exc:
            raise UserError(f"contrasts.x range lacks {exc}") from None
        step = _number(spec.get("step", 1.0), "contrasts.x 'step'")
        count = (hi - lo) / step if step else math.nan
        if not 0.0 <= count < math.inf:
            raise UserError(f"contrasts.x step {step:g} does not lead from {lo:g} to {hi:g}")
        return [lo + step * k for k in range(int(round(count)) + 1)]
    if not isinstance(spec, list):
        raise UserError("contrasts.x must be a list of levels or a {from, to, step} range")
    return [_number(v, "contrasts.x level") for v in spec]


def _x_star(cfg: dict, args) -> float:
    if args.x_star is not None:
        return _number(args.x_star, "--x-star")
    return _number(_contrasts(cfg).get("x_star", DEFAULT_X_STAR), "contrasts.x_star")


def _profiles(cfg: dict, args, data: Dataset | None) -> list[dict]:
    flag_profile = _parse_profile_flags(args.profile)
    if flag_profile:
        return [flag_profile]
    profiles = _contrasts(cfg).get("profiles")
    if profiles:
        if not isinstance(profiles, list) or not all(isinstance(p, dict) for p in profiles):
            raise UserError("contrasts.profiles must be a list of objects")
        return [{k: _number(v, f"profile value for {k!r}") for k, v in p.items()} for p in profiles]
    if data is None and (args.data or cfg.get("data")):
        data = _read_data(cfg, args)
    if data is None:
        raise UserError("no covariate profiles given (use --profile or config contrasts.profiles)")
    return _default_profiles(data)


def _default_profiles(data: Dataset) -> list[dict]:
    """One profile per level combination of the 0/1 covariates that occurs in
    the data, with every other covariate at its mean within that cell."""
    covs = data.covariates
    binary = [k for k, v in covs.items() if np.isin(v, (0.0, 1.0)).all()]
    out = []
    for levels in itertools.product((0.0, 1.0), repeat=len(binary)):
        cell = np.ones(data.n, dtype=bool)
        for k, level in zip(binary, levels):
            cell &= covs[k] == level
        if cell.any():
            means = {k: float(v[cell].mean()) for k, v in covs.items() if k not in binary}
            out.append({**dict(zip(binary, levels)), **means})
    return out


# --------------------------------------------------------------------------
# Output helpers
# --------------------------------------------------------------------------


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_field(text: str) -> str:
    """One field as csv.writer writes it within a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _float_width(col) -> int:
    """Width of the widest "%.6f" cell of a float column, found from a few cells.

    A cell grows with |value|, and a set sign bit (-0.0 too) adds a '-', so
    the widest cell is the largest magnitude of either sign or a non-finite one.
    """
    a = np.array(col, dtype=float)
    finite = np.isfinite(a)
    negative = finite & np.signbit(a)
    sides = [a[m][np.abs(a[m]).argmax()] for m in (negative, finite & ~negative) if m.any()]
    return max(len("%.6f" % v) for v in [*np.unique(a[~finite]), *sides])


def _render(table: dict, fmt: str) -> str:
    """Format a column table (header -> list of cells, all of one length):
    float columns to 6 decimals in text and CSV, full precision in JSON.

    Text and CSV fill one row template with a single %-format over all
    cells, so no per-cell string is built in Python.
    """
    n = len(next(iter(table.values())))
    if not n:
        return ""
    if fmt == "json":
        rows = [dict(zip(table, row)) for row in zip(*table.values())]
        return json.dumps(rows, indent=1, sort_keys=True) + "\n"
    floats = [isinstance(col[0], float) for col in table.values()]
    cols = [col if f else list(map(str, col)) for col, f in zip(table.values(), floats)]
    if fmt == "csv":
        quoted = {text: _csv_field(text) for col, f in zip(cols, floats) if not f for text in set(col)}
        cols = [col if f else [quoted[text] for text in col] for col, f in zip(cols, floats)]
        header = ",".join(map(_csv_field, table))
        row = ",".join("%.6f" if f else "%s" for f in floats)
    else:
        widths = [
            max(len(name), _float_width(col) if f else max(map(len, col)))
            for name, col, f in zip(table, cols, floats)
        ]
        header = "  ".join(name.rjust(w) for name, w in zip(table, widths))
        row = "  ".join(f"%{w}.6f" if f else f"%{w}s" for w, f in zip(widths, floats))
    return header + "\n" + ((row + "\n") * n) % tuple(itertools.chain.from_iterable(zip(*cols)))


def _fmt(cfg: dict, args) -> str:
    fmt = args.format or cfg.get("format", "table")
    if fmt not in ("table", "csv", "json"):
        raise UserError(f"unknown format {fmt!r}")
    return fmt


def _profile_label(profile: dict) -> str:
    return ",".join(f"{k}={profile[k]:g}" for k in sorted(profile))


def _check_profiles(models, labelled, x_star: float) -> None:
    """Name the profile and the covariate when a profile lacks one a design reads."""
    for profile, label in labelled:
        point = Point(x_star, 0.0, profile)
        for model in models:
            try:
                model.design.row(point)
            except MissingVariableError as exc:
                if exc.variable is None:
                    raise
                raise UserError(f"profile {label} lacks covariate '{exc.variable}'") from None


# --------------------------------------------------------------------------
# Model acquisition
# --------------------------------------------------------------------------


def _models_from_file(path):
    try:
        with open(path) as fh:
            payload = json.load(fh)
        return model_from_dict(payload["outcome"]), model_from_dict(payload["mediator"])
    except OSError as exc:
        raise UserError(f"cannot read models file: {exc}") from None
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise UserError(f"bad models file {path}: {exc}") from None


def _fit_models(cfg: dict, data: Dataset):
    outcome_design, mediator_design = _designs(cfg)
    return (
        fit_logistic(data, outcome_design, role="outcome"),
        fit_logistic(data, mediator_design, role="mediator"),
    )


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_fit(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    if not cfg:
        raise UserError("fit requires --config with designs and a column mapping")
    outcome, mediator = _fit_models(cfg, _read_data(cfg, args))

    est = mediator.coefficients.tolist() + outcome.coefficients.tolist()
    se = mediator.stderr.tolist() + outcome.stderr.tolist()
    table = {
        "model": ["mediator"] * len(mediator.design.names) + ["outcome"] * len(outcome.design.names),
        "term": mediator.design.names + outcome.design.names,
        "est.": est,
        "s.e.": se,
        "p-value": [math.erfc(abs(b / s if s > 0 else math.inf) / math.sqrt(2.0)) for b, s in zip(est, se)],
    }
    sys.stdout.write(_render(table, _fmt(cfg, args)))

    out = args.out or cfg.get("out")
    if out:
        payload = {
            "columns": _columns(cfg),
            "outcome": model_to_dict(outcome, cfg["outcome_design"]),
            "mediator": model_to_dict(mediator, cfg["mediator_design"]),
        }
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def _check_support(models, xs: list[float], x_star: float) -> None:
    """Warn once, naming every exposure level outside some model's observed range;
    more than three active levels on one side are named by count and extremes."""
    ranges = [model.exposure_range for model in models if model.exposure_range is not None]
    if not ranges:
        return
    lo, hi = max(r[0] for r in ranges), min(r[1] for r in ranges)
    named = [f"x* = {x_star:g}"] if not lo <= x_star <= hi else []
    levels = sorted(set(xs))
    for side in ([x for x in levels if x < lo], [x for x in levels if x > hi]):
        if len(side) > 3:
            named.append(f"x = {len(side)} levels from {side[0]:g} to {side[-1]:g}")
        elif side:
            named.append("x = " + ", ".join(f"{x:g}" for x in side))
    if named:
        warnings.warn(
            f"exposure levels outside the observed exposure range [{lo:g}, {hi:g}]: "
            + "; ".join(named)
        )


def _contrast_inputs(args, x_major: bool):
    """Config, both models, contrasts and their key columns of an ``effects``,
    ``bounds`` or ``curve`` run: one contrast per (active level, profile), in
    x-major or profile-major order."""
    cfg = load_config(args.config) if args.config else {}
    data = None if args.models else _read_data(cfg, args)
    outcome, mediator = _models_from_file(args.models) if args.models else _fit_models(cfg, data)
    xs = _x_values(cfg, args)
    x_star = _x_star(cfg, args)
    _check_support((outcome, mediator), xs, x_star)
    labelled = [(p, _profile_label(p)) for p in _profiles(cfg, args, data)]
    _check_profiles((outcome, mediator), labelled, x_star)
    grid = [(x, pl) for x in xs for pl in labelled] if x_major else [(x, pl) for pl in labelled for x in xs]
    keys = {
        "x": [x for x, _ in grid],
        "x_star": [x_star] * len(grid),
        "profile": [label for _, (_, label) in grid],
    }
    return cfg, outcome, mediator, [Contrast(x, x_star, p) for x, (p, _) in grid], keys


def cmd_effects(args) -> int:
    cfg, outcome, mediator, contrasts, keys = _contrast_inputs(args, x_major=False)
    pt = point_effects(predictor_bundle(outcome, mediator, contrasts))
    table = {**keys, "nde": pt.nde.tolist(), "nie": pt.nie.tolist(), "te": pt.te.tolist()}
    _emit(_render(table, _fmt(cfg, args)), args)
    return EXIT_OK


def _bounds_like(args) -> int:
    """The ``bounds`` and ``curve`` commands: every contrast evaluated in one batch."""
    cfg, outcome, mediator, contrasts, table = _contrast_inputs(args, x_major=True)
    alpha = _alpha(cfg, args)
    bundle = predictor_bundle(outcome, mediator, contrasts)
    eb = effect_bounds(bundle)
    ui = uncertainty_intervals(eb, bound_covariance(bundle), alpha)
    for name in ("nde", "nie", "te"):
        bound, interval = getattr(eb, name), getattr(ui, name)
        ends = (getattr(eb.point, name), bound.lower, bound.upper, interval.lower, interval.upper)
        for suffix, v in zip(("", "_lo", "_hi", "_ui_lo", "_ui_hi"), ends):
            table[name + suffix] = v.tolist()
    _emit(_render(table, _fmt(cfg, args)), args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    scm = StructuralModel.load(args.scm) if args.scm else demo_cohort_scm()
    n = args.n
    if n < 1:
        raise UserError("--n must be at least 1")
    data = sample_dataset(scm, n, args.seed)
    cols = ["y", "m", "x", *data.covariates]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    cov_arrays = list(data.covariates.values())
    for i in range(data.n):
        writer.writerow(
            [int(data.outcome[i]), int(data.mediator[i]), f"{data.exposure[i]:g}"]
            + [f"{arr[i]:g}" for arr in cov_arrays]
        )
    _emit(buf.getvalue(), args)
    return EXIT_OK


def cmd_validate(args) -> int:
    report = run_validation(
        seed=args.seed,
        coverage_replicates=args.replicates,
        coverage_n=args.coverage_n,
    )
    text = report.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK if report.passed else EXIT_VALIDATION


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="medbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--data", help="CSV data file (overrides config)")
        p.add_argument("--models", help="models JSON written by 'fit' (skips refitting)")
        p.add_argument("--x", action="append", type=float, help="active exposure level (repeatable)")
        p.add_argument("--x-star", dest="x_star", type=float, help="reference exposure level")
        p.add_argument("--profile", action="append", help="covariate value as key=val (repeatable)")
        p.add_argument("--format", choices=("table", "csv", "json"))
        p.add_argument("--out", help="write output to this file instead of stdout")

    p_fit = sub.add_parser("fit", help="fit both logistic models, print coefficient tables")
    p_fit.add_argument("--config", required=False)
    p_fit.add_argument("--data")
    p_fit.add_argument("--format", choices=("table", "csv", "json"))
    p_fit.add_argument("--out", help="write a reusable models JSON here")
    p_fit.set_defaults(fn=cmd_fit)

    p_eff = sub.add_parser("effects", help="point estimates of NDE/NIE/TE")
    common(p_eff)
    p_eff.set_defaults(fn=cmd_effects)

    p_bounds = sub.add_parser("bounds", help="identification bounds and uncertainty intervals")
    p_curve = sub.add_parser("curve", help="bounds over an exposure grid (plot-ready rows)")
    for p in (p_bounds, p_curve):
        common(p)
        p.add_argument("--alpha", type=float, help="uncertainty level (default 0.05)")
        p.set_defaults(fn=_bounds_like)

    p_sim = sub.add_parser("simulate", help="draw a synthetic dataset from a structural model")
    p_sim.add_argument("--scm", help="structural model JSON (default: bundled demo cohort)")
    p_sim.add_argument("--n", type=int, default=3270)
    p_sim.add_argument("--seed", type=int, default=20240801)
    p_sim.add_argument("--out", help="CSV path (default stdout)")
    p_sim.set_defaults(fn=cmd_simulate)

    p_val = sub.add_parser("validate", help="run the oracle self-check suite")
    p_val.add_argument("--seed", type=int, default=20240801)
    p_val.add_argument("--replicates", type=int, default=200, help="coverage replicates")
    p_val.add_argument("--coverage-n", dest="coverage_n", type=int, default=2000)
    p_val.add_argument("--out", help="also write the report to this file")
    p_val.set_defaults(fn=cmd_validate)

    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """A warning as one stderr line that names no source file or line."""
    return f"warning: {category.__name__}: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    # formatwarning, not showwarning: a caller's recorder (catch_warnings(record=True),
    # pytest.warns) still receives every warning; catch_warnings does not restore it
    default_format, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (UserError, IngestionError, MissingVariableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except (MedboundsError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        warnings.formatwarning = default_format


if __name__ == "__main__":
    sys.exit(main())
