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
import json
import sys
import warnings

import numpy as np
from scipy.special import ndtr

from .bounds import effect_bounds
from .effects import Contrast, point_effects, predictor_bundle
from .errors import IngestionError, MedboundsError
from .glm import (
    Dataset,
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
        raise UserError(f"bad design term: {exc}") from None
    return outcome, mediator


def _alpha(cfg: dict, args) -> float:
    alpha = args.alpha if args.alpha is not None else cfg.get("alpha", DEFAULT_ALPHA)
    if not 0.0 < alpha < 1.0:
        raise UserError(f"alpha must be in (0, 1), got {alpha}")
    return float(alpha)


def _parse_profile_flags(pairs) -> dict:
    profile = {}
    for item in pairs or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise UserError(f"--profile expects key=val, got {item!r}")
        try:
            profile[key.strip()] = float(val)
        except ValueError:
            raise UserError(f"--profile value for {key!r} is not a number") from None
    return profile


def _x_values(cfg: dict, args) -> list[float]:
    if args.x:
        return [float(v) for v in args.x]
    spec = cfg.get("contrasts", {}).get("x")
    if spec is None:
        raise UserError("no active exposure levels given (use --x or config contrasts.x)")
    if isinstance(spec, dict):
        lo, hi = float(spec["from"]), float(spec["to"])
        step = float(spec.get("step", 1.0))
        count = int(round((hi - lo) / step))
        return [lo + step * k for k in range(count + 1)]
    return [float(v) for v in spec]


def _x_star(cfg: dict, args) -> float:
    if args.x_star is not None:
        return float(args.x_star)
    spec = cfg.get("contrasts", {}).get("x_star", DEFAULT_X_STAR)
    if isinstance(spec, (list, dict)):
        raise UserError("x_star must be a single number")
    return float(spec)


def _profiles(cfg: dict, args, data: Dataset | None) -> list[dict]:
    flag_profile = _parse_profile_flags(args.profile)
    if flag_profile:
        return [flag_profile]
    profiles = cfg.get("contrasts", {}).get("profiles")
    if profiles:
        return [dict(p) for p in profiles]
    if data is None and (args.data or cfg.get("data")):
        data = _read_data(cfg, args)
    if data is not None and "gender" in data.covariates and "bmi" in data.covariates:
        out = []
        for g in (0.0, 1.0):
            sel = data.covariates["gender"] == g
            if sel.any():
                out.append({"gender": g, "bmi": float(data.covariates["bmi"][sel].mean())})
        if out:
            return out
    raise UserError("no covariate profiles given (use --profile or config contrasts.profiles)")


# --------------------------------------------------------------------------
# Output helpers
# --------------------------------------------------------------------------


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_rows(rows: list[dict], fmt: str) -> str:
    if not rows:
        return ""
    headers = list(rows[0])
    if fmt == "json":
        return json.dumps(rows, indent=1, sort_keys=True) + "\n"
    cells = [
        [f"{v:.6f}" if isinstance(v, float) else str(v) for v in row.values()]
        for row in rows
    ]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(cells)
        return buf.getvalue()
    widths = [max(len(h), *(len(r[j]) for r in cells)) for j, h in enumerate(headers)]
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for r in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def _fmt(cfg: dict, args) -> str:
    fmt = args.format or cfg.get("format", "table")
    if fmt not in ("table", "csv", "json"):
        raise UserError(f"unknown format {fmt!r}")
    return fmt


def _profile_label(profile: dict) -> str:
    return ",".join(f"{k}={profile[k]:g}" for k in sorted(profile))


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


def _acquire_models(cfg: dict, args, data: Dataset | None):
    if args.models:
        return _models_from_file(args.models)
    if data is None:
        data = _read_data(cfg, args)
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
    data = _read_data(cfg, args)
    outcome_design, mediator_design = _designs(cfg)
    outcome = fit_logistic(data, outcome_design, role="outcome")
    mediator = fit_logistic(data, mediator_design, role="mediator")

    rows = []
    for label, model in (("mediator", mediator), ("outcome", outcome)):
        se = model.stderr
        for name, est, s in zip(model.design.names, model.coefficients, se):
            z = est / s if s > 0 else float("inf")
            rows.append(
                {
                    "model": label,
                    "term": name,
                    "est.": float(est),
                    "s.e.": float(s),
                    "p-value": float(2.0 * ndtr(-abs(z))),
                }
            )
    fmt = _fmt(cfg, args)
    text = _render_rows(rows, fmt)
    sys.stdout.write(text)

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


def _check_support(models, x_star: float) -> None:
    for model in models:
        if model.exposure_range is not None:
            lo, hi = model.exposure_range
            if not lo <= x_star <= hi:
                warnings.warn(
                    f"reference level {x_star:g} lies outside the observed exposure "
                    f"range [{lo:g}, {hi:g}]"
                )
                return


def _result_rows(contrasts: list[Contrast], columns: dict) -> list[dict]:
    """One output row per contrast: its key columns, then the named value arrays."""
    values = {name: v.tolist() for name, v in columns.items()}
    return [
        {
            "x": c.active,
            "x_star": c.reference,
            "profile": _profile_label(dict(c.profile)),
            **{name: column[i] for name, column in values.items()},
        }
        for i, c in enumerate(contrasts)
    ]


def cmd_effects(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    data = None if args.models else _read_data(cfg, args)
    outcome, mediator = _acquire_models(cfg, args, data)
    xs = _x_values(cfg, args)
    x_star = _x_star(cfg, args)
    profiles = _profiles(cfg, args, data)
    contrasts = [Contrast(x, x_star, profile) for profile in profiles for x in xs]
    pt = point_effects(predictor_bundle(outcome, mediator, contrasts))
    rows = _result_rows(contrasts, {"nde": pt.nde, "nie": pt.nie, "te": pt.te})
    _emit(_render_rows(rows, _fmt(cfg, args)), args)
    return EXIT_OK


def _bounds_like(args) -> int:
    """The ``bounds`` and ``curve`` commands: every contrast evaluated in one batch."""
    cfg = load_config(args.config) if args.config else {}
    data = None if args.models else _read_data(cfg, args)
    outcome, mediator = _acquire_models(cfg, args, data)
    xs = _x_values(cfg, args)
    x_star = _x_star(cfg, args)
    _check_support((outcome, mediator), x_star)
    profiles = _profiles(cfg, args, data)
    alpha = _alpha(cfg, args)
    contrasts = [Contrast(x, x_star, profile) for x in xs for profile in profiles]
    bundle = predictor_bundle(outcome, mediator, contrasts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eb = effect_bounds(bundle)
        ui = uncertainty_intervals(eb, bound_covariance(bundle), alpha)
    columns = {}
    for name in ("nde", "nie", "te"):
        bound, interval = getattr(eb, name), getattr(ui, name)
        columns[name] = getattr(eb.point, name)
        columns[name + "_lo"], columns[name + "_hi"] = bound.lower, bound.upper
        columns[name + "_ui_lo"], columns[name + "_ui_hi"] = interval.lower, interval.upper
    _emit(_render_rows(_result_rows(contrasts, columns), _fmt(cfg, args)), args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    scm = StructuralModel.load(args.scm) if args.scm else demo_cohort_scm()
    n = args.n
    if n < 1:
        raise UserError("--n must be at least 1")
    data = sample_dataset(scm, n, args.seed)
    cols = ["y", "m", "x", *data.covariates]
    out = args.out
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    cov_arrays = list(data.covariates.values())
    for i in range(data.n):
        writer.writerow(
            [int(data.outcome[i]), int(data.mediator[i]), f"{data.exposure[i]:g}"]
            + [f"{arr[i]:g}" for arr in cov_arrays]
        )
    if out:
        with open(out, "w") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
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

    def common(p, with_models=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--data", help="CSV data file (overrides config)")
        if with_models:
            p.add_argument("--models", help="models JSON written by 'fit' (skips refitting)")
        p.add_argument("--x", action="append", type=float, help="active exposure level (repeatable)")
        p.add_argument("--x-star", dest="x_star", type=float, help="reference exposure level")
        p.add_argument("--profile", action="append", help="covariate value as key=val (repeatable)")
        p.add_argument("--alpha", type=float, help="uncertainty level (default 0.05)")
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
    common(p_bounds)
    p_bounds.set_defaults(fn=_bounds_like)

    p_curve = sub.add_parser("curve", help="bounds over an exposure grid (plot-ready rows)")
    common(p_curve)
    p_curve.set_defaults(fn=_bounds_like)

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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except IngestionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except MedboundsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
