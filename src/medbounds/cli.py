"""Batch command-line front end.

Subcommands: fit, effects, bounds, curve, simulate, validate. A JSON config
file carries the column mapping, the two model designs, contrasts and
output options; command-line flags override config fields. Exit codes:
0 success, 1 user error, 2 numerical failure, 3 validation failure.

``run`` is the process entry, for the ``medbounds`` console script and
``python -m medbounds.cli``; ``main(argv)`` is the in-process API.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import itertools
import json
import math
import os
import sys
import warnings

import numpy as np

from .bounds import effect_bounds
from .effects import Contrast, point_effects, predictor_bundle
from .errors import IngestionError, MedboundsError, MissingVariableError
from .glm import (
    Dataset,
    fit_logistic,
    load_csv,
    model_from_dict,
    model_to_dict,
    parse_design,
)
from .uncertainty import bound_covariance, uncertainty_intervals

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
    except json.JSONDecodeError as exc:
        raise UserError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise UserError("config must be a JSON object")
    return cfg


def _columns(cfg: dict) -> dict:
    cols = cfg.get("columns")
    if not cols or not isinstance(cols, dict):
        raise UserError("config needs a 'columns' mapping (outcome/mediator/exposure)")
    for key in ("outcome", "mediator", "exposure"):
        if key not in cols:
            raise UserError(f"columns mapping lacks '{key}'")
    covariates = cols.setdefault("covariates", [])
    names = [cols["outcome"], cols["mediator"], cols["exposure"]]
    if not (isinstance(covariates, list) and all(isinstance(name, str) for name in names + covariates)):
        raise UserError(f"columns must give each role a column name, and covariates a list of them: {cols!r}")
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
    if not spec:
        raise UserError("contrasts.x lists no active exposure levels")
    return [_number(v, "contrasts.x level") for v in spec]


def _x_star(cfg: dict, args) -> float:
    if args.x_star is not None:
        return _number(args.x_star, "--x-star")
    return _number(_contrasts(cfg).get("x_star", DEFAULT_X_STAR), "contrasts.x_star")


def _given_profiles(cfg: dict, args) -> list[dict] | None:
    """The profiles of --profile or contrasts.profiles; None when neither gives any."""
    flag_profile = _parse_profile_flags(args.profile)
    if flag_profile:
        return [flag_profile]
    profiles = _contrasts(cfg).get("profiles")
    if profiles is None:
        return None
    if not isinstance(profiles, list) or not all(isinstance(p, dict) for p in profiles):
        raise UserError("contrasts.profiles must be a list of objects")
    if not profiles:
        raise UserError("contrasts.profiles lists no covariate profiles")
    return [{k: _number(v, f"profile value for {k!r}") for k, v in p.items()} for p in profiles]


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


def _check_out_dir(out) -> None:
    """Fail before any work when --out lies in no directory; the file itself is
    written only after the work, so a failed run leaves an existing one intact."""
    directory = os.path.dirname(out or "")
    if directory and not os.path.isdir(directory):
        raise UserError(f"--out {out}: {directory} is not a directory")


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


# a byte no UTF-8 text contains: cells are padded with it, and one pass drops it
_PAD = 0xFF
# the last byte of a cell that Python formats, where its text is spliced in
_MARK = 0xFE
_POW10 = 10 ** np.arange(19, dtype=np.int64)
# float cells per block of rows, so that the temporaries of the digit passes stay in cache
_BLOCK = 16384


def _near_tie(scaled: np.ndarray, rounded: np.ndarray) -> np.ndarray:
    """Where p = |x| 1e6 lies within an ulp of a .5 tie, so that rint(p) may
    round the other way than x itself: the distance to the tie is
    0.5 - |p - rint(p)|, and p 2^-52 is at least the ulp of p."""
    return np.abs(scaled - rounded) >= 0.5 - scaled * 2.0**-52


def _float_cells(values: np.ndarray, pad: int):
    """The "%.6f" cells of a (rows, k) float array as a (rows, k, width) byte
    array, each right-aligned after ``pad`` bytes, and the mask of the cells
    that Python formats instead, which hold only ``pad``.

    A cell is the digits of N = rint(|x| 1e6), a point before the last six and
    a '-' when the sign bit is set, written in one whole-array pass per digit of
    the largest N. Python formats the cells this cannot round as "%.6f" does:
    non-finite values, N of 2^52 or more, and those ``_near_tie``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.abs(values) * 1e6
        python = ~(scaled < 2.0**52)
    scaled[python] = 0.0
    n = np.rint(scaled)
    python |= _near_tie(scaled, n)
    n = n.astype(np.int64)
    n[python] = 0
    count = max(7, len(str(n.max())))
    width = count + 2
    cells = np.full((*n.shape, width), pad, dtype=np.uint8)
    cells[..., width - 7] = ord(".")
    units = n // 1_000_000
    q = (n - units * 1_000_000).astype(np.int32)
    for j in range(count):
        if j == 6:
            q = units
        r = q // 10
        byte = (q - r * 10).astype(np.uint8) + np.uint8(ord("0"))
        if j > 6:  # a digit left of the units is written only where N reaches it
            byte = np.where(q > 0, byte, np.uint8(pad))
        cells[..., width - 1 - j - (j >= 6)] = byte
        q = r
    negative = np.flatnonzero(np.signbit(values) & ~python)
    digits = np.maximum(7, np.searchsorted(_POW10, n.ravel()[negative], side="right"))
    cells.reshape(-1, width)[negative, width - 2 - digits] = ord("-")
    cells[python] = pad
    return cells, python


def _render(table: dict, fmt: str) -> str:
    """Format a column table (header -> float array or list of cells, of one
    length): float columns to 6 decimals in text and CSV, full precision in JSON.

    Text and CSV rows are one byte matrix in which each column is a slab of
    fixed width between separators. Float cells come from ``_float_cells``,
    a block of rows at a time; each distinct string cell is encoded once and
    gathered by row. ``_PAD`` bytes fill the short cells of a CSV column, the
    non-ASCII cells of a text column and the cells Python formats, and one
    ``bytes.translate`` drops them.
    """
    floats = [isinstance(col[0], float) for col in table.values()]
    if fmt == "json":
        cols = [
            np.asarray(col, dtype=float).tolist() if f else list(map(str, col))
            for col, f in zip(table.values(), floats)
        ]
        rows = [dict(zip(table, row)) for row in zip(*cols)]
        return json.dumps(rows, indent=1, sort_keys=True) + "\n"
    is_csv = fmt == "csv"
    pad = _PAD if is_csv else ord(" ")
    names, n = list(table), len(next(iter(table.values())))
    # each column's blocks of cells (first row, bytes), its width in the row
    # and its width in characters
    slabs = [None] * len(names)
    at = [i for i, f in enumerate(floats) if f]
    texts = []
    if at:
        cols = [np.asarray(table[names[i]], dtype=float) for i in at]
        step = max(1, _BLOCK // len(at))
        blocks, python, widest = [], [], np.zeros(len(at), dtype=int)
        for first in range(0, n, step):
            values = np.column_stack([col[first : first + step] for col in cols])
            cells, odd = _float_cells(values, pad)
            texts += ["%.6f" % v for v in values[odd].tolist()]
            if not is_csv:
                # each column's widest cell: its bytes from the first position any row
                # uses, where the pad (a space) sorts below every byte of a cell
                used = cells.max(axis=0) > pad
                widest = np.maximum(widest, np.where(used.any(axis=1), cells.shape[2] - used.argmax(axis=1), 0))
            blocks.append((first, cells))
            python.append(odd)
        python = np.concatenate(python)
        if is_csv:  # a CSV cell that Python formats is spliced in, and needs no room in the slab
            widest = [max(cells.shape[2] for _, cells in blocks)] * len(at)
        else:
            text_cols = np.nonzero(python)[1].tolist()
            widest = [max(len(names[i]), w) for i, w in zip(at, widest.tolist())]
            for c, text in zip(text_cols, texts):
                widest[c] = max(widest[c], len(text))
            texts = [text.rjust(widest[c]) for c, text in zip(text_cols, texts)]
        for c, i in enumerate(at):
            slabs[i] = ([(first, cells[:, c]) for first, cells in blocks], widest[c], widest[c])
    padded = is_csv or bool(texts)
    for i, col in enumerate(table.values()):
        if floats[i]:
            continue
        text = list(map(str, col))
        distinct = dict.fromkeys(text)
        wide = max(len(names[i]), *map(len, distinct))
        shown = map(_csv_field, distinct) if is_csv else (t.rjust(wide) for t in distinct)
        encoded = [t.encode("utf-8", "surrogatepass") for t in shown]
        width = max(map(len, encoded))
        padded = padded or any(len(e) < width for e in encoded)
        block = np.frombuffer(b"".join(e.rjust(width, b"\xff") for e in encoded), dtype=np.uint8)
        codes = np.fromiter(map({t: k for k, t in enumerate(distinct)}.__getitem__, text), np.intp, n)
        slabs[i] = ([(0, block.reshape(-1, width)[codes])], width, wide)

    sep = "," if is_csv else "  "
    if is_csv:
        header = ",".join(map(_csv_field, names))
    else:
        header = sep.join(name.rjust(wide) for name, (_, _, wide) in zip(names, slabs))
    header = (header + "\n").encode("utf-8", "surrogatepass")
    # the end of each column's slab in a row
    ends = (np.cumsum([width + len(sep) for _, width, _ in slabs]) - len(sep)).tolist()
    buf = np.full(len(header) + n * (ends[-1] + 1), pad, dtype=np.uint8)
    buf[: len(header)] = np.frombuffer(header, dtype=np.uint8)
    out = buf[len(header) :].reshape(n, ends[-1] + 1)
    for (blocks, width, _), end in zip(slabs, ends):
        for first, block in blocks:
            k = min(width, block.shape[1])
            out[first : first + len(block), end - k : end] = block[:, block.shape[1] - k :]
    for end in ends[:-1]:
        out[:, end : end + len(sep)] = np.frombuffer(sep.encode(), dtype=np.uint8)
    out[:, -1] = ord("\n")
    if texts:  # each cell that Python formats becomes _PAD bytes and one _MARK
        for c in np.unique(np.nonzero(python)[1]).tolist():
            rows, end = np.flatnonzero(python[:, c]), ends[at[c]]
            out[rows, end - slabs[at[c]][1] : end] = _PAD
            out[rows, end - 1] = _MARK
    del slabs, out  # the blocks and the matrix go before the copies below
    if padded:
        buf = buf.tobytes().translate(None, bytes([_PAD]))
    if texts:
        parts = buf.split(bytes([_MARK]))
        buf = b"".join(itertools.chain.from_iterable(zip(parts, (t.encode() for t in texts)))) + parts[-1]
    return str(buf, "utf-8", "surrogatepass")


def _fmt(cfg: dict, args) -> str:
    fmt = args.format or cfg.get("format", "table")
    if fmt not in ("table", "csv", "json"):
        raise UserError(f"unknown format {fmt!r}")
    return fmt


# --------------------------------------------------------------------------
# Model acquisition
# --------------------------------------------------------------------------


def _models_from_file(path):
    try:
        with open(path) as fh:
            payload = json.load(fh)
        return model_from_dict(payload["outcome"]), model_from_dict(payload["mediator"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
    fmt = _fmt(cfg, args)
    outcome, mediator = _fit_models(cfg, _read_data(cfg, args))

    # the models file first, so that a bad --out fails before any output
    if args.out:
        payload = {
            "columns": _columns(cfg),
            "outcome": model_to_dict(outcome, cfg["outcome_design"]),
            "mediator": model_to_dict(mediator, cfg["mediator_design"]),
        }
        _emit(json.dumps(payload, indent=1, sort_keys=True) + "\n", args)

    est = np.concatenate([mediator.coefficients, outcome.coefficients])
    se = np.concatenate([mediator.stderr, outcome.stderr])
    p_value = [math.erfc(abs(b / s if s > 0 else math.inf) / math.sqrt(2.0)) for b, s in zip(est, se)]
    table = {
        "model": ["mediator"] * len(mediator.design.names) + ["outcome"] * len(outcome.design.names),
        "term": mediator.design.names + outcome.design.names,
        "est.": est,
        "s.e.": se,
        "p-value": np.array(p_value),
    }
    sys.stdout.write(_render(table, fmt))
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


def _contrast_inputs(cfg: dict, args, x_major: bool):
    """The bundle batch and its key columns of an ``effects``, ``bounds`` or
    ``curve`` run: one row per (active level, profile), in x-major or
    profile-major order. The levels and given profiles are checked before
    any data is read; only default profiles need the data."""
    xs, x_star = _x_values(cfg, args), _x_star(cfg, args)
    profiles = _given_profiles(cfg, args)
    if profiles is None and args.models and not (args.data or cfg.get("data")):
        raise UserError("no covariate profiles given (use --profile or config contrasts.profiles)")
    data = None if args.models else _read_data(cfg, args)
    outcome, mediator = _models_from_file(args.models) if args.models else _fit_models(cfg, data)
    _check_support((outcome, mediator), xs, x_star)
    if profiles is None:
        profiles = _default_profiles(data if data is not None else _read_data(cfg, args))
    labels = [",".join(f"{k}={p[k]:g}" for k in sorted(p)) for p in profiles]
    # each row's level and profile index: the (level, profile) index grids
    # raveled for x-major order, their transposes for profile-major
    ix, ip = (g.ravel() if x_major else g.T.ravel() for g in np.indices((len(xs), len(profiles))))
    x = np.array(xs)[ix]
    # a covariate missing from any profile stays missing, so a design that
    # reads it fails, naming the first profile that lacks it
    names = set.intersection(*map(set, profiles))
    columns = {k: np.array([p[k] for p in profiles])[ip] for k in sorted(names)}
    try:
        bundle = predictor_bundle(outcome, mediator, Contrast(x, x_star, columns))
    except MissingVariableError as exc:
        if exc.variable is None:
            raise
        label = next(label for p, label in zip(profiles, labels) if exc.variable not in p)
        raise UserError(f"profile {label} lacks covariate '{exc.variable}'") from None
    keys = {"x": x, "x_star": np.full(len(x), x_star), "profile": [labels[i] for i in ip]}
    return bundle, keys


def cmd_effects(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    fmt = _fmt(cfg, args)
    bundle, keys = _contrast_inputs(cfg, args, x_major=False)
    pt = point_effects(bundle)
    table = {**keys, "nde": pt.nde, "nie": pt.nie, "te": pt.te}
    _emit(_render(table, fmt), args)
    return EXIT_OK


def _bounds_like(args) -> int:
    """The ``bounds`` and ``curve`` commands: every contrast evaluated in one batch."""
    cfg = load_config(args.config) if args.config else {}
    fmt, alpha = _fmt(cfg, args), _alpha(cfg, args)
    bundle, table = _contrast_inputs(cfg, args, x_major=True)
    eb = effect_bounds(bundle)
    ui = uncertainty_intervals(eb, bound_covariance(bundle), alpha)
    for name in ("nde", "nie", "te"):
        bound, interval = getattr(eb, name), getattr(ui, name)
        ends = (getattr(eb.point, name), bound.lower, bound.upper, interval.lower, interval.upper)
        for suffix, v in zip(("", "_lo", "_hi", "_ui_lo", "_ui_hi"), ends):
            table[name + suffix] = v
    _emit(_render(table, fmt), args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    # the simulator and the self-check suite load only in the commands that run
    # them, so fit, effects, bounds and curve start without them
    from .scm import StructuralModel, demo_cohort_scm, sample_dataset

    try:
        scm = StructuralModel.load(args.scm) if args.scm else demo_cohort_scm()
    except (KeyError, TypeError, ValueError) as exc:
        raise UserError(f"bad structural model file {args.scm}: {exc}") from None
    n = args.n
    if n < 1:
        raise UserError("--n must be at least 1")
    data = sample_dataset(scm, n, args.seed)
    columns = {"y": data.outcome, "m": data.mediator, "x": data.exposure, **data.covariates}
    _emit(_render({name: ["%g" % v for v in col.tolist()] for name, col in columns.items()}, "csv"), args)
    return EXIT_OK


def cmd_validate(args) -> int:
    for flag, value in (("--replicates", args.replicates), ("--coverage-n", args.coverage_n)):
        if value < 1:
            raise UserError(f"{flag} must be at least 1")
    from .validate import run_validation

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
        _check_out_dir(args.out)
        return args.fn(args)
    except (UserError, IngestionError, MissingVariableError, OSError, csv.Error) as exc:
        # csv.Error: a data file csv.reader rejects, or a NUL that csv.writer cannot write (Python < 3.11)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except (MedboundsError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        warnings.formatwarning = default_format


def run() -> int:
    """The process entry: ``main`` on ``sys.argv``, then ``gc.freeze()`` on every way
    out (a return or ``SystemExit``, such as ``--help``).

    A frozen heap is skipped by the collections of interpreter shutdown, which
    would otherwise walk and free every tracked object and cycle of numpy and the
    package; the OS reclaims the memory. Stdio is still flushed and ``atexit``
    still runs; only finalizers of objects in reference cycles are skipped, and
    every output file is written and closed inside a ``with`` block. ``main``
    never freezes, as a freeze would pin every later object of the calling process.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
