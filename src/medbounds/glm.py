"""Binary-response logistic regression with arbitrary predictor bases.

Two models are fit per analysis: one for the outcome (which may reference
the mediator) and one for the mediator (which must not). Designs are lists
of named basis terms, so the linear predictor can be any function of
exposure, mediator and covariates that the user can express as a sum of
bases: identities, interactions, powers, or arbitrary callables.

Fitting is plain damped Newton on the Bernoulli log-likelihood (IRLS), with
the coefficient covariance taken as the inverse observed information at the
optimum.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceError,
    IngestionError,
    MissingVariableError,
    SeparationError,
    SingularDesignError,
)

GRAD_TOL = 1e-8
MAX_ITER = 100
SEPARATION_THRESHOLD = 15.0


# --------------------------------------------------------------------------
# Evaluation points and design terms
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """One location where a linear predictor is evaluated.

    ``mediator`` is None for mediator-model designs, which never reference it.
    ``covariates`` maps names to values; arrays are accepted everywhere so the
    same terms evaluate row-wise on full datasets.
    """

    exposure: float
    mediator: float | None
    covariates: Mapping[str, float]


@dataclass(frozen=True)
class Term:
    """A named basis function of an evaluation point."""

    name: str
    fn: Callable[[Point], float]

    def __call__(self, point: Point):
        return self.fn(point)


def const() -> Term:
    return Term("1", lambda p: np.ones_like(np.asarray(p.exposure, dtype=float)))


def exposure() -> Term:
    return Term("x", lambda p: np.asarray(p.exposure, dtype=float))


def mediator() -> Term:
    def fn(p: Point):
        if p.mediator is None:
            raise MissingVariableError("term 'm' requires a mediator value")
        return np.asarray(p.mediator, dtype=float)

    return Term("m", fn)


def covariate(name: str) -> Term:
    def fn(p: Point):
        try:
            return np.asarray(p.covariates[name], dtype=float)
        except KeyError:
            raise MissingVariableError(f"covariate '{name}' missing from point") from None

    return Term(name, fn)


def interaction(*factors: Term) -> Term:
    name = "*".join(t.name for t in factors)

    def fn(p: Point):
        out = np.asarray(factors[0](p), dtype=float)
        for t in factors[1:]:
            out = out * t(p)
        return out

    return Term(name, fn)


def power(base: Term, k: int) -> Term:
    return Term(f"{base.name}^{k}", lambda p: np.asarray(base(p), dtype=float) ** k)


def table_lookup(name: str, mapping: Mapping[float, float]) -> Term:
    """Step-function basis: maps exact values of a covariate through a table."""
    keys = np.array(sorted(mapping))
    vals = np.array([mapping[k] for k in sorted(mapping)])

    def fn(p: Point):
        v = np.asarray(p.covariates[name] if name in p.covariates else _role_value(p, name), dtype=float)
        idx = np.searchsorted(keys, v)
        idx = np.clip(idx, 0, len(keys) - 1)
        if not np.all(np.isclose(keys[idx], v)):
            raise MissingVariableError(f"table term '{name}' has no entry for some values")
        return vals[idx]

    return Term(f"tbl({name})", fn)


def _role_value(p: Point, name: str):
    if name == "x":
        return p.exposure
    if name == "m":
        if p.mediator is None:
            raise MissingVariableError("term 'm' requires a mediator value")
        return p.mediator
    raise MissingVariableError(f"covariate '{name}' missing from point")


_RESERVED = {"1", "x", "m"}


def parse_term(expr: str) -> Term:
    """Parse a compact term expression.

    Grammar: factors joined by ``*``; each factor is ``1``, ``x`` (exposure),
    ``m`` (mediator), a covariate name, or any of those raised with ``^k``.
    Examples: ``"1"``, ``"x"``, ``"x*m"``, ``"bmi^2"``, ``"x*gender"``.
    """
    expr = expr.strip()
    if not expr:
        raise ValueError("empty term expression")
    factors = []
    for raw in expr.split("*"):
        raw = raw.strip()
        if "^" in raw:
            base, _, exp_s = raw.partition("^")
            k = int(exp_s)
            factors.append(power(_atom(base.strip()), k))
        else:
            factors.append(_atom(raw))
    if len(factors) == 1:
        return factors[0]
    return interaction(*factors)


def _atom(token: str) -> Term:
    if token == "1":
        return const()
    if token == "x":
        return exposure()
    if token == "m":
        return mediator()
    if not token.isidentifier():
        raise ValueError(f"cannot parse term factor {token!r}")
    return covariate(token)


@dataclass(frozen=True)
class DesignSpec:
    """Ordered basis terms defining one model's linear predictor."""

    terms: tuple[Term, ...]
    includes_mediator: bool

    def __post_init__(self):
        if len(self.terms) < 1:
            raise ValueError("a design needs at least one term")

    @property
    def names(self) -> list[str]:
        return [t.name for t in self.terms]

    def row(self, point: Point) -> np.ndarray:
        return np.array([float(t(point)) for t in self.terms])

    def evaluate(self, point: Point, n: int) -> np.ndarray:
        """(n, k) basis evaluations at a point whose fields are length-n arrays."""
        cols = [np.broadcast_to(np.asarray(t(point), dtype=float), (n,)) for t in self.terms]
        return np.column_stack(cols)

    def matrix(self, data: "Dataset") -> np.ndarray:
        p = Point(exposure=data.exposure, mediator=data.mediator, covariates=data.covariates)
        X = self.evaluate(p, data.n)
        if not np.all(np.isfinite(X)):
            bad = [self.terms[j].name for j in range(X.shape[1]) if not np.all(np.isfinite(X[:, j]))]
            raise IngestionError(f"non-finite design values in terms: {', '.join(bad)}")
        return X


def parse_design(exprs: Sequence[str]) -> DesignSpec:
    terms = tuple(parse_term(e) for e in exprs)
    mentions_m = any("m" == f.strip().split("^")[0] for e in exprs for f in e.split("*"))
    return DesignSpec(terms=terms, includes_mediator=mentions_m)


# --------------------------------------------------------------------------
# Data
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Rows of (binary outcome, binary mediator, exposure, named covariates)."""

    outcome: np.ndarray
    mediator: np.ndarray
    exposure: np.ndarray
    covariates: dict[str, np.ndarray]

    def __post_init__(self):
        y = np.asarray(self.outcome, dtype=float)
        m = np.asarray(self.mediator, dtype=float)
        x = np.asarray(self.exposure, dtype=float)
        object.__setattr__(self, "outcome", y)
        object.__setattr__(self, "mediator", m)
        object.__setattr__(self, "exposure", x)
        object.__setattr__(
            self, "covariates", {k: np.asarray(v, dtype=float) for k, v in self.covariates.items()}
        )
        n = len(y)
        if n == 0:
            raise IngestionError("dataset is empty")
        for label, col in [("mediator", m), ("exposure", x)] + list(self.covariates.items()):
            if len(col) != n:
                raise IngestionError(f"column '{label}' has length {len(col)}, expected {n}")
        for label, col in [("outcome", y), ("mediator", m)]:
            if not np.all(np.isin(col, (0.0, 1.0))):
                raise IngestionError(f"{label} column must be strictly 0/1")
        allcols = np.column_stack([y, m, x] + list(self.covariates.values()))
        if not np.all(np.isfinite(allcols)):
            raise IngestionError("dataset contains non-finite values")

    @property
    def n(self) -> int:
        return len(self.outcome)


def load_csv(
    path,
    outcome: str,
    mediator: str,
    exposure: str,
    covariates: Sequence[str] = (),
) -> Dataset:
    """Read a header-ed CSV into a Dataset using an explicit column mapping.

    Rows with empty cells in any mapped column are dropped (and counted in a
    warning); binary columns must contain only 0/1 after parsing.
    """
    wanted = [outcome, mediator, exposure, *covariates]
    rows: list[list[float]] = []
    dropped = 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise IngestionError(f"{path}: empty file (no header row)")
        missing = [c for c in wanted if c not in reader.fieldnames]
        if missing:
            raise IngestionError(f"{path}: missing columns: {', '.join(missing)}")
        for i, rec in enumerate(reader, start=2):
            vals = [rec[c] for c in wanted]
            if any(v is None or v.strip() == "" for v in vals):
                dropped += 1
                continue
            try:
                rows.append([float(v) for v in vals])
            except ValueError as exc:
                raise IngestionError(f"{path}: line {i}: {exc}") from None
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} rows with missing values")
    if not rows:
        raise IngestionError(f"{path}: no usable data rows")
    arr = np.array(rows)
    data = Dataset(
        outcome=arr[:, 0],
        mediator=arr[:, 1],
        exposure=arr[:, 2],
        covariates={c: arr[:, 3 + j] for j, c in enumerate(covariates)},
    )
    for label, col in (("outcome", data.outcome), ("mediator", data.mediator)):
        if col.min() == col.max():
            raise IngestionError(f"{path}: {label} column is constant; both levels are required")
    return data


# --------------------------------------------------------------------------
# Fitting
# --------------------------------------------------------------------------


@dataclass
class FitReport:
    iterations: int
    grad_norm: float
    loglik: float
    loglik_trace: list[float] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class FittedGlm:
    """A fitted logistic model: design, coefficients, and their covariance."""

    design: DesignSpec
    coefficients: np.ndarray
    covariance: np.ndarray
    report: FitReport
    role: str
    exposure_range: tuple[float, float] | None = None

    def __post_init__(self):
        k = len(self.design.terms)
        if self.coefficients.shape != (k,) or self.covariance.shape != (k, k):
            raise ValueError("coefficient/covariance dimensions do not match the design")
        asym = np.abs(self.covariance - self.covariance.T).max()
        if asym > 1e-12 * max(1.0, np.abs(self.covariance).max()):
            raise ValueError("covariance is not symmetric")

    @property
    def stderr(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))


def _loglik(eta: np.ndarray, y: np.ndarray) -> float:
    # sum y*eta - log(1+e^eta), stable for large |eta|
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def _check_rank(X: np.ndarray, names: Sequence[str]) -> None:
    _, r_mat, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r_mat))
    tol = diag.max() * max(X.shape) * np.finfo(float).eps if diag.max() > 0 else 0.0
    deficient = [names[piv[j]] for j in range(len(diag)) if diag[j] <= tol]
    if diag.max() == 0.0:
        deficient = list(names)
    if deficient:
        raise SingularDesignError(deficient)


def fit_logistic(
    data: Dataset,
    design: DesignSpec,
    role: str = "outcome",
    tol: float = GRAD_TOL,
    max_iter: int = MAX_ITER,
) -> FittedGlm:
    """Maximize the Bernoulli log-likelihood by damped Newton iteration.

    ``role`` selects the response: "outcome" fits y on a design that may
    reference the mediator, "mediator" fits m and rejects designs that do.
    Convergence is declared when the score max-norm (on internally rescaled
    columns) drops below ``tol``; step-halving keeps the log-likelihood
    non-decreasing, and coefficients wandering past +-15 raise a separation
    error since fitted probabilities are then numerically 0/1.
    """
    if role not in ("outcome", "mediator"):
        raise ValueError(f"role must be 'outcome' or 'mediator', got {role!r}")
    if role == "mediator" and design.includes_mediator:
        raise ValueError("mediator-model designs must not reference the mediator")

    y = data.outcome if role == "outcome" else data.mediator
    if y.min() == y.max():
        raise IngestionError(f"{role} response is constant; both levels are required to fit")
    X_raw = design.matrix(data)
    _check_rank(X_raw, design.names)

    # rescale columns to unit max-abs so the score tolerance is scale-free
    scale = np.abs(X_raw).max(axis=0)
    scale[scale == 0.0] = 1.0
    X = X_raw / scale

    n, k = X.shape
    beta = np.zeros(k)
    eta = X @ beta
    ll = _loglik(eta, y)
    trace = [ll]
    grad_norm = math.inf

    for it in range(1, max_iter + 1):
        p = 1.0 / (1.0 + np.exp(-eta))
        grad = X.T @ (y - p)
        grad_norm = float(np.abs(grad).max())
        if grad_norm < tol:
            break
        w = np.clip(p * (1.0 - p), 1e-12, None)
        hess = (X * w[:, None]).T @ X
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"Newton step failed at iteration {it}: {exc}", trace) from None
        lam = 1.0
        for _ in range(50):
            cand = beta + lam * step
            ll_new = _loglik(X @ cand, y)
            if ll_new >= ll - 1e-12 * abs(ll):
                break
            lam *= 0.5
        else:
            raise ConvergenceError(f"step-halving stalled at iteration {it}", trace)
        beta = beta + lam * step
        eta = X @ beta
        ll = ll_new
        trace.append(ll)
        if np.abs(beta / scale).max() > SEPARATION_THRESHOLD:
            raise SeparationError(
                "coefficient magnitude exceeded the divergence threshold "
                f"({SEPARATION_THRESHOLD}) while the likelihood kept improving; "
                "the data are (quasi-)separated"
            )
    else:
        raise ConvergenceError(
            f"no convergence in {max_iter} iterations (score max-norm {grad_norm:.3e})",
            trace,
        )

    p = 1.0 / (1.0 + np.exp(-eta))
    w = np.clip(p * (1.0 - p), 1e-12, None)
    info = (X * w[:, None]).T @ X
    cov_scaled = np.linalg.inv(info)
    cov = cov_scaled / np.outer(scale, scale)
    cov = 0.5 * (cov + cov.T)

    report = FitReport(iterations=it, grad_norm=grad_norm, loglik=ll, loglik_trace=trace)
    return FittedGlm(
        design=design,
        coefficients=beta / scale,
        covariance=cov,
        report=report,
        role=role,
        exposure_range=(float(data.exposure.min()), float(data.exposure.max())),
    )


def linear_predictor(model: FittedGlm, point: Point) -> float:
    """Coefficient-weighted sum of basis evaluations at one point."""
    return float(design_row(model, point) @ model.coefficients)


def design_row(model: FittedGlm, point: Point) -> np.ndarray:
    """Basis evaluations at one point (the gradient of the linear predictor)."""
    return model.design.row(point)


# --------------------------------------------------------------------------
# (De)serialization for the CLI model file
# --------------------------------------------------------------------------


def model_to_dict(model: FittedGlm, exprs: Sequence[str]) -> dict:
    return {
        "role": model.role,
        "design": list(exprs),
        "coefficients": [float(v) for v in model.coefficients],
        "covariance": [[float(v) for v in row] for row in model.covariance],
        "exposure_range": list(model.exposure_range) if model.exposure_range else None,
        "fit": {
            "iterations": model.report.iterations,
            "grad_norm": model.report.grad_norm,
            "loglik": model.report.loglik,
        },
    }


def model_from_dict(d: dict) -> FittedGlm:
    design = parse_design(d["design"])
    fit = d.get("fit", {})
    report = FitReport(
        iterations=int(fit.get("iterations", 0)),
        grad_norm=float(fit.get("grad_norm", 0.0)),
        loglik=float(fit.get("loglik", 0.0)),
    )
    rng = d.get("exposure_range")
    return FittedGlm(
        design=design,
        coefficients=np.asarray(d["coefficients"], dtype=float),
        covariance=np.asarray(d["covariance"], dtype=float),
        report=report,
        role=d["role"],
        exposure_range=tuple(rng) if rng else None,
    )
