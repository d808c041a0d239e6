"""Delta-method uncertainty intervals around estimated identification bounds.

The four log bound endpoints (NDE lower/upper, NIE lower/upper) are smooth
functions of the six-predictor bundle, so their covariance is J' S J with S
the bundle covariance and J the 6x4 jacobian: the chain rule through each
pair's factor extremes, from the pass in ``bounds`` that gives the endpoints.
Only ``bounds.effect_bounds``, whose result every interval needs, warns of a
degenerate mediator effect.
Total-effect endpoint variances add the corresponding NDE/NIE variances plus
twice their covariance. Intervals widen each estimated bound outward by a
normal quantile times its standard error, which targets the whole
identification region rather than a point.
"""

from __future__ import annotations

import statistics
import warnings
from dataclasses import dataclass

import numpy as np

from .bounds import BoundPair, EffectBounds, _log_bounds
from .effects import PredictorBundle, failing_rows, scalar_or_array, symmetrized

__all__ = [
    "BoundEstimates",
    "UncertaintyIntervals",
    "normal_quantile",
    "bounds_jacobian",
    "bound_covariance",
    "total_effect_variances",
    "uncertainty_intervals",
]


def normal_quantile(p: float) -> float:
    """Standard normal quantile (inverse CDF), accurate to ~1e-15."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile argument must be in (0, 1)")
    return statistics.NormalDist().inv_cdf(p)


def bounds_jacobian(bundle: PredictorBundle) -> np.ndarray:
    """6x4 jacobian of the log bound endpoints w.r.t. the predictor bundle.

    Columns are (NDE lower, NDE upper, NIE lower, NIE upper); rows follow the
    bundle component order; a batch of N bundles gives (N, 6, 4). It is the
    chain rule through each pair's factor extremes (see ``bounds``), so the
    mediator-at-active-level row is zero in both NDE columns. It warns of no
    degenerate mediator effect: ``effect_bounds`` does.
    """
    return _log_bounds(bundle)[1]


@dataclass(frozen=True)
class BoundEstimates:
    """Estimated log bound endpoints and their delta-method covariance.

    ``log_bounds`` = (NDE lower, NDE upper, NIE lower, NIE upper);
    ``cov`` is the matching 4x4 covariance. A batch has shapes (N, 4) and
    (N, 4, 4).
    """

    log_bounds: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        lb = np.asarray(self.log_bounds, dtype=float)
        c = np.asarray(self.cov, dtype=float)
        if lb.ndim not in (1, 2) or lb.shape[-1] != 4 or c.shape != lb.shape[:-1] + (4, 4):
            raise ValueError("expected 4 log bounds and a 4x4 covariance per row")
        infinite = ~np.isfinite(lb).all(axis=-1)
        if np.any(infinite):
            raise ValueError(f"log bounds must be finite{failing_rows(infinite)}")
        object.__setattr__(self, "log_bounds", lb)
        object.__setattr__(self, "cov", symmetrized(c, "covariance"))

    @property
    def stderr(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diagonal(self.cov, axis1=-2, axis2=-1), 0.0, None))


def bound_covariance(bundle: PredictorBundle) -> BoundEstimates:
    """Log bound endpoints with their delta-method covariance J' S J; no degenerate-mediator warning."""
    eig_min = np.linalg.eigvalsh(bundle.cov).min(axis=-1)
    not_psd = eig_min < -1e-8 * np.maximum(1.0, np.abs(bundle.cov).max(axis=(-2, -1)))
    if np.any(not_psd):
        worst = np.min(np.where(not_psd, eig_min, np.inf))
        raise ValueError(
            f"bundle covariance is not positive semidefinite{failing_rows(not_psd)} "
            f"(min eig {worst:.3e})"
        )
    log_bounds, D = _log_bounds(bundle)
    cov = D.swapaxes(-1, -2) @ bundle.cov @ D
    return BoundEstimates(log_bounds=log_bounds, cov=cov)


def total_effect_variances(estimates: BoundEstimates) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Variances of the total-effect log bound endpoints (lower, upper)."""
    v = estimates.cov
    var_lo = v[..., 0, 0] + v[..., 2, 2] + 2.0 * v[..., 0, 2]
    var_hi = v[..., 1, 1] + v[..., 3, 3] + 2.0 * v[..., 1, 3]
    clipped = []
    for name, val in (("lower", var_lo), ("upper", var_hi)):
        negative = val < 0.0
        if np.any(negative):
            warnings.warn(
                f"negative computed variance for TE {name} bound{failing_rows(negative)}; clipping to 0"
            )
        clipped.append(scalar_or_array(np.where(negative, 0.0, val)))
    return clipped[0], clipped[1]


@dataclass(frozen=True)
class UncertaintyIntervals:
    """(1 - alpha) point-wise intervals enclosing the identification bounds."""

    alpha: float
    nde: BoundPair
    nie: BoundPair
    te: BoundPair


def uncertainty_intervals(
    bounds: EffectBounds, estimates: BoundEstimates, alpha: float = 0.05
) -> UncertaintyIntervals:
    """Widen each estimated bound outward by z_{alpha/2} standard errors."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    z = normal_quantile(1.0 - alpha / 2.0)
    se = np.moveaxis(estimates.stderr, -1, 0)
    var_te_lo, var_te_hi = total_effect_variances(estimates)
    nde = BoundPair(bounds.nde.lower - z * se[0], bounds.nde.upper + z * se[1])
    nie = BoundPair(bounds.nie.lower - z * se[2], bounds.nie.upper + z * se[3])
    te = BoundPair(
        bounds.te.lower - z * np.sqrt(var_te_lo),
        bounds.te.upper + z * np.sqrt(var_te_hi),
    )
    return UncertaintyIntervals(alpha=alpha, nde=nde, nie=nie, te=te)
