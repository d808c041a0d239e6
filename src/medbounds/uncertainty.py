"""Delta-method uncertainty intervals around estimated identification bounds.

The four log bound endpoints (NDE lower/upper, NIE lower/upper) are smooth
functions of the six-predictor bundle, so their covariance is J' S J with J
the 6x4 jacobian below and S the bundle covariance. Total-effect endpoint
variances add the corresponding NDE/NIE variances plus twice their
covariance. Intervals widen each estimated bound outward by a normal
quantile times its standard error, which targets the whole identification
region rather than a point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .bounds import BoundPair, EffectBounds, log_bound_endpoints
from .effects import PredictorBundle, expit, failing_rows, scalar_or_array

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
    return float(ndtri(p))


def bounds_jacobian(bundle: PredictorBundle) -> np.ndarray:
    """6x4 jacobian of the log bound endpoints w.r.t. the predictor bundle.

    Columns are (NDE lower, NDE upper, NIE lower, NIE upper); rows follow the
    bundle component order. The mediator-at-active-level row is structurally
    zero in both NDE columns. A batch of N bundles gives shape (N, 6, 4).
    """
    d_x = bundle.y_active_m1 - bundle.y_active_m0
    d_xs = bundle.y_ref_m1 - bundle.y_ref_m0
    g_x, g_xs = bundle.m_active, bundle.m_ref
    e = expit

    D = np.zeros(np.shape(d_x) + (6, 4))
    # NDE lower: base + [sp(g_xs) - sp(g_xs - d_x)] - [sp(g_xs + d_xs) - sp(g_xs)]
    _fill(
        D[..., 0],
        1.0 - e(g_xs - d_x),
        e(g_xs + d_xs) - 1.0,
        e(g_xs - d_x),
        -e(g_xs + d_xs),
        0.0,
        2.0 * e(g_xs) - e(g_xs - d_x) - e(g_xs + d_xs),
    )
    # NDE upper
    _fill(
        D[..., 1],
        1.0 - e(g_xs + d_x),
        e(g_xs - d_xs) - 1.0,
        e(g_xs + d_x),
        -e(g_xs - d_xs),
        0.0,
        e(g_xs + d_x) + e(g_xs - d_xs) - 2.0 * e(g_xs),
    )
    # NIE lower: [sp(g_x) - sp(g_x - d_x)] - [sp(g_xs + d_x) - sp(g_xs)]
    _fill(
        D[..., 2],
        e(g_xs + d_x) - e(g_x - d_x),
        0.0,
        e(g_x - d_x) - e(g_xs + d_x),
        0.0,
        e(g_x) - e(g_x - d_x),
        e(g_xs) - e(g_xs + d_x),
    )
    # NIE upper
    _fill(
        D[..., 3],
        e(g_xs - d_x) - e(g_x + d_x),
        0.0,
        e(g_x + d_x) - e(g_xs - d_x),
        0.0,
        e(g_x + d_x) - e(g_x),
        e(g_xs - d_x) - e(g_xs),
    )
    return D


def _fill(column: np.ndarray, *entries) -> None:
    """Write six jacobian entries, each a number or one value per row, into a (..., 6) view."""
    for i, entry in enumerate(entries):
        column[..., i] = entry


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
        ct = np.swapaxes(c, -1, -2)
        scale = np.maximum(1.0, np.abs(c).max(axis=(-2, -1)))
        asymmetric = np.abs(c - ct).max(axis=(-2, -1)) > 1e-10 * scale
        if np.any(asymmetric):
            raise ValueError(f"covariance is not symmetric{failing_rows(asymmetric)}")
        object.__setattr__(self, "log_bounds", lb)
        object.__setattr__(self, "cov", 0.5 * (c + ct))

    @property
    def stderr(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diagonal(self.cov, axis1=-2, axis2=-1), 0.0, None))


def bound_covariance(bundle: PredictorBundle) -> BoundEstimates:
    """Log bound endpoints with their delta-method covariance J' S J."""
    eig_min = np.linalg.eigvalsh(bundle.cov).min(axis=-1)
    not_psd = eig_min < -1e-8 * np.maximum(1.0, np.abs(bundle.cov).max(axis=(-2, -1)))
    if np.any(not_psd):
        worst = np.min(np.where(not_psd, eig_min, np.inf))
        raise ValueError(
            f"bundle covariance is not positive semidefinite{failing_rows(not_psd)} "
            f"(min eig {worst:.3e})"
        )
    D = bounds_jacobian(bundle)
    v0 = np.einsum("...ia,...ij,...jb->...ab", D, bundle.cov, D)
    cov = 0.5 * (v0 + np.swapaxes(v0, -1, -2))
    return BoundEstimates(log_bounds=log_bound_endpoints(bundle), cov=cov)


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
