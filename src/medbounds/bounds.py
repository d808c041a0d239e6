"""Identification bounds for natural effects under relaxed assumptions.

When outcome-related confounding cannot be ruled out, the conditional
counterfactual outcome logit is only known up to an additive shift. The
shift enters every effect expression through a single monotone factor per
(outcome-level, mediator-level) pair, and that factor is a straight line in
a bounded retrospective probability, which yields closed-form lower/upper
bounds for the direct, indirect and total effects. The point estimates of
the stronger assumption set are recovered exactly at shift zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .effects import (
    EffectTriple,
    Pair,
    PredictorBundle,
    expit,
    failing_rows,
    point_effects,
    scalar_or_array,
    softplus,
)
from .errors import DegenerateMediatorError, DegenerateMediatorWarning

__all__ = [
    "BoundPair",
    "EffectBounds",
    "SensitivityCurve",
    "DELTA_EPS",
    "mediator_log_odds_ratio",
    "shifted_posterior_logit",
    "shifted_effects",
    "sensitivity_probability",
    "sensitivity_probability_range",
    "factor_range",
    "effect_bounds",
    "sensitivity_curve",
]

DELTA_EPS = 1e-10  # below this the mediator effect counts as degenerate


@dataclass(frozen=True)
class BoundPair:
    """Lower and upper endpoints: floats for a single bundle, arrays for a batch."""

    lower: float
    upper: float

    def __post_init__(self):
        lower, upper = scalar_or_array(self.lower), scalar_or_array(self.upper)
        inverted = ~np.asarray(lower <= upper + 1e-12)
        if np.any(inverted):
            lo, hi = np.broadcast_arrays(lower, upper)
            first = np.unravel_index(np.argmax(inverted), inverted.shape)
            raise ValueError(f"lower {lo[first]} exceeds upper {hi[first]}{failing_rows(inverted)}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def contains(self, value: float | np.ndarray, tol: float = 0.0) -> bool | np.ndarray:
        return (self.lower - tol <= value) & (value <= self.upper + tol)

    @property
    def width(self) -> float | np.ndarray:
        return self.upper - self.lower


@dataclass(frozen=True)
class EffectBounds:
    """Log-scale identification bounds plus the shift-zero point estimates."""

    nde: BoundPair
    nie: BoundPair
    te: BoundPair
    point: EffectTriple


@dataclass(frozen=True)
class SensitivityCurve:
    """Effects and the sensitivity probability traced along a shift grid."""

    shifts: np.ndarray
    nde: np.ndarray
    nie: np.ndarray
    te: np.ndarray
    probabilities: np.ndarray


def _warn_degenerate(delta, message: str) -> None:
    degenerate = np.abs(delta) < DELTA_EPS
    if np.any(degenerate):
        warnings.warn(
            message.format(rows=failing_rows(degenerate)), DegenerateMediatorWarning, stacklevel=3
        )


def mediator_log_odds_ratio(bundle: PredictorBundle, level: str = "active") -> float | np.ndarray:
    """Mediator-on-outcome effect (log odds-ratio) at one exposure level.

    The m=1 vs m=0 gap of the outcome predictor; all bound widths scale with
    it, and it is identified regardless of outcome confounding.
    """
    if level == "active":
        delta = bundle.y_active_m1 - bundle.y_active_m0
    elif level == "reference":
        delta = bundle.y_ref_m1 - bundle.y_ref_m0
    else:
        raise ValueError("level must be 'active' or 'reference'")
    _warn_degenerate(
        delta,
        f"mediator effect at {level} level is numerically zero{{rows}}; "
        "the effect decomposition is degenerate",
    )
    return scalar_or_array(delta)


def shifted_posterior_logit(
    bundle: PredictorBundle, shift: float | np.ndarray, y: int, pair: Pair = Pair.CROSS
) -> float | np.ndarray:
    """Retrospective mediator logit when the outcome logit carries a shift.

    At shift 0 this equals the unshifted posterior logit exactly; as the
    shift runs to -inf/+inf it saturates at the mediator predictor and at
    the mediator predictor minus the mediator effect, respectively. An array
    of shifts broadcasts against the bundle's rows.
    """
    if y not in (0, 1):
        raise ValueError("y must be 0 or 1")
    b0, b1 = bundle.outcome_parts(pair)
    g = bundle.mediator_part(pair)
    return y * (b1 - b0) + softplus(shift + b0) - softplus(shift + b1) + g


def _log_factor(bundle: PredictorBundle, shift: float | np.ndarray, pair: Pair) -> float | np.ndarray:
    g1 = shifted_posterior_logit(bundle, shift, 1, pair)
    g0 = shifted_posterior_logit(bundle, shift, 0, pair)
    return softplus(g1) - softplus(g0)


def shifted_effects(bundle: PredictorBundle, shift: float | np.ndarray) -> EffectTriple:
    """Natural effects when the same shift applies at every exposure level.

    Reduces to ``point_effects`` at shift 0; for any finite shift each
    component stays inside the corresponding identification bound.
    """
    cross = _log_factor(bundle, shift, Pair.CROSS)
    nde = bundle.y_active_m0 - bundle.y_ref_m0 + cross - _log_factor(bundle, shift, Pair.REFERENCE)
    nie = _log_factor(bundle, shift, Pair.ACTIVE) - cross
    return EffectTriple.from_parts(nde, nie)


def sensitivity_probability(bundle: PredictorBundle, shift: float | np.ndarray) -> float | np.ndarray:
    """The bounded retrospective probability indexing the sensitivity analysis.

    P(mediator stays 0 in the reference world | outcome 0 in the cross world);
    monotone in the shift whenever the mediator effect is nonzero.
    """
    return expit(-shifted_posterior_logit(bundle, shift, 0, Pair.CROSS))


def sensitivity_probability_range(bundle: PredictorBundle) -> BoundPair:
    """Open interval the sensitivity probability can range over."""
    delta = mediator_log_odds_ratio(bundle, "active")
    degenerate = np.abs(delta) < DELTA_EPS
    if np.any(degenerate):
        raise DegenerateMediatorError(
            f"mediator effect is numerically zero{failing_rows(degenerate)}; the sensitivity "
            "probability range collapses and bounds are not defined"
        )
    g = bundle.m_ref
    at_minus_inf = expit(-g)
    at_plus_inf = expit(delta - g)
    # the probability is monotone in the shift, increasing when delta > 0
    return BoundPair(np.minimum(at_minus_inf, at_plus_inf), np.maximum(at_minus_inf, at_plus_inf))


def _log_factor_range(
    delta: float | np.ndarray, g: float | np.ndarray
) -> tuple[float | np.ndarray, float | np.ndarray]:
    # log of the straight-line extremes: l = (1+e^g)/(1+e^{g-delta}),
    # u = (1+e^{g+delta})/(1+e^g); valid for either sign of delta.
    log_l = softplus(g) - softplus(g - delta)
    log_u = softplus(g + delta) - softplus(g)
    return log_l, log_u


def factor_range(bundle: PredictorBundle, pair: Pair = Pair.CROSS) -> BoundPair:
    """Odds-scale range of the mediator adjustment factor for one pair.

    Degenerate mediator effect gives the limit (1, 1) with a warning rather
    than an error: the factor is continuous there.
    """
    b0, b1 = bundle.outcome_parts(pair)
    delta = b1 - b0
    _warn_degenerate(
        delta, "mediator effect is numerically zero{rows}; adjustment factor collapses to 1"
    )
    log_l, log_u = _log_factor_range(delta, bundle.mediator_part(pair))
    return BoundPair(np.exp(log_l), np.exp(log_u))


def log_bound_endpoints(bundle: PredictorBundle) -> np.ndarray:
    """(NDE lower, NDE upper, NIE lower, NIE upper) on the log scale, shape (..., 4).

    Each effect combines per-pair factor extremes: the NDE divides the cross
    pair by the reference pair, the NIE the active pair by the cross pair.
    """
    d_x = bundle.y_active_m1 - bundle.y_active_m0
    d_xs = bundle.y_ref_m1 - bundle.y_ref_m0
    _warn_degenerate(
        np.minimum(np.abs(d_x), np.abs(d_xs)),
        "mediator effect is numerically zero at some exposure level{rows}; "
        "bounds collapse to their continuous limits",
    )
    g_x, g_xs = bundle.m_active, bundle.m_ref

    cross_l, cross_u = _log_factor_range(d_x, g_xs)
    active_l, active_u = _log_factor_range(d_x, g_x)
    ref_l, ref_u = _log_factor_range(d_xs, g_xs)

    base = bundle.y_active_m0 - bundle.y_ref_m0
    return np.stack(
        [base + cross_l - ref_u, base + cross_u - ref_l, active_l - cross_u, active_u - cross_l], axis=-1
    )


def effect_bounds(bundle: PredictorBundle) -> EffectBounds:
    """Closed-form identification bounds for NDE, NIE and TE (log scale).

    The NDE and NIE endpoints come from ``log_bound_endpoints``; the TE
    bounds add them componentwise. The shift-zero point estimates are
    attached and always lie inside.
    """
    nde_lo, nde_hi, nie_lo, nie_hi = np.moveaxis(log_bound_endpoints(bundle), -1, 0)
    nde = BoundPair(nde_lo, nde_hi)
    nie = BoundPair(nie_lo, nie_hi)
    te = BoundPair(nde.lower + nie.lower, nde.upper + nie.upper)
    return EffectBounds(nde=nde, nie=nie, te=te, point=point_effects(bundle))


def sensitivity_curve(bundle: PredictorBundle, shifts) -> SensitivityCurve:
    """Trace shared-shift effects and the sensitivity probability on a grid."""
    shifts = np.asarray(shifts, dtype=float)
    effects = shifted_effects(bundle, shifts)
    return SensitivityCurve(
        shifts=shifts,
        nde=effects.nde,
        nie=effects.nie,
        te=effects.te,
        probabilities=sensitivity_probability(bundle, shifts),
    )
