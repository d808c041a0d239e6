"""Identification bounds for natural effects under relaxed assumptions.

When outcome-related confounding cannot be ruled out, the conditional
counterfactual outcome logit is only known up to an additive shift. The
shift enters every effect expression through a single monotone factor per
(outcome-level, mediator-level) pair, and that factor is a straight line in
a bounded retrospective probability, which yields closed-form lower/upper
bounds for the direct, indirect and total effects. The shifted effects,
the sensitivity probability and curve, and the point estimates of the
stronger assumption set all run through the one probability-scale chain in
``effects`` (``effect_chain``), so shift zero gives the point estimates by
construction, and all share its domain |mediator effect| <= 709 at every
pair. The bound algebra here stays on the log scale (softplus and expit of
the mediator predictor and effect), so the containment of every shifted
effect in its bound compares two routes that share only the NDE/NIE
combination rule; the grid sweep ``scm.sweep_bounds`` checks the bounds
with code of its own.

Each endpoint combines per-pair log-factor extremes, and each extreme
depends on one pair's mediator effect and mediator predictor only; the same
combination rule applied to their partial derivatives gives the jacobian.
One pass per bundle gives both, and is kept on the bundle, so that
``effect_bounds`` and ``uncertainty.bound_covariance`` on one bundle share
it; only ``effect_bounds`` warns of a numerically zero mediator effect.
"""

from __future__ import annotations

import warnings

import numpy as np

from .effects import (
    PAIR_INDEX,
    EffectTriple,
    Pair,
    PredictorBundle,
    combine_effects,
    effect_chain,
    expit,
    failing_rows,
    point_effects,
    scalar_or_array,
)
from .errors import DegenerateMediatorError, DegenerateMediatorWarning
from .glm import softplus
from .record import Record

__all__ = [
    "BoundPair",
    "EffectBounds",
    "SensitivityCurve",
    "DELTA_EPS",
    "sensitivity_probability",
    "sensitivity_probability_range",
    "factor_range",
    "effect_bounds",
    "sensitivity_curve",
]

DELTA_EPS = 1e-10  # below this the mediator effect counts as degenerate

# Gradients w.r.t. the bundle of each pair's (m=0 outcome, m=1 outcome,
# mediator) predictors, each (pair, 6)
_D_Y0, _D_Y1, _D_G = np.eye(6)[PAIR_INDEX]
_D_INPUTS = np.stack([_D_Y1 - _D_Y0, _D_G])  # of (delta, g), (2, pair, 6)


class BoundPair(Record):
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


class EffectBounds(Record):
    """Log-scale identification bounds plus the shift-zero point estimates."""

    nde: BoundPair
    nie: BoundPair
    te: BoundPair
    point: EffectTriple


class SensitivityCurve(Record):
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


def sensitivity_probability(bundle: PredictorBundle, shift: float | np.ndarray) -> float | np.ndarray:
    """The bounded retrospective probability indexing the sensitivity analysis.

    P(mediator stays 0 in the reference world | outcome 0 in the cross world);
    monotone in the shift whenever the mediator effect is nonzero. The
    probability row of ``effects.effect_chain``, so a mediator effect past
    its domain (|mediator effect| <= 709) at any pair, not only the cross
    pair, raises its ValueError.
    """
    return scalar_or_array(effect_chain(bundle, shift)[3])


def sensitivity_probability_range(bundle: PredictorBundle) -> BoundPair:
    """Open interval the sensitivity probability can range over."""
    b0, b1 = bundle.outcome_parts(Pair.ACTIVE)
    delta = b1 - b0
    degenerate = np.abs(delta) < DELTA_EPS
    if np.any(degenerate):
        raise DegenerateMediatorError(
            f"mediator effect is numerically zero{failing_rows(degenerate)}; the sensitivity "
            "probability range collapses and bounds are not defined"
        )
    g = bundle.mediator_part(Pair.CROSS)
    at_minus_inf = expit(-g)
    at_plus_inf = expit(delta - g)
    # the probability is monotone in the shift, increasing when delta > 0
    return BoundPair(np.minimum(at_minus_inf, at_plus_inf), np.maximum(at_minus_inf, at_plus_inf))


def _log_factor_range(delta, g) -> tuple:
    """((log l, log u), partials) of pairs with mediator effect delta and predictor g.

    The straight-line extremes are l = (1+e^g)/(1+e^{g-delta}) and
    u = (1+e^{g+delta})/(1+e^g), for either sign of delta; the partials are
    the (d/d delta, d/dg) of log l and of log u.
    """
    z = g + np.multiply.outer([-1.0, 0.0, 1.0], delta)  # g - delta, g, g + delta
    sp, e = softplus(z), expit(z)
    return (sp[1] - sp[0], sp[2] - sp[1]), ((e[0], e[1] - e[0]), (e[2], e[2] - e[1]))


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
    (log_l, log_u), _ = _log_factor_range(delta, bundle.mediator_part(pair))
    return BoundPair(np.exp(log_l), np.exp(log_u))


def _log_bounds(bundle: PredictorBundle) -> tuple:
    """Log bound endpoints (..., 4) and their jacobian (..., 6, 4), read-only;
    warns nothing. One pass per bundle, kept on it for every later call."""
    if bundle._bound_pass is None:
        y0, y1, g = bundle.values.T[PAIR_INDEX]  # each (pair, ...)
        extremes, partials = _log_factor_range(y1 - y0, g)
        # the chain rule through each pair's (delta, g): partials (pair, ..., 6)
        grads = [np.einsum("kp...,kpi->p...i", partial, _D_INPUTS) for partial in partials]
        ends = np.array(combine_effects(y0, *extremes)).T
        jacobian = np.stack(combine_effects(_D_Y0, *grads), axis=-1)
        ends.flags.writeable = jacobian.flags.writeable = False
        object.__setattr__(bundle, "_bound_pass", (ends, jacobian))
    return bundle._bound_pass


def effect_bounds(bundle: PredictorBundle) -> EffectBounds:
    """Closed-form identification bounds for NDE, NIE and TE (log scale).

    The TE bounds add the NDE and NIE endpoints componentwise; the attached
    shift-zero point estimates always lie inside. One warning, naming the
    rows, reports a numerically zero mediator effect at some exposure level.
    """
    y0, y1, _ = bundle.values.T[PAIR_INDEX]
    _warn_degenerate(
        np.abs(y1 - y0).min(axis=0),
        "mediator effect is numerically zero at some exposure level{rows}; "
        "bounds collapse to their continuous limits",
    )
    nde_lo, nde_hi, nie_lo, nie_hi = _log_bounds(bundle)[0].T.copy()
    nde = BoundPair(nde_lo, nde_hi)
    nie = BoundPair(nie_lo, nie_hi)
    te = BoundPair(nde.lower + nie.lower, nde.upper + nie.upper)
    return EffectBounds(nde=nde, nie=nie, te=te, point=point_effects(bundle))


def sensitivity_curve(bundle: PredictorBundle, shifts) -> SensitivityCurve:
    """Trace shared-shift effects and the sensitivity probability on a grid.

    One pass of ``effects.effect_chain`` over blocks of the grid: 2 ``exp``
    and 3 ``log1p`` passes over the shifts, and the four fields are views of
    its one output array.
    """
    shifts = np.asarray(shifts, dtype=float)
    nde, nie, te, probabilities = (scalar_or_array(x) for x in effect_chain(bundle, shifts))
    return SensitivityCurve(shifts, nde, nie, te, probabilities)
