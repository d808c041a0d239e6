"""Natural effects on the log odds-ratio scale, from bundle to effects.

Everything downstream of model fitting is a function of six linear
predictors: the outcome predictor at (active, reference) exposure crossed
with mediator 0/1, and the mediator predictor at both exposure levels.
``PredictorBundle`` carries that 6-vector together with the covariance of
its estimator, in a fixed component order; ``PAIR_COMPONENTS`` maps each
(outcome-level, mediator-level) pair to the components it reads.

This module holds the one chain from a bundle to the effects at an
outcome-logit shift (see ``bounds``): each pair's y=0 mediator posterior
logit, its log adjustment factor, and the NDE/NIE combination rule. The
point estimates are that chain at shift 0, so they equal
``bounds.shifted_effects(bundle, 0.0)`` by construction. Acceptance
criterion 3 (exact enumeration), criterion 6 and
``test_mediation_formula_identity_everywhere`` check them independently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .glm import FittedGlm, Point, softplus

__all__ = [
    "Contrast",
    "PredictorBundle",
    "EffectTriple",
    "Pair",
    "predictor_bundle",
    "mediator_posterior_logit",
    "counterfactual_outcome_logit",
    "point_effects",
]


def expit(z: float | np.ndarray) -> float | np.ndarray:
    """Logistic function 1 / (1 + e^-z), without overflow for large |z|; elementwise."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


def scalar_or_array(x) -> float | np.ndarray:
    """A Python float for a single value, a float array for a batch."""
    a = np.asarray(x, dtype=float)
    return float(a) if a.ndim == 0 else a


def symmetrized(s: np.ndarray, what: str) -> np.ndarray:
    """``(s + s') / 2`` over the last two axes; a ValueError names ``what`` and
    the rows whose asymmetry exceeds 1e-10 of their largest entry (at least 1)."""
    st = np.swapaxes(s, -1, -2)
    scale = np.maximum(1.0, np.abs(s).max(axis=(-2, -1)))
    asymmetric = np.abs(s - st).max(axis=(-2, -1)) > 1e-10 * scale
    if np.any(asymmetric):
        raise ValueError(f"{what} is not symmetric{failing_rows(asymmetric)}")
    return 0.5 * (s + st)


def failing_rows(bad) -> str:
    """Where a row-wise check failed: '' for a single row, ' in row i' for a batch."""
    if np.ndim(bad) == 0:
        return ""
    rows = np.flatnonzero(bad)
    more = f" and {rows.size - 1} more" if rows.size > 1 else ""
    return f" in row {rows[0]}{more}"


@dataclass(frozen=True)
class Contrast:
    """An exposure shift (reference -> active) at a fixed covariate profile."""

    active: float
    reference: float
    profile: Mapping[str, float]


class Pair(enum.Enum):
    """Which (outcome-level, mediator-level) combination a quantity refers to.

    CROSS pairs the active outcome world with the reference mediator world;
    ACTIVE and REFERENCE are the two single-world cases.
    """

    CROSS = "cross"
    ACTIVE = "active"
    REFERENCE = "reference"


# The bundle components each pair reads: (outcome at m=0, outcome at m=1,
# mediator predictor), at the pair's outcome and mediator levels.
PAIR_COMPONENTS = {
    Pair.CROSS: (0, 2, 5),
    Pair.ACTIVE: (0, 2, 4),
    Pair.REFERENCE: (1, 3, 5),
}
# The same per pair in ``Pair`` order: ``values.T[PAIR_INDEX]`` is (m=0
# outcome, m=1 outcome, mediator) x pair x rows
PAIR_INDEX = np.array([PAIR_COMPONENTS[pair] for pair in Pair]).T


@dataclass(frozen=True)
class PredictorBundle:
    """Six linear predictors and the covariance of their estimator.

    Component order (fixed; ``PAIR_COMPONENTS`` indexes against it):
    outcome at (active, m=0), (reference, m=0), (active, m=1),
    (reference, m=1), then mediator at active and at reference.

    A single bundle has values (6,) and covariance (6, 6); a batch of N has
    (N, 6) and (N, 6, 6). The closed forms here and in ``bounds`` and
    ``uncertainty`` accept both and answer row by row; the oracles in
    ``scm`` take single bundles.
    """

    values: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        s = np.asarray(self.cov, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] != 6 or s.shape != v.shape[:-1] + (6, 6):
            raise ValueError("bundle needs 6 predictors and a 6x6 covariance per row")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "cov", symmetrized(s, "bundle covariance"))

    def outcome_parts(self, pair: Pair) -> tuple[float | np.ndarray, float | np.ndarray]:
        """(m=0, m=1) outcome predictors at the pair's outcome level."""
        i0, i1, _ = PAIR_COMPONENTS[pair]
        return self.values.T[i0], self.values.T[i1]

    def mediator_part(self, pair: Pair) -> float | np.ndarray:
        """Mediator predictor at the pair's mediator level."""
        return self.values.T[PAIR_COMPONENTS[pair][2]]


@dataclass(frozen=True)
class EffectTriple:
    """Natural direct, indirect and total effects (log odds-ratios).

    Constructed so the total is exactly the sum of the other two. Fields are
    floats for a single bundle and arrays for a batch.
    """

    nde: float
    nie: float
    te: float

    @classmethod
    def from_parts(cls, nde, nie) -> "EffectTriple":
        nde, nie = scalar_or_array(nde), scalar_or_array(nie)
        return cls(nde=nde, nie=nie, te=nde + nie)


def predictor_bundle(
    outcome_model: FittedGlm,
    mediator_model: FittedGlm,
    contrast: Contrast | Sequence[Contrast],
) -> PredictorBundle:
    """Evaluate both models at the six contrast points and propagate covariance.

    A single ``Contrast`` gives a single bundle; a sequence of contrasts
    gives a batch with one row per contrast, from one design evaluation per
    model. The two coefficient vectors are treated as uncorrelated (separate
    likelihoods), so each row's covariance is A diag(covY, covM) A' with A
    stacking its six design rows.
    """
    single = isinstance(contrast, Contrast)
    contrasts = [contrast] if single else list(contrast)
    n = len(contrasts)
    if n == 0:
        return PredictorBundle(values=np.zeros((0, 6)), cov=np.zeros((0, 6, 6)))
    active = np.array([c.active for c in contrasts], dtype=float)
    reference = np.array([c.reference for c in contrasts], dtype=float)
    # a covariate missing from any profile stays missing, so a design that
    # needs it fails as it would for that contrast alone
    names = set.intersection(*(set(c.profile) for c in contrasts))
    profile = {k: np.array([c.profile[k] for c in contrasts], dtype=float) for k in sorted(names)}

    def tiled(k):
        return {name: np.tile(v, k) for name, v in profile.items()}

    levels = np.concatenate([active, reference])
    pts_y = Point(np.tile(levels, 2), np.repeat([0.0, 1.0], 2 * n), tiled(4))
    pts_m = Point(levels, None, tiled(2))
    # (N, 4, ky) and (N, 2, km): design rows in bundle component order
    ky, km = len(outcome_model.coefficients), len(mediator_model.coefficients)
    X_y = outcome_model.design.evaluate(pts_y, 4 * n).reshape(4, n, ky).swapaxes(0, 1)
    X_m = mediator_model.design.evaluate(pts_m, 2 * n).reshape(2, n, km).swapaxes(0, 1)
    values = np.concatenate(
        [X_y @ outcome_model.coefficients, X_m @ mediator_model.coefficients], axis=-1
    )
    cov = np.zeros((n, 6, 6))
    cov[:, :4, :4] = X_y @ outcome_model.covariance @ X_y.swapaxes(-1, -2)
    cov[:, 4:, 4:] = X_m @ mediator_model.covariance @ X_m.swapaxes(-1, -2)
    if single:
        return PredictorBundle(values=values[0], cov=cov[0])
    return PredictorBundle(values=values, cov=cov)


def posterior_logits0(bundle: PredictorBundle, shift, pairs=tuple(Pair)) -> dict:
    """Each pair's y=0 mediator posterior logit when the outcome logit carries
    ``shift``, with one softplus(s + b0) - softplus(s + b1) per outcome level
    (CROSS and ACTIVE share one). An array of shifts broadcasts against rows."""
    v, by_level, logits = bundle.values.T, {}, {}
    for pair in pairs:
        i0, i1, ig = PAIR_COMPONENTS[pair]
        if (i0, i1) not in by_level:
            by_level[i0, i1] = softplus(shift + v[i0]) - softplus(shift + v[i1])
        logits[pair] = by_level[i0, i1] + v[ig]
    return logits


def log_factor(logit0, delta):
    """Log mediator adjustment factor of a pair with y=0 posterior logit
    ``logit0`` and mediator effect ``delta``."""
    return softplus(logit0 + delta) - softplus(logit0)


def combine_effects(y0, lower, upper) -> tuple:
    """(NDE lower, NDE upper, NIE lower, NIE upper) from per-pair m=0 outcome
    predictors y0 and log-factor extremes (or their partials), in ``Pair`` order:
    NDE = base + cross - reference, base = y0 cross - y0 reference; NIE = active - cross."""
    (y0_cross, _, y0_ref), (cross_l, active_l, ref_l), (cross_u, active_u, ref_u) = y0, lower, upper
    base = y0_cross - y0_ref
    return base + cross_l - ref_u, base + cross_u - ref_l, active_l - cross_u, active_u - cross_l


def effects_at(bundle: PredictorBundle, logits0: dict) -> EffectTriple:
    """Effects from each pair's y=0 posterior logit (a point: lower = upper)."""
    y0, y1, _ = bundle.values.T[PAIR_INDEX]
    factors = [log_factor(logits0[p], d) for p, d in zip(Pair, y1 - y0)]
    nde, _, nie, _ = combine_effects(y0, factors, factors)
    return EffectTriple.from_parts(nde, nie)


def shifted_posterior_logit(
    bundle: PredictorBundle, shift: float | np.ndarray, y: int, pair: Pair = Pair.CROSS
) -> float | np.ndarray:
    """Retrospective mediator logit when the outcome logit carries a shift.

    At shift 0 this is ``mediator_posterior_logit``; as the shift runs to
    -inf/+inf it saturates at the mediator predictor and at the mediator
    predictor minus the mediator effect, respectively. An array of shifts
    broadcasts against the bundle's rows.
    """
    if y not in (0, 1):
        raise ValueError("y must be 0 or 1")
    b0, b1 = bundle.outcome_parts(pair)
    return y * (b1 - b0) + posterior_logits0(bundle, shift, (pair,))[pair]


def mediator_posterior_logit(
    bundle: PredictorBundle, y: int, pair: Pair = Pair.CROSS
) -> float | np.ndarray:
    """Logit of the mediator being 1 given the outcome took value ``y``.

    This is the retrospective (Bayes-flipped) mediator probability inside the
    chosen pair's counterfactual world; the two single-world pairs reuse the
    same algebra with matched exposure levels.
    """
    return shifted_posterior_logit(bundle, 0.0, y, pair)


def counterfactual_outcome_logit(bundle: PredictorBundle, pair: Pair = Pair.CROSS) -> float | np.ndarray:
    """Logit of the outcome under the pair's (exposure, mediator-world) setting.

    For the single-world pairs this reduces to the logit of the observational
    outcome probability marginalized over the mediator.
    """
    b0, b1 = bundle.outcome_parts(pair)
    return b0 + log_factor(posterior_logits0(bundle, 0.0, (pair,))[pair], b1 - b0)


def point_effects(bundle: PredictorBundle) -> EffectTriple:
    """Natural effects under the full identification assumption set."""
    return effects_at(bundle, posterior_logits0(bundle, 0.0))
