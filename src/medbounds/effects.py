"""Point-identified natural effects on the log odds-ratio scale.

Everything downstream of model fitting is a function of six linear
predictors: the outcome predictor at (active, reference) exposure crossed
with mediator 0/1, and the mediator predictor at both exposure levels.
``PredictorBundle`` carries that 6-vector together with the covariance of
its estimator, in a fixed component order that the delta-method code
indexes against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .glm import FittedGlm, Point

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


def softplus(z: float | np.ndarray) -> float | np.ndarray:
    """log(1 + e^z), stable for large |z|; elementwise."""
    return np.logaddexp(0.0, z)


def expit(z: float | np.ndarray) -> float | np.ndarray:
    """Logistic function 1 / (1 + e^-z), without overflow for large |z|; elementwise."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


def scalar_or_array(x) -> float | np.ndarray:
    """A Python float for a single value, a float array for a batch."""
    a = np.asarray(x, dtype=float)
    return float(a) if a.ndim == 0 else a


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


@dataclass(frozen=True)
class PredictorBundle:
    """Six linear predictors and the covariance of their estimator.

    Component order (fixed; the uncertainty module differentiates against it):
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
        st = np.swapaxes(s, -1, -2)
        scale = np.maximum(1.0, np.abs(s).max(axis=(-2, -1)))
        asymmetric = np.abs(s - st).max(axis=(-2, -1)) > 1e-10 * scale
        if np.any(asymmetric):
            raise ValueError(f"bundle covariance is not symmetric{failing_rows(asymmetric)}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "cov", 0.5 * (s + st))

    # readable accessors for the fixed ordering; ``values.T[i]`` is component
    # i of every row (a number for a single bundle)
    @property
    def y_active_m0(self) -> float | np.ndarray:
        return self.values.T[0]

    @property
    def y_ref_m0(self) -> float | np.ndarray:
        return self.values.T[1]

    @property
    def y_active_m1(self) -> float | np.ndarray:
        return self.values.T[2]

    @property
    def y_ref_m1(self) -> float | np.ndarray:
        return self.values.T[3]

    @property
    def m_active(self) -> float | np.ndarray:
        return self.values.T[4]

    @property
    def m_ref(self) -> float | np.ndarray:
        return self.values.T[5]

    def outcome_parts(self, pair: Pair) -> tuple[float | np.ndarray, float | np.ndarray]:
        """(m=0, m=1) outcome predictors at the pair's outcome level."""
        if pair is Pair.REFERENCE:
            return self.y_ref_m0, self.y_ref_m1
        return self.y_active_m0, self.y_active_m1

    def mediator_part(self, pair: Pair) -> float | np.ndarray:
        """Mediator predictor at the pair's mediator level."""
        return self.m_active if pair is Pair.ACTIVE else self.m_ref


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


def mediator_posterior_logit(
    bundle: PredictorBundle, y: int, pair: Pair = Pair.CROSS
) -> float | np.ndarray:
    """Logit of the mediator being 1 given the outcome took value ``y``.

    This is the retrospective (Bayes-flipped) mediator probability inside the
    chosen pair's counterfactual world; the two single-world pairs reuse the
    same algebra with matched exposure levels.
    """
    if y not in (0, 1):
        raise ValueError("y must be 0 or 1")
    b0, b1 = bundle.outcome_parts(pair)
    g = bundle.mediator_part(pair)
    return y * (b1 - b0) + softplus(b0) - softplus(b1) + g


def counterfactual_outcome_logit(bundle: PredictorBundle, pair: Pair = Pair.CROSS) -> float | np.ndarray:
    """Logit of the outcome under the pair's (exposure, mediator-world) setting.

    For the single-world pairs this reduces to the logit of the observational
    outcome probability marginalized over the mediator.
    """
    b0, _ = bundle.outcome_parts(pair)
    g1 = mediator_posterior_logit(bundle, 1, pair)
    g0 = mediator_posterior_logit(bundle, 0, pair)
    return b0 + softplus(g1) - softplus(g0)


def point_effects(bundle: PredictorBundle) -> EffectTriple:
    """Natural effects under the full identification assumption set."""
    nde = counterfactual_outcome_logit(bundle, Pair.CROSS) - counterfactual_outcome_logit(
        bundle, Pair.REFERENCE
    )
    nie = counterfactual_outcome_logit(bundle, Pair.ACTIVE) - counterfactual_outcome_logit(
        bundle, Pair.CROSS
    )
    return EffectTriple.from_parts(nde, nie)
