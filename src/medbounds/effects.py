"""Natural effects on the log odds-ratio scale, from bundle to effects.

Everything downstream of model fitting is a function of six linear
predictors: the outcome predictor at (active, reference) exposure crossed
with mediator 0/1, and the mediator predictor at both exposure levels.
``PredictorBundle`` carries that 6-vector together with the covariance of
its estimator, in a fixed component order; ``PAIR_COMPONENTS`` maps each
(outcome-level, mediator-level) pair to the components it reads.

This module holds the one chain from a bundle to the effects at an
outcome-logit shift (see ``bounds``), on the probability scale: per outcome
level the ratio R = (1 + e^(s+b0)) / (1 + e^(s+b1)) from positive terms only
(``level_ratio``), per pair the log adjustment factor on the side where
expm1 stays finite (``log_factor``), the sensitivity probability
(``stay_probability``) and the NDE/NIE rule (``nde_nie``, which
``combine_effects`` applies to bound extremes). Its domain is stated by
``MAX_EXPONENT``: |mediator effect| <= 709, while any finite mediator
predictor and shift give finite numbers. The point estimates are the chain
at shift 0, so they equal ``bounds.shifted_effects(bundle, 0.0)`` by
construction.

Independent routes check each part: the log-scale softplus chain, kept as
the test reference in ``tests/test_effects.py``, the ratios (through the
shifted posterior logits), factors, effects and sensitivity probability;
the mediation formula (``scm.mediation_formula_logit``) every pair's factor
at shift 0; exact enumeration (acceptance criterion 3) the point effects;
and the log-scale bound algebra in ``bounds``, which shares only
``nde_nie`` with this chain, contains every shifted effect.
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


# the effect chain forms e^|delta| of each mediator effect delta, so its
# domain is |delta| <= 709: e^709 is near the top of float64
MAX_EXPONENT = 709.0


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
    ``scm`` take single bundles. A non-finite predictor or covariance entry
    is a ValueError naming its rows, so no NaN reaches the algebra.
    """

    values: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        s = np.asarray(self.cov, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] != 6 or s.shape != v.shape[:-1] + (6, 6):
            raise ValueError("bundle needs 6 predictors and a 6x6 covariance per row")
        finite = np.isfinite(v).all(axis=-1) & np.isfinite(s).all(axis=(-2, -1))
        if not finite.all():
            raise ValueError(f"bundle predictors or covariance are not finite{failing_rows(~finite)}")
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


def _check_domain(delta, axis=()) -> None:
    """Raise ValueError naming the rows in which (over ``axis`` as well) a
    mediator effect is past the chain's domain |delta| <= 709, where
    e^|delta| is finite."""
    beyond = np.abs(delta) > MAX_EXPONENT
    if beyond.any():
        raise ValueError(
            f"mediator effects up to {np.abs(delta).max():.6g} in magnitude"
            f"{failing_rows(beyond.any(axis=axis))}; the effect chain's domain is "
            f"|mediator effect| <= {MAX_EXPONENT:g} (float64 overflow)"
        )


def level_ratio(shift, b1, delta, g=0.0) -> np.ndarray:
    """rho = R e^(min(delta, 0) + min(g, 0)) of an outcome level with m=1
    outcome predictor ``b1``, mediator effect ``delta`` and mediator
    predictor ``g`` (0 leaves out its scale) when the outcome logit carries
    ``shift``; elementwise, and an array also for a single value.

    R = (1 + e^(s+b0)) / (1 + e^(s+b1)) lies between 1 and e^-delta, so
    R e^min(delta, 0) lies in [c, 1] with c = e^-|delta|: it is
    c + (1 - c) n / (n + m) with t = sign(delta) (s + b1), n = e^-max(t, 0)
    and m = e^min(t, 0). Only positive terms are summed, one of n and m is 1,
    and e^(s+b1) is never formed, so no shift overflows. The scale e^min(g, 0)
    rides on the last two steps, and lets ``log_factor`` and
    ``stay_probability`` add e^-max(g, 0) where e^-g would overflow.
    """
    # two buffers of the result's shape, updated in place: fresh temporaries
    # the size of a shift grid cost more than the arithmetic on them
    t = np.asarray(shift + b1)
    t *= np.copysign(1.0, delta)
    m = np.minimum(t, 0.0, out=np.empty_like(t))
    np.exp(m, out=m)
    n = np.exp(np.minimum(np.negative(t, out=t), 0.0, out=t), out=t)
    m += n
    n /= m
    scale = np.exp(np.minimum(g, 0.0))
    n *= -np.expm1(-np.abs(delta)) * scale
    n += np.exp(-np.abs(delta)) * scale
    return n


def log_factor(rho, delta, g, out=None) -> np.ndarray:
    """Log mediator adjustment factor of a pair with ratio ``rho`` (from
    ``level_ratio`` with its ``g``), mediator effect ``delta`` and mediator
    predictor ``g``; elementwise.

    softplus(l + delta) - softplus(l) = log1p(expm1(delta) expit(l)) at the
    y=0 posterior logit l = g + log R. It is taken at l for delta >= 0, and at
    l + delta with the sign swapped for delta < 0, so that expm1 sees |delta|
    and stays finite: sign(delta) log1p(expm1|delta| sigma) with
    sigma = expit(l + min(delta, 0)) = rho / (rho + e^-max(g, 0)), as rho
    carries the e^min(delta, 0) that switches the side and the e^min(g, 0)
    that keeps the sum finite. As for a ufunc, ``out`` may be ``rho`` itself.
    """
    den = np.add(rho, np.exp(-np.maximum(g, 0.0)), out=np.empty_like(rho))
    f = np.divide(rho, den, out=den if out is None else out)
    f *= np.expm1(np.abs(delta))
    np.log1p(f, out=f)
    f *= np.sign(delta)
    return f


def stay_probability(rho, delta, g) -> np.ndarray:
    """A pair's y=0 posterior probability of mediator 0, expit(-(g + log R)) =
    1 / (1 + R e^g) = w / (rho + w) with w = e^(min(delta, 0) - max(g, 0)),
    from its ratio ``rho`` (``level_ratio`` with its ``g``); elementwise."""
    w = np.exp(np.minimum(delta, 0.0) - np.maximum(g, 0.0))
    p = np.add(rho, w, out=np.empty_like(rho))
    return np.divide(w, p, out=p)


def nde_nie(y0, first, second) -> tuple:
    """(NDE, NIE) from per-pair m=0 outcome predictors y0 and log factors (or
    their partials) in ``Pair`` order: NDE = base + cross - reference with
    base = y0 cross - y0 reference, and NIE = active - cross, the added terms
    read from ``first`` and the subtracted ones from ``second``."""
    (y0_cross, _, y0_ref), (cross, active, _), (cross_second, _, ref) = y0, first, second
    return y0_cross - y0_ref + cross - ref, active - cross_second


def combine_effects(y0, lower, upper) -> tuple:
    """(NDE lower, NDE upper, NIE lower, NIE upper) from per-pair log-factor
    extremes (or their partials): a lower endpoint adds lower extremes and
    subtracts upper ones."""
    (nde_l, nie_l), (nde_u, nie_u) = nde_nie(y0, lower, upper), nde_nie(y0, upper, lower)
    return nde_l, nde_u, nie_l, nie_u


def pair_ratios(bundle: PredictorBundle, shift) -> tuple:
    """(m=0 outcome predictor, mediator effect, mediator predictor, ratio) of
    every pair when the outcome logit carries ``shift``, on a leading axis in
    ``Pair`` order; an array of shifts broadcasts against the bundle's rows.
    A row whose mediator effect is past the chain's domain (``MAX_EXPONENT``)
    raises ValueError, and so does the whole batch.
    """
    y0, y1, g = bundle.values.T[PAIR_INDEX]  # each pair x rows
    delta = y1 - y0
    _check_domain(delta, axis=0)
    # unit axes after the pair axis, so that these broadcast against the shift as the rows do
    shape = y0.shape[:1] + (1,) * max(np.ndim(shift) - (y0.ndim - 1), 0) + y0.shape[1:]
    y0, y1, g, delta = (a.reshape(shape) for a in (y0, y1, g, delta))
    return y0, delta, g, level_ratio(shift, y1, delta, g)


def effects_of(y0, delta, g, rho) -> EffectTriple:
    """Effects from every pair's terms (``pair_ratios``). The log factors
    overwrite the ratios ``rho``: CROSS and ACTIVE read the same outcome
    level, but forming its ratio once and copying it costs a third grid
    buffer, which was no faster and raised the peak memory of a curve."""
    factors = log_factor(rho, delta, g, out=rho)
    return EffectTriple.from_parts(*nde_nie(y0, factors, factors))


def effects_at(bundle: PredictorBundle, shift) -> EffectTriple:
    """Effects when the outcome logit carries ``shift``; an array of shifts
    broadcasts against the bundle's rows."""
    return effects_of(*pair_ratios(bundle, shift))


def pair_terms(bundle: PredictorBundle, pair: Pair) -> tuple:
    """(m=0 outcome predictor, m=1 outcome predictor, mediator effect,
    mediator predictor) of one pair, read through ``PAIR_COMPONENTS``; a
    mediator effect past the chain's domain raises ValueError."""
    (b0, b1), g = bundle.outcome_parts(pair), bundle.mediator_part(pair)
    delta = b1 - b0
    _check_domain(delta)
    return b0, b1, delta, g


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
    _, b1, delta, g = pair_terms(bundle, pair)
    # g + log R, with log R = log rho - min(delta, 0) for the ratio without g's scale
    return scalar_or_array(y * delta + g + np.log(level_ratio(shift, b1, delta)) - np.minimum(delta, 0.0))


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
    b0, b1, delta, g = pair_terms(bundle, pair)
    return scalar_or_array(b0 + log_factor(level_ratio(0.0, b1, delta, g), delta, g))


def point_effects(bundle: PredictorBundle) -> EffectTriple:
    """Natural effects under the full identification assumption set."""
    return effects_at(bundle, 0.0)
