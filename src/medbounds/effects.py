"""Natural effects on the log odds-ratio scale, from bundle to effects.

Everything downstream of model fitting is a function of six linear
predictors: the outcome predictor at (active, reference) exposure crossed
with mediator 0/1, and the mediator predictor at both exposure levels.
``PredictorBundle`` carries that 6-vector together with the covariance of
its estimator, in a fixed component order; ``PAIR_INDEX`` (built from the
``PAIR_COMPONENTS`` literal) gives each (outcome-level, mediator-level) pair
the components it reads, and every route reads the bundle through it.

This module holds the one chain from a bundle to the effects at an
outcome-logit shift (see ``bounds``), on the probability scale: per outcome
level the core of the ratio R = (1 + e^(s+b0)) / (1 + e^(s+b1)) from
positive terms only (``ratio_core``), shared by CROSS and ACTIVE; per pair
its ratio (``pair_ratio``), the log adjustment factor on the side where
expm1 stays finite (``log_factor``) and the sensitivity probability
(``stay_probability``); and the NDE/NIE rule (``nde_nie``, which
``combine_effects`` applies to bound extremes). ``effect_chain`` forms the
coefficients of all pairs once per call (``ratio_scales``, ``factor_terms``,
``stay_weight``) and runs a shift grid in cache-sized blocks of ``BLOCK``
elements; a batch of rows is one block. It is the one route to the shifted
effects, the point estimates (``shifted_effects`` at shift 0) and the
sensitivity probability and curve (``bounds``), and its domain, for all of
them, is stated by ``MAX_EXPONENT``: |mediator effect| <= 709 at every
pair, while any finite mediator predictor and shift give finite numbers.

Independent routes check each part: the log-scale softplus chain, kept as
the test reference in ``tests/conftest.py``, the effects and the
sensitivity probability; a 60-digit ``decimal`` evaluation of the posterior
the sensitivity probability; the mediation formula
(``scm.mediation_formula_logit``) the point effects, as differences of its
pair logits (NDE = CROSS - REFERENCE, NIE = ACTIVE - CROSS, TE = ACTIVE -
REFERENCE); exact enumeration (acceptance criterion 3) the point effects;
and the log-scale bound algebra in ``bounds``, which shares only
``nde_nie`` with this chain, contains every shifted effect.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Mapping

import numpy as np

from .glm import FittedGlm, Point
from .record import Record

__all__ = [
    "Contrast",
    "PredictorBundle",
    "EffectTriple",
    "Pair",
    "predictor_bundle",
    "shifted_effects",
    "point_effects",
]


# the effect chain forms e^|delta| of each mediator effect delta, so its
# domain is |delta| <= 709: e^709 is near the top of float64
MAX_EXPONENT = 709.0
# elements per block of the effect chain: its three-row block buffer and the
# blocks of its outputs stay in a per-core L2 cache, where grid-sized
# buffers (800 KB each at 100,001 shifts) did not
BLOCK = 16_384


def expit(z: float | np.ndarray) -> float | np.ndarray:
    """Logistic function 1 / (1 + e^-z), without overflow for large |z|; elementwise."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


def scalar_or_array(x) -> float | np.ndarray:
    """A Python float for a single value, a float array for a batch."""
    a = np.asarray(x, dtype=float)
    return float(a) if a.ndim == 0 else a


@functools.lru_cache(maxsize=None)
def _mirrored(k: int) -> np.ndarray:
    """Flat indices of the strict upper triangle of a k x k matrix (row 0) and
    of the entries that mirror it (row 1)."""
    i, j = np.triu_indices(k, 1)
    pairs = np.array([i * k + j, j * k + i])
    pairs.flags.writeable = False  # one array serves every caller
    return pairs


def symmetrized(s: np.ndarray, what: str) -> np.ndarray:
    """``(s + s') / 2`` over the last two axes; a ValueError names ``what`` and
    the rows whose asymmetry exceeds 1e-10 of their largest entry (at least 1).

    The asymmetry is read from the strict upper triangle and its mirror, and
    the scale from the row's k*k entries as one axis."""
    k = s.shape[-1]
    flat = s.reshape(*s.shape[:-2], k * k)
    pairs = flat[..., _mirrored(k)]
    scale = np.maximum(1.0, np.abs(flat).max(axis=-1))
    asymmetric = np.abs(pairs[..., 0, :] - pairs[..., 1, :]).max(axis=-1) > 1e-10 * scale
    if asymmetric.any():
        raise ValueError(f"{what} is not symmetric{failing_rows(asymmetric)}")
    return 0.5 * (s + np.swapaxes(s, -1, -2))


def failing_rows(bad) -> str:
    """Where a row-wise check failed: '' for a single row, ' in row i' for a batch."""
    if np.ndim(bad) == 0:
        return ""
    rows = np.flatnonzero(bad)
    more = f" and {rows.size - 1} more" if rows.size > 1 else ""
    return f" in row {rows[0]}{more}"


class Contrast(Record):
    """An exposure shift (reference -> active) at a fixed covariate profile;
    or a grid of N such, when the fields (``active``, ``reference`` and each
    profile value) are numbers or 1-D arrays that broadcast to length N."""

    active: float | np.ndarray
    reference: float | np.ndarray
    profile: Mapping[str, float | np.ndarray]


class Pair(enum.Enum):
    """Which (outcome-level, mediator-level) combination a quantity refers to.

    CROSS pairs the active outcome world with the reference mediator world;
    ACTIVE and REFERENCE are the two single-world cases.
    """

    CROSS = "cross"
    ACTIVE = "active"
    REFERENCE = "reference"


# The bundle components each pair reads: (outcome at m=0, outcome at m=1,
# mediator predictor), at the pair's outcome and mediator levels. Only
# ``PAIR_INDEX`` is read at run time.
PAIR_COMPONENTS = {
    Pair.CROSS: (0, 2, 5),
    Pair.ACTIVE: (0, 2, 4),
    Pair.REFERENCE: (1, 3, 5),
}
# The same per pair in ``Pair`` order: ``values.T[PAIR_INDEX]`` is (m=0
# outcome, m=1 outcome, mediator) x pair x rows
PAIR_INDEX = np.array([PAIR_COMPONENTS[pair] for pair in Pair]).T
_CROSS, _REFERENCE = (list(Pair).index(pair) for pair in (Pair.CROSS, Pair.REFERENCE))
# Pairs with the same (m=0, m=1) outcome components share an outcome level
# (CROSS and ACTIVE): LEVEL_PAIRS holds one pair of each level and
# PAIR_LEVEL each pair's level, so ``x[LEVEL_PAIRS][PAIR_LEVEL]`` reads
# every pair's outcome level
_, LEVEL_PAIRS, PAIR_LEVEL = np.unique(PAIR_INDEX[:2].T, axis=0, return_index=True, return_inverse=True)
PAIR_LEVEL = PAIR_LEVEL.ravel()


class PredictorBundle(Record):
    """Six linear predictors and the covariance of their estimator.

    Component order (fixed; ``PAIR_INDEX`` indexes against it):
    outcome at (active, m=0), (reference, m=0), (active, m=1),
    (reference, m=1), then mediator at active and at reference.

    A single bundle (of a ``Contrast`` of numbers) has values (6,) and
    covariance (6, 6); a batch of N (of a grid of N) has (N, 6) and
    (N, 6, 6). The closed forms here and in ``bounds`` and ``uncertainty``
    accept both and answer row by row, and so do the point-wise oracles in
    ``scm`` (``mediation_formula_logit``, ``finite_difference_jacobian``);
    ``scm.sweep_bounds`` takes a single bundle. A non-finite predictor or
    covariance entry is a ValueError naming its rows, so no NaN reaches the
    algebra.

    Both arrays are read-only copies, so the one pass of the bound algebra
    that ``effect_bounds`` and ``bound_covariance`` share, kept on the
    bundle, cannot go stale. ``bound_covariance`` checks each row's
    covariance for positive semidefiniteness on every bundle but those of
    ``predictor_bundle`` that are PSD by construction.
    """

    values: np.ndarray
    cov: np.ndarray
    # set once, after construction, and by this package alone
    _bound_pass = None
    _psd_by_construction = False

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        s = np.asarray(self.cov, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] != 6 or s.shape != v.shape[:-1] + (6, 6):
            raise ValueError("bundle needs 6 predictors and a 6x6 covariance per row")
        finite = np.isfinite(v).all(axis=-1) & np.isfinite(s).all(axis=(-2, -1))
        if not finite.all():
            raise ValueError(f"bundle predictors or covariance are not finite{failing_rows(~finite)}")
        s = symmetrized(s, "bundle covariance")
        v.flags.writeable = s.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "cov", s)

    def outcome_parts(self, pair: Pair) -> tuple[float | np.ndarray, float | np.ndarray]:
        """(m=0, m=1) outcome predictors at the pair's outcome level."""
        i0, i1, _ = PAIR_INDEX[:, list(Pair).index(pair)]
        return self.values.T[i0], self.values.T[i1]

    def mediator_part(self, pair: Pair) -> float | np.ndarray:
        """Mediator predictor at the pair's mediator level."""
        return self.values.T[PAIR_INDEX[2, list(Pair).index(pair)]]


class EffectTriple(Record):
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
    contrast: Contrast,
) -> PredictorBundle:
    """Evaluate both models at the six contrast points and propagate covariance.

    A contrast of numbers gives a single bundle; one whose fields broadcast
    to a shape (N,) gives a batch of N rows, from one design evaluation per
    model. The two coefficient vectors are treated as uncorrelated (separate
    likelihoods), so each row's covariance is A diag(covY, covM) A' with A
    stacking its six design rows: positive semidefinite when both model
    covariances have no negative eigenvalue, and then ``bound_covariance``
    does not check it again.
    """
    fields = {"active": contrast.active, "reference": contrast.reference, **contrast.profile}
    shapes = {name: np.shape(v) for name, v in fields.items()}
    # the lengths of the array fields: none for a single contrast
    lengths = {s[0] for s in shapes.values() if s}
    if len(lengths - {1}) > 1 or any(len(s) > 1 for s in shapes.values()):
        named = ", ".join(f"{name} {s}" for name, s in shapes.items())
        raise ValueError(f"contrast fields must be numbers or 1-D arrays that broadcast, got shapes {named}")
    n = max(lengths - {1}, default=1)

    def column(v, k):  # a field broadcast to n values, repeated k times
        a = np.asarray(v, dtype=float)
        return np.full(n * k, a) if a.size == 1 else np.concatenate([a] * k)

    levels = np.concatenate([column(contrast.active, 1), column(contrast.reference, 1)])
    profile = {name: column(v, 4) for name, v in contrast.profile.items()}
    pts_y = Point(np.tile(levels, 2), np.repeat([0.0, 1.0], 2 * n), profile)
    pts_m = Point(levels, None, {name: v[: 2 * n] for name, v in profile.items()})
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
    bundle = PredictorBundle(values=values if lengths else values[0], cov=cov if lengths else cov[0])
    if min(outcome_model._min_eig, mediator_model._min_eig) >= 0.0:
        object.__setattr__(bundle, "_psd_by_construction", True)
    return bundle


def _check_domain(delta, axis) -> None:
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


def ratio_core(shift, b1, side, out=None, spare=None) -> np.ndarray:
    """kappa = n / (n + m) of an outcome level with m=1 outcome predictor
    ``b1`` and ``side`` = copysign(1, delta) of its mediator effect delta,
    when the outcome logit carries ``shift``, with t = side (s + b1),
    n = e^-max(t, 0) and m = e^min(t, 0); elementwise, and an array also for
    a single value.

    The level's ratio R = (1 + e^(s+b0)) / (1 + e^(s+b1)) lies between 1 and
    e^-delta, so R e^min(delta, 0) lies in [c, 1] with c = e^-|delta|: it is
    c + (1 - c) kappa (``pair_ratio``). Only positive terms are summed, one of
    n and m is 1, and e^(s+b1) is never formed, so no shift overflows. The
    other one is e^-|t|, so one ``exp`` gives both: kappa = e^-|t| / (1 +
    e^-|t|) where t > 0, else 1 / (1 + e^-|t|). The result goes to ``out``
    and ``spare`` is overwritten, both buffers of the result's shape, or
    fresh ones if not given.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(shift), np.shape(b1)))
    t = np.add(shift, b1, out=out)
    t *= side
    positive = t > 0.0
    e = np.abs(t, out=np.empty_like(t) if spare is None else spare)
    np.exp(np.negative(e, out=e), out=e)  # e^-|t|
    n = t  # e^-|t| where t > 0, else 1
    n.fill(1.0)
    np.copyto(n, e, where=positive)
    e += 1.0
    n /= e
    return n


def ratio_scales(delta, g) -> tuple:
    """(a, c) of pairs with mediator effect ``delta`` and mediator predictor
    ``g``, so that a pair's ratio is rho = a kappa + c = R e^(min(delta, 0) +
    min(g, 0)): a = (1 - e^-|delta|) e^min(g, 0) and c = e^-|delta|
    e^min(g, 0). The scale e^min(g, 0) lets ``log_factor`` and
    ``stay_probability`` add e^-max(g, 0) where e^-g would overflow."""
    scale = np.exp(np.minimum(g, 0.0))
    return -np.expm1(-np.abs(delta)) * scale, np.exp(-np.abs(delta)) * scale


def factor_terms(delta, g) -> tuple:
    """(sign(delta), e^-max(g, 0), expm1|delta|) of pairs with mediator effect
    ``delta`` and mediator predictor ``g``: the terms of ``log_factor``."""
    return np.sign(delta), np.exp(-np.maximum(g, 0.0)), np.expm1(np.abs(delta))


def stay_weight(delta, g):
    """w = e^(min(delta, 0) - max(g, 0)) of pairs with mediator effect
    ``delta`` and mediator predictor ``g``: the term of ``stay_probability``."""
    return np.exp(np.minimum(delta, 0.0) - np.maximum(g, 0.0))


def pair_ratio(kappa, scales, out) -> np.ndarray:
    """A pair's ratio rho = a kappa + c from its outcome level's ``kappa``
    (``ratio_core``) and its ``scales`` (a, c) (``ratio_scales``), into ``out``."""
    a, c = scales
    rho = np.multiply(kappa, a, out=out)
    rho += c
    return rho


def log_factor(rho, terms, spare=None) -> np.ndarray:
    """Log mediator adjustment factor of a pair with ratio ``rho``
    (``pair_ratio``) and its ``factor_terms``; elementwise, in place of
    ``rho``, with ``spare`` a buffer of its shape or a fresh one.

    softplus(l + delta) - softplus(l) = log1p(expm1(delta) expit(l)) at the
    y=0 posterior logit l = g + log R. It is taken at l for delta >= 0, and at
    l + delta with the sign swapped for delta < 0, so that expm1 sees |delta|
    and stays finite: sign(delta) log1p(expm1|delta| sigma) with
    sigma = expit(l + min(delta, 0)) = rho / (rho + e^-max(g, 0)), as rho
    carries the e^min(delta, 0) that switches the side and the e^min(g, 0)
    that keeps the sum finite.
    """
    sign, lift, gain = terms
    den = np.add(rho, lift, out=np.empty_like(rho) if spare is None else spare)
    f = np.divide(rho, den, out=rho)
    f *= gain
    np.log1p(f, out=f)
    f *= sign
    return f


def stay_probability(rho, w, out) -> np.ndarray:
    """A pair's y=0 posterior probability of mediator 0, expit(-(g + log R)) =
    1 / (1 + R e^g) = w / (rho + w), from its ratio ``rho`` (``pair_ratio``)
    and ``stay_weight`` w, into ``out``, which may be ``rho`` itself."""
    p = np.add(rho, w, out=out)
    return np.divide(w, p, out=p)


def nde_nie(base, first, second, out=(None, None)) -> tuple:
    """(NDE, NIE) from the NDE base (m=0 outcome predictor of CROSS minus
    that of REFERENCE) and per-pair log factors (or their partials) in
    ``Pair`` order: NDE = base + cross - reference and NIE = active - cross,
    the added terms read from ``first`` and the subtracted ones from
    ``second``. The NIE is formed first, so ``out`` (NDE, NIE) may be the
    CROSS and ACTIVE arrays of ``first``."""
    (cross, active, _), (cross_second, _, ref) = first, second
    nie = np.subtract(active, cross_second, out=out[1])
    nde = np.add(base, cross, out=out[0])
    nde -= ref
    return nde, nie


def combine_effects(y0, lower, upper) -> tuple:
    """(NDE lower, NDE upper, NIE lower, NIE upper) from per-pair m=0 outcome
    predictors y0 and log-factor extremes (or their partials), in ``Pair``
    order: a lower endpoint adds lower extremes and subtracts upper ones."""
    base = y0[_CROSS] - y0[_REFERENCE]
    (nde_l, nie_l), (nde_u, nie_u) = nde_nie(base, lower, upper), nde_nie(base, upper, lower)
    return nde_l, nde_u, nie_l, nie_u


def effect_chain(bundle: PredictorBundle, shift) -> np.ndarray:
    """NDE, NIE, TE and the sensitivity probability when the outcome logit
    carries ``shift``, stacked on a leading axis of four; an array of shifts
    broadcasts against the bundle's rows. A row whose mediator effect at any
    pair is past the chain's domain (``MAX_EXPONENT``) raises ValueError, and
    so does the whole batch.

    Each coefficient of all pairs, and the NDE base, is formed once per call
    as one (pair, ...) array. A shift grid then runs in blocks of about
    ``BLOCK`` elements along its leading axis: per block the ``ratio_core``
    of each outcome level (``LEVEL_PAIRS``), each pair's ratio from its
    level's core, the log factors of all pairs at once, and the NDE/NIE
    rule, written into the block of one preallocated output, and the CROSS
    pair's ``stay_probability`` from its ratio. A batch of rows
    runs as one block, as its terms run along that axis, and a scalar shift
    on a single bundle is a block of one.
    """
    parts = bundle.values.T[PAIR_INDEX]  # (m=0, m=1, mediator) x pair x rows
    delta = parts[1] - parts[0]
    _check_domain(delta, axis=0)
    shift = np.asarray(shift, dtype=float)
    rows = delta.shape[1:]
    shape = np.broadcast_shapes(shift.shape, rows)
    # unit axes after the pair axis, so that the terms broadcast against the
    # shift as the rows do, with at least the one axis the blocks run along
    lead = (1,) * (max(len(shape), 1) - len(rows))
    y0, y1, g = parts.reshape(parts.shape[:2] + lead + rows)
    delta = delta.reshape(delta.shape[:1] + lead + rows)
    b1, side = y1[LEVEL_PAIRS], np.copysign(1.0, delta[LEVEL_PAIRS])
    (a, c), terms = ratio_scales(delta, g), factor_terms(delta, g)
    base = y0[_CROSS] - y0[_REFERENCE]
    w = stay_weight(delta[_CROSS], g[_CROSS])

    out = np.empty((4,) + (shape or (1,)))
    n = out.shape[1]
    step = n if base.shape[0] > 1 else max(1, BLOCK // max(math.prod(out.shape[2:]), 1))
    spare = np.empty((len(Pair), min(step, n)) + out.shape[2:])
    shift_along = shift.ndim == out.ndim - 1 and shift.shape[0] > 1
    for start in range(0, n, step):
        block = slice(start, start + step)
        nde, nie, te = effects = out[:3, block]  # also the block's scratch
        rho = spare[:, : len(nde)]  # one row per pair, in ``Pair`` order
        kappa = ratio_core(shift[block] if shift_along else shift, b1, side, out=effects[:2], spare=rho[:2])
        for pair, level in enumerate(PAIR_LEVEL):
            pair_ratio(kappa[level], (a[pair], c[pair]), out=rho[pair])
        stay_probability(rho[_CROSS], w, out=out[3, block])
        factors = log_factor(rho, terms, spare=effects)
        nde_nie(base, factors, factors, out=(nde, nie))
        np.add(nde, nie, out=te)
    return out.reshape(out.shape[:1] + shape)


def shifted_effects(bundle: PredictorBundle, shift: float | np.ndarray) -> EffectTriple:
    """Natural effects when the same shift applies at every exposure level.

    Reduces to ``point_effects`` at shift 0; for any finite shift each
    component stays inside the corresponding identification bound. An array
    of shifts broadcasts against the bundle's rows.
    """
    nde, nie, te = (scalar_or_array(x) for x in effect_chain(bundle, shift)[:3])
    return EffectTriple(nde=nde, nie=nie, te=te)


def point_effects(bundle: PredictorBundle) -> EffectTriple:
    """Natural effects under the full identification assumption set."""
    return shifted_effects(bundle, 0.0)
