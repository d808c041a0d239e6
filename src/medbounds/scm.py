"""Exact ground truth: discrete structural causal models and brute-force oracles.

Everything here exists to check the closed forms elsewhere in the package
against quantities computed a different way: exact counterfactual laws by
enumeration over finite latent supports, population predictor bundles from
observational conditionals, synthetic data generation, a grid-sweep oracle
for the identification bounds, and finite-difference derivatives.

Counterfactuals use a response-function representation: each mechanism owns
one uniform noise variable shared across intervention levels, so mediator
counterfactuals at different exposure levels are comonotone given the
latents, and outcome noise is independent of mediator noise. With empty
latent supports this makes the cross-world independence conditions hold by
construction; adding a mediator-outcome latent breaks them.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

import numpy as np

from .bounds import BoundPair, EffectBounds, effect_bounds
from .effects import Contrast, EffectTriple, Pair, PredictorBundle, failing_rows, scalar_or_array, shifted_effects
from .errors import MedboundsError
from .glm import Dataset
from .record import Record

__all__ = [
    "StructuralModel",
    "CounterfactualLaw",
    "enumerate_counterfactuals",
    "true_effects",
    "observational_theta",
    "sample_dataset",
    "sweep_bounds",
    "mediation_formula_logit",
    "finite_difference_jacobian",
    "logistic_scm",
    "random_scm",
    "random_bundle",
    "demo_cohort_scm",
    "crossworld_demo_scm",
]

_PROB_TOL = 1e-12
# ``random_scm`` keeps its mechanism probabilities this far from 0 and 1
PROB_FLOOR = 0.05


class DegenerateLawError(MedboundsError):
    """A conditional or counterfactual probability is exactly 0 or 1."""


class StructuralModel(Record):
    """Fully discrete causal model over (C, U1, U2, X, M, Y).

    U1 confounds exposure and outcome, U2 mediator and outcome. Probability
    tables are indexed positionally: ``x_probs[c, u1, i]`` is P(X = grid[i]),
    ``m_probs[i, c, u2]`` is P(M=1 | X=grid[i]), and ``y_probs[i, m, c, u1, u2]``
    is P(Y=1). Latent-free models use singleton latent supports.
    """

    covariate_names: tuple[str, ...]
    c_values: np.ndarray  # (nc, k)
    c_probs: np.ndarray  # (nc,)
    u1_probs: np.ndarray  # (n1,)
    u2_probs: np.ndarray  # (n2,)
    x_grid: np.ndarray  # (ng,)
    x_probs: np.ndarray  # (nc, n1, ng)
    m_probs: np.ndarray  # (ng, nc, n2)
    y_probs: np.ndarray  # (ng, 2, nc, n1, n2)

    def __post_init__(self):
        for name in ("c_values", "c_probs", "u1_probs", "u2_probs", "x_grid", "x_probs", "m_probs", "y_probs"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        nc, n1, n2, ng = len(self.c_probs), len(self.u1_probs), len(self.u2_probs), len(self.x_grid)
        if min(nc, n1, n2, ng) < 1:
            raise ValueError("all supports must be nonempty")
        if self.c_values.shape != (nc, len(self.covariate_names)):
            raise ValueError("covariate value table does not match names/support")
        if len({*self.covariate_names, "y", "m", "x"}) != len(self.covariate_names) + 3:
            raise ValueError("covariate names must be distinct and other than y, m and x")
        for label, probs in (("covariate", self.c_probs), ("u1", self.u1_probs), ("u2", self.u2_probs)):
            if abs(probs.sum() - 1.0) > _PROB_TOL or probs.min() < 0:
                raise ValueError(f"{label} support probabilities must be nonnegative and sum to 1")
        if self.x_probs.shape != (nc, n1, ng):
            raise ValueError("x_probs has wrong shape")
        if np.abs(self.x_probs.sum(axis=-1) - 1.0).max() > _PROB_TOL or self.x_probs.min() < 0:
            raise ValueError("exposure tables must be nonnegative and sum to 1 per (c, u1)")
        if self.m_probs.shape != (ng, nc, n2) or self.y_probs.shape != (ng, 2, nc, n1, n2):
            raise ValueError("mechanism tables have wrong shape")
        for label, t in (("mediator", self.m_probs), ("outcome", self.y_probs)):
            if t.min() < 0.0 or t.max() > 1.0:
                raise ValueError(f"{label} mechanism probabilities must lie in [0, 1]")
        if len(np.unique(self.x_grid)) != ng:
            raise ValueError("exposure grid values must be distinct")

    def grid_index(self, level: float) -> int:
        hits = np.nonzero(np.isclose(self.x_grid, level, rtol=0.0, atol=1e-9))[0]
        if len(hits) != 1:
            raise ValueError(f"exposure level {level} is not on the model grid {self.x_grid.tolist()}")
        return int(hits[0])

    def profile_index(self, profile: Mapping[str, float]) -> int:
        try:
            vec = np.array([float(profile[name]) for name in self.covariate_names])
        except KeyError as exc:
            raise ValueError(f"profile is missing covariate {exc}") from None
        hits = np.nonzero(np.all(np.isclose(self.c_values, vec, rtol=0.0, atol=1e-9), axis=1))[0]
        if len(hits) != 1:
            raise ValueError(f"profile {dict(profile)} is not in the covariate support")
        return int(hits[0])

    def profiles(self) -> list[dict[str, float]]:
        return [
            {name: float(v) for name, v in zip(self.covariate_names, row)}
            for row in self.c_values
        ]

    # -- JSON round trip (documented schema, see README) --------------------

    def to_dict(self) -> dict:
        return {
            "covariates": {"names": list(self.covariate_names), "values": self.c_values.tolist(), "probs": self.c_probs.tolist()},
            "u1_probs": self.u1_probs.tolist(),
            "u2_probs": self.u2_probs.tolist(),
            "exposure_grid": self.x_grid.tolist(),
            "x_probs": self.x_probs.tolist(),
            "m_probs": self.m_probs.tolist(),
            "y_probs": self.y_probs.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StructuralModel":
        cov = d["covariates"]
        return cls(
            covariate_names=tuple(cov["names"]),
            c_values=np.asarray(cov["values"], dtype=float),
            c_probs=np.asarray(cov["probs"], dtype=float),
            u1_probs=np.asarray(d["u1_probs"], dtype=float),
            u2_probs=np.asarray(d["u2_probs"], dtype=float),
            x_grid=np.asarray(d["exposure_grid"], dtype=float),
            x_probs=np.asarray(d["x_probs"], dtype=float),
            m_probs=np.asarray(d["m_probs"], dtype=float),
            y_probs=np.asarray(d["y_probs"], dtype=float),
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path) -> "StructuralModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


class CounterfactualLaw(Record):
    """Exact cross-world laws for one contrast, all conditioned on its profile.

    ``crossed[(a, b)]`` is P(Y(a, M(b)) = 1) for a, b in {"active",
    "reference"}; ``mediator[b]`` is P(M(b) = 1); ``conditional[(a, m, b,
    m_obs)]`` is P(Y(a, m) = 1 | M(b) = m_obs) and ``marginal[(a, m)]`` its
    unconditional version.
    """

    contrast: Contrast
    crossed: dict
    mediator: dict
    conditional: dict
    marginal: dict


def enumerate_counterfactuals(scm: StructuralModel, contrast: Contrast) -> CounterfactualLaw:
    """Exact counterfactual law by summation over the latent supports."""
    ic = scm.profile_index(contrast.profile)
    levels = {"active": scm.grid_index(contrast.active), "reference": scm.grid_index(contrast.reference)}
    w1 = scm.u1_probs
    w2 = scm.u2_probs

    # P(M(b)=1 | c, u2) and P(Y(a,m)=1 | c, u2) with u1 integrated out
    pm = {b: scm.m_probs[i, ic, :] for b, i in levels.items()}  # (n2,)
    q = {
        (a, m): scm.y_probs[i, m, ic, :, :].T @ w1  # (n2,)
        for a, i in levels.items()
        for m in (0, 1)
    }

    mediator = {b: float(w2 @ pm[b]) for b in levels}

    crossed = {}
    for a in levels:
        for b in levels:
            crossed[(a, b)] = float(w2 @ (pm[b] * q[(a, 1)] + (1.0 - pm[b]) * q[(a, 0)]))

    conditional = {}
    marginal = {}
    for a in levels:
        for m in (0, 1):
            marginal[(a, m)] = float(w2 @ q[(a, m)])
            for b in levels:
                for m_obs in (0, 1):
                    wgt = w2 * (pm[b] if m_obs == 1 else (1.0 - pm[b]))
                    total = wgt.sum()
                    conditional[(a, m, b, m_obs)] = (
                        float(wgt @ q[(a, m)] / total) if total > 0 else float("nan")
                    )
    return CounterfactualLaw(
        contrast=contrast, crossed=crossed, mediator=mediator, conditional=conditional, marginal=marginal
    )


def _logit(p: float | np.ndarray, what: str) -> float | np.ndarray:
    """Log odds, row by row; a probability outside (0, 1) is a DegenerateLawError naming its rows."""
    p = np.asarray(p, dtype=float)
    bad = ~((0.0 < p) & (p < 1.0))
    if np.any(bad):
        raise DegenerateLawError(f"{what} is degenerate{failing_rows(bad)} (p={p[bad][0]}); log odds undefined")
    return scalar_or_array(np.log(p / (1.0 - p)))


def true_effects(scm: StructuralModel, contrast: Contrast) -> EffectTriple:
    """Natural effects straight from exact counterfactual probabilities."""
    law = enumerate_counterfactuals(scm, contrast)
    nde = _logit(law.crossed[("active", "reference")], "crossed law") - _logit(
        law.crossed[("reference", "reference")], "reference world"
    )
    nie = _logit(law.crossed[("active", "active")], "active world") - _logit(
        law.crossed[("active", "reference")], "crossed law"
    )
    return EffectTriple.from_parts(nde, nie)


def _observational(scm: StructuralModel, ix: int, ic: int) -> tuple[float, float, float]:
    """P(Y=1|X,M=0,c), P(Y=1|X,M=1,c), P(M=1|X,c) for one exposure index."""
    w1 = scm.u1_probs
    w2 = scm.u2_probs
    px_u1 = scm.x_probs[ic, :, ix]  # (n1,)
    denom_x = float(w1 @ px_u1)
    if denom_x <= 0.0:
        raise DegenerateLawError("conditioning exposure level has probability 0 at this profile")
    w1_post = w1 * px_u1 / denom_x  # P(u1 | X=x, c)
    pm_u2 = scm.m_probs[ix, ic, :]  # (n2,)
    p_m1 = float(w2 @ pm_u2)
    out = []
    for m in (0, 1):
        w_m = pm_u2 if m == 1 else (1.0 - pm_u2)
        denom_m = float(w2 @ w_m)
        if denom_m <= 0.0:
            raise DegenerateLawError(f"observational P(M={m}|X,c) is 0; conditional undefined")
        w2_post = w2 * w_m / denom_m
        out.append(float(w1_post @ scm.y_probs[ix, m, ic, :, :] @ w2_post))
    return out[0], out[1], p_m1


def observational_theta(scm: StructuralModel, contrast: Contrast) -> PredictorBundle:
    """Population predictor bundle (zero covariance) from observational logits."""
    ic = scm.profile_index(contrast.profile)
    ia = scm.grid_index(contrast.active)
    ir = scm.grid_index(contrast.reference)
    y_a0, y_a1, pm_a = _observational(scm, ia, ic)
    y_r0, y_r1, pm_r = _observational(scm, ir, ic)
    values = np.array(
        [
            _logit(y_a0, "P(Y|X=active,M=0)"),
            _logit(y_r0, "P(Y|X=reference,M=0)"),
            _logit(y_a1, "P(Y|X=active,M=1)"),
            _logit(y_r1, "P(Y|X=reference,M=1)"),
            _logit(pm_a, "P(M|X=active)"),
            _logit(pm_r, "P(M|X=reference)"),
        ]
    )
    return PredictorBundle(values=values, cov=np.zeros((6, 6)))


def sample_dataset(scm: StructuralModel, n: int, seed: int) -> Dataset:
    """Draw n i.i.d. rows; identical seed and model give identical bytes."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    ic = rng.choice(len(scm.c_probs), size=n, p=scm.c_probs)
    iu1 = rng.choice(len(scm.u1_probs), size=n, p=scm.u1_probs)
    iu2 = rng.choice(len(scm.u2_probs), size=n, p=scm.u2_probs)
    cdf = np.cumsum(scm.x_probs[ic, iu1, :], axis=1)
    ix = (rng.random(n)[:, None] < cdf).argmax(axis=1)
    m = (rng.random(n) < scm.m_probs[ix, ic, iu2]).astype(float)
    y = (rng.random(n) < scm.y_probs[ix, m.astype(int), ic, iu1, iu2]).astype(float)
    x = scm.x_grid[ix]
    covs = {name: scm.c_values[ic, j] for j, name in enumerate(scm.covariate_names)}
    for col in (y, m, x, *covs.values()):
        col.flags.writeable = False  # so the Dataset takes them without a copy
    return Dataset(outcome=y, mediator=m, exposure=x, covariates=covs)


# --------------------------------------------------------------------------
# Brute-force oracles
# --------------------------------------------------------------------------


# e^709 is the largest whole power of e inside float64 (whose top is about e^709.78)
_MAX_EXPONENT = 709.0
# shifts per block of the sweep: its four block buffers (512 KB) stay in a
# per-core L2 cache, where grid-sized buffers (800 KB each at 100,001 points) did not
_BLOCK = 16_384


def _factor_extrema(shifts: np.ndarray, pairs) -> np.ndarray:
    """Min and max over a shift grid of each pair's log mediator-adjustment
    factor, (pair, 2) for pairs of (b0, b1, g).

    The factor is log[(1 + e^{t1}) / (1 + e^{t0})] where
    t0 = log(1+e^{s+b0}) - log(1+e^{s+b1}) + g and t1 = t0 + (b1 - b0),
    evaluated at every shift s of the grid. It runs on the probability
    scale, where e^{t0} = R c0 and e^{t1} = R c1 with c0 = e^g,
    c1 = e^{g+b1-b0} and R = (1 + e^s e^{b0}) / (1 + e^s e^{b1}). The grid
    runs in blocks of ``_BLOCK`` shifts: e^s once per block for all pairs, R
    once per block for the pairs that share an outcome level (b0, b1), then
    each pair's ratio (1 + R c1) / (1 + R c0) and its running min and max.
    As log is increasing, the log of the extreme ratios is the extreme
    factors. That is one ``exp`` pass over the grid and no ``log`` pass, and
    no function (no softplus, no ``logaddexp``) shared with the log-scale
    bound algebra it checks. ``sweep_bounds`` states the domain in which
    none of its exponentials overflows.
    """
    # e^{b0} and e^{b1} per outcome level, and (pair index, c0, c1) of each
    # pair on it, formed once per call
    levels = {}
    for i, (b0, b1, g) in enumerate(pairs):
        if (b0, b1) not in levels:
            levels[b0, b1] = (np.exp(b0), np.exp(b1), [])
        levels[b0, b1][2].append((i, np.exp(g), np.exp(g + b1 - b0)))
    extremes = np.array([[np.inf, -np.inf]] * len(pairs))
    # four block buffers updated in place: fresh temporaries cost more than
    # the arithmetic on them
    u, r, d, q = np.empty((4, min(_BLOCK, shifts.size)))
    for start in range(0, shifts.size, _BLOCK):
        k = min(_BLOCK, shifts.size - start)
        e_s = np.exp(shifts[start : start + k], out=u[:k])
        for e0, e1, on_level in levels.values():
            den = np.multiply(e_s, e1, out=d[:k])
            den += 1.0
            ratio = np.multiply(e_s, e0, out=r[:k])
            ratio += 1.0
            ratio /= den  # R
            for i, c0, c1 in on_level:
                np.multiply(ratio, c0, out=den)
                den += 1.0  # 1 + e^{t0}
                f = np.multiply(ratio, c1, out=q[:k])
                f += 1.0  # 1 + e^{t1}
                f /= den
                extremes[i] = min(extremes[i, 0], f.min()), max(extremes[i, 1], f.max())
    return np.log(extremes)


def sweep_bounds(
    bundle: PredictorBundle,
    lo: float = -30.0,
    hi: float = 30.0,
    points: int = 100_001,
):
    """Grid brute force for the identification bounds of a single bundle.

    Each effect is a fixed combination of per-pair adjustment factors, and
    each factor sweeps its full admissible range as its own shift runs over
    the grid, so taking factor extremes on the grid and recombining them
    recovers the bounds without touching the closed-form algebra. Returns
    an EffectBounds-shaped object. The factor extremes come from
    ``_factor_extrema`` in blocks of the grid, so the grid is the only
    grid-sized array the sweep allocates.

    The sweep exponentiates on the probability scale, so it has a stated
    domain: the largest grid shift (or 0, if larger) plus the largest outcome
    predictor (or 0), and g + |b1 - b0| for each pair's mediator predictor g
    and outcome predictors b0, b1, must not exceed 709, as e^709 is near the
    top of float64. Past that it raises ValueError. A very negative grid end
    is fine: e^s underflows to 0, its exact limit.
    """
    if bundle.values.ndim != 1:
        raise ValueError(f"sweep_bounds takes one bundle, got values of shape {bundle.values.shape}")
    if points < 2:
        raise ValueError("points must be at least 2")
    b_x0, b_xs0, b_x1, b_xs1, g_x, g_xs = (float(v) for v in bundle.values)
    pairs = ((b_x0, b_x1, g_xs), (b_x0, b_x1, g_x), (b_xs0, b_xs1, g_xs))
    reach = max(
        max(lo, hi, 0.0) + max(b_x0, b_xs0, b_x1, b_xs1, 0.0),
        *(g + abs(b1 - b0) for b0, b1, g in pairs),
    )
    if not reach <= _MAX_EXPONENT:
        raise ValueError(
            f"sweep_bounds forms exponents up to {reach:.6g} on this bundle and grid; "
            f"its domain ends at {_MAX_EXPONENT:g} (float64 overflow)"
        )
    cross, active, reference = _factor_extrema(np.linspace(lo, hi, points), pairs)

    base = b_x0 - b_xs0
    nde = BoundPair(base + cross[0] - reference[1], base + cross[1] - reference[0])
    nie = BoundPair(active[0] - cross[1], active[1] - cross[0])
    te = BoundPair(nde.lower + nie.lower, nde.upper + nie.upper)
    return EffectBounds(nde=nde, nie=nie, te=te, point=shifted_effects(bundle, 0.0))


def mediation_formula_logit(bundle: PredictorBundle, pair: Pair = Pair.ACTIVE) -> float | np.ndarray:
    """Plug-in crossed-world logit, row by row: sum_m P(Y=1|x,m) P(M=m|x') then logit.

    Computed on the probability scale, independently of the natural-effect
    model algebra it validates, and with its own fixed reading of the
    bundle's component order rather than ``effects.PAIR_INDEX``.
    """
    b_x0, b_xs0, b_x1, b_xs1, g_x, g_xs = bundle.values.T
    b0, b1, g = {
        Pair.CROSS: (b_x0, b_x1, g_xs),
        Pair.ACTIVE: (b_x0, b_x1, g_x),
        Pair.REFERENCE: (b_xs0, b_xs1, g_xs),
    }[pair]
    pm = 1.0 / (1.0 + np.exp(-g))
    p = pm / (1.0 + np.exp(-b1)) + (1.0 - pm) / (1.0 + np.exp(-b0))
    return _logit(p, "mediation-formula probability")


def finite_difference_jacobian(bundle: PredictorBundle, h: float = 1e-6) -> np.ndarray:
    """Central-difference 6x4 jacobian of the log bound endpoints, row by row: a batch of N gives (N, 6, 4)."""
    # per bundle, (2, 6, 6): each component stepped up, then each stepped down
    values = bundle.values[..., None, None, :] + h * np.stack([np.eye(6), -np.eye(6)])
    eb = effect_bounds(PredictorBundle(values.reshape(-1, 6), np.zeros((values.size // 6, 6, 6))))
    tau = np.stack([eb.nde.lower, eb.nde.upper, eb.nie.lower, eb.nie.upper], axis=-1)
    tau = tau.reshape(values.shape[:-1] + (4,))
    return (tau[..., 0, :, :] - tau[..., 1, :, :]) / (2.0 * h)


def random_bundle(rng: np.random.Generator, n: int) -> PredictorBundle:
    """A batch of n random bundles for property checks, zero covariance: the draws of n single bundles."""
    return PredictorBundle(values=rng.uniform(-4.0, 4.0, size=(n, 6)), cov=np.zeros((n, 6, 6)))


# --------------------------------------------------------------------------
# Model builders
# --------------------------------------------------------------------------


def logistic_scm(
    covariate_names: Sequence[str],
    c_values: np.ndarray,
    c_probs: np.ndarray,
    x_grid: np.ndarray,
    x_probs: np.ndarray,
    mediator_coefs: Mapping[str, float],
    outcome_coefs: Mapping[str, float],
) -> StructuralModel:
    """Latent-free model whose mechanisms are logistic in (x, m, covariates).

    Coefficient keys: "1" (intercept), "x", "m" (outcome only), or a
    covariate name. ``x_probs`` is either one shared grid distribution or a
    per-profile (nc, ng) table. Because there are no latents, observational
    conditionals equal the mechanism probabilities exactly.
    """
    c_values = np.asarray(c_values, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    nc, ng = len(c_values), len(x_grid)
    x_probs = np.asarray(x_probs, dtype=float)
    if x_probs.ndim == 1:
        x_probs = np.broadcast_to(x_probs, (nc, ng)).copy()
    x_probs = x_probs.reshape(nc, 1, ng)

    # each term over (exposure, mediator, profile) axes
    terms = {name: c_values[:, j] for j, name in enumerate(covariate_names)}
    terms.update({"1": 1.0, "x": x_grid[:, None, None], "m": np.array([0.0, 1.0])[:, None]})

    def eta(coefs: Mapping[str, float], levels: int) -> np.ndarray:
        """Linear predictor at ``levels`` mediator values, terms added in dict order."""
        total = np.zeros((ng, levels, nc))
        for key, w in coefs.items():
            if key == "m" and levels == 1:
                raise ValueError("mediator coefficients cannot reference 'm'")
            total += w * terms[key]
        return total

    expit = lambda z: 1.0 / (1.0 + np.exp(-z))
    m_probs = expit(eta(mediator_coefs, 1))[:, 0, :, None]
    y_probs = expit(eta(outcome_coefs, 2))[:, :, :, None, None]
    return StructuralModel(
        covariate_names=tuple(covariate_names),
        c_values=c_values,
        c_probs=np.asarray(c_probs, dtype=float),
        u1_probs=np.array([1.0]),
        u2_probs=np.array([1.0]),
        x_grid=x_grid,
        x_probs=x_probs,
        m_probs=m_probs,
        y_probs=y_probs,
    )


def random_scm(
    rng: np.random.Generator,
    n_c: int = 2,
    n_x: int = 3,
    n_u1: int = 1,
    n_u2: int = 1,
) -> StructuralModel:
    """Random discrete model with mechanism probabilities in
    [``PROB_FLOOR``, 1 - ``PROB_FLOOR``], away from 0/1.

    Defaults have singleton latents, i.e. no unmeasured confounding, which
    is the regime where point identification is exact and the bounds must
    contain the truth.
    """

    def simplex(k: int) -> np.ndarray:
        p = rng.uniform(PROB_FLOOR, 1.0, size=k)
        return p / p.sum()

    x_grid = np.sort(rng.choice(np.arange(0.0, 25.0), size=n_x, replace=False))
    x_probs = np.stack(
        [np.stack([simplex(n_x) for _ in range(n_u1)]) for _ in range(n_c)]
    )
    lo, hi = PROB_FLOOR, 1.0 - PROB_FLOOR
    return StructuralModel(
        covariate_names=("c",),
        c_values=np.arange(n_c, dtype=float).reshape(-1, 1),
        c_probs=simplex(n_c),
        u1_probs=simplex(n_u1),
        u2_probs=simplex(n_u2),
        x_grid=x_grid,
        x_probs=x_probs,
        m_probs=rng.uniform(lo, hi, size=(n_x, n_c, n_u2)),
        y_probs=rng.uniform(lo, hi, size=(n_x, 2, n_c, n_u1, n_u2)),
    )


def demo_cohort_scm() -> StructuralModel:
    """Bundled synthetic smoking cohort: exposure in pack-years, a binary
    pulmonary condition as mediator, a rare binary disease outcome, with BMI
    and gender as covariates.

    Latent-free (the identification conditions hold), mechanisms logistic.
    BMI sits on a 7-point grid with binomial weights matching mean 27.564
    and SD 4.443; gender is 1 with probability 0.725; pack-years follow a
    discretized shifted gamma on a 10..170 grid.
    """
    bmi_mean, bmi_sd = 27.564, 4.443
    h = bmi_sd / np.sqrt(1.5)  # binomial(6, 1/2) has variance 1.5 in step units
    bmi_grid = bmi_mean + (np.arange(7) - 3) * h
    bmi_probs = np.array([1, 6, 15, 20, 15, 6, 1]) / 64.0
    gender_probs = np.array([0.275, 0.725])

    c_values = np.array([[b, g] for b in bmi_grid for g in (0.0, 1.0)])
    c_probs = np.array([pb * pg for pb in bmi_probs for pg in gender_probs])

    x_grid = np.arange(10.0, 171.0, 10.0)
    # A shifted gamma matched to mean ~36.9 and SD ~21.5 pack-years: shape
    # (26.933/21.521)^2, scale 26.933/shape and offset 10, its CDF binned at
    # the grid midpoints (the end bins open) and normalised; pinned to the
    # last bit, and rebuilt from the gamma CDF in the tests.
    x_probs = np.array([
        0.08702472415945822, 0.26196927696449956, 0.22186710623632316, 0.15700272893812683,
        0.1035906667564035, 0.06581761764286076, 0.040839349781761625, 0.024931727905466494,
        0.015040869468054274, 0.00899222012407308, 0.00533788196089835, 0.003150452015544203,
        0.001850615680743628, 0.0010827566667949151, 0.0006313560305183374, 0.0003670714509301787,
        0.0005035782175428771,
    ])

    return logistic_scm(
        covariate_names=("bmi", "gender"),
        c_values=c_values,
        c_probs=c_probs,
        x_grid=x_grid,
        x_probs=x_probs,
        mediator_coefs={"1": 0.418, "x": 0.017, "bmi": -0.098, "gender": 0.595},
        outcome_coefs={"1": -3.925, "x": 0.020, "m": 1.250, "bmi": -0.064, "gender": 0.587},
    )


def crossworld_demo_scm() -> StructuralModel:
    """Hand-crafted confounded model where the matched cross-world equalities
    hold while the unmatched ones fail.

    Conditioning the counterfactual outcome on the mediator taking the same
    value in either world leaves its law unchanged, yet conditioning on the
    opposite value (or not conditioning) shifts it, so the weaker condition
    is strictly weaker than full cross-world independence. The mediator-
    outcome latent has three support points; the exposure mechanism ignores
    the latents, keeping exposure-mediator confounding absent.
    """
    m_active = np.array([0.2, 0.5, 0.8])
    m_reference = np.array([0.1, 0.4, 0.5])
    # active-level outcome tables orthogonal to both mediator weightings
    y_active_m1 = np.array([0.36, 0.46, 0.56])
    y_active_m0 = np.array([0.43, 0.08, 0.33])
    y_ref_m0 = np.array([0.25, 0.30, 0.35])
    y_ref_m1 = np.array([0.45, 0.50, 0.55])

    m_probs = np.stack([m_reference, m_active])[:, None, :]  # (ng=2, nc=1, n2=3)
    y_probs = np.empty((2, 2, 1, 1, 3))
    y_probs[0, 0, 0, 0, :] = y_ref_m0
    y_probs[0, 1, 0, 0, :] = y_ref_m1
    y_probs[1, 0, 0, 0, :] = y_active_m0
    y_probs[1, 1, 0, 0, :] = y_active_m1
    return StructuralModel(
        covariate_names=("z",),
        c_values=np.array([[0.0]]),
        c_probs=np.array([1.0]),
        u1_probs=np.array([1.0]),
        u2_probs=np.array([1.0, 1.0, 1.0]) / 3.0,
        x_grid=np.array([0.0, 1.0]),
        x_probs=np.full((1, 1, 2), 0.5),
        m_probs=m_probs,
        y_probs=y_probs,
    )
