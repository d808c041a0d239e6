"""Self-check suite: every closed form against an independent route.

Each check pits a production code path against ground truth computed a
different way (grid brute force, finite differences, exact enumeration, or
Monte Carlo) and records the worst observed discrepancy next to its
tolerance. The CLI surfaces this as the ``validate`` subcommand at small
sample sizes; the acceptance tests run these same check functions at full
size, with their own seeds and counts.
"""

from __future__ import annotations

import numpy as np

from .bounds import effect_bounds, sensitivity_curve
from .effects import (
    Contrast,
    Pair,
    PredictorBundle,
    point_effects,
    predictor_bundle,
)
from .glm import fit_logistic, parse_design
from .record import Record
from .scm import (
    crossworld_demo_scm,
    enumerate_counterfactuals,
    finite_difference_jacobian,
    logistic_scm,
    mediation_formula_logit,
    observational_theta,
    random_bundle,
    random_scm,
    sample_dataset,
    sweep_bounds,
    true_effects,
)
from .uncertainty import bound_covariance, bounds_jacobian, uncertainty_intervals

__all__ = ["CheckResult", "ValidationReport", "run_validation", "coverage_simulation", "coverage_scm"]

SWEEP_TOL = 1e-6
FD_TOL = 1e-6
EXACT_TOL = 1e-9
CROSSWORLD_TOL = 1e-12
CROSSWORLD_MIN_GAP = 1e-3
MEDIATION_TOL = 1e-10
SHIFT_ZERO_TOL = 1e-12
SHIFT_ZERO_GRID = (-1.0, 0.0, 1.0)
COVERAGE_TARGET = 0.93


class CheckResult(Record):
    name: str
    passed: bool
    measured: float
    tolerance: float
    comparison: str  # "<=" means measured must not exceed tolerance; ">=" the reverse
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: measured {self.measured:.3e} "
            f"(required {self.comparison} {self.tolerance:.3e}) {self.detail}"
        )


class ValidationReport(Record):
    results: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_text(self) -> str:
        lines = [r.line() for r in self.results]
        lines.append(
            f"{'ALL CHECKS PASSED' if self.passed else 'VALIDATION FAILED'} "
            f"({sum(r.passed for r in self.results)}/{len(self.results)})"
        )
        return "\n".join(lines) + "\n"


def _triple(effects) -> tuple:
    return effects.nde, effects.nie, effects.te


def _bounds_vector(eb) -> np.ndarray:
    return np.array([end for bp in _triple(eb) for end in (bp.lower, bp.upper)])


def _rows(batch: PredictorBundle):
    """Each row of a batch as a single bundle, for the single-bundle routes."""
    return (PredictorBundle(values, cov) for values, cov in zip(batch.values, batch.cov))


def check_sweep_agreement(rng, n_thetas: int, points: int = 20_001) -> CheckResult:
    batch = random_bundle(rng, n_thetas)
    closed = _bounds_vector(effect_bounds(batch))
    swept = np.array([_bounds_vector(sweep_bounds(bundle, points=points)) for bundle in _rows(batch)])
    worst = float(np.abs(closed - swept.T).max())
    return CheckResult(
        "sweep-agreement", worst <= SWEEP_TOL, worst, SWEEP_TOL, "<=",
        f"closed-form bounds vs grid sweep, {n_thetas} random bundles",
    )


def check_jacobian(rng, n_thetas: int) -> CheckResult:
    batch = random_bundle(rng, n_thetas)
    worst = float(np.abs(bounds_jacobian(batch) - finite_difference_jacobian(batch)).max())
    return CheckResult(
        "jacobian-vs-fd", worst <= FD_TOL, worst, FD_TOL, "<=",
        f"analytic derivative matrix vs central differences, {n_thetas} random bundles",
    )


def check_scm_containment(rng, n_scms: int) -> CheckResult:
    truths, values = [], []
    for _ in range(n_scms):
        scm = random_scm(rng, n_c=int(rng.integers(1, 3)), n_x=int(rng.integers(2, 4)))
        profile = scm.profiles()[int(rng.integers(len(scm.profiles())))]
        i, j = rng.choice(len(scm.x_grid), size=2, replace=False)
        contrast = Contrast(active=float(scm.x_grid[i]), reference=float(scm.x_grid[j]), profile=profile)
        truths.append(_triple(true_effects(scm, contrast)))
        values.append(observational_theta(scm, contrast).values)
    truth = np.array(truths).T
    batch = PredictorBundle(np.array(values), np.zeros((n_scms, 6, 6)))
    gap = np.abs(truth - np.array(_triple(point_effects(batch))))
    ends = _bounds_vector(effect_bounds(batch))  # (lower, upper) of each effect
    worst = float(max(gap.max(), (ends[0::2] - truth).max(), (truth - ends[1::2]).max()))
    return CheckResult(
        "scm-containment", worst <= EXACT_TOL, worst, EXACT_TOL, "<=",
        f"exact truth vs point estimate and bounds on {n_scms} confounding-free models",
    )


def check_crossworld_strictness() -> CheckResult:
    scm = crossworld_demo_scm()
    contrast = Contrast(active=1.0, reference=0.0, profile={"z": 0.0})
    law = enumerate_counterfactuals(scm, contrast)
    eq_err = max(
        abs(law.conditional[("active", m, "reference", m)] - law.conditional[("active", m, "active", m)])
        for m in (0, 1)
    )
    gaps = []
    for m in (0, 1):
        base = law.conditional[("active", m, "active", m)]
        gaps.append(abs(law.conditional[("active", m, "active", 1 - m)] - base))
        gaps.append(abs(law.conditional[("active", m, "reference", 1 - m)] - base))
        gaps.append(abs(law.marginal[("active", m)] - base))
    gap = max(gaps)
    passed = eq_err <= CROSSWORLD_TOL and gap >= CROSSWORLD_MIN_GAP
    return CheckResult(
        "crossworld-strictness", passed, eq_err, CROSSWORLD_TOL, "<=",
        f"matched conditionals equal while some unmatched one differs by {gap:.3f}",
    )


def check_mediation_reduction(rng, n_thetas: int) -> CheckResult:
    """Point effects of all bundles as one batch against differences of the
    plug-in mediation formula's pair logits: NDE = CROSS - REFERENCE,
    NIE = ACTIVE - CROSS and TE = ACTIVE - REFERENCE."""
    batch = random_bundle(rng, n_thetas)
    cross, active, reference = (mediation_formula_logit(batch, pair) for pair in Pair)
    formula = np.array([cross - reference, active - cross, active - reference])
    worst = float(np.abs(np.array(_triple(point_effects(batch))) - formula).max())
    return CheckResult(
        "mediation-reduction", worst <= MEDIATION_TOL, worst, MEDIATION_TOL, "<=",
        f"point effects vs differences of the plug-in mediation formula, {n_thetas} random bundles",
    )


def check_shift_zero(rng, n_thetas: int) -> CheckResult:
    """Point effects of all bundles as one batch (one block of the effect
    chain) against each bundle's sensitivity curve at shift 0 on a short
    grid (the single-bundle grid route)."""
    batch = random_bundle(rng, n_thetas)
    point = np.array(_triple(point_effects(batch)))
    curves = np.array([_triple(sensitivity_curve(bundle, SHIFT_ZERO_GRID)) for bundle in _rows(batch)])
    worst = float(np.abs(point - curves[:, :, SHIFT_ZERO_GRID.index(0.0)].T).max())
    return CheckResult(
        "shift-zero-identity", worst <= SHIFT_ZERO_TOL, worst, SHIFT_ZERO_TOL, "<=",
        f"batch point effects vs sensitivity curve at shift 0, {n_thetas} random bundles",
    )


def coverage_scm():
    """Confounding-free logistic model used for the coverage simulation."""
    return logistic_scm(
        covariate_names=("z",),
        c_values=np.array([[0.0], [1.0]]),
        c_probs=np.array([0.5, 0.5]),
        x_grid=np.array([0.0, 1.0, 2.0, 3.0]),
        x_probs=np.full(4, 0.25),
        mediator_coefs={"1": -0.6, "x": 0.5, "z": 0.4},
        outcome_coefs={"1": -1.6, "x": 0.3, "m": 0.9, "z": 0.5},
    )


def coverage_simulation(
    n: int = 5000,
    replicates: int = 500,
    seed: int = 20_240_801,
) -> dict[str, float]:
    """Fraction of replicates whose 95% uncertainty intervals cover the truth.

    Data are drawn from a correctly specified confounding-free model, both
    logistic models are refit per replicate, and coverage is tallied for
    each of the three effects separately.
    """
    scm = coverage_scm()
    contrast = Contrast(active=3.0, reference=0.0, profile={"z": 1.0})
    truth = true_effects(scm, contrast)
    outcome_design = parse_design(["1", "x", "m", "z"])
    mediator_design = parse_design(["1", "x", "z"])

    bundles = []
    for s in np.random.SeedSequence(seed).generate_state(replicates):
        data = sample_dataset(scm, n, int(s))
        outcome = fit_logistic(data, outcome_design, role="outcome")
        mediator = fit_logistic(data, mediator_design, role="mediator")
        bundles.append(predictor_bundle(outcome, mediator, contrast))
    batch = PredictorBundle(np.array([b.values for b in bundles]), np.array([b.cov for b in bundles]))
    ui = uncertainty_intervals(effect_bounds(batch), bound_covariance(batch))
    return {k: float(np.mean(getattr(ui, k).contains(getattr(truth, k)))) for k in ("nde", "nie", "te")}


def check_coverage(seed: int, replicates: int, n: int) -> CheckResult:
    cov = coverage_simulation(n=n, replicates=replicates, seed=seed)
    worst = min(cov.values())
    return CheckResult(
        "coverage", worst >= COVERAGE_TARGET, worst, COVERAGE_TARGET, ">=",
        f"nde={cov['nde']:.3f} nie={cov['nie']:.3f} te={cov['te']:.3f} "
        f"({replicates} replicates, n={n})",
    )


def run_validation(
    seed: int = 20_240_801,
    coverage_replicates: int = 200,
    coverage_n: int = 2000,
) -> ValidationReport:
    """Run every check with pinned seeds; the report text is deterministic."""
    rng = np.random.default_rng(seed)
    return ValidationReport([
        check_sweep_agreement(rng, 200),
        check_jacobian(rng, 50),
        check_scm_containment(rng, 60),
        check_crossworld_strictness(),
        check_mediation_reduction(rng, 200),
        check_shift_zero(rng, 200),
        check_coverage(seed, coverage_replicates, coverage_n),
    ])
