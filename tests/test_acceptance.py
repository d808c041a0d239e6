"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS line with the measured quantity so a
plain ``pytest tests/test_acceptance.py -v -s`` doubles as the acceptance
report. Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from medbounds.bounds import effect_bounds, factor_range, sensitivity_probability_range
from medbounds.effects import Pair, PredictorBundle
from medbounds.glm import fit_logistic, parse_design
from medbounds.scm import demo_cohort_scm, sample_dataset, sweep_bounds
from medbounds.uncertainty import bound_covariance, bounds_jacobian
from medbounds.validate import (
    check_jacobian,
    check_mediation_reduction,
    check_scm_containment,
    check_shift_zero,
    check_sweep_agreement,
    coverage_simulation,
)

from conftest import DERIVED_THETA, MEDIATOR_COEFS, random_bundles

SWEEP_TOL = 1e-6
FD_TOL = 1e-6
EXACT_TOL = 1e-9
GOLDEN_TOL = 5e-4
SHIFT_ZERO_TOL = 1e-12
MEDIATION_TOL = 1e-10
COVERAGE_TARGET = 0.93
BOOTSTRAP_REL_TOL = 0.10


def report(criterion: int, label: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS {label}: {detail}")


def zero_cov_bundle(values) -> PredictorBundle:
    return PredictorBundle(values=np.asarray(values, dtype=float), cov=np.zeros((6, 6)))


def bounds_vector(eb) -> np.ndarray:
    return np.array(
        [eb.nde.lower, eb.nde.upper, eb.nie.lower, eb.nie.upper, eb.te.lower, eb.te.upper]
    )


def test_criterion_1_sweep_oracle_agreement():
    t0 = time.perf_counter()
    result = check_sweep_agreement(np.random.default_rng(101), 1000, points=100_001)
    elapsed = time.perf_counter() - t0
    assert result.measured < SWEEP_TOL
    assert elapsed < 60.0
    report(
        1, "sweep oracle agreement", f"max abs error {result.measured:.3e} (tol {SWEEP_TOL}), {elapsed:.1f}s"
    )


def test_criterion_2_derivative_matrix_vs_finite_differences():
    for bundle in random_bundles(102, 100):
        D = bounds_jacobian(bundle)
        assert D[4, 0] == 0.0 and D[4, 1] == 0.0
    result = check_jacobian(np.random.default_rng(102), 100)
    assert result.measured < FD_TOL
    report(
        2, "derivative matrix vs finite differences", f"max abs error {result.measured:.3e} (tol {FD_TOL})"
    )


def test_criterion_3_containment_on_confounding_free_models():
    result = check_scm_containment(np.random.default_rng(103), 200)
    assert result.measured < EXACT_TOL
    report(
        3,
        "containment on 200 confounding-free models",
        f"max of point-vs-truth gap and bound violation {result.measured:.3e} (tol {EXACT_TOL})",
    )


def test_criterion_4_derived_golden_values():
    bundle = zero_cov_bundle(DERIVED_THETA)
    p_range = sensitivity_probability_range(bundle)
    assert p_range.lower == pytest.approx(0.83341, abs=GOLDEN_TOL)
    assert p_range.upper == pytest.approx(0.94583, abs=GOLDEN_TOL)

    fr = factor_range(bundle, Pair.CROSS)
    assert fr.lower == pytest.approx(1.13491, abs=GOLDEN_TOL)
    assert fr.upper == pytest.approx(1.41492, abs=GOLDEN_TOL)

    eb = effect_bounds(bundle)
    assert eb.nde.lower == pytest.approx(0.5796, abs=GOLDEN_TOL)
    assert eb.nde.upper == pytest.approx(1.0206, abs=GOLDEN_TOL)
    assert eb.nie.lower == pytest.approx(-0.1216, abs=GOLDEN_TOL)
    assert eb.nie.upper == pytest.approx(0.4068, abs=GOLDEN_TOL)

    # confirm the frozen values against the sweep oracle as well
    sw = sweep_bounds(bundle, points=100_001)
    assert sw.nde.lower == pytest.approx(eb.nde.lower, abs=SWEEP_TOL)
    assert sw.nde.upper == pytest.approx(eb.nde.upper, abs=SWEEP_TOL)
    assert sw.nie.lower == pytest.approx(eb.nie.lower, abs=SWEEP_TOL)
    assert sw.nie.upper == pytest.approx(eb.nie.upper, abs=SWEEP_TOL)
    report(
        4,
        "demo-coefficient reproduction",
        f"p-range ({p_range.lower:.5f}, {p_range.upper:.5f}), factor ({fr.lower:.5f}, "
        f"{fr.upper:.5f}), NDE ({eb.nde.lower:.4f}, {eb.nde.upper:.4f}), "
        f"NIE ({eb.nie.lower:.4f}, {eb.nie.upper:.4f}) all within {GOLDEN_TOL}",
    )


def test_criterion_5_shift_zero_identity():
    result = check_shift_zero(np.random.default_rng(105), 10_000)
    assert result.measured < SHIFT_ZERO_TOL
    report(
        5, "shift-zero identity on 10^4 bundles", f"max abs gap {result.measured:.3e} (tol {SHIFT_ZERO_TOL})"
    )


def test_criterion_6_mediation_formula_identity():
    result = check_mediation_reduction(np.random.default_rng(106), 2000)
    assert result.measured < MEDIATION_TOL
    report(
        6,
        "mediation-formula identity, all three pairs",
        f"max abs gap {result.measured:.3e} (tol {MEDIATION_TOL})",
    )


def test_criterion_7_coverage_simulation():
    t0 = time.perf_counter()
    coverage = coverage_simulation(n=5000, replicates=500, alpha=0.05, seed=20_240_801)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    for effect, value in coverage.items():
        assert value >= COVERAGE_TARGET, f"{effect} coverage {value:.3f} below {COVERAGE_TARGET}"
    report(
        7,
        "coverage simulation (n=5000, 500 replicates)",
        f"nde={coverage['nde']:.3f} nie={coverage['nie']:.3f} te={coverage['te']:.3f} "
        f">= {COVERAGE_TARGET}, {elapsed:.0f}s",
    )


def test_criterion_8_bootstrap_vs_delta_method():
    # demo-cohort coefficient standard errors, diagonal covariances
    outcome_coefs = np.array([-3.925, 0.020, 1.250, -0.064, 0.587])
    outcome_se = np.array([0.899, 0.004, 0.264, 0.034, 0.376])
    mediator_coefs = np.array([0.418, 0.017, -0.098, 0.595])
    mediator_se = np.array([0.296, 0.002, 0.012, 0.114])
    rows_y = np.array(
        [[1, 50, 0, 28.5, 1], [1, 10, 0, 28.5, 1], [1, 50, 1, 28.5, 1], [1, 10, 1, 28.5, 1]],
        dtype=float,
    )
    rows_m = np.array([[1, 50, 28.5, 1], [1, 10, 28.5, 1]], dtype=float)

    sigma = np.zeros((6, 6))
    sigma[:4, :4] = rows_y @ np.diag(outcome_se**2) @ rows_y.T
    sigma[4:, 4:] = rows_m @ np.diag(mediator_se**2) @ rows_m.T
    bundle = PredictorBundle(values=DERIVED_THETA.copy(), cov=sigma)
    estimates = bound_covariance(bundle)
    var_te = np.array(
        [
            estimates.cov[0, 0] + estimates.cov[2, 2] + 2 * estimates.cov[0, 2],
            estimates.cov[1, 1] + estimates.cov[3, 3] + 2 * estimates.cov[1, 3],
        ]
    )

    rng = np.random.default_rng(108)
    taus = np.empty((2000, 6))
    for r in range(2000):
        beta = outcome_coefs + rng.standard_normal(5) * outcome_se
        gamma = mediator_coefs + rng.standard_normal(4) * mediator_se
        values = np.concatenate([rows_y @ beta, rows_m @ gamma])
        eb = effect_bounds(zero_cov_bundle(values))
        taus[r] = bounds_vector(eb)
    boot_sd = taus.std(axis=0, ddof=1)
    delta_sd = np.concatenate([estimates.stderr, np.sqrt(var_te)])
    rel = np.abs(boot_sd - delta_sd) / delta_sd
    assert np.all(rel < BOOTSTRAP_REL_TOL)
    report(
        8,
        "parametric bootstrap vs delta method (2000 replicates)",
        f"max relative SE gap {rel.max():.3f} (tol {BOOTSTRAP_REL_TOL})",
    )


def test_criterion_9_mle_recovery():
    scm = demo_cohort_scm()
    design = parse_design(["1", "x", "bmi", "gender"])
    truth = np.array([MEDIATOR_COEFS[k] for k in ("1", "x", "bmi", "gender")])
    hits = 0
    runs = 100
    for seed in range(runs):
        data = sample_dataset(scm, 50_000, seed=seed)
        model = fit_logistic(data, design, role="mediator")
        if np.all(np.abs(model.coefficients - truth) <= 3.0 * model.stderr):
            hits += 1
    assert hits >= 95
    report(9, "MLE recovery on 100 seeded runs", f"{hits}/100 runs within 3 standard errors")
