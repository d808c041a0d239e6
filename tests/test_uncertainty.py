import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medbounds.bounds import effect_bounds
from medbounds.effects import PredictorBundle
from medbounds.scm import random_bundle
from medbounds.uncertainty import (
    BoundEstimates,
    bound_covariance,
    bounds_jacobian,
    total_effect_variances,
    uncertainty_intervals,
)
from medbounds.validate import check_jacobian

from conftest import DERIVED_THETA

# Coefficient standard errors to pair with the demo-cohort models; diagonal
# coefficient covariances assembled into the bundle covariance through the
# design rows of the derived contrast (x=50, x*=10, male, BMI 28.5).
OUTCOME_SE = {"1": 0.899, "x": 0.004, "m": 0.264, "bmi": 0.034, "gender": 0.376}
MEDIATOR_SE = {"1": 0.296, "x": 0.002, "bmi": 0.012, "gender": 0.114}


def derived_sigma() -> np.ndarray:
    rows_y = np.array(
        [
            [1, 50, 0, 28.5, 1],
            [1, 10, 0, 28.5, 1],
            [1, 50, 1, 28.5, 1],
            [1, 10, 1, 28.5, 1],
        ],
        dtype=float,
    )
    rows_m = np.array([[1, 50, 28.5, 1], [1, 10, 28.5, 1]], dtype=float)
    cov_y = np.diag([OUTCOME_SE[k] ** 2 for k in ("1", "x", "m", "bmi", "gender")])
    cov_m = np.diag([MEDIATOR_SE[k] ** 2 for k in ("1", "x", "bmi", "gender")])
    sigma = np.zeros((6, 6))
    sigma[:4, :4] = rows_y @ cov_y @ rows_y.T
    sigma[4:, 4:] = rows_m @ cov_m @ rows_m.T
    return sigma


@pytest.fixture
def derived_bundle_with_cov() -> PredictorBundle:
    return PredictorBundle(values=DERIVED_THETA.copy(), cov=derived_sigma())


def distinct_stderr_bundle() -> PredictorBundle:
    """The derived predictors with a dense covariance, under which the four log
    bound endpoints have distinct standard errors (under ``derived_sigma`` the
    two NDE ends share one), so an end widened by another's error shows."""
    a = np.random.default_rng(5).uniform(-0.3, 0.3, (6, 6))
    bundle = PredictorBundle(values=DERIVED_THETA.copy(), cov=a @ a.T)
    assert np.diff(np.sort(bound_covariance(bundle).stderr)).min() > 1e-3
    return bundle


def widened_ends(eb, ui) -> list:
    """(interval endpoint, bound endpoint, outward sign) of the NDE lower, NDE
    upper, NIE lower and NIE upper ends, the order of ``stderr``."""
    return [
        (ui.nde.lower, eb.nde.lower, -1.0),
        (ui.nde.upper, eb.nde.upper, 1.0),
        (ui.nie.lower, eb.nie.lower, -1.0),
        (ui.nie.upper, eb.nie.upper, 1.0),
    ]


def expit(z):
    return 1.0 / (1.0 + np.exp(-z))


class TestJacobian:
    def test_structural_zeros_in_nde_columns(self):
        D = bounds_jacobian(random_bundle(np.random.default_rng(0), 20))
        assert (D[:, 4, :2] == 0.0).all()

    def test_derived_first_entry(self, derived_bundle):
        D = bounds_jacobian(derived_bundle)
        # d(log NDE lower)/d(theta_1) = 1 - expit(g_ref - delta) at -2.86
        assert D[0, 0] == pytest.approx(1.0 - expit(-2.86), abs=1e-9)
        assert D[0, 0] == pytest.approx(0.94583, abs=5e-5)

    def test_matches_finite_differences(self):
        assert check_jacobian(np.random.default_rng(1), 100).measured < 1e-6

    def test_single_entry_against_scalar_fd(self, derived_bundle):
        h = 1e-6
        up = derived_bundle.values.copy()
        dn = derived_bundle.values.copy()
        up[0] += h
        dn[0] -= h
        fd = (
            effect_bounds(PredictorBundle(up, np.zeros((6, 6)))).nde.lower
            - effect_bounds(PredictorBundle(dn, np.zeros((6, 6)))).nde.lower
        ) / (2 * h)
        assert bounds_jacobian(derived_bundle)[0, 0] == pytest.approx(fd, rel=1e-6)


class TestBoundCovariance:
    def test_zero_sigma_gives_zero(self, derived_bundle):
        est = bound_covariance(derived_bundle)
        assert np.all(est.cov == 0.0)
        eb = effect_bounds(derived_bundle)
        assert np.allclose(
            est.log_bounds, [eb.nde.lower, eb.nde.upper, eb.nie.lower, eb.nie.upper]
        )

    def test_identity_sigma_gives_gram_matrix(self, derived_bundle):
        bundle = PredictorBundle(values=derived_bundle.values, cov=np.eye(6))
        est = bound_covariance(bundle)
        D = bounds_jacobian(bundle)
        assert np.allclose(est.cov, D.T @ D, atol=1e-12)
        assert np.allclose(est.cov, est.cov.T)

    def test_rejects_non_psd_sigma(self, derived_bundle):
        bad = np.eye(6)
        bad[0, 0] = -1.0
        with pytest.raises(ValueError, match="positive semidefinite"):
            bound_covariance(PredictorBundle(values=derived_bundle.values, cov=bad))

    def test_bootstrap_agreement(self, derived_bundle_with_cov):
        # parametric bootstrap of the bundle (exactly normal since the
        # bundle is linear in the coefficients) vs delta-method SEs
        est = bound_covariance(derived_bundle_with_cov)
        rng = np.random.default_rng(42)
        chol = np.linalg.cholesky(
            derived_bundle_with_cov.cov + 1e-12 * np.eye(6)
        )
        draws = derived_bundle_with_cov.values + (chol @ rng.standard_normal((6, 500))).T
        taus = []
        for values in draws:
            eb = effect_bounds(PredictorBundle(values=values, cov=np.zeros((6, 6))))
            taus.append([eb.nde.lower, eb.nde.upper, eb.nie.lower, eb.nie.upper])
        sd = np.asarray(taus).std(axis=0, ddof=1)
        assert np.all(np.abs(sd - est.stderr) / est.stderr < 0.15)


class TestTotalEffectVariances:
    def test_zero(self):
        est = BoundEstimates(log_bounds=np.zeros(4), cov=np.zeros((4, 4)))
        assert total_effect_variances(est) == (0.0, 0.0)

    def test_identity(self):
        est = BoundEstimates(log_bounds=np.zeros(4), cov=np.eye(4))
        assert total_effect_variances(est) == (2.0, 2.0)

    def test_cross_terms(self):
        cov = np.eye(4)
        cov[0, 2] = cov[2, 0] = 0.25
        cov[1, 3] = cov[3, 1] = -0.25
        est = BoundEstimates(log_bounds=np.zeros(4), cov=cov)
        lo, hi = total_effect_variances(est)
        assert lo == pytest.approx(2.5)
        assert hi == pytest.approx(1.5)

    def test_negative_clipped_with_warning(self):
        cov = np.eye(4)
        cov[0, 2] = cov[2, 0] = -1.5  # not PSD; forces a negative sum
        est = BoundEstimates(log_bounds=np.zeros(4), cov=cov)
        with pytest.warns(UserWarning, match="clipping"):
            lo, _ = total_effect_variances(est)
        assert lo == 0.0

    def test_bootstrap_agreement(self, derived_bundle_with_cov):
        est = bound_covariance(derived_bundle_with_cov)
        var_lo, var_hi = total_effect_variances(est)
        rng = np.random.default_rng(7)
        chol = np.linalg.cholesky(derived_bundle_with_cov.cov + 1e-12 * np.eye(6))
        draws = derived_bundle_with_cov.values + (chol @ rng.standard_normal((6, 500))).T
        te_lo, te_hi = [], []
        for values in draws:
            eb = effect_bounds(PredictorBundle(values=values, cov=np.zeros((6, 6))))
            te_lo.append(eb.te.lower)
            te_hi.append(eb.te.upper)
        assert np.var(te_lo, ddof=1) == pytest.approx(var_lo, rel=0.15)
        assert np.var(te_hi, ddof=1) == pytest.approx(var_hi, rel=0.15)


class TestUncertaintyIntervals:
    def test_alpha_near_one_recovers_bounds(self, derived_bundle_with_cov):
        eb = effect_bounds(derived_bundle_with_cov)
        est = bound_covariance(derived_bundle_with_cov)
        ui = uncertainty_intervals(eb, est, alpha=1 - 1e-12)
        assert ui.nde.lower == pytest.approx(eb.nde.lower, abs=1e-5)
        assert ui.nde.upper == pytest.approx(eb.nde.upper, abs=1e-5)

    def test_zero_covariance_recovers_bounds(self, derived_bundle):
        eb = effect_bounds(derived_bundle)
        est = bound_covariance(derived_bundle)
        ui = uncertainty_intervals(eb, est, alpha=0.05)
        assert ui.nde.lower == eb.nde.lower
        assert ui.te.upper == eb.te.upper

    def test_widening_uses_the_right_quantile(self, derived_bundle_with_cov):
        z = 1.9599639845400545
        for bundle in (derived_bundle_with_cov, distinct_stderr_bundle()):
            eb, est = effect_bounds(bundle), bound_covariance(bundle)
            ui = uncertainty_intervals(eb, est, alpha=0.05)
            for i, (widened, end, side) in enumerate(widened_ends(eb, ui)):
                assert widened == pytest.approx(end + side * z * est.stderr[i], abs=1e-12)
            var_lo, var_hi = total_effect_variances(est)
            assert ui.te.lower == pytest.approx(eb.te.lower - z * np.sqrt(var_lo), abs=1e-12)
            assert ui.te.upper == pytest.approx(eb.te.upper + z * np.sqrt(var_hi), abs=1e-12)

    def test_nesting(self, derived_bundle_with_cov):
        eb = effect_bounds(derived_bundle_with_cov)
        est = bound_covariance(derived_bundle_with_cov)
        for alpha in (0.01, 0.05, 0.2, 0.5, 0.9):
            ui = uncertainty_intervals(eb, est, alpha)
            assert ui.nde.lower <= eb.nde.lower and eb.nde.upper <= ui.nde.upper
            assert ui.nie.lower <= eb.nie.lower and eb.nie.upper <= ui.nie.upper
            assert ui.te.lower <= eb.te.lower and eb.te.upper <= ui.te.upper

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.01, 0.5), st.floats(0.01, 0.49))
    def test_monotone_in_alpha(self, alpha, shrink):
        bundle = PredictorBundle(values=DERIVED_THETA.copy(), cov=derived_sigma())
        eb = effect_bounds(bundle)
        est = bound_covariance(bundle)
        wide = uncertainty_intervals(eb, est, alpha)
        narrow = uncertainty_intervals(eb, est, min(alpha + shrink, 0.999))
        assert wide.nde.lower <= narrow.nde.lower + 1e-12
        assert narrow.nde.upper <= wide.nde.upper + 1e-12

    def test_alpha_out_of_range(self, derived_bundle):
        eb = effect_bounds(derived_bundle)
        est = bound_covariance(derived_bundle)
        for bad in (0.0, 1.0, 2.0, -0.1):
            with pytest.raises(ValueError):
                uncertainty_intervals(eb, est, bad)

    def test_nan_alpha_is_rejected(self, derived_bundle):
        eb = effect_bounds(derived_bundle)
        est = bound_covariance(derived_bundle)
        with pytest.raises(ValueError, match="alpha must lie strictly between 0 and 1"):
            uncertainty_intervals(eb, est, float("nan"))

    def test_bounds_and_estimates_of_different_bundles_are_rejected(self, derived_bundle_with_cov):
        one = derived_bundle_with_cov
        values = np.stack([one.values, one.values + 0.1, one.values])
        batch = PredictorBundle(values=values, cov=np.stack([one.cov] * 3))
        same_rows = PredictorBundle(values=values[[0, 0, 2]], cov=batch.cov)
        with pytest.raises(ValueError, match=r"shape \(3, 4\) and estimates of shape \(4,\)"):
            uncertainty_intervals(effect_bounds(batch), bound_covariance(one))
        with pytest.raises(ValueError, match=r"shape \(4,\) and estimates of shape \(3, 4\)"):
            uncertainty_intervals(effect_bounds(one), bound_covariance(batch))
        with pytest.raises(ValueError, match="come from different bundles in row 1$"):
            uncertainty_intervals(effect_bounds(batch), bound_covariance(same_rows))
        other = PredictorBundle(values=one.values + 0.1, cov=one.cov)
        with pytest.raises(ValueError, match="come from different bundles$"):
            uncertainty_intervals(effect_bounds(one), bound_covariance(other))

    def test_widening_matches_scipy_ndtri(self, derived_bundle_with_cov):
        from scipy.special import ndtri

        for bundle in (derived_bundle_with_cov, distinct_stderr_bundle()):
            eb, est = effect_bounds(bundle), bound_covariance(bundle)
            se = est.stderr
            for alpha in np.concatenate([np.logspace(-12, -1, 23), np.linspace(0.05, 0.95, 19)]):
                ui = uncertainty_intervals(eb, est, float(alpha))
                z = float(ndtri(1.0 - alpha / 2.0))
                for i, (widened, end, side) in enumerate(widened_ends(eb, ui)):
                    assert side * (widened - end) / se[i] == pytest.approx(z, rel=1e-9)
