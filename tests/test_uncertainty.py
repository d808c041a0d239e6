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
    normal_quantile,
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


def expit(z):
    return 1.0 / (1.0 + np.exp(-z))


class TestJacobian:
    def test_structural_zeros_in_nde_columns(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            D = bounds_jacobian(random_bundle(rng))
            assert D[4, 0] == 0.0
            assert D[4, 1] == 0.0

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


class TestNormalQuantile:
    def test_against_rational_approximation_oracle(self):
        # Acklam's rational approximation, abs error < 1.15e-9; coded here
        # independently of the implementation
        a = [-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
             1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00]
        b = [-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
             6.680131188771972e01, -1.328068155288572e01]
        c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
             -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00]
        d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
             3.754408661907416e00]

        def acklam(p):
            p_low, p_high = 0.02425, 1 - 0.02425
            if p < p_low:
                q = np.sqrt(-2 * np.log(p))
                return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
                    (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
                )
            if p > p_high:
                return -acklam(1 - p)
            q = p - 0.5
            r = q * q
            return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
                ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
            )

        for p in (0.001, 0.025, 0.1, 0.33, 0.5, 0.66, 0.9, 0.975, 0.999):
            assert normal_quantile(p) == pytest.approx(acklam(p), abs=1e-8)

    def test_standard_values(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
        assert normal_quantile(0.5) == 0.0

    def test_matches_scipy_ndtri(self):
        from scipy.special import ndtri

        ps = np.concatenate(
            [np.logspace(-300, -1, 300), np.linspace(0.001, 0.999, 999), 1.0 - np.logspace(-16, -1, 100)]
        )
        for p in ps:
            ref = float(ndtri(p))
            assert abs(normal_quantile(float(p)) - ref) <= 2e-15 * abs(ref)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                normal_quantile(bad)


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
        eb = effect_bounds(derived_bundle_with_cov)
        est = bound_covariance(derived_bundle_with_cov)
        ui = uncertainty_intervals(eb, est, alpha=0.05)
        z = 1.9599639845400545
        assert ui.nde.lower == pytest.approx(eb.nde.lower - z * est.stderr[0], abs=1e-12)
        assert ui.nie.upper == pytest.approx(eb.nie.upper + z * est.stderr[3], abs=1e-12)
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
