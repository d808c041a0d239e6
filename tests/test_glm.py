import gc
import pickle
import weakref
from collections.abc import Mapping
from copy import deepcopy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from medbounds import bounds
from medbounds.bounds import effect_bounds
from medbounds.errors import (
    IngestionError,
    MissingVariableError,
    SeparationError,
    SingularDesignError,
)
from medbounds.glm import (
    Dataset,
    DesignSpec,
    Point,
    Term,
    fit_logistic,
    load_csv,
    model_from_dict,
    model_to_dict,
    parse_design,
    parse_term,
    softplus,
)
from medbounds.effects import Contrast, Pair, predictor_bundle
from medbounds.scm import demo_cohort_scm, sample_dataset
from medbounds.uncertainty import bound_covariance, uncertainty_intervals

from conftest import MALE_PROFILE, MEDIATOR_COEFS, OUTCOME_COEFS, pattern_table, stands_for_the_rows


def tiny_dataset():
    return Dataset(
        outcome=[0, 1, 0, 1],
        mediator=[0, 0, 1, 1],
        exposure=[1.0, 2.0, 3.0, 4.0],
        covariates={"z": [0.0, 1.0, 0.0, 1.0]},
    )


@pytest.fixture(scope="module")
def cohort():
    return sample_dataset(demo_cohort_scm(), 3270, 20240801)


def continuous_cohort(n, seed):
    """The demo cohort with exposure and BMI jittered, so no two rows share a design row."""
    data = sample_dataset(demo_cohort_scm(), n, seed)
    rng = np.random.default_rng(seed)
    covariates = dict(data.covariates, bmi=data.covariates["bmi"] + rng.normal(0.0, 0.5, n))
    return Dataset(data.outcome, data.mediator, data.exposure + rng.uniform(-4.0, 4.0, n), covariates)


def direct_fit(X, y):
    """The maximum-likelihood coefficients of a general-purpose optimiser."""

    def nll(beta):
        eta = X @ beta
        return -(y @ eta - np.logaddexp(0.0, eta).sum())

    return minimize(nll, np.zeros(X.shape[1]), method="BFGS", options={"gtol": 1e-10}).x


# ---------------------------------------------------------------- designs


class TestTerms:
    def test_parse_roundtrip_names(self):
        design = parse_design(["1", "x", "m", "bmi", "x*m", "bmi^2"])
        assert design.names == ["1", "x", "m", "bmi", "x*m", "bmi^2"]
        assert design.includes_mediator
        # whitespace around the operators changes neither names nor values
        spaced = parse_design([" x * m ", "m ^2", "bmi ^ 2 * x"])
        assert spaced.names == ["x*m", "m^2", "bmi^2*x"]
        point = Point(2.0, 3.0, {"bmi": 5.0})
        assert np.array_equal(spaced.evaluate(point, 1)[0], [6.0, 9.0, 50.0])

    def test_mediator_flag_absent(self):
        assert not parse_design(["1", "x", "bmi"]).includes_mediator
        assert not parse_design(["1", "x ^ 2", "mm * bmi"]).includes_mediator

    def test_row_evaluation(self):
        design = parse_design(["1", "x", "m", "bmi", "gender"])
        row = design.evaluate(Point(50.0, 0.0, MALE_PROFILE), 1)[0]
        assert np.allclose(row, [1.0, 50.0, 0.0, 28.5, 1.0])

    def test_interaction_and_power(self):
        t = parse_term("x*bmi^2")
        assert t(Point(2.0, None, {"bmi": 3.0})) == pytest.approx(18.0)

    def test_missing_covariate_named(self):
        design = parse_design(["1", "age"])
        with pytest.raises(MissingVariableError, match="age"):
            design.evaluate(Point(1.0, None, {}), 1)[0]

    def test_mediator_in_mediator_point(self):
        with pytest.raises(MissingVariableError, match="'m'"):
            parse_design(["m"]).evaluate(Point(1.0, None, {}), 1)[0]

    def test_bad_expression(self):
        with pytest.raises(ValueError):
            parse_term("x+(m)")

    def test_roles_are_not_shadowed_by_covariates_of_their_name(self):
        point = Point(20.0, 1.0, {"x": 30.0, "m": 0.0, "z": 10.0})
        for name in ("x", "m", "z"):
            assert float(parse_term(name)(point)) == {"x": 20.0, "m": 1.0, "z": 10.0}[name]
        with pytest.raises(MissingVariableError, match="'m'"):
            parse_term("m")(Point(0.0, None, {"m": 0.0}))

    def test_callable_terms_fit_and_reach_the_effect_chain(self, cohort):
        # a step function of x and a log covariate: bases no term expression writes
        design = DesignSpec(
            terms=(
                parse_term("1"),
                Term("band(x)", lambda p: np.floor(np.asarray(p.exposure) / 50.0)),
                Term("log_bmi", lambda p: np.log(p.covariates["bmi"])),
                parse_term("gender"),
            ),
            includes_mediator=False,
        )
        assert design.names == ["1", "band(x)", "log_bmi", "gender"]
        assert np.array_equal(design.matrix(cohort)[:, 1], np.floor(cohort.exposure / 50.0))
        mediator = fit_logistic(cohort, design, role="mediator")
        outcome = fit_logistic(cohort, parse_design(["1", "x", "m", "bmi", "gender"]))
        bundle = predictor_bundle(outcome, mediator, Contrast(120.0, 60.0, MALE_PROFILE))
        for x, pair in ((120.0, Pair.ACTIVE), (60.0, Pair.REFERENCE)):
            row = design.evaluate(Point(x, None, MALE_PROFILE), 1)[0]
            assert bundle.mediator_part(pair) == pytest.approx(row @ mediator.coefficients, abs=1e-12)
        eb = bounds.effect_bounds(bundle)
        assert eb.nie.lower <= eb.point.nie <= eb.nie.upper


# ---------------------------------------------------------------- fitting


class TestSoftplus:
    def test_matches_logaddexp_on_a_wide_grid(self):
        z = np.concatenate(
            [np.linspace(-750.0, 750.0, 100_001), np.geomspace(1e-300, 1e308, 2001), -np.geomspace(1e-300, 1e308, 2001)]
        )
        ref = np.logaddexp(0.0, z)
        got = softplus(z)
        assert np.all(got[ref == 0.0] == 0.0)
        nonzero = ref != 0.0
        assert np.max(np.abs(got[nonzero] - ref[nonzero]) / ref[nonzero]) <= 1e-15

    def test_special_values(self):
        z = np.array([np.inf, -np.inf, 1e308, -1e308])
        assert softplus(z).tolist() == [np.inf, 0.0, 1e308, 0.0]
        assert np.isnan(softplus(np.nan))

    def test_is_the_softplus_of_the_effect_algebra(self):
        # the log-scale bound algebra; the effect chain runs on the probability scale
        assert bounds.softplus is softplus


class TestFitLogistic:
    def test_balanced_intercept_only(self):
        data = Dataset(
            outcome=[0, 1, 0, 1], mediator=[0, 1, 0, 1], exposure=[0, 0, 0, 0], covariates={}
        )
        model = fit_logistic(data, parse_design(["1"]))
        assert model.coefficients[0] == pytest.approx(0.0, abs=1e-10)
        # n p (1-p) = 4 * 0.25 -> variance 1
        assert model.covariance[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_matches_direct_likelihood_optimizer(self):
        scm = demo_cohort_scm()
        data = sample_dataset(scm, 2000, seed=11)
        design = parse_design(["1", "x", "m", "bmi", "gender"])
        model = fit_logistic(data, design)
        # the demo cohort repeats design rows, so this fit ran on patterns
        assert model.report.patterns < data.n // 2
        assert np.allclose(model.coefficients, direct_fit(design.matrix(data), data.outcome), atol=1e-6)

    def test_recovers_generating_coefficients(self):
        scm = demo_cohort_scm()
        data = sample_dataset(scm, 50_000, seed=3)
        model = fit_logistic(data, parse_design(["1", "x", "bmi", "gender"]), role="mediator")
        truth = np.array([MEDIATOR_COEFS[k] for k in ("1", "x", "bmi", "gender")])
        assert np.all(np.abs(model.coefficients - truth) < 3.0 * model.stderr)

    def test_separation_detected(self):
        rng = np.random.default_rng(0)
        m = rng.integers(0, 2, 200).astype(float)
        data = Dataset(
            outcome=m.copy(), mediator=m, exposure=rng.normal(size=200), covariates={}
        )
        with pytest.raises(SeparationError):
            fit_logistic(data, parse_design(["1", "x", "m"]))

    @pytest.mark.parametrize("share", [0.003, 0.01, 0.1])
    @pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (1e3, 1e3)])
    def test_quasi_separation_by_a_rare_covariate_is_detected(self, cohort, share, scale, shift):
        # a covariate set on a share of the rows, with y = 1 on each of
        # them: its coefficient has no finite optimum, however it is scaled.
        # In the orthonormal basis such a column's coefficient is the linear
        # predictor on those rows divided by about 1/sqrt(share), so a rule
        # on those coefficients lets the fit converge at a slope of about 30
        rng = np.random.default_rng(21)
        z = np.zeros(cohort.n)
        z[rng.choice(cohort.n, size=int(share * cohort.n), replace=False)] = 1.0
        data = Dataset(
            np.where(z == 1.0, 1.0, cohort.outcome), cohort.mediator, cohort.exposure,
            dict(cohort.covariates, z=scale * z + shift),
        )
        with pytest.raises(SeparationError, match="numerically 0 or 1"):
            fit_logistic(data, parse_design(["1", "x", "m", "bmi", "gender", "z"]))

    @pytest.mark.parametrize("column", ["x", "bmi"])
    def test_fit_does_not_depend_on_column_units(self, column):
        # exposure in thousands of pack-years used to trip the separation
        # check, whose threshold applied to original-scale coefficients
        data = sample_dataset(demo_cohort_scm(), 3270, 20240801)
        design = parse_design(["1", "x", "bmi", "gender"])
        base = fit_logistic(data, design, role="mediator")
        p_base = 1.0 / (1.0 + np.exp(-design.matrix(data) @ base.coefficients))
        for scale in (1e-3, 1e-2, 1e-1, 1e1, 1e2, 1e3):
            covariates = dict(data.covariates)
            exposure = data.exposure
            if column == "x":
                exposure = exposure * scale
            else:
                covariates[column] = covariates[column] * scale
            rescaled = Dataset(data.outcome, data.mediator, exposure, covariates)
            model = fit_logistic(rescaled, design, role="mediator")
            p = 1.0 / (1.0 + np.exp(-design.matrix(rescaled) @ model.coefficients))
            np.testing.assert_allclose(p, p_base, rtol=0.0, atol=1e-10)

    def test_collinear_design_names_terms(self):
        data = tiny_dataset()
        with pytest.raises(SingularDesignError) as exc:
            fit_logistic(data, parse_design(["1", "x", "x", "z"]))
        assert "x" in str(exc.value)

    def test_more_terms_than_rows_names_the_surplus_term(self):
        data = Dataset(
            outcome=[0, 1, 1],
            mediator=[0, 1, 0],
            exposure=[1.0, 2.0, 4.0],
            covariates={"z": [0.0, 1.0, 3.0], "w": [5.0, 1.0, 2.0]},
        )
        with pytest.raises(SingularDesignError) as exc:
            fit_logistic(data, parse_design(["1", "x", "z", "w"]))
        assert len(exc.value.terms) == 1
        assert exc.value.terms[0] in {"1", "x", "z", "w"}

    @pytest.mark.parametrize(
        "exprs, column, changed, base",
        [
            # bmi with an offset of 273.15 used to trip the separation check:
            # without centring, the intercept absorbed the offset
            (["1", "x", "bmi", "gender"], "bmi", (1.0, 273.15), (1.0, 0.0)),
            # powers and products of a column far from its origin used to
            # raise a false SeparationError: centred and rescaled one by one,
            # they stayed nearly collinear and their coefficients passed 15
            # while the fitted probabilities stayed moderate
            (["1", "x", "x^2", "x^3", "m", "bmi", "gender"], "x", (1.0, 0.0), (1.0, -90.0)),
            (["1", "x", "x^2", "x^3", "m", "bmi", "gender"], "x", (0.01, 0.0), (1.0, -90.0)),
            (["1", "x", "m", "x*m", "bmi", "gender"], "x", (1.0, 1000.0), (1.0, 0.0)),
            (["1", "x", "m", "x*m", "bmi", "gender"], "x", (0.1, 1000.0), (1.0, 0.0)),
            (["1", "x", "m", "x*m", "bmi", "gender"], "x", (1e-3, 5.0), (1.0, 0.0)),
            (["1", "x", "m", "x*m", "bmi", "gender"], "x", (1e-3, -7.0), (1.0, 0.0)),
        ],
    )
    def test_fit_does_not_depend_on_column_origin(self, cohort, exprs, column, changed, base):
        # the fitted probabilities with the column mapped to a*v + b for
        # (a, b) = changed equal those with (a, b) = base
        data = cohort
        design = parse_design(exprs)
        role = "outcome" if design.includes_mediator else "mediator"

        def probabilities(a, b):
            covariates, exposure = dict(data.covariates), data.exposure
            if column == "x":
                exposure = a * exposure + b
            else:
                covariates[column] = a * covariates[column] + b
            mapped = Dataset(data.outcome, data.mediator, exposure, covariates)
            model = fit_logistic(mapped, design, role=role)
            return 1.0 / (1.0 + np.exp(-design.matrix(mapped) @ model.coefficients))

        np.testing.assert_allclose(probabilities(*changed), probabilities(*base), rtol=0.0, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        column=st.sampled_from(["x", "bmi"]),
        log_scale=st.floats(-3.0, 3.0),
        shift=st.floats(-1e3, 1e3),
    )
    def test_affine_change_of_a_column_leaves_probabilities(self, cohort, column, log_scale, shift):
        data = cohort
        design = parse_design(["1", "x", "bmi", "gender"])
        base = fit_logistic(data, design, role="mediator")
        covariates, exposure = dict(data.covariates), data.exposure
        if column == "x":
            exposure = exposure * 10.0**log_scale + shift
        else:
            covariates[column] = covariates[column] * 10.0**log_scale + shift
        changed = Dataset(data.outcome, data.mediator, exposure, covariates)
        model = fit_logistic(changed, design, role="mediator")
        p_base = 1.0 / (1.0 + np.exp(-design.matrix(data) @ base.coefficients))
        p = 1.0 / (1.0 + np.exp(-design.matrix(changed) @ model.coefficients))
        np.testing.assert_allclose(p, p_base, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize(
        "column, scale, shift",
        [("bmi", 0.25, -7.0), ("bmi", 1e3, 5.0), ("x", 1e-3, 0.0), ("x", 1e2, 0.0)],
    )
    def test_units_of_a_column_leave_bundles_bounds_and_intervals(self, cohort, column, scale, shift):
        # end to end: a covariate changed affinely with its profile value, or
        # the exposure rescaled with the contrast levels, leaves the bundle of
        # a contrast grid (values and covariance), its bounds, point effects
        # and intervals, with an exposure-by-mediator term in the outcome model
        outcome_design = parse_design(["1", "x", "m", "x*m", "bmi", "gender"])
        mediator_design = parse_design(["1", "x", "bmi", "gender"])
        levels, profile = np.array([20.0, 50.0, 100.0, 170.0]), {"bmi": 27.564, "gender": 1.0}

        def results(data, contrast):
            bundle = predictor_bundle(
                fit_logistic(data, outcome_design, role="outcome"),
                fit_logistic(data, mediator_design, role="mediator"),
                contrast,
            )
            eb = effect_bounds(bundle)
            ui = uncertainty_intervals(eb, bound_covariance(bundle))
            pairs = [getattr(r, k) for r in (eb, ui) for k in ("nde", "nie", "te")]
            return [bundle.values, bundle.cov, *(bp.lower for bp in pairs), *(bp.upper for bp in pairs),
                    eb.point.nde, eb.point.nie, eb.point.te]

        def change(v):
            return v * scale + shift

        data = cohort
        base = results(data, Contrast(levels, 10.0, profile))
        if column == "x":
            changed = Dataset(data.outcome, data.mediator, change(data.exposure), data.covariates)
            contrast = Contrast(change(levels), change(10.0), profile)
        else:
            covariates = dict(data.covariates, bmi=change(data.covariates["bmi"]))
            changed = Dataset(data.outcome, data.mediator, data.exposure, covariates)
            contrast = Contrast(levels, 10.0, dict(profile, bmi=change(profile["bmi"])))
        for got, want in zip(results(changed, contrast), base):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

    def test_rank_check_matches_scipy_pivoted_qr(self):
        # same decision and same named terms as the pivoted QR of the whole
        # design, on designs with planted collinearity and mixed column scales;
        # a full-rank design's map T gives sqrt(counts) X T orthogonal columns
        # of norm sqrt(rows), with unit counts and with counts of 1-3
        from scipy.linalg import qr

        from medbounds.glm import _basis

        def reference(X, names):
            _, r_mat, piv = qr(X, mode="economic", pivoting=True)
            diag = np.abs(np.diag(r_mat))
            tol = diag.max() * max(X.shape) * np.finfo(float).eps if diag.max() > 0 else 0.0
            deficient = [names[piv[j]] for j in range(len(diag)) if diag[j] <= tol]
            return list(names) if diag.max() == 0.0 else deficient

        def assert_orthonormal(X, counts, names):
            Z = np.sqrt(counts)[:, None] * X @ _basis(X, counts, names)
            np.testing.assert_allclose(Z.T @ Z / counts.sum(), np.eye(X.shape[1]), rtol=0.0, atol=1e-10)

        rng = np.random.default_rng(8)
        count_rng = np.random.default_rng(9)
        decisions = []
        for _ in range(500):
            n, k = int(rng.integers(10, 300)), int(rng.integers(2, 8))
            X = rng.normal(size=(n, k))
            X[:, 0] = 1.0
            for _ in range(int(rng.integers(0, 3))):
                j = int(rng.integers(1, k))
                others = [i for i in range(k) if i != j]
                picked = rng.choice(others, size=int(rng.integers(1, len(others) + 1)), replace=False)
                X[:, j] = X[:, picked] @ rng.normal(size=len(picked))
            X *= 10.0 ** rng.uniform(-3.0, 3.0, size=k)
            names = [f"t{i}" for i in range(k)]
            expected = reference(X, names)
            try:
                _basis(X, np.ones(n), names)
                got = []
            except SingularDesignError as exc:
                got = exc.terms
            # past the rank drop the residual norms are rounding noise, so the
            # order in which the deficient terms are found is not compared
            assert sorted(got) == sorted(expected)
            decisions.append(bool(expected))
            if not expected:
                assert_orthonormal(X, np.ones(n), names)
                assert_orthonormal(X, count_rng.integers(1, 4, n).astype(float), names)
        assert 100 < sum(decisions) < 400

    def test_role_validation(self):
        data = tiny_dataset()
        for exprs in (["1", "m"], ["1", "x", "m ^2"], ["1", "x", "m ^ 2"], ["1", "z * m"]):
            design = parse_design(exprs)
            assert design.includes_mediator
            with pytest.raises(ValueError, match="mediator-model"):
                fit_logistic(data, design, role="mediator")
        with pytest.raises(ValueError, match="role"):
            fit_logistic(data, parse_design(["1"]), role="other")

    def test_loglik_nondecreasing(self):
        scm = demo_cohort_scm()
        data = sample_dataset(scm, 1000, seed=5)
        model = fit_logistic(data, parse_design(["1", "x", "m", "bmi", "gender"]))
        trace = np.array(model.report.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1]))
        assert model.report.grad_norm < 1e-8

    def test_covariance_inverts_information(self):
        scm = demo_cohort_scm()
        data = sample_dataset(scm, 2000, seed=7)
        design = parse_design(["1", "x", "m", "bmi", "gender"])
        model = fit_logistic(data, design)
        X = design.matrix(data)
        p = 1.0 / (1.0 + np.exp(-(X @ model.coefficients)))
        info = (X * (p * (1 - p))[:, None]).T @ X
        assert np.allclose(model.covariance @ info, np.eye(X.shape[1]), atol=1e-9)

    def test_affine_rescaling_invariance(self):
        scm = demo_cohort_scm()
        data = sample_dataset(scm, 2000, seed=9)
        design = parse_design(["1", "x", "m", "bmi", "gender"])
        base = fit_logistic(data, design)

        a, b = 0.25, -7.0  # bmi -> a*bmi + b
        data2 = Dataset(
            outcome=data.outcome,
            mediator=data.mediator,
            exposure=data.exposure,
            covariates={"bmi": a * data.covariates["bmi"] + b, "gender": data.covariates["gender"]},
        )
        other = fit_logistic(data2, design)

        X = design.matrix(data)
        X2 = design.matrix(data2)
        p1 = 1.0 / (1.0 + np.exp(-(X @ base.coefficients)))
        p2 = 1.0 / (1.0 + np.exp(-(X2 @ other.coefficients)))
        assert np.abs(p1 - p2).max() < 1e-10
        # coefficient transform: slope scales by 1/a, intercept absorbs -b/a * slope
        assert other.coefficients[3] * a == pytest.approx(base.coefficients[3], abs=1e-8)
        assert other.coefficients[0] + other.coefficients[3] * b == pytest.approx(
            base.coefficients[0], abs=1e-8
        )

    def test_deterministic(self):
        data = sample_dataset(demo_cohort_scm(), 500, seed=13)
        design = parse_design(["1", "x", "m", "bmi", "gender"])
        a = fit_logistic(data, design)
        b = fit_logistic(data, design)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.covariance, b.covariance)

    def test_all_distinct_rows_match_direct_likelihood_optimizer(self):
        data = continuous_cohort(2000, 11)
        design = parse_design(["1", "x", "m", "bmi", "gender"])
        model = fit_logistic(data, design)
        assert model.report.patterns == data.n
        assert np.allclose(model.coefficients, direct_fit(design.matrix(data), data.outcome), atol=1e-6)

    def test_tripled_shuffled_rows_fit_like_the_originals(self):
        # the originals are all distinct and fit on rows; the tripled rows
        # fit on patterns, three rows to each
        data = continuous_cohort(3000, 12)
        design = parse_design(["1", "x", "m", "bmi", "gender"])
        base = fit_logistic(data, design)
        idx = np.random.default_rng(12).permutation(np.tile(np.arange(data.n), 3))
        tripled = Dataset(
            data.outcome[idx], data.mediator[idx], data.exposure[idx],
            {k: v[idx] for k, v in data.covariates.items()},
        )
        model = fit_logistic(tripled, design)
        assert base.report.patterns == model.report.patterns == data.n
        np.testing.assert_allclose(model.coefficients, base.coefficients, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(3.0 * model.covariance, base.covariance, rtol=1e-12, atol=0.0)

    def test_rows_whose_keys_collide_are_not_merged(self):
        from medbounds.glm import _fit_rows, _patterns, _row_keys

        # the key is a dot product with fixed weights w: a row one x above
        # another collides with it when its z is w_x / w_z below, to the
        # last bit of the key; the nearest such z is found ulp by ulp
        w = _row_keys(np.eye(3))
        key = lambda x, z: _row_keys(np.array([[1.0, x, z]]))[0]
        xa, za, xb = 3.0, 1.0, 4.0
        guess = za - w[1] / w[2]
        steps = sorted(range(-512, 513), key=abs)
        zb = next(z for z in (guess + s * np.spacing(guess) for s in steps) if key(xb, z) == key(xa, za))

        rng = np.random.default_rng(4)
        n = 600
        x = np.r_[xa, xb, rng.integers(0, 10, n - 2)].astype(float)
        z = np.r_[za, zb, rng.integers(0, 3, n - 2)].astype(float)
        y = rng.integers(0, 2, n).astype(float)
        X = np.column_stack([np.ones(n), x, z])
        keys = _row_keys(X)
        assert keys[0] == keys[1] and not np.array_equal(X[0], X[1])
        # without the colliding rows the data would be reduced ...
        rest = _patterns(X[2:], y[2:], np.ones(n - 2))
        assert len(rest[0]) < (n - 2) // 2
        # ... and with them it is: the two rows of one key are split off as
        # two patterns, and the patterns rebuild the rows
        rows, counts, sums = _patterns(X, y, np.ones(n))
        assert len(rest[0]) < len(rows) < n // 2
        assert pattern_table(rows, counts, sums) == pattern_table(X, np.ones(n), y)
        data = Dataset(outcome=y, mediator=rng.integers(0, 2, n), exposure=x, covariates={"z": z})
        fit_rows = _fit_rows(data, parse_design(["1", "x", "z"]), "outcome")
        assert pattern_table(*fit_rows) == pattern_table(X, np.ones(n), y)

        model = fit_logistic(data, parse_design(["1", "x", "z"]))
        assert model.report.patterns == len(rows)
        assert np.allclose(model.coefficients, direct_fit(X, y), atol=1e-6)

    def test_row_key_weights_are_the_pinned_draws(self):
        from medbounds.glm import _KEY_WEIGHTS, _row_keys

        # the pinned table, rebuilt bit for bit from the generator it stands
        # for; a design wider than the table draws its weights from it too
        assert (_KEY_WEIGHTS == np.random.default_rng(0).uniform(1.0, 2.0, 16)).all()
        for k in (1, 5, 16, 17, 40):
            assert (_row_keys(np.eye(k)) == np.random.default_rng(0).uniform(1.0, 2.0, k)).all()

    def test_a_signed_zero_does_not_split_a_pattern(self):
        from medbounds.glm import _patterns

        rng = np.random.default_rng(5)
        n = 400
        X = np.column_stack([np.ones(n), rng.integers(0, 4, n).astype(float), np.zeros(n)])
        X[::2, 2] = -0.0
        rows, counts, _ = _patterns(X, rng.integers(0, 2, n).astype(float), np.ones(n))
        assert len(rows) == 4 and counts.sum() == n

    def test_nonconvergence_reports_trajectory(self, monkeypatch):
        from medbounds import glm
        from medbounds.errors import ConvergenceError

        monkeypatch.setattr(glm, "MAX_ITER", 2)
        data = sample_dataset(demo_cohort_scm(), 800, seed=17)
        with pytest.raises(ConvergenceError) as exc:
            fit_logistic(data, parse_design(["1", "x", "m", "bmi", "gender"]))
        assert exc.value.trajectory is not None
        assert len(exc.value.trajectory) >= 2


class TestSharedReduction:
    """Both fits on a dataset share one reduction of its rows: rows and the
    count of each, the rows of a loaded file's distinct lines or worked out
    on first use. Each design is evaluated once, on those rows weighted by
    their counts, and reduced. Where no two different rows share a key, the
    Newton loop must get what reducing the design on every row gives:
    ``per_design_patterns``, the reduction each fit made on its own before,
    kept verbatim as the reference."""

    DESIGNS = {"outcome": ["1", "x", "m", "bmi", "gender"], "mediator": ["1", "x", "bmi", "gender"]}

    @staticmethod
    def per_design_patterns(X, y):
        from medbounds import glm

        n = len(X)
        key = glm._row_keys(X)
        sorted_key = np.sort(key)
        new = np.concatenate(([True], sorted_key[1:] != sorted_key[:-1]))
        groups = int(np.count_nonzero(new))
        if 2 * groups >= n:
            return X, np.ones(n), y
        order = np.argsort(key)
        inverse = np.empty(n, dtype=np.intp)
        inverse[order] = np.cumsum(new) - 1
        rows = X[order[new]]
        if not np.array_equal(rows.take(inverse, axis=0), X):
            return X, np.ones(n), y
        counts = np.bincount(inverse, minlength=groups).astype(float)
        return rows, counts, np.bincount(inverse, weights=y, minlength=groups)

    def assert_fits_as_per_design(self, monkeypatch, data, designs):
        """Each fit's rows, counts and sums, and the fit itself, equal the
        per-design reduction's bit for bit; the count of Newton rows each."""
        from medbounds import glm

        shared = {}
        for role, design in designs.items():
            shared[role] = (glm._fit_rows(data, design, role), fit_logistic(data, design, role))
        per_design = lambda data, design, role: self.per_design_patterns(
            design.matrix(data), data.outcome if role == "outcome" else data.mediator
        )
        monkeypatch.setattr(glm, "_fit_rows", per_design)
        patterns = {}
        for role, design in designs.items():
            (rows, counts, sums), model = shared[role]
            ref_rows, ref_counts, ref_sums = per_design(data, design, role)
            assert rows.tobytes() == ref_rows.tobytes() and rows.shape == ref_rows.shape
            assert counts.tobytes() == ref_counts.tobytes() and sums.tobytes() == ref_sums.tobytes()
            ref = fit_logistic(data, design, role)
            assert model.coefficients.tobytes() == ref.coefficients.tobytes()
            assert model.covariance.tobytes() == ref.covariance.tobytes()
            assert model.report == ref.report
            patterns[role] = len(rows)
        return patterns

    def parsed(self):
        return {role: parse_design(exprs) for role, exprs in self.DESIGNS.items()}

    @staticmethod
    def loaded(tmp_path, data):
        """The rows of ``data`` written to a CSV, each value in its shortest
        round-trip form, and read back: a dataset that holds the rows of the
        file's distinct lines as its reduction."""
        path = tmp_path / "rows.csv"
        table = np.column_stack([data.outcome, data.mediator, data.exposure, *data.covariates.values()])
        path.write_text("y,m,x,bmi,gender\n" + "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()))
        copy = load_csv(path, "y", "m", "x", list(data.covariates))
        columns = [copy.outcome, copy.mediator, copy.exposure, *copy.covariates.values()]
        assert "_reduced" in vars(copy) and np.column_stack(columns).tobytes() == table.tobytes()
        return copy

    @pytest.mark.parametrize("kind", ["in-memory", "loaded"])
    def test_fits_match_the_per_design_reduction(self, monkeypatch, tmp_path, kind):
        data = sample_dataset(demo_cohort_scm(), 20_000, 3)
        if kind == "loaded":
            data = self.loaded(tmp_path, data)
        assert 2 * data._reduced[0].n < data.n
        patterns = self.assert_fits_as_per_design(monkeypatch, data, self.parsed())
        assert all(0 < k < len(data._reduced[1]) for k in patterns.values())

    def test_a_loaded_dataset_is_reduced_once(self, monkeypatch, tmp_path):
        from medbounds import glm

        # the rows of the file's distinct lines are its reduction: the keys
        # are taken of each design evaluated on them, and never of the rows
        data = self.loaded(tmp_path, sample_dataset(demo_cohort_scm(), 20_000, 3))
        rows, *_ = data._reduced
        table = np.column_stack([rows.outcome, rows.mediator, rows.exposure, *rows.covariates.values()])
        seen, real = [], glm._row_keys
        monkeypatch.setattr(glm, "_row_keys", lambda X: seen.append(X) or real(X))
        for role, design in self.parsed().items():
            fit_logistic(data, design, role)
        assert [X.shape for X in seen] == [(len(table), 5), (len(table), 4)]
        assert not any(np.array_equal(X, table) for X in seen)

    @pytest.mark.parametrize("keys", ["exact", "mediator-design-collides"])
    def test_each_fit_evaluates_its_design_once(self, monkeypatch, keys):
        from medbounds import glm

        if keys != "exact":
            exact = glm._row_keys
            monkeypatch.setattr(glm, "_row_keys", lambda X: exact(X) if X.shape[1] == 5 else X[:, 1].copy())
        data = sample_dataset(demo_cohort_scm(), 5_000, 7)
        designs = self.parsed()
        calls, real = [], DesignSpec.matrix
        monkeypatch.setattr(DesignSpec, "matrix", lambda design, rows: calls.append(design) or real(design, rows))
        for role, design in designs.items():
            fit_logistic(data, design, role)
        assert len(calls) == 2 and calls[0] is designs["outcome"] and calls[1] is designs["mediator"]

    def test_shuffled_rows_give_the_same_fits(self):
        data = sample_dataset(demo_cohort_scm(), 20_000, 3)
        idx = np.random.default_rng(3).permutation(data.n)
        shuffled = Dataset(
            data.outcome[idx], data.mediator[idx], data.exposure[idx],
            {k: v[idx] for k, v in data.covariates.items()},
        )
        for role, design in self.parsed().items():
            a, b = fit_logistic(data, design, role), fit_logistic(shuffled, design, role)
            assert a.coefficients.tobytes() == b.coefficients.tobytes()
            assert a.covariance.tobytes() == b.covariance.tobytes()

    def test_unread_covariate_that_does_not_reduce(self, monkeypatch):
        # a covariate no design reads makes most dataset rows distinct, so each
        # model reduces its own design on every row, as before
        data = sample_dataset(demo_cohort_scm(), 4_000, 4)
        noise = np.random.default_rng(4).normal(size=data.n)
        data = Dataset(data.outcome, data.mediator, data.exposure, dict(data.covariates, noise=noise))
        patterns = self.assert_fits_as_per_design(monkeypatch, data, self.parsed())
        rows, counts = data._reduced
        assert rows.n == data.n and counts.tolist() == [1.0] * data.n
        assert all(k < data.n // 2 for k in patterns.values())

    def test_a_term_may_tell_the_zeros_apart(self, monkeypatch):
        # the dataset's rows are equal only bit for bit: merging 0.0 and -0.0
        # would give every such row the sign of one of them
        rng = np.random.default_rng(6)
        n = 3_000
        data = sample_dataset(demo_cohort_scm(), n, 6)
        signed = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        data = Dataset(data.outcome, data.mediator, data.exposure, dict(data.covariates, s=signed))
        sign = Term("sign(s)", lambda p: np.copysign(1.0, p.covariates["s"]))
        design = DesignSpec(terms=(*parse_design(["1", "x", "m", "gender"]).terms, sign), includes_mediator=True)
        assert set(design.matrix(data)[:, -1]) == {-1.0, 1.0}
        patterns = self.assert_fits_as_per_design(monkeypatch, data, {"outcome": design})
        assert patterns["outcome"] < n // 2

    @pytest.mark.parametrize("where", ["everywhere", "mediator-design-only", "constant"])
    def test_a_key_collision_splits_off_the_rows_it_would_merge(self, monkeypatch, where):
        from medbounds import glm

        # a key that is one column of the rows, or one constant, gives one
        # key to rows that differ: the rows of such a key are split off and
        # grouped by value, so the reduction and the fits stay exact
        data = sample_dataset(demo_cohort_scm(), 5_000, 7)
        exact = {role: fit_logistic(data, design, role) for role, design in self.parsed().items()}
        real, coarse = glm._row_keys, lambda X: X[:, 1].copy()
        keys = {
            "everywhere": coarse,
            "mediator-design-only": lambda X: real(X) if X.shape[1] == 5 else coarse(X),
            "constant": lambda X: np.zeros(len(X)),
        }
        monkeypatch.setattr(glm, "_row_keys", keys[where])
        data = sample_dataset(demo_cohort_scm(), 5_000, 7)  # reduced afresh, by the patched keys
        assert stands_for_the_rows(data)
        for role, design in self.parsed().items():
            X, y = design.matrix(data), data.outcome if role == "outcome" else data.mediator
            assert pattern_table(*glm._fit_rows(data, design, role)) == pattern_table(X, np.ones(data.n), y)
            model = fit_logistic(data, design, role)
            np.testing.assert_allclose(model.coefficients, exact[role].coefficients, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(model.covariance, exact[role].covariance, rtol=0.0, atol=1e-12)

    # values that share a key with another: both zeros, and values below the
    # last bit of a 1 elsewhere in the row (the key of [1, 0, 0] is that of
    # [1, -3.8e-123, 0])
    CLOSE = [0.0, -0.0, 1.0, 2.5, -3.77517034764092e-123, 1e-300, 5e-324, 1.0 + 2.0**-52]

    @staticmethod
    @st.composite
    def repeated_tables(draw):
        """(outcome, mediator, exposure, *covariates) tables of a few distinct
        rows, each repeated, with 0 to 2 covariates."""
        k = draw(st.integers(0, 2))
        value = st.sampled_from(TestSharedReduction.CLOSE) | st.floats(-4.0, 4.0)
        binary = st.sampled_from([0.0, 1.0])
        distinct = draw(st.lists(st.tuples(binary, binary, *[value] * (1 + k)), min_size=1, max_size=8))
        picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=4 * len(distinct), max_size=80))
        return np.array([distinct[i] for i in picks], dtype=float)

    @given(table=repeated_tables())
    @settings(max_examples=150, deadline=None)
    def test_the_reduction_and_the_patterns_rebuild_the_rows(self, table):
        from medbounds import glm

        names = [f"z{j}" for j in range(table.shape[1] - 3)]
        dataset = lambda t: Dataset(t[:, 0], t[:, 1], t[:, 2], {c: t[:, 3 + j] for j, c in enumerate(names)})
        data, backwards = dataset(table), dataset(table[::-1])
        assert stands_for_the_rows(data)
        designs = {"outcome": ["1", "x", "m", *names], "mediator": ["1", "x", *names[:1], *[f"x*{c}" for c in names]]}
        for role, exprs in designs.items():
            design = parse_design(exprs)
            X, y = design.matrix(data), data.outcome if role == "outcome" else data.mediator
            rows, counts, sums = glm._fit_rows(data, design, role)
            assert pattern_table(rows, counts, sums) == pattern_table(X, np.ones(data.n), y)
            # the patterns and their order depend on the rows, not on their order
            ref_rows, ref_counts, ref_sums = glm._fit_rows(backwards, design, role)
            assert rows.shape == ref_rows.shape and np.array_equal(rows, ref_rows)
            assert counts.tobytes() == ref_counts.tobytes() and sums.tobytes() == ref_sums.tobytes()

    def test_both_fits_reduce_the_rows_once(self, monkeypatch):
        from medbounds import glm

        base = sample_dataset(demo_cohort_scm(), 3_270, 8)
        idx = np.random.default_rng(8).integers(0, base.n, 247_500)
        data = Dataset(
            base.outcome[idx], base.mediator[idx], base.exposure[idx],
            {k: v[idx] for k, v in base.covariates.items()},
        )
        sizes = []
        real = glm._row_keys
        monkeypatch.setattr(glm, "_row_keys", lambda X: sizes.append(len(X)) or real(X))
        for role, design in self.parsed().items():
            fit_logistic(data, design, role)
        assert sizes.count(247_500) == 1 and max(sizes[1:]) < base.n

    def test_no_large_cache_stays_when_the_rows_do_not_reduce(self):
        # rows that do not reduce stand for themselves: a second Dataset on
        # the columns' own memory, each row counted once by a broadcast 1, so
        # that no n-sized array is cached and no reference cycle holds the data
        data = continuous_cohort(2_000, 9)
        for role, design in self.parsed().items():
            assert fit_logistic(data, design, role).report.patterns == data.n
        kept = {k for k, v in vars(data).items() if isinstance(v, (np.ndarray, tuple, Mapping))}
        assert kept == {"outcome", "mediator", "exposure", "covariates", "_reduced"}
        rows, counts = data._reduced
        columns = lambda d: [d.outcome, d.mediator, d.exposure, *d.covariates.values()]
        where = lambda a: (a.__array_interface__["data"][0], a.shape, a.strides)
        assert rows is not data and list(map(where, columns(rows))) == list(map(where, columns(data)))
        assert counts.shape == (data.n,) and counts.strides == (0,) and (counts == 1.0).all()
        gone = weakref.ref(data)
        gc.disable()
        try:
            del data
            assert gone() is None
        finally:
            gc.enable()


# ---------------------------------------------------------------- prediction


class TestLinearPredictor:
    @pytest.fixture
    def outcome_model(self):
        coefs = [OUTCOME_COEFS[k] for k in ("1", "x", "m", "bmi", "gender")]
        return model_from_dict(
            {
                "role": "outcome",
                "design": ["1", "x", "m", "bmi", "gender"],
                "coefficients": coefs,
                "covariance": np.zeros((5, 5)).tolist(),
            }
        )

    def test_demo_outcome_point(self, outcome_model):
        # -3.925 + 0.020*50 + 0 - 0.064*28.5 + 0.587 = -4.162
        point = Point(50.0, 0.0, MALE_PROFILE)
        eta = outcome_model.design.evaluate(point, 1)[0] @ outcome_model.coefficients
        assert eta == pytest.approx(-4.162, abs=1e-12)

    def test_demo_mediator_point(self):
        coefs = np.array([MEDIATOR_COEFS[k] for k in ("1", "x", "bmi", "gender")])
        model = model_from_dict(
            {
                "role": "mediator",
                "design": ["1", "x", "bmi", "gender"],
                "coefficients": coefs.tolist(),
                "covariance": np.zeros((4, 4)).tolist(),
            }
        )
        # 0.418 + 0.17 - 2.793 + 0.595 = -1.610
        point = Point(10.0, None, MALE_PROFILE)
        assert model.design.evaluate(point, 1)[0] @ model.coefficients == pytest.approx(-1.610, abs=1e-12)

    def test_zero_coefficients(self, outcome_model):
        model = model_from_dict(
            {
                "role": "outcome",
                "design": ["1", "x", "m", "bmi", "gender"],
                "coefficients": [0.0] * 5,
                "covariance": np.zeros((5, 5)).tolist(),
            }
        )
        assert model.design.evaluate(Point(123.0, 1.0, MALE_PROFILE), 1)[0] @ model.coefficients == 0.0

    def test_design_row_examples(self, outcome_model):
        row = outcome_model.design.evaluate(Point(50.0, 0.0, MALE_PROFILE), 1)[0]
        assert np.allclose(row, [1.0, 50.0, 0.0, 28.5, 1.0])

    def test_row_dot_coefficients_consistency(self, outcome_model):
        rng = np.random.default_rng(2)
        for _ in range(25):
            point = Point(
                float(rng.uniform(0, 100)),
                float(rng.integers(0, 2)),
                {"bmi": float(rng.uniform(15, 45)), "gender": float(rng.integers(0, 2))},
            )
            lhs = outcome_model.design.evaluate(point, 1)[0] @ outcome_model.coefficients
            covs = point.covariates
            terms = [1.0, point.exposure, point.mediator, covs["bmi"], covs["gender"]]
            assert lhs == pytest.approx(np.dot(outcome_model.coefficients, terms), abs=1e-12)


# ---------------------------------------------------------------- ingestion


class TestIngestion:
    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,m,dose,bmi\n0,1,1.5,20\n1,0,2.5,30\n0,0,3.5,25\n1,1,4.5,28\n")
        data = load_csv(path, outcome="y", mediator="m", exposure="dose", covariates=["bmi"])
        assert data.n == 4
        assert data.exposure.tolist() == [1.5, 2.5, 3.5, 4.5]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,m\n0,1\n")
        with pytest.raises(IngestionError, match="dose"):
            load_csv(path, outcome="y", mediator="m", exposure="dose")

    def test_nonbinary_outcome_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,m,x\n0,1,1\n2,0,2\n")
        with pytest.raises(IngestionError, match="0/1"):
            load_csv(path, outcome="y", mediator="m", exposure="x")

    def test_blank_rows_dropped_with_warning(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,m,x\n0,1,1\n1,,2\n1,0,3\n0,0,4\n")
        with pytest.warns(UserWarning, match="dropped 1"):
            data = load_csv(path, outcome="y", mediator="m", exposure="x")
        assert data.n == 3

    def test_parse_error_names_file_line_after_blank_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,m,x\n0,1,1\n\n\n1,0,3\n0,0,oops\n")
        with pytest.raises(IngestionError, match="line 6:"):
            load_csv(path, outcome="y", mediator="m", exposure="x")

    def test_parse_error_names_file_line_after_multiline_field(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('y,m,x,note\n0,1,1,"two\nlines"\n\n1,0,3,a\n0,0,oops,b\n')
        with pytest.raises(IngestionError, match="line 6:"):
            load_csv(path, outcome="y", mediator="m", exposure="x")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(IngestionError):
            load_csv(path, outcome="y", mediator="m", exposure="x")

    def test_constant_binary_column_rejected_at_ingestion(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,m,x\n1,0,1\n1,1,2\n")
        with pytest.raises(IngestionError, match="both levels"):
            load_csv(path, outcome="y", mediator="m", exposure="x")

    def test_infinite_covariate_rejected(self):
        with pytest.raises(IngestionError, match="dataset contains non-finite values"):
            Dataset(outcome=[0, 1], mediator=[1, 0], exposure=[1.0, 2.0], covariates={"z": [0.0, np.inf]})

    def test_infinite_csv_cell_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,m,x,z\n0,1,1,0.5\n1,0,2,inf\n0,0,3,1.5\n")
        with pytest.raises(IngestionError, match="dataset contains non-finite values"):
            load_csv(path, outcome="y", mediator="m", exposure="x", covariates=["z"])

    def test_constant_response_rejected_at_fit(self):
        data = Dataset(outcome=[1, 1, 1], mediator=[0, 1, 0], exposure=[1, 2, 3], covariates={})
        with pytest.raises(IngestionError, match="both levels"):
            fit_logistic(data, parse_design(["1", "x"]))

    def test_a_fit_reads_the_rows_the_dataset_was_built_with(self, tmp_path):
        # a caller's writeable array is copied, so changing it after a fit
        # reaches neither the next fit, whose reduction was worked out on the
        # first, nor the exposure range
        design = parse_design(["1", "x", "bmi", "gender"])
        base = sample_dataset(demo_cohort_scm(), 3_000, 11)
        x, covariates = base.exposure.copy(), {k: v.copy() for k, v in base.covariates.items()}
        data = Dataset(base.outcome, base.mediator, x, covariates)
        before = fit_logistic(data, design, "mediator")
        x /= 1000.0
        covariates["bmi"] += 1.0
        after = fit_logistic(data, design, "mediator")
        assert after.coefficients.tobytes() == before.coefficients.tobytes()
        assert after.exposure_range == before.exposure_range == (10.0, 170.0)
        # so is a read-only view of a writeable array
        x = base.exposure.copy()
        view = x[:]
        view.flags.writeable = False
        data = Dataset(base.outcome, base.mediator, view, base.covariates)
        before = fit_logistic(data, design, "mediator")
        x /= 1000.0
        after = fit_logistic(data, design, "mediator")
        assert after.coefficients.tobytes() == before.coefficients.tobytes()
        assert after.exposure_range == before.exposure_range == (10.0, 170.0)
        # nor can a loaded dataset's columns or covariate mapping be changed
        path = tmp_path / "d.csv"
        path.write_text("y,m,x,bmi\n" + "0,1,10,20\n1,0,20,30\n0,0,30,25\n1,1,40,28\n" * 5)
        loaded = load_csv(path, outcome="y", mediator="m", exposure="x", covariates=["bmi"])
        for col in (loaded.outcome, loaded.mediator, loaded.exposure, loaded.covariates["bmi"]):
            with pytest.raises(ValueError, match="read-only"):
                col /= 1000.0
        with pytest.raises(TypeError):
            loaded.covariates["bmi"] = np.zeros(loaded.n)

    def test_a_dataset_pickles_and_copies(self):
        data = sample_dataset(demo_cohort_scm(), 500, 12)
        design = parse_design(["1", "x", "bmi", "gender"])
        columns = lambda d: [d.outcome, d.mediator, d.exposure, *d.covariates.values()]
        for copy in (pickle.loads(pickle.dumps(data)), deepcopy(data)):
            assert list(copy.covariates) == list(data.covariates)
            assert [c.tobytes() for c in columns(copy)] == [c.tobytes() for c in columns(data)]
            assert not any(c.flags.writeable for c in columns(copy))
            fitted = fit_logistic(copy, design, "mediator").coefficients
            assert fitted.tobytes() == fit_logistic(data, design, "mediator").coefficients.tobytes()

    def test_read_only_columns_are_taken_as_they_are(self):
        # the package hands its datasets read-only arrays, which no copy repeats
        data = sample_dataset(demo_cohort_scm(), 500, 12)
        columns = [data.outcome, data.mediator, data.exposure, *data.covariates.values()]
        assert not any(col.flags.writeable for col in columns)
        again = Dataset(data.outcome, data.mediator, data.exposure, data.covariates)
        kept = [again.outcome, again.mediator, again.exposure, *again.covariates.values()]
        assert all(a is b for a, b in zip(kept, columns))

    @pytest.mark.parametrize("route", ["bytes", "rows"])
    def test_loaded_columns_are_views_of_one_table(self, tmp_path, route):
        # neither route copies the columns of the table it parsed
        path = tmp_path / "d.csv"
        header = "y,m,x,bmi\n" if route == "bytes" else '"y",m,x,bmi\n'
        path.write_text(header + "0,1,10,20\n1,0,20,30\n0,0,30,25\n1,1,40,28\n" * 5)
        data = load_csv(path, outcome="y", mediator="m", exposure="x", covariates=["bmi"])
        columns = [data.outcome, data.mediator, data.exposure, data.covariates["bmi"]]
        assert all(col.base is not None and col.base is columns[0].base for col in columns)


# ---------------------------------------------------------------- model files


class TestModelSerialization:
    def test_roundtrip(self):
        data = sample_dataset(demo_cohort_scm(), 600, seed=21)
        exprs = ["1", "x", "m", "bmi", "gender"]
        model = fit_logistic(data, parse_design(exprs))
        clone = model_from_dict(model_to_dict(model, exprs))
        assert np.allclose(clone.coefficients, model.coefficients)
        assert np.allclose(clone.covariance, model.covariance)
        point = Point(42.0, 1.0, MALE_PROFILE)
        eta = model.design.evaluate(point, 1)[0] @ model.coefficients
        assert clone.design.evaluate(point, 1)[0] @ clone.coefficients == pytest.approx(eta)
        assert clone.report.patterns == model.report.patterns > 0

    def test_model_file_without_patterns_loads(self):
        data = sample_dataset(demo_cohort_scm(), 600, seed=21)
        exprs = ["1", "x", "bmi", "gender"]
        d = model_to_dict(fit_logistic(data, parse_design(exprs), role="mediator"), exprs)
        del d["fit"]["patterns"]
        assert model_from_dict(d).report.patterns == 0
