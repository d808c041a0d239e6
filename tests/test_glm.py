import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from medbounds import effects
from medbounds.errors import (
    IngestionError,
    MissingVariableError,
    SeparationError,
    SingularDesignError,
)
from medbounds.glm import (
    Dataset,
    Point,
    fit_logistic,
    load_csv,
    model_from_dict,
    model_to_dict,
    parse_design,
    parse_term,
    softplus,
)
from medbounds.scm import demo_cohort_scm, sample_dataset

from conftest import MALE_PROFILE, MEDIATOR_COEFS, OUTCOME_COEFS


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
        assert np.array_equal(spaced.row(point), [6.0, 9.0, 50.0])

    def test_mediator_flag_absent(self):
        assert not parse_design(["1", "x", "bmi"]).includes_mediator
        assert not parse_design(["1", "x ^ 2", "mm * bmi"]).includes_mediator

    def test_row_evaluation(self):
        design = parse_design(["1", "x", "m", "bmi", "gender"])
        row = design.row(Point(50.0, 0.0, MALE_PROFILE))
        assert np.allclose(row, [1.0, 50.0, 0.0, 28.5, 1.0])

    def test_interaction_and_power(self):
        t = parse_term("x*bmi^2")
        assert t(Point(2.0, None, {"bmi": 3.0})) == pytest.approx(18.0)

    def test_missing_covariate_named(self):
        design = parse_design(["1", "age"])
        with pytest.raises(MissingVariableError, match="age"):
            design.row(Point(1.0, None, {}))

    def test_mediator_in_mediator_point(self):
        with pytest.raises(MissingVariableError, match="'m'"):
            parse_design(["m"]).row(Point(1.0, None, {}))

    def test_bad_expression(self):
        with pytest.raises(ValueError):
            parse_term("x+(m)")

    def test_table_lookup_basis(self):
        from medbounds.glm import table_lookup

        t = table_lookup("x", {10.0: 0.0, 20.0: 1.0, 30.0: 4.0})
        assert float(t(Point(20.0, None, {}))) == 1.0
        assert float(t(Point(30.0, None, {}))) == 4.0
        with pytest.raises(MissingVariableError):
            t(Point(25.0, None, {}))

    def test_table_lookup_resolves_names_like_parsed_terms(self):
        from medbounds.glm import table_lookup

        # a covariate that shares a role's name does not shadow the role
        point = Point(20.0, 1.0, {"x": 30.0, "m": 0.0, "z": 10.0})
        for name in ("x", "m", "z"):
            t = table_lookup(name, {0.0: 5.0, 1.0: 6.0, 10.0: 7.0, 20.0: 8.0, 30.0: 9.0})
            assert float(t(point)) == {"x": 8.0, "m": 6.0, "z": 7.0}[name]
            assert float(parse_term(name)(point)) == {"x": 20.0, "m": 1.0, "z": 10.0}[name]
        with pytest.raises(MissingVariableError, match="'m'"):
            table_lookup("m", {0.0: 1.0})(Point(0.0, None, {"m": 0.0}))

    def test_table_lookup_with_an_empty_mapping_names_the_table(self):
        from medbounds.glm import table_lookup

        with pytest.raises(ValueError, match=r"^table term 'bmi' has an empty mapping$"):
            table_lookup("bmi", {})


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
        assert effects.softplus is softplus


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

    def test_fit_does_not_depend_on_column_origin(self, cohort):
        # bmi with an offset of 273.15 used to trip the separation check:
        # without centring, the intercept absorbed the offset
        data = cohort
        design = parse_design(["1", "x", "bmi", "gender"])
        base = fit_logistic(data, design, role="mediator")
        shifted = Dataset(
            data.outcome, data.mediator, data.exposure,
            dict(data.covariates, bmi=data.covariates["bmi"] + 273.15),
        )
        model = fit_logistic(shifted, design, role="mediator")
        p_base = 1.0 / (1.0 + np.exp(-design.matrix(data) @ base.coefficients))
        p = 1.0 / (1.0 + np.exp(-design.matrix(shifted) @ model.coefficients))
        np.testing.assert_allclose(p, p_base, rtol=0.0, atol=1e-10)

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

    def test_rank_check_matches_scipy_pivoted_qr(self):
        # same decision and same named terms as the pivoted QR of the whole
        # design, on designs with planted collinearity and mixed column scales
        from scipy.linalg import qr

        from medbounds.glm import _check_rank

        def reference(X, names):
            _, r_mat, piv = qr(X, mode="economic", pivoting=True)
            diag = np.abs(np.diag(r_mat))
            tol = diag.max() * max(X.shape) * np.finfo(float).eps if diag.max() > 0 else 0.0
            deficient = [names[piv[j]] for j in range(len(diag)) if diag[j] <= tol]
            return list(names) if diag.max() == 0.0 else deficient

        rng = np.random.default_rng(8)
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
                _check_rank(X, names)
                got = []
            except SingularDesignError as exc:
                got = exc.terms
            # past the rank drop the residual norms are rounding noise, so the
            # order in which the deficient terms are found is not compared
            assert sorted(got) == sorted(expected)
            decisions.append(bool(expected))
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
        from medbounds.glm import _patterns, _row_keys

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
        assert len(_patterns(X[2:], y[2:])[0]) < (n - 2) // 2
        # ... with them, every row is still one of the patterns, bit for bit
        rows, counts, sums = _patterns(X, y)
        assert {r.tobytes() for r in X} <= {r.tobytes() for r in rows}
        assert counts.sum() == n and sums.sum() == y.sum()

        data = Dataset(outcome=y, mediator=rng.integers(0, 2, n), exposure=x, covariates={"z": z})
        model = fit_logistic(data, parse_design(["1", "x", "z"]))
        assert np.allclose(model.coefficients, direct_fit(X, y), atol=1e-6)

    def test_a_signed_zero_does_not_split_a_pattern(self):
        from medbounds.glm import _patterns

        rng = np.random.default_rng(5)
        n = 400
        X = np.column_stack([np.ones(n), rng.integers(0, 4, n).astype(float), np.zeros(n)])
        X[::2, 2] = -0.0
        rows, counts, _ = _patterns(X, rng.integers(0, 2, n).astype(float))
        assert len(rows) == 4 and counts.sum() == n

    def test_nonconvergence_reports_trajectory(self):
        from medbounds.errors import ConvergenceError

        data = sample_dataset(demo_cohort_scm(), 800, seed=17)
        with pytest.raises(ConvergenceError) as exc:
            fit_logistic(data, parse_design(["1", "x", "m", "bmi", "gender"]), max_iter=2)
        assert exc.value.trajectory is not None
        assert len(exc.value.trajectory) >= 2


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
        eta = outcome_model.design.row(point) @ outcome_model.coefficients
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
        assert model.design.row(point) @ model.coefficients == pytest.approx(-1.610, abs=1e-12)

    def test_zero_coefficients(self, outcome_model):
        model = model_from_dict(
            {
                "role": "outcome",
                "design": ["1", "x", "m", "bmi", "gender"],
                "coefficients": [0.0] * 5,
                "covariance": np.zeros((5, 5)).tolist(),
            }
        )
        assert model.design.row(Point(123.0, 1.0, MALE_PROFILE)) @ model.coefficients == 0.0

    def test_design_row_examples(self, outcome_model):
        row = outcome_model.design.row(Point(50.0, 0.0, MALE_PROFILE))
        assert np.allclose(row, [1.0, 50.0, 0.0, 28.5, 1.0])

    def test_row_dot_coefficients_consistency(self, outcome_model):
        rng = np.random.default_rng(2)
        for _ in range(25):
            point = Point(
                float(rng.uniform(0, 100)),
                float(rng.integers(0, 2)),
                {"bmi": float(rng.uniform(15, 45)), "gender": float(rng.integers(0, 2))},
            )
            lhs = outcome_model.design.row(point) @ outcome_model.coefficients
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
        eta = model.design.row(point) @ model.coefficients
        assert clone.design.row(point) @ clone.coefficients == pytest.approx(eta)
        assert clone.report.patterns == model.report.patterns > 0

    def test_model_file_without_patterns_loads(self):
        data = sample_dataset(demo_cohort_scm(), 600, seed=21)
        exprs = ["1", "x", "bmi", "gender"]
        d = model_to_dict(fit_logistic(data, parse_design(exprs), role="mediator"), exprs)
        del d["fit"]["patterns"]
        assert model_from_dict(d).report.patterns == 0
