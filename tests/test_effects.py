import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medbounds.effects import (
    PAIR_COMPONENTS,
    Contrast,
    EffectTriple,
    Pair,
    PredictorBundle,
    counterfactual_outcome_logit,
    mediator_posterior_logit,
    point_effects,
    predictor_bundle,
)
from medbounds.glm import model_from_dict
from medbounds.scm import mediation_formula_logit

from conftest import DERIVED_THETA, MALE_PROFILE, MEDIATOR_COEFS, OUTCOME_COEFS, random_bundles

theta_component = st.floats(-6.0, 6.0, allow_nan=False)
theta_vectors = st.lists(theta_component, min_size=6, max_size=6).map(np.array)


def bundle_of(values) -> PredictorBundle:
    return PredictorBundle(values=np.asarray(values, dtype=float), cov=np.zeros((6, 6)))


def demo_models():
    outcome = model_from_dict(
        {
            "role": "outcome",
            "design": ["1", "x", "m", "bmi", "gender"],
            "coefficients": [OUTCOME_COEFS[k] for k in ("1", "x", "m", "bmi", "gender")],
            "covariance": np.zeros((5, 5)).tolist(),
        }
    )
    mediator = model_from_dict(
        {
            "role": "mediator",
            "design": ["1", "x", "bmi", "gender"],
            "coefficients": [MEDIATOR_COEFS[k] for k in ("1", "x", "bmi", "gender")],
            "covariance": np.zeros((4, 4)).tolist(),
        }
    )
    return outcome, mediator


class TestPredictorBundle:
    def test_derived_theta(self, derived_contrast):
        outcome, mediator = demo_models()
        bundle = predictor_bundle(outcome, mediator, derived_contrast)
        assert np.allclose(bundle.values, DERIVED_THETA, atol=1e-12)

    def test_equal_levels_collapse(self):
        outcome, mediator = demo_models()
        bundle = predictor_bundle(outcome, mediator, Contrast(50.0, 50.0, MALE_PROFILE))
        y_active_m0, y_active_m1 = bundle.outcome_parts(Pair.ACTIVE)
        y_ref_m0, y_ref_m1 = bundle.outcome_parts(Pair.REFERENCE)
        assert y_active_m0 == y_ref_m0
        assert y_active_m1 == y_ref_m1
        assert bundle.mediator_part(Pair.ACTIVE) == bundle.mediator_part(Pair.REFERENCE)

    def test_zero_model_covariance_gives_zero_sigma(self, derived_contrast):
        outcome, mediator = demo_models()
        bundle = predictor_bundle(outcome, mediator, derived_contrast)
        assert np.all(bundle.cov == 0.0)

    def test_sigma_matches_explicit_linear_map(self, derived_contrast):
        rng = np.random.default_rng(4)
        outcome, mediator = demo_models()
        a = rng.normal(size=(5, 5)) * 0.1
        b = rng.normal(size=(4, 4)) * 0.1
        outcome_d = model_from_dict(
            {
                "role": "outcome",
                "design": ["1", "x", "m", "bmi", "gender"],
                "coefficients": list(outcome.coefficients),
                "covariance": (a @ a.T).tolist(),
            }
        )
        mediator_d = model_from_dict(
            {
                "role": "mediator",
                "design": ["1", "x", "bmi", "gender"],
                "coefficients": list(mediator.coefficients),
                "covariance": (b @ b.T).tolist(),
            }
        )
        bundle = predictor_bundle(outcome_d, mediator_d, derived_contrast)
        # rows of the stacking map for the male profile at x=50, x*=10
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
        expected = np.zeros((6, 6))
        expected[:4, :4] = rows_y @ (a @ a.T) @ rows_y.T
        expected[4:, 4:] = rows_m @ (b @ b.T) @ rows_m.T
        assert np.allclose(bundle.cov, expected, atol=1e-12)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            PredictorBundle(values=np.zeros(5), cov=np.zeros((6, 6)))
        with pytest.raises(ValueError):
            PredictorBundle(values=np.zeros(6), cov=np.eye(5))


class TestPosteriorLogit:
    def test_no_mediator_effect_reduces_to_mediator_predictor(self):
        bundle = bundle_of([-1.2, -2.0, -1.2, -2.0, 0.7, -0.4])
        for y in (0, 1):
            assert mediator_posterior_logit(bundle, y, Pair.CROSS) == pytest.approx(-0.4)
            assert mediator_posterior_logit(bundle, y, Pair.ACTIVE) == pytest.approx(0.7)

    def test_derived_value(self, derived_bundle):
        expected = np.log((1 + np.exp(-4.162)) / (1 + np.exp(-2.912))) - 1.610
        assert mediator_posterior_logit(derived_bundle, 0, Pair.CROSS) == pytest.approx(
            expected, abs=1e-12
        )

    @settings(max_examples=150, deadline=None)
    @given(theta_vectors)
    def test_gap_identity(self, values):
        bundle = bundle_of(values)
        for pair in Pair:
            b0, b1 = bundle.outcome_parts(pair)
            gap = mediator_posterior_logit(bundle, 1, pair) - mediator_posterior_logit(
                bundle, 0, pair
            )
            assert gap == pytest.approx(b1 - b0, abs=1e-12)

    def test_rejects_bad_y(self, derived_bundle):
        with pytest.raises(ValueError):
            mediator_posterior_logit(derived_bundle, 2)


class TestCounterfactualOutcomeLogit:
    def test_zero_mediator_effect(self):
        bundle = bundle_of([-1.2, -2.0, -1.2, -2.0, 0.7, -0.4])
        assert counterfactual_outcome_logit(bundle, Pair.CROSS) == pytest.approx(-1.2)

    def test_single_world_matches_mediation_formula(self, derived_bundle):
        lhs = counterfactual_outcome_logit(derived_bundle, Pair.ACTIVE)
        rhs = mediation_formula_logit(derived_bundle, Pair.ACTIVE)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(theta_vectors)
    def test_mediation_formula_identity_everywhere(self, values):
        bundle = bundle_of(values)
        for pair in (Pair.ACTIVE, Pair.REFERENCE, Pair.CROSS):
            assert counterfactual_outcome_logit(bundle, pair) == pytest.approx(
                mediation_formula_logit(bundle, pair), abs=1e-10
            )

    def test_mediation_formula_catches_a_swapped_pair_table(self, monkeypatch):
        # the oracle reads the bundle layout on its own, so a wrong
        # production pair table breaks the identity
        bundles = list(random_bundles(11, 20))

        def gap():
            return max(
                abs(counterfactual_outcome_logit(b, pair) - mediation_formula_logit(b, pair))
                for b in bundles
                for pair in Pair
            )

        assert gap() < 1e-10
        cross, reference = PAIR_COMPONENTS[Pair.CROSS], PAIR_COMPONENTS[Pair.REFERENCE]
        monkeypatch.setitem(PAIR_COMPONENTS, Pair.CROSS, reference)
        monkeypatch.setitem(PAIR_COMPONENTS, Pair.REFERENCE, cross)
        assert gap() > 0.1

    def test_mediator_forced_off(self):
        # reference mediator predictor -> -inf forces the crossed logit to b(x, 0)
        bundle = bundle_of([-1.2, -2.0, 0.3, -1.0, 0.5, -40.0])
        assert counterfactual_outcome_logit(bundle, Pair.CROSS) == pytest.approx(-1.2, abs=1e-12)


class TestPointEffects:
    def test_null_contrast(self):
        bundle = bundle_of([-1.5, -1.5, -0.3, -0.3, 0.2, 0.2])
        pt = point_effects(bundle)
        assert pt.nde == pt.nie == pt.te == 0.0

    def test_zero_mediator_effect_kills_nie(self):
        bundle = bundle_of([-1.2, -2.0, -1.2, -2.0, 0.7, -0.4])
        pt = point_effects(bundle)
        assert pt.nie == pytest.approx(0.0, abs=1e-14)
        assert pt.nde == pytest.approx(0.8, abs=1e-12)

    def test_triple_is_constructed_additively(self):
        t = EffectTriple.from_parts(0.1, 0.2)
        assert t.te == t.nde + t.nie

    @settings(max_examples=150, deadline=None)
    @given(theta_vectors)
    def test_additivity(self, values):
        pt = point_effects(bundle_of(values))
        assert pt.te == pytest.approx(pt.nde + pt.nie, abs=1e-12)
