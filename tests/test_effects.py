import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medbounds import effects
from medbounds.bounds import sensitivity_curve, shifted_posterior_logit
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

    @pytest.mark.parametrize("field", ["values", "cov"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries_naming_the_rows(self, field, bad):
        values, cov = np.zeros((5, 6)), np.zeros((5, 6, 6))
        for row in (1, 3):
            (values if field == "values" else cov)[row, 2] = bad
        with pytest.raises(ValueError, match=r"^bundle predictors or covariance are not finite in row 1 and 1 more$"):
            PredictorBundle(values=values, cov=cov)
        with pytest.raises(ValueError, match=r"^bundle predictors or covariance are not finite$"):
            PredictorBundle(values=values[1], cov=cov[1])


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


def log_scale_chain(values, shifts) -> dict:
    """The softplus-difference effect chain on the log scale, by ``np.logaddexp``,
    reading the bundle by its own fixed positions: the test reference of the
    probability-scale chain. Each pair's y=0 posterior logit at every shift,
    and the effects and sensitivity probability traced along the shifts."""
    b_x0, b_xs0, b_x1, b_xs1, g_x, g_xs = (float(v) for v in values)
    s = np.asarray(shifts, dtype=float)
    pairs = {Pair.CROSS: (b_x0, b_x1, g_xs), Pair.ACTIVE: (b_x0, b_x1, g_x), Pair.REFERENCE: (b_xs0, b_xs1, g_xs)}
    logit0 = {p: np.logaddexp(0.0, s + b0) - np.logaddexp(0.0, s + b1) + g for p, (b0, b1, g) in pairs.items()}
    factor = {
        p: np.logaddexp(0.0, logit0[p] + b1 - b0) - np.logaddexp(0.0, logit0[p]) for p, (b0, b1, _) in pairs.items()
    }
    nde = b_x0 - b_xs0 + factor[Pair.CROSS] - factor[Pair.REFERENCE]
    nie = factor[Pair.ACTIVE] - factor[Pair.CROSS]
    return {
        "logit0": logit0,
        "nde": nde,
        "nie": nie,
        "te": nde + nie,
        "probabilities": np.exp(-np.logaddexp(0.0, logit0[Pair.CROSS])),
    }


def chain_gaps(values, shifts) -> dict:
    """|production - reference| of the curve fields and of both shifted
    posterior logits of every pair, with the reference's magnitude."""
    bundle = bundle_of(values)
    # an overflow, a division by zero or a NaN raises; an underflow to 0 is the exact limit
    with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
        curve = sensitivity_curve(bundle, shifts)
    ref = log_scale_chain(values, shifts)
    gaps = {name: (getattr(curve, name), ref[name]) for name in ("nde", "nie", "te", "probabilities")}
    for pair in Pair:
        b0, b1 = bundle.outcome_parts(pair)
        for y in (0, 1):
            got = shifted_posterior_logit(bundle, np.asarray(shifts, dtype=float), y, pair)
            gaps[f"logit{y} {pair.value}"] = (got, ref["logit0"][pair] + y * (b1 - b0))
    for got, want in gaps.values():
        assert np.all(np.isfinite(got))
    return {name: (np.abs(got - want), np.abs(want)) for name, (got, want) in gaps.items()}


def assert_within(gaps, atol=0.0, rtol=0.0):
    for name, (gap, size) in gaps.items():
        assert np.all(gap <= atol + rtol * size), f"{name}: gap {gap.max():.3g}"


class TestProbabilityScaleChain:
    """The probability-scale chain against the log-scale reference."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(-40.0, 40.0), min_size=6, max_size=6),
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
    )
    def test_matches_the_log_scale_reference(self, values, shifts):
        assert_within(chain_gaps(values, shifts), atol=1e-12)

    def test_batch_broadcasts_a_shift_grid_against_the_rows(self):
        rng = np.random.default_rng(13)
        values = rng.uniform(-40.0, 40.0, size=(30, 6))
        grid = np.linspace(-1e3, 1e3, 401)
        curve = sensitivity_curve(PredictorBundle(values=values, cov=np.zeros((30, 6, 6))), grid[:, None])
        for i, row in enumerate(values):
            ref = log_scale_chain(row, grid)
            for name in ("nde", "nie", "te", "probabilities"):
                np.testing.assert_allclose(getattr(curve, name)[:, i], ref[name], rtol=0, atol=1e-12)

    # (b_x0, b_xs0, b_x1, b_xs1, g_x, g_xs): mediator effects of +-600 with
    # g = -+300, mediator predictors of +-800 and of -712 with mediator
    # effects of +-705 (e^-g overflows, but the factor is about +-9e-4 at
    # one end of the shifts), and the same at shifts of +-1e6
    EXTREMES = {
        "delta 600, g -300": [0.0, 1.0, 600.0, 601.0, -300.0, -300.0],
        "delta -600, g -300": [0.0, 1.0, -600.0, -599.0, -300.0, -300.0],
        "delta 600, g 300": [0.0, 1.0, 600.0, 601.0, 300.0, 300.0],
        "delta -600, g 300": [0.0, 1.0, -600.0, -599.0, 300.0, 300.0],
        "delta -600, mixed g": [2.0, -3.0, -598.0, -303.0, 300.0, -300.0],
        "g 800": [-4.2, -5.0, -2.9, -3.7, 800.0, 799.0],
        "g 800, delta -600": [-4.2, -5.0, -604.2, -3.7, 800.0, 120.0],
        "g -800": [-4.2, -5.0, -2.9, -3.7, -800.0, -799.0],
        "g -800 and 3": [-4.2, -5.0, 595.8, -3.7, -800.0, 3.0],
        "g -712, delta 705": [0.0, 1.0, 705.0, 706.0, -712.0, -712.0],
        "g -712, delta -705": [0.0, 1.0, -705.0, -704.0, -712.0, -712.0],
    }

    @pytest.mark.parametrize("values", EXTREMES.values(), ids=EXTREMES.keys())
    @pytest.mark.parametrize(
        "shifts",
        [np.linspace(-1e3, 1e3, 2001), np.array([-1e6, -1e5, 1e5, 1e6])],
        ids=["shifts within 1e3", "shifts of 1e5 and 1e6"],
    )
    def test_extreme_bundles_are_finite_and_match_the_reference(self, values, shifts):
        assert_within(chain_gaps(values, shifts), atol=1e-9, rtol=1e-9)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({2: 710.0}, r"mediator effects up to 714\.162"),
            ({1: -710.0, 3: 0.5}, r"mediator effects up to 710\.5"),
        ],
    )
    def test_past_the_domain_is_a_stated_error(self, derived_bundle, changes, message):
        values = derived_bundle.values.copy()
        for index, value in changes.items():
            values[index] = value
        # a whole batch fails with its one row past the domain
        batch = PredictorBundle(values=np.stack([derived_bundle.values, values]), cov=np.zeros((2, 6, 6)))
        for bundle, rows in ((bundle_of(values), ""), (batch, " in row 1")):
            for call in (point_effects, lambda b: sensitivity_curve(b, np.linspace(-5.0, 5.0, 11))):
                with pytest.raises(ValueError, match=message + r".*" + rows + r"; the effect chain's domain"):
                    call(bundle)

    def test_a_chain_without_the_side_switch_fails(self, monkeypatch):
        # the identity taken at l for either sign of delta: expit(l) =
        # rho / (rho + e^(min(delta, 0) - max(g, 0))), and expm1(delta) expit(l)
        # cancels to -1 + tiny for delta << 0; the ratios keep their side
        def without_side_switch(delta, g):
            return np.ones_like(delta), np.exp(np.minimum(delta, 0.0) - np.maximum(g, 0.0)), np.expm1(delta)

        rng = np.random.default_rng(29)
        typical = [(rng.uniform(-40.0, 40.0, size=6), rng.uniform(-1e3, 1e3, size=40)) for _ in range(20)]
        extreme = (self.EXTREMES["delta -600, g 300"], np.linspace(-1e3, 1e3, 2001))
        for values, shifts in [*typical, extreme]:
            assert_within(chain_gaps(values, shifts), atol=1e-9)
        monkeypatch.setattr(effects, "factor_terms", without_side_switch)
        for cases in (typical, [extreme]):
            with pytest.raises((AssertionError, FloatingPointError)):
                for values, shifts in cases:
                    assert_within(chain_gaps(values, shifts), atol=1e-9)

    def test_a_chain_that_forms_e_to_the_minus_g_fails(self, monkeypatch):
        # the ratio without e^min(g, 0), and sigma = rho / (rho + e^-g): right
        # in the typical range, but e^-g overflows to inf for g < -709, which
        # sets the factor to 0 where it is about 9e-4 and the probability to NaN
        real_scales, real_terms = effects.ratio_scales, effects.factor_terms
        real_probability = effects.stay_probability

        def unscaled_terms(delta, g):
            sign, _, gain = real_terms(delta, g)
            with np.errstate(over="ignore"):
                return sign, np.exp(-g), gain

        def unscaled_weight(delta, g):
            with np.errstate(over="ignore"):
                return np.exp(np.minimum(delta, 0.0) - g)

        def unchecked_probability(rho, w, out):
            with np.errstate(invalid="ignore"):
                return real_probability(rho, w, out)

        rng = np.random.default_rng(31)
        typical = [(rng.uniform(-40.0, 40.0, size=6), rng.uniform(-1e3, 1e3, size=40)) for _ in range(20)]
        names = ("g -712, delta 705", "g -712, delta -705")
        extreme = [(self.EXTREMES[name], np.linspace(-1e3, 1e3, 2001)) for name in names]
        for values, shifts in [*typical, *extreme]:
            assert_within(chain_gaps(values, shifts), atol=1e-9, rtol=1e-9)
        monkeypatch.setattr(effects, "ratio_scales", lambda delta, g: real_scales(delta, 0.0))
        monkeypatch.setattr(effects, "factor_terms", unscaled_terms)
        monkeypatch.setattr(effects, "stay_weight", unscaled_weight)
        monkeypatch.setattr(effects, "stay_probability", unchecked_probability)
        for values, shifts in typical:
            assert_within(chain_gaps(values, shifts), atol=1e-9, rtol=1e-9)
        for values, shifts in extreme:
            with pytest.raises(AssertionError):
                assert_within(chain_gaps(values, shifts), atol=1e-9, rtol=1e-9)

    def test_outcome_levels_follow_the_pair_components(self):
        # the chain forms one ratio core per outcome level and reads it for
        # every pair on that level: each pair's level has its (m=0, m=1)
        # outcome components, and CROSS and ACTIVE share the active level
        pairs = list(Pair)
        for pair, level in zip(pairs, effects.PAIR_LEVEL):
            assert PAIR_COMPONENTS[pairs[effects.LEVEL_PAIRS[level]]][:2] == PAIR_COMPONENTS[pair][:2]
        assert len(effects.LEVEL_PAIRS) == len({c[:2] for c in PAIR_COMPONENTS.values()}) == 2
        assert effects.PAIR_LEVEL[pairs.index(Pair.CROSS)] == effects.PAIR_LEVEL[pairs.index(Pair.ACTIVE)]
