import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medbounds import effects
from medbounds.bounds import sensitivity_curve, sensitivity_probability
from medbounds.effects import (
    PAIR_COMPONENTS,
    Contrast,
    EffectTriple,
    Pair,
    PredictorBundle,
    point_effects,
    predictor_bundle,
)
from medbounds.glm import model_from_dict
from medbounds.scm import mediation_formula_logit, random_bundle

from conftest import DERIVED_THETA, MALE_PROFILE, MEDIATOR_COEFS, OUTCOME_COEFS, log_scale_chain, random_bundles

theta_component = st.floats(-6.0, 6.0, allow_nan=False)
theta_vectors = st.lists(theta_component, min_size=6, max_size=6).map(np.array)


def two_exp_ratio_core(shift, b1, side):
    """The ratio core as two ``exp`` passes, each of n = e^-max(t, 0) and
    m = e^min(t, 0), with t = side (s + b1): kappa = n / (n + m)."""
    t = (shift + b1) * side
    n, m = np.exp(np.minimum(-t, 0.0)), np.exp(np.minimum(t, 0.0))
    return n / (m + n)


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


def formula_effects(bundle) -> np.ndarray:
    """(NDE, NIE, TE) as differences of the plug-in mediation formula's pair
    logits: CROSS - REFERENCE, ACTIVE - CROSS and ACTIVE - REFERENCE."""
    cross, active, reference = (mediation_formula_logit(bundle, pair) for pair in Pair)
    return np.array([cross - reference, active - cross, active - reference])


def formula_gap(bundle) -> float:
    """Largest |point effect - mediation-formula difference| over the bundle's rows."""
    pt = point_effects(bundle)
    return float(np.abs(np.array([pt.nde, pt.nie, pt.te]) - formula_effects(bundle)).max())


class TestMediationFormula:
    """The point effects against differences of the mediation formula, which
    reads the bundle by its own fixed positions."""

    def test_derived_bundle_matches_mediation_formula(self, derived_bundle):
        assert formula_gap(derived_bundle) < 1e-10

    @settings(max_examples=150, deadline=None)
    @given(theta_vectors)
    def test_mediation_formula_identity_everywhere(self, values):
        assert formula_gap(bundle_of(values)) < 1e-10

    def test_mediation_formula_catches_a_swapped_pair_table(self, monkeypatch):
        # the oracle reads the bundle layout on its own, so a wrong
        # production pair table breaks the identity; the outcome levels are
        # rebuilt from the swapped table, as at import
        batch = random_bundle(np.random.default_rng(11), 20)
        assert formula_gap(batch) < 1e-10
        cross, reference = list(Pair).index(Pair.CROSS), list(Pair).index(Pair.REFERENCE)
        swapped = effects.PAIR_INDEX.copy()
        swapped[:, [cross, reference]] = swapped[:, [reference, cross]]
        _, level_pairs, pair_level = np.unique(swapped[:2].T, axis=0, return_index=True, return_inverse=True)
        monkeypatch.setattr(effects, "PAIR_INDEX", swapped)
        monkeypatch.setattr(effects, "LEVEL_PAIRS", level_pairs)
        monkeypatch.setattr(effects, "PAIR_LEVEL", pair_level.ravel())
        assert formula_gap(batch) > 0.1


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

    def test_mediator_forced_off_in_the_reference_world(self):
        # reference mediator predictor -> -inf forces the crossed and the
        # reference outcome logits to their m=0 predictors, so the NDE is
        # b(x, 0) - b(x*, 0)
        bundle = bundle_of([-1.2, -2.0, 0.3, -1.0, 0.5, -40.0])
        assert point_effects(bundle).nde == pytest.approx(0.8, abs=1e-12)

    def test_triple_is_constructed_additively(self):
        t = EffectTriple.from_parts(0.1, 0.2)
        assert t.te == t.nde + t.nie

    @settings(max_examples=150, deadline=None)
    @given(theta_vectors)
    def test_additivity(self, values):
        pt = point_effects(bundle_of(values))
        assert pt.te == pytest.approx(pt.nde + pt.nie, abs=1e-12)


def chain_gaps(values, shifts) -> dict:
    """|production - reference| of the curve fields, with the reference's magnitude."""
    # an overflow, a division by zero or a NaN raises; an underflow to 0 is the exact limit
    with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
        curve = sensitivity_curve(bundle_of(values), shifts)
    ref = log_scale_chain(values, shifts)
    gaps = {name: (getattr(curve, name), ref[name]) for name in ("nde", "nie", "te", "probabilities")}
    for got, want in gaps.values():
        assert np.all(np.isfinite(got))
    return {name: (np.abs(got - want), np.abs(want)) for name, (got, want) in gaps.items()}


def assert_within(gaps, atol=0.0, rtol=0.0):
    for name, (gap, size) in gaps.items():
        assert np.all(gap <= atol + rtol * size), f"{name}: gap {gap.max():.3g}"


def with_examples(cases):
    """Hypothesis ``example`` decorators for each (values, shifts) of ``cases``."""

    def apply(test):
        for values, shifts in cases:
            test = example(values.tolist(), shifts.tolist())(test)
        return test

    return apply


def decimal_posterior(b0, b1, g, shift) -> tuple:
    """The y=0 posterior logit l0 = g + ln((1 + e^(s+b0)) / (1 + e^(s+b1)))
    of a pair with outcome predictors (b0, b1) and mediator predictor g at
    shift s, and its sensitivity probability 1 / (1 + e^l0), as decimals
    to 60 digits: an oracle by the stdlib ``decimal`` module alone, from
    the exact values of its float arguments."""
    with decimal.localcontext(decimal.Context(prec=60)):
        s, b0, b1, g = map(decimal.Decimal, (shift, b0, b1, g))
        l0 = g + ((1 + (s + b0).exp()) / (1 + (s + b1).exp())).ln()
        return l0, 1 / (1 + l0.exp())


def ratio_error(values, shift) -> float:
    """The largest relative error of the three pairs' ratios rho = R e^(min(delta, 0)
    + min(g, 0)) at ``shift``, by ``ratio_core``, ``ratio_scales`` and ``pair_ratio``,
    against ln rho = l0 - max(g, 0) + min(delta, 0) from ``decimal_posterior``. A
    ratio below 2^-1030 is held to an error of 2^-1030 times the bound instead:
    the chain lets a term round to a multiple of 2^-1074 or underflow to 0."""
    b_x0, b_xs0, b_x1, b_xs1, g_x, g_xs = values
    errors = []
    for b0, b1, g in ((b_x0, b_x1, g_xs), (b_x0, b_x1, g_x), (b_xs0, b_xs1, g_xs)):
        delta = b1 - b0
        kappa = effects.ratio_core(shift, b1, math.copysign(1.0, delta))
        rho = effects.pair_ratio(kappa, effects.ratio_scales(delta, g), out=np.empty_like(kappa))
        l0 = decimal_posterior(b0, b1, g, shift)[0]
        with decimal.localcontext(decimal.Context(prec=60)):
            want = (l0 - decimal.Decimal(max(g, 0.0)) + decimal.Decimal(min(delta, 0.0))).exp()
            errors.append(float(abs(decimal.Decimal(float(rho)) - want) / max(want, decimal.Decimal(2.0**-1030))))
    return max(errors)


class TestProbabilityScaleChain:
    """The probability-scale chain against the log-scale reference."""

    @settings(max_examples=150, deadline=None)
    @with_examples((b.values, np.linspace(-25.0, 25.0, 201)) for b in random_bundles(seed=17, count=20))
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

    def test_sensitivity_probability_is_within_ulps_of_the_decimal_oracle(self):
        # 200 bundles drawn in [-40, 40], each at 20 shifts in [-1e3, 1e3] of
        # which the first is 0 (the Bayes flip itself), as one batch: the
        # largest error on this draw measured 63.3 ulp of the oracle's
        # probability (7.3e-15 relative), and the pin allows twice that
        rng = np.random.default_rng(37)
        values = rng.uniform(-40.0, 40.0, size=(200, 6))
        shifts = rng.uniform(-1e3, 1e3, size=(200, 20))
        shifts[:, 0] = 0.0
        got = sensitivity_probability(PredictorBundle(values=values, cov=np.zeros((200, 6, 6))), shifts.T).T
        ulps = []
        for (b0, _, b1, _, _, g), row_shifts, row_got in zip(values, shifts, got):
            for shift, p in zip(row_shifts, row_got):
                want = decimal_posterior(b0, b1, g, shift)[1]
                ulps.append(abs(decimal.Decimal(p) - want) / decimal.Decimal(math.ulp(float(want))))
        assert max(ulps) <= 128

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
        "delta 709 and -709, the domain's edge": [0.0, 1.0, 709.0, -708.0, 3.0, -2.0],
    }

    @pytest.mark.parametrize("values", EXTREMES.values(), ids=EXTREMES.keys())
    @pytest.mark.parametrize(
        "shifts",
        [np.linspace(-1e3, 1e3, 2001), np.array([-1e6, -1e5, 1e5, 1e6])],
        ids=["shifts within 1e3", "shifts of 1e5 and 1e6"],
    )
    def test_extreme_bundles_are_finite_and_match_the_reference(self, values, shifts):
        assert_within(chain_gaps(values, shifts), atol=1e-9, rtol=1e-9)
        # at shifts of 1e5 and more the pairs' factors move together, so an
        # error in their ratios cancels in the effects: check each ratio
        far = shifts[np.abs(shifts) >= 1e5]
        assert max((ratio_error(values, s) for s in far), default=0.0) <= 1e-12

    @pytest.mark.parametrize(
        "changes, message",
        [({2: 710.0}, r"mediator effects up to 714\.162"), ({1: -710.0, 3: 0.5}, r"mediator effects up to 710\.5")],
    )
    def test_past_the_domain_is_a_stated_error(self, derived_bundle, changes, message):
        values = derived_bundle.values.copy()
        for index, value in changes.items():
            values[index] = value
        # a whole batch fails with its one row past the domain; the
        # sensitivity probability reads the cross pair only, but shares the
        # chain's check over all pairs (the second case is the reference
        # pair)
        batch = PredictorBundle(values=np.stack([derived_bundle.values, values]), cov=np.zeros((2, 6, 6)))
        calls = (
            point_effects,
            lambda b: sensitivity_curve(b, np.linspace(-5.0, 5.0, 11)),
            lambda b: sensitivity_probability(b, 0.0),
        )
        for bundle, rows in ((bundle_of(values), ""), (batch, " in row 1")):
            for call in calls:
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

    # shifts where e^-|t| is 1, overflows, underflows or is subnormal
    RATIO_EDGES = [0.0, -0.0, np.inf, -np.inf, 709.0, -709.0, 709.79, -709.79, 745.2, -745.2, 1e-300, -1e-300]

    @settings(max_examples=300, deadline=None)
    @given(
        shifts=st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from(RATIO_EDGES)), min_size=1, max_size=30),
        b1=st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, -3.2, 5.5, 700.0, -709.0, 709.0])),
        sides=st.lists(st.sampled_from([1.0, -1.0]), min_size=1, max_size=30),
        per_row=st.booleans(),
    )
    def test_ratio_core_is_the_two_exp_form_bit_for_bit(self, shifts, b1, sides, per_row):
        shift = np.array(shifts)
        side = np.resize(sides, len(shifts)) if per_row else sides[0]
        expected = two_exp_ratio_core(shift, b1, side).tobytes()
        assert effects.ratio_core(shift, b1, side).tobytes() == expected
        out, spare = np.empty(len(shift)), np.empty(len(shift))
        assert effects.ratio_core(shift, b1, side, out=out, spare=spare) is out and out.tobytes() == expected
        # a single shift is an array of one
        single = effects.ratio_core(shifts[0], b1, np.resize(side, 1)[0])
        assert single.shape == () and single.tobytes() == two_exp_ratio_core(shift[:1], b1, sides[0])[0].tobytes()

    def test_ratio_core_is_the_two_exp_form_on_a_dense_grid(self):
        shift = np.linspace(-800.0, 800.0, 200_001)
        for b1 in (0.0, -3.2, 5.5, 700.0):
            for side in (1.0, -1.0, np.resize([1.0, -1.0, -1.0], len(shift))):
                assert effects.ratio_core(shift, b1, side).tobytes() == two_exp_ratio_core(shift, b1, side).tobytes()

    def test_outcome_levels_follow_the_pair_components(self):
        # the chain forms one ratio core per outcome level and reads it for
        # every pair on that level: each pair's level has its (m=0, m=1)
        # outcome components, and CROSS and ACTIVE share the active level
        pairs = list(Pair)
        for pair, level in zip(pairs, effects.PAIR_LEVEL):
            assert PAIR_COMPONENTS[pairs[effects.LEVEL_PAIRS[level]]][:2] == PAIR_COMPONENTS[pair][:2]
        assert len(effects.LEVEL_PAIRS) == len({c[:2] for c in PAIR_COMPONENTS.values()}) == 2
        assert effects.PAIR_LEVEL[pairs.index(Pair.CROSS)] == effects.PAIR_LEVEL[pairs.index(Pair.ACTIVE)]
