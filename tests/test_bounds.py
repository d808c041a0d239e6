import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from medbounds import effects
from medbounds.bounds import (
    BoundPair,
    effect_bounds,
    factor_range,
    sensitivity_curve,
    sensitivity_probability,
    sensitivity_probability_range,
)
from medbounds.effects import (
    Contrast,
    Pair,
    PredictorBundle,
    point_effects,
    predictor_bundle,
    shifted_effects,
)
from medbounds.errors import DegenerateMediatorError, DegenerateMediatorWarning
from medbounds.glm import model_from_dict
from medbounds.scm import sweep_bounds
from medbounds.uncertainty import bound_covariance, bounds_jacobian

from conftest import counted_elements, log_scale_chain, random_bundles

theta_component = st.floats(-6.0, 6.0, allow_nan=False)
theta_vectors = st.lists(theta_component, min_size=6, max_size=6).map(np.array)
shifts = st.floats(-20.0, 20.0, allow_nan=False)

# Golden values for the derived bundle (demo-cohort coefficients at x=50 vs
# x*=10, male, BMI 28.5), confirmed against the grid-sweep oracle before
# being frozen here.
GOLDEN_P_RANGE = (0.83341, 0.94583)
GOLDEN_FACTOR_RANGE = (1.13491, 1.41492)
GOLDEN_NDE = (0.5796, 1.0206)
GOLDEN_NIE = (-0.1216, 0.4068)
GOLDEN_TOL = 5e-4


def bundle_of(values) -> PredictorBundle:
    return PredictorBundle(values=np.asarray(values, dtype=float), cov=np.zeros((6, 6)))


class TestMediatorEffect:
    """The m=1 vs m=0 gap of the outcome predictor at each exposure level:
    every bound width scales with it."""

    def test_demo_value_no_interaction(self, derived_bundle):
        for pair in Pair:
            b0, b1 = derived_bundle.outcome_parts(pair)
            assert b1 - b0 == pytest.approx(1.250)

    def test_interaction_algebra(self):
        # an x*m outcome term with coefficient w moves the gap by w (x - x*)
        w, x, xs = 0.07, 50.0, 10.0
        outcome = model_from_dict(
            {
                "role": "outcome",
                "design": ["1", "x", "m", "x*m"],
                "coefficients": [-4.0, 0.01, 1.0, w],
                "covariance": np.zeros((4, 4)).tolist(),
            }
        )
        mediator = model_from_dict(
            {
                "role": "mediator",
                "design": ["1", "x"],
                "coefficients": [0.3, -0.01],
                "covariance": np.zeros((2, 2)).tolist(),
            }
        )
        bundle = predictor_bundle(outcome, mediator, Contrast(x, xs, {}))
        a0, a1 = bundle.outcome_parts(Pair.ACTIVE)
        r0, r1 = bundle.outcome_parts(Pair.REFERENCE)
        assert (a1 - a0) - (r1 - r0) == pytest.approx(w * (x - xs), abs=1e-12)

    def test_zero_effect_at_one_level_warns(self):
        # the gap is 1.5 at the active level and 0 at the reference level
        bundle = bundle_of([-2.0, -2.0, -0.5, -2.0, 0.1, 0.2])
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            eb = effect_bounds(bundle)
        assert [w.category for w in record] == [DegenerateMediatorWarning]
        for bp in (eb.nde, eb.nie, eb.te):
            assert np.isfinite([bp.lower, bp.upper]).all()

    @settings(max_examples=120, deadline=None)
    @given(
        st.floats(-6.0, 6.0),
        st.floats(0.01, 6.0),
        st.floats(0.0, 1.0),
        st.sampled_from([-1.0, 1.0]),
    )
    def test_factor_range_widens_with_the_mediator_effect(self, g, delta, scale, sign):
        def log_width(d):
            fr = factor_range(bundle_of([-1.0, 0.0, -1.0 + d, 0.0, 0.0, g]), Pair.CROSS)
            return np.log(fr.upper) - np.log(fr.lower)

        smaller = max(scale * delta, 0.01)
        assert log_width(sign * smaller) <= log_width(sign * delta) + 1e-12


class TestShiftedEffects:
    @settings(max_examples=150, deadline=None)
    @given(theta_vectors)
    def test_zero_shift_equals_point_effects(self, values):
        bundle = bundle_of(values)
        a = shifted_effects(bundle, 0.0)
        b = point_effects(bundle)
        assert a.nde == pytest.approx(b.nde, abs=1e-12)
        assert a.nie == pytest.approx(b.nie, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(theta_vectors, shifts)
    def test_zero_mediator_effect_kills_nie(self, values, shift):
        values[2] = values[0]
        values[3] = values[1]
        assert shifted_effects(bundle_of(values), shift).nie == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(theta_vectors, shifts)
    def test_containment_in_bounds(self, values, shift):
        bundle = bundle_of(values)
        eb = effect_bounds(bundle)
        eff = shifted_effects(bundle, shift)
        tol = 1e-9
        assert eb.nde.contains(eff.nde, tol)
        assert eb.nie.contains(eff.nie, tol)
        assert eb.te.contains(eff.te, tol)

    @settings(max_examples=120, deadline=None)
    @given(theta_vectors, shifts)
    def test_straight_line_identity(self, values, shift):
        # the cross factor of the log-scale reference is the straight line
        # e^d + (1 - e^d) p in the sensitivity probability p, evaluated in
        # the cancellation-free arrangement e^d (1-p) + p with 1-p as a
        # logistic of the reference's y=0 posterior logit in its own right
        delta = values[2] - values[0]
        ref = log_scale_chain(values, shift)
        g0 = ref["logit0"][Pair.CROSS]
        lhs = np.exp(ref["factor"][Pair.CROSS])
        p = sensitivity_probability(bundle_of(values), shift)
        one_minus_p = 1.0 / (1.0 + np.exp(-g0))
        rhs = np.exp(delta) * one_minus_p + p
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestSensitivityProbability:
    def test_golden_range(self, derived_bundle):
        rng = sensitivity_probability_range(derived_bundle)
        assert rng.lower == pytest.approx(GOLDEN_P_RANGE[0], abs=GOLDEN_TOL)
        assert rng.upper == pytest.approx(GOLDEN_P_RANGE[1], abs=GOLDEN_TOL)

    def test_range_matches_extreme_shifts(self, derived_bundle):
        rng = sensitivity_probability_range(derived_bundle)
        swept = [sensitivity_probability(derived_bundle, s) for s in np.linspace(-40, 40, 4001)]
        assert min(swept) == pytest.approx(rng.lower, abs=1e-9)
        assert max(swept) == pytest.approx(rng.upper, abs=1e-9)

    def test_value_at_zero_inside_range(self, derived_bundle):
        rng = sensitivity_probability_range(derived_bundle)
        p0 = sensitivity_probability(derived_bundle, 0.0)
        assert rng.lower < p0 < rng.upper

    def test_negative_delta_form(self):
        # delta < 0 with zero reference mediator predictor: range is
        # (e^d / (e^d + 1), 1/2) per the sign-flipped closed form
        bundle = bundle_of([-1.0, -1.5, -2.0, -2.5, 0.4, 0.0])
        rng = sensitivity_probability_range(bundle)
        d = -1.0
        assert rng.lower == pytest.approx(np.exp(d) / (np.exp(d) + 1.0), abs=1e-12)
        assert rng.upper == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(theta_vectors, shifts)
    def test_probability_always_in_range(self, values, shift):
        bundle = bundle_of(values)
        assume(abs(values[2] - values[0]) > 1e-6)
        rng = sensitivity_probability_range(bundle)
        p = sensitivity_probability(bundle, shift)
        assert rng.lower - 1e-12 <= p <= rng.upper + 1e-12

    def test_sign_flip_swaps_endpoints(self):
        g = -0.3
        up = bundle_of([-1.0, -1.5, 0.5, 0.0, 0.4, g])  # mediator effect +1.5
        down = bundle_of([0.5, 0.0, -1.0, -1.5, 0.4, g])  # mediator effect -1.5
        r_up = sensitivity_probability_range(up)
        r_down = sensitivity_probability_range(down)
        expit = lambda z: 1.0 / (1.0 + np.exp(-z))
        assert r_up.lower == pytest.approx(expit(-g), abs=1e-12)
        assert r_down.upper == pytest.approx(expit(-g), abs=1e-12)
        assert r_up.upper == pytest.approx(expit(1.5 - g), abs=1e-12)
        assert r_down.lower == pytest.approx(expit(-1.5 - g), abs=1e-12)

    def test_degenerate_raises(self):
        bundle = bundle_of([-1.0, -2.0, -1.0, -2.0, 0.1, 0.2])
        with pytest.raises(DegenerateMediatorError):
            sensitivity_probability_range(bundle)

    def test_degenerate_raises_without_warning_first(self):
        bundle = bundle_of([-1.0, -2.0, -1.0, -2.0, 0.1, 0.2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DegenerateMediatorError):
                sensitivity_probability_range(bundle)
        assert caught == []


class TestFactorRange:
    def test_golden_value(self, derived_bundle):
        fr = factor_range(derived_bundle, Pair.CROSS)
        assert fr.lower == pytest.approx(GOLDEN_FACTOR_RANGE[0], abs=GOLDEN_TOL)
        assert fr.upper == pytest.approx(GOLDEN_FACTOR_RANGE[1], abs=GOLDEN_TOL)

    def test_degenerate_collapses_to_one(self):
        bundle = bundle_of([-1.0, -2.0, -1.0, -2.0, 0.1, 0.2])
        with pytest.warns(DegenerateMediatorWarning):
            fr = factor_range(bundle, Pair.CROSS)
        assert fr.lower == pytest.approx(1.0)
        assert fr.upper == pytest.approx(1.0)

    @settings(max_examples=120, deadline=None)
    @given(theta_vectors, shifts)
    def test_factor_trace_inside_range(self, values, shift):
        # the cross factor of the log-scale reference, which shares no code
        # with the bound algebra
        fr = factor_range(bundle_of(values), Pair.CROSS)
        value = np.exp(log_scale_chain(values, shift)["factor"][Pair.CROSS])
        assert fr.lower - 1e-9 <= value <= fr.upper + 1e-9

    @settings(max_examples=120, deadline=None)
    @given(theta_vectors)
    def test_ordering(self, values):
        fr = factor_range(bundle_of(values), Pair.ACTIVE)
        assert fr.lower <= fr.upper + 1e-12


class TestEffectBounds:
    def test_golden_values(self, derived_bundle):
        eb = effect_bounds(derived_bundle)
        assert eb.nde.lower == pytest.approx(GOLDEN_NDE[0], abs=GOLDEN_TOL)
        assert eb.nde.upper == pytest.approx(GOLDEN_NDE[1], abs=GOLDEN_TOL)
        assert eb.nie.lower == pytest.approx(GOLDEN_NIE[0], abs=GOLDEN_TOL)
        assert eb.nie.upper == pytest.approx(GOLDEN_NIE[1], abs=GOLDEN_TOL)
        assert eb.te.lower == pytest.approx(GOLDEN_NDE[0] + GOLDEN_NIE[0], abs=2 * GOLDEN_TOL)
        assert eb.te.upper == pytest.approx(GOLDEN_NDE[1] + GOLDEN_NIE[1], abs=2 * GOLDEN_TOL)

    def test_sweep_oracle_agreement(self, derived_bundle):
        eb = effect_bounds(derived_bundle)
        sw = sweep_bounds(derived_bundle, points=100_001)
        for a, b in ((eb.nde, sw.nde), (eb.nie, sw.nie), (eb.te, sw.te)):
            assert a.lower == pytest.approx(b.lower, abs=1e-6)
            assert a.upper == pytest.approx(b.upper, abs=1e-6)

    def test_null_contrast_straddles_zero(self):
        bundle = bundle_of([-1.5, -1.5, -0.3, -0.3, 0.2, 0.2])
        eb = effect_bounds(bundle)
        for bp in (eb.nde, eb.nie, eb.te):
            assert bp.lower <= 0.0 <= bp.upper

    def test_zero_mediator_effect_zero_width_nie(self):
        bundle = bundle_of([-1.2, -2.0, -1.2, -2.0, 0.7, -0.4])
        with pytest.warns(DegenerateMediatorWarning):
            eb = effect_bounds(bundle)
        assert eb.nie.lower == pytest.approx(0.0, abs=1e-12)
        assert eb.nie.upper == pytest.approx(0.0, abs=1e-12)
        assert eb.nde.lower == pytest.approx(0.8, abs=1e-12)
        assert eb.nde.upper == pytest.approx(0.8, abs=1e-12)

    def test_degenerate_mediator_warned_once_at_the_callers_line(self):
        bundle = bundle_of([-1.2, -2.0, -1.2, -2.0, 0.7, -0.4])
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            effect_bounds(bundle)
        assert [w.category for w in record] == [DegenerateMediatorWarning]
        assert record[0].filename == __file__
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            bound_covariance(bundle)
            bounds_jacobian(bundle)
        assert record == []

    @settings(max_examples=150, deadline=None)
    @given(theta_vectors)
    def test_point_inside_bounds(self, values):
        eb = effect_bounds(bundle_of(values))
        assert eb.nde.contains(eb.point.nde, 1e-9)
        assert eb.nie.contains(eb.point.nie, 1e-9)
        assert eb.te.contains(eb.point.te, 1e-9)

    @settings(max_examples=150, deadline=None)
    @given(theta_vectors)
    def test_te_is_componentwise_sum(self, values):
        eb = effect_bounds(bundle_of(values))
        assert eb.te.lower == pytest.approx(eb.nde.lower + eb.nie.lower, abs=1e-12)
        assert eb.te.upper == pytest.approx(eb.nde.upper + eb.nie.upper, abs=1e-12)

    def test_bound_pair_rejects_inversion(self):
        with pytest.raises(ValueError):
            BoundPair(1.0, 0.0)


class TestSensitivityCurve:
    def test_trace_matches_scalar_evaluations(self, derived_bundle):
        grid = np.linspace(-5, 5, 41)
        curve = sensitivity_curve(derived_bundle, grid)
        for i, s in enumerate(grid):
            eff = shifted_effects(derived_bundle, float(s))
            assert curve.nde[i] == pytest.approx(eff.nde, abs=1e-12)
            assert curve.nie[i] == pytest.approx(eff.nie, abs=1e-12)
            assert curve.te[i] == pytest.approx(eff.te, abs=1e-12)

    def test_at_most_ten_softplus_passes_over_the_shifts(self, derived_bundle, monkeypatch):
        # softplus(s + b0) - softplus(s + b1) once per outcome level (2 x 2
        # passes), then one factor per pair (3 x 2 passes); each softplus
        # pass is one log1p pass
        grid = np.linspace(-30.0, 30.0, 1001)
        passes = []
        log1p = np.log1p

        def counting(*args, **kwargs):
            out = log1p(*args, **kwargs)
            if np.size(out) >= grid.size:
                passes.append(np.size(out))
            return out

        monkeypatch.setattr(np, "log1p", counting)
        sensitivity_curve(derived_bundle, grid)
        assert 0 < len(passes) <= 10

    def test_two_exp_and_three_log1p_passes_over_the_shifts(self, derived_bundle, monkeypatch):
        # the probability-scale chain: e^-|t| of each outcome level's ratio
        # core, shared by CROSS and ACTIVE (2 passes), then one log1p per
        # pair (3 passes); a pass is one grid's worth of elements, counted
        # over every call and every block
        grid = np.linspace(-30.0, 30.0, 2 * effects.BLOCK + 1)
        elements = counted_elements(monkeypatch, "exp", "log1p")
        sensitivity_curve(derived_bundle, grid)
        assert {name: n // grid.size for name, n in elements.items()} == {"exp": 2, "log1p": 3}

    @pytest.mark.parametrize(
        "offset", [(0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (2, 1)], ids=lambda o: f"{o[0]}B{o[1]:+d}"
    )
    def test_block_edges_are_invisible(self, derived_bundle, offset):
        # grids of 1, 2, B - 1, B, B + 1 and 2B + 1 shifts: the curve is the
        # concatenation of the curves over slices of the grid, bit for bit,
        # and at every shift the shifted effects of that shift alone (here a
        # batch with one shift per row, which runs as one block)
        points = offset[0] * effects.BLOCK + offset[1]
        grid = np.linspace(-25.0, 25.0, points)
        cuts = sorted({0, 1, points // 3, max(points - 1, 0), points})
        fields = ("nde", "nie", "te", "probabilities")
        for bundle in [derived_bundle, *random_bundles(seed=points, count=3)]:
            curve = sensitivity_curve(bundle, grid)
            pieces = [sensitivity_curve(bundle, grid[a:b]) for a, b in zip(cuts, cuts[1:])]
            for name in fields:
                joined = np.concatenate([getattr(piece, name) for piece in pieces])
                assert np.array_equal(getattr(curve, name), joined), name
            rows = PredictorBundle(values=np.tile(bundle.values, (points, 1)), cov=np.zeros((points, 6, 6)))
            shifted = shifted_effects(rows, grid)
            for name in ("nde", "nie", "te"):
                assert np.array_equal(getattr(curve, name), getattr(shifted, name)), name
            assert np.array_equal(curve.probabilities, sensitivity_probability(rows, grid))
            edges = {0, points // 2, points - 1, effects.BLOCK - 1, effects.BLOCK}
            for i in (i for i in edges if i < points):
                one = shifted_effects(bundle, grid[i])
                assert (curve.nde[i], curve.nie[i], curve.te[i]) == (one.nde, one.nie, one.te)

    @pytest.mark.parametrize("points", [401, 2 * (effects.BLOCK // 30) + 1])
    def test_block_edges_are_invisible_on_a_batch(self, points):
        # a 2-D grid of shifts against 30 rows: blocks of whole grid rows
        values = np.random.default_rng(13).uniform(-40.0, 40.0, size=(30, 6))
        batch = PredictorBundle(values=values, cov=np.zeros((30, 6, 6)))
        grid = np.linspace(-1e3, 1e3, points)[:, None]
        curve = sensitivity_curve(batch, grid)
        cuts = [0, 1, points // 3, points - 1, points]
        pieces = [sensitivity_curve(batch, grid[a:b]) for a, b in zip(cuts, cuts[1:])]
        for name in ("nde", "nie", "te", "probabilities"):
            joined = np.concatenate([getattr(piece, name) for piece in pieces])
            assert np.array_equal(getattr(curve, name), joined), name
        for i in range(0, points, 7):
            one = shifted_effects(batch, grid[i, 0])
            for name in ("nde", "nie", "te"):
                assert np.array_equal(getattr(curve, name)[i], getattr(one, name)), name

    def test_peak_memory_is_the_outputs_and_a_few_blocks(self, derived_bundle):
        grid = np.linspace(-30.0, 30.0, 100_001)
        tracemalloc.start()
        try:
            sensitivity_curve(derived_bundle, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * grid.nbytes + 2**20

    def test_probabilities_monotone_and_admissible(self, derived_bundle):
        curve = sensitivity_curve(derived_bundle, np.linspace(-10, 10, 101))
        diffs = np.diff(curve.probabilities)
        assert np.all(diffs > 0) or np.all(diffs < 0)
        rng = sensitivity_probability_range(derived_bundle)
        assert np.all(curve.probabilities > rng.lower)
        assert np.all(curve.probabilities < rng.upper)
