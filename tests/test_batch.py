"""A batch of bundles answers row by row exactly as single bundles do.

Every function of a predictor bundle takes a leading contrast axis; a single
bundle is a batch of one. These checks compare each batch result with a loop
of single-bundle calls, within 1e-12.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from medbounds.bounds import (
    BoundPair,
    effect_bounds,
    sensitivity_curve,
    sensitivity_probability,
    shifted_effects,
)
from medbounds.effects import Contrast, PredictorBundle, point_effects, predictor_bundle
from medbounds.glm import model_from_dict
from medbounds.uncertainty import bound_covariance, bounds_jacobian, uncertainty_intervals

from conftest import DERIVED_THETA, MEDIATOR_COEFS, OUTCOME_COEFS

TOL = dict(rtol=1e-12, atol=1e-12)


@st.composite
def batches(draw, max_rows: int = 6) -> PredictorBundle:
    """A batch of bundles with random values and random PSD covariances."""
    n = draw(st.integers(1, max_rows))
    values = draw(arrays(np.float64, (n, 6), elements=st.floats(-6.0, 6.0)))
    a = draw(arrays(np.float64, (n, 6, 6), elements=st.floats(-0.5, 0.5)))
    return PredictorBundle(values=values, cov=a @ a.swapaxes(-1, -2))


def rows(batch: PredictorBundle):
    return [PredictorBundle(values=v, cov=c) for v, c in zip(batch.values, batch.cov)]


def bound_arrays(eb):
    return {
        f"{e}.{end}": getattr(getattr(eb, e), end) for e in ("nde", "nie", "te") for end in ("lower", "upper")
    }


def demo_models(seed: int):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(5, 5)) * 0.05
    b = rng.normal(size=(4, 4)) * 0.05
    outcome = model_from_dict(
        {
            "role": "outcome",
            "design": ["1", "x", "m", "bmi", "gender", "x*m"],
            "coefficients": [OUTCOME_COEFS[k] for k in ("1", "x", "m", "bmi", "gender")] + [0.004],
            "covariance": np.pad(a @ a.T, (0, 1)).tolist(),
        }
    )
    mediator = model_from_dict(
        {
            "role": "mediator",
            "design": ["1", "x", "bmi", "gender"],
            "coefficients": [MEDIATOR_COEFS[k] for k in ("1", "x", "bmi", "gender")],
            "covariance": (b @ b.T).tolist(),
        }
    )
    return outcome, mediator


contrasts = st.builds(
    Contrast,
    active=st.floats(0.0, 200.0),
    reference=st.floats(0.0, 200.0),
    profile=st.fixed_dictionaries({"bmi": st.floats(15.0, 45.0), "gender": st.sampled_from([0.0, 1.0])}),
)


class TestBatchMatchesSingle:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(contrasts, min_size=1, max_size=8), st.integers(0, 1000))
    def test_predictor_bundle(self, batch_contrasts, seed):
        outcome, mediator = demo_models(seed)
        batch = predictor_bundle(outcome, mediator, batch_contrasts)
        assert batch.values.shape == (len(batch_contrasts), 6)
        assert batch.cov.shape == (len(batch_contrasts), 6, 6)
        for i, c in enumerate(batch_contrasts):
            single = predictor_bundle(outcome, mediator, c)
            np.testing.assert_allclose(batch.values[i], single.values, **TOL)
            np.testing.assert_allclose(batch.cov[i], single.cov, **TOL)

    @settings(max_examples=60, deadline=None)
    @given(batches())
    def test_point_effects(self, batch):
        pt = point_effects(batch)
        for i, single in enumerate(rows(batch)):
            one = point_effects(single)
            for name in ("nde", "nie", "te"):
                np.testing.assert_allclose(getattr(pt, name)[i], getattr(one, name), **TOL)

    @settings(max_examples=60, deadline=None)
    @given(batches())
    def test_effect_bounds(self, batch):
        eb = bound_arrays(effect_bounds(batch))
        for i, single in enumerate(rows(batch)):
            for name, value in bound_arrays(effect_bounds(single)).items():
                assert isinstance(value, float)
                np.testing.assert_allclose(eb[name][i], value, **TOL)

    @settings(max_examples=60, deadline=None)
    @given(batches())
    def test_bounds_jacobian(self, batch):
        D = bounds_jacobian(batch)
        assert D.shape == (len(batch.values), 6, 4)
        for i, single in enumerate(rows(batch)):
            np.testing.assert_allclose(D[i], bounds_jacobian(single), **TOL)

    @settings(max_examples=60, deadline=None)
    @given(batches())
    def test_bound_covariance(self, batch):
        est = bound_covariance(batch)
        for i, single in enumerate(rows(batch)):
            one = bound_covariance(single)
            np.testing.assert_allclose(est.log_bounds[i], one.log_bounds, **TOL)
            np.testing.assert_allclose(est.cov[i], one.cov, **TOL)
            np.testing.assert_allclose(est.stderr[i], one.stderr, **TOL)

    @settings(max_examples=60, deadline=None)
    @given(batches(max_rows=40))
    def test_bound_covariance_is_the_einsum_sandwich(self, batch):
        # J'SJ as two matrix products equals the explicit index contraction
        D = bounds_jacobian(batch)
        ref = np.einsum("...ia,...ij,...jb->...ab", D, batch.cov, D)
        np.testing.assert_allclose(bound_covariance(batch).cov, ref, **TOL)

    @pytest.mark.filterwarnings("ignore:negative computed variance")
    @settings(max_examples=60, deadline=None)
    @given(batches(), st.floats(0.01, 0.5))
    def test_uncertainty_intervals(self, batch, alpha):
        ui = bound_arrays(uncertainty_intervals(effect_bounds(batch), bound_covariance(batch), alpha))
        for i, single in enumerate(rows(batch)):
            one = uncertainty_intervals(effect_bounds(single), bound_covariance(single), alpha)
            for name, value in bound_arrays(one).items():
                np.testing.assert_allclose(ui[name][i], value, **TOL)

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(np.float64, 6, elements=st.floats(-6.0, 6.0)),
        arrays(np.float64, st.integers(1, 40), elements=st.floats(-20.0, 20.0)),
    )
    def test_sensitivity_curve_probabilities(self, values, shifts):
        bundle = PredictorBundle(values=values, cov=np.zeros((6, 6)))
        curve = sensitivity_curve(bundle, shifts)
        for i, s in enumerate(shifts):
            one = sensitivity_probability(bundle, float(s))
            np.testing.assert_allclose(curve.probabilities[i], one, **TOL)

    def test_array_shift_matches_loop_of_scalar_shifts(self):
        rng = np.random.default_rng(0)
        shifts = np.linspace(-6, 6, 23)
        for values in rng.uniform(-5, 5, size=(20, 6)):
            bundle = PredictorBundle(values=values, cov=np.zeros((6, 6)))
            traced = shifted_effects(bundle, shifts)
            for i, s in enumerate(shifts):
                eff = shifted_effects(bundle, float(s))
                assert traced.nde[i] == pytest.approx(eff.nde, abs=1e-12)
                assert traced.nie[i] == pytest.approx(eff.nie, abs=1e-12)


class TestRowWiseChecks:
    def test_non_psd_row_is_rejected_and_named(self):
        cov = np.stack([np.eye(6)] * 4)
        cov[2, 0, 0] = -1.0
        batch = PredictorBundle(values=np.tile(DERIVED_THETA, (4, 1)), cov=cov)
        with pytest.raises(ValueError, match=r"not positive semidefinite in row 2 "):
            bound_covariance(batch)

    def test_inverted_row_is_rejected_and_named(self):
        with pytest.raises(ValueError, match=r"in row 1$"):
            BoundPair(np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 1.0]))

    def test_mismatched_batch_shapes_rejected(self):
        with pytest.raises(ValueError):
            PredictorBundle(values=np.zeros((3, 6)), cov=np.zeros((6, 6)))
        with pytest.raises(ValueError):
            PredictorBundle(values=np.zeros((3, 6)), cov=np.zeros((2, 6, 6)))

    def test_no_contrasts_give_an_empty_batch(self):
        # a command with an empty exposure grid prints no rows instead of failing
        batch = predictor_bundle(*demo_models(0), [])
        assert batch.values.shape == (0, 6)
        ui = uncertainty_intervals(effect_bounds(batch), bound_covariance(batch))
        assert ui.te.lower.shape == (0,)
