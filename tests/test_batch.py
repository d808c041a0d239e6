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

from medbounds import bounds
from medbounds.bounds import (
    BoundPair,
    effect_bounds,
    sensitivity_curve,
    sensitivity_probability,
)
from medbounds.effects import Contrast, PredictorBundle, point_effects, predictor_bundle, shifted_effects
from medbounds.glm import model_from_dict
from medbounds.record import Record
from medbounds.uncertainty import bound_covariance, bounds_jacobian, uncertainty_intervals

from conftest import DERIVED_THETA, MEDIATOR_COEFS, OUTCOME_COEFS

TOL = dict(rtol=1e-12, atol=1e-12)


def leaves(record) -> list:
    """The fields of a record in order, each record among them by its own fields."""
    values = (getattr(record, name) for name in record._fields)
    return [leaf for v in values for leaf in (leaves(v) if isinstance(v, Record) else [v])]


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


@st.composite
def contrast_grids(draw, max_rows: int = 8) -> Contrast:
    """One contrast of N rows: each field a number, a length-1 array or a
    length-N array, and at least one field of length N."""
    n = draw(st.integers(1, max_rows))
    shapes = [(), (1,), (n,)]

    def column(elements):
        return draw(arrays(np.float64, draw(st.sampled_from(shapes)), elements=elements))

    profile = {"bmi": column(st.floats(15.0, 45.0)), "gender": column(st.sampled_from([0.0, 1.0]))}
    active = draw(arrays(np.float64, n, elements=st.floats(0.0, 200.0)))
    return Contrast(active, column(st.floats(0.0, 200.0)), profile)


class TestBatchMatchesSingle:
    @settings(max_examples=40, deadline=None)
    @given(contrast_grids(), st.integers(0, 1000))
    def test_predictor_bundle(self, grid, seed):
        outcome, mediator = demo_models(seed)
        batch = predictor_bundle(outcome, mediator, grid)
        n = len(grid.active)
        assert batch.values.shape == (n, 6)
        assert batch.cov.shape == (n, 6, 6)

        def at(v, i):
            return np.broadcast_to(v, (n,))[i]

        for i in range(n):
            profile = {k: at(v, i) for k, v in grid.profile.items()}
            row = Contrast(at(grid.active, i), at(grid.reference, i), profile)
            single = predictor_bundle(outcome, mediator, row)
            assert single.values.shape == (6,)
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
        # the library keeps an empty batch; the CLI rejects an empty exposure grid before it gets here
        batch = predictor_bundle(*demo_models(0), Contrast(np.empty(0), 10.0, {"bmi": 28.5, "gender": 1.0}))
        assert batch.values.shape == (0, 6)
        ui = uncertainty_intervals(effect_bounds(batch), bound_covariance(batch))
        assert ui.te.lower.shape == (0,)

    @pytest.mark.parametrize(
        "bmi", [np.array([28.5, 30.0, 31.0]), np.full((2, 2), 28.5)], ids=["other-length", "two-dimensional"]
    )
    def test_fields_that_do_not_broadcast_to_one_axis_are_rejected(self, bmi):
        contrast = Contrast(np.array([20.0, 50.0]), 10.0, {"bmi": bmi, "gender": 1.0})
        with pytest.raises(ValueError, match=r"got shapes active \(2,\), reference \(\), bmi"):
            predictor_bundle(*demo_models(0), contrast)


class TestOneBoundPass:
    """effect_bounds and bound_covariance on one bundle share one pass of
    the bound algebra, kept on the bundle."""

    @staticmethod
    def batch():
        return predictor_bundle(*demo_models(3), Contrast(np.linspace(20.0, 170.0, 7), 10.0, {"bmi": 28.5, "gender": 1.0}))

    def test_one_pass_per_bundle(self, monkeypatch):
        calls = []
        real = bounds._log_factor_range
        monkeypatch.setattr(bounds, "_log_factor_range", lambda delta, g: calls.append(1) or real(delta, g))
        batch = self.batch()
        uncertainty_intervals(effect_bounds(batch), bound_covariance(batch))
        bounds_jacobian(batch)
        assert len(calls) == 1

    @pytest.mark.parametrize("first", ["effect_bounds", "bound_covariance"])
    def test_the_shared_pass_agrees_bit_for_bit(self, first):
        # against each function on a bundle of its own, whose pass it runs itself
        built = self.batch()
        own = lambda: PredictorBundle(values=built.values, cov=built.cov)
        shared = own()
        if first == "bound_covariance":
            est = bound_covariance(shared)
            eb = effect_bounds(shared)
        else:
            eb = effect_bounds(shared)
            est = bound_covariance(shared)
        alone_eb, alone_est = effect_bounds(own()), bound_covariance(own())
        for got, want in ((eb, alone_eb), (est, alone_est)):
            assert [np.asarray(v).tobytes() for v in leaves(got)] == [np.asarray(v).tobytes() for v in leaves(want)]
        ui, alone = uncertainty_intervals(eb, est, 0.1), uncertainty_intervals(alone_eb, alone_est, 0.1)
        assert [np.asarray(v).tobytes() for v in leaves(ui)] == [np.asarray(v).tobytes() for v in leaves(alone)]

    def test_the_pass_does_not_go_stale(self):
        built = self.batch()
        values, cov = built.values.copy(), built.cov.copy()
        bundle = PredictorBundle(values=values, cov=cov)
        eb = effect_bounds(bundle)
        values += 1.0  # the caller's array, which the bundle copied
        cov[:] = 0.0
        est = bound_covariance(bundle)
        fresh = bound_covariance(PredictorBundle(values=built.values, cov=built.cov))
        assert est.log_bounds.tobytes() == fresh.log_bounds.tobytes() and est.cov.tobytes() == fresh.cov.tobytes()
        uncertainty_intervals(eb, est)
        for array in (bundle.values, bundle.cov):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0
        # what the functions return is the caller's to change
        est.log_bounds[0, 0] = eb.nde.lower[0] = bounds_jacobian(bundle)[0, 0, 0] = 0.0
        assert bound_covariance(bundle).log_bounds.tobytes() == fresh.log_bounds.tobytes()

    def test_nothing_skips_the_psd_check_of_a_hand_built_bundle(self):
        built = self.batch()
        cov = built.cov.copy()
        cov[2, 0, 0] = -1.0
        with pytest.raises(TypeError):
            PredictorBundle(values=built.values, cov=cov, _psd_by_construction=True)
        with pytest.raises(ValueError, match=r"not positive semidefinite in row 2 "):
            bound_covariance(built.replace(cov=cov))
        with pytest.raises(ValueError, match=r"not positive semidefinite in row 2 "):
            bound_covariance(PredictorBundle(values=built.values, cov=cov))

    def test_a_model_covariance_within_the_tolerance_keeps_the_row_check(self):
        # a smallest eigenvalue of -5e-9 passes the model check, and a
        # far-out design row along its eigenvector scales it into a negative
        # bundle variance
        outcome, mediator = demo_models(3)
        row = np.array([1.0, 1000.0, 28.5, 1.0])
        v = row / np.linalg.norm(row)
        project = np.eye(4) - np.outer(v, v)
        cov = project @ mediator.covariance @ project - 5e-9 * np.outer(v, v)
        mediator = mediator.replace(covariance=0.5 * (cov + cov.T))
        bundle = predictor_bundle(outcome, mediator, Contrast(1000.0, 10.0, {"bmi": 28.5, "gender": 1.0}))
        with pytest.raises(ValueError, match=r"bundle covariance is not positive semidefinite \(min eig -5"):
            bound_covariance(bundle)
