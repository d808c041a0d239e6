import tracemalloc
import warnings

import numpy as np
import pytest

import medbounds.scm as scm_mod
from medbounds.bounds import effect_bounds
from medbounds.effects import Contrast, Pair, PredictorBundle, counterfactual_outcome_logit, point_effects
from medbounds.scm import (
    DegenerateLawError,
    StructuralModel,
    _factor_extrema,
    crossworld_demo_scm,
    demo_cohort_scm,
    enumerate_counterfactuals,
    logistic_scm,
    observational_theta,
    random_scm,
    sample_dataset,
    sweep_bounds,
    true_effects,
)
from medbounds.validate import _bounds_vector

from conftest import counted_elements, random_bundles


def log_scale_factor_extrema(shifts, pairs):
    """``_factor_extrema`` on the log scale, by ``np.logaddexp``: its test reference."""
    extremes = []
    for b0, b1, g in pairs:
        t0 = np.logaddexp(0.0, shifts + b0) - np.logaddexp(0.0, shifts + b1) + g
        f = np.logaddexp(0.0, t0 + (b1 - b0)) - np.logaddexp(0.0, t0)
        extremes.append([f.min(), f.max()])
    return np.array(extremes)


def plain_factor_extrema(shifts, pairs):
    """``_factor_extrema``'s probability-scale algebra over the whole grid at
    once, without blocks: min and max of log[(1 + R c1) / (1 + R c0)]."""
    extremes = []
    for b0, b1, g in pairs:
        r = (1.0 + np.exp(shifts) * np.exp(b0)) / (1.0 + np.exp(shifts) * np.exp(b1))
        f = np.log((1.0 + r * np.exp(g + b1 - b0)) / (1.0 + r * np.exp(g)))
        extremes.append([f.min(), f.max()])
    return np.array(extremes)


def counted(monkeypatch, replacement):
    """Swap ``scm._factor_extrema`` for ``replacement``; returns the grid
    sizes it is called with, so that a test can show the swap was reached."""
    calls = []

    def swapped(shifts, pairs):
        calls.append(shifts.size)
        return replacement(shifts, pairs)

    monkeypatch.setattr(scm_mod, "_factor_extrema", swapped)
    return calls


def with_values(bundle, changes):
    values = bundle.values.copy()
    for index, value in changes.items():
        values[index] = value
    return PredictorBundle(values=values, cov=np.zeros((6, 6)))


def simple_contrast(scm, ia=1, ir=0, ic=0):
    return Contrast(
        active=float(scm.x_grid[ia]),
        reference=float(scm.x_grid[ir]),
        profile=scm.profiles()[ic],
    )


def deterministic_scm():
    """No latents, 0/1 mechanisms: M = 1{x>=1}, Y = M xor-free composition."""
    m = np.zeros((2, 1, 1))
    m[1, 0, 0] = 1.0
    y = np.zeros((2, 2, 1, 1, 1))
    y[:, 1, 0, 0, 0] = 1.0  # Y copies M
    return StructuralModel(
        covariate_names=("z",),
        c_values=np.array([[0.0]]),
        c_probs=np.array([1.0]),
        u1_probs=np.array([1.0]),
        u2_probs=np.array([1.0]),
        x_grid=np.array([0.0, 1.0]),
        x_probs=np.full((1, 1, 2), 0.5),
        m_probs=m,
        y_probs=y,
    )


class TestStructuralModelValidation:
    def test_rejects_unnormalized_probs(self):
        scm = deterministic_scm()
        with pytest.raises(ValueError, match="sum to 1"):
            StructuralModel(
                covariate_names=scm.covariate_names,
                c_values=scm.c_values,
                c_probs=np.array([0.7]),
                u1_probs=scm.u1_probs,
                u2_probs=scm.u2_probs,
                x_grid=scm.x_grid,
                x_probs=scm.x_probs,
                m_probs=scm.m_probs,
                y_probs=scm.y_probs,
            )

    def test_rejects_out_of_range_mechanism(self):
        scm = deterministic_scm()
        bad = scm.m_probs.copy()
        bad[0, 0, 0] = 1.5
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            StructuralModel(
                covariate_names=scm.covariate_names,
                c_values=scm.c_values,
                c_probs=scm.c_probs,
                u1_probs=scm.u1_probs,
                u2_probs=scm.u2_probs,
                x_grid=scm.x_grid,
                x_probs=scm.x_probs,
                m_probs=bad,
                y_probs=scm.y_probs,
            )

    def test_off_grid_level_rejected(self):
        scm = deterministic_scm()
        with pytest.raises(ValueError, match="not on the model grid"):
            enumerate_counterfactuals(
                scm, Contrast(active=0.5, reference=0.0, profile={"z": 0.0})
            )

    def test_unknown_profile_rejected(self):
        scm = deterministic_scm()
        with pytest.raises(ValueError, match="covariate support"):
            enumerate_counterfactuals(
                scm, Contrast(active=1.0, reference=0.0, profile={"z": 9.0})
            )

    def test_json_roundtrip(self, tmp_path):
        scm = crossworld_demo_scm()
        path = tmp_path / "scm.json"
        scm.save(path)
        clone = StructuralModel.load(path)
        assert np.allclose(clone.y_probs, scm.y_probs)
        assert np.allclose(clone.x_probs, scm.x_probs)
        assert clone.covariate_names == scm.covariate_names


class TestEnumeration:
    def test_deterministic_composition(self):
        scm = deterministic_scm()
        law = enumerate_counterfactuals(scm, simple_contrast(scm))
        # M(1)=1, M(0)=0, Y copies the mediator
        assert law.mediator["active"] == 1.0
        assert law.mediator["reference"] == 0.0
        assert law.crossed[("active", "active")] == 1.0
        assert law.crossed[("active", "reference")] == 0.0
        assert law.crossed[("reference", "reference")] == 0.0

    def test_cwi_holds_without_mediator_outcome_latent(self):
        # exposure-outcome latent allowed: outcome noise is still independent
        # of mediator noise, so conditioning on either world's mediator value
        # leaves the counterfactual outcome law unchanged
        rng = np.random.default_rng(5)
        for _ in range(20):
            scm = random_scm(rng, n_c=2, n_x=3, n_u1=2, n_u2=1)
            law = enumerate_counterfactuals(scm, simple_contrast(scm))
            for a in ("active", "reference"):
                for m in (0, 1):
                    base = law.marginal[(a, m)]
                    for b in ("active", "reference"):
                        for m_obs in (0, 1):
                            assert law.conditional[(a, m, b, m_obs)] == pytest.approx(
                                base, abs=1e-12
                            )

    def test_mediation_formula_identity_on_cwi_scm(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            scm = random_scm(rng, n_c=2, n_x=3)
            contrast = simple_contrast(scm)
            law = enumerate_counterfactuals(scm, contrast)
            bundle = observational_theta(scm, contrast)
            pm_ref = 1.0 / (1.0 + np.exp(-bundle.mediator_part(Pair.REFERENCE)))
            p_y1 = {m: 1.0 / (1.0 + np.exp(-bundle.values[[0, 2][m]])) for m in (0, 1)}
            plug_in = pm_ref * p_y1[1] + (1 - pm_ref) * p_y1[0]
            assert law.crossed[("active", "reference")] == pytest.approx(plug_in, abs=1e-10)
            cross = counterfactual_outcome_logit(bundle, Pair.CROSS)
            assert law.crossed[("active", "reference")] == pytest.approx(
                1.0 / (1.0 + np.exp(-cross)), abs=1e-10
            )

    def test_law_internal_consistency(self):
        # P(Y(a, M(a))=1) decomposes over the conditional pieces exactly
        rng = np.random.default_rng(7)
        for _ in range(10):
            scm = random_scm(rng, n_c=1, n_x=2, n_u1=2, n_u2=3)
            law = enumerate_counterfactuals(scm, simple_contrast(scm))
            for a in ("active", "reference"):
                pm = law.mediator[a]
                recomposed = pm * law.conditional[(a, 1, a, 1)] + (1 - pm) * law.conditional[
                    (a, 0, a, 0)
                ]
                assert law.crossed[(a, a)] == pytest.approx(recomposed, abs=1e-12)


class TestTrueEffects:
    def test_null_contrast(self):
        rng = np.random.default_rng(8)
        scm = random_scm(rng, n_c=1, n_x=2, n_u1=2, n_u2=2)
        eff = true_effects(
            scm,
            Contrast(
                active=float(scm.x_grid[0]),
                reference=float(scm.x_grid[0]),
                profile=scm.profiles()[0],
            ),
        )
        assert eff.nde == eff.nie == eff.te == 0.0

    def test_exposure_independent_mediator_kills_nie(self):
        rng = np.random.default_rng(9)
        scm = random_scm(rng, n_c=1, n_x=2, n_u1=1, n_u2=2)
        flat = scm.m_probs.copy()
        flat[1] = flat[0]
        scm = StructuralModel(
            covariate_names=scm.covariate_names,
            c_values=scm.c_values,
            c_probs=scm.c_probs,
            u1_probs=scm.u1_probs,
            u2_probs=scm.u2_probs,
            x_grid=scm.x_grid,
            x_probs=scm.x_probs,
            m_probs=flat,
            y_probs=scm.y_probs,
        )
        assert true_effects(scm, simple_contrast(scm)).nie == pytest.approx(0.0, abs=1e-12)

    def test_additivity(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            scm = random_scm(rng, n_c=2, n_x=3, n_u1=2, n_u2=2)
            eff = true_effects(scm, simple_contrast(scm))
            assert eff.te == pytest.approx(eff.nde + eff.nie, abs=1e-12)

    def test_degenerate_probability_raises(self):
        scm = deterministic_scm()
        with pytest.raises(DegenerateLawError):
            true_effects(scm, simple_contrast(scm))


class TestObservationalTheta:
    def test_logistic_scm_recovers_mechanism_logits(self):
        scm = logistic_scm(
            covariate_names=("z",),
            c_values=np.array([[0.0], [1.0]]),
            c_probs=np.array([0.4, 0.6]),
            x_grid=np.array([0.0, 2.0]),
            x_probs=np.array([0.5, 0.5]),
            mediator_coefs={"1": -0.3, "x": 0.4, "z": 0.2},
            outcome_coefs={"1": -1.0, "x": 0.25, "m": 0.8, "z": -0.5},
        )
        contrast = Contrast(active=2.0, reference=0.0, profile={"z": 1.0})
        bundle = observational_theta(scm, contrast)
        expected = np.array(
            [
                -1.0 + 0.5 - 0.5,
                -1.0 - 0.5,
                -1.0 + 0.5 + 0.8 - 0.5,
                -1.0 + 0.8 - 0.5,
                -0.3 + 0.8 + 0.2,
                -0.3 + 0.2,
            ]
        )
        assert np.allclose(bundle.values, expected, atol=1e-12)
        assert np.all(bundle.cov == 0.0)

    def test_components_are_valid_logits(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            scm = random_scm(rng, n_c=2, n_x=2, n_u1=2, n_u2=2)
            bundle = observational_theta(scm, simple_contrast(scm))
            probs = 1.0 / (1.0 + np.exp(-bundle.values))
            assert np.all((probs > 0) & (probs < 1))

    def test_point_effects_recover_truth_on_cwi_scm(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            scm = random_scm(rng, n_c=2, n_x=3)
            contrast = simple_contrast(scm)
            truth = true_effects(scm, contrast)
            pt = point_effects(observational_theta(scm, contrast))
            assert pt.nde == pytest.approx(truth.nde, abs=1e-9)
            assert pt.nie == pytest.approx(truth.nie, abs=1e-9)

    def test_containment_on_cwi_scm(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            scm = random_scm(rng, n_c=2, n_x=3)
            contrast = simple_contrast(scm)
            truth = true_effects(scm, contrast)
            eb = effect_bounds(observational_theta(scm, contrast))
            assert eb.nde.contains(truth.nde, 1e-9)
            assert eb.nie.contains(truth.nie, 1e-9)
            assert eb.te.contains(truth.te, 1e-9)


class TestSampleDataset:
    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            sample_dataset(demo_cohort_scm(), 0, seed=1)

    def test_seed_reproducibility(self):
        scm = demo_cohort_scm()
        a = sample_dataset(scm, 500, seed=99)
        b = sample_dataset(scm, 500, seed=99)
        assert np.array_equal(a.outcome, b.outcome)
        assert np.array_equal(a.exposure, b.exposure)
        assert all(np.array_equal(a.covariates[k], b.covariates[k]) for k in a.covariates)

    def test_different_seeds_differ(self):
        scm = demo_cohort_scm()
        a = sample_dataset(scm, 500, seed=1)
        b = sample_dataset(scm, 500, seed=2)
        assert not np.array_equal(a.mediator, b.mediator)

    def test_large_sample_matches_exact_marginal(self):
        scm = demo_cohort_scm()
        # exact P(M=1) by enumeration over (c, x)
        w_x = scm.x_probs[0, 0, :]
        exact = sum(
            wc * wx * scm.m_probs[ix, ic, 0]
            for ic, wc in enumerate(scm.c_probs)
            for ix, wx in enumerate(w_x)
        )
        n = 1_000_000
        data = sample_dataset(scm, n, seed=3)
        se = np.sqrt(exact * (1 - exact) / n)
        assert abs(data.mediator.mean() - exact) < 3 * se


class TestDemoCohort:
    def test_descriptive_targets(self):
        scm = demo_cohort_scm()
        bmi = scm.c_values[:, 0]
        gender = scm.c_values[:, 1]
        mean_bmi = float(scm.c_probs @ bmi)
        sd_bmi = float(np.sqrt(scm.c_probs @ (bmi - mean_bmi) ** 2))
        assert mean_bmi == pytest.approx(27.564, abs=1e-9)
        assert sd_bmi == pytest.approx(4.443, abs=1e-9)
        assert float(scm.c_probs @ gender) == pytest.approx(0.725, abs=1e-12)
        assert scm.x_grid.min() == 10.0 and scm.x_grid.max() == 170.0

    def test_prevalences_near_targets(self):
        scm = demo_cohort_scm()
        w_x = scm.x_probs[0, 0, :]
        pm = 0.0
        py = 0.0
        for ic, wc in enumerate(scm.c_probs):
            for ix, wx in enumerate(w_x):
                m1 = scm.m_probs[ix, ic, 0]
                pm += wc * wx * m1
                py += wc * wx * (
                    m1 * scm.y_probs[ix, 1, ic, 0, 0] + (1 - m1) * scm.y_probs[ix, 0, ic, 0, 0]
                )
        assert 0.21 <= pm <= 0.28  # target ~0.245
        assert 0.012 <= py <= 0.032  # target ~0.020


class TestCrossworldDemo:
    def test_matched_equalities_hold_and_others_fail(self):
        scm = crossworld_demo_scm()
        law = enumerate_counterfactuals(
            scm, Contrast(active=1.0, reference=0.0, profile={"z": 0.0})
        )
        for m in (0, 1):
            same_world = law.conditional[("active", m, "active", m)]
            cross_world = law.conditional[("active", m, "reference", m)]
            assert cross_world == pytest.approx(same_world, abs=1e-12)
        base = law.conditional[("active", 1, "active", 1)]
        assert abs(law.conditional[("active", 1, "active", 0)] - base) > 0.05
        assert abs(law.conditional[("active", 1, "reference", 0)] - base) > 0.05
        assert abs(law.marginal[("active", 1)] - base) > 0.03

    def test_exposure_mediator_unconfounded(self):
        # interventional mediator law equals the observational conditional
        scm = crossworld_demo_scm()
        contrast = Contrast(active=1.0, reference=0.0, profile={"z": 0.0})
        law = enumerate_counterfactuals(scm, contrast)
        bundle = observational_theta(scm, contrast)
        pm_active = 1.0 / (1.0 + np.exp(-bundle.mediator_part(Pair.ACTIVE)))
        assert law.mediator["active"] == pytest.approx(pm_active, abs=1e-12)


class TestSweepOracle:
    def test_matches_closed_form(self, derived_bundle):
        eb = effect_bounds(derived_bundle)
        sw = sweep_bounds(derived_bundle, points=100_001)
        for a, b in ((eb.nde, sw.nde), (eb.nie, sw.nie), (eb.te, sw.te)):
            assert b.lower == pytest.approx(a.lower, abs=1e-6)
            assert b.upper == pytest.approx(a.upper, abs=1e-6)

    def test_narrow_range_straddles_point(self, derived_bundle):
        sw = sweep_bounds(derived_bundle, lo=-0.01, hi=0.01, points=11)
        pt = point_effects(derived_bundle)
        assert sw.nde.lower <= pt.nde <= sw.nde.upper
        assert sw.nde.width < 0.01

    def test_widening_never_shrinks(self, derived_bundle):
        narrow = sweep_bounds(derived_bundle, lo=-2, hi=2, points=2001)
        wide = sweep_bounds(derived_bundle, lo=-8, hi=8, points=2001)
        assert wide.nde.lower <= narrow.nde.lower + 1e-12
        assert wide.nde.upper >= narrow.nde.upper - 1e-12
        assert wide.nie.lower <= narrow.nie.lower + 1e-12
        assert wide.nie.upper >= narrow.nie.upper - 1e-12

    def test_requires_two_points(self, derived_bundle):
        with pytest.raises(ValueError):
            sweep_bounds(derived_bundle, points=1)

    def test_factor_extrema_monotone_case(self):
        # factor is monotone in the shift, so extrema sit at the grid ends
        ((lo, hi),) = _factor_extrema(np.linspace(-30.0, 30.0, 101), [(-1.0, 0.5, -0.3)])
        smin, smax = -30.0, 30.0
        t0 = lambda s: np.logaddexp(0, s - 1.0) - np.logaddexp(0, s + 0.5) - 0.3
        f = lambda s: np.logaddexp(0, t0(s) + 1.5) - np.logaddexp(0, t0(s))
        assert lo == pytest.approx(min(f(smin), f(smax)), abs=1e-12)
        assert hi == pytest.approx(max(f(smin), f(smax)), abs=1e-12)

    def test_factor_extrema_matches_the_log_scale_reference(self):
        rng = np.random.default_rng(2024)
        shifts = np.linspace(-30.0, 30.0, 2001)
        pairs = rng.uniform(-6.0, 6.0, size=(200, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _factor_extrema(shifts, pairs)
        want = log_scale_factor_extrema(shifts, pairs)
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize(
        "changes, lo, hi",
        [
            ({}, -800.0, 30.0),  # e^s underflows to 0, its exact limit
            ({2: 679.0}, -30.0, 30.0),  # largest shift + outcome predictor at the 709 edge
            ({4: 700.0}, -30.0, 30.0),  # a mediator predictor of 700
        ],
    )
    def test_accepted_domain_matches_the_reference_without_warnings(
        self, derived_bundle, monkeypatch, changes, lo, hi
    ):
        bundle = with_values(derived_bundle, changes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _bounds_vector(sweep_bounds(bundle, lo=lo, hi=hi, points=20_001))
            calls = counted(monkeypatch, log_scale_factor_extrema)
            want = _bounds_vector(sweep_bounds(bundle, lo=lo, hi=hi, points=20_001))
        assert calls == [20_001]
        assert np.isfinite(got).all()
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("changes, hi", [({0: 700.0}, 30.0), ({}, 720.0)])
    def test_past_the_domain_is_a_stated_error(self, derived_bundle, changes, hi):
        with pytest.raises(ValueError, match="domain ends at 709"):
            sweep_bounds(with_values(derived_bundle, changes), hi=hi)

    @pytest.mark.parametrize(
        "offset", [(0, 2), (1, -1), (1, 0), (1, 1), (2, 1)], ids=lambda o: f"{o[0]}B{o[1]:+d}"
    )
    def test_block_edges_match_the_whole_grid_algebra(self, derived_bundle, monkeypatch, offset):
        # grids of 2, B - 1, B, B + 1 and 2B + 1 points against the same R
        # algebra over the whole grid at once
        points = offset[0] * scm_mod._BLOCK + offset[1]
        shifts = np.linspace(-30.0, 30.0, points)
        rng = np.random.default_rng(points)
        pairs = [*rng.uniform(-6.0, 6.0, size=(6, 3)), (-1.0, 0.5, -0.3), (-1.0, 0.5, 2.0)]
        assert np.abs(_factor_extrema(shifts, pairs) - plain_factor_extrema(shifts, pairs)).max() <= 1e-12
        bundles = [derived_bundle, *random_bundles(seed=points, count=4)]
        got = [_bounds_vector(sweep_bounds(b, points=points)) for b in bundles]
        calls = counted(monkeypatch, plain_factor_extrema)
        want = [_bounds_vector(sweep_bounds(b, points=points)) for b in bundles]
        assert calls == [points] * len(bundles)
        assert np.abs(np.array(got) - np.array(want)).max() <= 1e-12

    def test_one_exp_and_no_log_pass_over_the_grid(self, derived_bundle, monkeypatch):
        # e^s once per block for all three factors, and log of the six
        # extremes only; a pass is one grid's worth of elements over every call
        points = 2 * scm_mod._BLOCK + 1
        elements = counted_elements(monkeypatch, "exp", "log")
        sweep_bounds(derived_bundle, points=points)
        assert {name: n // points for name, n in elements.items()} == {"exp": 1, "log": 0}

    def test_peak_memory_is_the_grid_and_a_few_blocks(self, derived_bundle):
        points = 100_001
        tracemalloc.start()
        try:
            sweep_bounds(derived_bundle, points=points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * points + 2**20
