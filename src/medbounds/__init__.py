"""Natural mediation effects for a binary mediator and binary outcome.

Point estimates under the full identification assumption set, closed-form
identification bounds under a weaker cross-world condition, and delta-method
uncertainty intervals, all on the log odds-ratio scale. An exact discrete
simulator provides ground truth for every closed form.
"""

from .bounds import (
    BoundPair,
    EffectBounds,
    SensitivityCurve,
    effect_bounds,
    factor_range,
    sensitivity_curve,
    sensitivity_probability,
    sensitivity_probability_range,
    shifted_effects,
    shifted_posterior_logit,
)
from .effects import (
    Contrast,
    EffectTriple,
    Pair,
    PredictorBundle,
    counterfactual_outcome_logit,
    point_effects,
    predictor_bundle,
)
from .glm import (
    Dataset,
    DesignSpec,
    FittedGlm,
    Point,
    fit_logistic,
    load_csv,
    parse_design,
    parse_term,
)
from .scm import (
    CounterfactualLaw,
    StructuralModel,
    crossworld_demo_scm,
    demo_cohort_scm,
    enumerate_counterfactuals,
    finite_difference_jacobian,
    logistic_scm,
    mediation_formula_logit,
    observational_theta,
    random_scm,
    sample_dataset,
    sweep_bounds,
    true_effects,
)
from .uncertainty import (
    BoundEstimates,
    UncertaintyIntervals,
    bound_covariance,
    bounds_jacobian,
    total_effect_variances,
    uncertainty_intervals,
)

__version__ = "0.1.0"
