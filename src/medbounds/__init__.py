"""Natural mediation effects for a binary mediator and binary outcome.

Point estimates under the full identification assumption set, closed-form
identification bounds under a weaker cross-world condition, and delta-method
uncertainty intervals, all on the log odds-ratio scale. An exact discrete
simulator provides ground truth for every closed form.

The root exports the library workflow and the paper's quantities; every
other public name is imported from its own module, such as ``medbounds.scm``.
The root's ``sweep_bounds`` loads ``medbounds.scm`` on first use.
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
)
from .effects import (
    Contrast,
    EffectTriple,
    Pair,
    PredictorBundle,
    point_effects,
    predictor_bundle,
    shifted_effects,
)
from .glm import fit_logistic, load_csv, parse_design
from .uncertainty import BoundEstimates, UncertaintyIntervals, bound_covariance, uncertainty_intervals

__version__ = "0.1.0"


def __getattr__(name):
    if name == "sweep_bounds":
        from .scm import sweep_bounds

        return sweep_bounds
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
