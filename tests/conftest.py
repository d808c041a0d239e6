import numpy as np
import pytest

from medbounds import Contrast, PredictorBundle
from medbounds.scm import random_bundle

# Bundle evaluated from the demo-cohort coefficient tables at the
# reference contrast used throughout the tests: active 50 vs reference 10
# pack-years, male, BMI 28.5. Components verified against hand arithmetic.
DERIVED_THETA = np.array([-4.162, -4.962, -2.912, -3.712, -0.930, -1.610])

MEDIATOR_COEFS = {"1": 0.418, "x": 0.017, "bmi": -0.098, "gender": 0.595}
OUTCOME_COEFS = {"1": -3.925, "x": 0.020, "m": 1.250, "bmi": -0.064, "gender": 0.587}

MALE_PROFILE = {"bmi": 28.5, "gender": 1.0}


@pytest.fixture
def derived_bundle() -> PredictorBundle:
    return PredictorBundle(values=DERIVED_THETA.copy(), cov=np.zeros((6, 6)))


@pytest.fixture
def derived_contrast() -> Contrast:
    return Contrast(active=50.0, reference=10.0, profile=MALE_PROFILE)


def random_bundles(seed: int, count: int):
    """The rows of ``random_bundle(default_rng(seed), count)`` as single bundles."""
    for values in random_bundle(np.random.default_rng(seed), count).values:
        yield PredictorBundle(values=values, cov=np.zeros((6, 6)))


def counted_elements(monkeypatch, *names: str) -> dict:
    """Wrap each named numpy function so that it adds the size of every
    result to the returned dict; totals // grid size are passes over a grid."""
    elements = dict.fromkeys(names, 0)

    def counting(name):
        real = getattr(np, name)

        def call(*args, **kwargs):
            out = real(*args, **kwargs)
            elements[name] += np.size(out)
            return out

        return call

    for name in names:
        monkeypatch.setattr(np, name, counting(name))
    return elements
