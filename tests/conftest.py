import numpy as np
import pytest

from medbounds import Contrast, Pair, PredictorBundle
from medbounds.scm import random_bundle

# Bundle evaluated from the demo-cohort coefficient tables at the
# reference contrast used throughout the tests: active 50 vs reference 10
# pack-years, male, BMI 28.5. Components verified against hand arithmetic.
DERIVED_THETA = np.array([-4.162, -4.962, -2.912, -3.712, -0.930, -1.610])

MEDIATOR_COEFS = {"1": 0.418, "x": 0.017, "bmi": -0.098, "gender": 0.595}
OUTCOME_COEFS = {"1": -3.925, "x": 0.020, "m": 1.250, "bmi": -0.064, "gender": 0.587}

MALE_PROFILE = {"bmi": 28.5, "gender": 1.0}


def stands_for_the_rows(data) -> bool:
    """Whether the rows of ``data._reduced``, each counted a whole number of
    times and at least once, and repeated as often, are the rows of ``data``
    bit for bit, in some order."""
    rows, counts = data._reduced
    if not ((counts >= 1).all() and (counts == np.round(counts)).all()):
        return False
    table = lambda d: np.column_stack([d.outcome, d.mediator, d.exposure, *d.covariates.values()])
    as_rows = lambda t: sorted(map(tuple, t.view(np.uint64).tolist()))
    return as_rows(np.repeat(table(rows), counts.astype(np.intp), axis=0)) == as_rows(table(data))


def pattern_table(rows, counts, sums) -> dict:
    """{row: [count, response sum]} of the rows a fit runs on, with their
    counts and response sums: a row that occurs twice adds up, and each row
    is read as float equality reads it (-0.0 as 0.0)."""
    table = {}
    for row, n, s in zip((rows + 0.0).tolist(), counts.tolist(), sums.tolist()):
        entry = table.setdefault(tuple(row), [0.0, 0.0])
        entry[0] += n
        entry[1] += s
    return table


@pytest.fixture
def derived_bundle() -> PredictorBundle:
    return PredictorBundle(values=DERIVED_THETA.copy(), cov=np.zeros((6, 6)))


@pytest.fixture
def derived_contrast() -> Contrast:
    return Contrast(active=50.0, reference=10.0, profile=MALE_PROFILE)


def log_scale_chain(values, shifts) -> dict:
    """The softplus-difference effect chain on the log scale, by ``np.logaddexp``,
    reading the bundle by its own fixed positions: the test reference of the
    probability-scale chain. Each pair's y=0 posterior logit at every shift,
    its log adjustment factor, and the effects and sensitivity probability
    traced along the shifts."""
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
        "factor": factor,
        "nde": nde,
        "nie": nie,
        "te": nde + nie,
        "probabilities": np.exp(-np.logaddexp(0.0, logit0[Pair.CROSS])),
    }


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
