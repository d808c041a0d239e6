"""The read-only record that the package's result and model types share:
its constructor, read-only fields, field-wise ``==`` and ``replace``."""

import math

import numpy as np
import pytest

from medbounds.bounds import BoundPair
from medbounds.effects import EffectTriple
from medbounds.glm import FitReport
from medbounds.record import Record


class Interval(Record):
    lo: float
    hi: float = math.inf
    cache = None  # unannotated: no field

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("lo exceeds hi")


class Labelled(Interval):
    label: str = ""


def test_fields_are_the_annotations_in_order_and_a_subclass_adds_its_own():
    assert Interval._fields == ("lo", "hi")
    assert Labelled._fields == ("lo", "hi", "label")
    assert FitReport._fields == ("iterations", "grad_norm", "loglik", "loglik_trace", "patterns")


def test_arguments_bind_by_position_or_keyword_with_class_defaults():
    assert vars(Interval(1.0)) == {"lo": 1.0, "hi": math.inf}
    assert Interval(1.0, 2.0) == Interval(hi=2.0, lo=1.0) == Interval(1.0, hi=2.0)
    assert vars(Labelled(0.0, label="a")) == {"lo": 0.0, "hi": math.inf, "label": "a"}
    assert FitReport(3, 1e-9, -2.0, []).patterns == 0


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((1.0, 2.0, 3.0), {}, r"Interval\(\) takes 2 arguments but 3 were given"),
        ((), {}, r"Interval\(\) missing required arguments: 'lo'"),
        ((), {"hi": 1.0}, r"missing required arguments: 'lo'"),
        ((1.0,), {"width": 1.0}, r"unexpected keyword argument 'width'"),
        ((1.0,), {"cache": 1.0}, r"unexpected keyword argument 'cache'"),
        ((1.0,), {"lo": 1.0}, r"multiple values for argument 'lo'"),
        # as many keywords as fields, or every field by keyword and one more by position
        ((), {"lo": 1.0, "width": 1.0}, r"unexpected keyword argument 'width'"),
        ((1.0,), {"lo": 1.0, "hi": 2.0}, r"multiple values for argument 'lo'"),
    ],
)
def test_a_wrong_call_is_a_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Interval(*args, **kwargs)


def test_post_init_checks_every_construction():
    with pytest.raises(ValueError, match="lo exceeds hi"):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError, match="lo exceeds hi"):
        Interval(hi=1.0, lo=2.0)


def test_fields_are_read_only():
    pair = BoundPair(0.0, 1.0)
    with pytest.raises(AttributeError, match="read-only"):
        pair.lower = 2.0
    with pytest.raises(AttributeError, match="read-only"):
        del pair.upper
    with pytest.raises(AttributeError, match="read-only"):
        pair.other = 1.0
    assert (pair.lower, pair.upper) == (0.0, 1.0)


def test_equality_compares_the_fields_of_records_of_one_class():
    report = FitReport(3, 1e-9, -2.0, [-3.0, -2.0], 40)
    assert report == FitReport(3, 1e-9, -2.0, [-3.0, -2.0], 40)
    assert report != FitReport(3, 1e-9, -2.0, [-3.0, -2.0], 41)
    assert report != report.replace(loglik_trace=[])
    assert Interval(1.0, 2.0) != Labelled(1.0, 2.0)
    assert EffectTriple(0.5, 0.25, 0.75) == EffectTriple(0.5, 0.25, 0.75)
    assert hash(EffectTriple(0.5, 0.25, 0.75)) == hash(EffectTriple(0.5, 0.25, 0.75))
    # a cache is no field
    cached = Interval(1.0)
    object.__setattr__(cached, "cache", "set")
    assert cached == Interval(1.0)


def test_repr_names_every_field():
    assert repr(Labelled(0.5, label="a")) == "Labelled(lo=0.5, hi=inf, label='a')"
    assert repr(BoundPair(0.0, 1.0)) == "BoundPair(lower=0.0, upper=1.0)"


def test_replace_builds_a_checked_record_and_leaves_the_caches():
    pair = BoundPair(0.0, 1.0)
    assert pair.replace(upper=2.0) == BoundPair(0.0, 2.0) and pair == BoundPair(0.0, 1.0)
    with pytest.raises(ValueError, match="lower 3.0 exceeds upper 1.0"):
        pair.replace(lower=3.0)
    batch = BoundPair(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="in row 1$"):
        batch.replace(lower=np.array([0.0, 2.0, 0.0]))
    with pytest.raises(TypeError, match="unexpected keyword argument 'width'"):
        pair.replace(width=1.0)
    cached = Interval(1.0)
    object.__setattr__(cached, "cache", "set")
    assert cached.replace(hi=2.0).cache is None
