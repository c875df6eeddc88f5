"""The immutable record classes of numerics, measures, padic_local and
lvalues: construction, refusals, immutability, equality, hashing, repr
and pickling, each as the frozen dataclasses they replace had them."""

import copy
import dataclasses
import inspect
import pickle
import re

import pytest

from modlavg import lvalues as lv
from modlavg import measures as ms
from modlavg import numerics as nm
from modlavg import padic_local as pl
from modlavg.arith import load_eigenforms
from modlavg.errors import DomainError, InvariantViolation
from modlavg.harness import default_data_path


@pytest.fixture(scope="module")
def form():
    return next(f for f in load_eigenforms(default_data_path()) if f.label == "7.4.a")


# class, positional arguments, keyword arguments giving the same record, an
# argument set differing from them, and the repr text the dataclasses gave
CASES = {
    "QuadratureSpec": (nm.QuadratureSpec, (nm.half_line(0.5), 1e-8, 1e-9),
                       {"abs_tol": 1e-9, "rel_tol": 1e-8, "domain": ("half_line", 0.5)},
                       (nm.half_line(0.5), 1e-8, 1e-10),
                       "QuadratureSpec(domain=('half_line', 0.5), rel_tol=1e-08, abs_tol=1e-09)"),
    "IntegralResult": (nm.IntegralResult, (1 + 2j, 1e-3, False),
                       {"value": 1 + 2j, "error": 1e-3, "converged": False},
                       (1 + 2j, 1e-3, True),
                       "IntegralResult(value=(1+2j), error=0.001, converged=False)"),
    "SatakeMeasure": (ms.SatakeMeasure, (13, -1), {"sign": -1, "p": 13}, (13, 1),
                      "SatakeMeasure(p=13, sign=-1)"),
    "SatakePolynomial": (ms.SatakePolynomial, (2, 13, ((2, 1.0), (0, 12 / 13))),
                         {"n": 2, "p": 13, "coeffs": ((2, 1.0), (0, 12 / 13))},
                         (2, 11, ((2, 1.0), (0, 12 / 13))),
                         "SatakePolynomial(n=2, p=13, "
                         "coeffs=((2, 1.0), (0, 0.9230769230769231)))"),
    "PlaceSpec": (pl.PlaceSpec, (3, "hecke", -1, 2, 1),
                  {"q": 3, "kind": "hecke", "chi_q": -1, "r": 2, "r2": 1}, (3, "hecke", -1, 2, 0),
                  "PlaceSpec(q=3, kind='hecke', chi_q=-1, r=2, r2=1)"),
    "OrbitDatum": (pl.OrbitDatum, ("regular", 2, 0), {"vx": 2, "kind": "regular"},
                   ("regular", 3, 0), "OrbitDatum(kind='regular', vx=2, v1mx=0)"),
    "LaurentValue": (pl.LaurentValue, ((((0, 1), 2), ((1, 0), -1)),),
                     {"terms": (((0, 1), 2), ((1, 0), -1))}, ((((0, 1), 2),),),
                     "LaurentValue(terms=(((0, 1), 2), ((1, 0), -1)))"),
    # the cells are compared and hashed, but not shown
    "BruteForceResult": (pl.BruteForceResult, (pl.LaurentValue(), True, ((0, 1),)),
                         {"value": pl.LaurentValue(), "touched_boundary": True,
                          "cells": ((0, 1),)},
                         (pl.LaurentValue(), True, ((0, 2),)),
                         "BruteForceResult(value=LaurentValue(terms=()), touched_boundary=True)"),
    "CentralValue": (lv.CentralValue, (0.5, 1, 0.5, 0.5000000000000001, 1e-15),
                     {"value": 0.5, "eps": 1, "afe": 0.5, "mellin": 0.5000000000000001,
                      "spread": 1e-15},
                     (0.0, -1, 0.5, 0.5000000000000001, 1e-15),
                     "CentralValue(value=0.5, eps=1, afe=0.5, mellin=0.5000000000000001, "
                     "spread=1e-15)"),
}

# the fields with defaults, and those defaults
DEFAULTS = {
    "QuadratureSpec": ((), {"domain": ("interval", 0.0, 1.0), "rel_tol": 1e-10,
                            "abs_tol": 1e-12}),
    "PlaceSpec": ((5,), {"kind": "unramified", "chi_q": 1, "r": 0, "r2": 0}),
    "OrbitDatum": ((), {"kind": "regular", "vx": 0, "v1mx": 0}),
    "LaurentValue": ((), {"terms": ()}),
    "BruteForceResult": ((pl.LaurentValue(), False), {"cells": ()}),
}

# each refusal of a constructor, with the message it had as a dataclass
REFUSALS = [
    (lambda form: nm.QuadratureSpec(rel_tol=0.0), DomainError,
     "tolerances must be strictly positive, got rel_tol = 0.0, abs_tol = 1e-12"),
    (lambda form: nm.QuadratureSpec(abs_tol=float("nan")), DomainError,
     "tolerances must be strictly positive, got rel_tol = 1e-10, abs_tol = nan"),
    (lambda form: ms.SatakeMeasure(12, 1), DomainError, "N = 12 is not prime"),
    (lambda form: ms.SatakeMeasure(13, 0), DomainError, "sign must be +1 or -1"),
    (lambda form: ms.SatakeMeasure(13, True), DomainError, "sign = True is not an integer"),
    (lambda form: pl.PlaceSpec(4), DomainError, "N = 4 is not prime"),
    (lambda form: pl.PlaceSpec(5, "ramified"), DomainError, "unknown place kind 'ramified'"),
    (lambda form: pl.PlaceSpec(5, "hecke", r=0, r2=1), DomainError,
     "hecke signature requires r >= r'"),
    (lambda form: pl.PlaceSpec(5, chi_q=0), DomainError, "chi_q must be +1 or -1"),
    (lambda form: pl.PlaceSpec(5, r=1.0), DomainError, "r = 1.0 is not an integer"),
    (lambda form: pl.OrbitDatum("diagonal"), DomainError, "unknown orbit kind 'diagonal'"),
    (lambda form: pl.OrbitDatum("regular", 1, 1), InvariantViolation,
     "impossible orbit valuations v(x)=1, v(1-x)=1"),
    (lambda form: pl.OrbitDatum("upper", 0.5, 0), DomainError, "vx = 0.5 is not an integer"),
    (lambda form: lv.CompletedL(form, twist=2), DomainError,
     "twist 2 is not a fundamental discriminant"),
    (lambda form: lv.CompletedL(form, twist=-7), DomainError,
     "twist -7 is not prime to the level 7"),
    (lambda form: lv.CompletedL(form, twist=-4.0), DomainError,
     "twist = -4.0 is not an integer"),
    # the signatures the dataclasses generated
    (lambda form: lv.CompletedL(form, 1, 2), TypeError,
     "CompletedL.__init__() takes from 2 to 3 positional arguments but 4 were given"),
    (lambda form: lv.CompletedL(form, eps=1), TypeError,
     "CompletedL.__init__() got an unexpected keyword argument 'eps'"),
    (lambda form: nm.IntegralResult(1.0, 0.1), TypeError,
     "IntegralResult.__init__() missing 1 required positional argument: 'converged'"),
    (lambda form: pl.PlaceSpec(q=5, bogus=1), TypeError,
     "PlaceSpec.__init__() got an unexpected keyword argument 'bogus'"),
]


def _fields(cls) -> list:
    return list(inspect.signature(cls).parameters)


def _records(form):
    """One record of each of the ten classes, with its field names."""
    out = [(case[0](*case[1]), _fields(case[0])) for case in CASES.values()]
    return out + [(lv.CompletedL(form, twist=-4), ["form", "twist", "eps"])]


@pytest.mark.parametrize("name", sorted(CASES))
def test_positional_and_keyword_construction(name):
    cls, args, kwargs, _, _ = CASES[name]
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert by_position == by_keyword
    assert [getattr(by_position, f) for f in _fields(cls)] == list(args)


@pytest.mark.parametrize("name", sorted(DEFAULTS))
def test_defaults(name):
    args, defaults = DEFAULTS[name]
    record = CASES[name][0](*args)
    assert {f: getattr(record, f) for f in defaults} == defaults


def test_completed_l_construction(form):
    plain, twisted = lv.CompletedL(form), lv.CompletedL(form=form, twist=-4)
    assert plain.twist is None and plain.eps in (1, -1)
    assert (twisted.form, twisted.twist, twisted.eps) == (form, -4, 1)
    assert twisted.series.label == "7.4.a twisted by -4"


@pytest.mark.parametrize("build, error, message", REFUSALS,
                         ids=[m for _, _, m in REFUSALS])
def test_refusal_and_its_message(form, build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(form)


def test_fields_cannot_be_set_or_deleted(form):
    for record, fields in _records(form):
        for field in fields:
            with pytest.raises(dataclasses.FrozenInstanceError,
                               match=f"cannot assign to field '{field}'"):
                setattr(record, field, 0)
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(record, field)
        with pytest.raises(AttributeError):
            record.other = 0
        assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_and_hash(name):
    cls, args, _, other, _ = CASES[name]
    record = cls(*args)
    assert record == cls(*args) and hash(record) == hash(cls(*args))
    assert record != cls(*other)
    # a record equals no other type, not even a tuple of its fields
    assert record != tuple(args) and record != object()
    assert len({record, cls(*args), cls(*other)}) == 2


def test_completed_l_equality(form):
    twisted = lv.CompletedL(form, twist=-4)
    assert twisted == lv.CompletedL(form, twist=-4)
    assert twisted != lv.CompletedL(form, twist=-3)
    # compared by its form, which is a mutable dataclass: unhashable, as the
    # dataclass's __hash__ = None made it
    with pytest.raises(TypeError, match="unhashable"):
        hash(twisted)


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr_is_the_dataclass_text(name):
    cls, args, _, _, text = CASES[name]
    assert repr(cls(*args)) == text


def test_completed_l_repr(form):
    assert repr(lv.CompletedL(form, twist=-4)) == f"CompletedL(form={form!r}, twist=-4, eps=1)"


def test_copy_and_pickle(form):
    for record, fields in _records(form):
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record) and twin == record
            assert [getattr(twin, f) for f in fields] == [getattr(record, f) for f in fields]
    twisted = pickle.loads(pickle.dumps(lv.CompletedL(form, twist=-4)))
    assert twisted.lambda_afe(2.0) == lv.CompletedL(form, twist=-4).lambda_afe(2.0)
