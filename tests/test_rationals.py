"""Exact scalar and vector helpers."""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import vsub
from subgrad.errors import ParseError
from subgrad.rationals import (
    format_rational,
    format_vector,
    is_zero_vector,
    parse_rational,
    parse_vector,
    primitive,
    record_json,
    rref,
    vadd,
    vdot,
    vneg,
    vscale,
    vzero,
)

fractions = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6
)


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(5) == Fraction(5)
    assert parse_rational(Fraction(1, 3)) == Fraction(1, 3)


def test_parse_rational_rejects_garbage():
    # floats are refused too: silent binary rounding would break exactness
    for bad in ("", "one", "1/0", "1/2/3", None, 0.5, True):
        with pytest.raises(ParseError):
            parse_rational(bad)


@given(fractions)
@settings(max_examples=200)
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@given(st.lists(fractions, min_size=1, max_size=5))
def test_vector_round_trip(vals):
    v = parse_vector(vals)
    assert parse_vector(format_vector(v)) == v


def test_parse_vector_dim_check():
    with pytest.raises(ParseError):
        parse_vector(["1", "2"], 3)


@given(st.lists(fractions, min_size=1, max_size=4), st.data())
def test_vector_algebra(vals, data):
    v = tuple(vals)
    w = tuple(data.draw(st.lists(fractions, min_size=len(v), max_size=len(v))))
    assert vadd(v, vneg(v)) == vzero(len(v))
    assert vsub(v, w) == vadd(v, vneg(w))
    assert vdot(v, w) == vdot(w, v)
    c = data.draw(fractions)
    assert vdot(vscale(c, v), w) == c * vdot(v, w)


def test_record_json_encodes_each_report_value():
    class Written:
        def to_json(self):
            return {"written": True}

    @dataclass
    class Record:
        exact: Fraction
        vector: tuple
        floats: list
        nested: dict
        notes: tuple = ()

        @property
        def derived(self):
            return len(self.notes)

    record = Record(
        Fraction(-6, 4),
        (Fraction(3), Fraction(1, 3)),
        [0.5, math.inf, -math.inf, math.nan],
        {"set": Written(), "none": None, "flag": False},
        ("a",),
    )
    obj = record_json(record, "derived")
    assert list(obj) == ["exact", "vector", "floats", "nested", "notes", "derived"]
    assert json.dumps(obj) == (
        '{"exact": "-3/2", "vector": ["3", "1/3"], "floats": [0.5, "inf", "-inf", "nan"], '
        '"nested": {"set": {"written": true}, "none": null, "flag": false}, '
        '"notes": ["a"], "derived": 1}'
    )


def test_is_zero_vector():
    assert is_zero_vector((Fraction(0), Fraction(0)))
    assert not is_zero_vector((Fraction(0), Fraction(1, 7)))


def test_primitive_scales_to_coprime_integers():
    v = primitive((Fraction(2, 3), Fraction(-4, 3)))
    assert v == (Fraction(1), Fraction(-2))
    assert primitive((Fraction(0), Fraction(0))) == (Fraction(0), Fraction(0))


def test_rref_identifies_rank():
    rows = [
        (Fraction(1), Fraction(2)),
        (Fraction(2), Fraction(4)),
        (Fraction(0), Fraction(1)),
    ]
    basis = rref(rows)
    assert len(basis) == 2
