"""Exact scalar and vector helpers."""

import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import vsub
from subgrad.calculus import check_corollary11, check_intersection_formula
from subgrad.dinioracle import approx_regularity_probe, eps_subgradient_membership_probe, gap_continuity_probe
from subgrad.errors import NegativeEps, ParseError
from subgrad.funcmodel import (
    DCFunction,
    abs_function,
    dc_dini_subdifferential,
    dc_dini_subdifferential_definitional,
    f_eps_expand,
    linear_function,
)
from subgrad.optimality import ConstraintSystem, ProblemInstance, blunt_min_probe
from subgrad.polykernel import L1, Polyhedron, dual_norm_ball
from subgrad.rationals import (
    format_rational,
    format_vector,
    is_zero_vector,
    parse_radius,
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


def test_parse_rational_exponents():
    # an exponent up to the int-to-text digit limit parses; past it the literal
    # is refused before Fraction builds 10**exp
    limit = sys.get_int_max_str_digits()
    assert parse_rational("1e308") == 10**308
    assert parse_rational(" 1e400 ") == 10**400
    assert parse_rational("-1.5e-2") == Fraction(-3, 200)
    assert parse_rational("1E2") == 100
    assert parse_rational(f"1e{limit}") == 10**limit
    assert parse_rational(f"1e-{limit}") == Fraction(1, 10**limit)
    for bad in (f"1e{limit + 1}", f"1e-{limit + 1}", "1e100000000", "1e-100000000", "1e" + "9" * 5000, "1e", "1e+"):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="bad rational literal"):
            parse_rational(bad)
        assert time.perf_counter() - start < 0.5


radius_inputs = st.one_of(
    st.integers(-10**30, 10**30),
    fractions,
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-10**12, 10**12), st.integers(1, 10**12)),
    # exponent literals reach values no float can hold
    st.builds(lambda m, k: f"{m}e-{k}", st.integers(-10**6, 10**6), st.integers(0, 4000)),
)


@given(radius_inputs, st.booleans())
@settings(max_examples=300)
def test_parse_radius_decides_the_sign_on_the_exact_value(value, positive):
    want = parse_rational(value)
    if want > 0 or (want == 0 and not positive):
        got = parse_radius(value, "eps", positive)
        assert type(got) is Fraction and got == want
    else:
        rule = "positive" if positive else "nonnegative"
        with pytest.raises(NegativeEps) as info:
            parse_radius(value, "eps", positive)
        assert str(info.value) == f"eps must be {rule}, got {format_rational(want)}"


def _abs_dc():
    return DCFunction(abs_function(), linear_function(["0"]))


def _blunt_problem():
    # min |x| over C = [-1, 1], with k(x) = 0 x + 0 in -K
    c_set = Polyhedron.from_hrep([((Fraction(1),), Fraction(1)), ((Fraction(-1),), Fraction(1))], 1)
    return ProblemInstance(_abs_dc(), ConstraintSystem(c_set, [[0]], [0]))


# every entry point that takes a radius: (call with radius r, name, positive)
RADIUS_SITES = {
    "dual_norm_ball": (lambda r: dual_norm_ball(L1, r, 1), "radius", False),
    "eps_subdifferential_at": (lambda r: abs_function().eps_subdifferential_at([0], r), "eps", False),
    "f_eps_expand": (lambda r: f_eps_expand(abs_function(), [0], r), "eps", False),
    "dc_dini_subdifferential-eps": (lambda r: dc_dini_subdifferential(_abs_dc(), [0], r, 0), "eps", False),
    "dc_dini_subdifferential-eta": (lambda r: dc_dini_subdifferential(_abs_dc(), [0], 0, r), "eta", False),
    "dc_dini_subdifferential_definitional": (
        lambda r: dc_dini_subdifferential_definitional(_abs_dc(), [0], r), "eps", False),
    "check_intersection_formula-mu": (
        lambda r: check_intersection_formula(_abs_dc(), [0], 0, [0, r]), "mu", False),
    "check_corollary11-eta": (lambda r: check_corollary11(_abs_dc(), [0], [0, r]), "eta", False),
    "membership-eps": (lambda r: eps_subgradient_membership_probe(abs_function(), [0], [0], r, 1), "eps", False),
    "membership-alpha": (
        lambda r: eps_subgradient_membership_probe(abs_function(), [0], [0], 0, r), "alpha", True),
    "regularity": (lambda r: approx_regularity_probe(abs_function(), [0], r, "convex"), "eps", True),
    "gap": (lambda r: gap_continuity_probe(abs_function(), [0], r), "eps", True),
    "blunt": (lambda r: blunt_min_probe(_blunt_problem(), [0], r), "eps", True),
}


@pytest.mark.parametrize("site", list(RADIUS_SITES))
def test_every_radius_follows_one_rule(site):
    call, name, positive = RADIUS_SITES[site]
    # a negative mu or eta is a NegativeEps like any other radius
    # a term past the int-to-text digit limit is elided, so the error keeps its type
    for bad, shown in (("-1/3", "-1/3"), (-2, "-2"), ("-1e-400", f"-1/{10**400}"), ("-1e-4300", "-1/...")):
        with pytest.raises(NegativeEps) as info:
            call(bad)
        assert str(info.value) == f"{name} must be {'positive' if positive else 'nonnegative'}, got {shown}"
    if positive:
        with pytest.raises(NegativeEps, match=f"^{name} must be positive, got 0$"):
            call(0)
    else:
        call(0)


@pytest.mark.parametrize("site", ["membership-alpha", "regularity"])
def test_a_radius_below_float_range_is_positive(site):
    # 1e-400 rounds to the float 0.0, but the rule reads the exact value
    assert RADIUS_SITES[site][0]("1e-400").status == "Holds"


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


def test_a_value_too_long_to_print_is_named_by_type():
    # the message names the type, so an int past the int-to-text digit limit
    # inside a malformed value cannot turn the ParseError into a ValueError
    huge = 10**4300
    for call, shown in (
        (lambda: parse_vector([[huge]]), "not a rational: got list"),
        (lambda: parse_vector(huge), "not a vector: got int"),
        (lambda: Polyhedron.from_vrep([[[huge]]], dim=1), "not a rational: got list"),
    ):
        with pytest.raises(ParseError, match=f"^{shown}$"):
            call()


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
