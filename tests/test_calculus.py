"""Certificates for the exact calculus claims.

Each check computes its two sides on unrelated code paths, so these tests
focus on worked values, verdict semantics, witnesses that replay, and the
hypothesis bookkeeping.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from subgrad.calculus import (
    CLAIM_IDS,
    check_corollary11,
    check_corollary12,
    check_difference_formula,
    check_inclusion_13,
    check_intersection_formula,
    check_sum_rule,
    local_min_necessary,
)
from subgrad.errors import NegativeEps, ParseError
from subgrad.funcmodel import (
    AffinePiece,
    DCFunction,
    PAConvexFunction,
    abs_function,
    linear_function,
)
from subgrad import calculus, polykernel
from subgrad.polykernel import Polyhedron, contains_point, memo_scope

F = Fraction

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def interval(lo, hi):
    return Polyhedron.from_hrep([((F(1),), F(hi)), ((F(-1),), F(-lo))], 1)


def abs_minus_x():
    return DCFunction(abs_function(), linear_function(["1"]))


def restricted_abs_dc():
    dom = interval(0, 1)
    g = PAConvexFunction(
        [AffinePiece.make(["1"], "0"), AffinePiece.make(["-1"], "0")], domain=dom
    )
    return DCFunction(g, linear_function(["1/2"]))


def test_claim_ids_frozen():
    assert CLAIM_IDS == (
        "SumRule12",
        "Inclusion13",
        "Equality22",
        "Equality26",
        "Intersection27",
        "Cor11",
        "Cor12a",
        "Cor12b",
        "LocalMinNecessary",
    )


def test_sum_rule_exact():
    f = abs_function()
    g = PAConvexFunction(
        [AffinePiece.make(["3"], "0"), AffinePiece.make(["-1"], "0")]
    )
    cert = check_sum_rule(f, g, (F(0),), F(1, 2), F(1, 2))
    assert cert.claim_id == "SumRule12"
    assert cert.verdict == "Equal"
    assert cert.theorem_certified


@pytest.mark.parametrize("eps, eta, name", [(-1, 0, "eps"), (0, -1, "eta")])
def test_sum_rule_names_the_negative_radius(eps, eta, name):
    with pytest.raises(NegativeEps) as info:
        check_sum_rule(abs_function(), abs_function(), [0], eps, eta)
    assert str(info.value) == f"{name} must be nonnegative, got -1"


def test_difference_formula_worked_example():
    cert = check_difference_formula(abs_minus_x(), (F(0),))
    assert cert.claim_id == "Equality22"
    assert cert.verdict == "Equal"
    assert cert.lhs == interval(-2, 0)
    assert cert.rhs == interval(-2, 0)
    assert cert.theorem_certified


def test_difference_formula_two_parameter_claim():
    cert = check_difference_formula(abs_minus_x(), (F(0),), F(1, 2), F(1, 2))
    assert cert.claim_id == "Equality26"
    assert cert.verdict == "Equal"
    assert cert.lhs == interval(F(-5, 2), F(1, 2))


@given(st.integers(min_value=1, max_value=2), seeds)
@settings(max_examples=30, deadline=None)
def test_difference_formula_equal_on_random_interior_instances(dim, seed):
    rng = np.random.default_rng(seed)
    dc = oracles.rand_dc(rng, dim)
    x = oracles.rand_vector(rng, dim)
    for eps, eta in ((F(0), F(0)), (F(1, 2), F(1))):
        cert = check_difference_formula(dc, x, eps, eta)
        assert cert.verdict == "Equal", f"{cert.verdict} at eps={eps} eta={eta}"


def test_inclusion_holds_at_boundary_points():
    dc = restricted_abs_dc()
    cert = check_inclusion_13(dc, (F(0),))
    assert cert.claim_id == "Inclusion13"
    assert cert.verdict in ("Equal", "StrictInclusion")
    assert cert.passed
    # the interiority hypothesis is reported as failing at the boundary
    by_name = {e["hypothesis"]: e["status"] for e in cert.hypothesis_report}
    assert by_name["point interior to dom g"] == "fails"
    assert not cert.theorem_certified


def test_difference_routes_when_subdiff_h_has_a_ray():
    # g = |x| on [0, 1] and h = x on [0, 2]: at 0, subdiff(h) = {1} + (-inf, 0],
    # whose ray recedes in the target, as dom g is inside dom h
    dc = DCFunction(
        PAConvexFunction(abs_function().pieces, domain=interval(0, 1)),
        PAConvexFunction(linear_function(["1"]).pieces, domain=interval(0, 2)),
    )
    x = (F(0),)
    assert dc.h.subdifferential_at(x).rays == ((F(-1),),)
    eq22 = check_difference_formula(dc, x)
    assert (eq22.claim_id, eq22.verdict) == ("Equality22", "Equal")
    assert eq22.lhs == Polyhedron.from_hrep([((F(1),), F(0))], 1)
    eq26 = check_difference_formula(dc, x, F(1, 2), F(1, 2))
    assert (eq26.claim_id, eq26.verdict) == ("Equality26", "Equal")
    assert eq26.lhs == Polyhedron.from_hrep([((F(1),), F(1, 2))], 1)
    inc13 = check_inclusion_13(dc, x)
    assert inc13.verdict == "Equal"
    # 0 is a boundary point of dom g
    assert not any(c.theorem_certified for c in (eq22, eq26, inc13))


def test_intersection_formula_grid():
    cert = check_intersection_formula(
        abs_minus_x(), (F(0),), F(1, 2), mu_list=(F(0), F(1, 2), F(1))
    )
    assert cert.claim_id == "Intersection27"
    assert cert.verdict == "Equal"
    assert any("mu" in n for n in cert.notes), "grid must be recorded"
    with pytest.raises(ParseError):
        check_intersection_formula(abs_minus_x(), (F(0),), F(0), mu_list=())


def test_corollary11_statements_agree():
    dc = DCFunction(abs_function(), abs_function())
    cert = check_corollary11(dc, (F(0),))
    assert cert.claim_id == "Cor11"
    assert cert.verdict == "Equal"
    with pytest.raises(ParseError):
        check_corollary11(dc, (F(0),), eta_list=(F(1, 2),))  # must include 0


def test_corollary12_variants_coincide():
    a = check_corollary12(abs_minus_x(), (F(0),), F(1, 2), variant="a")
    b = check_corollary12(abs_minus_x(), (F(0),), F(1, 2), variant="b")
    assert a.claim_id == "Cor12a" and b.claim_id == "Cor12b"
    assert a.verdict == b.verdict == "Equal"
    assert a.lhs == b.lhs and a.rhs == b.rhs
    with pytest.raises(ParseError):
        check_corollary12(abs_minus_x(), (F(0),), variant="c")


def test_local_min_necessary_pass_and_fail():
    ok = local_min_necessary(DCFunction(abs_function(), abs_function()), (F(0),))
    assert ok.verdict == "Equal"
    assert ok.passed
    # h = 3x: subdifferential {3} escapes [-1, 1], so 0 is not a local min
    bad = local_min_necessary(
        DCFunction(abs_function(), linear_function(["3"])), (F(0),)
    )
    assert bad.verdict == "Fails"
    assert not bad.passed
    assert bad.witness is not None
    # witness replays: in the h side, outside the g side
    assert contains_point(bad.lhs, bad.witness)
    assert not contains_point(bad.rhs, bad.witness)


@pytest.mark.parametrize("check", [local_min_necessary, check_corollary11])
def test_strict_inclusion_verdict_and_witness(check):
    # |x| - x/2 at 0: the h side {1/2} is a proper subset of the g side [-1, 1]
    dc = DCFunction(abs_function(), linear_function(["1/2"]))
    cert = check(dc, (F(0),))
    assert cert.verdict == "StrictInclusion"
    assert cert.passed
    assert cert.witness == (F(-1),)
    assert contains_point(cert.rhs, cert.witness)
    assert not contains_point(cert.lhs, cert.witness)


def test_witness_replay_on_failure():
    # an inclusion that genuinely fails: definitional side of x - |x| at 0
    # is empty, never bigger, so build the failure from local_min instead
    dc = DCFunction(abs_function(), linear_function(["2"]))
    cert = local_min_necessary(dc, (F(0),))
    assert cert.verdict == "Fails"
    w = cert.witness
    assert contains_point(cert.lhs, w) and not contains_point(cert.rhs, w)


def test_certificate_json_is_serializable():
    import json

    cert = check_difference_formula(abs_minus_x(), (F(0),))
    obj = cert.to_json()
    assert obj["claim_id"] == "Equality22"
    assert obj["verdict"] == "Equal"
    assert obj["theorem_certified"] is True
    json.dumps(obj, sort_keys=True)


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_random_instances_cover_all_grid_claims(seed):
    """One random instance pushed through every claim checker at once; the
    exact calculus must never produce Fails on convex data at interior
    points."""
    rng = np.random.default_rng(seed)
    dc = oracles.rand_dc(rng, 1, max_pieces=3)
    x = oracles.rand_vector(rng, 1, span=2)
    certs = [
        check_difference_formula(dc, x),
        check_inclusion_13(dc, x, F(1, 2), F(1, 2)),
        check_intersection_formula(dc, x, F(1, 2), (F(0), F(1))),
        check_corollary12(dc, x, F(1, 2)),
    ]
    for cert in certs:
        assert cert.passed, f"{cert.claim_id} failed: {cert.verdict}"
    # Cor11's verdict reports whether the point is a minimizer candidate, so
    # Fails is a legitimate outcome at a random point; the equivalence of the
    # three statements is enforced internally and would raise if broken.
    c11 = check_corollary11(dc, x)
    assert c11.verdict in ("Equal", "StrictInclusion", "Fails")
    assert any("statements agree" in n for n in c11.notes)


CHECK_ARGS = {
    "check_sum_rule": lambda: (abs_function(), linear_function(["1"]), (F(0),), F(1, 2), F(1, 2)),
    "check_difference_formula": lambda: (abs_minus_x(), (F(0),), F(1, 2), F(1, 2)),
    "check_inclusion_13": lambda: (restricted_abs_dc(), (F(0),)),
    "check_intersection_formula": lambda: (abs_minus_x(), (F(0),), F(1, 2), (F(0), F(1))),
    "check_corollary11": lambda: (DCFunction(abs_function(), abs_function()), (F(0),)),
    "check_corollary12": lambda: (abs_minus_x(), (F(0),), F(1, 2)),
    "local_min_necessary": lambda: (abs_minus_x(), (F(0),)),
}


@pytest.mark.parametrize("name", CHECK_ARGS)
def test_each_check_canonicalizes_under_one_memo(canonical_memos, name):
    check, args = getattr(calculus, name), CHECK_ARGS[name]()
    canonical_memos.clear()
    check(*args)
    assert check.__name__ == name
    assert canonical_memos and canonical_memos[0] is not None
    assert all(m is canonical_memos[0] for m in canonical_memos)
    assert polykernel._MEMO.get() is None


def test_nested_checks_share_the_outer_memo():
    def dd_runs():
        args = CHECK_ARGS["check_difference_formula"]()
        with mock.patch.object(polykernel, "_cone_generators", wraps=polykernel._cone_generators) as dd:
            check_difference_formula(*args)
        return dd.call_count

    alone = dd_runs(), dd_runs()
    assert alone[0] == alone[1] > 0, "each outermost call starts a fresh memo"

    @memo_scope
    def both():
        return dd_runs(), dd_runs()

    first, second = both()
    assert first > 0 and second == 0
