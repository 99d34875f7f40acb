"""Cone-constrained certification: normal cones from two routes, the
qualification test, exact inclusion decisions, and descent witnesses that
replay by rational arithmetic."""

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from subgrad.dinioracle import SamplingPlan
from subgrad.errors import (
    InfeasiblePoint,
    NotACone,
    PointNotInteriorDomG,
    UnboundedC,
)
from subgrad.funcmodel import (
    AffinePiece,
    DCFunction,
    PAConvexFunction,
    abs_function,
    l1_norm_function,
    linear_function,
)
from subgrad.optimality import (
    ConstraintSystem,
    ProblemInstance,
    _in_generated_set,
    blunt_min_probe,
    certify_blunt_minimizer,
    check_inclusion_28,
    dual_cone_generators,
    feasible_set,
    nonneg_orthant,
    normal_cone_feasible,
    qualification_check,
)
from subgrad import polykernel
from subgrad.polykernel import Polyhedron, contains_point, contains_polyhedron, minkowski_sum
from subgrad.rationals import parse_rational, parse_vector

F = Fraction


def box2():
    return Polyhedron.from_hrep(
        [
            ((F(1), F(0)), F(1)),
            ((F(-1), F(0)), F(1)),
            ((F(0), F(1)), F(1)),
            ((F(0), F(-1)), F(1)),
        ],
        2,
    )


def halfplane_system():
    # x in [-1,1]^2 and -x1 <= 0, written as Mx + c in -K with K = R+
    return ConstraintSystem(box2(), [["-1", "0"]], ["0"])


def cone_problem(h_slope):
    dc = DCFunction(l1_norm_function(2), linear_function(h_slope))
    return ProblemInstance(dc, halfplane_system())


def test_feasible_set_is_pullback_intersection():
    a = feasible_set(halfplane_system())
    assert set(a.vertices) == {
        (F(0), F(-1)),
        (F(0), F(1)),
        (F(1), F(-1)),
        (F(1), F(1)),
    }


def test_cone_constructors():
    orth = nonneg_orthant(2)
    assert (F(1), F(0)) in orth.rays and (F(0), F(1)) in orth.rays


def test_constraint_system_rejects_non_cone():
    not_a_cone = Polyhedron.from_hrep([((F(1),), F(1)), ((F(-1),), F(0))], 1)
    with pytest.raises(NotACone):
        ConstraintSystem(box2(), [["1", "0"]], ["0"], cone=not_a_cone)


def test_dual_cone_generators_of_orthant():
    gens = dual_cone_generators(nonneg_orthant(2))
    assert set(gens) == {(F(1), F(0)), (F(0), F(1))}


def test_normal_cone_routes_agree_at_wall():
    cs = halfplane_system()
    direct, lagrange, agree = normal_cone_feasible(cs, (F(0), F(0)))
    assert agree
    assert direct.rays == ((F(-1), F(0)),)
    assert lagrange == direct


def test_normal_cone_trivial_in_interior():
    cs = halfplane_system()
    direct, _, agree = normal_cone_feasible(cs, (F(1, 2), F(0)))
    assert agree
    assert direct.rays == () and direct.vertices == ((F(0), F(0)),)


def test_qualification_trio():
    holds, cone = qualification_check(halfplane_system())
    assert holds == "Holds"
    assert cone.rays != () or cone.vertices != ((F(0), F(0)),)

    # image [0,1] plus R+ generates only a half-line, not a subspace
    nonneg_box = Polyhedron.from_hrep(
        [
            ((F(1), F(0)), F(1)),
            ((F(-1), F(0)), F(0)),
            ((F(0), F(1)), F(1)),
            ((F(0), F(-1)), F(0)),
        ],
        2,
    )
    fails, _ = qualification_check(ConstraintSystem(nonneg_box, [["1", "0"]], ["0"]))
    assert fails == "Fails"

    unbounded = Polyhedron.from_hrep([((F(-1), F(0)), F(0))], 2)
    with pytest.raises(UnboundedC):
        qualification_check(ConstraintSystem(unbounded, [["1", "0"]], ["0"]))


def inclusion28_sets(p, x):
    """The three sets of inclusion (28) at x: dh, dg and N(A, x)."""
    dc = p.objective
    na, _, _ = normal_cone_feasible(p.constraints, x)
    return dc.h.subdifferential_at(x), dc.g.subdifferential_at(x), na


def test_inclusion28_positive_and_negative():
    status, w = check_inclusion_28(*inclusion28_sets(cone_problem(["1", "0"]), (F(0), F(0))))
    assert status == "Holds" and w is None
    status, w = check_inclusion_28(*inclusion28_sets(cone_problem(["3", "0"]), (F(0), F(0))))
    assert status == "Fails"
    assert w == (F(3), F(0))


def test_inclusion28_ray_witness():
    # dh = {0} + cone{(0, 1)}: its ray leaves cone(dg.rays + na.rays) = cone{(-1, 0)}
    _, dg, na = inclusion28_sets(cone_problem(["0", "0"]), (F(0), F(0)))
    origin = (F(0), F(0))
    dh = Polyhedron.from_vrep([origin], rays=[(F(0), F(1))], dim=2)
    assert check_inclusion_28(dh, dg, na) == ("Fails", (F(0), F(1)))
    dh = Polyhedron.from_vrep([origin], rays=[(F(-2), F(0))], dim=2)
    assert check_inclusion_28(dh, dg, na) == ("Holds", None)
    zero = Polyhedron.from_vrep([origin], dim=2)
    dh = Polyhedron.from_vrep([origin], rays=[(F(1), F(-1))], dim=2)
    assert check_inclusion_28(dh, zero, zero) == ("Fails", (F(1), F(-1)))


def inclusion28_cases():
    x = (F(0), F(0))
    for slope in (["1", "0"], ["3", "0"], ["-3", "0"], ["0", "1"], ["1", "1"],
                  ["0", "-2"], ["-1", "-1"], ["5", "-1"]):
        yield inclusion28_sets(cone_problem(slope), x)
    _, dg, na = inclusion28_sets(cone_problem(["0", "0"]), x)
    for ray in ((F(0), F(1)), (F(-2), F(0)), (F(1), F(0))):
        yield Polyhedron.from_vrep([x], rays=[ray], dim=2), dg, na
    yield Polyhedron.whole_space(2), dg, na
    # dg = na = {0}: the right side generates nothing, so no ray of dh is in it
    zero = Polyhedron.from_vrep([x], dim=2)
    yield Polyhedron.from_vrep([x], rays=[(F(1), F(-1))], dim=2), zero, zero


@pytest.mark.parametrize("dh,dg,na", list(inclusion28_cases()))
def test_inclusion28_matches_containment(dh, dg, na):
    status, w = check_inclusion_28(dh, dg, na)
    assert (status == "Holds") == contains_polyhedron(minkowski_sum(dg, na), dh)[0]
    assert (w is None) == (status == "Holds")


@st.composite
def generated_set_queries(draw):
    """Homogeneous int gens of conv(points) + cone(rays), possibly none or
    rays only, and a query: a point (y..., s), a direction (r..., 0) or
    zero."""
    dim = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-3, 3)] * dim)
    points = draw(st.lists(st.tuples(vec, st.integers(1, 3)), max_size=4))
    rays = draw(st.lists(vec, max_size=3))
    query = draw(st.one_of(
        st.tuples(vec, st.integers(1, 3)).map(lambda q: q[0] + (q[1],)),
        vec.map(lambda r: r + (0,)),
        st.just((0,) * (dim + 1)),
    ))
    return dim, points, rays, query


@given(generated_set_queries())
@settings(max_examples=200, deadline=None)
def test_in_generated_set_matches_containment(case):
    dim, points, rays, query = case
    gens = [v + (t,) for v, t in points] + [r + (0,) for r in rays]
    y, s = query[:-1], query[-1]
    if s:
        # y / s in conv(points) + cone(rays); no point means an empty set
        if points:
            hull = Polyhedron.from_vrep([tuple(F(a, t) for a in v) for v, t in points], rays, dim=dim)
            want = contains_polyhedron(hull, Polyhedron.from_vrep([tuple(F(a, s) for a in y)], dim=dim))[0]
        else:
            want = False
    else:
        # y in cone(rays)
        cone = Polyhedron.from_vrep([(0,) * dim], rays, dim=dim)
        want = contains_polyhedron(cone, Polyhedron.from_vrep([y], dim=dim))[0]
    assert _in_generated_set(gens, query) == want


def test_certify_positive():
    cert = certify_blunt_minimizer(cone_problem(["1", "0"]), (F(0), F(0)))
    assert cert.verdict == "BluntMinimizerAllEps"
    assert cert.qualification == "Holds"
    assert cert.routes_agree
    assert cert.lagrange_validated
    assert cert.descent is None
    assert cert.theorem_certified
    assert all(e["status"] == "holds" for e in cert.hypothesis_report)


def test_certify_negative_with_replayable_descent():
    p = cone_problem(["3", "0"])
    cert = certify_blunt_minimizer(p, (F(0), F(0)))
    assert cert.verdict == "NotBluntMinimizer"
    assert cert.inclusion28 == "Fails"
    assert cert.inclusion_witness == (F(3), F(0))
    d = cert.descent
    assert d is not None
    assert d["direction"] == (F(1), F(0))
    assert d["rate"] == F(-2)
    assert d["violation_margin"] == F(2)
    # the witness replays: feasible step with exactly linear decrease
    y = tuple(a + d["step"] * b for a, b in zip((F(0), F(0)), d["direction"]))
    assert contains_point(feasible_set(p.constraints), y)
    assert d["f_step"] - d["f_base"] == d["step"] * d["rate"]
    assert p.objective.evaluate(y) == d["f_step"]


def test_certify_canonicalizes_under_one_memo(canonical_memos):
    problem = cone_problem(["3", "0"])
    canonical_memos.clear()
    certify_blunt_minimizer(problem, (F(0), F(0)))
    assert certify_blunt_minimizer.__name__ == "certify_blunt_minimizer"
    assert canonical_memos and canonical_memos[0] is not None
    assert all(m is canonical_memos[0] for m in canonical_memos)
    assert polykernel._MEMO.get() is None


def test_certify_rejects_bad_points():
    p = cone_problem(["1", "0"])
    with pytest.raises(InfeasiblePoint):
        certify_blunt_minimizer(p, (F(-1, 2), F(0)))
    dom = Polyhedron.from_hrep([((F(1), F(0)), F(0)), ((F(-1), F(0)), F(1)),
                                ((F(0), F(1)), F(1)), ((F(0), F(-1)), F(1))], 2)
    g = PAConvexFunction(
        [AffinePiece.make(["1", "0"], "0"), AffinePiece.make(["-1", "0"], "0")],
        domain=dom,
    )
    dc = DCFunction(g, linear_function(["0", "0"]))
    p2 = ProblemInstance(dc, halfplane_system())
    with pytest.raises(PointNotInteriorDomG):
        certify_blunt_minimizer(p2, (F(0), F(0)))


def test_unvalidated_lagrange_when_qualification_fails():
    nonneg_box = Polyhedron.from_hrep(
        [
            ((F(1), F(0)), F(1)),
            ((F(-1), F(0)), F(0)),
            ((F(0), F(1)), F(1)),
            ((F(0), F(-1)), F(0)),
        ],
        2,
    )
    cs = ConstraintSystem(nonneg_box, [["1", "0"]], ["0"])
    dc = DCFunction(l1_norm_function(2), linear_function(["1", "0"]))
    cert = certify_blunt_minimizer(ProblemInstance(dc, cs), (F(0), F(0)))
    assert cert.qualification == "Fails"
    assert not cert.lagrange_validated
    assert cert.verdict in ("BluntMinimizerAllEps", "NotBluntMinimizer")
    assert any("restricted-function route" in n for n in cert.notes)


def test_unbounded_c_skips_the_qualification():
    # C = {x >= -1}, f = |x| - 0 and k(x) = 0 x + 0 in -K: 0 is a minimizer,
    # and the qualification is not evaluated on an unbounded C
    c_set = Polyhedron.from_hrep([((F(-1),), F(1))], 1)
    cs = ConstraintSystem(c_set, [[0]], [0])
    dc = DCFunction(abs_function(), linear_function(["0"]))
    cert = certify_blunt_minimizer(ProblemInstance(dc, cs), (F(0),))
    assert cert.verdict == "BluntMinimizerAllEps"
    assert cert.qualification == "Fails"
    assert cert.qualification_cone is None
    assert not cert.lagrange_validated
    assert "C unbounded: qualification not evaluated" in cert.notes
    assert any("restricted-function route" in n for n in cert.notes)


def test_probe_agrees_with_certificate():
    neg = cone_problem(["3", "0"])
    for eps in (F(1, 4), F(1, 2), F(1)):
        rep = blunt_min_probe(neg, (F(0), F(0)), eps)
        assert rep.status == "FailsWithWitness", eps
        w = rep.witness
        # replay: a feasible point with value drop beating the eps ball
        x_exact = parse_vector(w["x_exact"], 2)
        assert contains_point(feasible_set(neg.constraints), x_exact)
        assert parse_rational(w["margin"]) < 0
        dist = sum(abs(v) for v in x_exact)
        assert neg.objective.evaluate(x_exact) - neg.objective.evaluate(
            (F(0), F(0))
        ) + eps * dist == parse_rational(w["margin"])
    pos = cone_problem(["1", "0"])
    rep = blunt_min_probe(pos, (F(0), F(0)), F(1, 2))
    assert rep.status == "Holds"


@pytest.mark.parametrize("h,status", [(linear_function(["0"]), "FailsWithWitness"), (abs_function(), "Holds")],
                         ids=["zero", "abs"])
def test_blunt_probe_past_float_range_does_not_warn(h, status):
    # |x| - h on x >= 0 at 1e308: the samples past float range are dropped,
    # whether h meets 0·inf (h = 0) or g - h meets inf - inf (h = |x|)
    cs = ConstraintSystem(Polyhedron.from_hrep([((F(-1),), F(0))], 1), [["-1"]], ["0"])
    p = ProblemInstance(DCFunction(abs_function(), h), cs)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = blunt_min_probe(p, ("1e308",), F(1, 10), SamplingPlan(shell_radii=(1e308,)))
    assert rep.status == status


def test_certificate_json_round_trip():
    cert = certify_blunt_minimizer(cone_problem(["3", "0"]), (F(0), F(0)))
    obj = cert.to_json()
    assert obj["verdict"] == "NotBluntMinimizer"
    assert obj["descent"]["rate"] == "-2"
    json.dumps(obj, sort_keys=True)

    p = cone_problem(["1", "0"])
    p2 = ProblemInstance.from_json(p.to_json())
    assert feasible_set(p2.constraints) == feasible_set(p.constraints)
    assert p2.objective.evaluate((F(1, 3), F(1, 7))) == p.objective.evaluate(
        (F(1, 3), F(1, 7))
    )


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_random_bounded_problems_routes_agree(seed):
    """Whenever the qualification holds on a random bounded instance, the
    direct and Lagrange normal cones must coincide at a random vertex."""
    rng = np.random.default_rng(seed)
    c_set = oracles.rand_polytope(rng, 2, max_verts=6, span=4)
    m_row = [str(oracles.rand_fraction(rng, span=2)) for _ in range(2)]
    if all(v == "0" for v in m_row):
        m_row[0] = "1"
    cs = ConstraintSystem(c_set, [m_row], [str(oracles.rand_fraction(rng, span=2))])
    a = feasible_set(cs)
    if a.is_empty:
        return
    try:
        status, _ = qualification_check(cs)
    except UnboundedC:
        return
    if status != "Holds":
        return
    verts = a.canonical().vertices
    x = verts[int(rng.integers(len(verts)))]
    direct, lagrange, agree = normal_cone_feasible(cs, x)
    assert agree
    assert direct == lagrange
