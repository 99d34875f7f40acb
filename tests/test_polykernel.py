"""Exact polyhedron kernel: representations, operations, cones, norms.

Heavier randomized cross-checks live in test_acceptance; these are targeted
unit and property tests with independent brute-force comparisons.
"""

import itertools
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from subgrad.errors import (
    CapExceeded,
    DimensionMismatch,
    EmptySetError,
    NotACone,
    ParseError,
    PointNotInSet,
    UnsupportedNorm,
)
from subgrad import cli, polykernel, simplex
from subgrad.rationals import primitive, primitive_ints, rref
from subgrad.polykernel import (
    CAPS,
    Halfspace,
    L1,
    LINF,
    NormSpec,
    Polyhedron,
    affine_image,
    cone_is_linear_subspace,
    conic_hull,
    contains_point,
    contains_polyhedron,
    dual_norm_ball,
    gap,
    intersect,
    intersect_many,
    memo_scope,
    minkowski_sum,
    norm_unit_ball,
    normal_cone_at,
    star_difference,
    strictly_contains_point,
    support_function,
    tangent_cone_at,
    translate,
)

F = Fraction
CORPUS = Path(__file__).resolve().parent.parent / "scenarios" / "corpus"


def frac(p, q=1):
    return Fraction(p, q)


def box2(r=1):
    return Polyhedron.from_hrep(
        [
            ((frac(1), frac(0)), frac(r)),
            ((frac(-1), frac(0)), frac(r)),
            ((frac(0), frac(1)), frac(r)),
            ((frac(0), frac(-1)), frac(r)),
        ],
        2,
    )


small_dims = st.integers(min_value=1, max_value=3)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


@given(small_dims, seeds)
@settings(max_examples=40, deadline=None)
def test_double_description_round_trip(dim, seed):
    rng = np.random.default_rng(seed)
    p = oracles.rand_polytope(rng, dim)
    q = Polyhedron.from_hrep([(h.normal, h.offset) for h in p.hrep], dim)
    assert p == q, "H-rep of the V-polytope does not regenerate it"


@given(small_dims, seeds)
@settings(max_examples=40, deadline=None)
def test_vertices_satisfy_all_facets(dim, seed):
    rng = np.random.default_rng(seed)
    p = oracles.rand_polytope(rng, dim)
    for v in p.vertices:
        assert oracles.point_in_hrep(v, p.hrep)


def test_canonical_hrep_is_irredundant():
    p = box2()
    # dropping any single facet strictly enlarges the set
    for skip in range(len(p.hrep)):
        rows = [
            (h.normal, h.offset) for i, h in enumerate(p.hrep) if i != skip
        ]
        bigger = Polyhedron.from_hrep(rows, 2)
        ok, _ = contains_polyhedron(p, bigger)
        assert not ok, f"facet {skip} was redundant"


@pytest.mark.parametrize(
    "raw, dim",
    [
        ({"vrep": ([(0, 0), (1, 0), (0, 1)], [])}, 2),
        ({"vrep": ([(0, 0, 0), (1, 2, 0)], [(1, 0, 1), (0, 1, 0), (0, -1, 0)])}, 3),
        ({"hrep": [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)]}, 2),
        ({"hrep": [((1, 1, 0), 1), ((-1, -1, 0), -1), ((1, 0, 0), 2), ((0, 0, 1), 0), ((0, 0, 1), 3)]}, 3),
    ],
    ids=["triangle", "ray_and_line", "box", "implicit_equality"],
)
def test_canonicalization_runs_dd_once(monkeypatch, raw, dim):
    runs = []
    original = polykernel._cone_generators

    def counted(ineqs, d):
        runs.append(d)
        return original(ineqs, d)

    monkeypatch.setattr(polykernel, "_cone_generators", counted)
    if "hrep" in raw:
        p = Polyhedron.from_hrep(raw["hrep"], dim)
    else:
        p = Polyhedron.from_vrep(*raw["vrep"], dim=dim)
    p.canonical()
    assert not p.is_empty
    assert len(runs) == 1, "one DD run; its zero sets prune the input side"
    monkeypatch.undo()
    assert p.to_json() == oracles.canonical_reference(dim, **raw)


small_entries = st.integers(min_value=-3, max_value=3)


@st.composite
def small_vreps(draw):
    dim = draw(small_dims)
    vec = st.tuples(*[small_entries] * dim)
    vertices = draw(st.lists(vec, min_size=1, max_size=5))
    rays = draw(st.lists(vec, max_size=2))
    for line in draw(st.lists(vec, max_size=1)):
        rays += [line, tuple(-x for x in line)]
    return vertices, rays, dim


@given(small_vreps())
@settings(max_examples=150, deadline=None)
def test_vrep_facets_are_the_canonical_facets(vrep):
    vertices, rays, dim = vrep
    p = Polyhedron.from_vrep(vertices, rays, dim=dim)
    points = [primitive_ints(v + (1,)) for v in p.vertices]
    rows, kept_points, kept_rays = polykernel._vrep_to_hrep(points, [primitive_ints(r) for r in p.rays], dim)
    assert p.hrep == tuple(Halfspace(z[:-1], z[-1]) for z in rows)
    assert sorted(set(kept_points)) == sorted(p._points) and sorted(set(kept_rays)) == list(p._rays)
    assert Polyhedron.from_hrep(p.hrep, dim).to_json() == p.to_json()


small_rationals = st.one_of(
    small_entries,
    st.builds(Fraction, small_entries, st.integers(min_value=1, max_value=3)),
)


@st.composite
def cone_systems(draw):
    """Rows for the DD kernel, with zero rows, duplicates, scaled copies and
    negated copies (implicit equalities, so cones that are not full-dimensional)."""
    dim = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.tuples(*[small_rationals] * dim), max_size=7))
    for kind in draw(st.lists(st.sampled_from(["zero", "dup", "scaled", "opposite"]), max_size=3)):
        if kind == "zero":
            row = (F(0),) * dim
        elif not rows:
            continue
        else:
            row = rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]
            if kind == "scaled":
                c = draw(st.sampled_from([F(1, 2), F(2), F(3), F(2, 3)]))
                row = tuple(c * x for x in row)
            elif kind == "opposite":
                row = tuple(-x for x in row)
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), row)
    return [tuple(F(x) for x in r) for r in rows], dim


@given(cone_systems())
@settings(max_examples=300, deadline=None)
def test_cone_generators_match_reference(system):
    rows, dim = system
    ineqs = [primitive_ints(r) for r in rows]
    lines, rays, masks = polykernel._cone_generators(ineqs, dim)
    ref_lines, ref_rays = oracles.cone_generators_reference(rows, dim)
    assert all(primitive(r) == r for r in rays), "rays must be primitive ints"
    assert sorted(rays) == sorted(ref_rays)
    assert rref(lines) == rref(ref_lines)
    for r, mask in zip(rays, masks, strict=True):
        for i, a in enumerate(ineqs):
            if any(a):
                assert (mask >> i & 1) == (oracles.dot(a, r) == 0), "a zero set is the rows tight on its ray"


@st.composite
def line_sets(draw):
    """Int rows with zero rows, duplicates, scaled copies and sums of rows."""
    dim = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.tuples(*[st.integers(min_value=-4, max_value=4)] * dim), max_size=5))
    for kind in draw(st.lists(st.sampled_from(["zero", "dup", "scaled", "sum"]), max_size=4)):
        if kind == "zero":
            row = (0,) * dim
        elif not rows:
            continue
        else:
            pick = st.integers(min_value=0, max_value=len(rows) - 1)
            row = rows[draw(pick)]
            if kind == "scaled":
                c = draw(st.sampled_from([-3, -1, 2, 5]))
                row = tuple(c * x for x in row)
            elif kind == "sum":
                c = draw(st.sampled_from([-2, -1, 1, 3]))
                row = tuple(x + c * y for x, y in zip(row, rows[draw(pick)]))
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), row)
    return rows


@given(line_sets())
@settings(max_examples=300, deadline=None)
def test_echelon_is_primitive_rref(rows):
    assert polykernel._echelon(rows) == [primitive_ints(r) for r in rref(rows)]


@st.composite
def raw_polyhedra(draw, dim):
    """An H-rep with redundant, duplicate, positively scaled, sometimes
    contradicting and ``0·x <= c`` rows, or a V-rep with repeated and interior
    points, rays, lines, points shifted along a line, rays parallel to a line,
    and sometimes everything in the hyperplane ``x_last = x_1`` (no points: the
    empty set); entries p/q with q <= 3."""
    vec = st.tuples(*[small_rationals] * dim)
    if draw(st.booleans()):
        rows = draw(st.lists(st.tuples(vec, small_rationals), max_size=5))
        for kind in draw(st.lists(st.sampled_from(["dup", "scaled", "relaxed", "opposite", "zero"]), max_size=3)):
            if kind == "zero":
                n, c = (0,) * dim, draw(st.sampled_from([0, 1, -1]))
            elif not rows:
                break
            else:
                n, c = rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]
            if kind == "scaled":
                k = draw(st.sampled_from([F(1, 2), F(2), F(3), F(2, 3)]))
                n, c = tuple(k * x for x in n), k * c
            elif kind == "relaxed":
                c = c + 1
            elif kind == "opposite":
                n, c = tuple(-x for x in n), -c - draw(st.sampled_from([0, 1]))
            rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), (n, F(c)))
        rows = [(tuple(F(x) for x in n), F(c)) for n, c in rows]
        return Polyhedron.from_hrep(rows, dim), {"hrep": rows}
    points = draw(st.lists(vec, max_size=4))
    if points:
        points.append(points[0])
        points.append(tuple(F(x + y, 2) for x, y in zip(points[0], points[-2])))
    rays = draw(st.lists(vec, max_size=2))
    for line in draw(st.lists(vec, max_size=1)):
        rays += [line, tuple(-x for x in line)]
        for kind in draw(st.lists(st.sampled_from(["shifted", "parallel"]), max_size=2)):
            k = draw(st.sampled_from([F(-2), F(1, 2), F(3)]))
            if kind == "parallel":
                rays.append(tuple(k * x for x in line))
            elif points:
                points.append(tuple(x + k * y for x, y in zip(points[0], line)))
    if dim > 1 and draw(st.booleans()):
        points = [v[:-1] + (v[0],) for v in points]
        rays = [r[:-1] + (r[0],) for r in rays]
    points = [tuple(F(x) for x in v) for v in points]
    rays = [tuple(F(x) for x in r) for r in rays]
    return Polyhedron.from_vrep(points, rays, dim=dim), {"vrep": (points, rays)}


@st.composite
def polyhedron_pairs(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    (p, p_raw), (q, q_raw) = draw(raw_polyhedra(dim)), draw(raw_polyhedra(dim))
    if draw(st.booleans()):
        q, q_raw = intersect(p, q), None  # q inside p
    direction = draw(st.tuples(*[small_rationals] * dim))
    return dim, p, p_raw, q, q_raw, direction


@given(polyhedron_pairs())
@settings(max_examples=200, deadline=None)
def test_canonical_polyhedra_match_fraction_reference(case):
    dim, p, p_raw, q, q_raw, d = case
    assert p.to_json() == oracles.canonical_reference(dim, **p_raw)
    if q_raw is not None:
        assert q.to_json() == oracles.canonical_reference(dim, **q_raw)

    if p.is_empty:
        with pytest.raises(EmptySetError):
            support_function(p, d)
    elif any(oracles.dot(d, r) > 0 for r in p.rays):
        assert support_function(p, d) == math.inf
    else:
        assert support_function(p, d) == max(oracles.dot(d, v) for v in p.vertices)

    ok, witness = contains_polyhedron(p, q)
    violators = [v for v in q.vertices if not oracles.point_in_hrep(v, p.hrep)]
    leaving = [r for r in q.rays if any(oracles.dot(h.normal, r) > 0 for h in p.hrep)]
    if q.is_empty:
        assert (ok, witness) == (True, None)
    elif p.is_empty:
        assert (ok, witness) == (False, q.vertices[0])
    else:
        assert ok == (not violators and not leaving)
        if violators:
            assert witness == violators[0]
        elif leaving:
            assert oracles.point_in_hrep(witness, q.hrep)
            assert not oracles.point_in_hrep(witness, p.hrep)
        else:
            assert witness is None


@st.composite
def operation_cases(draw):
    """Two raw polyhedra, a point (random, a vertex of the first, or the
    midpoint of two of its vertices) and an affine map into dimension 1..3."""
    dim = draw(st.integers(min_value=1, max_value=3))
    (p, p_raw), (q, q_raw) = draw(raw_polyhedra(dim)), draw(raw_polyhedra(dim))
    vec = st.tuples(*[small_rationals] * dim)
    points = [tuple(F(x) for x in draw(vec))]
    if not p.is_empty:
        verts = p.vertices
        points += [verts[0], tuple((x + y) / 2 for x, y in zip(verts[0], verts[-1]))]
    point = draw(st.sampled_from(points))
    out_dim = draw(st.integers(min_value=1, max_value=3))
    matrix = [tuple(F(x) for x in draw(vec)) for _ in range(out_dim)]
    offset = draw(st.one_of(st.none(), st.tuples(*[small_rationals] * out_dim)))
    offset = None if offset is None else tuple(F(x) for x in offset)
    return dim, p, p_raw, q, q_raw, point, matrix, offset


@given(operation_cases())
@settings(max_examples=120, deadline=None)
def test_int_operations_match_fraction_reference(case):
    dim, p, p_raw, q, q_raw, x, matrix, offset = case

    def matches(got, want, out_dim=dim):
        assert got.to_json() == oracles.canonical_reference(out_dim, **want)

    assert contains_point(p, x) == oracles.contains_point_reference(dim, p_raw, x)
    assert strictly_contains_point(p, x) == oracles.strictly_contains_point_reference(dim, p_raw, x)
    matches(intersect_many([p, q]), oracles.intersect_many_reference(dim, [p_raw, q_raw]))
    matches(minkowski_sum(p, q), oracles.minkowski_sum_reference(dim, p_raw, q_raw))
    matches(translate(p, x), oracles.translate_reference(dim, p_raw, x))
    matches(star_difference(p, q), oracles.star_difference_reference(dim, p_raw, q_raw))
    c = offset if offset is not None else (F(0),) * len(matrix)
    matches(affine_image(p, matrix, offset), oracles.affine_image_reference(dim, p_raw, matrix, c), len(matrix))

    normal = oracles.normal_cone_reference(dim, p_raw, x)
    if normal is None:
        for cone_at in (normal_cone_at, tangent_cone_at):
            with pytest.raises(PointNotInSet):
                cone_at(p, x)
    else:
        matches(normal_cone_at(p, x), normal)
        matches(tangent_cone_at(p, x), oracles.tangent_cone_reference(dim, p_raw, x))

    if p.is_empty:
        with pytest.raises(EmptySetError):
            conic_hull(p)
    else:
        matches(conic_hull(p), oracles.conic_hull_reference(dim, p_raw))

    if p.is_empty or q.is_empty:
        assert gap(p, q) == math.inf
        return
    with mock.patch.object(polykernel, "_gap_lp", wraps=polykernel._gap_lp) as lp:
        value = gap(p, q)
    if oracles.gap_shortcut_reference(dim, p_raw, q_raw):
        assert value == 0 and not lp.called
    else:
        assert lp.called


@pytest.mark.parametrize(
    "rows, witness",
    [
        # all four vertices are outside
        ([((1, 0), F(1, 4)), ((-1, 0), F(1, 4)), ((0, 1), F(1, 4)), ((0, -1), F(1, 4))], (F(-2), F(1))),
        # (1/2, 5) comes before (1, 0) by value, after it as an int tuple (1, 10, 2)
        ([((1, 0), F(0))], (F(1, 2), F(5))),
        # only (1, 0) is outside
        ([((0, -1), F(-1, 2))], (F(1), F(0))),
    ],
    ids=["all_outside", "value_order", "one_outside"],
)
def test_contains_polyhedron_witness_is_first_violating_vertex(rows, witness):
    p = Polyhedron.from_hrep(rows, 2)
    q = Polyhedron.from_vrep([(3, 3), (1, 0), (F(1, 2), 5), (-2, 1)], dim=2)
    assert q.vertices == ((F(-2), F(1)), (F(1, 2), F(5)), (F(1), F(0)), (F(3), F(3)))
    first = next(v for v in q.vertices if not oracles.point_in_hrep(v, p.hrep))
    assert first == witness
    assert contains_polyhedron(p, q) == (False, witness)


def test_json_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = oracles.rand_polytope(rng, int(rng.integers(1, 4)))
        assert Polyhedron.from_json(p.to_json()) == p


def test_equality_is_by_point_set():
    by_h = Polyhedron.from_hrep([((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)], 2)
    by_v = Polyhedron.from_vrep([(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2))], dim=2)
    assert by_h == by_v and hash(by_h) == hash(by_v)
    assert by_h.__eq__(1) is NotImplemented and (by_h == 1) is False
    assert Polyhedron.from_vrep([(0,)], dim=1) != Polyhedron.from_vrep([(0, 0)], dim=2)
    assert repr(by_v) == "Polyhedron(dim=2, facets=4, vertices=4, rays=0)"
    assert repr(Polyhedron.empty(2)) == "Polyhedron(dim=2, empty)"


def test_halfspace_normal_of_the_wrong_length_is_a_parse_error():
    with pytest.raises(ParseError, match="length 2, got 1"):
        Polyhedron.from_hrep([((1,), 1)], 2)


def test_empty_and_caps():
    empty = Polyhedron.from_hrep(
        [((frac(1),), frac(0)), ((frac(-1),), frac(-1))], 1
    )
    assert empty.is_empty
    old = CAPS.max_facets
    CAPS.max_facets = 3
    try:
        with pytest.raises(CapExceeded):
            box2().canonical()
    finally:
        CAPS.max_facets = old


def test_facet_cap_holds_on_the_vrep_route(monkeypatch):
    # the cross-polytope's 2^4 facets come from the V->H run alone
    units = [tuple(frac(int(i == j)) for j in range(4)) for i in range(4)]
    cross = Polyhedron.from_vrep(units + [tuple(-x for x in u) for u in units], dim=4)
    monkeypatch.setattr(CAPS, "max_facets", 15)
    with pytest.raises(CapExceeded, match="facet count 16 exceeds cap 15"):
        cross.canonical()
    monkeypatch.setattr(CAPS, "max_facets", 16)
    assert len(cross.canonical().hrep) == 16


def test_generator_cap_stops_during_combination(monkeypatch):
    monkeypatch.setattr(CAPS, "max_generators", 6)
    units = [tuple(frac(int(i == j)) for j in range(4)) for i in range(4)]
    cross = Polyhedron.from_vrep(units + [tuple(-x for x in u) for u in units], dim=4)
    with pytest.raises(CapExceeded, match="generator count 7 exceeds cap 6"):
        cross.canonical()


# ---------------------------------------------------------------------------
# the canonical-form memo of one top-level call
# ---------------------------------------------------------------------------


def rebuild(dim, raw):
    if "hrep" in raw:
        return Polyhedron.from_hrep(raw["hrep"], dim)
    return Polyhedron.from_vrep(*raw["vrep"], dim=dim)


@given(st.integers(min_value=1, max_value=4).flatmap(raw_polyhedra))
@settings(max_examples=150, deadline=None)
def test_memo_hit_is_the_unscoped_canonical_form(case):
    p, raw = case
    dim = p.dim
    assert polykernel._MEMO.get() is None
    expected = (p._key(), p.to_json())

    @memo_scope
    def twice():
        first = rebuild(dim, raw)
        first.canonical()
        with mock.patch.object(polykernel, "_cone_generators", wraps=polykernel._cone_generators) as dd:
            second = rebuild(dim, raw)
            second.canonical()
        assert dd.call_count == 0, "the same raw input hits the memo"
        return first, second

    for q in twice():
        assert (q._key(), q.to_json()) == expected


def test_memo_scope_is_dropped_on_return_and_on_raise():
    seen = []

    @memo_scope
    def inner():
        seen.append(polykernel._MEMO.get())

    @memo_scope
    def outer(fail):
        seen.append(polykernel._MEMO.get())
        inner()
        if fail:
            raise ValueError("boom")
        return "done"

    assert outer.__name__ == "outer"
    assert outer(False) == "done"
    assert polykernel._MEMO.get() is None
    with pytest.raises(ValueError):
        outer(True)
    assert polykernel._MEMO.get() is None
    # one memo per outermost call, shared by the nested one
    assert seen[0] is seen[1] and seen[2] is seen[3]
    assert seen[0] is not None and seen[0] is not seen[2]


def test_memo_hit_does_not_skip_the_facet_cap(monkeypatch):
    units = [tuple(frac(int(i == j)) for j in range(4)) for i in range(4)]

    def cross():
        return Polyhedron.from_vrep(units + [tuple(-x for x in u) for u in units], dim=4)

    @memo_scope
    def run():
        monkeypatch.setattr(CAPS, "max_facets", 16)
        assert len(cross().canonical().hrep) == 16
        monkeypatch.setattr(CAPS, "max_facets", 15)
        with pytest.raises(CapExceeded, match="facet count 16 exceeds cap 15"):
            cross().canonical()
        monkeypatch.setattr(CAPS, "max_facets", 16)
        with mock.patch.object(polykernel, "_cone_generators", wraps=polykernel._cone_generators) as dd:
            assert len(cross().canonical().hrep) == 16
        assert not dd.called

    run()


# ---------------------------------------------------------------------------
# membership and inclusion
# ---------------------------------------------------------------------------


def test_contains_point_boundary_vs_strict():
    p = box2()
    assert contains_point(p, (frac(1), frac(0)))
    assert not strictly_contains_point(p, (frac(1), frac(0)))
    assert strictly_contains_point(p, (frac(1, 2), frac(0)))


def test_contains_polyhedron_witness_escapes():
    inner = box2()
    outer = box2(2)
    ok, _ = contains_polyhedron(outer, inner)
    assert ok
    ok, witness = contains_polyhedron(inner, outer)
    assert not ok and witness is not None
    assert not contains_point(inner, witness)
    assert contains_point(outer, witness)


# ---------------------------------------------------------------------------
# Minkowski sum, translate, star-difference
# ---------------------------------------------------------------------------


@given(small_dims, seeds)
@settings(max_examples=30, deadline=None)
def test_minkowski_support_additivity(dim, seed):
    rng = np.random.default_rng(seed)
    a = oracles.rand_polytope(rng, dim, max_verts=5)
    b = oracles.rand_polytope(rng, dim, max_verts=5)
    s = minkowski_sum(a, b)
    for _ in range(8):
        d = oracles.rand_vector(rng, dim, span=3)
        assert support_function(s, d) == support_function(a, d) + support_function(b, d)


@st.composite
def sum_operands(draw, dim):
    """A V-rep with duplicate and interior points, rays and lines, or an H-rep."""
    vec = st.tuples(*[small_entries] * dim)
    if draw(st.booleans()):
        rows = draw(st.lists(st.tuples(vec, small_entries), max_size=4))
        return Polyhedron.from_hrep(rows, dim)
    points = draw(st.lists(vec, min_size=1, max_size=4))
    points.append(points[0])
    points.append(tuple(F(x + y, 2) for x, y in zip(points[0], points[-2])))
    rays = draw(st.lists(vec, max_size=2))
    for line in draw(st.lists(vec, max_size=1)):
        rays += [line, tuple(-x for x in line)]
    return Polyhedron.from_vrep(points, rays, dim=dim)


@st.composite
def sum_pairs(draw):
    dim = draw(small_dims)
    return draw(sum_operands(dim)), draw(sum_operands(dim))


@given(sum_pairs())
@settings(max_examples=120, deadline=None)
def test_minkowski_sum_of_generators_is_sum_of_vertices(pair):
    p, q = pair
    got = minkowski_sum(p, q).to_json()
    want = Polyhedron.from_vrep(
        [tuple(x + y for x, y in zip(v, w)) for v in p.vertices for w in q.vertices],
        p.rays + q.rays,
        dim=p.dim,
    )
    assert got == want.to_json()


def _cube(dim, lo=0, hi=1):
    return Polyhedron.from_vrep(itertools.product([F(lo), F(hi)], repeat=dim), dim=dim)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_minkowski_sum_keeps_the_points_one_pair_reaches(dim):
    # [0, 1]^d + [0, 1]^d: a coordinate 1 comes from 0 + 1 and from 1 + 0, so
    # of the 3^d distinct sums only the 2^d corners {0, 2}^d are kept
    s = minkowski_sum(_cube(dim), _cube(dim))
    points, rays = s._raw_vrep
    assert sorted(points) == sorted(tuple(2 * x for x in c) + (1,) for c in itertools.product([0, 1], repeat=dim))
    assert rays == ()
    assert s == _cube(dim, 0, 2)


def test_minkowski_sum_counts_pairs_on_the_reduced_point():
    # 1/2 + 1/2 is (4, 4) before reduction and 0 + 1 is (1, 1): one point,
    # three pairs with 1 + 0, so only the ends 0 and 2 are kept
    seg = Polyhedron.from_vrep([(F(0),), (F(1, 2),), (F(1),)], dim=1)
    s = minkowski_sum(seg, seg)
    assert s._raw_vrep == (((0, 1), (2, 1)), ())


@st.composite
def lattice_operands(draw, dim):
    """A box with corners on the lattice of step 1, 1/2 or 1/3 (a segment or
    a point where a side is 0), with up to two rays: its pair sums often
    coincide, and the same sum comes with different denominators."""
    step = draw(st.sampled_from([F(1), F(1, 2), F(1, 3)]))
    lo = draw(st.tuples(*[st.integers(-2, 2)] * dim))
    sides = draw(st.tuples(*[st.integers(0, 2)] * dim))
    corners = [tuple(step * (a + b * c) for a, b, c in zip(lo, sides, bits))
               for bits in itertools.product([0, 1], repeat=dim)]
    rays = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * dim), max_size=2))
    rays = [tuple(map(F, r)) for r in rays]
    return Polyhedron.from_vrep(corners, rays, dim=dim), {"vrep": (corners, rays)}


@st.composite
def lattice_pairs(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    return dim, draw(lattice_operands(dim)), draw(lattice_operands(dim))


@given(lattice_pairs())
@settings(max_examples=80, deadline=None)
def test_minkowski_sum_of_lattice_operands_matches_reference(case):
    dim, (p, p_raw), (q, q_raw) = case
    want = oracles.canonical_reference(dim, **oracles.minkowski_sum_reference(dim, p_raw, q_raw))
    assert minkowski_sum(p, q).to_json() == want


@given(small_dims, seeds)
@settings(max_examples=30, deadline=None)
def test_radstrom_cancellation(dim, seed):
    """(A + B) erode B recovers A exactly for polytopes."""
    rng = np.random.default_rng(seed)
    a = oracles.rand_polytope(rng, dim, max_verts=5)
    b = oracles.rand_polytope(rng, dim, max_verts=5)
    assert star_difference(minkowski_sum(a, b), b) == a


@given(small_dims, seeds)
@settings(max_examples=30, deadline=None)
def test_erosion_then_sum_included(dim, seed):
    rng = np.random.default_rng(seed)
    a = oracles.rand_polytope(rng, dim, max_verts=6)
    b = oracles.rand_polytope(rng, dim, max_verts=4, span=2)
    s = star_difference(a, b)
    if not s.is_empty:
        ok, _ = contains_polyhedron(a, minkowski_sum(s, b))
        assert ok


@given(small_dims, seeds)
@settings(max_examples=25, deadline=None)
def test_star_difference_matches_grid_oracle(dim, seed):
    rng = np.random.default_rng(seed)
    a = oracles.rand_polytope(rng, dim, max_verts=6)
    b = oracles.rand_polytope(rng, dim, max_verts=4, span=2)
    oracles.erosion_grid_check(a, b, star_difference(a, b), n=9)


def test_star_difference_worked_example():
    # [-1,1]^2 eroded by {0} x [-1/4, 1/4] leaves [-1,1] x [-3/4, 3/4]
    seg = Polyhedron.from_vrep([(frac(0), frac(-1, 4)), (frac(0), frac(1, 4))], dim=2)
    expected = Polyhedron.from_hrep(
        [
            ((frac(1), frac(0)), frac(1)),
            ((frac(-1), frac(0)), frac(1)),
            ((frac(0), frac(1)), frac(3, 4)),
            ((frac(0), frac(-1)), frac(3, 4)),
        ],
        2,
    )
    assert star_difference(box2(), seg) == expected


def test_star_difference_empty_when_b_too_large():
    assert star_difference(box2(), box2(3)).is_empty


def test_translate_shifts_vertices():
    p = translate(box2(), (frac(5), frac(-1, 2)))
    assert set(p.vertices) == {
        (frac(4), frac(-3, 2)),
        (frac(4), frac(1, 2)),
        (frac(6), frac(-3, 2)),
        (frac(6), frac(1, 2)),
    }


def test_intersect_many_associative():
    rng = np.random.default_rng(3)
    ps = [oracles.rand_polytope(rng, 2, max_verts=6) for _ in range(3)]
    left = intersect(intersect(ps[0], ps[1]), ps[2])
    assert intersect_many(ps) == left


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------


def test_normal_and_tangent_cone_at_box_corner():
    p = box2()
    corner = (frac(1), frac(1))
    nc = normal_cone_at(p, corner)
    assert set(nc.rays) == {(frac(1), frac(0)), (frac(0), frac(1))}
    tc = tangent_cone_at(p, corner)
    # polarity: every tangent ray makes a nonpositive product with every normal ray
    for t in tc.rays:
        for n in nc.rays:
            assert sum(a * b for a, b in zip(t, n)) <= 0
    # interior point: trivial normal cone, full tangent cone
    nc0 = normal_cone_at(p, (frac(0), frac(0)))
    assert nc0.vertices == ((frac(0), frac(0)),) and not nc0.rays
    assert cone_is_linear_subspace(tangent_cone_at(p, (frac(0), frac(0))))


def test_normal_cone_requires_membership():
    # the message shows the point exactly, and a term too long to print as "..."
    for point, shown in (((frac(3, 2), frac(0)), "(3/2, 0)"), ((frac(10**4300), frac(0)), "(..., 0)")):
        with pytest.raises(PointNotInSet) as info:
            normal_cone_at(box2(), point)
        assert str(info.value) == f"{shown} is not in the polyhedron"


def test_conic_hull_and_subspace_test():
    seg = Polyhedron.from_vrep([(frac(-1),), (frac(1),)], dim=1)
    hull = conic_hull(seg)
    assert cone_is_linear_subspace(hull)
    ray = conic_hull(Polyhedron.from_vrep([(frac(0),), (frac(1),)], dim=1))
    assert not cone_is_linear_subspace(ray)
    point_cone = conic_hull(Polyhedron.from_vrep([(frac(0), frac(0))], dim=2))
    assert cone_is_linear_subspace(point_cone)  # {0} is the trivial subspace


def test_affine_image_projection():
    # project the square onto its first coordinate
    img = affine_image(box2(), [["1", "0"]])
    assert img.dim == 1
    assert set(img.vertices) == {(frac(-1),), (frac(1),)}


# ---------------------------------------------------------------------------
# norms and gap
# ---------------------------------------------------------------------------


def test_dual_norm_balls():
    # dual of l1 is the sup-norm box, dual of linf is the cross-polytope
    d1 = dual_norm_ball(L1, frac(2), 2)
    assert set(d1.vertices) == {
        (frac(2), frac(2)),
        (frac(2), frac(-2)),
        (frac(-2), frac(2)),
        (frac(-2), frac(-2)),
    }
    dinf = dual_norm_ball(LINF, frac(1), 2)
    assert set(dinf.vertices) == {
        (frac(1), frac(0)),
        (frac(-1), frac(0)),
        (frac(0), frac(1)),
        (frac(0), frac(-1)),
    }


NORM_CASES = [(n, d) for n in (L1, LINF) for d in (1, 2, 3, 4)] + [
    (NormSpec.parse(f"l2approx:{k}"), d) for k in (4, 8, 16) for d in (1, 2)
]


@pytest.mark.parametrize("norm,dim", NORM_CASES, ids=[f"{n.to_json()}-d{d}" for n, d in NORM_CASES])
def test_norm_balls_match_reference(norm, dim):
    # one vertex list per norm gives the same sets as two descriptions per kind
    assert norm_unit_ball(norm, dim).to_json() == oracles.norm_unit_ball_reference(norm, dim).to_json()
    p = Polyhedron.from_vrep([(frac(1, 2),) * dim], dim=dim)
    for e in (frac(0), frac(1, 3), frac(2)):
        ball = dual_norm_ball(norm, e, dim)
        minkowski_sum(p, ball)
        assert ball._hrep is None  # a summand ball runs no DD
        assert ball.to_json() == oracles.dual_norm_ball_reference(norm, e, dim).to_json()


@pytest.mark.parametrize("dim", [0, -1])
def test_norm_balls_reject_nonpositive_dims(dim):
    cases = ((L1, DimensionMismatch), (LINF, DimensionMismatch), (NormSpec("l2approx", 4), UnsupportedNorm))
    for norm, error in cases:
        with pytest.raises(error):
            norm_unit_ball(norm, dim)
        with pytest.raises(error):
            dual_norm_ball(norm, 1, dim)


def test_l1_ball_cap_raises_before_allocating(monkeypatch):
    monkeypatch.setattr(CAPS, "max_dim", 40)
    # 2^40 sign vectors would not fit in memory; the cap stops the list first
    with mock.patch.object(polykernel.itertools, "product", side_effect=AssertionError("allocated")):
        with pytest.raises(CapExceeded):
            dual_norm_ball(L1, 1, 40)
    monkeypatch.setattr(CAPS, "max_generators", 6)
    with pytest.raises(CapExceeded):
        dual_norm_ball(L1, 1, 3)
    with pytest.raises(CapExceeded):
        norm_unit_ball(L1, 3)


def test_l2approx_ball_dims():
    spec = NormSpec.parse("l2approx:8")
    ball = norm_unit_ball(spec, 2)
    assert len(ball.vertices) == 8
    with pytest.raises(UnsupportedNorm):
        norm_unit_ball(spec, 3)


def test_norm_spec_parsing():
    assert NormSpec.parse("l1") is L1
    assert NormSpec.parse("linf") is LINF
    with pytest.raises(ParseError):
        NormSpec.parse("l3")
    with pytest.raises(ParseError):
        NormSpec.parse("l2approx:5")


def test_gap_values():
    a = box2()
    b = translate(box2(), (frac(5), frac(0)))  # [4,6] x [-1,1]
    assert gap(a, b, L1) == frac(3)
    assert gap(a, b, LINF) == frac(3)
    assert gap(a, intersect(a, b)) == math.inf  # second set empty
    assert gap(a, translate(box2(), (frac(1), frac(0)))) == 0


@pytest.mark.parametrize(
    "norm, dim, value",
    [(L1, 4, F(12)), (LINF, 4, F(3)), (NormSpec("l2approx", 8), 2, F(5910, 1393))],
    ids=["l1", "linf", "l2approx"],
)
def test_gap_lp_runs_no_dd_on_the_unit_ball(monkeypatch, norm, dim, value):
    a = Polyhedron.from_vrep([tuple(int(i == j) for j in range(dim)) for i in range(dim)], dim=dim)
    b = translate(a, (F(3),) * dim)
    a.hrep, b.hrep  # the operands' own canonicalization is not the ball's
    runs = []
    original = polykernel._cone_generators

    def counted(ineqs, d):
        runs.append(d)
        return original(ineqs, d)

    monkeypatch.setattr(polykernel, "_cone_generators", counted)
    assert gap(a, b, norm) == value
    assert not runs, "the ball rows come from the dual vertices, not from a DD run"


@st.composite
def gap_operand(draw, dim, shift, bounded):
    """A nonempty V-rep or H-rep with entries in -3..3, moved by shift along x1."""
    vec = st.tuples(*[small_entries] * dim)
    move = tuple(F(shift * (i == 0)) for i in range(dim))
    if draw(st.booleans()):
        points = draw(st.lists(vec, min_size=1, max_size=4))
        rays = [] if bounded else draw(st.lists(vec, max_size=1))
        return Polyhedron.from_vrep([tuple(x + m for x, m in zip(v, move)) for v in points], rays, dim=dim)
    rows = draw(st.lists(st.tuples(vec, small_entries), min_size=1, max_size=4))
    if bounded:
        for i in range(dim):
            for sign in (1, -1):
                rows.append((tuple(sign * int(i == j) for j in range(dim)), 3))
    moved = [(n, F(c) + sum(a * m for a, m in zip(n, move))) for n, c in rows]
    p = Polyhedron.from_hrep(moved, dim)
    assume(not p.is_empty)
    return p


@st.composite
def gap_pairs(draw):
    """Random pairs, disjoint pairs, and 2-d segments that cross away from
    their endpoints (a zero gap that only the LP can see)."""
    kind = draw(st.sampled_from(["random", "disjoint", "crossing"]))
    if kind == "crossing":
        vec = st.tuples(small_entries, small_entries)
        c, u, w = draw(vec), draw(vec), draw(vec)
        assume(u[0] * w[1] != u[1] * w[0])
        a = Polyhedron.from_vrep([(c[0] - u[0], c[1] - u[1]), (c[0] + u[0], c[1] + u[1])], dim=2)
        b = Polyhedron.from_vrep([(c[0] - w[0], c[1] - w[1]), (c[0] + w[0], c[1] + w[1])], dim=2)
        return a, b, L1
    dim = draw(small_dims)
    shift = 10 if kind == "disjoint" else 0
    a = draw(gap_operand(dim, 0, shift != 0))
    b = draw(gap_operand(dim, shift, shift != 0))
    norms = [L1, LINF] + ([NormSpec("l2approx", 8)] if dim <= 2 else [])
    return a, b, draw(st.sampled_from(norms))


@given(gap_pairs())
@settings(max_examples=150, deadline=None)
def test_gap_shortcut_matches_lp(pair):
    a, b, norm = pair
    assert gap(a, b, norm) == polykernel._gap_lp(a, b, norm)


def test_gap_probe_solves_no_lp(monkeypatch):
    lps, dd_runs = [], []
    solve_lp, cone_generators = simplex.solve_lp, polykernel._cone_generators

    def counted_lp(*args, **kwargs):
        lps.append(1)
        return solve_lp(*args, **kwargs)

    def counted_dd(ineqs, d):
        dd_runs.append(d)
        return cone_generators(ineqs, d)

    monkeypatch.setattr(simplex, "solve_lp", counted_lp)
    monkeypatch.setattr(polykernel, "_cone_generators", counted_dd)
    out = cli.run_scenario(CORPUS / "probe_gap_abs.json", {})
    assert out.exit_code == 0
    assert not lps, "every sampled subdifferential meets the base at a generator"
    assert len(dd_runs) <= 2, "the base set and the domain, each canonicalized once"


@given(small_dims.flatmap(lambda d: st.tuples(
    sum_operands(d).filter(lambda p: p._raw_vrep is not None),
    st.lists(st.tuples(*[small_entries] * d), min_size=1, max_size=3),
)))
@settings(max_examples=80, deadline=None)
def test_support_function_of_generators_is_the_canonical_value(case):
    p, directions = case
    got = [support_function(p, d) for d in directions]
    assert p._hrep is None, "the sup over the given generators runs no DD"
    for d, value in zip(directions, got):
        # over the canonical vertices and rays, lines as +/- pairs
        if any(oracles.dot(r, d) > 0 for r in p.rays):
            assert value == math.inf
        else:
            assert value == max(oracles.dot(v, d) for v in p.vertices)


def test_star_difference_runs_no_dd_on_a_raw_vrep(monkeypatch):
    a = box2()
    a.hrep  # the eroded set's own canonicalization
    # a segment given with a duplicate and an interior point
    b = Polyhedron.from_vrep(
        [(frac(0), frac(-1, 4)), (frac(0), frac(1, 4)), (frac(0), frac(1, 4)), (frac(0), frac(0))], dim=2
    )
    runs = []
    original = polykernel._cone_generators

    def counted(ineqs, d):
        runs.append(d)
        return original(ineqs, d)

    monkeypatch.setattr(polykernel, "_cone_generators", counted)
    star = star_difference(a, b)
    assert not runs and b._hrep is None, "the support values come from b's own generators"
    monkeypatch.undo()
    expected = Polyhedron.from_hrep(
        [((frac(1), frac(0)), frac(1)), ((frac(-1), frac(0)), frac(1)),
         ((frac(0), frac(1)), frac(3, 4)), ((frac(0), frac(-1)), frac(3, 4))],
        2,
    )
    assert star == expected


def test_support_function_unbounded_direction():
    ray = Polyhedron.from_vrep([(frac(0),)], rays=[(frac(1),)], dim=1)
    assert support_function(ray, (frac(1),)) == math.inf
    assert support_function(ray, (frac(-1),)) == 0
    with pytest.raises(EmptySetError):
        support_function(Polyhedron.empty(1), (frac(1),))
