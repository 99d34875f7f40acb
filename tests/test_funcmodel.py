"""Piecewise-affine convex models, DC pairs, and the black-box evaluator."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from subgrad import optimality
from subgrad.errors import (
    DimensionMismatch,
    EmptyDomain,
    EvaluationFailure,
    NegativeEps,
    ParseError,
    PointOutsideDomain,
    PointOutsideDomainInterior,
    UnsupportedNorm,
)
from subgrad.funcmodel import (
    AffinePiece,
    BlackBoxFunction,
    DCFunction,
    PAConvexFunction,
    abs_function,
    dc_dini_subdifferential,
    dc_dini_subdifferential_definitional,
    dc_hypothesis_report,
    f_eps_expand,
    function_from_json,
    l1_norm_function,
    linear_function,
    linf_norm_function,
    pa_sum,
)
from subgrad.polykernel import (
    L1,
    LINF,
    NormSpec,
    Polyhedron,
    dual_norm_ball,
    intersect,
    minkowski_sum,
    strictly_contains_point,
    support_function,
)

F = Fraction

seeds = st.integers(min_value=0, max_value=2**31 - 1)
small_dims = st.integers(min_value=1, max_value=3)


def interval(lo, hi):
    return Polyhedron.from_hrep([((F(1),), F(hi)), ((F(-1),), F(-lo))], 1)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_affine_piece_make_and_value():
    p = AffinePiece.make(["1/2", "-1"], "3")
    assert p.value_at((F(2), F(1))) == F(3)
    # a piece built directly is parsed too: a float is no rational
    with pytest.raises(ParseError):
        PAConvexFunction([AffinePiece((0.5,), F(0))])


@given(small_dims, seeds)
@settings(max_examples=50, deadline=None)
def test_evaluate_matches_max_of_pieces(dim, seed):
    rng = np.random.default_rng(seed)
    f = oracles.rand_pa(rng, dim)
    x = oracles.rand_vector(rng, dim)
    assert f.evaluate(x) == oracles.pa_value(f.pieces, x)


def test_evaluate_outside_domain_is_inf():
    f = PAConvexFunction([AffinePiece.make(["1"], "0")], domain=interval(0, 1))
    assert f.evaluate((F(2),)) == math.inf
    assert f.evaluate((F(1, 2),)) == F(1, 2)


def test_evaluate_batch_agrees_with_scalar():
    rng = np.random.default_rng(5)
    f = oracles.rand_pa(rng, 2)
    pts = rng.uniform(-3, 3, size=(40, 2))
    batch = f.evaluate_batch(pts)
    for row, val in zip(pts, batch):
        exact = f.evaluate(tuple(F(float(c)) for c in row))
        assert abs(float(exact) - val) < 1e-12


# ---------------------------------------------------------------------------
# subdifferentials
# ---------------------------------------------------------------------------


def test_abs_subdifferential_values():
    f = abs_function()
    assert f.subdifferential_at((F(0),)) == interval(-1, 1)
    assert f.subdifferential_at((F(3),)) == Polyhedron.from_vrep([(F(1),)], dim=1)
    assert f.subdifferential_at((F(-2),)) == Polyhedron.from_vrep([(F(-1),)], dim=1)


@given(small_dims, seeds)
@settings(max_examples=40, deadline=None)
def test_directional_derivative_is_support_of_subdifferential(dim, seed):
    rng = np.random.default_rng(seed)
    f = oracles.rand_pa(rng, dim)
    x = oracles.rand_vector(rng, dim)
    d = oracles.rand_vector(rng, dim, span=3)
    sub = f.subdifferential_at(x)
    assert f.directional_derivative(x, d) == support_function(sub, d)
    assert f.directional_derivative(x, d) == oracles.pa_directional(f.pieces, x, d)


def test_directional_derivative_needs_interior():
    f = PAConvexFunction([AffinePiece.make(["1"], "0")], domain=interval(0, 1))
    with pytest.raises(PointOutsideDomainInterior):
        f.directional_derivative((F(0),), (F(1),))


def test_restricted_subdifferential_gains_normal_cone():
    # |x| restricted to [0,1]: at 0 the domain normal cone (-inf, 0] joins in
    f = PAConvexFunction(
        [AffinePiece.make(["1"], "0"), AffinePiece.make(["-1"], "0")],
        domain=interval(0, 1),
    )
    sub = f.subdifferential_at((F(0),))
    expected = Polyhedron.from_hrep([((F(1),), F(1))], 1)  # (-inf, 1]
    assert sub == expected


def test_restrict_empty_domain_raises():
    f = abs_function()
    empty = Polyhedron.from_hrep([((F(1),), F(0)), ((F(-1),), F(-1))], 1)
    with pytest.raises(EmptyDomain):
        f.restrict(empty)


@given(small_dims, seeds)
@settings(max_examples=30, deadline=None)
def test_eps_subdifferential_is_minkowski_inflation(dim, seed):
    rng = np.random.default_rng(seed)
    f = oracles.rand_pa(rng, dim)
    x = oracles.rand_vector(rng, dim)
    for eps in (F(0), F(1, 2), F(3)):
        got = f.eps_subdifferential_at(x, eps)
        want = minkowski_sum(f.subdifferential_at(x), dual_norm_ball(L1, eps, dim))
        assert got == want


def test_eps_subdifferential_rejects_negative():
    with pytest.raises(NegativeEps):
        abs_function().eps_subdifferential_at((F(0),), F(-1))


def test_f_eps_expand_matches_inflated_subdifferential():
    rng = np.random.default_rng(11)
    for norm in (L1, LINF, NormSpec("l2approx", 4), NormSpec("l2approx", 8)):
        max_dim = 2 if norm.kind == "l2approx" else 3
        for case in range(8):
            dim = int(rng.integers(1, max_dim + 1))
            f = oracles.rand_pa(rng, dim)
            x = oracles.rand_vector(rng, dim, span=3)
            if case % 2:
                # every piece active at x, so the subdifferential there is
                # the hull of all the slopes
                f = PAConvexFunction([(p.slope, -oracles.dot(p.slope, x)) for p in f.pieces])
            eps = F(int(rng.integers(0, 4)), 2)
            g = f_eps_expand(f, x, eps, norm)
            assert g.subdifferential_at(x) == f.eps_subdifferential_at(x, eps, norm)
            # the expansion is pointwise f(y) + eps * ||y - x||, the norm being
            # the support function of the reference dual unit ball
            unit = oracles.dual_norm_ball_reference(norm, F(1), dim)
            for _ in range(3):
                y = oracles.rand_vector(rng, dim, span=3)
                dist = support_function(unit, oracles.vsub(y, x))
                assert g.evaluate(y) == f.evaluate(y) + eps * dist
    with pytest.raises(UnsupportedNorm):
        f_eps_expand(l1_norm_function(3), (0, 0, 0), 1, NormSpec("l2approx", 4))


@given(small_dims, seeds)
@settings(max_examples=30, deadline=None)
def test_pa_sum_evaluates_pointwise(dim, seed):
    rng = np.random.default_rng(seed)
    f = oracles.rand_pa(rng, dim, max_pieces=4)
    g = oracles.rand_pa(rng, dim, max_pieces=4)
    s = pa_sum(f, g)
    x = oracles.rand_vector(rng, dim)
    assert s.evaluate(x) == f.evaluate(x) + g.evaluate(x)


small_fractions = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3]))


@st.composite
def pa_reference_cases(draw):
    """Two functions with repeated pieces, each on the whole space or a box,
    a point where some pieces tie (possibly on the box boundary), a
    direction, eps and a norm."""
    dim = draw(st.integers(1, 3))
    vec = st.tuples(*[small_fractions] * dim)
    x = draw(vec)

    def pieces():
        slopes = draw(st.lists(vec, min_size=1, max_size=4))
        # a tied piece is 0 at x; repeats exercise the dedupe
        out = [(s, -oracles.dot(s, x) if draw(st.booleans()) else draw(small_fractions)) for s in slopes]
        return out + draw(st.lists(st.sampled_from(out), max_size=2))

    def domain():
        if draw(st.booleans()):
            return Polyhedron.whole_space(dim)
        lo = [draw(st.sampled_from([xi, xi - 1, xi + 1])) for xi in x]
        rows = []
        for i in range(dim):
            e = tuple(F(int(j == i)) for j in range(dim))
            rows += [(e, lo[i] + 2), (tuple(-c for c in e), -lo[i])]
        return Polyhedron.from_hrep(rows, dim)

    f, g = (pieces(), domain()), (pieces(), domain())
    norms = [L1, LINF] + ([NormSpec("l2approx", 4), NormSpec("l2approx", 8)] if dim <= 2 else [])
    return dim, f, g, x, draw(vec), draw(st.sampled_from([F(0), F(1, 2), F(3)])), draw(st.sampled_from(norms))


def _outcome(call):
    try:
        result = call()
    except (PointOutsideDomain, PointOutsideDomainInterior) as exc:
        return type(exc)
    return result.to_json() if isinstance(result, Polyhedron) else result


@given(pa_reference_cases())
@settings(max_examples=150, deadline=None)
def test_int_pa_model_matches_fraction_reference(case):
    dim, (f_pieces, f_dom), (g_pieces, g_dom), x, d, eps, norm = case
    f = PAConvexFunction(f_pieces, f_dom)
    ref = oracles.PAReference(f_pieces, f_dom)

    def same_function(got, want):
        assert [(p.slope, p.intercept) for p in got.pieces] == want.pieces
        assert got.domain == want.domain

    same_function(f, ref)
    assert f.evaluate(x) == ref.evaluate(x)
    assert _outcome(lambda: f.subdifferential_at(x)) == _outcome(lambda: ref.subdifferential_at(x))
    for e in (eps, F(1, 3)):
        assert _outcome(lambda: f.eps_subdifferential_at(x, e, norm)) == _outcome(
            lambda: ref.eps_subdifferential_at(x, e, norm)
        )
    interior = strictly_contains_point(f_dom, x)
    want = ref.directional_derivative(x, d) if interior else PointOutsideDomainInterior
    assert _outcome(lambda: f.directional_derivative(x, d)) == want

    same_function(f_eps_expand(f, x, eps, norm), oracles.f_eps_expand_reference(ref, x, eps, norm))
    if not intersect(f_dom, g_dom).is_empty:
        g = PAConvexFunction(g_pieces, g_dom)
        same_function(pa_sum(f, g), oracles.pa_sum_reference(ref, oracles.PAReference(g_pieces, g_dom)))


# ---------------------------------------------------------------------------
# DC functions
# ---------------------------------------------------------------------------


def test_dc_requires_domain_inclusion():
    g = PAConvexFunction([AffinePiece.make(["1"], "0")])  # full domain
    h = PAConvexFunction([AffinePiece.make(["1"], "0")], domain=interval(0, 1))
    with pytest.raises(ParseError):
        DCFunction(g, h)  # dom g not inside dom h


def test_dc_evaluate_inf_convention():
    g = PAConvexFunction([AffinePiece.make(["1"], "0")], domain=interval(0, 1))
    dc = DCFunction(g, linear_function(["1"]))
    assert dc.evaluate((F(2),)) == math.inf
    assert dc.evaluate((F(1, 2),)) == 0
    batch = dc.evaluate_batch(np.array([[2.0], [0.5]]))
    assert math.isinf(batch[0]) and abs(batch[1]) < 1e-15


@given(small_dims, seeds)
@settings(max_examples=25, deadline=None)
def test_dc_difference_routes_agree_at_interior_points(dim, seed):
    rng = np.random.default_rng(seed)
    dc = oracles.rand_dc(rng, dim)
    x = oracles.rand_vector(rng, dim)
    for eps in (F(0), F(1, 2)):
        for eta in (F(0), F(1)):
            # the eta split is internal bookkeeping; any eta must give the
            # same eps-subdifferential the definitional route computes
            erosion = dc_dini_subdifferential(dc, x, eps, eta)
            definitional = dc_dini_subdifferential_definitional(dc, x, eps)
            assert erosion == definitional


def box(lo, hi):
    dim = len(lo)
    units = [tuple(F(int(j == i)) for j in range(dim)) for i in range(dim)]
    return Polyhedron.from_hrep(
        [(e, b) for e, b in zip(units, hi)] + [(tuple(-c for c in e), -a) for e, a in zip(units, lo)], dim
    )


@given(small_dims, seeds)
@settings(max_examples=25, deadline=None)
def test_dc_routes_agree_where_subdiff_h_has_rays(dim, seed):
    # dom h a box, dom g a box inside it that shares some of its lower faces,
    # and x on a shared face: subdiff(h, x) has rays there, which the
    # definitional route takes with no test of its own
    rng = np.random.default_rng(seed)
    lo = oracles.rand_vector(rng, dim, 4, 1)
    hi = tuple(a + 1 + abs(oracles.rand_fraction(rng, 4, 1)) for a in lo)
    shared = [bool(rng.integers(2)) for _ in range(dim)]
    shared[int(rng.integers(dim))] = True
    g_lo = tuple(a if s else a + (b - a) / 4 for a, b, s in zip(lo, hi, shared))
    g_hi = tuple(b - (b - a) / 4 if rng.integers(2) else b for a, b in zip(lo, hi))
    x = tuple(a if s else (a, (a + b) / 2, b)[int(rng.integers(3))] for a, b, s in zip(g_lo, g_hi, shared))
    g = PAConvexFunction(oracles.rand_pa(rng, dim, 4).pieces, domain=box(g_lo, g_hi))
    h = PAConvexFunction(oracles.rand_pa(rng, dim, 4).pieces, domain=box(lo, hi))
    dc = DCFunction(g, h)
    assert dc.h.subdifferential_at(x).rays
    for eps in (F(0), F(1, 2)):
        for norm in (L1, LINF):
            definitional = dc_dini_subdifferential_definitional(dc, x, eps, norm)
            assert definitional == dc_dini_subdifferential(dc, x, eps, 0, norm)


def test_dc_worked_example_abs_minus_x():
    dc = DCFunction(abs_function(), linear_function(["1"]))
    sub = dc_dini_subdifferential(dc, (F(0),), 0, 0)
    assert sub == interval(-2, 0)
    # eps = 1/2 with eta = 1/2: erode [-2, 2] by [1/2, 3/2]
    sub1 = dc_dini_subdifferential(dc, (F(0),), F(1, 2), F(1, 2))
    assert sub1 == interval(F(-5, 2), F(1, 2))


def test_dc_hypothesis_report_boundary_point():
    g = PAConvexFunction(
        [AffinePiece.make(["1"], "0"), AffinePiece.make(["-1"], "0")],
        domain=interval(0, 1),
    )
    dc = DCFunction(g, linear_function(["1/2"]))
    report = dc_hypothesis_report(dc, (F(0),))
    by_name = {e["hypothesis"]: e["status"] for e in report}
    assert by_name["point interior to dom g"] == "fails"
    interior = dc_hypothesis_report(dc, (F(1, 2),))
    assert all(e["status"] == "holds" for e in interior)


# ---------------------------------------------------------------------------
# black-box expressions
# ---------------------------------------------------------------------------


def test_staircase_frozen_values():
    f = BlackBoxFunction(["staircase", ["coord", 0]], 1)
    vals = f.evaluate_batch(np.array([[0.0], [0.5], [1.0 / 3.0], [1.0], [-0.5]]))
    assert vals[0] == 0.0
    assert abs(vals[1] - 0.25) < 1e-12  # even branch: a/m at m = 2
    assert abs(vals[2] - 7.0 / 36.0) < 1e-9  # odd branch at m = 3
    assert math.isinf(vals[3])
    assert abs(vals[4] - 0.25) < 1e-12  # even in |x|
    # jump of 1/9 when m switches from 4 to 3 at 1/3
    below = f.evaluate_batch(np.array([[1.0 / 3.0 - 1e-9]]))[0]
    assert abs(below - 1.0 / 12.0) < 1e-8


def test_blackbox_validation_errors():
    x0 = ["coord", 0]
    # name -> (expression, box) in dimension 2; each is a grammar error
    cases = {
        "const_without_value": (["const"], None),
        "const_with_two_values": (["const", 1, 2], None),
        "unary_without_argument": (["neg"], None),
        "unary_with_two_arguments": (["abs", x0, x0], None),
        "binary_without_arguments": (["add"], None),
        "binary_with_one_argument": (["sub", x0], None),
        "binary_with_three_arguments": (["mul", x0, x0, x0], None),
        "nary_without_arguments": (["max"], None),
        "const_bool": (["const", True], None),
        "const_object": (["const", {}], None),
        "const_string_overflows_float": (["const", "1e400"], None),
        "const_nan": (["const", math.nan], None),
        "const_infinite": (["const", -math.inf], None),
        "coord_bool": (["coord", True], None),
        "coord_negative": (["coord", -1], None),
        "coord_equal_to_dim": (["coord", 2], None),
        "node_not_a_list": (["neg", 5], None),
        "node_empty": (["neg", []], None),
        "operator_number": ([5, x0], None),
        "operator_unhashable": ([["coord", 0]], None),
        "operator_unknown": (["nope", x0], None),
        "box_bound_nan": (x0, [[-1, 1], [-1, math.nan]]),
    }

    def outcome(expr, box):
        try:
            BlackBoxFunction(expr, 2, box)
        except ParseError:
            return "ParseError"
        except Exception as exc:
            return repr(exc)
        return "accepted"

    wrong = {name: got for name, case in cases.items() if (got := outcome(*case)) != "ParseError"}
    assert not wrong, wrong


def _blackbox_trees(dim):
    consts = st.one_of(
        st.integers(-5, 5),
        st.floats(-5, 5, allow_nan=False),
        st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)),
    )
    leaves = st.one_of(
        consts.map(lambda c: ["const", c]), st.integers(0, dim - 1).map(lambda i: ["coord", i])
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["neg", "abs", "sqrtabs", "staircase"]), children),
            st.tuples(st.sampled_from(["add", "sub", "mul"]), children, children),
            st.builds(
                lambda op, args: [op, *args],
                st.sampled_from(["max", "min"]),
                st.lists(children, min_size=1, max_size=3),
            ),
        ).map(list)

    return st.recursive(leaves, extend, max_leaves=10)


@st.composite
def blackbox_cases(draw):
    dim = draw(st.integers(1, 8))
    expr = draw(_blackbox_trees(dim))
    bound = st.floats(-2, 2, allow_nan=False)
    box = draw(st.none() | st.lists(st.tuples(bound, bound).map(sorted), min_size=dim, max_size=dim))
    # rows past float range pin the finite-row and box masks
    coords = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, np.inf, -np.inf, np.nan]), st.floats(-3, 3))
    rows = draw(st.lists(st.lists(coords, min_size=dim, max_size=dim), min_size=1, max_size=6))
    return expr, dim, box, np.array(rows)


def _values_or_failure(evaluate, xs):
    try:
        return evaluate(xs)
    except EvaluationFailure as exc:
        return exc


EVERY_OPERATOR = [
    "max",
    ["neg", ["staircase", ["coord", 0]]],
    ["sqrtabs", ["mul", ["const", 3], ["coord", 1]]],
    ["min", ["abs", ["coord", 1]], ["add", ["const", -0.25], ["const", "1/3"]]],
    ["sub", ["staircase", ["coord", 0]], ["staircase", ["coord", 0]]],
]


@given(blackbox_cases())
@example((EVERY_OPERATOR, 2, None, np.array([[0.5, -2.0], [2.0, 1.0]])))
@example((EVERY_OPERATOR, 2, [(-1.0, 1.0), (0.0, 0.5)], np.array([[0.0, 0.25], [0.5, 3.0]])))
@example((["sub", ["coord", 0], ["coord", 1]], 2, [(-1.0, 1.0), (0.0, 0.5)],
          np.array([[np.inf, 0.25], [0.5, np.nan], [np.nan, -np.inf], [0.5, 0.25]])))
@settings(max_examples=200, deadline=None)
def test_compiled_blackbox_matches_tree_walk(case):
    expr, dim, box, xs = case
    got = _values_or_failure(BlackBoxFunction(expr, dim, box).evaluate_batch, xs)
    want = _values_or_failure(lambda x: oracles.blackbox_reference(expr, dim, box, x), xs)
    if isinstance(want, EvaluationFailure):
        assert isinstance(got, EvaluationFailure) and str(got) == str(want)
    else:
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_blackbox_evaluation_failure_on_nan():
    # inf - inf inside the expression surfaces as a typed failure
    f = BlackBoxFunction(
        ["sub", ["staircase", ["coord", 0]], ["staircase", ["coord", 0]]], 1
    )
    with pytest.raises(EvaluationFailure):
        f.evaluate_batch(np.array([[2.0]]))


def test_blackbox_rows_past_float_range_are_not_evaluated():
    # inf - inf at a non-finite row is no fault of the expression: NaN, no failure
    f = BlackBoxFunction(["sub", ["coord", 0], ["coord", 0]], 1)
    vals = f.evaluate_batch(np.array([[np.inf], [1.0], [-np.inf], [np.nan]]))
    assert vals[1] == 0.0 and np.isnan(vals[[0, 2, 3]]).all()
    assert np.isnan(f.evaluate_batch(np.array([[np.inf]]))).all()
    # the box still sends a non-finite row outside it to +inf
    boxed = BlackBoxFunction(["coord", 0], 1, [(-1.0, 1.0)])
    assert boxed.evaluate_batch(np.array([[np.inf], [0.5]])).tolist() == [np.inf, 0.5]
    # a finite row whose value is inf - inf still fails
    square = ["mul", ["coord", 0], ["coord", 0]]
    with pytest.raises(EvaluationFailure):
        BlackBoxFunction(["sub", square, square], 1).evaluate_batch(np.array([[np.inf], [1e200]]))


@st.composite
def stacked_batches(draw):
    """A function of each float model and two batches of two or more rows.

    One-row parts are left out on purpose: NumPy hands a one-row product to
    a matrix-vector kernel whose sums can round differently from the
    matrix-matrix kernel of longer batches, and the probes evaluate only
    their base point and witness replays one row at a time, never a part
    of a batch.  Checked again with the reductions run along the batch
    axis: the product is unchanged, and a one-row product of d >= 2
    coordinates still rounds differently.
    """
    kind = draw(st.sampled_from(["pa", "pa_domain", "dc", "blackbox"]))
    if kind == "blackbox":
        dim = draw(st.integers(1, 3))
        bound = st.floats(-2, 2, allow_nan=False)
        box = draw(st.none() | st.lists(st.tuples(bound, bound).map(sorted), min_size=dim, max_size=dim))
        f = BlackBoxFunction(draw(_blackbox_trees(dim)), dim, box)
    else:
        dim = draw(st.integers(1, 8))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "dc":
            f = oracles.rand_dc(rng, dim, restricted=draw(st.booleans()))
        else:
            f = oracles.rand_pa(rng, dim)
            if kind == "pa_domain":
                f = PAConvexFunction(f.pieces, domain=oracles.rand_box(rng, dim))
    coords = st.one_of(st.floats(-5, 5), st.sampled_from([0.0, -0.0, 1e200, np.inf, -np.inf, np.nan]))
    parts = [
        np.array(draw(st.lists(st.lists(coords, min_size=dim, max_size=dim), min_size=2, max_size=70)))
        for _ in range(2)
    ]
    return f, parts


# the product of a row with inf and NaN entries gives a NaN whose sign
# depended on the batch length
NAN_ROW = np.array([0.0, np.inf, 0.0, np.inf, 0.0, 0.0, 0.0, np.nan])
NAN_CASE = (
    PAConvexFunction([((2, 1, 0, -2, -1, -3, -3, -3), 3)]),
    [np.zeros((2, 8)), np.array([np.zeros(8), NAN_ROW])],
)


# one piece at d = 8: the last row took another value as row 5 of a 6-row
# batch than as row 3 of a 4-row one while the product with a lone piece
# row was matrix-vector (OpenBLAS 0.3.31, x86-64)
ONE_PIECE_D8 = (
    PAConvexFunction([((-1, 0, -2, 3, -4, -1, -2, 2), 0)]),
    [np.zeros((2, 8)), np.vstack([np.zeros((3, 8)), [0.0, 0.0, 0.7, 0.0, -1.0, 0.0, 0.1, 0.0]])],
)


@given(stacked_batches())
@example(NAN_CASE)
@example(ONE_PIECE_D8)
@settings(max_examples=200, deadline=None)
def test_batch_rows_are_evaluated_independently(case):
    # the probes stack shells and sample sets into one call; that is
    # bit-identical only if no row's value depends on the rows around it
    f, (a, b) = case
    with np.errstate(over="ignore", invalid="ignore"):
        got = _values_or_failure(f.evaluate_batch, np.vstack([a, b]))
        parts = [_values_or_failure(f.evaluate_batch, p) for p in (a, b)]
    if any(isinstance(p, EvaluationFailure) for p in parts):
        assert isinstance(got, EvaluationFailure)
        return
    want = np.concatenate(parts)
    assert isinstance(got, np.ndarray) and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@st.composite
def layout_cases(draw):
    """A PA function (with or without a domain), a DC pair, or float
    constraint rows for the blunt feasibility mask, and one batch."""
    kind = draw(st.sampled_from(["pa", "pa_domain", "dc", "feasible"]))
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "feasible":
        m = draw(st.integers(0, 16))
        obj = (rng.integers(-4, 5, size=(m, dim)) / 2.0, rng.integers(-8, 9, size=m) / 4.0)
    elif kind == "dc":
        obj = oracles.rand_dc(rng, dim, max_pieces=draw(st.integers(1, 16)), restricted=draw(st.booleans()))
    else:
        obj = oracles.rand_pa(rng, dim, max_pieces=draw(st.integers(1, 16)))
        if kind == "pa_domain":
            obj = PAConvexFunction(obj.pieces, domain=oracles.rand_box(rng, dim))
    coords = st.one_of(st.floats(-5, 5), st.sampled_from([0.0, -0.0, 1e200, -1e200, np.inf, -np.inf, np.nan]))
    xs = np.array(draw(st.lists(st.lists(coords, min_size=dim, max_size=dim), min_size=1, max_size=40)))
    return kind, obj, xs


def _tail_case():
    # 13 pieces at d = 4 and 257 rows: slopes @ xs.T gives the last row
    # another value than xs @ slopes.T (OpenBLAS 0.3.31, x86-64 AVX-512)
    rng = np.random.default_rng(8)
    f = PAConvexFunction([([F(int(v), 3) for v in rng.integers(-6, 7, size=4)], int(rng.integers(-9, 10)))
                          for _ in range(13)])
    return "pa", f, rng.uniform(-5, 5, size=(257, 4))


@given(layout_cases())
@example(_tail_case())
@example(("pa", PAConvexFunction([((2, 1, 0, -2, -1, -3, -3, -3), 3)]), NAN_ROW[None, :]))
@example(("pa", linear_function(["1/3"]), np.array([[0.1], [np.nan]])))
@settings(max_examples=200, deadline=None)
def test_batches_match_row_major_reference(case):
    # the exact reductions run column by column along the batch axis; the
    # values, NaN signs included, are those of one product row per point
    kind, obj, xs = case
    if kind == "feasible":
        got, want = optimality._float_feasible(xs, *obj), oracles.float_feasible_reference(xs, *obj)
    else:
        got, want = obj.evaluate_batch(xs), oracles.pa_batch_reference(obj, xs)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_rows_past_float_range_do_not_warn():
    # 0·inf in a PA product and inf - inf in g - h give NaN or +inf, quietly
    xs = np.array([[np.inf], [-np.inf], [1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pa = linear_function(["0"]).evaluate_batch(xs)
        dc = DCFunction(abs_function(), abs_function()).evaluate_batch(xs)
    assert np.isnan(pa[:2]).all() and not np.signbit(pa[:2]).any() and pa[2] == 0.0
    assert dc.tolist() == [np.inf, np.inf, 0.0]


def test_blackbox_composite_expression():
    f = BlackBoxFunction(
        ["max", ["neg", ["coord", 0]], ["mul", ["const", "2"], ["coord", 1]]], 2
    )
    vals = f.evaluate_batch(np.array([[1.0, 3.0], [-4.0, 0.0]]))
    assert vals[0] == 6.0 and vals[1] == 4.0


# ---------------------------------------------------------------------------
# serialization and constructors
# ---------------------------------------------------------------------------


def test_json_round_trips():
    rng = np.random.default_rng(13)
    pa = oracles.rand_pa(rng, 2)
    pa2 = PAConvexFunction.from_json(pa.to_json())
    assert pa2.pieces == pa.pieces
    x = oracles.rand_vector(rng, 2)
    assert pa2.evaluate(x) == pa.evaluate(x)

    dc = DCFunction(abs_function(), linear_function(["1"]))
    dc2 = function_from_json(dc.to_json())
    assert isinstance(dc2, DCFunction)
    assert dc2.evaluate((F(3),)) == dc.evaluate((F(3),))

    bb = BlackBoxFunction(["abs", ["coord", 0]], 1)
    bb2 = function_from_json(bb.to_json())
    assert isinstance(bb2, BlackBoxFunction)
    boxed = BlackBoxFunction(["abs", ["coord", 0]], 1, [(-1, 2)])
    boxed2 = function_from_json(boxed.to_json())
    assert boxed2.box == [(-1.0, 2.0)] and boxed2.to_json() == boxed.to_json()
    xs = np.array([[-2.0], [-0.5], [2.0], [3.0]])
    assert boxed2.evaluate_batch(xs).tolist() == boxed.evaluate_batch(xs).tolist() == [np.inf, 0.5, 2.0, np.inf]

    with pytest.raises(ParseError):
        function_from_json({"type": "mystery"})


BAD_DOMAIN = {"dim": 1, "rows": []}
DOMAIN_1 = {"dim": 1, "hrep": [{"normal": ["1"], "offset": "1"}]}
MIXED = [{"slope": ["1", "2"], "intercept": "0"}, {"slope": ["1"], "intercept": "0"}]


@pytest.mark.parametrize(
    "pieces, domain, error, message",
    [
        ([{"slope": ["x"], "intercept": "0"}], BAD_DOMAIN, ParseError, "bad rational literal 'x'"),
        (MIXED[:1] + [{"slope": ["1/0"], "intercept": "0"}], None, ParseError, "bad rational literal '1/0'"),
        ([], BAD_DOMAIN, ParseError, "polyhedron needs an 'hrep' or a 'vrep'"),
        (MIXED, BAD_DOMAIN, ParseError, "polyhedron needs an 'hrep' or a 'vrep'"),
        ([], DOMAIN_1, ParseError, "a piecewise-affine function needs at least one piece"),
        (MIXED, DOMAIN_1, DimensionMismatch, "pieces have mixed dimensions"),
        (MIXED[:1], DOMAIN_1, DimensionMismatch, "domain dimension does not match pieces"),
    ],
    ids=["piece+domain", "piece+mixed", "empty+domain", "mixed+domain", "empty+dim", "mixed+dim", "dim"],
)
def test_pa_from_json_reports_the_first_error(pieces, domain, error, message):
    """Each piece parses before the domain, and the domain before the
    piece-count, mixed-dimension and domain-dimension checks."""
    obj = {"type": "pa_convex", "pieces": pieces}
    if domain is not None:
        obj["domain"] = domain
    with pytest.raises(error) as info:
        PAConvexFunction.from_json(obj)
    assert type(info.value) is error and str(info.value) == message


def test_norm_constructors():
    l1 = l1_norm_function(2)
    assert l1.evaluate((F(-2), F(3))) == F(5)
    linf = linf_norm_function(2)
    assert linf.evaluate((F(-2), F(3))) == F(3)
    # sup-norm subdifferential at 0 is the cross-polytope
    sub = linf.subdifferential_at((F(0), F(0)))
    assert set(sub.vertices) == {
        (F(1), F(0)),
        (F(-1), F(0)),
        (F(0), F(1)),
        (F(0), F(-1)),
    }
    lin = linear_function(["2", "-1"], "3")
    assert lin.evaluate((F(1), F(1))) == F(4)
