"""Direct tests of the exact two-phase simplex ``solve_lp``, which takes int
rows ``(coefficients..., bound)``.  A rational LP is scaled to ints row by
row with ``primitive_ints``, and its objective by the lcm L of the
objective's denominators, which multiplies the optimal value by L."""

from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from subgrad import simplex
from subgrad.errors import InternalCheckError
from subgrad.rationals import primitive_ints
from subgrad.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


def int_rows(a, b):
    """The rows ``a x (<= or =) b`` as coprime int rows ``(a..., b)`` on
    their rays; a positive scale keeps both kinds of row."""
    return [primitive_ints([*map(F, row), F(rhs)]) for row, rhs in zip(a, b)]


def int_objective(objective):
    """The objective times the lcm L of its denominators, and L."""
    scale = lcm(*(F(c).denominator for c in objective))
    return [int(F(c) * scale) for c in objective], scale


def assert_optimal(res, objective, value, ub=(), eq=(), nonneg=None):
    """Status optimal, the stated value, and a point that meets every
    constraint and attains that value."""
    assert res.status == OPTIMAL
    assert res.value == F(value)
    x = res.x
    assert len(x) == len(objective)
    assert sum(c * v for c, v in zip(objective, x)) == res.value
    for *row, b in ub:
        assert sum(a * v for a, v in zip(row, x)) <= b
    for *row, b in eq:
        assert sum(a * v for a, v in zip(row, x)) == b
    for v, flag in zip(x, nonneg or ()):
        assert not flag or v >= 0


def test_optimal_with_free_variables():
    # min x + y with x >= 1, y >= 2 and x, y free
    ub = [(-1, 0, -1), (0, -1, -2)]
    res = solve_lp([1, 1], ub)
    assert_optimal(res, [1, 1], 3, ub)
    assert res.x == (F(1), F(2))


def test_optimal_with_nonnegative_variables():
    # max x + y over x + 2y <= 4, 3x + y <= 6, x, y >= 0: the vertex (8/5, 6/5)
    ub = [(1, 2, 4), (3, 1, 6)]
    res = solve_lp([-1, -1], ub, nonneg=[True, True])
    assert_optimal(res, [-1, -1], F(-14, 5), ub, nonneg=[True, True])
    assert res.x == (F(8, 5), F(6, 5))


@pytest.mark.parametrize(
    "ub, nonneg",
    [
        ([(1, 1), (-1, -2)], None),  # x <= 1 and x >= 2
        ([(1, 1, -1)], [True, True]),  # x + y <= -1 with x, y >= 0
    ],
    ids=["free", "nonneg"],
)
def test_infeasible(ub, nonneg):
    res = solve_lp([0] * (len(ub[0]) - 1), ub, nonneg=nonneg)
    assert res.status == INFEASIBLE
    assert res.x is None and res.value is None


@pytest.mark.parametrize(
    "objective, ub, nonneg",
    [
        ([1], [(1, 5)], None),  # min x with x <= 5, x free
        ([-1, 0], [(1, -1, 1)], [True, True]),  # min -x with x - y <= 1, x, y >= 0
    ],
    ids=["free", "nonneg"],
)
def test_unbounded(objective, ub, nonneg):
    res = solve_lp(objective, ub, nonneg=nonneg)
    assert res.status == UNBOUNDED
    assert res.x is None and res.value is None


def test_redundant_equality_drops_its_artificial(monkeypatch):
    # x + y = 2, its double and x - y = 0 with x, y >= 0: after phase 1 the
    # doubled row keeps an artificial basic at zero with no real column to
    # pivot on, so phase 2 runs without that row
    rows_seen = []
    original = simplex._bland_loop

    def recorded(tab, ncols):
        rows_seen.append(len(tab.rows) - 1)
        return original(tab, ncols)

    monkeypatch.setattr(simplex, "_bland_loop", recorded)
    eq = [(1, 1, 2), (2, 2, 4), (1, -1, 0)]
    res = solve_lp([1, 2], eq=eq, nonneg=[True, True])
    assert_optimal(res, [1, 2], 3, eq=eq, nonneg=[True, True])
    assert res.x == (F(1), F(1))
    assert rows_seen == [3, 2], "phase 1 on three rows, phase 2 on the two independent ones"


def test_slack_start_skips_phase_one(monkeypatch):
    # every row is <= with a nonnegative right-hand side, so the slacks are a
    # feasible basis and only phase 2 runs
    loops = []
    original = simplex._bland_loop

    def recorded(tab, ncols):
        loops.append(len(tab.rows) - 1)
        return original(tab, ncols)

    monkeypatch.setattr(simplex, "_bland_loop", recorded)
    ub = [(1, 2, 4), (3, 1, 6)]
    res = solve_lp([-1, -1], ub, nonneg=[True, True])
    assert_optimal(res, [-1, -1], F(-14, 5), ub, nonneg=[True, True])
    assert loops == [2], "one Bland loop, phase 2 on both rows"


def test_free_variable_enters_decreasing():
    # min x with x >= -3 and x free: its reduced cost is positive, so x enters
    # the basis decreasing and stops at the one row where it has a negative entry
    ub = [(-1, 3)]
    res = solve_lp([1], ub)
    assert_optimal(res, [1], -3, ub)
    assert res.x == (F(-3),)


def test_phase_one_unbounded_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(simplex, "_bland_loop", lambda tab, ncols: UNBOUNDED)
    with pytest.raises(InternalCheckError, match="phase-1"):
        solve_lp([1], eq=[(1, 2)])


def test_beale_cycling_example_terminates_under_bland():
    # Beale (1955): Dantzig's largest-coefficient rule cycles here; Bland's
    # rule must reach the optimum -5/4 at (1, 0, 1, 0).
    objective, scale = int_objective([F(-3, 4), F(20), F(-1, 2), F(6)])
    ub = int_rows(
        [
            [F(1, 4), F(-8), F(-1), F(9)],
            [F(1, 2), F(-12), F(-1, 2), F(3)],
            [F(0), F(0), F(1), F(0)],
        ],
        [F(0), F(0), F(1)],
    )
    nonneg = [True] * 4
    res = solve_lp(objective, ub, nonneg=nonneg)
    assert_optimal(res, objective, F(-5, 4) * scale, ub, nonneg=nonneg)
    assert res.x == (F(1), F(0), F(1), F(0))


@pytest.mark.parametrize(
    "objective, nonneg, status",
    [
        ([], None, OPTIMAL),
        ([0, 0], None, OPTIMAL),
        ([1], None, UNBOUNDED),  # a free variable with a nonzero cost
        ([-1], None, UNBOUNDED),
        ([1], [True], OPTIMAL),
        ([-1], [True], UNBOUNDED),  # x >= 0 with a negative cost
        ([2, 0], [True, False], OPTIMAL),
        ([0, 1], [True, False], UNBOUNDED),
    ],
)
def test_unconstrained(objective, nonneg, status):
    res = solve_lp(objective, nonneg=nonneg)
    assert res.status == status
    if status == OPTIMAL:
        assert res.x == (F(0),) * len(objective) and res.value == 0


small_entries = st.integers(min_value=-3, max_value=3)
small_rationals = st.one_of(
    small_entries,
    st.builds(F, small_entries, st.integers(min_value=1, max_value=3)),
).map(F)


@st.composite
def lp_problems(draw):
    """Free and nonneg variables; <= and = rows whose right-hand sides may be
    negative; duplicated, scaled and redundant (summed) rows.  Most rows pass
    through or above one drawn point, so the system is often feasible, and
    rows tight at that point make it a degenerate vertex once more than n of
    them meet there; rows with an arbitrary right-hand side make some draws
    infeasible, and few rows leave others unbounded."""
    n = draw(st.integers(min_value=1, max_value=4))
    vec = st.lists(small_rationals, min_size=n, max_size=n)
    nonneg = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    point = [abs(x) if flag else x for x, flag in zip(draw(vec), nonneg)]

    def rows(max_size, gaps):
        out = []
        for a in draw(st.lists(vec, max_size=max_size)):
            gap = draw(st.sampled_from(gaps))
            b = draw(small_rationals) if gap is None else sum(x * y for x, y in zip(a, point)) + gap
            out.append((a, b))
        return out

    ub = rows(5, [None, 0, 0, 1, 2])
    eq = rows(2, [None, 0, 0])
    for kind in draw(st.lists(st.sampled_from(["dup", "scaled", "sum"]), max_size=3)):
        target = draw(st.sampled_from([ub, eq]))
        if not target:
            continue
        pick = st.integers(min_value=0, max_value=len(target) - 1)
        a, b = target[draw(pick)]
        if kind == "scaled":
            c = draw(st.sampled_from([F(1, 2), F(2), F(3)] + ([F(-2)] if target is eq else [])))
            a, b = [c * x for x in a], c * b
        elif kind == "sum":
            a2, b2 = target[draw(pick)]
            a, b = [x + y for x, y in zip(a, a2)], b + b2
        target.insert(draw(st.integers(min_value=0, max_value=len(target))), (a, b))
    objective = draw(vec)
    return (
        objective,
        [a for a, _ in ub],
        [b for _, b in ub],
        [a for a, _ in eq],
        [b for _, b in eq],
        nonneg,
    )


@given(lp_problems())
@settings(max_examples=300, deadline=None)
def test_solve_lp_matches_fraction_reference(lp):
    # the reference solves the rational LP; its int form's value is L times
    objective, a_ub, b_ub, a_eq, b_eq, nonneg = lp
    want = oracles.solve_lp_reference(objective, a_ub, b_ub, a_eq, b_eq, nonneg)
    cost, scale = int_objective(objective)
    ub, eq = int_rows(a_ub, b_ub), int_rows(a_eq, b_eq)
    got = solve_lp(cost, ub, eq, nonneg)
    assert got.status == want.status
    if want.status == OPTIMAL:
        assert_optimal(got, cost, want.value * scale, ub, eq, nonneg)
    else:
        assert got.x is None and got.value is None
