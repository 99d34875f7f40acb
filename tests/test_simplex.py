"""Direct tests of the exact two-phase simplex ``solve_lp``."""

from fractions import Fraction as F

import pytest

from subgrad import simplex
from subgrad.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


def fracs(rows):
    return [[F(v) for v in row] for row in rows]


def assert_optimal(res, objective, value, a_ub=(), b_ub=(), a_eq=(), b_eq=(), nonneg=None):
    """Status optimal, the stated value, and a point that meets every
    constraint and attains that value."""
    assert res.status == OPTIMAL
    assert res.value == F(value)
    x = res.x
    assert len(x) == len(objective)
    assert sum(c * v for c, v in zip(objective, x)) == res.value
    for row, b in zip(a_ub, b_ub):
        assert sum(a * v for a, v in zip(row, x)) <= b
    for row, b in zip(a_eq, b_eq):
        assert sum(a * v for a, v in zip(row, x)) == b
    for v, flag in zip(x, nonneg or ()):
        assert not flag or v >= 0


def test_optimal_with_free_variables():
    # min x + y with x >= 1, y >= 2 and x, y free
    a_ub, b_ub = fracs([[-1, 0], [0, -1]]), [F(-1), F(-2)]
    res = solve_lp([F(1), F(1)], a_ub, b_ub)
    assert_optimal(res, [1, 1], 3, a_ub, b_ub)
    assert res.x == (F(1), F(2))


def test_optimal_with_nonnegative_variables():
    # max x + y over x + 2y <= 4, 3x + y <= 6, x, y >= 0: the vertex (8/5, 6/5)
    a_ub, b_ub = fracs([[1, 2], [3, 1]]), [F(4), F(6)]
    res = solve_lp([F(-1), F(-1)], a_ub, b_ub, nonneg=[True, True])
    assert_optimal(res, [-1, -1], F(-14, 5), a_ub, b_ub, nonneg=[True, True])
    assert res.x == (F(8, 5), F(6, 5))


@pytest.mark.parametrize(
    "a_ub, b_ub, nonneg",
    [
        ([[1], [-1]], [1, -2], None),  # x <= 1 and x >= 2
        ([[1, 1]], [-1], [True, True]),  # x + y <= -1 with x, y >= 0
    ],
    ids=["free", "nonneg"],
)
def test_infeasible(a_ub, b_ub, nonneg):
    n = len(a_ub[0])
    res = solve_lp([F(0)] * n, fracs(a_ub), [F(b) for b in b_ub], nonneg=nonneg)
    assert res.status == INFEASIBLE
    assert res.x is None and res.value is None


@pytest.mark.parametrize(
    "objective, a_ub, b_ub, nonneg",
    [
        ([1], [[1]], [5], None),  # min x with x <= 5, x free
        ([-1, 0], [[1, -1]], [1], [True, True]),  # min -x with x - y <= 1, x, y >= 0
    ],
    ids=["free", "nonneg"],
)
def test_unbounded(objective, a_ub, b_ub, nonneg):
    res = solve_lp([F(c) for c in objective], fracs(a_ub), [F(b) for b in b_ub], nonneg=nonneg)
    assert res.status == UNBOUNDED
    assert res.x is None and res.value is None


def test_redundant_equality_drops_its_artificial(monkeypatch):
    # x + y = 2, its double and x - y = 0 with x, y >= 0: after phase 1 the
    # doubled row keeps an artificial basic at zero with no real column to
    # pivot on, so phase 2 runs without that row
    rows_seen = []
    original = simplex._bland_loop

    def recorded(tableau, basis, ncols):
        rows_seen.append(len(tableau) - 1)
        return original(tableau, basis, ncols)

    monkeypatch.setattr(simplex, "_bland_loop", recorded)
    a_eq, b_eq = fracs([[1, 1], [2, 2], [1, -1]]), [F(2), F(4), F(0)]
    res = solve_lp([F(1), F(2)], a_eq=a_eq, b_eq=b_eq, nonneg=[True, True])
    assert_optimal(res, [1, 2], 3, a_eq=a_eq, b_eq=b_eq, nonneg=[True, True])
    assert res.x == (F(1), F(1))
    assert rows_seen == [3, 2], "phase 1 on three rows, phase 2 on the two independent ones"


def test_beale_cycling_example_terminates_under_bland():
    # Beale (1955): Dantzig's largest-coefficient rule cycles here; Bland's
    # rule must reach the optimum -5/4 at (1, 0, 1, 0).
    objective = [F(-3, 4), F(20), F(-1, 2), F(6)]
    a_ub = [
        [F(1, 4), F(-8), F(-1), F(9)],
        [F(1, 2), F(-12), F(-1, 2), F(3)],
        [F(0), F(0), F(1), F(0)],
    ]
    b_ub = [F(0), F(0), F(1)]
    nonneg = [True] * 4
    res = solve_lp(objective, a_ub, b_ub, nonneg=nonneg)
    assert_optimal(res, objective, F(-5, 4), a_ub, b_ub, nonneg=nonneg)
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
    res = solve_lp([F(c) for c in objective], nonneg=nonneg)
    assert res.status == status
    if status == OPTIMAL:
        assert res.x == (F(0),) * len(objective) and res.value == 0
