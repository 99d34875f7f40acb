"""Exact rational linear programming via the two-phase simplex method.

Dense Fraction tableaus with Bland's anti-cycling pivot rule.  Problem sizes
in this package are tiny (tens of rows/columns), so clarity beats speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .rationals import ZERO, ONE, Vector

__all__ = ["LPResult", "solve_lp"]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    x: Vector | None = None
    value: Fraction | None = None


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    inv = ONE / piv
    tableau[row] = [inv * v for v in tableau[row]]
    pivot_row = tableau[row]
    for r, tr in enumerate(tableau):
        if r != row and tr[col] != 0:
            f = tr[col]
            tableau[r] = [v - f * w for v, w in zip(tr, pivot_row)]
    basis[row] = col


def _bland_loop(tableau: list[list[Fraction]], basis: list[int], ncols: int) -> str:
    # Objective (to minimize) sits in the last row; optimal once every
    # reduced cost is nonnegative.
    while True:
        obj = tableau[-1]
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave = -1
        best: Fraction | None = None
        for i in range(len(tableau) - 1):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED
        _pivot(tableau, basis, leave, enter)


def solve_lp(
    objective: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
    nonneg: Sequence[bool] | None = None,
) -> LPResult:
    """Minimize ``objective . x`` over ``a_ub x <= b_ub``, ``a_eq x = b_eq``.

    Variables are free unless flagged in ``nonneg``.  Returns an LPResult
    whose status is one of optimal / infeasible / unbounded; the reported
    point is exact.
    """
    nvars = len(objective)
    if nonneg is None:
        nonneg = [False] * nvars
    # Column layout: each free variable contributes a +/- pair.
    col_of: list[tuple[int, int | None]] = []
    ncols = 0
    for j in range(nvars):
        if nonneg[j]:
            col_of.append((ncols, None))
            ncols += 1
        else:
            col_of.append((ncols, ncols + 1))
            ncols += 2
    nslack = len(a_ub)
    slack0 = ncols
    ncols += nslack

    def expand(row: Sequence[Fraction]) -> list[Fraction]:
        out = [ZERO] * ncols
        for j, v in enumerate(row):
            if v == 0:
                continue
            pos, neg = col_of[j]
            out[pos] = v
            if neg is not None:
                out[neg] = -v
        return out

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i, row in enumerate(a_ub):
        r = expand(row)
        r[slack0 + i] = ONE
        rows.append(r)
        rhs.append(Fraction(b_ub[i]))
    for i, row in enumerate(a_eq):
        rows.append(expand(row))
        rhs.append(Fraction(b_eq[i]))

    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]

    m = len(rows)
    art0 = ncols
    tableau = [rows[i] + [ONE if k == i else ZERO for k in range(m)] + [rhs[i]] for i in range(m)]
    basis = [art0 + i for i in range(m)]
    total = ncols + m

    # Phase 1: minimize the sum of artificials.
    obj1 = [ZERO] * (total + 1)
    for i in range(m):
        obj1 = [v - w for v, w in zip(obj1, tableau[i])]
    for k in range(m):
        obj1[art0 + k] = ZERO
    tableau.append(obj1)
    if _bland_loop(tableau, basis, ncols) != OPTIMAL:
        raise AssertionError("phase-1 objective is bounded by construction")
    if tableau[-1][-1] != 0:
        return LPResult(INFEASIBLE)
    tableau.pop()

    # Drive surviving artificials out of the basis (degenerate pivots).
    drop_rows = []
    for i in range(m):
        if basis[i] >= art0:
            col = next((j for j in range(ncols) if tableau[i][j] != 0), None)
            if col is None:
                drop_rows.append(i)
            else:
                _pivot(tableau, basis, i, col)
    for i in reversed(drop_rows):
        del tableau[i]
        del basis[i]

    # Strip artificial columns.
    tableau = [row[:ncols] + [row[-1]] for row in tableau]

    # Phase 2.
    cost = [ZERO] * (ncols + 1)
    for j, c in enumerate(objective):
        if c == 0:
            continue
        pos, neg = col_of[j]
        cost[pos] += c
        if neg is not None:
            cost[neg] -= c
    obj2 = list(cost)
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb != 0:
            obj2 = [v - cb * w for v, w in zip(obj2, tableau[i])]
    tableau.append(obj2)
    status = _bland_loop(tableau, basis, ncols)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)

    solution_cols = [ZERO] * ncols
    for i, b in enumerate(basis):
        solution_cols[b] = tableau[i][-1]
    x = []
    for j in range(nvars):
        pos, neg = col_of[j]
        v = solution_cols[pos]
        if neg is not None:
            v -= solution_cols[neg]
        x.append(v)
    return LPResult(OPTIMAL, tuple(x), -tableau[-1][-1])
