"""Exact rational linear programming via the two-phase simplex method.

The tableau holds ints and one positive common denominator ``den``: its
true entries are ``rows[i][j] / den``.  Each pivot is the fraction-free
Edmonds–Bareiss update ``a_ij <- (a_ij * p - a_is * a_rj) / den``, whose
division is exact, followed by ``den <- |p|``; the tableau is negated when
the pivot ``p`` is negative.  This is the scheme of Avis's lrs (Bareiss
1968).  Fractions are built only for the returned point and value.

A ``<=`` row with a nonnegative right-hand side starts on its slack, so
only ``=`` rows and negated ``<=`` rows get artificials, and phase 1 runs
only when some row has one.  A free variable keeps one column: it may enter
increasing or decreasing, and the ratio test skips rows whose basic
variable is free, so once basic it never leaves.  Bland's rule picks the
entering and the leaving column, so no pivot sequence cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InternalCheckError
from .rationals import Vector

__all__ = ["LPResult", "solve_lp"]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    x: Vector | None = None
    value: Fraction | None = None


@dataclass
class _Tableau:
    """Int rows ``(coefficients..., rhs)`` over the common denominator
    ``den``, the objective (to minimize) last, with each row's basic column
    in ``basis``; ``free[j]`` marks the columns of free variables."""

    rows: list[list[int]]
    basis: list[int]
    free: list[bool]
    den: int = 1


def _pivot(tab: _Tableau, row: int, col: int) -> None:
    rows, den = tab.rows, tab.den
    p = rows[row][col]
    if p < 0:
        rows[row] = [-v for v in rows[row]]
        p = -p
    pivot_row = rows[row]
    for r, tr in enumerate(rows):
        if r == row:
            continue
        f = tr[col]
        if f:
            rows[r] = [(v * p - f * w) // den for v, w in zip(tr, pivot_row)]
        elif p != den:
            rows[r] = [v * p // den for v in tr]
    tab.den = p
    tab.basis[row] = col


def _bland_loop(tab: _Tableau, ncols: int) -> str:
    # Optimal once no column may enter: every reduced cost is nonnegative,
    # and zero on the free columns.
    rows, basis, free = tab.rows, tab.basis, tab.free
    while True:
        obj = rows[-1]
        enter = -1
        for j in range(ncols):
            if obj[j] < 0 or (obj[j] > 0 and free[j]):
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        # A column entering decreasing meets the rows where it has a
        # negative entry; ratios b_i / |a_i| compare by cross-multiplying.
        sign = 1 if obj[enter] < 0 else -1
        leave = -1
        best_b = best_a = 0
        for i in range(len(rows) - 1):
            a = sign * rows[i][enter]
            if a > 0 and not free[basis[i]]:
                b = rows[i][-1]
                if leave < 0 or b * best_a < best_b * a or (
                    b * best_a == best_b * a and basis[i] < basis[leave]
                ):
                    leave, best_b, best_a = i, b, a
        if leave < 0:
            return UNBOUNDED
        _pivot(tab, leave, enter)


def solve_lp(
    objective: Sequence[int],
    ub: Sequence[Sequence[int]] = (),
    eq: Sequence[Sequence[int]] = (),
    nonneg: Sequence[bool] | None = None,
) -> LPResult:
    """Minimize ``objective . x`` over the int rows ``(a..., b)`` of ``ub``
    (``a . x <= b``) and of ``eq`` (``a . x = b``).

    Variables are free unless flagged in ``nonneg``.  Returns an LPResult
    whose status is one of optimal / infeasible / unbounded; the reported
    point is exact.
    """
    nvars = len(objective)
    if nonneg is None:
        nonneg = [False] * nvars
    # Columns: one per variable, then one slack per <= row; artificials are
    # basic only, so they get a basis index past the columns but no column.
    nslack = len(ub)
    ncols = nvars + nslack
    free = [not flag for flag in nonneg] + [False] * nslack
    rows: list[list[int]] = []
    basis: list[int] = []
    for i, row in enumerate([*ub, *eq]):
        slack = [0] * nslack
        if i < nslack:
            slack[i] = 1
        r = [*row[:-1], *slack, row[-1]]
        on_slack = i < nslack and r[-1] >= 0
        rows.append(r if r[-1] >= 0 else [-v for v in r])
        basis.append(nvars + i if on_slack else ncols + i)
    tab = _Tableau(rows, basis, free + [False] * len(rows))

    artificial = [i for i, b in enumerate(basis) if b >= ncols]
    if artificial:
        # Phase 1: minimize the sum of the artificials.
        obj1 = [0] * (ncols + 1)
        for i in artificial:
            obj1 = [v - w for v, w in zip(obj1, rows[i])]
        rows.append(obj1)
        if _bland_loop(tab, ncols) != OPTIMAL:
            raise InternalCheckError("phase-1 objective is bounded by construction")
        if tab.rows[-1][-1] != 0:
            return LPResult(INFEASIBLE)
        tab.rows.pop()

        # Drive surviving artificials out of the basis (degenerate pivots).
        drop_rows = []
        for i in artificial:
            if tab.basis[i] >= ncols:
                col = next((j for j in range(ncols) if tab.rows[i][j] != 0), None)
                if col is None:
                    drop_rows.append(i)
                else:
                    _pivot(tab, i, col)
        for i in reversed(drop_rows):
            del tab.rows[i]
            del tab.basis[i]

    # Phase 2: the reduced costs of the objective, times den.
    cost = [*objective] + [0] * (nslack + 1)
    den = tab.den
    obj2 = [c * den for c in cost]
    for r, b in zip(tab.rows, tab.basis):
        cb = cost[b]
        if cb:
            obj2 = [v - cb * w for v, w in zip(obj2, r)]
    tab.rows.append(obj2)
    if _bland_loop(tab, ncols) == UNBOUNDED:
        return LPResult(UNBOUNDED)

    den = tab.den
    x = [Fraction(0)] * nvars
    for r, b in zip(tab.rows, tab.basis):
        if b < nvars:
            x[b] = Fraction(r[-1], den)
    return LPResult(OPTIMAL, tuple(x), Fraction(-tab.rows[-1][-1], den))
