"""Exact rational scalars and small dense vectors.

Scalars are ``fractions.Fraction`` throughout; vectors are plain tuples of
Fractions.  Everything here is pure.  The exact layers (polyhedra, PA
functions, norm lists and LP rows) hold ints (see ``primitive_ints``), run
every operation on them, and use these helpers only at their boundary.
"""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction
from math import gcd, isfinite, isnan, lcm
from typing import Iterable, Sequence

from .errors import ParseError

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text) -> Fraction:
    """Parse ``"p/q"`` / ``"p"`` strings (ints accepted verbatim)."""
    if isinstance(text, bool):
        raise ParseError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if isinstance(text, str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {text!r}") from exc
    raise ParseError(f"not a rational: {text!r}")


def to_float(value) -> float:
    """A real input as a float; an exact value beyond float range is bad input."""
    try:
        return float(value)
    except OverflowError as exc:
        raise ParseError("number out of float range") from exc


def format_rational(value: Fraction) -> str:
    """Render canonically: integers bare, otherwise ``p/q`` in lowest terms."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def to_json_value(value):
    """A report value as JSON data.

    Fractions become canonical ``p/q`` strings, tuples become lists, and
    non-finite floats become ``"inf"``, ``"-inf"`` or ``"nan"``; an object
    with a ``to_json`` method writes itself.
    """
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, float) and not isfinite(value):
        return "nan" if isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, (list, tuple)):
        return [to_json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: to_json_value(v) for k, v in value.items()}
    if hasattr(value, "to_json"):
        return value.to_json()
    return value


def record_json(record, *properties: str) -> dict:
    """A dataclass record as JSON: each field, then each named property."""
    names = [f.name for f in fields(record)] + list(properties)
    return {name: to_json_value(getattr(record, name)) for name in names}


def parse_vector(items: Sequence, dim: int | None = None) -> Vector:
    """Parse a list or tuple of rationals; strings and scalars are rejected."""
    if not isinstance(items, (list, tuple)):
        raise ParseError(f"not a vector: {items!r}")
    vec = tuple(parse_rational(x) for x in items)
    if dim is not None and len(vec) != dim:
        raise ParseError(f"expected a vector of length {dim}, got {len(vec)}")
    return vec


def format_vector(vec: Sequence[Fraction]) -> list[str]:
    return [format_rational(x) for x in vec]


def vzero(dim: int) -> Vector:
    return (ZERO,) * dim


def vadd(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vneg(a: Sequence[Fraction]) -> Vector:
    return tuple(-x for x in a)


def vscale(c: Fraction, a: Sequence[Fraction]) -> Vector:
    return tuple(c * x for x in a)


def vdot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    total = ZERO
    for x, y in zip(a, b):
        if x and y:
            total += x * y
    return total


def is_zero_vector(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


def primitive_ints(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Coprime integers on the ray of `vec`; all zeros for a zero vector."""
    denom_lcm = lcm(*(x.denominator for x in vec))
    nums = [x.numerator * (denom_lcm // x.denominator) for x in vec]
    g = gcd(*nums)
    return tuple(n // g for n in nums) if g > 1 else tuple(nums)


def primitive(vec: Sequence[Fraction]) -> Vector:
    """Scale by a positive rational to coprime integers (direction kept)."""
    return tuple(map(Fraction, primitive_ints(vec)))


def rref(rows: Iterable[Sequence[Fraction]]) -> list[Vector]:
    """Reduced row echelon form over Q; zero rows dropped.

    The output is the canonical basis of the row space, so two generating
    sets of the same subspace always reduce to identical lists.
    """
    mat = [list(r) for r in rows if not is_zero_vector(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        sel = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
        inv = ONE / mat[pivot_row][col]
        mat[pivot_row] = [inv * x for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    out = [tuple(row) for row in mat[:pivot_row] if not is_zero_vector(row)]
    return out
