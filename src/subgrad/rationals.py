"""Exact rational scalars and small dense vectors, and the JSON boundary.

Scalars are ``fractions.Fraction`` throughout; vectors are plain tuples of
Fractions.  Everything here is pure.  The exact layers (polyhedra, PA
functions, norm lists and LP rows) hold ints (see ``primitive_ints``), run
every operation on them, and use these helpers only at their boundary.
This module is also the one place where outside text becomes exact values
(every input object is read through ``read_field``) and exact values become
text.
"""

from __future__ import annotations

import sys
from dataclasses import fields
from fractions import Fraction
from math import gcd, isfinite, isnan, lcm
from numbers import Integral, Real
from typing import Iterable, Sequence

from .errors import CapExceeded, NegativeEps, ParseError

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

# the interpreter's int-to-text digit limit, or 0 (none) before Python 3.10.7
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


# each JSON kind a field may be asked for: the types it admits (a builtin
# first, which isinstance tests fastest), and its name in a message
_KINDS = {list: ((list, tuple), "a list"), dict: (dict, "an object"), int: ((int, Integral), "an integer"),
          float: ((float, int, Real), "a number")}
_REQUIRED = object()


def has_kind(value, kind: type) -> bool:
    """Whether `value` is of a JSON kind: list (or tuple), dict, int or float
    (any real); a bool is neither an int nor a float."""
    return isinstance(value, _KINDS[kind][0]) and not isinstance(value, bool)


def read_field(obj, what: str, name: str, kind: type | None = None, default=_REQUIRED):
    """Field `name` of the JSON object `obj`, called `what` in messages: an
    absent or null field takes `default` or is missing, a present one must be
    of `kind`, when given, and each failure is a ParseError naming both."""
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be a JSON object with field {name!r}, got {type(obj).__name__}")
    value = obj.get(name)
    if value is None:
        if default is _REQUIRED:
            raise ParseError(f"{what} is missing field {name!r}")
        return default
    if kind is not None and not has_kind(value, kind):
        raise ParseError(f"{what} field {name!r} must be {_KINDS[kind][1]}, got {type(value).__name__}")
    return value


def parse_rational(text) -> Fraction:
    """Parse ``"p/q"`` / ``"p"`` strings (ints accepted verbatim)."""
    if isinstance(text, Fraction):
        return text
    if has_kind(text, int):
        return Fraction(text)
    if isinstance(text, str):
        s = text.strip()
        exp = s.lower().partition("e")[2]
        try:
            # Fraction builds 10**exp before anything could cap it
            if exp and 0 < _max_str_digits() < abs(int(exp)):
                raise ValueError("exponent past the int-to-text digit limit")
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {text!r}") from exc
    raise ParseError(f"not a rational: got {type(text).__name__}")


def parse_radius(value, name: str, positive: bool = False) -> Fraction:
    """Parse a radius (eps, eta, mu, alpha) and decide its sign on the exact
    value: it must be nonnegative, or positive when ``positive`` is set."""
    r = parse_rational(value)
    if r < 0 or (positive and r == 0):
        rule = "positive" if positive else "nonnegative"
        raise NegativeEps(f"{name} must be {rule}, got {format_rational(r, elide=True)}")
    return r


def to_float(value) -> float:
    """A real number as a float; anything else, or one beyond float range, is bad input."""
    if not has_kind(value, float):
        raise ParseError(f"expected a real number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ParseError("number out of float range") from exc


def format_rational(value: Fraction, elide: bool = False) -> str:
    """Render canonically: integers bare, otherwise ``p/q`` in lowest terms.
    A term past the interpreter's int-to-text digit limit is a cap, or with
    `elide`, for an error message that must keep its own type, ``...``."""
    try:
        return str(value)
    except ValueError as exc:
        if not elide:
            raise CapExceeded("an exact value has a term past the int-to-text digit limit") from exc
    terms = (value.numerator,) if value.denominator == 1 else (value.numerator, value.denominator)
    return "/".join(_elided(t) for t in terms)


def _elided(n: int) -> str:
    try:
        return str(n)
    except ValueError:
        return "-..." if n < 0 else "..."


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
        raise ParseError(f"not a vector: got {type(items).__name__}")
    vec = tuple(parse_rational(x) for x in items)
    if dim is not None and len(vec) != dim:
        raise ParseError(f"expected a vector of length {dim}, got {len(vec)}")
    return vec


def format_vector(vec: Sequence[Fraction]) -> list[str]:
    return [format_rational(x) for x in vec]


def format_point(vec: Sequence[Fraction], elide: bool = False) -> str:
    """A vector as text, ``(1/2, 0)``; `elide` as in ``format_rational``."""
    return "(" + ", ".join(format_rational(x, elide) for x in vec) + ")"


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
