"""Piecewise-affine convex functions, DC pairs, and black-box test functions.

Exact calculus lives here: subdifferentials of max-affine functions with
polyhedral domains, epsilon-enlargements, and two independent constructions
of the Dini-Hadamard epsilon-subdifferential of a difference g - h.

Derivation used by the definitional route
-----------------------------------------
For piecewise-affine convex g, h with polyhedral domains and a point xb in
dom g (dom g contained in dom h), the lower Dini-Hadamard derivative of
f = g - h is d-f(xb; d) = g'(xb; d) - h'(xb; d) on the tangent cone of dom g
and +inf off it.  Since g'(xb; .) is the support function of the subgradient
set of g at xb (and likewise for h), a functional u satisfies

    <u, d> <= d-f(xb; d) + eps * ||d||    for every direction d

if and only if  u + subdiff(h, xb)  is contained in  subdiff(g, xb) + eps*D,
with D the dual-norm unit ball.  That containment is what
``dc_dini_subdifferential_definitional`` computes, by intersecting translates
over the vertices of subdiff(h, xb) and guarding recession rays.  The erosion
route in ``dc_dini_subdifferential`` never shares code with it.

A PA function holds int rows ``(slope..., intercept)`` over one positive
denominator, and its exact calculus runs on these and on the kernel's int
forms: points as homogeneous ``(x..., t)``, each norm as its list of dual
vertices ``(w..., s)``.  Fractions are built only for parsed input, the
``pieces`` view and returned values.  The float evaluators
(``evaluate_batch`` and the helpers under it) serve the sampling probes only
and import NumPy when first called, so exact calculus never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import (
    CapExceeded,
    DimensionMismatch,
    EmptyDomain,
    EvaluationFailure,
    NegativeEps,
    ParseError,
    PointOutsideDomain,
    PointOutsideDomainInterior,
)
from .polykernel import (
    CAPS,
    L1,
    LINF,
    IntVector,
    NormSpec,
    Polyhedron,
    _check_product,
    _dual_vertices,
    _homogeneous,
    _normal_cone,
    _point,
    _satisfies,
    _strictly_inside,
    _translate,
    contains_polyhedron,
    dual_norm_ball,
    intersect,
    intersect_many,
    minkowski_sum,
    star_difference,
    strictly_contains_point,
)
from .rationals import (
    Vector,
    format_rational,
    format_vector,
    parse_rational,
    parse_vector,
    to_float,
    vdot,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class AffinePiece:
    """One affine minorant x -> <slope, x> + intercept."""

    slope: Vector
    intercept: Fraction

    @staticmethod
    def make(slope: Sequence, intercept) -> "AffinePiece":
        return AffinePiece(parse_vector(slope), parse_rational(intercept))

    def value_at(self, x: Vector) -> Fraction:
        return vdot(self.slope, x) + self.intercept


def _float_rows(rows: Sequence[Sequence[int]], dim: int, den: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Float (normals, offsets) of int rows ``(normal..., offset)`` over
    ``den``, for vectorised prefilters; an int quotient is rounded once."""
    import numpy as np

    try:
        table = np.array([[a / den for a in z] for z in rows], dtype=float).reshape(len(rows), dim + 1)
    except OverflowError as exc:
        raise ParseError("number out of float range") from exc
    return table[:, :dim], table[:, dim]


def _fold(ufunc, columns: Iterable[np.ndarray]) -> np.ndarray:
    """``ufunc`` folded over fresh 1-d arrays, in place into the first.

    The float evaluators reduce each row over a short axis (k pieces, d
    coordinates or m constraint rows), which NumPy does several times slower
    than one elementwise call per column along the batch axis.  Only exact
    reductions (max, and, or) come through here, so the order of the columns
    cannot change a value; float sums keep their row order.
    """
    it = iter(columns)
    out = next(it)
    for col in it:
        ufunc(out, col, out=out)
    return out


def _finite_rows(xs: np.ndarray) -> np.ndarray:
    """Mask of the rows of an (N, d) array whose coordinates are all finite."""
    import numpy as np

    return _fold(np.logical_and, map(np.isfinite, xs.T))


def _piece_rows(pieces: Sequence[AffinePiece]) -> tuple[list[IntVector], int]:
    """Parsed pieces as int rows ``(slope..., intercept)`` over one common
    denominator."""
    if not pieces:
        raise ParseError("a piecewise-affine function needs at least one piece")
    if len({len(p.slope) for p in pieces}) != 1:
        raise DimensionMismatch("pieces have mixed dimensions")
    den = math.lcm(*(v.denominator for p in pieces for v in (*p.slope, p.intercept)))
    return [tuple(v.numerator * (den // v.denominator) for v in (*p.slope, p.intercept)) for p in pieces], den


class PAConvexFunction:
    """Finite max of affine pieces on a polyhedral domain (+inf outside).

    A proper domain encodes f plus the indicator of the domain; the default
    domain is the whole space.  The distinct pieces are int rows ``(slope...,
    intercept)`` over one denominator ``_den > 0``, in first-occurrence order;
    ``pieces`` builds the public ``AffinePiece`` values from them.
    """

    __slots__ = ("_rows", "_den", "domain", "_float_cache")

    def __init__(self, pieces: Iterable, domain: Polyhedron | None = None):
        parsed = [AffinePiece.make(p.slope, p.intercept) if isinstance(p, AffinePiece) else AffinePiece.make(p[0], p[1])
                  for p in pieces]
        self._adopt(*_piece_rows(parsed), domain)

    @classmethod
    def _of_rows(cls, rows: Sequence[IntVector], den: int, domain: Polyhedron | None = None) -> "PAConvexFunction":
        """The function of int rows ``(slope..., intercept)`` over ``den > 0``."""
        f = cls.__new__(cls)
        f._adopt(rows, den, domain)
        return f

    def _adopt(self, rows: Sequence[IntVector], den: int, domain: Polyhedron | None) -> None:
        dim = len(rows[0]) - 1
        if domain is None:
            domain = Polyhedron.whole_space(dim)
        if domain.dim != dim:
            raise DimensionMismatch("domain dimension does not match pieces")
        g = math.gcd(den, *(a for z in rows for a in z))
        self._rows = tuple(dict.fromkeys(tuple(a // g for a in z) for z in rows))
        self._den = den // g
        self.domain = domain
        self._float_cache = None

    @property
    def dim(self) -> int:
        return len(self._rows[0]) - 1

    @property
    def pieces(self) -> tuple[AffinePiece, ...]:
        d = self._den
        return tuple(AffinePiece(tuple(Fraction(a, d) for a in z[:-1]), Fraction(z[-1], d)) for z in self._rows)

    # -- evaluation -------------------------------------------------------

    def _values(self, p: IntVector) -> list[int]:
        """Each piece's value at a homogeneous point ``(x..., t)``, times ``t·_den``."""
        return [sum(map(mul, z, p)) for z in self._rows]

    def evaluate(self, x: Sequence) -> Fraction | float:
        """Exact value; +inf outside the domain."""
        p = _homogeneous(parse_vector(x, self.dim))
        if not _satisfies(self.domain._rows, p):
            return math.inf
        return Fraction(max(self._values(p)), self._den * p[-1])

    def _float_data(self):
        if self._float_cache is None:
            slopes, intercepts = _float_rows(self._rows, self.dim, self._den)
            normals, offsets = _float_rows(self.domain._rows, self.dim)
            self._float_cache = (slopes, intercepts, normals, offsets)
        return self._float_cache

    def evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        """Float values for an (N, dim) array; +inf outside the domain."""
        import numpy as np

        xs = np.asarray(xs, dtype=float).reshape(-1, self.dim)
        slopes, intercepts, normals, offsets = self._float_data()
        # 0·inf or inf - inf at a row past float range is a NaN the probes drop.
        # The product stays batch-major: slopes @ xs.T runs on another BLAS
        # kernel, which gave some rows other values (13 pieces at d = 4)
        with np.errstate(invalid="ignore"):
            vals = _fold(np.maximum, (col + c for col, c in zip((xs @ slopes.T).T, intercepts)))
            if len(normals):
                outside = _fold(np.logical_or, (col > c for col, c in zip((xs @ normals.T).T, offsets)))
                vals[outside] = np.inf
        # the sign of a NaN from the product depends on the kernel, which
        # depends on the batch length; one sign keeps every row independent
        vals[np.isnan(vals)] = np.nan
        return vals

    # -- exact calculus ----------------------------------------------------

    def _active_rows(self, p: IntVector) -> list[IntVector]:
        """Rows attaining the max at a homogeneous point p (exact ties); the
        caller has tested that p is in the domain."""
        values = self._values(p)
        top = max(values)
        return [z for z, v in zip(self._rows, values) if v == top]

    def subdifferential_at(self, x: Sequence) -> Polyhedron:
        """conv{active slopes} + normal cone of the domain at x."""
        p = _homogeneous(parse_vector(x, self.dim))
        if not _satisfies(self.domain._rows, p):
            raise PointOutsideDomain(f"{_point(p)} is outside the effective domain")
        hull = Polyhedron(self.dim, raw_vrep=([z[:-1] + (self._den,) for z in self._active_rows(p)], ()))
        return minkowski_sum(hull, _normal_cone(self.domain, p))

    def eps_subdifferential_at(self, x: Sequence, eps, norm: NormSpec = L1) -> Polyhedron:
        """Dini-Hadamard eps-subdifferential: for a convex function this is
        the subdifferential fattened by the dual-norm ball of radius eps."""
        e = parse_rational(eps)
        if e < 0:
            raise NegativeEps(f"eps must be nonnegative, got {e}")
        sub = self.subdifferential_at(x)
        if e == 0:
            return sub
        return minkowski_sum(sub, dual_norm_ball(norm, e, self.dim))

    def directional_derivative(self, x: Sequence, h: Sequence) -> Fraction:
        """One-sided derivative at an interior point: max over active slopes."""
        xv = parse_vector(x, self.dim)
        p = _homogeneous(xv)
        # an interior point is in the domain, so that is the one test
        if not _strictly_inside(self.domain, p):
            raise PointOutsideDomainInterior(f"{xv} is not interior to the effective domain")
        # a direction h = (d..., s) for d / s, read like a point
        d = _homogeneous(parse_vector(h, self.dim))
        best = max(sum(map(mul, z, d[:-1])) for z in self._active_rows(p))
        return Fraction(best, self._den * d[-1])

    def restrict(self, a: Polyhedron) -> "PAConvexFunction":
        """Same pieces on the intersected domain (f plus an indicator)."""
        dom = intersect(self.domain, a)
        if dom.is_empty:
            raise EmptyDomain("restriction has an empty effective domain")
        return PAConvexFunction._of_rows(self._rows, self._den, dom)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        dom = self.domain
        is_whole = dom == Polyhedron.whole_space(self.dim)
        return {
            "type": "pa_convex",
            "pieces": [
                {"slope": format_vector(p.slope), "intercept": format_rational(p.intercept)}
                for p in self.pieces
            ],
            "domain": None if is_whole else dom.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PAConvexFunction":
        if not isinstance(obj, dict) or obj.get("type") != "pa_convex":
            raise ParseError("expected a pa_convex function object")
        raw = obj["pieces"]
        if not isinstance(raw, list) or not all(isinstance(p, dict) for p in raw):
            raise ParseError("'pieces' must be a list of piece objects")
        pieces = [AffinePiece.make(p["slope"], p["intercept"]) for p in raw]
        dom = obj.get("domain")
        domain = Polyhedron.from_json(dom) if dom is not None else None
        return cls._of_rows(*_piece_rows(pieces), domain)

    def __repr__(self) -> str:
        return f"PAConvexFunction(dim={self.dim}, pieces={len(self._rows)})"


def _plus(f: PAConvexFunction, rows: Sequence[IntVector], den: int, domain: Polyhedron) -> PAConvexFunction:
    """f plus the max of int rows over den, on domain: one piece per pair."""
    _check_product(len(f._rows), len(rows), "pieces of a sum")
    sums = [tuple(a * den + b * f._den for a, b in zip(p, q)) for p in f._rows for q in rows]
    return PAConvexFunction._of_rows(sums, f._den * den, domain)


def pa_sum(f: PAConvexFunction, g: PAConvexFunction) -> PAConvexFunction:
    """Pointwise sum via pairwise piece sums; domains intersect."""
    if f.dim != g.dim:
        raise DimensionMismatch("summands have different dimensions")
    dom = intersect(f.domain, g.domain)
    if dom.is_empty:
        raise EmptyDomain("sum has an empty effective domain")
    return _plus(f, g._rows, g._den, dom)


def f_eps_expand(f: PAConvexFunction, x: Sequence, eps, norm: NormSpec = L1) -> PAConvexFunction:
    """Exact PA form of f + eps * ||. - x||.

    ||y|| is the max of <w, y> over the vertices w of the dual unit ball, so
    each piece splits into one shifted piece per vertex.
    """
    e = parse_rational(eps)
    if e < 0:
        raise NegativeEps(f"eps must be nonnegative, got {e}")
    xb = _homogeneous(parse_vector(x, f.dim))
    if e == 0:
        return f
    ws = _dual_vertices(norm, f.dim)
    # eps·<w / s, . - xb / t> for each vertex (w..., s), over e.den·t·lcm(s)
    t, lcm_s = xb[-1], math.lcm(*(w[-1] for w in ws))
    shifts = []
    for w in ws:
        k = e.numerator * (lcm_s // w[-1])
        shifts.append(tuple(k * t * a for a in w[:-1]) + (-k * sum(map(mul, w, xb[:-1])),))
    return _plus(f, shifts, e.denominator * t * lcm_s, f.domain)


# ---------------------------------------------------------------------------
# DC pairs
# ---------------------------------------------------------------------------


class DCFunction:
    """Ordered pair (g, h) of PA convex functions; f = g - h.

    Requires dom g contained in dom h, so f is well defined with the
    convention (+inf) - (+inf) = +inf.
    """

    __slots__ = ("g", "h")

    def __init__(self, g: PAConvexFunction, h: PAConvexFunction):
        if g.dim != h.dim:
            raise DimensionMismatch("g and h have different dimensions")
        ok, witness = contains_polyhedron(h.domain, g.domain)
        if not ok:
            raise ParseError(f"dom g must be contained in dom h; {witness} escapes")
        self.g = g
        self.h = h

    @property
    def dim(self) -> int:
        return self.g.dim

    def evaluate(self, x: Sequence) -> Fraction | float:
        gv = self.g.evaluate(x)
        if gv == math.inf:
            return math.inf
        return gv - self.h.evaluate(x)

    def evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        import numpy as np

        gv = self.g.evaluate_batch(xs)
        hv = self.h.evaluate_batch(xs)
        # inf - inf where g is +inf, which is then +inf
        with np.errstate(invalid="ignore"):
            out = gv - hv
        return np.where(np.isinf(gv), np.inf, out)

    def to_json(self) -> dict:
        return {"type": "dc", "g": self.g.to_json(), "h": self.h.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "DCFunction":
        if not isinstance(obj, dict) or obj.get("type") != "dc":
            raise ParseError("expected a dc function object")
        return cls(
            PAConvexFunction.from_json(obj["g"]), PAConvexFunction.from_json(obj["h"])
        )

    def __repr__(self) -> str:
        return f"DCFunction(dim={self.dim})"


def dc_dini_subdifferential(
    dc: DCFunction, x: Sequence, eps=0, eta=0, norm: NormSpec = L1
) -> Polyhedron:
    """Erosion route: (eps+eta)-subdifferential of g eroded by the
    eta-subdifferential of h."""
    e = parse_rational(eps)
    n = parse_rational(eta)
    if e < 0 or n < 0:
        raise NegativeEps("eps and eta must be nonnegative")
    a = dc.g.eps_subdifferential_at(x, e + n, norm)
    b = dc.h.eps_subdifferential_at(x, n, norm)
    return star_difference(a, b)


def dc_dini_subdifferential_definitional(
    dc: DCFunction, x: Sequence, eps=0, norm: NormSpec = L1
) -> Polyhedron:
    """Independent route from the derivative definition.

    Membership of u reduces to u + subdiff(h) inside subdiff(g) + eps*D (see
    the module docstring), evaluated here by translate-and-intersect: every
    recession ray of subdiff(h) must recede in the target, and then the set
    is the intersection of target translates over the vertices of subdiff(h).
    """
    e = parse_rational(eps)
    if e < 0:
        raise NegativeEps(f"eps must be nonnegative, got {e}")
    dim = dc.dim
    target = dc.g.subdifferential_at(x)
    if e != 0:
        target = minkowski_sum(target, dual_norm_ball(norm, e, dim))
    b = dc.h.subdifferential_at(x).canonical()
    facets = target.canonical()._hrep
    for r in b._rays:
        if any(sum(map(mul, z, r)) > 0 for z in facets):
            return Polyhedron.empty(dim)
    # the translate by -v of each point v = (y..., s) of subdiff(h)
    _check_product(len(facets), len(b._points), "rows of the definitional route")
    return intersect_many([_translate(target, tuple(-y for y in v[:-1]) + v[-1:]) for v in b._points])


def hypothesis(text: str, holds: bool, provenance: str) -> dict:
    """One hypothesis-report entry: the hypothesis, whether it holds, and how
    that is known (by construction, by convexity, or by an exact test)."""
    return {"hypothesis": text, "status": "holds" if holds else "fails", "provenance": provenance}


def certified(report: Sequence[dict]) -> bool:
    """A theorem applies exactly when every hypothesis in its report holds."""
    return all(entry["status"] == "holds" for entry in report)


def dc_hypothesis_report(dc: DCFunction, x: Sequence) -> list[dict]:
    """Why the difference-formula equalities apply to this instance."""
    return [
        hypothesis("g piecewise-affine convex", True, "exact-by-construction"),
        hypothesis("h piecewise-affine convex", True, "exact-by-construction"),
        hypothesis("f = g - h calm at the point", True, "exact-by-convexity"),
        hypothesis("g and h directionally approximately starshaped at the point", True, "exact-by-convexity"),
        hypothesis("eps-subdifferential map of h spongiously gap-continuous", True, "exact-by-convexity"),
        hypothesis("point interior to dom g", strictly_contains_point(dc.g.domain, x), "exact"),
    ]


# ---------------------------------------------------------------------------
# Black-box expression functions for the sampling oracles
# ---------------------------------------------------------------------------

def _staircase_scalar(v: np.ndarray) -> np.ndarray:
    """Even 1-d test function: 0 at 0, +inf for |v| >= 1, and on (0, 1) a
    two-regime pattern indexed by m = ceil(1/v): slope 1/m segments through
    rational breakpoints for even m, and for odd m = 2n+1 the affine bridge
    (v - 1/(2n))/(2n+1) + 1/(2n)^2 with an upward jump at its left end."""
    import numpy as np

    av = np.abs(np.asarray(v, dtype=float))
    out = np.full(av.shape, np.inf)
    zero = av == 0.0
    out[zero] = 0.0
    inside = (av > 0.0) & (av < 1.0)
    a = av[inside]
    with np.errstate(divide="ignore"):
        m = np.ceil(1.0 / a)
    even = (m % 2.0) == 0.0
    vals = np.empty_like(a)
    vals[even] = a[even] / m[even]
    mo = m[~even]
    ao = a[~even]
    two_n = mo - 1.0
    vals[~even] = (ao - 1.0 / two_n) / mo + 1.0 / (two_n * two_n)
    out[inside] = vals
    return out


# The black-box operators: name -> (number of subexpressions, None for one
# or more; float body).  A body takes NumPy, the batch and the values of its
# subexpressions in order.  The leaves ["const", c] and ["coord", i] take a
# literal instead and are compiled by ``_compile``.
_OPS = {
    "neg": (1, lambda np, xs, a: -a),
    "abs": (1, lambda np, xs, a: np.abs(a)),
    "sqrtabs": (1, lambda np, xs, a: np.sqrt(np.abs(a))),
    "staircase": (1, lambda np, xs, a: _staircase_scalar(a)),
    "add": (2, lambda np, xs, a, b: a + b),
    "sub": (2, lambda np, xs, a, b: a - b),
    "mul": (2, lambda np, xs, a, b: a * b),
    "max": (None, lambda np, xs, *args: np.maximum.reduce(args)),
    "min": (None, lambda np, xs, *args: np.minimum.reduce(args)),
}


def _compile(node, dim: int, program: list) -> None:
    """Check one expression node and append its postfix steps to ``program``.

    A step ``(body, n)`` pops the last n values and pushes
    ``body(np, xs, *values)``; constants are parsed to floats here, once.
    """
    if not isinstance(node, (list, tuple)) or not node:
        raise ParseError(f"bad expression node {node!r}")
    op = node[0]
    if op == "const":
        c = node[1] if len(node) == 2 else None
        if isinstance(c, bool) or not isinstance(c, (str, int, float)):
            raise ParseError(f"const takes one number or rational string, got {node!r}")
        value = to_float(parse_rational(c) if isinstance(c, str) else c)
        if not math.isfinite(value):
            raise ParseError(f"const {c!r} is not a finite number")
        program.append((lambda np, xs: np.full(xs.shape[0], value), 0))
    elif op == "coord":
        i = node[1] if len(node) == 2 else None
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < dim:
            raise ParseError(f"coord takes one integer index in [0, {dim}), got {node!r}")
        program.append((lambda np, xs: xs[:, i], 0))
    else:
        arity, body = _OPS.get(op, (None, None)) if isinstance(op, str) else (None, None)
        if body is None:
            raise ParseError(f"unknown expression operator {op!r}")
        if len(node) == 1 or arity is not None and len(node) != arity + 1:
            raise ParseError(f"{op} takes {arity or 'one or more'} subexpressions, got {len(node) - 1}")
        for child in node[1:]:
            _compile(child, dim, program)
        program.append((body, len(node) - 1))


class BlackBoxFunction:
    """Expression tree evaluated in floating point, for the sampling probes.

    Grammar (prefix lists): ["const", c], ["coord", i], ["neg", e],
    ["abs", e], ["sqrtabs", e], ["staircase", e], ["add", a, b],
    ["sub", a, b], ["mul", a, b], ["max", e...], ["min", e...].
    A constant is a finite number or a rational string.  The tree is checked
    and compiled to a postfix program once, at construction.  The optional
    box domain sends points outside it to +inf; any other point with a
    non-finite coordinate evaluates to NaN, so the probes drop it.
    """

    __slots__ = ("expr", "dim", "box", "_program")

    def __init__(self, expr, dim: int, box: Sequence | None = None):
        if dim < 1:
            raise DimensionMismatch("dimension must be >= 1")
        if dim > CAPS.max_dim:
            raise CapExceeded(f"dimension {dim} exceeds cap {CAPS.max_dim}")
        self.expr = expr
        self.dim = dim
        if box is not None:
            box = [(to_float(lo), to_float(hi)) for lo, hi in box]
            if len(box) != dim:
                raise DimensionMismatch("box must have one (lo, hi) pair per coordinate")
            if any(math.isnan(v) for pair in box for v in pair):
                raise ParseError("box bounds must not be NaN")
        self.box = box
        self._program = []
        _compile(expr, dim, self._program)

    def evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        import numpy as np

        xs = np.asarray(xs, dtype=float).reshape(-1, self.dim)
        # a row past float range is not evaluated, so that inf - inf there
        # cannot read as a fault of the expression
        finite = _finite_rows(xs)
        run = xs if finite.all() else xs[finite]
        stack = []
        with np.errstate(invalid="raise", over="ignore"):
            try:
                for body, n in self._program:
                    args = stack[len(stack) - n:]
                    del stack[len(stack) - n:]
                    stack.append(body(np, run, *args))
            except FloatingPointError as exc:
                raise EvaluationFailure(str(exc)) from exc
        vals = stack.pop()
        if run is not xs:
            out = np.full(len(xs), np.nan)
            out[finite] = vals
            vals = out
        if self.box is not None:
            # a NaN coordinate compares false, so it is not outside
            outside = _fold(np.logical_or, ((col < lo) | (col > hi) for col, (lo, hi) in zip(xs.T, self.box)))
            vals = np.where(outside, np.inf, vals)
        return vals

    def to_json(self) -> dict:
        out = {"type": "blackbox", "expr": self.expr, "dim": self.dim}
        if self.box is not None:
            out["box"] = [[lo, hi] for lo, hi in self.box]
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "BlackBoxFunction":
        if not isinstance(obj, dict) or obj.get("type") != "blackbox":
            raise ParseError("expected a blackbox function object")
        dim, box = obj["dim"], obj.get("box")
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ParseError("'dim' must be an integer")
        pairs = isinstance(box, list) and all(
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
            for pair in box
        )
        if box is not None and not pairs:
            raise ParseError("'box' must be a list of (lo, hi) number pairs")
        return cls(obj["expr"], dim, box)

    def __repr__(self) -> str:
        return f"BlackBoxFunction(dim={self.dim})"


def function_from_json(obj: dict):
    """Dispatch a function file object to its concrete type."""
    if not isinstance(obj, dict):
        raise ParseError("a function must be a JSON object")
    kind = obj.get("type")
    if kind == "pa_convex":
        return PAConvexFunction.from_json(obj)
    if kind == "dc":
        return DCFunction.from_json(obj)
    if kind == "blackbox":
        return BlackBoxFunction.from_json(obj)
    raise ParseError(f"unknown function type {kind!r}")


# ---------------------------------------------------------------------------
# Convenience constructors used by scenarios and tests
# ---------------------------------------------------------------------------


def abs_function() -> PAConvexFunction:
    """|x| on the line."""
    return PAConvexFunction([((1,), 0), ((-1,), 0)])


def linear_function(slope: Sequence, intercept=0) -> PAConvexFunction:
    return PAConvexFunction([(slope, intercept)])


def l1_norm_function(dim: int) -> PAConvexFunction:
    """||x||_1 as a max over the vertices (w..., 1) of its dual ball."""
    return PAConvexFunction._of_rows([w[:-1] + (0,) for w in _dual_vertices(L1, dim)], 1)


def linf_norm_function(dim: int) -> PAConvexFunction:
    """||x||_inf as a max over the vertices (w..., 1) of its dual ball."""
    return PAConvexFunction._of_rows([w[:-1] + (0,) for w in _dual_vertices(LINF, dim)], 1)
