"""Certificate-producing checkers for exact subdifferential calculus claims.

Every checker computes its left side definitionally (polar reduction through
the derivative characterization) and its right side by the formula under
test (erosion, Minkowski sums, intersections), through disjoint code paths.
A certificate records both polyhedra, the verdict obtained by two-way
containment, a replayable witness when the sides differ, and a hypothesis
report saying why the claimed relation applies (exact-by-convexity for
piecewise-affine data) or why it might not (boundary base points).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InternalCheckError, ParseError
from .funcmodel import (
    DCFunction,
    PAConvexFunction,
    certified,
    dc_dini_subdifferential,
    dc_dini_subdifferential_definitional,
    dc_hypothesis_report,
    hypothesis,
    pa_sum,
)
from .polykernel import (
    L1,
    NormSpec,
    Polyhedron,
    contains_point,
    contains_polyhedron,
    intersect_many,
    minkowski_sum,
    star_difference,
)
from .rationals import Vector, parse_rational, record_json, vzero

CLAIM_IDS = (
    "SumRule12",
    "Inclusion13",
    "Equality22",
    "Equality26",
    "Intersection27",
    "Cor11",
    "Cor12a",
    "Cor12b",
    "LocalMinNecessary",
)


@dataclass
class Certificate:
    """Outcome of one calculus check.

    verdict is recomputable from lhs and rhs by two-way containment; a
    StrictInclusion witness lies in rhs but not lhs, a Fails witness lies in
    lhs but not rhs.
    """

    claim_id: str
    lhs: Polyhedron
    rhs: Polyhedron
    verdict: str
    witness: Vector | None
    hypothesis_report: list[dict]
    notes: tuple[str, ...] = ()

    @property
    def theorem_certified(self) -> bool:
        return certified(self.hypothesis_report)

    @property
    def passed(self) -> bool:
        return self.verdict in ("Equal", "StrictInclusion")

    def to_json(self) -> dict:
        return record_json(self, "theorem_certified")


def _two_way_verdict(lhs: Polyhedron, rhs: Polyhedron) -> tuple[str, Vector | None]:
    """Equal / StrictInclusion (lhs proper subset of rhs) / Fails."""
    forward, escape_l = contains_polyhedron(rhs, lhs)
    if not forward:
        return "Fails", escape_l
    backward, escape_r = contains_polyhedron(lhs, rhs)
    if backward:
        return "Equal", None
    return "StrictInclusion", escape_r


def check_sum_rule(
    f: PAConvexFunction, g: PAConvexFunction, x: Sequence, eps=0, eta=0
) -> Certificate:
    """Sum of eps- and eta-subdifferentials against the (eps+eta)-subdifferential
    of the sum.  For piecewise-affine convex data the polyhedral sum rule is
    exact, so anything weaker than inclusion is an internal error."""
    e = parse_rational(eps)
    n = parse_rational(eta)
    lhs = minkowski_sum(
        f.eps_subdifferential_at(x, e), g.eps_subdifferential_at(x, n)
    )
    rhs = pa_sum(f, g).eps_subdifferential_at(x, e + n)
    verdict, witness = _two_way_verdict(lhs, rhs)
    if verdict == "Fails":
        raise InternalCheckError(
            f"sum-rule inclusion violated at witness {witness}; "
            "this cannot happen for convex polyhedral data"
        )
    report = [
        hypothesis("f piecewise-affine convex", True, "exact-by-construction"),
        hypothesis("g piecewise-affine convex", True, "exact-by-construction"),
        hypothesis("point in dom f and dom g", True, "exact"),
    ]
    return Certificate("SumRule12", lhs, rhs, verdict, witness, report)


def _erosion_certificate(
    claim: str, dc: DCFunction, x: Sequence, eps, eta, norm: NormSpec, notes: tuple[str, ...] = ()
) -> Certificate:
    """The definitional eps-subdifferential of g - h against the erosion of
    the (eps+eta)-subdifferential of g by the eta-subdifferential of h.

    The two sides never share code: the left side reduces membership to a
    translate intersection over the vertices of the subdifferential of h,
    the right side erodes facets by support values.
    """
    lhs = dc_dini_subdifferential_definitional(dc, x, eps, norm)
    rhs = dc_dini_subdifferential(dc, x, eps, eta, norm)
    verdict, witness = _two_way_verdict(lhs, rhs)
    return Certificate(claim, lhs, rhs, verdict, witness, dc_hypothesis_report(dc, x), notes)


def check_difference_formula(
    dc: DCFunction, x: Sequence, eps=0, eta=0, norm: NormSpec = L1
) -> Certificate:
    """Definitional eps-subdifferential of g - h against the erosion formula.

    eps = eta = 0 is the plain equality claim; other parameters exercise the
    two-parameter version.
    """
    claim = "Equality22" if parse_rational(eps) == 0 == parse_rational(eta) else "Equality26"
    return _erosion_certificate(claim, dc, x, eps, eta, norm)


def check_inclusion_13(
    dc: DCFunction, x: Sequence, eps=0, eta=0, norm: NormSpec = L1
) -> Certificate:
    """One-directional form: the definitional set must sit inside the erosion,
    with no interiority hypothesis.  Fails is a genuine counterexample."""
    return _erosion_certificate("Inclusion13", dc, x, eps, eta, norm)


def check_intersection_formula(
    dc: DCFunction, x: Sequence, eps=0, mu_list: Sequence = (0,), norm: NormSpec = L1
) -> Certificate:
    """Definitional eps-subdifferential against the intersection of erosions
    over a finite mu grid.  The full claim intersects over all mu >= 0; the
    finite grid is a partial verification, noted on the certificate."""
    e = parse_rational(eps)
    mus = sorted({parse_rational(m) for m in mu_list})
    if not mus:
        raise ParseError("mu_list must be nonempty")
    if any(m < 0 for m in mus):
        raise ParseError("mu values must be nonnegative")
    lhs = dc_dini_subdifferential_definitional(dc, x, e, norm)
    factors = [dc_dini_subdifferential(dc, x, e, m, norm) for m in mus]
    rhs = intersect_many(factors).canonical()
    verdict, witness = _two_way_verdict(lhs, rhs)
    return Certificate(
        "Intersection27",
        lhs,
        rhs,
        verdict,
        witness,
        dc_hypothesis_report(dc, x),
        notes=(
            "finite mu grid: " + ", ".join(str(m) for m in mus),
            "partial verification of an intersection over all mu >= 0",
        ),
    )


def check_corollary11(
    dc: DCFunction, x: Sequence, eta_list: Sequence = (0, Fraction(1, 2), 1)
) -> Certificate:
    """Equivalence of: some eta-inclusion, the zero functional being an exact
    subgradient of g - h, and all eta-inclusions.  The grid statements are
    evaluated independently and must agree; the zero-membership statement is
    computed on both the definitional and erosion routes."""
    etas = sorted({parse_rational(v) for v in eta_list})
    if any(v < 0 for v in etas):
        raise ParseError("eta values must be nonnegative")
    if Fraction(0) not in etas:
        raise ParseError("eta_list must include 0")
    sides = {n: (dc.h.eps_subdifferential_at(x, n), dc.g.eps_subdifferential_at(x, n)) for n in etas}
    inclusions = {n: contains_polyhedron(b, a)[0] for n, (a, b) in sides.items()}
    stmt_i = any(inclusions.values())
    stmt_iii = all(inclusions.values())
    dim = dc.dim
    zero = vzero(dim)
    by_def = contains_point(
        dc_dini_subdifferential_definitional(dc, x, 0), zero
    )
    by_erosion = contains_point(dc_dini_subdifferential(dc, x, 0, 0), zero)
    if by_def != by_erosion:
        raise InternalCheckError(
            "zero-membership differs between the definitional and erosion routes"
        )
    stmt_ii = by_def
    if not (stmt_i == stmt_ii == stmt_iii):
        raise InternalCheckError(
            f"equivalence broken on the eta grid: exists={stmt_i}, "
            f"zero-membership={stmt_ii}, forall={stmt_iii}"
        )
    lhs, rhs = sides[0]
    verdict, witness = _two_way_verdict(lhs, rhs)
    notes = (
        "eta grid: " + ", ".join(str(v) for v in etas),
        f"statements agree: {'true' if stmt_ii else 'false'} on all three",
    )
    return Certificate(
        "Cor11", lhs, rhs, verdict, witness, dc_hypothesis_report(dc, x), notes
    )


def check_corollary12(
    dc: DCFunction, x: Sequence, eps=0, norm: NormSpec = L1, variant: str = "a"
) -> Certificate:
    """Definitional eps-subdifferential against (subdiff g + eps ball) eroded
    by subdiff h.  Variants a and b differ only for non-convex g, so they
    coincide here; the variant is recorded on the claim id."""
    if variant not in ("a", "b"):
        raise ParseError(f"variant must be 'a' or 'b', got {variant!r}")
    notes = ("variants coincide: g is piecewise-affine convex",) if variant == "b" else ()
    return _erosion_certificate("Cor12" + variant, dc, x, eps, 0, norm, notes)


def local_min_necessary(dc: DCFunction, x: Sequence) -> Certificate:
    """Necessary condition at a local minimizer of g - h: the subdifferential
    of h sits inside that of g.  Cross-checked against zero-membership of the
    erosion; the certificate never claims minimality itself."""
    lhs = dc.h.subdifferential_at(x)
    rhs = dc.g.subdifferential_at(x)
    verdict, witness = _two_way_verdict(lhs, rhs)
    included = verdict in ("Equal", "StrictInclusion")
    zero_in = contains_point(
        star_difference(rhs, lhs), vzero(dc.dim)
    )
    if zero_in != included:
        raise InternalCheckError(
            "inclusion and erosion zero-membership disagree"
        )
    notes = (
        "necessary condition only: inclusion does not certify minimality",
    )
    return Certificate(
        "LocalMinNecessary",
        lhs,
        rhs,
        verdict,
        witness,
        dc_hypothesis_report(dc, x),
        notes,
    )
