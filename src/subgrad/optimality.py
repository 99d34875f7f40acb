"""Cone-constrained DC optimality certificates.

Feasible sets are pullbacks of polyhedral cones under affine maps, normal
cones come from two unrelated routes (active facets of the assembled
feasible set versus Lagrange generators from the dual cone), and blunt
minimality is decided by an exact vertex-inclusion test with a separating
descent direction extracted when it fails.  Every negative verdict ships a
witness that replays by plain evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .errors import (
    DimensionMismatch,
    InfeasiblePoint,
    InternalCheckError,
    NegativeEps,
    NotACone,
    ParseError,
    PointNotInteriorDomG,
    UnboundedC,
)
from .funcmodel import DCFunction, _float_rows, _fold, certified, hypothesis
from .polykernel import (
    LINF,
    IntVector,
    Polyhedron,
    _dual_vertices,
    _homogeneous,
    _point,
    affine_image,
    cone_is_linear_subspace,
    conic_hull,
    contains_point,
    contains_polyhedron,
    memo_scope,
    minkowski_sum,
    normal_cone_at,
    strictly_contains_point,
)
from .rationals import (
    Vector,
    format_rational,
    format_vector,
    parse_rational,
    parse_vector,
    primitive_ints,
    record_json,
    to_float,
    vadd,
    vdot,
    vscale,
    vzero,
)
from .simplex import OPTIMAL, solve_lp

if TYPE_CHECKING:
    import numpy as np

    from .dinioracle import ProbeVerdict, SamplingPlan


def _parse_matrix(rows: Sequence[Sequence], width: int | None = None) -> tuple[Vector, ...]:
    out = tuple(parse_vector(r) for r in rows)
    if not out:
        raise ParseError("matrix needs at least one row")
    w = len(out[0]) if width is None else width
    if any(len(r) != w for r in out):
        raise DimensionMismatch("matrix rows have mixed widths")
    return out


def _mat_t_vec(m: tuple[Vector, ...], z: Sequence[int]) -> Vector:
    return tuple(sum(map(mul, z, col)) for col in zip(*m))


def nonneg_orthant(dim: int) -> Polyhedron:
    return Polyhedron(dim, raw_hrep=[tuple(-int(j == i) for j in range(dim)) + (0,) for i in range(dim)])


class ConstraintSystem:
    """Feasibility data: x in C and Mx + c in -K, with K a polyhedral cone."""

    __slots__ = ("C", "M", "c", "K")

    def __init__(
        self,
        c_set: Polyhedron,
        k_matrix: Sequence[Sequence],
        k_offset: Sequence,
        cone: Polyhedron | None = None,
    ):
        self.C = c_set
        self.M = _parse_matrix(k_matrix, c_set.dim)
        self.c = parse_vector(k_offset, len(self.M))
        self.K = cone if cone is not None else nonneg_orthant(len(self.M))
        if self.K.dim != len(self.M):
            raise DimensionMismatch("K lives in the wrong dimension")
        if self.K.canonical()._points != ((0,) * self.K.dim + (1,),):
            raise NotACone("K must be a polyhedral cone with vertex at the origin")

    @property
    def dim(self) -> int:
        return self.C.dim

    def k_value(self, x: Vector) -> Vector:
        return tuple(vdot(row, x) + ci for row, ci in zip(self.M, self.c))

    def to_json(self) -> dict:
        return {
            "C": self.C.to_json(),
            "k": {
                "M": [format_vector(row) for row in self.M],
                "c": format_vector(self.c),
            },
            "K": self.K.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ConstraintSystem":
        c_set = Polyhedron.from_json(obj["C"])
        k = obj["k"]
        if not isinstance(k, dict) or not isinstance(k["M"], list):
            raise ParseError("'k' must be an object whose 'M' is a list of vectors")
        cone = Polyhedron.from_json(obj["K"]) if "K" in obj and obj["K"] is not None else None
        return cls(c_set, k["M"], k["c"], cone)


class ProblemInstance:
    """A DC objective over a cone-constrained feasible set."""

    __slots__ = ("objective", "constraints")

    def __init__(self, objective: DCFunction, constraints: ConstraintSystem):
        if objective.dim != constraints.dim:
            raise DimensionMismatch("objective and constraints disagree on dimension")
        self.objective = objective
        self.constraints = constraints

    def to_json(self) -> dict:
        out = {"objective": self.objective.to_json()}
        out.update(self.constraints.to_json())
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ProblemInstance":
        if not isinstance(obj, dict):
            raise ParseError("a problem must be a JSON object")
        return cls(DCFunction.from_json(obj["objective"]), ConstraintSystem.from_json(obj))


def feasible_set(cs: ConstraintSystem) -> Polyhedron:
    """C intersected with the pullback of -K through x -> Mx + c."""
    # -(Mx + c) in K: z·(Mx + c) <= 0 for each generator z of the dual cone
    pullback = [primitive_ints(_mat_t_vec(cs.M, z) + (-vdot(z, cs.c),)) for z in dual_cone_generators(cs.K)]
    return Polyhedron(cs.dim, raw_hrep=[*cs.C.canonical()._hrep, *pullback])


def _feasible_point(cs: ConstraintSystem, x: Sequence) -> tuple[Polyhedron, Vector]:
    """The feasible set and x parsed as a point of it; raises InfeasiblePoint
    when x lies outside."""
    a_set = feasible_set(cs)
    xv = parse_vector(x, cs.dim)
    if not contains_point(a_set, xv):
        raise InfeasiblePoint(f"{xv} is not feasible")
    return a_set, xv


def qualification_check(cs: ConstraintSystem) -> tuple[str, Polyhedron]:
    """Tests whether the cone spanned by k(C) + K is a linear subspace.

    Needs C bounded so the affine image is a polytope; unbounded C is
    reported, never approximated.
    """
    if not cs.C.is_bounded():
        raise UnboundedC("qualification check needs a bounded C")
    image = affine_image(cs.C, cs.M, cs.c)
    span = minkowski_sum(image, cs.K)
    cone = conic_hull(span)
    status = "Holds" if cone_is_linear_subspace(cone) else "Fails"
    return status, cone


def dual_cone_generators(k_cone: Polyhedron) -> list[IntVector]:
    """Int generators of the positive dual cone, read off the facet normals."""
    return [tuple(-a for a in z[:-1]) for z in k_cone.canonical()._hrep]


def normal_cone_feasible(
    cs: ConstraintSystem, x: Sequence
) -> tuple[Polyhedron, Polyhedron, bool]:
    """Normal cone of the feasible set by two routes.

    direct: active facets of the assembled feasible set.  lagrange: the cone
    of M^T z* over dual-cone generators z* annihilating k(x), plus the
    normal cone of C; exactness of the second route rests on k being affine.
    """
    a_set, xv = _feasible_point(cs, x)
    direct = normal_cone_at(a_set, xv)
    kx = cs.k_value(xv)
    # a zero image is no ray, and the V-rep drops it
    rays = [_mat_t_vec(cs.M, z) for z in dual_cone_generators(cs.K) if not sum(map(mul, z, kx))]
    base = Polyhedron.from_vrep([vzero(cs.dim)], rays=rays, dim=cs.dim)
    lagrange = minkowski_sum(base, normal_cone_at(cs.C, xv))
    return direct, lagrange, direct == lagrange


def _in_generated_set(gens: Sequence[IntVector], x: IntVector) -> bool:
    """Exact LP feasibility of ``x = sum mu·gen`` with mu >= 0, for
    homogeneous int gens, points ``(v..., t)`` and rays ``(r..., 0)``.

    A point ``(x..., t)`` is in the cone exactly when x / t is in conv(points)
    + cone(rays), and a direction ``(r..., 0)`` exactly when r is in
    cone(rays): the last coordinate weighs the points.
    """
    if not gens:
        return not any(x)
    # one equality row per coordinate i: (gen_1[i], ..., gen_m[i], x_i)
    rows = [(*column, x_i) for column, x_i in zip(zip(*gens), x)]
    res = solve_lp([0] * len(gens), eq=rows, nonneg=[True] * len(gens))
    return res.status == OPTIMAL


def check_inclusion_28(
    dh: Polyhedron, dg: Polyhedron, na: Polyhedron
) -> tuple[str, Vector | None]:
    """Exact test of inclusion (28): is dh inside dg + na?

    Convexity of the right side makes membership of every recession ray and
    every vertex of dh sufficient; each is one LP.  Returns the first failing
    ray or vertex as witness.
    """
    gens = dg.canonical()._points + tuple(r + (0,) for r in dg._rays + na.canonical()._rays)
    for r in dh.canonical()._rays:
        if not _in_generated_set(gens, r + (0,)):
            return "Fails", tuple(map(Fraction, r))
    for v in dh._points:
        if not _in_generated_set(gens, v):
            return "Fails", _point(v)
    return "Holds", None


def _descent_direction(target: Polyhedron, vertex: Vector, dim: int) -> Vector:
    """Max-margin separator of a point from a polyhedron, inf-norm box 1.

    Maximizes t subject to <d, vertex - w> >= t for every vertex w of the
    target and <d, r> <= 0 for its rays; the ray constraints keep the
    support of the target finite along d, which is exactly membership of d
    in the tangent cone the descent argument needs.
    """
    tc = target.canonical()
    v = _homogeneous(vertex)
    # int rows (coefficients of d and t..., bound); a point (w..., s) of the
    # target gives its row times s·v[-1] > 0
    rows = [tuple(v[-1] * a - w[-1] * b for a, b in zip(w[:-1], v)) + (w[-1] * v[-1], 0) for w in tc._points]
    rows += [r + (0, 0) for r in tc._rays]
    rows += [w[:-1] + (0, w[-1]) for w in _dual_vertices(LINF, dim)]
    res = solve_lp([0] * dim + [-1], rows)
    if res.status != OPTIMAL:
        raise InternalCheckError(f"separator LP ended {res.status}")
    if res.value >= 0:
        raise InternalCheckError("separator margin is not positive")
    return tuple(res.x[:dim])


@dataclass
class OptimalityCertificate:
    """Full record of a blunt-minimality certification."""

    feasible_at: bool
    qualification: str
    qualification_cone: Polyhedron | None
    normal_cone_direct: Polyhedron
    normal_cone_lagrange: Polyhedron
    routes_agree: bool
    inclusion28: str
    inclusion_witness: Vector | None
    verdict: str
    descent: dict | None
    lagrange_validated: bool
    hypothesis_report: list[dict]
    notes: tuple[str, ...] = ()

    @property
    def theorem_certified(self) -> bool:
        return certified(self.hypothesis_report)

    def to_json(self) -> dict:
        return record_json(self, "theorem_certified")


@memo_scope
def certify_blunt_minimizer(p: ProblemInstance, x: Sequence) -> OptimalityCertificate:
    """Decides spongiously local eps-blunt minimality for every eps > 0.

    The decision is the exact inclusion of subdiff(h) in subdiff(g) plus the
    feasible normal cone, cross-checked against the subdifferential of g
    restricted to the feasible set; the two must agree identically.  When
    the inclusion fails, a separating direction becomes a feasible descent
    witness with an exact negative rate and a replayable rational step.
    When the qualification fails (or C is unbounded), the verdict comes from
    the restricted-function route and the Lagrange form is left unvalidated.
    """
    dc = p.objective
    cs = p.constraints
    a_set, xv = _feasible_point(cs, x)
    if not strictly_contains_point(dc.g.domain, xv):
        raise PointNotInteriorDomG(f"{xv} is not interior to dom g")
    notes: list[str] = []
    try:
        qualification, qcone = qualification_check(cs)
    except UnboundedC:
        qualification, qcone = "Fails", None
        notes.append("C unbounded: qualification not evaluated")
    direct, lagrange, agree = normal_cone_feasible(cs, xv)
    dg = dc.g.subdifferential_at(xv)
    dh = dc.h.subdifferential_at(xv)
    inclusion28, witness28 = check_inclusion_28(dh, dg, direct)
    s30 = dc.g.restrict(a_set).subdifferential_at(xv)
    if minkowski_sum(dg, direct) != s30:
        raise InternalCheckError(
            "restricted subdifferential disagrees with the sum of "
            "subdiff(g) and the feasible normal cone"
        )
    inc30, _ = contains_polyhedron(s30, dh)
    if inc30 != (inclusion28 == "Holds"):
        raise InternalCheckError("vertex LP route and containment route disagree")
    lagrange_validated = qualification == "Holds" and agree
    if qualification != "Holds":
        notes.append(
            "qualification fails: decided via the restricted-function route; "
            "Lagrange representation not validated"
        )
    descent = None
    if inclusion28 == "Holds":
        verdict = "BluntMinimizerAllEps"
    else:
        verdict = "NotBluntMinimizer"
        d = _descent_direction(s30, witness28, cs.dim)
        rate = dc.g.directional_derivative(xv, d) - dc.h.directional_derivative(xv, d)
        if rate >= 0:
            raise InternalCheckError("descent direction has nonnegative rate")
        f_base = dc.evaluate(xv)
        step = Fraction(1)
        for _ in range(200):
            y = vadd(xv, vscale(step, d))
            if contains_point(a_set, y):
                f_step = dc.evaluate(y)
                if f_step - f_base == step * rate:
                    break
            step /= 2
        else:
            raise InternalCheckError("descent step did not stabilize")
        d_norm1 = sum(abs(z) for z in d)
        descent = {
            "direction": d,
            "rate": rate,
            "step": step,
            "violation_margin": -rate / d_norm1,
            "f_base": f_base,
            "f_step": f_step,
        }
    report = [
        hypothesis("g piecewise-affine convex (lsc, approximately convex)", True, "exact-by-construction"),
        hypothesis("f = g - h calm at the point", True, "exact-by-convexity"),
        hypothesis("h directionally approximately starshaped, gap-continuous", True, "exact-by-convexity"),
        hypothesis("point feasible", True, "exact"),
        hypothesis("point interior to dom g", True, "exact"),
        hypothesis("cone qualification", qualification == "Holds", "exact"),
    ]
    return OptimalityCertificate(
        feasible_at=True,
        qualification=qualification,
        qualification_cone=qcone,
        normal_cone_direct=direct,
        normal_cone_lagrange=lagrange,
        routes_agree=agree,
        inclusion28=inclusion28,
        inclusion_witness=witness28,
        verdict=verdict,
        descent=descent,
        lagrange_validated=lagrange_validated,
        hypothesis_report=report,
        notes=tuple(notes),
    )


def _float_feasible(pts: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Mask of the rows of pts that meet every float row ``<n, x> <= c`` to
    within 1e-9; a NaN product is infeasible.  The product stays batch-major
    and each constraint is one column, as in ``evaluate_batch``."""
    import numpy as np

    if not len(normals):
        return np.ones(len(pts), dtype=bool)
    # 0·inf at a sample past float range gives a NaN, which fails, unwarned
    with np.errstate(invalid="ignore"):
        return _fold(np.logical_and, (col <= c + 1e-9 for col, c in zip((pts @ normals.T).T, offsets)))


def blunt_min_probe(
    p: ProblemInstance, x: Sequence, eps, plan: SamplingPlan | None = None
) -> ProbeVerdict:
    """Samples feasible points hunting for f(y) < f(x) - eps * ||y - x||_1.

    Candidates pass a float prefilter, then feasibility and the violation
    inequality are re-verified in exact rational arithmetic, so a reported
    witness is a proof.  ``plan`` defaults to ``dinioracle.DEFAULT_PLAN``; the
    sampling side is imported here, so the exact certificates never load it.
    """
    import numpy as np

    from .dinioracle import (
        _TAG_BLUNT,
        DEFAULT_PLAN,
        _as_float_vec,
        _ball_shells,
        _lex_order,
        _shell_search,
    )

    if plan is None:
        plan = DEFAULT_PLAN
    e = parse_rational(eps)
    if e <= 0:
        raise NegativeEps(f"eps must be positive, got {eps}")
    a_set, xv = _feasible_point(p.constraints, x)
    dc = p.objective
    f0 = dc.evaluate(xv)
    f0f = to_float(f0)
    ef = to_float(e)
    dim = p.constraints.dim
    xf = _as_float_vec(xv, dim)
    normals, offsets = _float_rows(a_set.canonical()._hrep, dim)

    n = plan.samples_per_shell

    def evaluate(rng, radii):
        w = _ball_shells(rng, radii, n, dim)
        with np.errstate(over="ignore"):
            pts = xf + w
        rows = pts.reshape(-1, dim)
        feas = _float_feasible(rows, normals, offsets).reshape(len(w), n)
        fv = dc.evaluate_batch(rows).reshape(len(w), n)
        margins = fv - f0f + ef * np.abs(w).sum(axis=2)

        def recheck(j, cand):
            for i in cand[_lex_order(pts[j, cand])]:
                yq = tuple(Fraction(float(z)) for z in pts[j, i])
                if not contains_point(a_set, yq):
                    continue
                fy = dc.evaluate(yq)
                dist = sum(abs(a - b) for a, b in zip(yq, xv))
                if fy - f0 + e * dist < 0:
                    witness = {
                        "x": [float(z) for z in pts[j, i]],
                        "x_exact": format_vector(yq),
                        "f_x": format_rational(fy),
                        "margin": format_rational(fy - f0 + e * dist),
                    }
                    return witness, "violation verified in exact arithmetic"
            return None

        return feas & np.isfinite(fv), margins, recheck

    return _shell_search(plan, _TAG_BLUNT, n, evaluate, 1e-9, "no feasible samples")
