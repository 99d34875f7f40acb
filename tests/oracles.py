"""Independent cross-check helpers for the test suite.

Everything here recomputes expected values from first principles with raw
Fraction arithmetic (or guarded int64 batches), deliberately avoiding the
library code paths under test.  Generators draw small rational data so all
downstream computations stay exact.
"""

from fractions import Fraction
from math import gcd
from typing import Sequence

import numpy as np

from subgrad.polykernel import Polyhedron, _l2approx_directions
from subgrad.rationals import (
    ONE,
    ZERO,
    format_rational,
    format_vector,
    is_zero_vector,
    primitive,
    rref,
    vadd,
    vdot,
    vneg,
    vscale,
)
from subgrad.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult


def vsub(a, b) -> tuple:
    """Componentwise difference."""
    return tuple(x - y for x, y in zip(a, b))


def point_in_hrep(point, hrep) -> bool:
    """Membership decided directly from facet rows, no library call."""
    for h in hrep:
        if sum(n * x for n, x in zip(h.normal, point)) > h.offset:
            return False
    return True


def dot(a, b) -> Fraction:
    """Plain sum of products, no library call."""
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def translate_subset(a_hrep, b_vertices, x) -> bool:
    """Whether x + conv(b_vertices) lies inside the H-polytope a_hrep."""
    for v in b_vertices:
        shifted = tuple(xi + vi for xi, vi in zip(x, v))
        if not point_in_hrep(shifted, a_hrep):
            return False
    return True


def common_scale(fractions) -> int:
    lcm = 1
    for f in fractions:
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    return lcm


def lattice_points(lo, hi, n):
    """n evenly spaced rationals per axis, inclusive, as a list of tuples."""
    axes = []
    for a, b in zip(lo, hi):
        if a == b:
            axes.append([a] * n)
        else:
            step = (b - a) / (n - 1)
            axes.append([a + step * i for i in range(n)])
    points = [()]
    for axis in axes:
        points = [p + (v,) for p in points for v in axis]
    return points


def erosion_grid_check(a: Polyhedron, b: Polyhedron, star: Polyhedron, n: int = 21):
    """Compares star membership with the definitional check x + B in A on an
    n^dim lattice over A's bounding box, batched in int64 after verifying the
    products cannot overflow.  Returns the number of lattice points compared.
    """
    a = a.canonical()
    b = b.canonical()
    star = star.canonical()
    assert not b.rays, "oracle handles polytopes only"
    lo, hi = [], []
    for i in range(a.dim):
        coords = [v[i] for v in a.vertices]
        lo.append(min(coords) - 1)
        hi.append(max(coords) + 1)
    pts = lattice_points(lo, hi, n)

    # Definitional side: x + B in A  <=>  N_a x <= min_v (o_a - N_a v).
    na = [h.normal for h in a.hrep]
    oa = [h.offset for h in a.hrep]
    thresh = []
    for row, off in zip(na, oa):
        thresh.append(min(off - sum(r * v for r, v in zip(row, vert)) for vert in b.vertices))

    ns = [h.normal for h in star.hrep] if not star.is_empty else None
    os_ = [h.offset for h in star.hrep] if not star.is_empty else None

    scale = common_scale(
        [c for p in pts for c in p]
        + [c for row in na for c in row]
        + oa
        + thresh
        + ([c for row in ns for c in row] + os_ if ns is not None else [])
    )
    # int64 overflow guard: dot products of scaled ints must fit comfortably
    def scaled(rows):
        return [[int(c * scale) for c in row] for row in rows]

    ip = scaled(pts)
    ina = scaled(na)
    ith = [int(t * scale * scale) for t in thresh]
    bound = max(
        (max(abs(c) for r in ip for c in r) if ip else 0),
        (max(abs(c) for r in ina for c in r) if ina else 1),
    )
    if bound * bound * a.dim >= 2**62:
        # fall back to exact Fractions for pathological scales
        for x in pts:
            expected = translate_subset(a.hrep, b.vertices, x)
            got = point_in_hrep(x, star.hrep) if not star.is_empty else False
            assert expected == got, f"erosion mismatch at {x}"
        return len(pts)

    xp = np.array(ip, dtype=np.int64)
    inside_def = (xp @ np.array(ina, dtype=np.int64).T <= np.array(ith, dtype=np.int64)).all(axis=1)
    if star.is_empty:
        inside_star = np.zeros(len(pts), dtype=bool)
    else:
        ins = np.array(scaled(ns), dtype=np.int64)
        ios = np.array([int(o * scale * scale) for o in os_], dtype=np.int64)
        sbound = max(abs(int(c)) for r in scaled(ns) for c in r) if ns else 1
        assert max(bound, sbound) ** 2 * a.dim < 2**62
        inside_star = (xp @ ins.T <= ios).all(axis=1)
    mism = np.flatnonzero(inside_def != inside_star)
    assert mism.size == 0, f"erosion mismatch at lattice point {pts[mism[0]]}"
    return len(pts)


def cone_generators_reference(ineqs, dim):
    """Minimal generators (lines, rays) of ``{x : a.x <= 0 for a in ineqs}``
    by incremental double description over Fractions, with frozenset zero
    sets: the kernel's algorithm before it moved to primitive ints and
    bitmasks, kept to cross-check it.  No generator cap.
    """
    lines = [tuple(ONE if j == i else ZERO for j in range(dim)) for i in range(dim)]
    rays = []
    for idx, a in enumerate(ineqs):
        if is_zero_vector(a):
            continue
        lvals = [vdot(a, l) for l in lines]
        pivot = next((i for i, v in enumerate(lvals) if v != 0), None)
        if pivot is not None:
            l0, v0 = lines[pivot], lvals[pivot]
            r0 = l0 if v0 < 0 else vneg(l0)
            r0v = v0 if v0 < 0 else -v0
            new_lines = []
            for i, l in enumerate(lines):
                if i == pivot:
                    continue
                lv = lvals[i]
                new_lines.append(l if lv == 0 else vsub(l, vscale(lv / r0v, r0)))
            new_rays = []
            for r, zset in rays:
                rv = vdot(a, r)
                if rv != 0:
                    r = vsub(r, vscale(rv / r0v, r0))
                new_rays.append((primitive(r), zset | {idx}))
            new_rays.append((primitive(r0), frozenset(range(idx))))
            lines = new_lines
            rays = new_rays
            continue
        values = [vdot(a, r) for r, _ in rays]
        if all(v <= 0 for v in values):
            rays = [
                (r, zset | {idx}) if values[i] == 0 else (r, zset)
                for i, (r, zset) in enumerate(rays)
            ]
            continue
        keep, pos, neg = [], [], []
        for (r, zset), v in zip(rays, values):
            if v > 0:
                pos.append((r, zset, v))
            elif v < 0:
                neg.append((r, zset, v))
                keep.append((r, zset))
            else:
                keep.append((r, zset | {idx}))
        all_zsets = [zset for _, zset in rays]
        combos = []
        for rp, zp, vp in pos:
            for rn, zn, vn in neg:
                common = zp & zn
                adjacent = True
                for other in all_zsets:
                    if other is zp or other is zn:
                        continue
                    if common <= other:
                        adjacent = False
                        break
                if adjacent:
                    w = vadd(vscale(vp, rn), vscale(-vn, rp))
                    combos.append((primitive(w), common | {idx}))
        rays = keep + combos
    return lines, [r for r, _ in rays]


def _project_off(vec, ortho):
    """Component of vec orthogonal to the span of the pairwise orthogonal ortho."""
    v = tuple(vec)
    for u in ortho:
        v = vsub(v, vscale(vdot(v, u) / vdot(u, u), u))
    return v


def _rays_mod_lines(rays, lines):
    """Orthogonal basis of span(lines), and the primitive nonzero projections
    of rays followed by a +/- primitive pair per reduced basis row."""
    line_basis = rref(lines)
    ortho = []
    for b in line_basis:
        ortho.append(_project_off(b, ortho))
    out = [p for p in (primitive(_project_off(r, ortho)) for r in rays) if not is_zero_vector(p)]
    for l in line_basis:
        p = primitive(l)
        out += (p, vneg(p))
    return ortho, out


def _hrep_to_vrep_reference(rows, dim):
    """Raw Fraction (vertices, rays, lines) of rows (normal, offset)."""
    ineqs = [tuple(n) + (-c,) for n, c in rows]
    ineqs.append((ZERO,) * dim + (-ONE,))
    lines, rays = cone_generators_reference(ineqs, dim + 1)
    vertices = [tuple(x / r[dim] for x in r[:dim]) for r in rays if r[dim] > 0]
    cone_rays = [r[:dim] for r in rays if r[dim] == 0]
    return vertices, cone_rays, [l[:dim] for l in lines]


def _vrep_to_hrep_reference(vertices, rays, dim):
    """Sorted primitive facet rows (normal, offset) of conv(vertices) + cone(rays)."""
    gens = {primitive(tuple(v) + (ONE,)) for v in vertices}
    gens |= {p for p in (primitive(tuple(r) + (ZERO,)) for r in rays) if not is_zero_vector(p)}
    lines, polar_rays = cone_generators_reference(sorted(gens), dim + 1)
    facets = set()
    for z in _rays_mod_lines(polar_rays, lines)[1]:
        if not is_zero_vector(z[:dim]):
            joint = primitive(z[:dim] + (-z[dim],))
            facets.add((joint[:dim], joint[dim]))
    return sorted(facets)


def canonical_reference(dim, hrep=None, vrep=None) -> dict:
    """``Polyhedron.to_json()`` of an H-rep (pairs normal, offset) or a V-rep
    (vertices, rays), recomputed by the kernel's earlier Fraction
    canonicalization on top of `cone_generators_reference`: vertices and rays
    projected off the lineality span with Fractions, facets rescaled with
    `primitive`, everything sorted as Fraction tuples."""
    facets = None
    if hrep is not None:
        rows = sorted({(p[:dim], p[dim]) for p in (primitive(tuple(n) + (c,)) for n, c in hrep)})
        verts, rays, lines = _hrep_to_vrep_reference(rows, dim)
    else:
        verts, rays = vrep
        lines = []
        if verts:
            facets = _vrep_to_hrep_reference(verts, rays, dim)
            verts, rays, lines = _hrep_to_vrep_reference(facets, dim)
    if not verts:
        e1 = tuple(ONE if i == 0 else ZERO for i in range(dim))
        facets, verts, rays = [(e1, -ONE), (vneg(e1), -ONE)], [], []
    else:
        ortho, rays = _rays_mod_lines(rays, lines)
        verts = sorted({_project_off(v, ortho) for v in verts})
        rays = sorted(set(rays))
        if facets is None:
            facets = _vrep_to_hrep_reference(verts, rays, dim)
    return {
        "dim": dim,
        "hrep": [{"normal": format_vector(n), "offset": format_rational(c)} for n, c in facets],
        "vrep": {"vertices": [format_vector(v) for v in verts], "rays": [format_vector(r) for r in rays]},
    }


# ---------------------------------------------------------------------------
# Fraction operation bodies
# ---------------------------------------------------------------------------
# The kernel's operations as they ran on Fractions before every polyhedron
# held primitive ints, kept to cross-check them.  A polyhedron is passed as
# its raw input, {"hrep": [(normal, offset), ...]} or {"vrep": (points,
# rays)} with Fraction entries, and a set-valued result comes back in the
# same form, for `canonical_reference`.

EMPTY = {"vrep": ([], [])}


def _canonical(dim, raw):
    """Canonical (facet rows, vertices, rays) of a raw input, as Fractions."""
    body = canonical_reference(dim, **raw)
    rows = [(tuple(map(Fraction, h["normal"])), Fraction(h["offset"])) for h in body["hrep"]]
    verts = [tuple(map(Fraction, v)) for v in body["vrep"]["vertices"]]
    rays = [tuple(map(Fraction, r)) for r in body["vrep"]["rays"]]
    return rows, verts, rays


def _rows(dim, raw):
    """The rows a polyhedron was built from, else its canonical facets."""
    return raw["hrep"] if "hrep" in raw else _canonical(dim, raw)[0]


def _gens(dim, raw):
    """The (points, rays) a polyhedron was built from, else its canonical ones."""
    return raw["vrep"] if "vrep" in raw else _canonical(dim, raw)[1:]


def _is_empty(dim, raw):
    return not _canonical(dim, raw)[1]


def contains_point_reference(dim, raw, x) -> bool:
    return all(vdot(n, x) <= c for n, c in _rows(dim, raw))


def strictly_contains_point_reference(dim, raw, x) -> bool:
    rows, verts, _ = _canonical(dim, raw)
    return bool(verts) and all(vdot(n, x) < c for n, c in rows)


def intersect_many_reference(dim, raws) -> dict:
    return {"hrep": [row for raw in raws for row in _rows(dim, raw)]}


def minkowski_sum_reference(dim, p, q) -> dict:
    if _is_empty(dim, p) or _is_empty(dim, q):
        return EMPTY
    (p_points, p_rays), (q_points, q_rays) = _gens(dim, p), _gens(dim, q)
    return {"vrep": ([vadd(v, w) for v in p_points for w in q_points], list(p_rays) + list(q_rays))}


def translate_reference(dim, p, shift) -> dict:
    if _is_empty(dim, p):
        return EMPTY
    return {"hrep": [(n, c + vdot(n, shift)) for n, c in _rows(dim, p)]}


def star_difference_reference(dim, a, b) -> dict:
    if _is_empty(dim, b):
        return {"hrep": []}
    if _is_empty(dim, a):
        return EMPTY
    _, b_verts, b_rays = _canonical(dim, b)
    shifted = []
    for n, c in _canonical(dim, a)[0]:
        if any(vdot(n, r) > 0 for r in b_rays):
            return EMPTY
        shifted.append((n, c - max(vdot(n, v) for v in b_verts)))
    return {"hrep": shifted}


def affine_image_reference(dim, p, matrix, offset) -> dict:
    if _is_empty(dim, p):
        return EMPTY
    points, rays = _gens(dim, p)
    verts = [vadd(tuple(vdot(r, v) for r in matrix), offset) for v in points]
    images = [tuple(vdot(r, ray) for r in matrix) for ray in rays]
    return {"vrep": (verts, [i for i in images if not is_zero_vector(i)])}


def _active_normals(dim, p, x):
    """Normals of the canonical facets tight at x, or None when x is outside p."""
    if not contains_point_reference(dim, p, x):
        return None
    return [n for n, c in _canonical(dim, p)[0] if vdot(n, x) == c]


def normal_cone_reference(dim, p, x) -> dict | None:
    active = _active_normals(dim, p, x)
    return None if active is None else {"vrep": ([(ZERO,) * dim], active)}


def tangent_cone_reference(dim, p, x) -> dict | None:
    active = _active_normals(dim, p, x)
    return None if active is None else {"hrep": [(n, ZERO) for n in active]}


def _raw(p: Polyhedron) -> dict:
    """The raw input of a kernel polyhedron, as Fractions, in the form above."""
    if p._raw_hrep is not None:
        return {"hrep": [(tuple(map(Fraction, z[:-1])), Fraction(z[-1])) for z in p._raw_hrep]}
    points, rays = p._raw_vrep
    return {"vrep": ([tuple(Fraction(x, v[-1]) for x in v[:-1]) for v in points],
                     [tuple(map(Fraction, r)) for r in rays])}


def lagrange_cone_reference(cs, x) -> dict:
    """N(C, x) + {M^T z : z in K*, <z, k(x)> = 0} for k(x) = Mx + c, by the
    literal formula: k(x) in Fractions, and M^T z over the generators z of the
    dual cone K*, the negated canonical facet normals of K."""
    kx = vadd(tuple(vdot(row, x) for row in cs.M), cs.c)
    duals = [vneg(n) for n, _ in _canonical(len(cs.M), _raw(cs.K))[0]]
    images = [tuple(vdot(z, col) for col in zip(*cs.M)) for z in duals if vdot(z, kx) == 0]
    rays = [r for r in images if not is_zero_vector(r)] + _active_normals(cs.dim, _raw(cs.C), x)
    return {"vrep": ([(ZERO,) * cs.dim], rays)}


def conic_hull_reference(dim, p) -> dict:
    points, rays = _gens(dim, p)
    return {"vrep": ([(ZERO,) * dim], [v for v in points if not is_zero_vector(v)] + list(rays))}


def gap_shortcut_reference(dim, a, b) -> bool:
    """Whether a generator point of either nonempty set satisfies the other
    set's rows, which makes the gap 0 without an LP."""
    return any(contains_point_reference(dim, a, v) for v in _gens(dim, b)[0]) or any(
        contains_point_reference(dim, b, v) for v in _gens(dim, a)[0]
    )


def _unit_vectors(dim):
    return [tuple(ONE if j == i else ZERO for j in range(dim)) for i in range(dim)]


def norm_unit_ball_reference(norm, dim) -> Polyhedron:
    """The primal unit ball as two descriptions per norm kind: l1 from its
    +/- unit vertices, linf from its box facets, l2approx from its
    directions as vertices."""
    if norm.kind == "l1":
        units = _unit_vectors(dim)
        return Polyhedron.from_vrep([u for v in units for u in (v, vneg(v))], dim=dim)
    if norm.kind == "linf":
        rows = [(s, ONE) for v in _unit_vectors(dim) for s in (v, vneg(v))]
        return Polyhedron.from_hrep(rows, dim)
    if dim == 1:
        return Polyhedron.from_vrep([(ONE,), (-ONE,)], dim=1)
    return Polyhedron.from_vrep(_l2approx_directions(norm.facets), dim=2)


def dual_norm_ball_reference(norm, e, dim) -> Polyhedron:
    """The dual ball of radius e: l1 from its box facets, linf from its
    +/- e unit vertices, l2approx from one facet per direction."""
    if norm.kind == "l1":
        rows = [(s, e) for v in _unit_vectors(dim) for s in (v, vneg(v))]
        return Polyhedron.from_hrep(rows, dim)
    if norm.kind == "linf":
        units = _unit_vectors(dim)
        return Polyhedron.from_vrep([vscale(e, u) for v in units for u in (v, vneg(v))], dim=dim)
    if dim == 1:
        return Polyhedron.from_vrep([(e,), (-e,)], dim=1)
    rows = [(u, e) for u in _l2approx_directions(norm.facets)]
    return Polyhedron.from_hrep(rows, 2)


def pa_value(pieces, x) -> Fraction:
    """max over affine pieces, raw arithmetic."""
    return max(sum(a * xi for a, xi in zip(p.slope, x)) + p.intercept for p in pieces)


def pa_directional(pieces, x, d) -> Fraction:
    """One-sided derivative of a finite max of affine pieces: the best slope
    among pieces active at x."""
    vals = [
        (sum(a * xi for a, xi in zip(p.slope, x)) + p.intercept, p) for p in pieces
    ]
    top = max(v for v, _ in vals)
    return max(sum(a * di for a, di in zip(p.slope, d)) for v, p in vals if v == top)


def dual_vertices_reference(norm, dim) -> list:
    """The Fraction vertices of the dual unit ball, in the library's order:
    sign vectors for l1 in dimension >= 2, +/- unit vectors for linf and in
    dimension 1, and for l2approx the meeting points of neighbouring
    tangent lines <u, y> = 1 by angle."""
    from itertools import product

    if norm.kind == "l1" and dim > 1:
        return list(product((ONE, -ONE), repeat=dim))
    if norm.kind != "l2approx" or dim == 1:
        return [u for v in _unit_vectors(dim) for u in (v, vneg(v))]
    dirs = sorted(_l2approx_directions(norm.facets),
                  key=lambda u: (0, -u[0]) if u[1] > 0 or (u[1] == 0 and u[0] > 0) else (1, u[0]))
    out = []
    for a, b in zip(dirs, dirs[1:] + dirs[:1]):
        det = a[0] * b[1] - a[1] * b[0]
        out.append(((b[1] - a[1]) / det, (a[0] - b[0]) / det))
    return out


class PAReference:
    """The Fraction model of a PA convex function: its distinct (slope,
    intercept) pairs in first-occurrence order, on a domain polyhedron, with
    the calculus written out over Fractions and the kernel's public
    Fraction constructors."""

    def __init__(self, pieces, domain):
        self.pieces = []
        for slope, intercept in pieces:
            if (slope, intercept) not in self.pieces:
                self.pieces.append((slope, intercept))
        self.domain = domain
        self.dim = domain.dim

    def evaluate(self, x):
        from subgrad.polykernel import contains_point

        if not contains_point(self.domain, x):
            return float("inf")
        return max(dot(s, x) + c for s, c in self.pieces)

    def active_slopes(self, x) -> list:
        from subgrad.errors import PointOutsideDomain
        from subgrad.polykernel import contains_point

        if not contains_point(self.domain, x):
            raise PointOutsideDomain(f"{x} is outside the effective domain")
        top = max(dot(s, x) + c for s, c in self.pieces)
        return [s for s, c in self.pieces if dot(s, x) + c == top]

    def subdifferential_at(self, x) -> Polyhedron:
        from subgrad.polykernel import minkowski_sum, normal_cone_at

        hull = Polyhedron.from_vrep(self.active_slopes(x), dim=self.dim)
        return minkowski_sum(hull, normal_cone_at(self.domain, x))

    def eps_subdifferential_at(self, x, e, norm) -> Polyhedron:
        from subgrad.polykernel import minkowski_sum

        ball = Polyhedron.from_vrep([vscale(e, w) for w in dual_vertices_reference(norm, self.dim)], dim=self.dim)
        return minkowski_sum(self.subdifferential_at(x), ball)

    def directional_derivative(self, x, d):
        return max(dot(s, d) for s in self.active_slopes(x))


def pa_sum_reference(f: PAReference, g: PAReference) -> PAReference:
    from subgrad.polykernel import intersect

    pieces = [(vadd(p, q), c + k) for p, c in f.pieces for q, k in g.pieces]
    return PAReference(pieces, intersect(f.domain, g.domain))


def f_eps_expand_reference(f: PAReference, x, e, norm) -> PAReference:
    """f + e·||. - x||, one piece per piece of f and dual vertex w."""
    ws = dual_vertices_reference(norm, f.dim)
    pieces = [(vadd(s, vscale(e, w)), c - e * dot(w, x)) for s, c in f.pieces for w in ws]
    return PAReference(pieces, f.domain)


def _blackbox_walk(node, xs: np.ndarray) -> np.ndarray:
    """Values of one expression node by recursion over the tree, parsing each
    constant where it is met."""
    from subgrad.funcmodel import _staircase_scalar
    from subgrad.rationals import parse_rational

    op = node[0]
    if op == "const":
        c = node[1]
        val = float(parse_rational(c)) if isinstance(c, str) else float(c)
        return np.full(xs.shape[0], val)
    if op == "coord":
        return xs[:, node[1]]
    if op == "neg":
        return -_blackbox_walk(node[1], xs)
    if op == "abs":
        return np.abs(_blackbox_walk(node[1], xs))
    if op == "sqrtabs":
        return np.sqrt(np.abs(_blackbox_walk(node[1], xs)))
    if op == "staircase":
        return _staircase_scalar(_blackbox_walk(node[1], xs))
    if op == "add":
        return _blackbox_walk(node[1], xs) + _blackbox_walk(node[2], xs)
    if op == "sub":
        return _blackbox_walk(node[1], xs) - _blackbox_walk(node[2], xs)
    if op == "mul":
        return _blackbox_walk(node[1], xs) * _blackbox_walk(node[2], xs)
    if op == "max":
        return np.maximum.reduce([_blackbox_walk(c, xs) for c in node[1:]])
    if op == "min":
        return np.minimum.reduce([_blackbox_walk(c, xs) for c in node[1:]])
    raise ValueError(f"unknown operator {op!r}")


def blackbox_reference(expr, dim, box, xs) -> np.ndarray:
    """Float values of a valid black-box expression at the rows of ``xs``
    (+inf outside ``box``), by a direct tree walk over the finite rows; a row
    with a non-finite coordinate is NaN unless the box sends it to +inf.  An
    invalid float operation raises ``EvaluationFailure``, as
    ``BlackBoxFunction.evaluate_batch`` does."""
    from subgrad.errors import EvaluationFailure

    xs = np.asarray(xs, dtype=float).reshape(-1, dim)
    finite = np.isfinite(xs).all(axis=1)
    vals = np.full(len(xs), np.nan)
    with np.errstate(invalid="raise", over="ignore"):
        try:
            vals[finite] = _blackbox_walk(expr, xs[finite])
        except FloatingPointError as exc:
            raise EvaluationFailure(str(exc)) from exc
    if box is not None:
        lo = np.array([float(b[0]) for b in box])
        hi = np.array([float(b[1]) for b in box])
        outside = ((xs < lo) | (xs > hi)).any(axis=1)
        vals = np.where(outside, np.inf, vals)
    return vals


def pa_batch_reference(f, xs) -> np.ndarray:
    """``evaluate_batch`` of a PA or DC function by the row-major formula: one
    product row per point, reduced along that row."""
    from subgrad.funcmodel import DCFunction

    if isinstance(f, DCFunction):
        gv, hv = pa_batch_reference(f.g, xs), pa_batch_reference(f.h, xs)
        with np.errstate(invalid="ignore"):
            return np.where(np.isinf(gv), np.inf, gv - hv)
    xs = np.asarray(xs, dtype=float).reshape(-1, f.dim)
    slopes, intercepts, normals, offsets = f._float_data()
    with np.errstate(invalid="ignore"):
        vals = (xs @ slopes.T + intercepts).max(axis=1)
        if len(normals):
            vals = np.where((xs @ normals.T > offsets).any(axis=1), np.inf, vals)
    vals[np.isnan(vals)] = np.nan
    return vals


def float_feasible_reference(pts, normals, offsets) -> np.ndarray:
    """The blunt probe's float feasibility mask by the row-major formula."""
    if not len(normals):
        return np.ones(len(pts), dtype=bool)
    with np.errstate(invalid="ignore"):
        return (pts @ normals.T <= offsets[None, :] + 1e-9).all(axis=1)


# ---------------------------------------------------------------------------
# float probes, one evaluation per shell
# ---------------------------------------------------------------------------


def reference_rng(plan, tag: int) -> np.random.Generator:
    """The one stream of probe tag, built by NumPy's own SeedSequence."""
    seq = np.random.SeedSequence(plan.seed & 0xFFFFFFFFFFFFFFFF, spawn_key=(tag,))
    return np.random.Generator(np.random.PCG64(seq))


def _ball_draw(rng, radii, n, dim):
    """n l1-ball points around 0 for each of a group's radii, drawn in one
    call, as a (shells, n, dim) array."""
    from subgrad import dinioracle as D

    col = np.repeat(np.asarray(radii), n)[:, None]
    return D._l1_ball_points(rng, len(radii) * n, dim, col).reshape(len(radii), n, dim)


def dini_reference(f, x, h, plan, tag=0):
    """``dini_directional_estimate`` with one evaluation per shell, shell by
    shell.  Each group of shells is drawn from ``reference_rng`` as the
    probe draws it: t of the annulus band, t of the deep band, then u."""
    import math

    from subgrad import dinioracle as D
    from subgrad.errors import EvaluationFailure

    dim = f.dim
    xf = D._as_float_vec(x, dim)
    hf = D._as_float_vec(h, dim)
    fx = float(f.evaluate_batch(xf[None, :])[0])
    if not math.isfinite(fx):
        raise EvaluationFailure("f is not finite at the base point")
    res = D._RES_FACTOR * D._EPS_MACH * max(1.0, abs(fx))
    raws, ests, shells = [], [], []
    witness = None
    witness_q = math.inf
    rng = reference_rng(plan, tag)
    n = plan.samples_per_shell
    n_ann = n // 2
    n_deep = n - n_ann
    drawn = []
    for group in D._shell_groups(len(plan.shell_radii), n + D._ANCHORS):
        radii = np.array([plan.shell_radii[k] for k in group])
        t_ann = radii[:, None] * 2.0 ** (-rng.random((len(group), n_ann)))
        t_deep = radii[:, None] * 2.0 ** (-(1.0 + D._DEEP_SPAN * rng.random((len(group), n_deep))))
        drawn.extend(zip(t_ann, t_deep, _ball_draw(rng, radii, n, dim)))
    for r, (t_ann, t_deep, w) in zip(plan.shell_radii, drawn):
        t_anchor = r * 2.0 ** (-np.arange(D._ANCHORS) / D._ANCHORS)
        t = np.concatenate([t_anchor, t_ann, t_deep])
        u = np.vstack([np.tile(hf, (D._ANCHORS, 1)), hf + w])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            pts = xf[None, :] + t[:, None] * u
            fv = f.evaluate_batch(pts)
            delta = fv - fx
            finite = np.isfinite(fv)
            q = np.where(finite, delta / t, np.inf)
        precise = finite & (res / t <= D._PRECISE_RTOL)
        coarse = finite & ~precise & (np.abs(delta) > res)
        info = precise | coarse
        absorbed = int((finite & ~info).sum())
        raw = float(np.min(q[info])) if info.any() else math.inf
        est = float(np.min(q[precise])) if precise.any() else None
        if raw < witness_q:
            witness_q = raw
            idx = int(np.argmin(np.where(info, q, np.inf)))
            witness = {"t": float(t[idx]), "u": [float(z) for z in u[idx]], "quotient": float(q[idx])}
        raws.append(raw)
        ests.append(est)
        shells.append({"radius": float(r), "inf": raw, "estimate_inf": est, "absorbed": absorbed})
    env = math.inf
    for j in range(len(shells) - 1, -1, -1):
        env = min(env, raws[j])
        shells[j]["envelope"] = env
    diverged = sum(1 for v in raws if v < plan.divergence_threshold) >= 2
    estimate = next((e for e in reversed(ests) if e is not None), math.inf)
    stable = False
    if diverged:
        estimate = -math.inf
    else:
        w = plan.stabilization_window
        tail = [v for v in ests[-w:] if v is not None]
        stable = len(tail) == w and max(tail) - min(tail) <= plan.stabilization_tol
    return D.DiniEstimate(estimate, stable, diverged, shells, witness)


def _lex_key(*arrays):
    """A sort key for row i of ``arrays``: the tuple of its values, array by
    array, as Python floats."""

    def key(i: int):
        parts = []
        for a in arrays:
            v = a[i]
            if isinstance(v, np.ndarray):
                parts.extend(float(z) for z in v)
            else:
                parts.append(float(v))
        return tuple(parts)

    return key


def _shell_search_reference(plan, tag, rows, draw, shell, no_samples_note):
    """The shell-search rule, one shell at a time.  ``draw(rng, radii)``
    draws a group of shells from ``reference_rng`` in the probe's schedule
    (shell 0, then groups of ``rows``-row shells within the row budget) and
    returns one draw a shell; ``shell(drawn)`` evaluates one shell's draw
    alone and returns its usable mask, its margins and None or a verified
    (witness, note)."""
    import math

    from subgrad import dinioracle as D

    rng = reference_rng(plan, tag)
    radii = plan.shell_radii
    shells = []
    any_usable = False
    for group in [range(1)] + D._shell_groups(len(radii), rows, 1):
        for k, drawn in zip(group, draw(rng, np.array([radii[k] for k in group]))):
            r = radii[k]
            usable, margins, found = shell(drawn)
            any_usable = any_usable or bool(usable.any())
            shells.append({"radius": float(r), "inf": float(np.min(margins[usable])) if usable.any() else math.inf})
            if found is not None:
                return D.ProbeVerdict("FailsWithWitness", found[0], shells, notes=(found[1],))
    if not any_usable:
        return D.ProbeVerdict("Inconclusive", None, shells, notes=(no_samples_note,))
    return D.ProbeVerdict("Holds", None, shells, notes=("no violation found under this plan",))


def membership_reference(f, x, xstar, eps, alpha, plan):
    """``eps_subgradient_membership_probe`` with one evaluation per shell
    under the shell-search rule, then the calmness probe when the search
    finds nothing.  On PA and DC data a shell's first bad sample in tuple
    order must also violate the inequality in Fraction arithmetic at the
    exact base point."""
    import math
    from dataclasses import replace

    from subgrad import dinioracle as D
    from subgrad.errors import EvaluationFailure
    from subgrad.funcmodel import DCFunction, PAConvexFunction
    from subgrad.rationals import parse_rational, parse_vector, to_float

    e = to_float(parse_rational(eps))
    a = to_float(parse_rational(alpha))
    dim = f.dim
    xf = D._as_float_vec(x, dim)
    sf = D._as_float_vec(xstar, dim)
    fx = float(f.evaluate_batch(xf[None, :])[0])
    if not math.isfinite(fx):
        raise EvaluationFailure("f is not finite at the base point")
    scale = max(1.0, abs(fx))
    n = plan.samples_per_shell

    def draw(rng, radii):
        return _ball_draw(rng, radii, n, dim)

    def shell(w):
        with np.errstate(over="ignore"):
            pts = xf[None, :] + w
        fv = f.evaluate_batch(pts)
        norms = np.abs(w).sum(axis=1)
        margin = fv - fx - w @ sf + (a + e) * norms
        usable = np.isfinite(fv) & (norms > 0)
        bad = np.flatnonzero(usable & (margin < -D._VERIFY_RTOL * scale))
        if not len(bad):
            return usable, margin, None
        best = min(bad, key=_lex_key(pts, margin))
        if isinstance(f, (DCFunction, PAConvexFunction)):
            xq, sq = parse_vector(x, dim), parse_vector(xstar, dim)
            yq = [Fraction(float(z)) for z in pts[best]]
            rhs = dot(sq, vsub(yq, xq)) - (parse_rational(alpha) + parse_rational(eps)) * sum(
                abs(p - q) for p, q in zip(yq, xq)
            )
            if not f.evaluate(yq) - f.evaluate(xq) < rhs:
                return usable, margin, None
        witness = {"x": [float(z) for z in pts[best]], "f_x": float(fv[best]), "margin": float(margin[best])}
        return usable, margin, (witness, "inequality violated at the witness point")

    verdict = _shell_search_reference(plan, D._TAG_MEMBER, n, draw, shell, "no evaluable samples")
    if not verdict.holds:
        return verdict
    calm = D.calmness_probe(f, x, plan)
    if calm.holds:
        return replace(verdict, notes=verdict.notes + calm.notes)
    return D.ProbeVerdict(
        "Inconclusive", None, verdict.shells, notes=("no violation found, but calmness is " + calm.status,)
    )


def blunt_reference(p, x, eps, plan):
    """``blunt_min_probe`` with one evaluation per shell under the
    shell-search rule, with the row-major feasibility mask and each
    candidate re-checked in exact arithmetic."""
    from subgrad import dinioracle as D
    from subgrad.funcmodel import _float_rows
    from subgrad.errors import InfeasiblePoint
    from subgrad.optimality import feasible_set
    from subgrad.polykernel import _member
    from subgrad.rationals import parse_rational, to_float

    e = parse_rational(eps)
    a_set = feasible_set(p.constraints)
    xv, _ = _member(a_set, x, InfeasiblePoint, "is not feasible")
    dc = p.objective
    f0 = dc.evaluate(xv)
    dim = p.constraints.dim
    xf = D._as_float_vec(xv, dim)
    hrep = a_set.canonical()._hrep
    normals, offsets = _float_rows(hrep, dim)
    n = plan.samples_per_shell

    def draw(rng, radii):
        return _ball_draw(rng, radii, n, dim)

    def shell(w):
        with np.errstate(over="ignore"):
            pts = xf[None, :] + w
        feas = float_feasible_reference(pts, normals, offsets)
        fv = dc.evaluate_batch(pts)
        margins = fv - to_float(f0) + to_float(e) * np.abs(w).sum(axis=1)
        usable = feas & np.isfinite(fv)
        for i in sorted(np.flatnonzero(usable & (margins < 1e-9)), key=_lex_key(pts)):
            yq = tuple(Fraction(float(z)) for z in pts[i])
            if any(sum(a * y for a, y in zip(z[:-1], yq)) > z[-1] for z in hrep):
                continue
            fy = dc.evaluate(yq)
            margin = fy - f0 + e * sum(abs(a - b) for a, b in zip(yq, xv))
            if margin < 0:
                witness = {
                    "x": [float(z) for z in pts[i]],
                    "x_exact": format_vector(yq),
                    "f_x": format_rational(fy),
                    "margin": format_rational(margin),
                }
                return usable, margins, (witness, "violation verified in exact arithmetic")
        return usable, margins, None

    return _shell_search_reference(plan, D._TAG_BLUNT, n, draw, shell, "no feasible samples")


def regularity_reference(f, x, eps, mode, plan, direction=None):
    """``approx_regularity_probe`` with three evaluations per shell (x
    samples, y samples with the base point repeated n times, midpoints) on
    tiled copies of the samples, under the shell-search rule.  A group is
    drawn as the probe draws it: the pairs (convex: ball centres, sphere
    directions, lengths, splits; otherwise ball points, then the directional
    scales), then a random mix parameter per pair.  On PA and DC data a
    shell's first bad triple in tuple order must also violate the
    inequality in Fraction arithmetic; the witness values are the
    shell's own."""
    import math

    from subgrad import dinioracle as D
    from subgrad.errors import EvaluationFailure
    from subgrad.funcmodel import DCFunction, PAConvexFunction
    from subgrad.rationals import parse_rational, to_float

    e = to_float(parse_rational(eps))
    dim = f.dim
    if mode == "directional":
        df = D._as_float_vec(direction, dim)
    xf = D._as_float_vec(x, dim)
    fx = float(f.evaluate_batch(xf[None, :])[0])
    if not math.isfinite(fx):
        raise EvaluationFailure("f is not finite at the base point")
    scale = max(1.0, abs(fx))
    t_anchor = np.array([0.25, 0.5, 0.75])
    n = plan.samples_per_shell

    def draw(rng, radii):
        g = len(radii)
        if mode == "convex":
            w_cap = np.array([0.999 * min(r / 2.0, e) for r in radii])
            centers = xf + _ball_draw(rng, radii / 2.0, n, dim)
            dirs = D._l1_sphere_points(rng, g * n, dim).reshape(g, n, dim)
            ell = w_cap[:, None] * rng.random((g, n))
            rho = rng.random((g, n))
            xs0 = centers + (rho * ell)[:, :, None] * dirs
            ys0 = centers - ((1.0 - rho) * ell)[:, :, None] * dirs
        elif mode == "starshaped":
            xs0 = xf + _ball_draw(rng, radii, n, dim)
            ys0 = np.tile(xf, (g, n, 1))
        else:
            vs = df + _ball_draw(rng, radii, n, dim)
            s = radii[:, None] * rng.random((g, n))
            xs0 = xf + s[:, :, None] * vs
            ys0 = np.tile(xf, (g, n, 1))
        return list(zip(xs0, ys0, rng.random((g, n))))

    def shell(drawn):
        xs0, ys0, t_rand = drawn
        reps = len(t_anchor) + 1
        xs = np.tile(xs0, (reps, 1))
        ys = np.tile(ys0, (reps, 1))
        ts = np.concatenate([np.repeat(t_anchor, n), t_rand])
        fxv = np.tile(f.evaluate_batch(xs0), reps)
        fyv = np.tile(f.evaluate_batch(ys0), reps)
        mids = ts[:, None] * xs + (1.0 - ts)[:, None] * ys
        fm = f.evaluate_batch(mids)
        dist = np.abs(xs - ys).sum(axis=1)
        rhs = ts * fxv + (1.0 - ts) * fyv + e * ts * (1.0 - ts) * dist
        with np.errstate(invalid="ignore"):
            margin = rhs - fm
        usable = np.isfinite(margin)
        bad = np.flatnonzero(usable & (margin < -D._VERIFY_RTOL * scale))
        if not len(bad):
            return usable, margin, None
        best = min(bad, key=_lex_key(xs, ys, ts))
        xw = [float(z) for z in xs[best]]
        yw = [float(z) for z in ys[best]]
        tw = float(ts[best])
        if isinstance(f, (DCFunction, PAConvexFunction)):
            xq, yq, tq = [Fraction(z) for z in xw], [Fraction(z) for z in yw], Fraction(tw)
            mid = [tq * p + (1 - tq) * q for p, q in zip(xq, yq)]
            bound = tq * f.evaluate(xq) + (1 - tq) * f.evaluate(yq)
            bound += parse_rational(eps) * tq * (1 - tq) * sum(abs(p - q) for p, q in zip(xq, yq))
            if not f.evaluate(mid) > bound:
                return usable, margin, None
        witness = {
            "x": xw, "y": yw, "t": tw, "lhs": float(fm[best]), "rhs": float(rhs[best]), "margin": float(margin[best])
        }
        return usable, margin, (witness, f"{mode} inequality violated at the witness")

    rows = 5 * n + 1 if mode != "convex" else 6 * n
    return _shell_search_reference(plan, D._TAG_APPROX, rows, draw, shell, "no evaluable samples")


def gap_reference(f, x, eps, plan):
    """``gap_continuity_probe`` sample by sample: all shells drawn in one
    call, at most 16 points a shell, each finite sample promoted to
    Fractions, its exact map's gap to the base point's map kept unless the
    sample lies outside the domain.  Shells decide deepest first; a failing
    shell's witness is its first sample in tuple order."""
    import math

    from subgrad import dinioracle as D
    from subgrad.errors import PointOutsideDomain
    from subgrad.funcmodel import PAConvexFunction, dc_dini_subdifferential
    from subgrad.polykernel import L1, gap
    from subgrad.rationals import parse_rational, parse_vector

    e = parse_rational(eps)
    if isinstance(f, PAConvexFunction):
        map_at = f.subdifferential_at
    else:
        def map_at(p):
            return dc_dini_subdifferential(f, p, 0, 0)
    dim = f.dim
    exact_x = parse_vector(x, dim)
    xf = D._as_float_vec(exact_x, dim)
    base = map_at(exact_x)
    n = min(plan.samples_per_shell, 16)
    with np.errstate(over="ignore"):
        drawn = xf + _ball_draw(reference_rng(plan, D._TAG_GAP), plan.shell_radii, n, dim)
    shells, kept = [], []
    for r, pts in zip(plan.shell_radii, drawn):
        gaps, used = [], []
        for row in pts:
            if not all(math.isfinite(v) for v in row):
                continue
            p = tuple(Fraction(float(v)) for v in row)
            try:
                g = gap(base, map_at(p), L1)
            except PointOutsideDomain:
                continue
            gaps.append(g)
            used.append([float(v) for v in row])
        lo = float(min(gaps)) if gaps else math.inf
        hi = float(max(gaps)) if gaps else math.inf
        shells.append({"radius": float(r), "inf": lo, "sup": hi})
        kept.append((gaps, used))
    for k in range(len(shells) - 1, -1, -1):
        gaps, used = kept[k]
        if not gaps:
            continue
        if all(g < e for g in gaps):
            return D.ProbeVerdict("Holds", None, shells, notes=(f"all sampled gaps below eps in shell {k}",))
        if all(g >= e for g in gaps):
            i = min(range(len(used)), key=lambda i: tuple(used[i]))
            witness = {"x": used[i], "gap": float(gaps[i])}
            return D.ProbeVerdict("FailsWithWitness", witness, shells, notes=(f"every sampled gap reaches eps in shell {k}",))
    return D.ProbeVerdict("Inconclusive", None, shells, notes=("no decisive shell under this plan",))


# ---------------------------------------------------------------------------
# linear programming
# ---------------------------------------------------------------------------


def _lp_pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    inv = ONE / piv
    tableau[row] = [inv * v for v in tableau[row]]
    pivot_row = tableau[row]
    for r, tr in enumerate(tableau):
        if r != row and tr[col] != 0:
            f = tr[col]
            tableau[r] = [v - f * w for v, w in zip(tr, pivot_row)]
    basis[row] = col


def _lp_bland_loop(tableau: list[list[Fraction]], basis: list[int], ncols: int) -> str:
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
        _lp_pivot(tableau, basis, leave, enter)


def solve_lp_reference(
    objective: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
    nonneg: Sequence[bool] | None = None,
) -> LPResult:
    """Minimize ``objective . x`` over ``a_ub x <= b_ub``, ``a_eq x = b_eq``,
    by the dense Fraction two-phase simplex that ``subgrad.simplex`` replaced:
    an artificial on every row and each free variable split into a +/- pair.

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
    if _lp_bland_loop(tableau, basis, ncols) != OPTIMAL:
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
                _lp_pivot(tableau, basis, i, col)
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
    status = _lp_bland_loop(tableau, basis, ncols)
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


# ---------------------------------------------------------------------------
# random rational data
# ---------------------------------------------------------------------------


def rand_fraction(rng, span=8, max_den_pow=2) -> Fraction:
    num = int(rng.integers(-span, span + 1))
    den = 2 ** int(rng.integers(0, max_den_pow + 1))
    return Fraction(num, den)


def rand_vector(rng, dim, span=8, max_den_pow=2):
    return tuple(rand_fraction(rng, span, max_den_pow) for _ in range(dim))


def rand_polytope(rng, dim, max_verts=8, span=6) -> Polyhedron:
    n = int(rng.integers(1, max_verts + 1))
    verts = [rand_vector(rng, dim, span) for _ in range(n)]
    return Polyhedron.from_vrep(verts, dim=dim)


def rand_pointed_cone(rng, dim, max_rays=4) -> Polyhedron:
    """A polyhedral cone with its vertex at the origin and no line: 1 to
    max_rays small int rays, each turned to the positive side of a random
    direction w."""
    w = [int(v) for v in rng.integers(-2, 3, size=dim)]
    if not any(w):
        w[0] = 1
    rays = []
    for _ in range(int(rng.integers(1, max_rays + 1))):
        r = tuple(int(v) for v in rng.integers(-2, 3, size=dim))
        side = sum(a * b for a, b in zip(w, r))
        if side:
            rays.append(r if side > 0 else tuple(-v for v in r))
    return Polyhedron.from_vrep([(0,) * dim], rays or [w], dim=dim)


def rand_pa(rng, dim, max_pieces=6, slope_span=4, max_den_pow=1):
    from subgrad.funcmodel import AffinePiece, PAConvexFunction

    n = int(rng.integers(1, max_pieces + 1))
    pieces = [
        AffinePiece(
            rand_vector(rng, dim, slope_span, max_den_pow),
            rand_fraction(rng, 4, max_den_pow),
        )
        for _ in range(n)
    ]
    return PAConvexFunction(pieces)


def rand_box(rng, dim, span=4) -> Polyhedron:
    lo = [rand_fraction(rng, span) for _ in range(dim)]
    hi = [l + abs(rand_fraction(rng, span)) + 1 for l in lo]
    rows = []
    for i in range(dim):
        e = tuple(Fraction(1 if j == i else 0) for j in range(dim))
        rows.append((e, hi[i]))
        rows.append((tuple(-c for c in e), -lo[i]))
    return Polyhedron.from_hrep(rows, dim)


def rand_dc(rng, dim, max_pieces=4, restricted=False):
    """Random DC pair; when restricted, g gets a box domain around zero."""
    from subgrad.funcmodel import DCFunction, PAConvexFunction

    g = rand_pa(rng, dim, max_pieces)
    h = rand_pa(rng, dim, max_pieces)
    if restricted:
        box = rand_box(rng, dim)
        g = PAConvexFunction(g.pieces, domain=box)
    return DCFunction(g, h)
