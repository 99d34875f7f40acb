"""Exact rational polyhedra with double-description conversion.

A polyhedron carries an H-representation (finite list of halfspaces
``<normal, x> <= offset``) and/or a V-representation (vertices plus recession
rays; lineality is stored as opposite ray pairs).  Conversion between the two
runs the double description method on the homogenization cone.  Every
polyhedron holds one integer form, for its raw input and for its canonical
data alike: halfspaces are primitive int rows ``(normal..., offset)``, points
are primitive homogeneous int tuples ``(x..., t)`` for ``x / t`` with
``t > 0``, and rays are primitive nonzero int tuples.  The DD loop (with
bitmask zero sets), canonicalization and every operation below run on these.
``fractions.Fraction`` appears only at the public boundary: parsing, the
``hrep``/``vertices``/``rays`` accessors, and returned values.  All of it is
exact — no floating point anywhere.

Canonical form
--------------
``Polyhedron.canonical()`` produces a representation that depends only on the
point set: facets and rays are scaled to coprime integer entries, vertices and
rays are projected orthogonally off the lineality space, the lineality basis
is brought to reduced row echelon form and emitted as +/- ray pairs, and all
lists are sorted lexicographically.  Structural comparison of canonical forms
therefore decides set equality.

One DD run gives a canonical form.  It converts the input to the other side,
and the zero sets of its output rays prune the input side: a generator (a
row) is kept exactly when it spans an extreme ray modulo the lineality space,
which the incidence alone decides (see ``_extreme``).

Inside one top-level exact call (a ``calculus`` check or
``certify_blunt_minimizer``, each wrapped in ``memo_scope``) each distinct
raw input is converted once: a memo keyed on the dimension, the facet and
generator caps and the raw rows or points hands the canonical data of the
first conversion to every later polyhedron with the same input.  The memo
is dropped when the outermost call returns or raises; outside a call every
canonicalization runs its own DD pass.

The empty set is canonically ``x1 <= -1, -x1 <= -1`` with no vertices; the
whole space has an empty facet list.

Norms
-----
Each polyhedral norm is one list W of the vertices of its dual unit ball,
held as homogeneous int points ``(w..., t)`` for ``w / t``, with
``||x|| = max_{w in W} <w, x>`` (polar duality; Rockafellar, *Convex
Analysis*, sections 14-15).  Read as H-rows the same list is the unit ball
``<w, x> <= t``, and scaled to ``(e.num·w..., e.den·t)`` it is the dual ball
of radius e as a raw V-rep, so an eps-enlargement ``S + eps B*`` sums raw
generators and never converts the ball.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
from fractions import Fraction
from operator import and_, mul
from types import SimpleNamespace
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    CapExceeded,
    DimensionMismatch,
    EmptySetError,
    InternalCheckError,
    NotACone,
    ParseError,
    PointNotInSet,
    UnsupportedNorm,
)
from .rationals import (
    ONE,
    ZERO,
    Vector,
    format_point,
    parse_radius,
    parse_rational,
    parse_vector,
    primitive_ints,
    read_field,
    to_json_value,
    vneg,
    vzero,
)


class Caps(SimpleNamespace):
    """Size limits enforced by representation conversion, and on the
    pairwise products that build a representation."""

    def __init__(self, max_dim: int = 8, max_facets: int = 100_000, max_generators: int = 100_000):
        super().__init__(max_dim=max_dim, max_facets=max_facets, max_generators=max_generators)


CAPS = Caps()


# (dim, max_facets, max_generators, raw hrep, raw vrep) -> (facets, points,
# rays) for the outermost open ``memo_scope`` call; None outside one.
_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar("canonical_memo", default=None)


def memo_scope(fn):
    """`fn` with one canonical-form memo for its outermost call: a nested
    call reuses the open memo, and the memo is dropped when the outermost
    call returns or raises."""

    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        if _MEMO.get() is not None:
            return fn(*args, **kwargs)
        token = _MEMO.set({})
        try:
            return fn(*args, **kwargs)
        finally:
            _MEMO.reset(token)

    return scoped


def _check_product(m: int, n: int, what: str) -> None:
    """Stops a pairwise product of m by n items before it is built."""
    if m * n > CAPS.max_generators:
        raise CapExceeded(f"{what}: {m} x {n} exceeds the generator cap {CAPS.max_generators}")


class Halfspace(NamedTuple):
    """Closed halfspace ``<normal, x> <= offset``."""

    normal: Vector
    offset: Fraction


class NormSpec:
    """Which norm scales epsilon terms: l1, linf, or a polyhedral l2 stand-in.

    ``l2approx`` carries a facet count (>= 4, even); its unit ball is inscribed
    in the Euclidean ball and its dual ball circumscribes it, so exact results
    computed with it bracket the Euclidean ones.  A value, equal and hashed by
    its kind and facet count.
    """

    __slots__ = ("kind", "facets")

    def __init__(self, kind: str, facets: int | None = None):
        if kind not in ("l1", "linf", "l2approx"):
            raise ParseError(f"unknown norm kind {kind!r}")
        if kind == "l2approx":
            if facets is None or facets < 4 or facets % 2 != 0 or facets > 512:
                raise ParseError("l2approx needs an even facet count in [4, 512]")
        elif facets is not None:
            raise ParseError(f"{kind} takes no facet count")
        self.kind = kind
        self.facets = facets

    def __eq__(self, other):
        if type(other) is not NormSpec:
            return NotImplemented
        return (self.kind, self.facets) == (other.kind, other.facets)

    def __hash__(self):
        return hash((self.kind, self.facets))

    def __repr__(self):
        return f"NormSpec(kind={self.kind!r}, facets={self.facets!r})"

    @staticmethod
    def parse(text: str) -> "NormSpec":
        if not isinstance(text, str):
            raise ParseError(f"norm spec must be a string, got {text!r}")
        text = text.strip().lower()
        if text == "l1":
            return L1
        if text == "linf":
            return LINF
        if text.startswith("l2approx:"):
            try:
                k = int(text.split(":", 1)[1])
            except ValueError as exc:
                raise ParseError(f"bad norm spec {text!r}") from exc
            return NormSpec("l2approx", k)
        raise ParseError(f"bad norm spec {text!r}")

    def to_json(self) -> str:
        if self.kind == "l2approx":
            return f"l2approx:{self.facets}"
        return self.kind


L1 = NormSpec("l1")
LINF = NormSpec("linf")


# ---------------------------------------------------------------------------
# Double description core
# ---------------------------------------------------------------------------


IntVector = tuple[int, ...]


def _reduced(v: Sequence[int]) -> IntVector:
    """`v` divided by the gcd of its entries; all zeros stay zeros."""
    g = math.gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _cone_generators(ineqs: Sequence[IntVector], dim: int) -> tuple[list[IntVector], list[IntVector], list[int]]:
    """Minimal generators (lines, rays) of ``{x : a.x <= 0 for a in ineqs}``
    for int rows `ineqs`, and each ray's zero set: an int bitmask whose bit i
    says ``ineqs[i]`` is tight on the ray (for a zero row the bit is
    meaningless).

    Incremental double description; lineality is eliminated eagerly so the
    ray part stays pointed modulo the line span.  The loop runs on primitive
    int vectors: every update is a cross-multiplied integer combination
    divided by the gcd of its entries, and each zero set is an int bitmask
    over row indices.  This is exact; the lines and rays come back as
    primitive int tuples.

    Adjacency.  A row with rays on both sides keeps the rays on its
    nonpositive side and adds one combination per adjacent pair of a
    positive and a negative ray.  Two extreme rays are adjacent when no third
    ray is tight on every row they share.  Before that scan, a counting bound
    rejects most pairs (Fukuda & Prodon, "Double description method
    revisited", 1996): the shared rows cut out a 2-dimensional face modulo
    the lines, so they have rank ``dim - len(lines) - 2`` and at least that
    many bits in common.  Rank never exceeds row count, also for implicit
    equalities, zero rows and duplicates, so the bound only skips pairs that
    the scan would reject.
    """
    lines = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[IntVector, int]] = []  # (ray, zero-set bitmask)

    for idx, a in enumerate(ineqs):
        if not any(a):
            continue
        bit = 1 << idx
        lvals = [sum(map(mul, a, l)) for l in lines]
        pivot = next((i for i, v in enumerate(lvals) if v), None)
        if pivot is not None:
            # a.r0 = -|v0| < 0; adding multiples of r0 zeroes a on the rest
            v0 = lvals[pivot]
            r0 = lines[pivot] if v0 < 0 else tuple(-x for x in lines[pivot])
            v0 = abs(v0)
            lines = [_reduced([v0 * x + lv * y for x, y in zip(l, r0)]) if lv else l
                     for i, (l, lv) in enumerate(zip(lines, lvals)) if i != pivot]
            new_rays = []
            for r, mask in rays:
                rv = sum(map(mul, a, r))
                if rv:
                    r = _reduced([v0 * x + rv * y for x, y in zip(r, r0)])
                new_rays.append((r, mask | bit))
            new_rays.append((r0, bit - 1))
            rays = new_rays
            continue
        values = [sum(map(mul, a, r)) for r, _ in rays]
        if all(v <= 0 for v in values):
            rays = [(r, mask | bit) if not v else (r, mask) for (r, mask), v in zip(rays, values)]
            continue
        keep, pos, neg = [], [], []
        for k, ((r, mask), v) in enumerate(zip(rays, values)):
            if v > 0:
                pos.append((k, r, mask, v))
            elif v < 0:
                neg.append((k, r, mask, v))
                keep.append((r, mask))
            else:
                keep.append((r, mask | bit))
        outside = [~mask for _, mask in rays]
        need = dim - len(lines) - 2
        combos = []
        for kp, rp, mp, vp in pos:
            for kn, rn, mn, vn in neg:
                common = mp & mn
                if common.bit_count() < need:
                    continue
                # adjacent unless a third ray's zero set holds the common one;
                # parents are skipped by index, as equal small-int masks are one object
                if any(not common & o and k != kp and k != kn for k, o in enumerate(outside)):
                    continue
                w = _reduced([vp * x - vn * y for x, y in zip(rn, rp)])
                combos.append((w, common | bit))
                count = len(keep) + len(combos)
                if count > CAPS.max_generators:
                    raise CapExceeded(f"generator count {count} exceeds cap {CAPS.max_generators}")
        rays = keep + combos
    return lines, [r for r, _ in rays], [mask for _, mask in rays]


def _project(v: Sequence[int], ortho: Sequence[tuple[IntVector, int]]) -> IntVector:
    """Primitive ints along `v` projected off the span of `ortho`, pairs of
    orthogonal int vectors u and u.u: each step ``v <- (u.u) v - (v.u) u`` is
    a positive multiple of the rational projection."""
    for u, uu in ortho:
        vu = sum(map(mul, v, u))
        if vu:
            v = [uu * x - vu * y for x, y in zip(v, u)]
    return _reduced(v)


def _echelon(rows: Iterable[IntVector]) -> list[IntVector]:
    """The reduced row echelon basis of the span of int `rows`, each row
    scaled to primitive ints with a positive pivot; zero rows dropped.

    Fraction-free Gauss-Jordan elimination on primitive rows.  A pivot row is
    negated if needed so that its pivot p is positive; clearing its column
    replaces another row by ``p * row - row[col] * pivot_row`` divided by the
    gcd of its entries, which keeps earlier pivots positive.  Each result row
    is zero on every other pivot column, so it is a positive multiple of the
    rational rref row."""
    mat = [_reduced(r) for r in rows if any(r)]
    done = 0
    for col in range(len(mat[0]) if mat else 0):
        sel = next((i for i in range(done, len(mat)) if mat[i][col]), None)
        if sel is None:
            continue
        piv = mat[sel] if mat[sel][col] > 0 else tuple(-x for x in mat[sel])
        mat[sel] = mat[done]
        mat[done] = piv
        p = piv[col]
        mat = [_reduced([p * x - r[col] * y for x, y in zip(r, piv)]) if i != done and r[col] else r
               for i, r in enumerate(mat)]
        done += 1
    return mat[:done]


def _mod_lines(rays: Iterable[IntVector], lines: Sequence[IntVector]) -> tuple[list, list[IntVector]]:
    """An orthogonal int basis of span(lines) with squared norms, for
    `_project`, and the nonzero projections of `rays` followed by a +/- pair
    per row of the span's `_echelon` basis, duplicates kept."""
    if not lines:
        return [], list(rays)
    basis = _echelon(lines)
    ortho: list[tuple[IntVector, int]] = []
    for b in basis:
        u = _project(b, ortho)
        ortho.append((u, sum(map(mul, u, u))))
    out = [p for p in (_project(r, ortho) for r in rays) if any(p)]
    for b in basis:
        out += (b, tuple(-x for x in b))
    return ortho, out


def _extreme(gens: Sequence[IntVector], masks: Sequence[int]) -> list[IntVector]:
    """Minimal generators of cone(`gens`), read off `masks`, the zero sets
    over `gens` of the extreme rays of the polar cone: the projections of the
    extreme gens off the lineality space, duplicates kept, followed by a +/-
    pair per row of that space's `_echelon` basis.

    Each polar ray spans a facet of cone(gens).  The gens tight on every
    facet, and zero gens, span the lineality space.  The smallest face that
    holds another gen g is cut out by the facets g is tight on (all of the
    cone if there are none); its gens are the bits of the AND of those
    facets' masks.  g spans an extreme ray modulo the lineality space
    exactly when every gen of that face, lineality gens aside, has the
    projection of g (Fukuda & Prodon, "Double description method
    revisited", 1996).
    """
    n = len(gens)
    lineal = functools.reduce(and_, masks, (1 << n) - 1)
    lineal |= sum(1 << i for i, g in enumerate(gens) if not any(g))
    rest = ((1 << n) - 1) & ~lineal
    ortho, out = _mod_lines((), [g for i, g in enumerate(gens) if lineal >> i & 1])
    proj = {i: _project(g, ortho) for i, g in enumerate(gens) if rest >> i & 1}
    same: dict[IntVector, int] = {}
    for i, p in proj.items():
        same[p] = same.get(p, 0) | 1 << i
    faces = dict.fromkeys(proj, rest)
    for m in masks:
        tight = m & rest
        while tight:
            low = tight & -tight
            faces[low.bit_length() - 1] &= m
            tight ^= low
    out += [p for i, p in proj.items() if not faces[i] & ~same[p]]
    return out


def _facet_rows(polar: Iterable[IntVector], dim: int) -> tuple[IntVector, ...]:
    """Sorted distinct facet rows ``(normal..., offset)`` of homogeneous
    polar vectors ``(normal..., -offset)``, within the facet cap."""
    # A zero normal is 0 <= offset with offset >= 0: trivial, dropped.
    facets = {z[:dim] + (-z[dim],) for z in polar if any(z[:dim])}
    if len(facets) > CAPS.max_facets:
        raise CapExceeded(f"facet count {len(facets)} exceeds cap {CAPS.max_facets}")
    return tuple(sorted(facets))


def _hrep_to_vrep(rows: Sequence[IntVector], dim: int) -> tuple:
    """The canonical facets, points ``(x..., t)``, t > 0, for x / t, and rays
    of int rows ``(normal..., offset)`` by one DD run on the homogenization,
    or ``(None, (), ())`` if the rows are infeasible.  The DD rays projected
    off its lines split by t into points and rays (lines as +/- pairs,
    duplicates kept); a line has t = 0, so a point's t scales with its x.
    The rays' zero sets over the homogenized rows, ``t >= 0`` among them,
    prune those rows to the facets."""
    ineqs = [row[:dim] + (-row[dim],) for row in rows]
    ineqs.append((0,) * dim + (-1,))  # t >= 0
    lines, rays, masks = _cone_generators(ineqs, dim + 1)
    if any(l[dim] for l in lines):
        raise InternalCheckError("homogenization line with nonzero last coordinate")
    if not any(r[dim] for r in rays):
        return None, (), ()
    gens = _mod_lines(rays, lines)[1]
    facets = _facet_rows(_extreme(ineqs, masks), dim)
    return facets, [g for g in gens if g[dim]], [g[:dim] for g in gens if not g[dim]]


def _vrep_to_hrep(points: Iterable[IntVector], rays: Iterable[IntVector], dim: int) -> tuple:
    """Sorted primitive int facet rows ``(normal..., offset)`` of conv(points)
    + cone(rays), and its canonical points and rays (lines as +/- pairs,
    duplicates kept), by one DD run on the polar cone, for at least one
    primitive homogeneous point ``(x..., t)``, t > 0, and primitive nonzero
    rays.  The polar rays' zero sets prune the input to the points and rays."""
    gens = sorted({*points, *(r + (0,) for r in rays)})
    lines, polar_rays, masks = _cone_generators(gens, dim + 1)
    facets = _facet_rows(_mod_lines(polar_rays, lines)[1], dim)
    kept = _extreme(gens, masks)
    return facets, [g for g in kept if g[dim]], [g[:dim] for g in kept if not g[dim]]


def _canonical_form(dim: int, raw_hrep: tuple | None, raw_vrep: tuple | None) -> tuple:
    """The canonical (facets, points, rays) of a raw input, by one int pass
    with one DD run, in the order of the public vertices and rays.

    An H-rep input runs H->V (`_hrep_to_vrep`) and a nonempty V-rep input
    runs V->H (`_vrep_to_hrep`); each returns the facets, points and rays.
    Infeasible rows (facets None) and an empty V-rep get the one empty form.
    """
    facets = None
    if raw_hrep is not None:
        facets, points, rays = _hrep_to_vrep(raw_hrep, dim)
    elif raw_vrep[0]:
        facets, points, rays = _vrep_to_hrep(*raw_vrep, dim)
        if not points:
            raise InternalCheckError("nonempty V-rep kept no vertex")
    if facets is None:
        e1 = (1,) + (0,) * (dim - 1)
        facets, points, rays = (e1 + (-1,), (-1,) + e1[1:] + (-1,)), (), ()
    else:
        # In the order of the public vertices: by rational value, read off
        # the numerators over a common denominator.
        common = math.lcm(*(p[dim] for p in points))
        points = sorted(set(points), key=lambda p: tuple(x * (common // p[dim]) for x in p[:dim]))
        rays = tuple(sorted(set(rays)))
    return facets, tuple(points), rays


# ---------------------------------------------------------------------------
# Polyhedron
# ---------------------------------------------------------------------------


def _point(p: IntVector) -> Vector:
    """The rational point ``x / t`` of a homogeneous int point ``(x..., t)``."""
    t = p[-1]
    return tuple(Fraction(x, t) for x in p[:-1])


def _homogeneous(x: Vector) -> IntVector:
    """A rational point as a primitive homogeneous int point ``(x..., t)``, t > 0."""
    return primitive_ints(x + (ONE,))


class Polyhedron:
    """A (possibly empty, possibly unbounded) rational polyhedron.

    Instances are value objects that hold primitive ints only.  The raw input
    is kept up to positive scaling and order, as sorted distinct rows
    ``(normal..., offset)`` in ``_raw_hrep`` or as sorted distinct
    homogeneous points ``(x..., t)`` and nonzero rays in ``_raw_vrep``.
    Canonicalization fills ``_hrep`` (facet rows), ``_points`` (in the order
    of the public vertices) and ``_rays`` in place, once, with one DD run
    whose zero sets prune the input side; ``hrep``, ``vertices``, ``rays``
    and ``to_json`` build their Fractions from these on each access.  Inside
    a ``memo_scope`` call the run happens once per distinct raw input and
    caps: a later polyhedron with the same ``(dim, max_facets,
    max_generators, _raw_hrep, _raw_vrep)`` takes the stored canonical data.
    """

    __slots__ = ("dim", "_raw_hrep", "_raw_vrep", "_hrep", "_points", "_rays")

    def __init__(self, dim: int, raw_hrep: Iterable[Sequence[int]] | None = None,
                 raw_vrep: tuple[Iterable[Sequence[int]], Iterable[Sequence[int]]] | None = None):
        if dim < 1:
            raise DimensionMismatch("dimension must be >= 1")
        if dim > CAPS.max_dim:
            raise CapExceeded(f"dimension {dim} exceeds cap {CAPS.max_dim}")
        self.dim = dim
        self._raw_hrep = None if raw_hrep is None else tuple(sorted({_reduced(z) for z in raw_hrep}))
        if raw_vrep is not None:
            points, rays = raw_vrep
            raw_vrep = (tuple(sorted({_reduced(x) for x in points})),
                        tuple(sorted({_reduced(r) for r in rays if any(r)})))
        self._raw_vrep = raw_vrep
        self._hrep: tuple[IntVector, ...] | None = None
        self._points: tuple[IntVector, ...] | None = None
        self._rays: tuple[IntVector, ...] | None = None

    # -- constructors --------------------------------------------------

    @classmethod
    def from_hrep(cls, halfspaces: Iterable, dim: int) -> "Polyhedron":
        return cls(dim, raw_hrep=[primitive_ints(parse_vector(h[0], dim) + (parse_rational(h[1]),))
                                  for h in halfspaces])

    @classmethod
    def from_vrep(cls, vertices: Iterable, rays: Iterable = (), *, dim: int) -> "Polyhedron":
        points = [_homogeneous(parse_vector(v, dim)) for v in vertices]
        return cls(dim, raw_vrep=(points, [primitive_ints(parse_vector(r, dim)) for r in rays]))

    @classmethod
    def whole_space(cls, dim: int) -> "Polyhedron":
        return cls(dim, raw_hrep=())

    @classmethod
    def empty(cls, dim: int) -> "Polyhedron":
        return cls(dim, raw_vrep=((), ()))

    # -- canonicalization ----------------------------------------------

    def _canonicalize(self) -> None:
        """Fills the canonical facets, points and rays: from the open memo
        if an earlier polyhedron of this call had the same raw input under
        the same caps, else by one int pass with one DD run (`_canonical_form`),
        stored in the memo if one is open."""
        if self._hrep is not None:
            return
        memo = _MEMO.get()
        if memo is None:
            form = _canonical_form(self.dim, self._raw_hrep, self._raw_vrep)
        else:
            key = (self.dim, CAPS.max_facets, CAPS.max_generators, self._raw_hrep, self._raw_vrep)
            form = memo.get(key)
            if form is None:
                form = memo[key] = _canonical_form(self.dim, self._raw_hrep, self._raw_vrep)
        self._hrep, self._points, self._rays = form

    def canonical(self) -> "Polyhedron":
        self._canonicalize()
        return self

    @property
    def hrep(self) -> tuple[Halfspace, ...]:
        self._canonicalize()
        return tuple(Halfspace(tuple(map(Fraction, z[:-1])), Fraction(z[-1])) for z in self._hrep)

    @property
    def _rows(self) -> tuple[IntVector, ...]:
        """The int rows this polyhedron was built from, else its canonical
        facets.

        Same point set either way; reading the raw rows runs no DD.
        """
        return self._raw_hrep if self._raw_hrep is not None else self.canonical()._hrep

    @property
    def _gens(self) -> tuple[tuple[IntVector, ...], tuple[IntVector, ...]]:
        """The homogeneous int (points, rays) this polyhedron was built from,
        else its canonical ones.

        Same point set either way; reading the raw pair runs no DD.
        """
        if self._raw_vrep is not None:
            return self._raw_vrep
        self._canonicalize()
        return self._points, self._rays

    @property
    def vertices(self) -> tuple[Vector, ...]:
        self._canonicalize()
        return tuple(map(_point, self._points))

    @property
    def rays(self) -> tuple[Vector, ...]:
        self._canonicalize()
        return tuple(tuple(map(Fraction, r)) for r in self._rays)

    @property
    def is_empty(self) -> bool:
        if self._hrep is None and self._raw_vrep is not None:
            return not self._raw_vrep[0]
        return not self.canonical()._points

    def is_bounded(self) -> bool:
        return bool(self.canonical()._points) and not self._rays

    # -- comparison / display -------------------------------------------

    def _key(self):
        self._canonicalize()
        return (self.dim, self._hrep, self._points, self._rays)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polyhedron):
            return NotImplemented
        if self.dim != other.dim:
            return False
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        if self.is_empty:
            return f"Polyhedron(dim={self.dim}, empty)"
        return (
            f"Polyhedron(dim={self.dim}, facets={len(self.hrep)}, "
            f"vertices={len(self.vertices)}, rays={len(self.rays)})"
        )

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        hrep = [h._asdict() for h in self.hrep]
        return to_json_value({"dim": self.dim, "hrep": hrep, "vrep": {"vertices": self.vertices, "rays": self.rays}})

    @classmethod
    def from_json(cls, obj: dict) -> "Polyhedron":
        dim = read_field(obj, "polyhedron", "dim", int)
        hrep = read_field(obj, "polyhedron", "hrep", list, None)
        vrep = read_field(obj, "polyhedron", "vrep", dict, None)
        if hrep is None and vrep is None:
            raise ParseError("polyhedron needs an 'hrep' or a 'vrep'")
        from_h = from_v = None
        if hrep is not None:
            from_h = cls.from_hrep([(read_field(h, "halfspace", "normal", list), read_field(h, "halfspace", "offset"))
                                    for h in hrep], dim)
        if vrep is not None:
            from_v = cls.from_vrep(*(read_field(vrep, "vrep", key, list, ()) for key in ("vertices", "rays")), dim=dim)
        if from_h is not None and from_v is not None and from_h != from_v:
            raise ParseError("hrep and vrep describe different sets")
        return from_h if from_h is not None else from_v


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _same_dim(*polys: Polyhedron) -> int:
    dims = {p.dim for p in polys}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed dimensions {sorted(dims)}")
    return dims.pop()


def _slack(z: IntVector, x: IntVector) -> int:
    """``t·offset - normal·x`` for a row ``(normal..., offset)`` and a point
    ``(x..., t)``: as t > 0, its sign is the sign of ``offset - normal·(x / t)``."""
    return z[-1] * x[-1] - sum(map(mul, z[:-1], x))


def _satisfies(rows: Iterable[IntVector], x: IntVector) -> bool:
    return all(_slack(z, x) >= 0 for z in rows)


def support_function(p: Polyhedron, direction: Sequence) -> Fraction | float:
    """sup over p of <direction, x>; +inf when unbounded in that direction."""
    # d = (n..., s) for n / s, read like a point
    d = _homogeneous(parse_vector(direction, p.dim))
    if p.is_empty:
        raise EmptySetError("support function of the empty set")
    best = _support(p, d[:-1])
    return math.inf if best is None else Fraction(best[0], best[1] * d[-1])


def _support(p: Polyhedron, n: Sequence[int]) -> tuple[int, int] | None:
    """sup over a nonempty p of <n, x> for an int direction n, as a pair
    ``(value, t)`` for ``value / t`` with t > 0; None when it is +inf.

    Reads the generators p was built from: over any generating set, the sup
    is +inf when a ray has a positive dot, else the largest point value.
    """
    points, rays = p._gens
    if any(sum(map(mul, n, r)) > 0 for r in rays):
        return None
    # the largest n.x / t over the points (x..., t), by cross-multiplying;
    # map stops at len(n), before t
    best, best_t = None, 1
    for x in points:
        value, t = sum(map(mul, n, x)), x[-1]
        if best is None or value * best_t > best * t:
            best, best_t = value, t
    return best, best_t


def contains_point(p: Polyhedron, point: Sequence) -> bool:
    return _satisfies(p._rows, _homogeneous(parse_vector(point, p.dim)))


def strictly_contains_point(p: Polyhedron, point: Sequence) -> bool:
    """Interior membership (canonical facets satisfied strictly)."""
    return _strictly_inside(p, _homogeneous(parse_vector(point, p.dim)))


def _strictly_inside(p: Polyhedron, x: IntVector) -> bool:
    """Is the homogeneous int point x interior to p?"""
    return not p.is_empty and all(_slack(z, x) > 0 for z in p.canonical()._hrep)


def contains_polyhedron(p: Polyhedron, q: Polyhedron) -> tuple[bool, Vector | None]:
    """Is q a subset of p?  On failure returns a point of q outside p: the
    first canonical vertex of q that violates a facet of p, else a point on
    the first ray of q that leaves p."""
    _same_dim(p, q)
    if q.is_empty:
        return True, None
    points = q.canonical()._points
    if p.is_empty:
        return False, _point(points[0])
    facets = p.canonical()._hrep
    for x in points:
        if not _satisfies(facets, x):
            return False, _point(x)
    base = points[0]
    for r in q._rays:
        for z in facets:
            along = sum(map(mul, z, r))  # map stops before z's offset
            if along > 0:
                # base + s·r leaves p once s > slack / along
                slack = _slack(z, base)
                s = Fraction(slack, base[-1] * along) + 1 if slack > 0 else ONE
                return False, tuple(b + s * y for b, y in zip(_point(base), r))
    return True, None


def intersect(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    return intersect_many([p, q])


def intersect_many(polys: Sequence[Polyhedron]) -> Polyhedron:
    if not polys:
        raise ValueError("intersect_many needs at least one operand")
    dim = _same_dim(*polys)
    return Polyhedron(dim, raw_hrep=[z for p in polys for z in p._rows])


def minkowski_sum(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    """Pointwise sum; empty + anything = empty by convention."""
    dim = _same_dim(p, q)
    if p.is_empty or q.is_empty:
        return Polyhedron.empty(dim)
    (p_points, p_rays), (q_points, q_rays) = p._gens, q._gens
    _check_product(len(p_points), len(q_points), "Minkowski sum points")
    # x1 / t1 + x2 / t2 = (x1·t2 + x2·t1) / (t1·t2)
    points = [tuple(a * w[-1] + b * v[-1] for a, b in zip(v[:-1], w)) + (v[-1] * w[-1],)
              for v in p_points for w in q_points]
    return Polyhedron(dim, raw_vrep=(points, p_rays + q_rays))


def translate(p: Polyhedron, shift: Sequence) -> Polyhedron:
    return _translate(p, _homogeneous(parse_vector(shift, p.dim)))


def _translate(p: Polyhedron, u: IntVector) -> Polyhedron:
    """p shifted by the point of a homogeneous int ``u = (y..., s)``, s > 0."""
    if p.is_empty:
        return Polyhedron.empty(p.dim)
    # normal·(x - y / s) <= offset  iff  s·normal·x <= s·offset + normal·y
    s = u[-1]
    moved = [tuple(s * a for a in z[:-1]) + (s * z[-1] + sum(map(mul, z[:-1], u)),) for z in p._rows]
    return Polyhedron(p.dim, raw_hrep=moved)


def star_difference(a: Polyhedron, b: Polyhedron) -> Polyhedron:
    """Erosion ``a (-*) b = {x : x + b subseteq a}``.

    Computed by shifting every facet of ``a`` inward by the support value of
    ``b`` in the facet normal direction.  Conventions: b empty -> whole space;
    a empty (b nonempty) -> empty.
    """
    dim = _same_dim(a, b)
    if b.is_empty:
        return Polyhedron.whole_space(dim)
    if a.is_empty:
        return Polyhedron.empty(dim)
    shifted = []
    for z in a.canonical()._hrep:
        best = _support(b, z[:-1])
        if best is None:
            return Polyhedron.empty(dim)
        # normal·x <= offset - value / t, times t
        value, t = best
        shifted.append(tuple(t * x for x in z[:-1]) + (t * z[-1] - value,))
    return Polyhedron(dim, raw_hrep=shifted)


def affine_image(p: Polyhedron, matrix: Sequence[Sequence], offset: Sequence | None = None) -> Polyhedron:
    """Image ``{M x + c : x in p}`` in the row dimension of M."""
    rows = [parse_vector(r, p.dim) for r in matrix]
    out_dim = len(rows)
    if out_dim < 1:
        raise DimensionMismatch("affine image needs at least one output row")
    c = parse_vector(offset, out_dim) if offset is not None else vzero(out_dim)
    if p.is_empty:
        return Polyhedron.empty(out_dim)
    # M (x / t) + c = (L·M x + L·c t) / (L t), with L clearing the denominators
    scale = math.lcm(*(v.denominator for r in (*rows, c) for v in r))
    m = [[int(v * scale) for v in r] for r in rows]
    shift = [int(v * scale) for v in c]
    points, p_rays = p._gens
    images = [tuple(sum(map(mul, r, x)) + k * x[-1] for r, k in zip(m, shift)) + (scale * x[-1],)
              for x in points]
    return Polyhedron(out_dim, raw_vrep=(images, [[sum(map(mul, r, y)) for r in m] for y in p_rays]))


def _member(p: Polyhedron, point: Sequence, error: type[Exception], fails: str) -> tuple[Vector, IntVector]:
    """A point of p as its Fractions and its homogeneous int point, parsed and
    tested against p's rows once; off p, raises ``error``: "<point> <fails>"."""
    xv = parse_vector(point, p.dim)
    x = _homogeneous(xv)
    if not _satisfies(p._rows, x):
        raise error(f"{format_point(xv, elide=True)} {fails}")
    return xv, x


def _active_normals(p: Polyhedron, x: IntVector) -> list[IntVector]:
    """Int normals of the canonical facets of p that hold with equality at a
    homogeneous int point x of p (membership is the caller's test)."""
    return [z[:-1] for z in p.canonical()._hrep if not _slack(z, x)]


def _normal_cone(p: Polyhedron, x: IntVector) -> Polyhedron:
    """Outer normal cone of p at a homogeneous int point x of p."""
    return Polyhedron(p.dim, raw_vrep=([(0,) * p.dim + (1,)], _active_normals(p, x)))


def normal_cone_at(p: Polyhedron, point: Sequence) -> Polyhedron:
    """Outer normal cone of p at a point of p (cone of active facet normals)."""
    return _normal_cone(p, _member(p, point, PointNotInSet, "is not in the polyhedron")[1])


def tangent_cone_at(p: Polyhedron, point: Sequence) -> Polyhedron:
    """Cone of feasible directions at a point of p (polar of the normal cone)."""
    _, x = _member(p, point, PointNotInSet, "is not in the polyhedron")
    return Polyhedron(p.dim, raw_hrep=[n + (0,) for n in _active_normals(p, x)])


def _is_cone(p: Polyhedron) -> bool:
    """Whether p is a cone with vertex at the origin (its canonical points are exactly the origin)."""
    return p.canonical()._points == ((0,) * p.dim + (1,),)


def cone_is_linear_subspace(c: Polyhedron) -> bool:
    """True iff the polyhedral cone c equals -c.

    Raises NotACone unless c is a cone (canonically: single vertex at 0).
    """
    if not _is_cone(c):
        raise NotACone("expected a cone generated by rays from the origin")
    rays = set(c._rays)
    return all(tuple(-x for x in r) in rays for r in rays)


def conic_hull(p: Polyhedron) -> Polyhedron:
    """Smallest closed convex cone containing p (generated by its V-rep)."""
    if p.is_empty:
        raise EmptySetError("conic hull of the empty set")
    points, rays = p._gens
    gens = [x[:-1] for x in points if any(x[:-1])]
    return Polyhedron(p.dim, raw_vrep=([(0,) * p.dim + (1,)], gens + list(rays)))


# ---------------------------------------------------------------------------
# Norm balls and gap distance
# ---------------------------------------------------------------------------


def _l2approx_directions(k: int) -> list[Vector]:
    """k unit-norm rational plane directions in +/- pairs, near-uniform."""
    half = k // 2
    dirs: list[Vector] = []
    for j in range(half):
        theta = math.pi * j / half
        t = Fraction(math.tan(theta / 2)).limit_denominator(8 * k)
        num = 1 + t * t
        u = ((1 - t * t) / num, 2 * t / num)
        dirs.append(u)
    out = list(dict.fromkeys(v for u in dirs for v in (u, vneg(u))))
    if len(out) != k:
        raise UnsupportedNorm(f"could not realize {k} distinct l2approx facets")
    return out


def _dual_vertices(norm: NormSpec, dim: int) -> list[IntVector]:
    """The vertices W of the dual unit ball, so that ``||x|| = max_{w in W} <w, x>``,
    as primitive homogeneous int points ``(w..., t)``.

    l1 in dimension >= 2: the 2^dim sign vectors; linf and any norm in
    dimension 1: the +/- unit vectors; l2approx in the plane: the vertices of
    ``{y : <u, y> <= 1}`` over its directions u, one per pair of neighbours by
    angle.  Only l2approx has vertices with t > 1.
    """
    if norm.kind == "l1" and dim > 1:
        if 2 ** dim > CAPS.max_generators:
            raise CapExceeded(f"l1 dual ball has 2^{dim} vertices, over the generator cap "
                              f"{CAPS.max_generators}")
        return [w + (1,) for w in itertools.product((1, -1), repeat=dim)]
    if norm.kind != "l2approx" or dim == 1:
        return [tuple(s if j == i else 0 for j in range(dim)) + (1,) for i in range(dim) for s in (1, -1)]
    if dim != 2:
        raise UnsupportedNorm("l2approx is available in dimensions 1 and 2 only")
    # unit vectors by angle: the upper half circle by falling x, then the lower
    # by rising x; every tangent line <u, y> = 1 is a facet, so neighbours meet
    # at a vertex
    dirs = sorted(_l2approx_directions(norm.facets),
                  key=lambda u: (0, -u[0]) if u[1] > 0 or (u[1] == 0 and u[0] > 0) else (1, u[0]))
    out = []
    for a, b in zip(dirs, dirs[1:] + dirs[:1]):
        det = a[0] * b[1] - a[1] * b[0]
        out.append(_homogeneous(((b[1] - a[1]) / det, (a[0] - b[0]) / det)))
    return out


def norm_unit_ball(norm: NormSpec, dim: int) -> Polyhedron:
    """Unit ball ``{x : <w, x> <= t for (w..., t) in W}`` of the (primal)
    norm; for l2approx it is inscribed in the Euclidean ball (touching at
    rational points), so the approx norm dominates the Euclidean norm."""
    return Polyhedron(dim, raw_hrep=_dual_vertices(norm, dim))


def dual_norm_ball(norm: NormSpec, eps, dim: int) -> Polyhedron:
    """Ball ``conv(eps W)`` of radius eps in the dual norm (l1 <-> linf;
    l2approx's dual ball circumscribes the Euclidean eps-ball with k facets).
    It stays a raw V-rep, so a Minkowski sum with it runs no DD on the ball."""
    e = parse_radius(eps, "radius")
    points = [tuple(e.numerator * x for x in w[:-1]) + (e.denominator * w[-1],) for w in _dual_vertices(norm, dim)]
    return Polyhedron(dim, raw_vrep=(points, ()))


def gap(a: Polyhedron, b: Polyhedron, norm: NormSpec = L1) -> Fraction | float:
    """inf { ||x - y|| : x in a, y in b }; +inf when either set is empty.

    Zero without an LP when a generator point of one set satisfies the other
    set's rows: the sets then meet, whatever the norm.  Otherwise an exact LP
    for l1/linf; for l2approx the value is an upper bound on the Euclidean gap
    (the approximating norm dominates the Euclidean one).
    """
    _same_dim(a, b)
    if a.is_empty or b.is_empty:
        return math.inf
    if any(_satisfies(a._rows, x) for x in b._gens[0]):
        return ZERO
    if any(_satisfies(b._rows, x) for x in a._gens[0]):
        return ZERO
    return _gap_lp(a, b, norm)


def _gap_lp(a: Polyhedron, b: Polyhedron, norm: NormSpec) -> Fraction | float:
    """The gap of two nonempty sets of one dimension, as an LP over (x, y, t)."""
    dim = a.dim
    from .simplex import OPTIMAL, solve_lp

    # int rows (coefficients of x, y and t..., bound)
    rows = [z[:-1] + (0,) * (dim + 1) + z[-1:] for z in a.canonical()._hrep]
    rows += [(0,) * dim + z[:-1] + (0,) + z[-1:] for z in b.canonical()._hrep]
    # ||x - y|| <= t as <w, x - y> <= s·t over the dual ball's vertices
    # (w..., s): the unit ball's own rows, with no DD run to canonicalize it
    rows += [w[:-1] + tuple(-x for x in w[:-1]) + (-w[-1], 0) for w in _dual_vertices(norm, dim)]
    res = solve_lp([0] * (2 * dim) + [1], rows, nonneg=[False] * (2 * dim) + [True])
    if res.status != OPTIMAL:
        raise InternalCheckError(f"gap LP should be solvable, got {res.status}")
    return res.value
