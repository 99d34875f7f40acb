"""Seeded inputs and output checks for the benchmark workloads.

Every input is a pure function of the workload seed.  The structure of a
workload (items per block, their kinds and dimensions) is fixed; the seed only
draws the numbers, so two seeds give different inputs with the same mix.

Each item carries the check its output must pass.  Expected verdicts come from
how an input was built, never from the library under test: an ``h`` whose
slopes are convex combinations of ``g``'s active slopes makes every inclusion
hold, and a slope pushed past a separating direction makes it fail.  Witnesses
are replayed here with plain ``Fraction`` or numpy arithmetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

import numpy as np

HALF = F(1, 2)
EQUALITY_GRID = ((F(0), F(0)), (F(0), HALF), (HALF, F(0)), (HALF, HALF))
# One round of claims per entry; the second d = 4 round makes the heaviest
# checks (a tenth of the items) a dense group that holds the 90th percentile.
CALCULUS_DIMS = (1, 2, 3, 4, 4)
# One round of probes per entry.  d = 4 appears three times so that the
# median latency falls inside one dense group of items; the two d = 7 rounds
# (a quarter of the items, most of the time) hold the 90th percentile.
SAMPLING_DIMS = (1, 2, 4, 4, 4, 6, 7, 7)
DINI_RTOL = 1e-6


class WrongOutput(Exception):
    """An item's output contradicts what its input was built to produce."""


@dataclass
class Item:
    kind: str
    dim: int
    run: Callable[[], object]
    check: Callable[[object], None]


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongOutput(message)


def block_rng(seed: int, workload: str, block: int) -> np.random.Generator:
    tag = sum(workload.encode())
    return np.random.default_rng([seed & 0xFFFFFFFF, tag, block])


# ---------------------------------------------------------------------------
# Raw rational data, evaluated here without the library
# ---------------------------------------------------------------------------


def dyadic(rng, span: int, den_pow: int = 1) -> F:
    return F(int(rng.integers(-span, span + 1)), 2 ** int(rng.integers(0, den_pow + 1)))


def dyadic_vec(rng, dim: int, span: int, den_pow: int = 1) -> tuple:
    return tuple(dyadic(rng, span, den_pow) for _ in range(dim))


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def pa_value(pieces, x) -> F:
    return max(dot(s, x) + b for s, b in pieces)


def pa_dir(pieces, x, d) -> F:
    """One-sided derivative of a whole-space max of affine pieces."""
    vals = [dot(s, x) + b for s, b in pieces]
    top = max(vals)
    return max(dot(s, d) for (s, _), v in zip(pieces, vals) if v == top)


def distinct_slopes(rng, dim: int, count: int, span: int = 4) -> list:
    out: list = []
    while len(out) < count:
        s = dyadic_vec(rng, dim, span)
        if s not in out:
            out.append(s)
    return out


def nonzero_vec(rng, dim: int, span: int) -> tuple:
    while True:
        v = tuple(F(int(rng.integers(-span, span + 1))) for _ in range(dim))
        if any(v):
            return v


def convex_combination(rng, slopes) -> tuple:
    w = [int(a) for a in rng.integers(1, 4, size=len(slopes))]
    total = sum(w)
    return tuple(sum(F(wi, total) * s[j] for wi, s in zip(w, slopes)) for j in range(len(slopes[0])))


def outside_slope(slopes, u, push: int = 1) -> tuple:
    """A slope beyond conv(slopes) along u: its u-value exceeds every slope's."""
    best = max(slopes, key=lambda s: dot(u, s))
    return tuple(b + push * c for b, c in zip(best, u))


@dataclass
class KinkedDC:
    """g - h with every g- and h-piece active at x, plus one inactive g-piece.

    With ``included`` the h-slopes are convex combinations of the active
    g-slopes, so subdiff h lies in subdiff g; otherwise one h-slope lies
    outside conv(g-slopes).
    """

    dim: int
    x: tuple
    g: list
    h: list
    included: bool


def kinked_dc(rng, dim: int, included: bool) -> KinkedDC:
    x = dyadic_vec(rng, dim, 2)
    active = distinct_slopes(rng, dim, 2)
    g = [(s, 1 - dot(s, x)) for s in active]
    low = dyadic_vec(rng, dim, 4)
    g.append((low, F(-4) - dot(low, x)))
    if included:
        hs = [convex_combination(rng, active) for _ in range(2)]
    else:
        hs = [convex_combination(rng, active), outside_slope(active, nonzero_vec(rng, dim, 2))]
    h = [(s, -dot(s, x)) for s in hs]
    return KinkedDC(dim, x, g, h, included)


def box_with_vertex(rng, x) -> list:
    """H-rows of an axis box that has x as a vertex."""
    rows = []
    for i, xi in enumerate(x):
        e = tuple(F(int(j == i)) for j in range(len(x)))
        ne = tuple(-c for c in e)
        width = F(int(rng.integers(1, 3)))
        if rng.integers(0, 2):
            rows += [(e, xi + width), (ne, -xi)]
        else:
            rows += [(e, xi), (ne, width - xi)]
    return rows


@dataclass
class ConeProblem:
    """min g - h over x in C with M x + c in -R^m_+, at the point 0.

    Row 0 of M is active at 0, so the feasible normal cone at 0 is cone{m}.
    ``positive`` puts h's slopes inside conv(g-slopes), which makes 0 a blunt
    minimizer (indeed g >= h everywhere); otherwise one h-slope is pushed
    along -m past conv(g-slopes), which leaves a feasible descent direction.
    """

    dim: int
    g: list
    h: list
    c_rows: list
    m: list
    c: list
    positive: bool


def cone_problem(rng, dim: int, positive: bool, *, simplex_c: bool = False, push: int = 1) -> ConeProblem:
    active = distinct_slopes(rng, dim, dim + 1)
    m0 = nonzero_vec(rng, dim, 2)
    m1 = dyadic_vec(rng, dim, 2)
    if positive:
        hs = [convex_combination(rng, active) for _ in range(2)]
    else:
        hs = [outside_slope(active, tuple(-v for v in m0), push)]
    units = [tuple(F(int(j == i)) for j in range(dim)) for i in range(dim)]
    if simplex_c:
        c_rows = [(tuple(-v for v in e), F(1)) for e in units]
        c_rows.append((tuple(F(1) for _ in range(dim)), F(1)))
    else:
        c_rows = [(e, F(1)) for e in units] + [(tuple(-v for v in e), F(1)) for e in units]
    return ConeProblem(
        dim,
        [(s, F(0)) for s in active],
        [(s, F(0)) for s in hs],
        c_rows,
        [m0, m1],
        [F(0), F(-1)],
        positive,
    )


def feasible(p: ConeProblem, y) -> bool:
    return all(dot(a, y) <= b for a, b in p.c_rows) and all(
        dot(row, y) + ci <= 0 for row, ci in zip(p.m, p.c)
    )


# ---------------------------------------------------------------------------
# JSON documents in the CLI's input format
# ---------------------------------------------------------------------------


def fmt(v: F) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def fmt_vec(v) -> list:
    return [fmt(a) for a in v]


def pa_json(pieces, domain_rows=None, dim=None) -> dict:
    out = {
        "type": "pa_convex",
        "pieces": [{"slope": fmt_vec(s), "intercept": fmt(b)} for s, b in pieces],
        "domain": None,
    }
    if domain_rows is not None:
        out["domain"] = hrep_json(domain_rows, dim)
    return out


def hrep_json(rows, dim: int) -> dict:
    return {"dim": dim, "hrep": [{"normal": fmt_vec(a), "offset": fmt(b)} for a, b in rows]}


def dc_json(k: KinkedDC, domain_rows=None) -> dict:
    return {"type": "dc", "g": pa_json(k.g, domain_rows, k.dim), "h": pa_json(k.h)}


def problem_json(p: ConeProblem) -> dict:
    return {
        "objective": {"type": "dc", "g": pa_json(p.g), "h": pa_json(p.h)},
        "C": hrep_json(p.c_rows, p.dim),
        "k": {"M": [fmt_vec(r) for r in p.m], "c": fmt_vec(p.c)},
        "K": None,
    }


def point_text(x) -> str:
    return ",".join(fmt(v) for v in x)


# ---------------------------------------------------------------------------
# Library objects (imported lazily: the library is only importable once the
# source tree is on sys.path)
# ---------------------------------------------------------------------------


def pa_obj(pieces, domain_rows=None):
    from subgrad.funcmodel import AffinePiece, PAConvexFunction
    from subgrad.polykernel import Polyhedron

    domain = None
    if domain_rows is not None:
        domain = Polyhedron.from_hrep(domain_rows, len(pieces[0][0]))
    return PAConvexFunction([AffinePiece(s, b) for s, b in pieces], domain)


def dc_obj(k: KinkedDC, domain_rows=None):
    from subgrad.funcmodel import DCFunction

    return DCFunction(pa_obj(k.g, domain_rows), pa_obj(k.h))


def problem_obj(p: ConeProblem):
    from subgrad.optimality import ProblemInstance

    return ProblemInstance.from_json(problem_json(p))


# ---------------------------------------------------------------------------
# calculus: exact claim checks and certificates, in-process
# ---------------------------------------------------------------------------


def _verdict_check(claim: str, allowed: tuple) -> Callable:
    def check(cert) -> None:
        expect(cert.claim_id == claim, f"claim id {cert.claim_id}, expected {claim}")
        expect(cert.verdict in allowed, f"{claim} verdict {cert.verdict}, expected {allowed}")

    return check


def _certificate_check(p: ConeProblem) -> Callable:
    zero = tuple(F(0) for _ in range(p.dim))

    def f(y):
        return pa_value(p.g, y) - pa_value(p.h, y)

    def check(cert) -> None:
        if p.positive:
            expect(cert.verdict == "BluntMinimizerAllEps", f"verdict {cert.verdict} on a positive problem")
            expect(cert.descent is None, "positive certificate carries a descent witness")
            return
        expect(cert.verdict == "NotBluntMinimizer", f"verdict {cert.verdict} on a negative problem")
        d = cert.descent
        expect(d is not None, "negative certificate without a descent witness")
        y = tuple(a + d["step"] * b for a, b in zip(zero, d["direction"]))
        expect(feasible(p, y), "descent step point is infeasible")
        expect(d["rate"] < 0, "descent rate is not negative")
        expect(f(zero) == d["f_base"] and f(y) == d["f_step"], "descent values do not replay")
        expect(d["f_step"] - d["f_base"] == d["step"] * d["rate"], "f_step - f_base != step * rate")

    return check


def calculus_block(seed: int, block: int) -> list[Item]:
    """Per dimension: the equality grid, Inclusion13 inside and on the domain
    boundary, Intersection27, Cor11, Cor12a, SumRule12, LocalMinNecessary and
    (d >= 2) one certificate, each on its own freshly drawn input."""
    from subgrad import calculus as calc, optimality

    rng = block_rng(seed, "calculus", block)
    holds = ("Equal", "StrictInclusion")
    items: list[Item] = []

    def add(kind, dim, call, check, included=True, boundary=False):
        k = kinked_dc(rng, dim, included)
        dc = dc_obj(k, box_with_vertex(rng, k.x) if boundary else None)
        items.append(Item(kind, dim, lambda dc=dc, x=k.x: call(dc, x), check))

    for round_, dim in enumerate(CALCULUS_DIMS):
        included = (block + round_) % 2 == 0
        for e, n in EQUALITY_GRID:
            claim = "Equality22" if e == 0 and n == 0 else "Equality26"
            add(claim, dim, lambda dc, x, e=e, n=n: calc.check_difference_formula(dc, x, e, n),
                _verdict_check(claim, ("Equal",)))
        add("Inclusion13", dim, lambda dc, x: calc.check_inclusion_13(dc, x, HALF, HALF),
            _verdict_check("Inclusion13", holds))
        add("Inclusion13_boundary", dim, lambda dc, x: calc.check_inclusion_13(dc, x, HALF, HALF),
            _verdict_check("Inclusion13", holds), boundary=True)
        add("Intersection27", dim, lambda dc, x: calc.check_intersection_formula(dc, x, HALF, (0, HALF, 1)),
            _verdict_check("Intersection27", ("Equal",)))
        inclusion = holds if included else ("Fails",)
        add("Cor11", dim, lambda dc, x: calc.check_corollary11(dc, x), _verdict_check("Cor11", inclusion), included)
        add("Cor12a", dim, lambda dc, x: calc.check_corollary12(dc, x, HALF), _verdict_check("Cor12a", ("Equal",)))
        add("SumRule12", dim, lambda dc, x: calc.check_sum_rule(dc.g, dc.h, x, HALF, HALF),
            _verdict_check("SumRule12", ("Equal",)))
        add("LocalMinNecessary", dim, lambda dc, x: calc.local_min_necessary(dc, x),
            _verdict_check("LocalMinNecessary", inclusion), included)
        if dim >= 2:
            p = cone_problem(rng, dim, included)
            prob = problem_obj(p)
            zero = tuple(F(0) for _ in range(dim))
            items.append(Item(
                "certify", dim,
                lambda prob=prob, zero=zero: optimality.certify_blunt_minimizer(prob, zero),
                _certificate_check(p),
            ))
    return items


# ---------------------------------------------------------------------------
# sampling: float probes, in-process
# ---------------------------------------------------------------------------

_DEEP_LADDER = (1, 4, 8, 12, 16, 20, 21, 22, 23)


def sampling_plans(seed: int, dim: int):
    """(dini plan, plan for the other probes) at this dimension.

    Stable derivative estimates need shells down to 2^-23 (criterion 5).  At
    d >= 6 each shell costs a rejection loop that accepts 1/d! of its draws,
    so those dimensions use a sparse ladder of nine shells and fewer samples.
    """
    from subgrad.dinioracle import SamplingPlan

    if dim <= 4:
        deep = SamplingPlan(
            shell_radii=tuple(2.0 ** -k for k in range(1, 24)), stabilization_tol=1e-5, seed=seed
        )
        return deep, SamplingPlan(seed=seed)
    plan = SamplingPlan(
        shell_radii=tuple(2.0 ** -k for k in _DEEP_LADDER),
        samples_per_shell=128 if dim == 6 else 64,
        stabilization_tol=1e-5,
        seed=seed,
    )
    return plan, plan


def _controlled_pa(rng, dim: int, count: int) -> list:
    return [
        (tuple(F(int(rng.integers(-4, 5)), 2) for _ in range(dim)), F(int(rng.integers(-4, 5)), 2))
        for _ in range(count)
    ]


def _dini_instance(rng, dim: int, dc: bool):
    """Dyadic PA (or DC) data, point and direction with |exact| >= 1."""
    while True:
        g = _controlled_pa(rng, dim, int(rng.integers(1, 5)))
        h = _controlled_pa(rng, dim, int(rng.integers(1, 3))) if dc else None
        x = tuple(F(int(rng.integers(-4, 5)), 4) for _ in range(dim))
        d = tuple(F(int(rng.integers(-2, 3)), 2) for _ in range(dim))
        if not any(d):
            continue
        exact = pa_dir(g, x, d) - (pa_dir(h, x, d) if dc else 0)
        if abs(exact) >= 1:
            return g, h, x, d, exact


def _dini_check(exact: F) -> Callable:
    def check(est) -> None:
        expect(not est.diverged, "estimate diverged on piecewise-affine data")
        if est.stable:
            err = abs(est.estimate - float(exact))
            expect(err <= DINI_RTOL * abs(float(exact)), f"estimate {est.estimate} vs exact {exact}")

    return check


def _calm_expr(rng, dim: int):
    """Convex black box: sum of weighted |x_i - a_i| plus a linear term."""
    expr = None
    for i in range(dim):
        term = ["mul", ["const", str(int(rng.integers(1, 4)))],
                ["abs", ["sub", ["coord", i], ["const", fmt(dyadic(rng, 2))]]]]
        lin = ["mul", ["const", fmt(dyadic(rng, 1))], ["coord", i]]
        term = ["add", term, lin]
        expr = term if expr is None else ["add", expr, term]
    return expr


def _status_check(*allowed: str, replay: Callable | None = None) -> Callable:
    """The probe status must be one of ``allowed``; a failure witness must
    replay."""

    def check(verdict) -> None:
        expect(verdict.status in allowed, f"probe status {verdict.status}, expected {allowed}")
        if replay is not None and verdict.status == "FailsWithWitness":
            replay(verdict.witness)

    return check


def sampling_block(seed: int, block: int) -> list[Item]:
    """Per dimension: dini on PA and DC data, calmness on a calm and a cusped
    black box, membership inside and far outside the subdifferential, the
    three regularity modes and one blunt probe, each with its own input and
    plan seed."""
    from subgrad import dinioracle as dino, optimality
    from subgrad.funcmodel import BlackBoxFunction, DCFunction

    rng = block_rng(seed, "sampling", block)
    items: list[Item] = []
    for dim in SAMPLING_DIMS:

        def plans():
            return sampling_plans(int(rng.integers(0, 2**31)), dim)

        g, _, x, d, exact = _dini_instance(rng, dim, dc=False)
        items.append(Item("dini_pa", dim,
                          lambda f=pa_obj(g), x=x, d=d, plan=plans()[0]: dino.dini_directional_estimate(f, x, d, plan),
                          _dini_check(exact)))
        g, h, x, d, exact = _dini_instance(rng, dim, dc=True)
        dcf = DCFunction(pa_obj(g), pa_obj(h))
        items.append(Item("dini_dc", dim,
                          lambda f=dcf, x=x, d=d, plan=plans()[0]: dino.dini_directional_estimate(f, x, d, plan),
                          _dini_check(exact)))

        calm = BlackBoxFunction(_calm_expr(rng, dim), dim)
        items.append(Item("calmness_bb", dim,
                          lambda f=calm, x=dyadic_vec(rng, dim, 2), plan=plans()[1]: dino.calmness_probe(f, x, plan),
                          _status_check("Holds")))
        cusp = BlackBoxFunction(["neg", ["sqrtabs", ["coord", 0]]], dim)
        xc = (F(0),) + dyadic_vec(rng, dim - 1, 2)
        plan = plans()[1]
        # Sampling may miss the divergence (Inconclusive, seen at d = 7) but
        # must never call the cusp calm.
        items.append(Item("calmness_cusp", dim, lambda f=cusp, x=xc, plan=plan: dino.calmness_probe(f, x, plan),
                          _status_check("FailsWithWitness", "Inconclusive", replay=_cusp_replay(xc, plan))))

        for inside in (True, False):
            pieces = _controlled_pa(rng, dim, 3)
            xm = dyadic_vec(rng, dim, 2)
            top = max(pieces, key=lambda p: (dot(p[0], xm) + p[1], p[0]))[0]
            star = top if inside else tuple(v + (64 if i == 0 else 0) for i, v in enumerate(top))
            check = _status_check("Holds") if inside else _status_check(
                "FailsWithWitness", replay=_membership_replay(pieces, xm, star))
            items.append(Item("membership_in" if inside else "membership_out", dim,
                              lambda f=pa_obj(pieces), x=xm, s=star, plan=plans()[1]:
                              dino.eps_subgradient_membership_probe(f, x, s, 0, 1, plan),
                              check))

        items.append(Item("regularity_convex", dim,
                          lambda f=pa_obj(_controlled_pa(rng, dim, 3)), x=dyadic_vec(rng, dim, 2), plan=plans()[1]:
                          dino.approx_regularity_probe(f, x, F(1, 10), "convex", plan),
                          _status_check("Holds")))
        items.append(Item("regularity_starshaped", dim,
                          lambda f=BlackBoxFunction(_calm_expr(rng, dim), dim), x=dyadic_vec(rng, dim, 2),
                          plan=plans()[1]: dino.approx_regularity_probe(f, x, F(1, 10), "starshaped", plan),
                          _status_check("Holds")))
        items.append(Item("regularity_directional", dim,
                          lambda f=pa_obj(_controlled_pa(rng, dim, 3)), x=dyadic_vec(rng, dim, 2),
                          v=nonzero_vec(rng, dim, 2), plan=plans()[1]:
                          dino.approx_regularity_probe(f, x, F(1, 10), "directional", plan, direction=v),
                          _status_check("Holds")))

        positive = (block + dim) % 2 == 0
        p = cone_problem(rng, dim, positive, simplex_c=True, push=8)
        items.append(Item("blunt", dim,
                          lambda prob=problem_obj(p), zero=(F(0),) * dim, plan=plans()[1]:
                          optimality.blunt_min_probe(prob, zero, HALF, plan),
                          _status_check("Holds" if positive else "FailsWithWitness", replay=_blunt_replay(p))))
    return items


def _cusp_replay(x, plan) -> Callable:
    xf = np.array([float(v) for v in x])

    def replay(w) -> None:
        expect(w is not None, "calmness failure without a witness")
        t, u = w["t"], np.array(w["u"], dtype=float)
        q = (-math.sqrt(abs(xf[0] + t * u[0])) + math.sqrt(abs(xf[0]))) / t
        expect(math.isclose(q, w["quotient"], rel_tol=1e-9), f"quotient {w['quotient']} replays as {q}")
        expect(q < plan.divergence_threshold, "witness quotient above the divergence threshold")

    return replay


def _membership_replay(pieces, x, xstar) -> Callable:
    def value(y):
        return max(sum(float(a) * b for a, b in zip(s, y)) + float(c) for s, c in pieces)

    xf = [float(v) for v in x]
    sf = [float(v) for v in xstar]

    def replay(w) -> None:
        expect(w is not None, "membership failure without a witness")
        y = w["x"]
        step = [a - b for a, b in zip(y, xf)]
        margin = value(y) - value(xf) - sum(a * b for a, b in zip(step, sf)) + sum(abs(s) for s in step)
        expect(margin < 0, f"membership witness does not violate the inequality (margin {margin})")

    return replay


def _blunt_replay(p: ConeProblem) -> Callable:
    zero = tuple(F(0) for _ in range(p.dim))

    def replay(w) -> None:
        expect(w is not None, "blunt failure without a witness")
        y = tuple(F(v) for v in w["x_exact"])
        expect(feasible(p, y), "blunt witness is infeasible")
        fy = pa_value(p.g, y) - pa_value(p.h, y)
        f0 = pa_value(p.g, zero) - pa_value(p.h, zero)
        margin = fy - f0 + HALF * sum(abs(v) for v in y)
        expect(margin < 0 and fmt(margin) == w["margin"], "blunt witness does not violate the bound exactly")

    return replay


# ---------------------------------------------------------------------------
# corpus: a scenario directory for the CLI
# ---------------------------------------------------------------------------

# Malformed shapes that the exit-code contract maps to 3 (bad input).  Each
# runs as its own `subgrad run FILE`, so a crash cannot abort the corpus.
MALFORMED = {
    "bad_hrep_shape.json": {"kind": "stardiff", "A": {"dim": 1, "hrep": 5},
                            "B": {"dim": 1, "vrep": {"vertices": [["0"]]}}},
    "bad_pieces_shape.json": {"kind": "subdiff", "point": "0",
                              "function": {"type": "pa_convex", "pieces": "x"}},
}


def _gap_plan(radii, seed: int) -> dict:
    return {"shell_radii": list(radii), "seed": seed}


def corpus_scenarios(seed: int, block: int) -> tuple[dict, dict, dict]:
    """(data files, scenarios with expected exit codes, malformed files).

    Two copies (a, b) of every scenario kind on fresh data, so that the median
    scenario latency falls inside a dense group; twelve gap probes (a sixth of
    the scenarios, most of the time) hold the 90th percentile.
    """
    rng = block_rng(seed, "corpus", block)
    data: dict[str, dict] = {}
    scen: dict[str, tuple[dict, int]] = {}

    def add(name: str, exit_code: int, **fields) -> None:
        scen[name] = (fields, exit_code)

    for rep in "ab":
        def ref(name: str) -> str:
            return f"../data/{name}_{rep}.json"

        def put(name: str, obj: dict) -> None:
            data[f"{name}_{rep}.json"] = obj

        pos = kinked_dc(rng, 1, True)
        neg = kinked_dc(rng, 1, False)
        pos2 = kinked_dc(rng, 2, True)
        put("dc_pos", dc_json(pos))
        put("dc_neg", dc_json(neg))
        put("dc_pos2", dc_json(pos2))
        put("dc_boundary", dc_json(pos2, box_with_vertex(rng, pos2.x)))
        put("g_pos2", pa_json(pos2.g))
        put("h_pos2", pa_json(pos2.h))
        p1, x1, p2 = point_text(pos.x), point_text(neg.x), point_text(pos2.x)

        add(f"subdiff_pa_{rep}", 0, kind="subdiff", function=ref("g_pos2"), point=p2, eps="1/2")
        add(f"subdiff_dc_{rep}", 0, kind="subdiff", function=ref("dc_pos2"), point=p2, eps="1/2", eta="1/2")
        big = [dyadic_vec(rng, 2, 6) for _ in range(6)]
        small = [dyadic_vec(rng, 2, 1) for _ in range(3)]
        put("poly_a", {"dim": 2, "vrep": {"vertices": [fmt_vec(v) for v in big], "rays": []}})
        put("poly_b", {"dim": 2, "vrep": {"vertices": [fmt_vec(v) for v in small], "rays": []}})
        add(f"stardiff_{rep}", 0, kind="stardiff", A=ref("poly_a"), B=ref("poly_b"))

        add(f"check_equality22_{rep}", 0, kind="check", claim="equality22", dc=ref("dc_pos2"), point=p2)
        add(f"check_equality26_{rep}", 0, kind="check", claim="equality26", dc=ref("dc_pos2"), point=p2,
            eps="1/2", eta="1/2")
        add(f"check_inclusion13_boundary_{rep}", 0, kind="check", claim="inclusion13", dc=ref("dc_boundary"),
            point=p2, eps="1/2", eta="1/2")
        add(f"check_intersection27_{rep}", 0, kind="check", claim="intersection27", dc=ref("dc_pos"), point=p1,
            eps="1/2", mus=["0", "1/2", "1"])
        add(f"check_cor11_pos_{rep}", 0, kind="check", claim="cor11", dc=ref("dc_pos"), point=p1)
        add(f"check_cor11_neg_{rep}", 1, kind="check", claim="cor11", dc=ref("dc_neg"), point=x1)
        add(f"check_cor12a_{rep}", 0, kind="check", claim="cor12a", dc=ref("dc_pos2"), point=p2, eps="1/2")
        add(f"check_cor12b_{rep}", 0, kind="check", claim="cor12b", dc=ref("dc_pos"), point=p1, eps="1/2")
        add(f"check_sumrule12_{rep}", 0, kind="check", claim="sumrule12", f=ref("g_pos2"), g=ref("h_pos2"),
            point=p2, eps="1/2", eta="1/2")
        add(f"check_localmin_pos_{rep}", 0, kind="check", claim="localmin", dc=ref("dc_pos2"), point=p2)
        add(f"check_localmin_neg_{rep}", 1, kind="check", claim="localmin", dc=ref("dc_neg"), point=x1)

        for positive in (True, False):
            tag = "pos" if positive else "neg"
            put(f"problem_{tag}", problem_json(cone_problem(rng, 2, positive)))
            add(f"certify_{tag}_{rep}", 0 if positive else 1, kind="certify", problem=ref(f"problem_{tag}"),
                point="0,0")
            put(f"blunt_{tag}", problem_json(cone_problem(rng, 2, positive, simplex_c=True, push=8)))
            add(f"probe_blunt_{tag}_{rep}", 0 if positive else 1, kind="probe", probe="blunt",
                problem=ref(f"blunt_{tag}"), point="0,0", eps="1/2")

        plan_seed = int(rng.integers(0, 2**31))
        g, _, x, d, _ = _dini_instance(rng, 2, dc=False)
        put("dini_pa", pa_json(g))
        add(f"probe_dini_pa_{rep}", 0, kind="probe", probe="dini", function=ref("dini_pa"), point=point_text(x),
            direction=point_text(d),
            plan={"shell_radii": [2.0 ** -k for k in range(1, 24)], "stabilization_tol": 1e-5, "seed": plan_seed})
        add(f"probe_calmness_pa_{rep}", 0, kind="probe", probe="calmness", function=ref("g_pos2"), point=p2)
        put("cusp", {"type": "blackbox", "dim": 1, "expr": ["neg", ["sqrtabs", ["coord", 0]]]})
        add(f"probe_calmness_cusp_{rep}", 1, kind="probe", probe="calmness", function=ref("cusp"), point="0",
            plan={"seed": plan_seed})
        top = max(pos2.g, key=lambda p: (dot(p[0], pos2.x) + p[1], p[0]))[0]
        add(f"probe_membership_{rep}", 0, kind="probe", probe="membership", function=ref("g_pos2"), point=p2,
            xstar=point_text(top), eps="0", alpha="1", plan={"seed": plan_seed})
        add(f"probe_regularity_convex_{rep}", 0, kind="probe", probe="regularity", function=ref("g_pos2"),
            point=p2, eps="1/10", mode="convex", plan={"seed": plan_seed})

    # Gap-continuity probes dominate the corpus, as in the shipped one: each
    # sampled point costs an exact subdifferential and a gap LP, which at
    # d = 2 is slow enough that one shell suffices.
    plan_seed = int(rng.integers(0, 2**31))
    for i in range(8):
        k = kinked_dc(rng, 1, True)
        data[f"gap1_{i}.json"] = pa_json(k.g)
        add(f"probe_gap_d1_{i}", 0, kind="probe", probe="gap", function=f"../data/gap1_{i}.json",
            point=point_text(k.x), eps="1/10", plan=_gap_plan((0.5, 0.25, 0.125, 0.0625), plan_seed + i))
    for i in range(4):
        x2 = dyadic_vec(rng, 2, 2)
        ridge = distinct_slopes(rng, 2, 2)
        data[f"gap2_{i}.json"] = pa_json([(s, 1 - dot(s, x2)) for s in ridge])
        add(f"probe_gap_d2_{i}", 0, kind="probe", probe="gap", function=f"../data/gap2_{i}.json",
            point=point_text(x2), eps="1/10", plan=_gap_plan((0.25,), plan_seed + 10 + i))

    add("bad_kind", 3, kind="no_such_kind")
    add("bad_missing_point", 3, kind="check", claim="equality22", dc="../data/dc_pos_a.json")
    add("bad_rational", 3, kind="check", claim="equality22", dc="../data/dc_pos_a.json", point="1/0")
    add("bad_claim", 3, kind="check", claim="no_such_claim", dc="../data/dc_pos_a.json", point="0")
    return data, scen, MALFORMED


def write_corpus(seed: int, block: int, root: Path) -> tuple[dict, dict]:
    """Write data/, scenarios/ and malformed/ under root.

    Returns (expected exit per scenario file, expected exit per malformed file).
    """
    data, scen, malformed = corpus_scenarios(seed, block)
    for sub, files in (("data", data), ("scenarios", {k + ".json": v for k, (v, _) in scen.items()}),
                       ("malformed", malformed)):
        d = root / sub
        d.mkdir(parents=True, exist_ok=True)
        for name, obj in files.items():
            (d / name).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    return {k + ".json": code for k, (_, code) in scen.items()}, {k: 3 for k in malformed}
