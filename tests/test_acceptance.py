"""Acceptance gate: eight headline behaviors, one test per criterion.

Each test prints a single summary line (visible with -s or on failure) and
enforces a wall-clock budget on top of the content assertions.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles
from subgrad.calculus import check_difference_formula, check_inclusion_13
from subgrad.cli import corpus_run
from subgrad.dinioracle import (
    DEFAULT_PLAN,
    SamplingPlan,
    approx_regularity_probe,
    calmness_probe,
    dini_directional_estimate,
)
from subgrad.funcmodel import (
    AffinePiece,
    BlackBoxFunction,
    PAConvexFunction,
    f_eps_expand,
)
from subgrad.optimality import (
    ProblemInstance,
    blunt_min_probe,
    certify_blunt_minimizer,
    feasible_set,
)
from subgrad.polykernel import L1, contains_point, dual_norm_ball, minkowski_sum, star_difference
from subgrad.rationals import parse_vector

F = Fraction
ROOT = Path(__file__).resolve().parent.parent
SCEN = ROOT / "scenarios"


def finish(num, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"[criterion {num}] PASS {detail} ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s: {elapsed:.1f}s"


def test_criterion_1_erosion_matches_lattice_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    pairs = lattice = 0
    while pairs < 200:
        dim = 1 + pairs % 3
        a = oracles.rand_polytope(rng, dim, max_verts=8, span=6)
        b = oracles.rand_polytope(rng, dim, max_verts=8, span=3)
        s = star_difference(a, b)
        lattice += oracles.erosion_grid_check(a, b, s, n=21)
        pairs += 1
    finish(1, f"star-difference == definitional erosion on {pairs} pairs "
              f"({lattice} lattice points)", t0, 60)


def test_criterion_2_eps_subdifferential_three_routes():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    eps_grid = (F(0), F(1, 2), F(1), F(3))
    for i in range(100):
        dim = 1 + i % 3
        f = oracles.rand_pa(rng, dim, max_pieces=6)
        x = oracles.rand_vector(rng, dim, span=3)
        exact0 = f.subdifferential_at(x)
        for e in eps_grid:
            direct = f.eps_subdifferential_at(x, e)
            inflated = minkowski_sum(exact0, dual_norm_ball(L1, e, dim))
            through_expand = f_eps_expand(f, x, e).subdifferential_at(x)
            assert direct == inflated == through_expand, (i, e)
    finish(2, "eps-subdifferentials agree across direct, inflation, and "
              "expansion routes on 100 functions x 4 eps", t0, 60)


def test_criterion_3_difference_formula_exact_everywhere():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    grid = [(e, n) for e in (F(0), F(1, 2), F(1)) for n in (F(0), F(1, 2), F(1))]
    for i in range(100):
        dim = 1 + i % 2
        dc = oracles.rand_dc(rng, dim)
        x = oracles.rand_vector(rng, dim, span=3)
        for e, n in grid:
            cert = check_difference_formula(dc, x, e, n)
            assert cert.verdict == "Equal", (i, e, n, cert.verdict)
    finish(3, "difference formula verdict Equal on 100 DC pairs x 9 (eps, eta)",
           t0, 120)


def test_criterion_4_inclusion_never_fails_even_at_boundary():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    checked = 0
    for i in range(100):
        dim = 1 + i % 2
        interior_dc = oracles.rand_dc(rng, dim)
        x = oracles.rand_vector(rng, dim, span=3)
        for e, n in ((F(0), F(0)), (F(1, 2), F(1, 2))):
            cert = check_inclusion_13(interior_dc, x, e, n)
            assert cert.verdict != "Fails", (i, e, n)
            checked += 1
        boundary_dc = oracles.rand_dc(rng, dim, restricted=True)
        verts = boundary_dc.g.domain.canonical().vertices
        bx = verts[int(rng.integers(len(verts)))]
        cert = check_inclusion_13(boundary_dc, bx, F(1, 2), F(1, 2))
        assert cert.verdict != "Fails", i
        checked += 1
    finish(4, f"one-directional inclusion never fails ({checked} instances, "
              "boundary points included)", t0, 60)


def test_criterion_5_dini_estimates_track_exact_derivatives():
    t0 = time.perf_counter()
    plan = SamplingPlan(
        shell_radii=tuple(2.0**-k for k in range(1, 24)), stabilization_tol=1e-5
    )
    rng = np.random.default_rng(505)

    def rand_controlled(dim):
        # slopes and intercepts within 2, point within 1, all dyadic, so the
        # float noise plus shell bias stays well under the 1e-6 relative bar
        n = int(rng.integers(1, 5))
        pieces = [
            AffinePiece(
                tuple(F(int(rng.integers(-4, 5)), 2) for _ in range(dim)),
                F(int(rng.integers(-4, 5)), 2),
            )
            for _ in range(n)
        ]
        f = PAConvexFunction(pieces)
        x = tuple(F(int(rng.integers(-4, 5)), 4) for _ in range(dim))
        d = tuple(F(int(rng.integers(-2, 3)), 2) for _ in range(dim))
        return f, x, d

    accepted = attempts = 0
    while accepted < 100:
        attempts += 1
        assert attempts < 5000, "generator rejection rate implausibly high"
        dim = 1 + attempts % 3
        f, x, d = rand_controlled(dim)
        if all(v == 0 for v in d):
            continue
        exact = oracles.pa_directional(f.pieces, x, d)
        if abs(exact) < 1:
            continue
        est = dini_directional_estimate(f, x, d, plan)
        assert est.stable and not est.diverged, (f.pieces, x, d)
        assert abs(est.estimate - float(exact)) <= 1e-6 * abs(float(exact)), (
            est.estimate, float(exact), x, d,
        )
        assert calmness_probe(f, x).status == "Holds"
        accepted += 1

    neg_sqrt = BlackBoxFunction(["neg", ["sqrtabs", ["coord", 0]]], 1)
    v = calmness_probe(neg_sqrt, (F(0),))
    assert v.status == "FailsWithWitness"
    assert any(n.startswith("NotCalm") for n in v.notes)
    finish(5, "100 sampled directional derivatives within 1e-6 relative of "
              "exact, calmness verdicts correct", t0, 120)


def test_criterion_6_regularity_probes_separate_the_classes():
    t0 = time.perf_counter()
    abs_sq = BlackBoxFunction(
        ["sub", ["abs", ["coord", 0]], ["mul", ["coord", 0], ["coord", 0]]], 1
    )
    staircase = BlackBoxFunction(["staircase", ["coord", 0]], 1)

    assert approx_regularity_probe(abs_sq, (F(0),), F(1, 10), "convex").status == "Holds"
    star_plan = SamplingPlan(shell_radii=tuple(2.0**-k for k in range(3, 21)))
    star = approx_regularity_probe(staircase, (F(0),), F(1, 10), "starshaped", star_plan)
    assert star.status == "Holds"

    conv = approx_regularity_probe(staircase, (F(0),), F(1, 100), "convex")
    assert conv.status == "FailsWithWitness"
    w = conv.witness
    x, y, t = np.array(w["x"]), np.array(w["y"]), w["t"]
    fx = staircase.evaluate_batch(x[None, :])[0]
    fy = staircase.evaluate_batch(y[None, :])[0]
    fm = staircase.evaluate_batch((t * x + (1 - t) * y)[None, :])[0]
    spread = np.abs(x - y).sum()
    assert fm > t * fx + (1 - t) * fy + 0.01 * t * (1 - t) * spread
    finish(6, "approximate-convexity holds/fails as expected with a replayed "
              "witness", t0, 60)


def test_criterion_7_cone_constrained_certificates():
    t0 = time.perf_counter()
    pos = ProblemInstance.from_json(json.loads((SCEN / "data" / "cone_dc.json").read_text()))
    x0 = (F(0), F(0))
    cert = certify_blunt_minimizer(pos, x0)
    assert cert.verdict == "BluntMinimizerAllEps"
    assert cert.qualification == "Holds"
    assert cert.routes_agree and cert.lagrange_validated

    neg = ProblemInstance.from_json(
        json.loads((SCEN / "data" / "cone_dc_negative.json").read_text())
    )
    bad = certify_blunt_minimizer(neg, x0)
    assert bad.verdict == "NotBluntMinimizer"
    d = bad.descent
    assert d["rate"] < 0
    assert d["f_step"] - d["f_base"] == d["step"] * d["rate"]
    y = tuple(a + d["step"] * b for a, b in zip(x0, d["direction"]))
    assert contains_point(feasible_set(neg.constraints), y)

    for e in (F(1, 4), F(1, 2), F(1)):
        rep = blunt_min_probe(neg, x0, e)
        assert rep.status == "FailsWithWitness", e
        xw = parse_vector(rep.witness["x_exact"], 2)
        assert contains_point(feasible_set(neg.constraints), xw)
    finish(7, "certificate and sampling probe agree on the cone-constrained "
              "pair, descent witness replays exactly", t0, 30)


def test_criterion_8_corpus_deterministic_across_parallelism():
    t0 = time.perf_counter()
    # in process the corpus runs serially; the --jobs values run as
    # subprocesses in test_corpus_json_deterministic_across_processes
    runs = [corpus_run(SCEN / "corpus", "*.json", {}) for _ in range(3)]
    assert all(r.exit_code == 0 for r in runs)
    blobs = [json.dumps(r.payload, sort_keys=True, indent=2) for r in runs]
    assert blobs[0] == blobs[1] == blobs[2]
    n = len(runs[0].payload["scenarios"])
    finish(8, f"corpus of {n} scenarios reproduces byte-identically across "
              "repeats and worker counts", t0, 120)
