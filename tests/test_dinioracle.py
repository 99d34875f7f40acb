"""Sampling oracles: directional estimates, calmness, membership,
approximate-regularity, and gap-continuity probes.

Sampling can falsify but never prove, so positive assertions here are about
"no violation found under this plan" plus the exact shortcuts, and negative
assertions always re-verify the witness by direct evaluation.
"""

import json
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from test_funcmodel import _blackbox_trees
from subgrad.dinioracle import (
    DEFAULT_PLAN,
    MAX_SAMPLES_PER_SHELL,
    SamplingPlan,
    _ROWS_PER_EVALUATION,
    _ShellSeed,
    _l1_ball_points,
    _l1_sphere_points,
    approx_regularity_probe,
    calmness_probe,
    dini_directional_estimate,
    eps_subgradient_membership_probe,
    gap_continuity_probe,
)
from subgrad.errors import EvaluationFailure, NegativeEps, ParseError
from subgrad.funcmodel import (
    AffinePiece,
    BlackBoxFunction,
    DCFunction,
    PAConvexFunction,
    abs_function,
    l1_norm_function,
    linear_function,
)
from subgrad.optimality import ConstraintSystem, ProblemInstance, blunt_min_probe
from subgrad.polykernel import Polyhedron

F = Fraction

# deep enough that the shell bias 2^-k * ||slope|| drops under the tolerance
DEEP_PLAN = SamplingPlan(shell_radii=tuple(2.0**-k for k in range(1, 25)))

ABS = BlackBoxFunction(["abs", ["coord", 0]], 1)
NEG_ABS = BlackBoxFunction(["neg", ["abs", ["coord", 0]]], 1)
ABS_SQ = BlackBoxFunction(
    ["sub", ["abs", ["coord", 0]], ["mul", ["coord", 0], ["coord", 0]]], 1
)
NEG_SQRT = BlackBoxFunction(["neg", ["sqrtabs", ["coord", 0]]], 1)
STAIRCASE = BlackBoxFunction(["staircase", ["coord", 0]], 1)


# ---------------------------------------------------------------------------
# sampling plans
# ---------------------------------------------------------------------------


def test_package_names_resolve():
    import subgrad
    from subgrad import dinioracle

    for name in subgrad.__all__:
        getattr(subgrad, name)
    lazy = {name for name in subgrad.__all__ if name not in vars(subgrad)}
    assert lazy == subgrad._PROBE_NAMES
    for name in lazy:
        assert getattr(subgrad, name) is getattr(dinioracle, name)
    with pytest.raises(AttributeError):
        subgrad.no_such_name


def test_plan_validation():
    with pytest.raises(ParseError):
        SamplingPlan(shell_radii=(0.5, 0.5))  # not strictly decreasing
    with pytest.raises(ParseError):
        SamplingPlan(shell_radii=(0.5, -0.25))
    with pytest.raises(ParseError):
        SamplingPlan(samples_per_shell=4)
    SamplingPlan(samples_per_shell=MAX_SAMPLES_PER_SHELL)
    with pytest.raises(ParseError):
        SamplingPlan(samples_per_shell=MAX_SAMPLES_PER_SHELL + 1)
    with pytest.raises(ParseError):
        SamplingPlan(stabilization_window=1)


def test_plan_json_round_trip():
    plan = replace(DEFAULT_PLAN, seed=9, samples_per_shell=64)
    again = SamplingPlan.from_json(plan.to_json())
    assert again == plan


STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, 2**70 + 5]


@given(
    st.sampled_from(STREAM_SEEDS) | st.integers(0, 2**64 - 1),
    st.integers(0, 5),
    st.sampled_from([1, 20, 23]),
)
@settings(max_examples=60, deadline=None)
def test_plan_rng_matches_seedsequence(seed, tag, count):
    """Every shell's stream is NumPy's SeedSequence(seed mod 2^64,
    spawn_key=(tag, k)) feeding PCG64, bit for bit."""
    plan = SamplingPlan(shell_radii=tuple(2.0**-k for k in range(1, count + 1)), seed=seed)
    for k in range(count):
        got, want = plan.rng(tag, k), oracles.reference_rng(plan, tag, k)
        assert np.array_equal(got.random(5), want.random(5))
        assert np.array_equal(got.standard_exponential(7), want.standard_exponential(7))
        assert np.array_equal(got.integers(0, 2, 9), want.integers(0, 2, 9))
    for k in (-1, count):
        with pytest.raises(IndexError):
            plan.rng(tag, k)


def test_shell_seed_answers_only_pcg64():
    words = np.zeros(4, dtype=np.uint64)
    seed = _ShellSeed(words)
    assert isinstance(seed, np.random.bit_generator.ISeedSequence)
    assert seed.generate_state(4, np.uint64) is words
    for n_words, dtype in ((4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64)):
        with pytest.raises(ValueError):
            seed.generate_state(n_words, dtype)


# ---------------------------------------------------------------------------
# l1-ball and l1-sphere samplers
# ---------------------------------------------------------------------------


def _ks_distance(samples, cdf) -> float:
    """Kolmogorov-Smirnov distance between samples and a continuous CDF."""
    s = np.sort(samples)
    n = len(s)
    fs = cdf(s)
    return float(max((np.arange(1, n + 1) / n - fs).max(), (fs - np.arange(n) / n).max()))


@pytest.mark.parametrize("dim", [1, 2, 7, 8])
def test_l1_ball_points_are_uniform(dim):
    n, r = 20000, 0.375
    pts = _l1_ball_points(np.random.default_rng(20100), n, dim, r)
    assert pts.shape == (n, dim)
    s = np.abs(pts).sum(axis=1) / r
    assert (s <= 1.0 + 1e-12).all()
    # uniform in the ball: P(||x||_1 <= s*r) = s^d, and each |x_i|/r has
    # CDF 1 - (1 - s)^d, which also checks the spread within the simplex
    bound = 2.0 / math.sqrt(n)
    assert _ks_distance(s, lambda v: v**dim) < bound
    assert _ks_distance(np.abs(pts[:, 0]) / r, lambda v: 1.0 - (1.0 - v) ** dim) < bound
    positive = (pts > 0).mean(axis=0)
    assert (np.abs(positive - 0.5) < 4.0 / math.sqrt(n)).all()
    again = _l1_ball_points(np.random.default_rng(20100), n, dim, r)
    assert np.array_equal(pts, again)


@pytest.mark.parametrize("dim", [1, 2, 7, 8])
def test_l1_sphere_points_have_unit_norm(dim):
    n = 4096
    pts = _l1_sphere_points(np.random.default_rng(20101), n, dim)
    assert pts.shape == (n, dim)
    assert np.allclose(np.abs(pts).sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    positive = (pts > 0).mean(axis=0)
    assert (np.abs(positive - 0.5) < 4.0 / math.sqrt(n)).all()
    assert np.array_equal(pts, _l1_sphere_points(np.random.default_rng(20101), n, dim))


# ---------------------------------------------------------------------------
# directional estimates
# ---------------------------------------------------------------------------


def test_dini_estimate_abs_from_both_sides():
    est = dini_directional_estimate(NEG_ABS, (F(0),), (F(1),), DEEP_PLAN)
    assert abs(est.estimate - (-1.0)) < 1e-6
    est2 = dini_directional_estimate(ABS, (F(1),), (F(-1),), DEEP_PLAN)
    assert abs(est2.estimate - (-1.0)) < 1e-6
    assert est2.stable and not est2.diverged


def test_dini_estimate_abs_sq_kink():
    # |x| - x^2 at 0 along +1: slope 1 regardless of the quadratic term
    est = dini_directional_estimate(ABS_SQ, (F(0),), (F(1),), DEEP_PLAN)
    assert abs(est.estimate - 1.0) < 1e-6


def test_dini_divergence_with_replaying_witness():
    est = dini_directional_estimate(NEG_SQRT, (F(0),), (F(0),), DEEP_PLAN)
    assert est.diverged
    assert est.estimate == -math.inf
    w = est.witness
    assert w["quotient"] < DEEP_PLAN.divergence_threshold
    # replay: the stored (t, u) pair reproduces the quotient by evaluation
    t, u = w["t"], np.array(w["u"])
    fx = NEG_SQRT.evaluate_batch(np.array([[0.0]]))[0]
    fy = NEG_SQRT.evaluate_batch((0.0 + t * u)[None, :])[0]
    assert abs((fy - fx) / t - w["quotient"]) < 1e-6 * abs(w["quotient"])


def test_envelope_is_monotone_after_postprocessing():
    est = dini_directional_estimate(ABS_SQ, (F(0),), (F(1),), DEFAULT_PLAN)
    envs = [s["envelope"] for s in est.shells]
    assert all(a <= b + 1e-15 for a, b in zip(envs, envs[1:])), (
        "envelope must not decrease as shells shrink"
    )
    # raw infima are reported unmodified alongside
    assert all("inf" in s for s in est.shells)


def test_dini_determinism_same_seed():
    a = dini_directional_estimate(ABS_SQ, (F(0),), (F(1),), DEFAULT_PLAN)
    b = dini_directional_estimate(ABS_SQ, (F(0),), (F(1),), DEFAULT_PLAN)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
        b.to_json(), sort_keys=True
    )
    c = dini_directional_estimate(
        ABS_SQ, (F(0),), (F(1),), replace(DEFAULT_PLAN, seed=1)
    )
    assert c.to_json() != a.to_json()


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_dini_estimate_tracks_pa_oracle(seed):
    rng = np.random.default_rng(seed)
    f = oracles.rand_pa(rng, 2, max_pieces=4, slope_span=2)
    x = oracles.rand_vector(rng, 2, span=2, max_den_pow=2)
    d = oracles.rand_vector(rng, 2, span=2, max_den_pow=1)
    exact = float(oracles.pa_directional(f.pieces, x, d))
    if abs(exact) < 1.0:
        return  # relative tolerance calibrated for |derivative| >= 1
    est = dini_directional_estimate(f, x, d, DEEP_PLAN)
    assert abs(est.estimate - exact) <= 1e-6 * abs(exact)


@pytest.mark.parametrize("dim", [5, 6, 7, 8])
def test_probes_at_the_dimension_cap(dim):
    # every piece is active at 0; slopes of l-inf norm <= 1/16 keep the
    # shell bias r * ||slope|| under the stabilization tolerance over the
    # last four shells of DEFAULT_PLAN
    rng = np.random.default_rng(dim)
    slopes = [tuple(F(int(v), 64) for v in rng.integers(-4, 5, size=dim)) for _ in range(4)]
    f = PAConvexFunction([AffinePiece(a, F(0)) for a in slopes])
    x = (F(0),) * dim
    h = tuple(F(int(v)) for v in rng.integers(-2, 3, size=dim))
    exact = float(oracles.pa_directional(f.pieces, x, h))
    start = time.perf_counter()
    est = dini_directional_estimate(f, x, h, DEFAULT_PLAN)
    member = eps_subgradient_membership_probe(f, x, slopes[0], F(0), F(1, 4), DEFAULT_PLAN)
    elapsed = time.perf_counter() - start
    assert est.stable and not est.diverged
    assert abs(est.estimate - exact) <= 1e-6
    assert member.status == "Holds"
    assert elapsed < 5.0, f"probes at d={dim} took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# calmness
# ---------------------------------------------------------------------------


def test_calmness_pa_shortcut():
    v = calmness_probe(abs_function(), (F(0),))
    assert v.status == "Holds"
    assert any("exact" in n for n in v.notes)
    dc = DCFunction(abs_function(), linear_function(["1"]))
    assert calmness_probe(dc, (F(0),)).status == "Holds"


def test_calmness_blackbox_abs_holds():
    assert calmness_probe(ABS, (F(0),)).status == "Holds"


def test_calmness_neg_sqrt_fails_with_witness():
    v = calmness_probe(NEG_SQRT, (F(0),))
    assert v.status == "FailsWithWitness"
    assert any(n.startswith("NotCalm") for n in v.notes)
    w = v.witness
    assert w["quotient"] < w["threshold"]
    t, u = w["t"], np.array(w["u"])
    fy = NEG_SQRT.evaluate_batch((t * u)[None, :])[0]
    assert (fy - 0.0) / t < w["threshold"]


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_membership_validates_parameters():
    with pytest.raises(NegativeEps):
        eps_subgradient_membership_probe(ABS, (F(0),), (F(0),), F(-1), F(1))
    with pytest.raises(NegativeEps):
        eps_subgradient_membership_probe(ABS, (F(0),), (F(0),), F(0), F(0))


def test_membership_holds_inside_fails_outside():
    # subgradients of |x| at 0 fill [-1, 1]; alpha gives sampling slack
    ok = eps_subgradient_membership_probe(ABS, (F(0),), (F(1, 2),), F(0), F(1, 4))
    assert ok.status == "Holds"
    bad = eps_subgradient_membership_probe(ABS, (F(0),), (F(3),), F(0), F(1, 4))
    assert bad.status == "FailsWithWitness"
    x = bad.witness["x"]
    fx = float(ABS.evaluate_batch(np.array([x]))[0])
    lhs = fx - 0.0
    rhs = 3.0 * x[0] - (0.25 + 0.0) * abs(x[0])
    assert lhs < rhs, "membership witness must replay"


def test_membership_inconclusive_without_calmness():
    # alpha = 2^30 confines the violation region of -sqrt to |y| < 2^-60,
    # far below the deepest shell, so no violation turns up; the function
    # is still not calm, so the probe must refuse to say Holds
    v = eps_subgradient_membership_probe(
        NEG_SQRT, (F(0),), (F(0),), F(0), F(2**30)
    )
    assert v.status == "Inconclusive"


# ---------------------------------------------------------------------------
# approximate regularity
# ---------------------------------------------------------------------------


def test_regularity_mode_validation():
    with pytest.raises(ParseError):
        approx_regularity_probe(ABS_SQ, (F(0),), F(1, 10), "bogus")
    with pytest.raises(ParseError):
        approx_regularity_probe(ABS_SQ, (F(0),), F(1, 10), "directional")


def test_abs_sq_approximately_convex_at_tenth():
    v = approx_regularity_probe(ABS_SQ, (F(0),), F(1, 10), "convex")
    assert v.status == "Holds"
    v2 = approx_regularity_probe(ABS_SQ, (F(1, 2),), F(1, 10), "convex")
    assert v2.status == "Holds"


def test_staircase_starshaped_but_not_convex():
    star_plan = SamplingPlan(shell_radii=tuple(2.0**-k for k in range(3, 21)))
    star = approx_regularity_probe(STAIRCASE, (F(0),), F(1, 10), "starshaped", star_plan)
    assert star.status == "Holds"
    conv = approx_regularity_probe(STAIRCASE, (F(0),), F(1, 100), "convex")
    assert conv.status == "FailsWithWitness"
    w = conv.witness
    # replay the convexity violation from the stored triple
    x, y, t = np.array(w["x"]), np.array(w["y"]), w["t"]
    fx = STAIRCASE.evaluate_batch(x[None, :])[0]
    fy = STAIRCASE.evaluate_batch(y[None, :])[0]
    fm = STAIRCASE.evaluate_batch((t * x + (1 - t) * y)[None, :])[0]
    spread = np.abs(x - y).sum()
    assert fm > t * fx + (1 - t) * fy + 0.01 * t * (1 - t) * spread


def test_regularity_directional_mode():
    # the eps = 1/10 inequality genuinely fails at ray scales above 1/10
    # (the quadratic term wins), so the plan starts below that scale
    plan = SamplingPlan(shell_radii=tuple(2.0**-k for k in range(4, 21)))
    v = approx_regularity_probe(
        ABS_SQ, (F(0),), F(1, 10), "directional", plan, direction=(F(1),)
    )
    assert v.status == "Holds"


def test_regularity_witness_deterministic():
    a = approx_regularity_probe(STAIRCASE, (F(0),), F(1, 100), "convex")
    b = approx_regularity_probe(STAIRCASE, (F(0),), F(1, 100), "convex")
    assert a.to_json() == b.to_json()


# ---------------------------------------------------------------------------
# batched evaluation against the one-shell-at-a-time references
# ---------------------------------------------------------------------------


# thirds and sevenths round in float, so the evaluators' sums do too
small_rationals = st.builds(F, st.integers(-14, 14), st.integers(1, 7))


@st.composite
def probe_functions(draw):
    """A PA (maybe with a domain), DC or black-box function and a base point."""
    kind = draw(st.sampled_from(["pa", "pa_domain", "dc", "blackbox"]))
    dim = draw(st.integers(1, 4))
    x = draw(st.tuples(*[small_rationals] * dim))
    if kind == "blackbox":
        dim = min(dim, 3)
        x = x[:dim]
        bound = st.floats(-4, 4, allow_nan=False)
        box = draw(st.none() | st.lists(st.tuples(bound, bound).map(sorted), min_size=dim, max_size=dim))
        if box is not None:
            x = tuple(F(lo) for lo, _ in box)  # on the box, so f(x) is finite
        return BlackBoxFunction(draw(_blackbox_trees(dim)), dim, box), x
    pieces = st.lists(st.tuples(st.tuples(*[small_rationals] * dim), small_rationals), min_size=1, max_size=4)
    f = PAConvexFunction(draw(pieces))
    if kind == "dc":
        return DCFunction(f, PAConvexFunction(draw(pieces))), x
    if kind == "pa_domain":
        # x at a corner of the domain, or inside a cross-polytope around it
        if draw(st.booleans()):
            corners = [x] + [draw(st.tuples(*[small_rationals] * dim)) for _ in range(2)]
        else:
            corners = [x[:i] + (x[i] + s,) + x[i + 1:] for i in range(dim) for s in (-1, 1)]
        f = PAConvexFunction(f.pieces, domain=Polyhedron.from_vrep(corners, dim=dim))
    return f, x


@st.composite
def probe_plans(draw):
    shells = draw(st.integers(1, 23))
    top = draw(st.floats(-3, 8))
    step = draw(st.floats(0.25, 3))
    return SamplingPlan(
        shell_radii=tuple(2.0 ** -(top + step * k) for k in range(shells)),
        samples_per_shell=draw(st.integers(8, 300)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _json_or_failure(probe, *args, **kwargs):
    try:
        return json.dumps(probe(*args, **kwargs).to_json())
    except EvaluationFailure:
        # which operation a failing black box names can depend on the order
        # its rows are evaluated in; the failure itself cannot
        return "EvaluationFailure"


# a box of the one point 1/2: every sample off the base point is outside
PINNED = BlackBoxFunction(["abs", ["coord", 0]], 1, [(0.5, 0.5)])


@given(
    probe_functions(),
    probe_plans(),
    st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    st.sampled_from([0, 1]),  # the streams of the Dini and calmness probes
)
@example((PINNED, (F(1, 2),)), DEEP_PLAN, [1, 0, 0, 0], 0)
@settings(max_examples=120, deadline=None)
def test_dini_estimate_matches_reference(fx, plan, h, tag):
    f, x = fx
    h = h[: f.dim]
    got = _json_or_failure(dini_directional_estimate, f, x, h, plan, tag=tag)
    assert got == _json_or_failure(oracles.dini_reference, f, x, h, plan, tag)


# Failures the goldens never reach, all of whose probes fail at shell 0: the
# first verified violation in shell 4, inside the group of shells 1-19, and,
# with OpenBLAS on x86-64, a shell whose bad sample fails the re-check (its
# one-row values round otherwise) before a later shell with a verified one.
# The slopes of STEEP are 2^30 around a base point where it is 0, so its
# margins are rounding noise.
EIGHT_PER_SHELL = replace(DEFAULT_PLAN, samples_per_shell=8)
STEEP_X = (F(1000), F(-700))
STEEP = PAConvexFunction(
    [(a, -(a[0] * STEEP_X[0] + a[1] * STEEP_X[1])) for a in ((F(2**30), F(3 * 2**30)), (F(-(2**30)), F(2**29)))]
)


@given(
    probe_functions(),
    probe_plans(),
    st.sampled_from(["convex", "starshaped", "directional"]),
    st.sampled_from([F(1, 100), F(1, 10), F(1, 2), F(2)]),
    st.lists(st.integers(-2, 2), min_size=4, max_size=4),
)
@example((STAIRCASE, (F(0),)), DEFAULT_PLAN, "convex", F(1, 100), [1, 0, 0, 0])
@example((PINNED, (F(1, 2),)), DEFAULT_PLAN, "starshaped", F(1, 10), [1, 0, 0, 0])
@example((PINNED, (F(1, 2),)), DEFAULT_PLAN, "directional", F(1, 10), [1, 0, 0, 0])
@example((NEG_ABS, (F(0),)), replace(EIGHT_PER_SHELL, seed=3), "convex", F(1, 100), [1, 0, 0, 0])
@example((STEEP, STEEP_X), replace(EIGHT_PER_SHELL, seed=0), "starshaped", F(1, 100), [1, 0, 0, 0])
@settings(max_examples=120, deadline=None)
def test_regularity_probe_matches_reference(fx, plan, mode, eps, direction):
    f, x = fx
    direction = direction[: f.dim]
    got = _json_or_failure(approx_regularity_probe, f, x, eps, mode, plan, direction=direction)
    assert got == _json_or_failure(oracles.regularity_reference, f, x, eps, mode, plan, direction)


@given(
    probe_functions(),
    probe_plans(),
    st.lists(small_rationals, min_size=4, max_size=4),
    st.sampled_from([F(0), F(1, 10), F(1)]),
    st.sampled_from([F(1, 100), F(1, 4), F(2)]),
)
# ||y||_1 at 0 against (3/2, 0): violations fill a narrow cone, first met in shell 4
@example((l1_norm_function(2), (F(0), F(0))), replace(EIGHT_PER_SHELL, seed=3),
         [F(3, 2), F(0), F(0), F(0)], F(0), F(1, 4))
@settings(max_examples=120, deadline=None)
def test_membership_probe_matches_reference(fx, plan, xstar, eps, alpha):
    f, x = fx
    xstar = xstar[: f.dim]
    got = _json_or_failure(eps_subgradient_membership_probe, f, x, xstar, eps, alpha, plan)
    assert got == _json_or_failure(oracles.membership_reference, f, x, xstar, eps, alpha, plan)


@st.composite
def blunt_problems(draw):
    """An objective from ``probe_functions`` (a PA f as f - 0), over the box
    of radius 1 around its base point cut by one K-row through that point."""
    f, x = draw(probe_functions().filter(lambda fx: not isinstance(fx[0], BlackBoxFunction)))
    dim = f.dim
    if isinstance(f, PAConvexFunction):
        f = DCFunction(f, linear_function([0] * dim))
    unit = [tuple(F(int(i == j)) for j in range(dim)) for i in range(dim)]
    box = Polyhedron.from_hrep(
        [(u, x[i] + 1) for i, u in enumerate(unit)] + [(tuple(-v for v in u), 1 - x[i]) for i, u in enumerate(unit)],
        dim,
    )
    row = draw(st.tuples(*[small_rationals] * dim))
    cs = ConstraintSystem(box, [row], [-sum(a * b for a, b in zip(row, x))])
    return ProblemInstance(f, cs), x


# -2 y2 - 3 max(0, y1 + 10 y2) on y2 <= 0 at 0: the feasible violations fill
# a narrow cone, first met in shell 4; on shells of radius 1e-9 and below,
# samples with 0 < y2 pass the float prefilter's 1e-9 slack, and their exact
# re-check fails in shells 0-3 before shell 4 holds a verified violation
CUT = ProblemInstance(
    DCFunction(linear_function([0, 0]), PAConvexFunction([((F(0), F(2)), F(0)), ((F(3), F(32)), F(0))])),
    ConstraintSystem(Polyhedron.from_hrep([((F(1), F(0)), F(1)), ((F(-1), F(0)), F(1)),
                                           ((F(0), F(1)), F(1)), ((F(0), F(-1)), F(1))], 2), [[0, 1]], [0]),
)


@given(blunt_problems(), probe_plans(), st.sampled_from([F(1, 100), F(1, 10), F(1, 2), F(2)]))
@example((CUT, (F(0), F(0))), replace(EIGHT_PER_SHELL, seed=6), F(1, 2))
@example((CUT, (F(0), F(0))), replace(EIGHT_PER_SHELL, seed=6, shell_radii=tuple(1e-9 * 2.0**-k for k in range(20))),
         F(1, 2))
@settings(max_examples=60, deadline=None)
def test_blunt_probe_matches_reference(px, plan, eps):
    p, x = px
    got = json.dumps(blunt_min_probe(p, x, eps, plan).to_json())
    assert got == json.dumps(oracles.blunt_reference(p, x, eps, plan).to_json())


def test_probes_batch_their_evaluations(monkeypatch):
    calls = []
    original = PAConvexFunction.evaluate_batch

    def counted(self, xs):
        calls.append(len(xs))
        return original(self, xs)

    monkeypatch.setattr(PAConvexFunction, "evaluate_batch", counted)
    f = PAConvexFunction([((F(1), F(2)), F(0)), ((F(-1), F(0)), F(1))])
    x = (F(1, 2), F(0))

    def probes(plan):
        """Each probe's call lengths under plan, all of them Holds."""
        out = {}
        for name, run in (
            ("dini", lambda: dini_directional_estimate(f, x, (F(1), F(-1)), plan)),
            ("membership", lambda: eps_subgradient_membership_probe(f, x, (F(1), F(2)), F(0), F(1, 4), plan)),
            *(
                (mode, lambda mode=mode: approx_regularity_probe(f, x, F(1, 10), mode, plan, direction=(F(1), F(0))))
                for mode in ("convex", "starshaped", "directional")
            ),
        ):
            calls.clear()
            result = run()
            assert name == "dini" or result.holds, name
            out[name] = list(calls)
        return out

    assert len(DEFAULT_PLAN.shell_radii) == 20
    n = DEFAULT_PLAN.samples_per_shell
    got = probes(DEFAULT_PLAN)
    # the base point, then all shells in one call
    assert got["dini"] == [1, 20 * (n + 8)]
    # the base point, shell 0 alone, then groups of shells within the budget
    assert got["membership"] == [1, n, 19 * n]
    # x samples, y samples and four midpoints per pair: five shells a group
    assert got["convex"] == [1, 6 * n] + [5 * 6 * n] * 3 + [4 * 6 * n]
    # the pinned y is the base point, one row of each call: six shells a group
    assert got["starshaped"] == got["directional"] == [1, 5 * n + 1] + [6 * 5 * n + 1] * 3 + [5 * n + 1]
    assert all(max(lengths) <= _ROWS_PER_EVALUATION for lengths in got.values())
    n = MAX_SAMPLES_PER_SHELL
    shell = {"dini": n + 8, "membership": n, "convex": 6 * n, "starshaped": 5 * n + 1, "directional": 5 * n + 1}
    big = replace(DEFAULT_PLAN, shell_radii=(0.5, 0.25, 0.125), samples_per_shell=n)
    for name, lengths in probes(big).items():
        assert lengths == [1] + [shell[name]] * 3, f"{name}: a shell past the budget goes alone"


# ---------------------------------------------------------------------------
# gap continuity
# ---------------------------------------------------------------------------


def test_gap_probe_pa_holds():
    v = gap_continuity_probe(abs_function(), (F(0),), F(1, 10))
    assert v.status == "Holds"
    assert all(s["inf"] >= 0 for s in v.shells)


def test_gap_probe_detects_empty_map():
    # x - |x| has an empty subdifferential at 0 (no x* with x* + [-1,1]
    # inside {1}), so the gap to nearby sets is +inf and the probe fails
    dc = DCFunction(linear_function(["1"]), abs_function())
    v = gap_continuity_probe(dc, (F(0),), F(1, 10))
    assert v.status == "FailsWithWitness"
    assert v.witness is not None
    assert all(s["inf"] == "inf" or s["inf"] == math.inf for s in v.shells)


def test_gap_probe_rejects_blackbox():
    with pytest.raises(ParseError):
        gap_continuity_probe(ABS, (F(0),), F(1, 10))


def test_probe_json_schema():
    v = gap_continuity_probe(abs_function(), (F(0),), F(1, 10))
    obj = v.to_json()
    assert set(obj) == {"status", "witness", "shells", "notes"}
    for s in obj["shells"]:
        assert "radius" in s and "inf" in s
    json.dumps(obj)  # serializable, including any non-finite floats
