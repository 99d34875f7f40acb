"""Sampling oracles for Dini-Hadamard quantities of black-box functions.

Everything here samples in floating point and is three-valued: sampling can
exhibit a violation (FailsWithWitness) but can never prove one absent, so
"Holds" means "no violation found under this plan, plus any exact shortcut
that applies".  On PA and DC data the shell searches re-check a sampled
violation in exact arithmetic before they report it, so their witness is a
proof; a black box's witness replays through ``evaluate_batch``.  Exact
answers live in funcmodel and calculus; these probes cross-check them and
extend coverage to functions given only as expression trees.  A base point
x outside dom f is bad input, never a verdict: on PA and DC data every probe
decides x in dom f exactly (``_base_point``; the gap probe by its exact
subdifferential) and raises PointOutsideDomain, and on a black box the batch
value at x decides it (``_base_value``), which raises EvaluationFailure.

Shell design
------------
A plan fixes a decreasing ladder of radii.  For shell radius r the sampler
draws pairs (t, u) with u in the l1 ball of radius r around the direction h
and t in two bands: an annulus band t in [r/2, r] whose quotients carry
roughly ulp(f)/t of rounding error and feed the derivative estimate, and a
deep band t in [r*2^-44, r/2] that hunts for divergence, where the joint
(t, u) -> (0, h) limit can fall far below any single-band quotient.  A
resolution gate classifies each sample: quotients whose worst-case rounding
error exceeds a precision budget are kept for divergence detection only, and
samples whose numerator is smaller than the evaluation noise floor are
discarded outright.  No shell ends the estimate early, so all shells are
drawn and evaluated in groups of shells (one group for a default plan).

Streams
-------
Each probe call draws from one stream, PCG64 seeded by
``SeedSequence(seed mod 2^64, spawn_key=(tag,))`` with the probe's tag
(NumPy's NEP 19 construction).  The stream is drawn in the probe's
evaluation schedule: a group of shells takes one call per random quantity,
with the group's radii as a per-row column, and every array drawn has a
leading shell axis.  The Dini estimate (also under calmness) draws its
groups from shell 0, the shell searches draw shell 0 alone and then their
groups, and the gap probe draws all its shells, at most 16 rows a shell, in
one call.  A shell's samples therefore depend on the plan's shells and
sample count, not only on its own radius.

Shell search
------------
The membership, regularity and blunt-minimality probes share one verdict
rule, kept in ``_shell_search``.  Each shell records {"radius", "inf"},
with "inf" the least margin over its usable samples.  The first shell
holding a violation that survives the probe's own re-check ends the search
with FailsWithWitness, and the shell records stop there; a shell whose
re-check fails does not end it.  When no shell had a usable sample the
verdict is Inconclusive; otherwise it is Holds.

A re-check takes a shell's bad samples in lexicographic order of their
floats (``_lex_order``).  Membership and regularity re-check the first: on
PA or DC data by ``evaluate`` on the Fractions of its floats, with eps,
alpha, x* and the membership base point exact; a black box keeps its batch
value.  The blunt probe re-checks them in turn, feasibility and value in
exact arithmetic, until one holds.

Shell 0 is drawn and evaluated alone, since a probe that fails mostly fails
there, and a failure there draws nothing more.  The other shells are drawn
and evaluated in groups, one ``evaluate_batch`` call per group, and each
group's margins are reduced as one (shells, samples) array before its
shells are searched in order.  A verified violation ends the search at its
group: nothing past that group is drawn or evaluated, but the rest of the
group is, so a black box that fails to evaluate there fails the probe.  A
group, like a Dini estimate's, holds as many shells as fit in
``_ROWS_PER_EVALUATION`` rows, and a larger shell goes alone.

A regularity group evaluates its x samples, y samples and midpoints
together, with a pinned base point as one row: a matrix product gives a row
the same value at any position in a batch of two or more rows, but a
one-row product can round differently.  That still holds with the
reductions of ``evaluate_batch`` run along the batch axis, since the
product is unchanged, and for one-piece functions, whose lone row the
float models hold twice so that the product is never matrix-vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from operator import mul
from typing import Sequence

import numpy as np

from .errors import EvaluationFailure, ParseError, PointOutsideDomain
from .funcmodel import DCFunction, PAConvexFunction, _finite_rows, dc_dini_subdifferential
from .polykernel import L1, gap
from .rationals import format_point, parse_radius, parse_vector, read_field, record_json, to_float

_EPS_MACH = float(np.finfo(np.float64).eps)
_RES_FACTOR = 8.0
_PRECISE_RTOL = 5e-7
_DEEP_SPAN = 43.0
_ANCHORS = 8
_CALM_TOL = 1e-4
_VERIFY_RTOL = 1e-10

_TAG_DINI = 0
_TAG_CALM = 1
_TAG_MEMBER = 2
_TAG_APPROX = 3
_TAG_GAP = 4
_TAG_BLUNT = 5  # optimality.blunt_min_probe


# One convex-mode regularity probe at d = 8 peaks near 115 MB of resident
# memory at this count, about 2 KB a sample (four pieces, x86-64 Linux, NumPy
# 2.4): 256 times the default count, far short of the gigabytes a count of
# 10**8 asks for.  A shell this large is past _ROWS_PER_EVALUATION, so each
# call holds one shell.
MAX_SAMPLES_PER_SHELL = 2**16

# The rows of one evaluate_batch call: a probe evaluates as many shells at
# once as fit, and a larger shell alone.  On the sampling benchmark (seed 1,
# x86-64 Linux) this budget peaked at 42.9 MB resident, 2^14 rows at 43.6 MB
# and one call for every shell at 45.4 MB, which was no faster.
_ROWS_PER_EVALUATION = 2**13


def _default_radii() -> tuple[float, ...]:
    return tuple(2.0 ** -k for k in range(1, 21))


@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic sampling schedule shared by all probes.

    shell_radii must decrease strictly.  ``rng(tag)`` is the one stream of
    a probe call, PCG64 seeded by ``SeedSequence(seed mod 2^64,
    spawn_key=(tag,))``, and each probe draws its shells from it in a fixed
    schedule, so verdicts are independent of threading and of other probes.
    """

    shell_radii: tuple[float, ...] = field(default_factory=_default_radii)
    samples_per_shell: int = 256
    seed: int = 0
    stabilization_window: int = 4
    stabilization_tol: float = 1e-6
    divergence_threshold: float = -1e6

    def __post_init__(self):
        values = vars(self)
        for key in ("samples_per_shell", "seed", "stabilization_window"):
            read_field(values, "sampling plan", key, int)
        for key in ("stabilization_tol", "divergence_threshold"):
            if not math.isfinite(to_float(read_field(values, "sampling plan", key, float))):
                raise ParseError(f"{key} must be a finite number")
        radii = tuple(map(to_float, read_field(values, "sampling plan", "shell_radii", list)))
        if not radii:
            raise ParseError("shell_radii must be nonempty")
        if not all(math.isfinite(r) for r in radii):
            raise ParseError("shell radii must be finite")
        if any(r <= 0 for r in radii):
            raise ParseError("shell radii must be positive")
        if any(a <= b for a, b in zip(radii, radii[1:])):
            raise ParseError("shell radii must decrease strictly")
        object.__setattr__(self, "shell_radii", radii)
        if not 8 <= self.samples_per_shell <= MAX_SAMPLES_PER_SHELL:
            raise ParseError(f"samples_per_shell must be between 8 and {MAX_SAMPLES_PER_SHELL}")
        if self.stabilization_window < 2:
            raise ParseError("stabilization_window must be at least 2")
        if self.stabilization_tol <= 0:
            raise ParseError("stabilization_tol must be positive")

    def rng(self, tag: int) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed & 0xFFFFFFFFFFFFFFFF, spawn_key=(tag,))
        return np.random.Generator(np.random.PCG64(seq))

    def to_json(self) -> dict:
        return record_json(self)

    @classmethod
    def from_json(cls, obj: dict) -> "SamplingPlan":
        names = [f.name for f in fields(cls)]
        values = {k: read_field(obj, "sampling plan", k, default=getattr(DEFAULT_PLAN, k)) for k in names}
        unknown = [str(k) for k in obj if k not in names]
        if unknown:
            raise ParseError(f"unknown sampling plan fields: {', '.join(unknown)}")
        return cls(**values)


DEFAULT_PLAN = SamplingPlan()


@dataclass
class ProbeVerdict:
    """Three-valued probe outcome with per-shell diagnostics."""

    status: str
    witness: dict | None
    shells: list[dict]
    notes: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return self.status == "Holds"

    def to_json(self) -> dict:
        return record_json(self)


@dataclass
class DiniEstimate:
    """Result of dini_directional_estimate with raw per-shell diagnostics."""

    estimate: float
    stable: bool
    diverged: bool
    shells: list[dict]
    witness: dict | None

    def to_json(self) -> dict:
        return record_json(self)


def _random_signs(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    return 2.0 * rng.integers(0, 2, size=(n, dim)) - 1.0


def _l1_ball_points(rng: np.random.Generator, n: int, dim: int, radius) -> np.ndarray:
    """n uniform points in the closed l1 ball of the given radius, in O(n*dim).

    ``radius`` is a number or an (n, 1) column of one radius a row.  With
    E_0, ..., E_dim i.i.d. standard exponentials, the spacings
    E_i / (E_0 + ... + E_dim), i < dim, are uniform on the solid simplex
    {y >= 0, sum(y) <= 1}; independent fair signs then spread the point
    uniformly over the 2^dim orthants (Devroye 1986, Non-Uniform Random
    Variate Generation, ch. V).  No draw is rejected, so the cost does not
    grow like dim! as rejection from the enclosing cube does.  One Laplace
    draw would give sign and size at once, but NumPy's Laplace sampler made
    the grouped draws slower than these two.
    """
    e = rng.standard_exponential((n, dim + 1))
    simplex = e[:, :dim] / e.sum(axis=1, keepdims=True)
    return radius * _random_signs(rng, n, dim) * simplex


def _l1_sphere_points(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n uniform points on the unit l1 sphere: normalised exponentials, signed."""
    e = rng.standard_exponential((n, dim))
    norms = e.sum(axis=1)
    small = norms < 1e-12
    e[small] = 0.0
    e[small, 0] = 1.0
    norms[small] = 1.0
    return _random_signs(rng, n, dim) * (e / norms[:, None])


def _ball_shells(rng: np.random.Generator, radii: np.ndarray, n: int, dim: int) -> np.ndarray:
    """n l1-ball points around 0 for each radius, as a (shells, n, dim) array
    drawn in one call."""
    return _l1_ball_points(rng, len(radii) * n, dim, np.repeat(radii, n)[:, None]).reshape(len(radii), n, dim)


def _as_float_vec(x: Sequence, dim: int) -> np.ndarray:
    exact = parse_vector(x, dim)
    return np.array([to_float(v) for v in exact], dtype=float)


def _base_point(f, x: Sequence) -> tuple[tuple[Fraction, ...], np.ndarray, Fraction | None]:
    """x as Fractions and floats, and the exact f(x) on PA and DC data, where
    x outside dom f raises PointOutsideDomain; None on a black box."""
    xq = parse_vector(x, f.dim)
    xf = _as_float_vec(xq, f.dim)
    if not isinstance(f, (PAConvexFunction, DCFunction)):
        return xq, xf, None
    fq = f.evaluate(xq)
    if fq == math.inf:
        raise PointOutsideDomain(f"{format_point(xq, elide=True)} is outside the effective domain")
    return xq, xf, fq


def _base_value(f, xf: np.ndarray) -> float:
    """f at the base point by the batch evaluator; EvaluationFailure unless finite."""
    fx = float(f.evaluate_batch(np.atleast_2d(xf))[0])
    if not math.isfinite(fx):
        raise EvaluationFailure("f is not finite at the base point")
    return fx


def _shell_groups(count: int, rows: int, start: int = 0) -> list[range]:
    """Consecutive shells start..count-1, as many to a group as fit in
    ``_ROWS_PER_EVALUATION`` rows at ``rows`` rows a shell."""
    size = max(1, _ROWS_PER_EVALUATION // rows)
    return [range(k, min(k + size, count)) for k in range(start, count, size)]


def _lex_order(*keys) -> np.ndarray:
    """The indices of the rows of ``keys`` in lexicographic order, as tuples
    of floats compare: each key is a 1-D array (one value a row) or a 2-D
    array (one vector a row), earlier keys and columns first, ties in index
    order."""
    return np.lexsort([col for key in reversed(keys) for col in np.atleast_2d(np.asarray(key).T)[::-1]])


def _shell_search(
    plan: SamplingPlan, tag: int, rows: int, evaluate, limit: float, no_samples_note: str
) -> ProbeVerdict:
    """The shell-verdict rule of the module docstring.

    ``evaluate(rng, radii)`` draws a group of shells from the probe's
    stream, one call per random quantity, each array with a leading shell
    axis, and evaluates it in one ``evaluate_batch`` call; a shell takes at
    most ``rows`` rows of it.  It returns (shells, samples) arrays of the
    usable mask and the margins, and ``recheck(j, bad)``, which re-checks
    the bad samples of the group's shell j and returns None or a verified
    ``(witness, note)``.  A usable sample is bad when its margin is below
    ``limit``.
    """
    rng = plan.rng(tag)
    radii = np.array(plan.shell_radii)
    shells: list[dict] = []
    any_usable = False
    for group in [range(1)] + _shell_groups(len(radii), rows, 1):
        usable, margins, recheck = evaluate(rng, radii[group])
        any_usable = any_usable or bool(usable.any())
        infs = np.where(usable, margins, np.inf).min(axis=1)
        bad = usable & (margins < limit)
        has_bad = bad.any(axis=1)
        for j, k in enumerate(group):
            shells.append({"radius": float(radii[k]), "inf": float(infs[j])})
            if has_bad[j]:
                found = recheck(j, np.flatnonzero(bad[j]))
                if found is not None:
                    witness, note = found
                    return ProbeVerdict("FailsWithWitness", witness, shells, notes=(note,))
        # free this group's samples before the next group is drawn
        del usable, margins, recheck, bad
    if not any_usable:
        return ProbeVerdict("Inconclusive", None, shells, notes=(no_samples_note,))
    return ProbeVerdict(
        "Holds", None, shells, notes=("no violation found under this plan",)
    )


def dini_directional_estimate(f, x, h, plan: SamplingPlan = DEFAULT_PLAN, *, tag: int = _TAG_DINI) -> DiniEstimate:
    """Sampled lower Dini-Hadamard derivative of f at x in direction h.

    Per shell the reported "inf" is the raw minimum quotient over all
    informative samples; "estimate_inf" restricts to samples whose rounding
    error passes the precision gate.  The estimate is the deepest available
    estimate_inf; the envelope diagnostic is the running min over this shell
    and all deeper ones, mirroring the monotone set of true shell infima.
    Divergence is flagged when at least two shells dive below the plan
    threshold, so a single rounding artifact cannot trigger it.
    """
    dim = f.dim
    _, xf, _ = _base_point(f, x)
    hf = _as_float_vec(h, dim)
    fx = _base_value(f, xf)
    res = _RES_FACTOR * _EPS_MACH * max(1.0, abs(fx))
    shells: list[dict] = []
    witness = None
    witness_q = math.inf
    n = plan.samples_per_shell
    rows = n + _ANCHORS
    rng = plan.rng(tag)
    radii = np.array(plan.shell_radii)
    # each shell's anchors are t = r * anchors along u = h itself
    anchors = 2.0 ** (-np.arange(_ANCHORS) / _ANCHORS)
    for group in _shell_groups(len(radii), rows):
        r = radii[group][:, None]
        t_ann = r * 2.0 ** (-rng.random((len(r), n // 2)))
        t_deep = r * 2.0 ** (-(1.0 + _DEEP_SPAN * rng.random((len(r), n - n // 2))))
        t = np.concatenate([r * anchors, t_ann, t_deep], axis=1).ravel()
        h_rows = np.broadcast_to(hf, (len(r), _ANCHORS, dim))
        u = np.concatenate([h_rows, hf + _ball_shells(rng, radii[group], n, dim)], axis=1).reshape(-1, dim)
        # samples past float range become inf and fail `finite`
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            pts = xf[None, :] + t[:, None] * u
            fv = f.evaluate_batch(pts)
            delta = fv - fx
            finite = np.isfinite(fv)
            q = np.where(finite, delta / t, np.inf)
        precise = finite & (res / t <= _PRECISE_RTOL)
        coarse = finite & ~precise & (np.abs(delta) > res)
        info = precise | coarse
        # one row per shell of the group
        q_info = np.where(info, q, np.inf).reshape(len(group), rows)
        infs = q_info.min(axis=1)
        j = int(infs.argmin())
        if infs[j] < witness_q:
            witness_q = infs[j]
            idx = j * rows + int(q_info[j].argmin())
            witness = {"t": float(t[idx]), "u": [float(z) for z in u[idx]], "quotient": float(q[idx])}
        precise = precise.reshape(len(group), rows)
        est_infs = np.where(precise, q.reshape(precise.shape), np.inf).min(axis=1)
        absorbed = (finite & ~info).reshape(len(group), rows).sum(axis=1)
        shells += [
            {"radius": float(r), "inf": float(raw), "estimate_inf": float(est) if has else None, "absorbed": int(a)}
            for r, raw, est, has, a in zip(radii[group], infs, est_infs, precise.any(axis=1), absorbed)
        ]
    raws = np.array([rec["inf"] for rec in shells])
    for rec, env in zip(shells, np.minimum.accumulate(raws[::-1])[::-1].tolist()):
        rec["envelope"] = env
    ests = [rec["estimate_inf"] for rec in shells]
    diverged = int((raws < plan.divergence_threshold).sum()) >= 2
    w = plan.stabilization_window
    tail = [v for v in ests[-w:] if v is not None]
    stable = not diverged and len(tail) == w and max(tail) - min(tail) <= plan.stabilization_tol
    estimate = -math.inf if diverged else next((est for est in reversed(ests) if est is not None), math.inf)
    return DiniEstimate(estimate, stable, diverged, shells, witness)


def calmness_probe(f, x, plan: SamplingPlan = DEFAULT_PLAN) -> ProbeVerdict:
    """Tests d-f(x; 0) = 0, the calmness criterion.

    Piecewise-affine data is locally Lipschitz on its domain, so PA and DC
    inputs skip sampling once x in dom f is decided exactly.  On a black box
    the batch value at x decides it, and the h = 0 estimate diverging past
    the plan threshold falsifies calmness with a replayable (t, u) pair.
    """
    return _calmness(f, x, _base_point(f, x)[2], plan)


def _calmness(f, x, fq: Fraction | None, plan: SamplingPlan) -> ProbeVerdict:
    """``calmness_probe`` at a base point already decided: ``fq`` is the
    exact f(x) of ``_base_point``, None on a black box."""
    if fq is not None:
        return ProbeVerdict("Holds", None, [], notes=("locally Lipschitz: piecewise-affine data, calmness exact",))
    est = dini_directional_estimate(f, x, [0] * f.dim, plan, tag=_TAG_CALM)
    shells = [{"radius": s["radius"], "inf": s["inf"]} for s in est.shells]
    if est.diverged:
        witness = dict(est.witness or {})
        witness["threshold"] = plan.divergence_threshold
        return ProbeVerdict(
            "FailsWithWitness",
            witness,
            shells,
            notes=("NotCalm: difference quotients diverge below the threshold",),
        )
    if math.isfinite(est.estimate) and est.estimate >= -_CALM_TOL:
        return ProbeVerdict(
            "Holds", None, shells, notes=("quotients stay bounded near zero",)
        )
    return ProbeVerdict(
        "Inconclusive",
        None,
        shells,
        notes=("quotients negative or unstable without crossing the threshold",),
    )


def eps_subgradient_membership_probe(
    f, x, xstar, eps, alpha, plan: SamplingPlan = DEFAULT_PLAN
) -> ProbeVerdict:
    """Searches for points violating the eps-subgradient inequality at x.

    Violation: f(y) - f(x) < <xstar, y - x> - (alpha + eps) * ||y - x||_1,
    which on PA and DC data is verified in exact arithmetic at the sampled y.
    Holds needs both an empty search and a Holds from calmness_probe, since
    the inequality family defines membership only for calm functions.
    """
    eq, aq = parse_radius(eps, "eps"), parse_radius(alpha, "alpha", positive=True)
    e, a = to_float(eq), to_float(aq)
    dim = f.dim
    xq, xf, fxq = _base_point(f, x)
    sq = parse_vector(xstar, dim)
    sf = _as_float_vec(sq, dim)
    fx = _base_value(f, xf)
    scale = max(1.0, abs(fx))
    n = plan.samples_per_shell

    def evaluate(rng, radii):
        w = _ball_shells(rng, radii, n, dim)
        with np.errstate(over="ignore"):
            pts = xf + w
        fv = f.evaluate_batch(pts.reshape(-1, dim)).reshape(len(w), n)
        norms = np.abs(w).sum(axis=2)
        margin = fv - fx - w @ sf + (a + e) * norms
        usable = np.isfinite(fv) & (norms > 0)

        def recheck(j, bad):
            best = bad[_lex_order(pts[j, bad], margin[j, bad])[0]]
            if fxq is not None:
                yq = [Fraction(z) for z in pts[j, best].tolist()]
                step = [y - b for y, b in zip(yq, xq)]
                if not f.evaluate(yq) - fxq < sum(map(mul, sq, step)) - (aq + eq) * sum(map(abs, step)):
                    return None
            witness = {
                "x": [float(z) for z in pts[j, best]],
                "f_x": float(fv[j, best]),
                "margin": float(margin[j, best]),
            }
            return witness, "inequality violated at the witness point"

        return usable, margin, recheck

    verdict = _shell_search(plan, _TAG_MEMBER, n, evaluate, -_VERIFY_RTOL * scale, "no evaluable samples")
    if not verdict.holds:
        return verdict
    calm = _calmness(f, x, fxq, plan)
    if calm.holds:
        return replace(verdict, notes=verdict.notes + calm.notes)
    return ProbeVerdict(
        "Inconclusive",
        None,
        verdict.shells,
        notes=("no violation found, but calmness is " + calm.status,),
    )


def approx_regularity_probe(
    f,
    x,
    eps,
    mode: str,
    plan: SamplingPlan = DEFAULT_PLAN,
    direction: Sequence | None = None,
) -> ProbeVerdict:
    """Hunts for violations of the relaxed convexity inequalities.

    mode "convex": pairs x, y near the base point with mix parameter t; the
    pair spread is capped at min(radius/2, eps) because a spread beyond eps
    can violate the inequality even for functions that satisfy the property
    (the relaxation term scales with eps * ||x - y||, so wide pairs test a
    different regime than the t -> limit the property quantifies over).
    mode "starshaped": y is pinned to the base point.
    mode "directional": x = base + s*v with v near the given direction.
    Verdicts are literal: FailsWithWitness iff a sampled violation survives
    the re-check of the module docstring, exact on PA and DC data, Holds
    otherwise.
    """
    eq = parse_radius(eps, "eps", positive=True)
    e = to_float(eq)
    if mode not in ("convex", "starshaped", "directional"):
        raise ParseError(f"unknown mode {mode!r}")
    if mode == "directional":
        if direction is None:
            raise ParseError("directional mode needs a direction")
        df = _as_float_vec(direction, f.dim)
    dim = f.dim
    _, xf, fq = _base_point(f, x)
    fx = _base_value(f, xf)
    scale = max(1.0, abs(fx))
    n = plan.samples_per_shell
    # one row of ts per anchor mix parameter, the same in every shell
    anchor_rows = np.repeat([0.25, 0.5, 0.75], n)

    def evaluate(rng, radii):
        g = len(radii)
        # the pinned y is the base point, evaluated once as one row
        ys0 = xf[None, None, :]
        # a sample past float range is inf, and its margins are dropped
        with np.errstate(over="ignore"):
            if mode == "convex":
                w_cap = 0.999 * np.minimum(radii / 2.0, e)[:, None]
                centers = xf + _ball_shells(rng, radii / 2.0, n, dim)
                dirs = _l1_sphere_points(rng, g * n, dim).reshape(g, n, dim)
                ell = w_cap * rng.random((g, n))
                rho = rng.random((g, n))
                xs0 = centers + (rho * ell)[..., None] * dirs
                ys0 = centers - ((1.0 - rho) * ell)[..., None] * dirs
                del centers, dirs  # not held through the evaluation
            elif mode == "starshaped":
                xs0 = xf + _ball_shells(rng, radii, n, dim)
            else:
                vs = df + _ball_shells(rng, radii, n, dim)
                s = radii[:, None] * rng.random((g, n))
                xs0 = xf + s[..., None] * vs
        # ts[k, j, i] mixes pair i of shell k: one row per anchor, then a random row
        ts = np.concatenate([np.broadcast_to(anchor_rows, (g, 3 * n)), rng.random((g, n))], axis=1).reshape(g, 4, n)
        with np.errstate(over="ignore"):
            mids = ts[..., None] * xs0[:, None] + (1.0 - ts)[..., None] * ys0[:, None]
        y_rows = ys0.reshape(-1, dim)
        vals = f.evaluate_batch(np.vstack([xs0.reshape(-1, dim), y_rows, mids.reshape(-1, dim)]))
        fxv = vals[:g * n].reshape(g, 1, n)
        fyv = vals[g * n:g * n + len(y_rows)].reshape(ys0.shape[:2])[:, None, :]
        fm = vals[g * n + len(y_rows):].reshape(g, -1)
        dist = np.abs(xs0 - ys0).sum(axis=2)[:, None, :]
        rhs = (ts * fxv + (1.0 - ts) * fyv + e * ts * (1.0 - ts) * dist).reshape(g, -1)
        # inf - inf off the domain gives NaN, which counts as unusable
        with np.errstate(invalid="ignore"):
            margin = rhs - fm
        ys0 = np.broadcast_to(ys0, xs0.shape)

        def recheck(j, bad):
            # sample i of a shell mixes pair i mod n by ts[j].flat[i]
            best = bad[_lex_order(xs0[j, bad % n], ys0[j, bad % n], ts[j].flat[bad])[0]]
            xw, yw, tw = xs0[j, best % n].tolist(), ys0[j, best % n].tolist(), float(ts[j].flat[best])
            if fq is not None:
                xq, yq, tq = [Fraction(z) for z in xw], [Fraction(z) for z in yw], Fraction(tw)
                mid = [tq * p + (1 - tq) * q for p, q in zip(xq, yq)]
                dq = sum(abs(p - q) for p, q in zip(xq, yq))
                if not f.evaluate(mid) > tq * f.evaluate(xq) + (1 - tq) * f.evaluate(yq) + eq * tq * (1 - tq) * dq:
                    return None
            witness = {
                "x": xw,
                "y": yw,
                "t": tw,
                "lhs": float(fm[j, best]),
                "rhs": float(rhs[j, best]),
                "margin": float(margin[j, best]),
            }
            return witness, f"{mode} inequality violated at the witness"

        return np.isfinite(margin), margin, recheck

    # a pinned group also holds the base point's row
    rows = 6 * n if mode == "convex" else 5 * n + 1
    return _shell_search(plan, _TAG_APPROX, rows, evaluate, -_VERIFY_RTOL * scale, "no evaluable samples")


def gap_continuity_probe(f, x, eps, plan: SamplingPlan = DEFAULT_PLAN) -> ProbeVerdict:
    """Tests gap continuity of the subdifferential map at x.

    The map is the exact subdifferential for a PA convex function and the
    exact Dini-Hadamard subdifferential (eps = eta = 0) for a DC pair; each
    sampled float point is promoted to exact rationals, so every reported
    gap is exact.  A sample outside the domain is skipped, and a shell with
    no sample records "inf" and "sup" as inf.  Decision runs deepest shell
    first: a shell whose gaps all stay below eps certifies Holds (a
    candidate delta), a shell whose gaps all reach eps certifies
    FailsWithWitness, anything else is Inconclusive.
    """
    e = parse_radius(eps, "eps", positive=True)
    if isinstance(f, PAConvexFunction):
        map_at = f.subdifferential_at
    elif isinstance(f, DCFunction):
        def map_at(p):
            return dc_dini_subdifferential(f, p, 0, 0)
    else:
        raise ParseError(
            "gap continuity needs exact subdifferentials; pass a PA or DC function"
        )
    dim = f.dim
    exact_x = parse_vector(x, dim)
    xf = _as_float_vec(exact_x, dim)
    base = map_at(exact_x)
    n = min(plan.samples_per_shell, 16)
    radii = plan.shell_radii
    with np.errstate(over="ignore"):
        shell_pts = xf + _ball_shells(plan.rng(_TAG_GAP), np.array(radii), n, dim)
    shells: list[dict] = []
    # per shell, its (point, gap) pairs in sample order
    samples: list[list[tuple[list[float], Fraction | float]]] = []
    for r, pts in zip(radii, shell_pts):
        pairs = []
        # a sample past float range has no exact point to promote
        for p in pts[_finite_rows(pts)].tolist():
            try:
                pairs.append((p, gap(base, map_at(tuple(map(Fraction, p))), L1)))
            except PointOutsideDomain:
                continue
        gaps = [g for _, g in pairs]
        lo, hi = (min(gaps), max(gaps)) if gaps else (math.inf, math.inf)
        shells.append({"radius": float(r), "inf": to_float(lo), "sup": to_float(hi)})
        samples.append(pairs)
    for k, pairs in reversed(list(enumerate(samples))):
        if not pairs:
            continue
        if all(g < e for _, g in pairs):
            return ProbeVerdict("Holds", None, shells, notes=(f"all sampled gaps below eps in shell {k}",))
        if all(g >= e for _, g in pairs):
            px, pg = min(pairs, key=lambda z: z[0])
            return ProbeVerdict(
                "FailsWithWitness",
                {"x": px, "gap": to_float(pg)},
                shells,
                notes=(f"every sampled gap reaches eps in shell {k}",),
            )
    return ProbeVerdict(
        "Inconclusive", None, shells, notes=("no decisive shell under this plan",)
    )
