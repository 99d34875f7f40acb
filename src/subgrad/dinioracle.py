"""Sampling oracles for Dini-Hadamard quantities of black-box functions.

Everything here is floating point and three-valued: sampling can exhibit a
violation (FailsWithWitness, always replayable) but can never prove one
absent, so "Holds" means "no violation found under this plan, plus any exact
shortcut that applies".  Exact answers live in funcmodel and calculus; these
probes cross-check them and extend coverage to functions given only as
expression trees.

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
drawn, each from its own stream, and evaluated in groups of shells (one
group for a default plan), as described under "Shell search".

Streams
-------
Shell k of probe tag t draws from PCG64 seeded by
``SeedSequence(seed mod 2^64, spawn_key=(t, k))`` (NumPy's NEP 19
construction).  ``SamplingPlan.rng`` does not build that SeedSequence: the
seed and tag words are mixed once in Python ints, and the shell word and the
output hash run over every shell of the plan in a few uint32 array
operations, giving one cached table of PCG64 seed words per (seed, tag).
The test suite pins every row of it to NumPy's construction.

Shell search
------------
The membership, regularity and blunt-minimality probes share one verdict
rule, kept in ``_shell_search``.  Shell k draws only from ``plan.rng(tag,
k)`` and records {"radius", "inf"}, with "inf" the least margin over its
usable samples.  The first shell holding a violation that survives the
probe's own re-check ends the search with FailsWithWitness, and the shell
records stop there; a shell whose re-check fails does not end it.  When no
shell had a usable sample the verdict is Inconclusive; otherwise it is
Holds.

Shell 0 is evaluated alone, since a probe that fails mostly fails there.
The other shells are evaluated in groups, one ``evaluate_batch`` call per
group, and each group's margins are reduced as one (shells, samples) array
before its shells are searched in order.  A verified violation ends the
search at its group: nothing past that group is evaluated, but the rest of
the group is, so a black box that fails to evaluate there fails the probe.
A group, like a Dini estimate's, holds as many shells as fit in
``_ROWS_PER_EVALUATION`` rows, and a larger shell goes alone.

A regularity group evaluates its x samples, y samples and midpoints
together, with a pinned base point as one row: a matrix product gives a row
the same value at any position in a batch of two or more rows, but a
one-row product can round differently.  That still holds with the
reductions of ``evaluate_batch`` run along the batch axis, since the
product is unchanged; a one-piece function is the exception, a
matrix-vector product at every length whose rows at d = 8 can depend on
their position, in a shell's own rows as in a group's.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import EvaluationFailure, NegativeEps, ParseError, SubgradError
from .funcmodel import DCFunction, PAConvexFunction, _finite_rows, dc_dini_subdifferential
from .polykernel import L1, gap
from .rationals import parse_rational, parse_vector, record_json, to_float

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


# One convex-mode regularity probe at d = 8 peaks near 117 MB of resident
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


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _words32(value: int) -> list[int]:
    """A nonnegative int as little-endian 32-bit words, as SeedSequence reads it."""
    if value < 0:
        raise ValueError("stream keys must be nonnegative")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_consts(hc: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The next ``count`` (xor, multiplier) pairs of a SeedSequence hash
    constant, as uint32 arrays, and the constant after them."""
    xors, muls = [], []
    for _ in range(count):
        xors.append(hc)
        hc = hc * mult & _MASK32
        muls.append(hc)
    return np.array(xors, dtype=np.uint32), np.array(muls, dtype=np.uint32), hc


# generate_state(4, uint64) hashes the pool cyclically into eight 32-bit words
_OUT_XOR, _OUT_MUL, _ = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)


@functools.lru_cache(maxsize=64)
def _stream_table(seed: int, tag: int, count: int) -> np.ndarray:
    """PCG64 seed words of shells 0..count-1 of one probe: row k equals
    ``SeedSequence(seed, spawn_key=(tag, k)).generate_state(4, np.uint64)``.

    The entropy is the seed's words zero-padded to the pool, the tag's words,
    then k.  Everything before k is the same in every row, so it is mixed
    once here; k and the output hash run over all rows at once.
    """
    hc = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hc
        value ^= hc
        hc = hc * _MULT_A & _MASK32
        value = value * hc & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ (value >> 16)

    words = _words32(seed)
    entropy = words + [0] * (_POOL - len(words)) + _words32(tag)
    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL:]:
        pool = [mix(p, hashmix(w)) for p in pool]
    xors, muls, _ = _hash_consts(hc, _MULT_A, _POOL)
    k = np.arange(count, dtype=np.uint32)[:, None]
    h = (k ^ xors) * muls
    h ^= h >> 16
    p = np.array([_MIX_MULT_L * v & _MASK32 for v in pool], dtype=np.uint32) - np.uint32(_MIX_MULT_R) * h
    p ^= p >> 16
    out = (p[:, [0, 1, 2, 3, 0, 1, 2, 3]] ^ _OUT_XOR) * _OUT_MUL
    out ^= out >> 16
    table = out.astype("<u4", order="C").view("<u8").astype(np.uint64)
    table.flags.writeable = False
    return table


class _ShellSeed(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 one row of a stream table as its seed words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a shell seed holds only PCG64's 4 uint64 words")
        return self.words


def _default_radii() -> tuple[float, ...]:
    return tuple(2.0 ** -k for k in range(1, 21))


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic sampling schedule shared by all probes.

    shell_radii must decrease strictly; every random stream is derived from
    seed and the (probe, shell) pair, so verdicts are independent of
    threading and evaluation order.  ``rng(tag, k)`` is PCG64 seeded by
    ``SeedSequence(seed mod 2^64, spawn_key=(tag, k))``, read from one table
    of seed words per (seed, tag) that covers every shell of the plan.
    """

    shell_radii: tuple[float, ...] = field(default_factory=_default_radii)
    samples_per_shell: int = 256
    seed: int = 0
    stabilization_window: int = 4
    stabilization_tol: float = 1e-6
    divergence_threshold: float = -1e6

    def __post_init__(self):
        for key in ("samples_per_shell", "seed", "stabilization_window"):
            if not _is_int(getattr(self, key)):
                raise ParseError(f"{key} must be an integer")
        for key in ("stabilization_tol", "divergence_threshold"):
            value = getattr(self, key)
            if not _is_real(value) or not math.isfinite(to_float(value)):
                raise ParseError(f"{key} must be a finite number")
        radii = tuple(to_float(r) for r in self.shell_radii)
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

    def rng(self, tag: int, shell_index: int) -> np.random.Generator:
        count = len(self.shell_radii)
        if not 0 <= shell_index < count:
            raise IndexError(f"shell {shell_index} is not a shell of this plan")
        words = _stream_table(self.seed & 0xFFFFFFFFFFFFFFFF, tag, count)[shell_index]
        return np.random.Generator(np.random.PCG64(_ShellSeed(words)))

    def to_json(self) -> dict:
        return record_json(self)

    @classmethod
    def from_json(cls, obj: dict) -> "SamplingPlan":
        if not isinstance(obj, dict):
            raise ParseError("a sampling plan must be a JSON object")
        names = {f.name for f in fields(cls)}
        unknown = [str(k) for k in obj if k not in names]
        if unknown:
            raise ParseError(f"unknown sampling plan fields: {', '.join(unknown)}")
        radii = obj.get("shell_radii", [])
        if not isinstance(radii, list) or not all(_is_real(r) for r in radii):
            raise ParseError("shell_radii must be a list of numbers")
        return cls(**obj)


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


def _l1_ball_points(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    """n uniform points in the closed l1 ball of the given radius, in O(n*dim).

    With E_0, ..., E_dim i.i.d. standard exponentials, the spacings
    E_i / (E_0 + ... + E_dim), i < dim, are uniform on the solid simplex
    {y >= 0, sum(y) <= 1}; independent fair signs then spread the point
    uniformly over the 2^dim orthants (Devroye 1986, Non-Uniform Random
    Variate Generation, ch. V).  No draw is rejected, so the cost does not
    grow like dim! as rejection from the enclosing cube does.
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


def _as_float_vec(x: Sequence, dim: int) -> np.ndarray:
    exact = parse_vector(x, dim)
    return np.array([to_float(v) for v in exact], dtype=float)


def _eval_float(f, x: Sequence) -> float:
    """f at one point, through the batch evaluator every probe uses."""
    return float(f.evaluate_batch(np.atleast_2d(np.asarray(x, dtype=float)))[0])


def _shell_groups(count: int, rows: int, start: int = 0) -> list[range]:
    """Consecutive shells start..count-1, as many to a group as fit in
    ``_ROWS_PER_EVALUATION`` rows at ``rows`` rows a shell."""
    size = max(1, _ROWS_PER_EVALUATION // rows)
    return [range(k, min(k + size, count)) for k in range(start, count, size)]


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """A group's per-shell arrays along a new first axis; a lone shell's as
    a view, so a shell past the row budget is not copied."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _shell_search(
    plan: SamplingPlan, tag: int, rows: int, draw, evaluate, limit: float, no_samples_note: str
) -> ProbeVerdict:
    """The shell-verdict rule of the module docstring.

    ``draw(rng, radius)`` draws one shell, which takes at most ``rows`` rows
    of an evaluation.  ``evaluate(drawn)`` evaluates a group of drawn shells
    in one ``evaluate_batch`` call.  It returns (shells, samples) arrays of
    the usable mask and the margins, and ``recheck(j, bad)``, which re-checks
    the bad samples of the group's shell j and returns None or a verified
    ``(witness, note)``.  A usable sample is bad when its margin is below
    ``limit``.
    """
    radii = plan.shell_radii
    shells: list[dict] = []
    any_usable = False
    for group in [range(1)] + _shell_groups(len(radii), rows, 1):
        usable, margins, recheck = evaluate([draw(plan.rng(tag, k), radii[k]) for k in group])
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
    xf = _as_float_vec(x, dim)
    hf = _as_float_vec(h, dim)
    fx = _eval_float(f, xf)
    if not math.isfinite(fx):
        raise EvaluationFailure("f is not finite at the base point")
    res = _RES_FACTOR * _EPS_MACH * max(1.0, abs(fx))
    raws: list[float] = []
    ests: list[float | None] = []
    shells: list[dict] = []
    witness = None
    witness_q = math.inf
    n = plan.samples_per_shell
    rows = n + _ANCHORS
    radii = plan.shell_radii
    # each shell's anchors are t = r * anchors along u = h itself
    anchors = 2.0 ** (-np.arange(_ANCHORS) / _ANCHORS)
    h_rows = np.tile(hf, (_ANCHORS, 1))
    for group in _shell_groups(len(radii), rows):
        ts, us = [], []
        for k in group:
            rng = plan.rng(tag, k)
            r = radii[k]
            t_ann = r * 2.0 ** (-rng.random(n // 2))
            t_deep = r * 2.0 ** (-(1.0 + _DEEP_SPAN * rng.random(n - n // 2)))
            ts.append(np.concatenate([r * anchors, t_ann, t_deep]))
            us.append(np.vstack([h_rows, hf + _l1_ball_points(rng, n, dim, r)]))
        t = np.concatenate(ts)
        u = np.vstack(us)
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
        shell_raws = q_info.min(axis=1).tolist()
        shell_best = q_info.argmin(axis=1).tolist()
        precise = precise.reshape(len(group), rows)
        shell_ests = np.where(precise, q.reshape(precise.shape), np.inf).min(axis=1).tolist()
        has_est = precise.any(axis=1).tolist()
        shell_absorbed = (finite & ~info).reshape(len(group), rows).sum(axis=1).tolist()
        for j, k in enumerate(group):
            raw = shell_raws[j]
            est = shell_ests[j] if has_est[j] else None
            if raw < witness_q:
                witness_q = raw
                idx = j * rows + shell_best[j]
                witness = {
                    "t": float(t[idx]),
                    "u": [float(z) for z in u[idx]],
                    "quotient": float(q[idx]),
                }
            raws.append(raw)
            ests.append(est)
            shells.append(
                {"radius": float(radii[k]), "inf": raw, "estimate_inf": est, "absorbed": shell_absorbed[j]}
            )
    env = math.inf
    for j in range(len(shells) - 1, -1, -1):
        env = min(env, raws[j])
        shells[j]["envelope"] = env
    diverged = sum(1 for v in raws if v < plan.divergence_threshold) >= 2
    estimate = math.inf
    for est in reversed(ests):
        if est is not None:
            estimate = est
            break
    stable = False
    if diverged:
        estimate = -math.inf
    else:
        w = plan.stabilization_window
        tail = [v for v in ests[-w:] if v is not None]
        if len(tail) == w and max(tail) - min(tail) <= plan.stabilization_tol:
            stable = True
    return DiniEstimate(estimate, stable, diverged, shells, witness)


def calmness_probe(f, x, plan: SamplingPlan = DEFAULT_PLAN) -> ProbeVerdict:
    """Tests d-f(x; 0) = 0, the calmness criterion.

    Piecewise-affine data is locally Lipschitz on its domain, so PA and DC
    inputs skip sampling.  For black boxes the h = 0 estimate diverging past
    the plan threshold falsifies calmness with a replayable (t, u) pair.
    """
    if isinstance(f, (PAConvexFunction, DCFunction)):
        return ProbeVerdict(
            "Holds",
            None,
            [],
            notes=("locally Lipschitz: piecewise-affine data, calmness exact",),
        )
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


def _lex_key(*arrays):
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


def eps_subgradient_membership_probe(
    f, x, xstar, eps, alpha, plan: SamplingPlan = DEFAULT_PLAN
) -> ProbeVerdict:
    """Searches for points violating the eps-subgradient inequality at x.

    Violation: f(y) - f(x) < <xstar, y - x> - (alpha + eps) * ||y - x||_1.
    Holds needs both an empty search and a Holds from calmness_probe, since
    the inequality family defines membership only for calm functions.
    """
    e = to_float(parse_rational(eps))
    a = to_float(parse_rational(alpha))
    if e < 0:
        raise NegativeEps(f"eps must be nonnegative, got {eps}")
    if a <= 0:
        raise NegativeEps(f"alpha must be positive, got {alpha}")
    dim = f.dim
    xf = _as_float_vec(x, dim)
    sf = _as_float_vec(xstar, dim)
    fx = _eval_float(f, xf)
    if not math.isfinite(fx):
        return ProbeVerdict(
            "Inconclusive", None, [], notes=("f is not finite at the base point",)
        )
    scale = max(1.0, abs(fx))
    n = plan.samples_per_shell

    def draw(rng, r):
        return _l1_ball_points(rng, n, dim, r)

    def evaluate(drawn):
        w = _stack(drawn)
        with np.errstate(over="ignore"):
            pts = xf + w
        fv = f.evaluate_batch(pts.reshape(-1, dim)).reshape(len(drawn), n)
        norms = np.abs(w).sum(axis=2)
        margin = fv - fx - w @ sf + (a + e) * norms
        usable = np.isfinite(fv) & (norms > 0)

        def recheck(j, bad):
            best = min(bad, key=_lex_key(pts[j], margin[j]))
            witness = {
                "x": [float(z) for z in pts[j, best]],
                "f_x": float(fv[j, best]),
                "margin": float(margin[j, best]),
            }
            return witness, "inequality violated at the witness point"

        return usable, margin, recheck

    verdict = _shell_search(
        plan, _TAG_MEMBER, n, draw, evaluate, -_VERIFY_RTOL * scale, "no evaluable samples"
    )
    if not verdict.holds:
        return verdict
    calm = calmness_probe(f, x, plan)
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
    scalar re-evaluation, Holds otherwise.
    """
    e = to_float(parse_rational(eps))
    if e <= 0:
        raise NegativeEps(f"eps must be positive, got {eps}")
    if mode not in ("convex", "starshaped", "directional"):
        raise ParseError(f"unknown mode {mode!r}")
    if mode == "directional":
        if direction is None:
            raise ParseError("directional mode needs a direction")
        df = _as_float_vec(direction, f.dim)
    dim = f.dim
    xf = _as_float_vec(x, dim)
    fx = _eval_float(f, xf)
    if not math.isfinite(fx):
        return ProbeVerdict(
            "Inconclusive", None, [], notes=("f is not finite at the base point",)
        )
    scale = max(1.0, abs(fx))
    n = plan.samples_per_shell
    # one row of ts per anchor mix parameter, the same in every shell
    anchor_rows = np.repeat([0.25, 0.5, 0.75], n)
    pinned = mode != "convex"

    def draw(rng, r):
        ys0 = None  # the base point, in the pinned modes
        # a sample past float range is inf, and its margins are dropped
        with np.errstate(over="ignore"):
            if mode == "convex":
                w_cap = 0.999 * min(r / 2.0, e)
                centers = xf[None, :] + _l1_ball_points(rng, n, dim, r / 2.0)
                dirs = _l1_sphere_points(rng, n, dim)
                ell = w_cap * rng.random(n)
                rho = rng.random(n)
                xs0 = centers + (rho * ell)[:, None] * dirs
                ys0 = centers - ((1.0 - rho) * ell)[:, None] * dirs
            elif mode == "starshaped":
                xs0 = xf[None, :] + _l1_ball_points(rng, n, dim, r)
            else:
                vs = df[None, :] + _l1_ball_points(rng, n, dim, r)
                s = r * rng.random(n)
                xs0 = xf[None, :] + s[:, None] * vs
        # ts[j, i] mixes pair i: one row per anchor, then a random row
        return xs0, ys0, np.concatenate([anchor_rows, rng.random(n)]).reshape(-1, n)

    def evaluate(drawn):
        g = len(drawn)
        xs0 = _stack([d[0] for d in drawn])
        # the pinned y is the base point, evaluated once as one row
        ys0 = xf[None, None, :] if pinned else _stack([d[1] for d in drawn])
        ts = _stack([d[2] for d in drawn])
        with np.errstate(over="ignore"):
            mids = ts[..., None] * xs0[:, None] + (1.0 - ts)[..., None] * ys0[:, None]
        y_rows = ys0.reshape(-1, dim)
        vals = f.evaluate_batch(np.vstack([xs0.reshape(-1, dim), y_rows, mids.reshape(-1, dim)]))
        fxv = vals[:g * n].reshape(g, 1, n)
        fyv = vals[g * n:g * n + len(y_rows)].reshape(ys0.shape[:2])[:, None, :]
        fm = vals[g * n + len(y_rows):].reshape(ts.shape)
        dist = np.abs(xs0 - ys0).sum(axis=2)[:, None, :]
        rhs = ts * fxv + (1.0 - ts) * fyv + e * ts * (1.0 - ts) * dist
        # inf - inf off the domain gives NaN, which counts as unusable
        with np.errstate(invalid="ignore"):
            margin = (rhs - fm).reshape(g, -1)

        def recheck(j, bad):
            reps = ts.shape[1]
            xs = np.tile(xs0[j], (reps, 1))
            ys = np.tile(np.broadcast_to(ys0[0 if pinned else j], xs0[j].shape), (reps, 1))
            tj = ts[j].ravel()
            best = min(bad, key=_lex_key(xs, ys, tj))
            xw = [float(z) for z in xs[best]]
            yw = [float(z) for z in ys[best]]
            tw = float(tj[best])
            lhs = _eval_float(f, np.array(xw) * tw + np.array(yw) * (1.0 - tw))
            rhs = (
                tw * _eval_float(f, xw)
                + (1.0 - tw) * _eval_float(f, yw)
                + e * tw * (1.0 - tw) * float(np.abs(np.array(xw) - np.array(yw)).sum())
            )
            if not lhs > rhs:
                return None
            witness = {
                "x": xw,
                "y": yw,
                "t": tw,
                "lhs": lhs,
                "rhs": rhs,
                "margin": float(margin[j, best]),
            }
            return witness, f"{mode} inequality violated at the witness"

        return np.isfinite(margin), margin, recheck

    # a pinned group also holds the base point's row
    rows = 5 * n + 1 if pinned else 6 * n
    return _shell_search(
        plan, _TAG_APPROX, rows, draw, evaluate, -_VERIFY_RTOL * scale, "no evaluable samples"
    )


def gap_continuity_probe(f, x, eps, plan: SamplingPlan = DEFAULT_PLAN) -> ProbeVerdict:
    """Tests gap continuity of the subdifferential map at x.

    The map is the exact subdifferential for a PA convex function and the
    exact Dini-Hadamard subdifferential (eps = eta = 0) for a DC pair; each
    sampled float point is promoted to exact rationals, so every reported
    gap is exact.  Decision runs deepest shell first: a shell whose gaps all
    stay below eps certifies Holds (a candidate delta), a shell whose gaps
    all reach eps certifies FailsWithWitness, anything else is Inconclusive.
    """
    e = parse_rational(eps)
    if e <= 0:
        raise NegativeEps(f"eps must be positive, got {eps}")
    if isinstance(f, PAConvexFunction):
        def map_at(p):
            return f.subdifferential_at(p)
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
    shells: list[dict] = []
    records: list[tuple[int, list, list]] = []
    for k, r in enumerate(plan.shell_radii):
        rng = plan.rng(_TAG_GAP, k)
        w = _l1_ball_points(rng, n, dim, r)
        with np.errstate(over="ignore"):
            pts = xf[None, :] + w
        gaps = []
        used = []
        # a sample past float range has no exact point to promote
        for row in pts[_finite_rows(pts)]:
            p = tuple(Fraction(float(v)) for v in row)
            try:
                g = gap(base, map_at(p), L1)
            except SubgradError:
                continue
            gaps.append(g)
            used.append([float(v) for v in row])
        if gaps:
            lo = min(gaps)
            hi = max(gaps)
        else:
            lo = hi = math.inf
        shells.append(
            {
                "radius": float(r),
                "inf": to_float(lo),
                "sup": to_float(hi),
            }
        )
        records.append((k, gaps, used))
    for k, gaps, used in reversed(records):
        if not gaps:
            continue
        if max(gaps) < e:
            return ProbeVerdict(
                "Holds",
                None,
                shells,
                notes=(f"all sampled gaps below eps in shell {k}",),
            )
        if min(gaps) >= e:
            px, pg = min(zip(used, gaps), key=lambda z: z[0])
            witness = {
                "x": px,
                "gap": to_float(pg),
            }
            return ProbeVerdict(
                "FailsWithWitness",
                witness,
                shells,
                notes=(f"every sampled gap reaches eps in shell {k}",),
            )
    return ProbeVerdict(
        "Inconclusive", None, shells, notes=("no decisive shell under this plan",)
    )
