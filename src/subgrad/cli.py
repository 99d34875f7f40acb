"""Command-line front end: scenario files in, reports and exit codes out.

Exit codes: 0 the claim holds (Equal / Holds / certified), 1 a failure with
witness, 2 inconclusive, 3 input or validation error.  Text goes to stdout;
--json writes a machine report whose bytes depend only on inputs and seed,
never on wall time.

Only the sampling probes use floats: the probe module (`dinioracle`, and
NumPy with it) is imported when a probe scenario runs, so an exact command
never loads it.  A corpus imports it once before its first scenario, so the
one-time import is not charged to whichever probe happens to run first.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

from .calculus import (
    CLAIM_IDS,
    Certificate,
    check_corollary11,
    check_corollary12,
    check_difference_formula,
    check_inclusion_13,
    check_intersection_formula,
    check_sum_rule,
    local_min_necessary,
)
from .errors import ParseError, SubgradError
from .funcmodel import (
    DCFunction,
    PAConvexFunction,
    dc_dini_subdifferential,
    dc_hypothesis_report,
    function_from_json,
    hypothesis,
)
from .optimality import OptimalityCertificate, ProblemInstance, blunt_min_probe, certify_blunt_minimizer
from .polykernel import CAPS, NormSpec, Polyhedron, star_difference
from .rationals import format_rational, parse_rational

if TYPE_CHECKING:
    from .dinioracle import SamplingPlan

_CLAIM_TOKENS = {claim.lower(): claim for claim in CLAIM_IDS} | {"localmin": "LocalMinNecessary"}

_PROBE_KINDS = ("dini", "calmness", "membership", "regularity", "gap", "blunt")


@dataclass
class RunOutcome:
    """One scenario's verdict: exit code, text report, JSON payload."""

    exit_code: int
    text: str
    payload: dict
    label: str = "?"


def _read_json(path) -> object:
    """Parse one JSON file; an unreadable or malformed file is bad input."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _load_ref(value, base: Path) -> dict:
    """A scenario input: inline object, or a path relative to the scenario."""
    if isinstance(value, dict):
        return value
    if isinstance(value, str):
        path = Path(value)
        if not path.is_absolute():
            path = base / path
        return _read_json(path)
    raise ParseError(f"expected a file path or inline object, got {type(value).__name__}")


def _parse_point(value) -> tuple:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        parts = [value]
    if not parts:
        raise ParseError("empty point")
    return tuple(parse_rational(p) for p in parts)


def _plan_from(sc: dict, base: Path) -> SamplingPlan:
    from .dinioracle import DEFAULT_PLAN, SamplingPlan

    plan = DEFAULT_PLAN
    if "plan" in sc:
        plan = SamplingPlan.from_json(_load_ref(sc["plan"], base))
    if "seed" in sc:
        plan = replace(plan, seed=sc["seed"])
    return plan


def _interval_text(p: Polyhedron) -> str | None:
    c = p.canonical()
    if c.dim != 1 or c.is_empty or c.rays:
        return None
    vals = sorted(v[0] for v in c.vertices)
    if len(vals) == 1:
        return f"[{format_rational(vals[0])}]"
    return f"[{format_rational(vals[0])}, {format_rational(vals[-1])}]"


def _poly_text(p: Polyhedron) -> str:
    c = p.canonical()
    if c.is_empty:
        return "empty"
    iv = _interval_text(c)
    if iv is not None:
        return iv
    out = "conv{" + "; ".join(map(_vector_text, c.vertices)) + "}"
    if c.rays:
        out += " + cone{" + "; ".join(map(_vector_text, c.rays)) + "}"
    return out


def _vector_text(v) -> str:
    return "(" + ", ".join(format_rational(x) for x in v) + ")"


def _hypothesis_lines(report) -> list[str]:
    lines = ["hypotheses:"]
    for entry in report:
        lines.append(
            f"  [{entry['status']}] {entry['hypothesis']} ({entry['provenance']})"
        )
    return lines


def _theorem_lines(cert: Certificate | OptimalityCertificate) -> list[str]:
    """The text ending of a check or certify report."""
    return [
        *_hypothesis_lines(cert.hypothesis_report),
        f"theorem_certified: {cert.theorem_certified}",
        *(f"note: {note}" for note in cert.notes),
    ]


def _outcome(code: int, lines: list[str], kind: str, record: dict, **head) -> RunOutcome:
    """A scenario's outcome: its text lines joined, and a payload of its kind,
    the `probe` or `verdict` given in `head`, its exit code, then its record."""
    return RunOutcome(code, "\n".join(lines), {"kind": kind, **head, "exit": code, **record})


def _certificate_outcome(scenario_name: str, cert: Certificate) -> RunOutcome:
    relation = {"Equal": "=", "StrictInclusion": "strictly inside", "Fails": "not within"}[
        cert.verdict
    ]
    lines = [
        f"scenario: {scenario_name}",
        f"claim: {cert.claim_id}",
        f"verdict: {cert.verdict}",
        f"sets: {_poly_text(cert.lhs)} {relation} {_poly_text(cert.rhs)}",
    ]
    if cert.witness is not None:
        lines.append(f"witness: {_vector_text(cert.witness)}")
    code = 0 if cert.passed else 1
    return _outcome(code, lines + _theorem_lines(cert), "check", cert.to_json())


def _probe_outcome(scenario_name: str, kind: str, verdict, extra_lines=()) -> RunOutcome:
    code = {"Holds": 0, "FailsWithWitness": 1, "Inconclusive": 2}[verdict.status]
    lines = [f"scenario: {scenario_name}", f"probe: {kind}", f"status: {verdict.status}"]
    if verdict.witness is not None:
        lines.append(f"witness: {json.dumps(verdict.witness, sort_keys=True, default=str)}")
    lines.extend(extra_lines)
    if verdict.shells:
        lines.append("shells:")
        for s in verdict.shells:
            lines.append(f"  radius {s['radius']:.9g}  inf {s['inf']}")
    for note in verdict.notes:
        lines.append(f"note: {note}")
    return _outcome(code, lines, "probe", verdict.to_json(), probe=kind)


def _function_hypothesis_lines(fn, point) -> list[str]:
    if isinstance(fn, DCFunction):
        return _hypothesis_lines(dc_hypothesis_report(fn, point))
    if isinstance(fn, PAConvexFunction):
        model = hypothesis("piecewise-affine convex model", True, "exact-by-construction")
        return _hypothesis_lines([model])
    return ["hypotheses:", "  [unknown] black-box model, sampling only"]


def _run_subdiff(name: str, sc: dict, base: Path) -> RunOutcome:
    fn = function_from_json(_load_ref(sc["function"], base))
    point = _parse_point(sc["point"])
    eps = parse_rational(sc.get("eps", 0))
    norm = NormSpec.parse(sc.get("norm", "l1"))
    if isinstance(fn, DCFunction):
        eta = parse_rational(sc.get("eta", 0))
        poly = dc_dini_subdifferential(fn, point, eps, eta, norm)
    elif isinstance(fn, PAConvexFunction):
        poly = fn.eps_subdifferential_at(point, eps, norm)
    else:
        raise ParseError("subdiff needs an exact function model, not a black box")
    return _polyhedron_outcome("subdiff", poly)


def _run_stardiff(name: str, sc: dict, base: Path) -> RunOutcome:
    a = Polyhedron.from_json(_load_ref(sc["A"], base))
    b = Polyhedron.from_json(_load_ref(sc["B"], base))
    return _polyhedron_outcome("stardiff", star_difference(a, b))


def _polyhedron_outcome(kind: str, poly: Polyhedron) -> RunOutcome:
    obj = poly.to_json()
    return _outcome(0, [json.dumps(obj, indent=2, sort_keys=True)], kind, {"polyhedron": obj})


def _as_dc(obj) -> DCFunction:
    fn = function_from_json(obj)
    if not isinstance(fn, DCFunction):
        raise ParseError("this claim needs a DC function (type 'dc')")
    return fn


def _run_check(name: str, sc: dict, base: Path) -> RunOutcome:
    token = str(sc["claim"]).lower().replace("_", "").replace("-", "")
    claim = _CLAIM_TOKENS.get(token)
    if claim is None:
        raise ParseError(f"unknown claim {sc['claim']!r}")
    point = _parse_point(sc["point"])
    eps = parse_rational(sc.get("eps", 0))
    eta = parse_rational(sc.get("eta", 0))
    norm = NormSpec.parse(sc.get("norm", "l1"))
    if claim == "SumRule12":
        f_obj = function_from_json(_load_ref(sc["f"], base))
        g_obj = function_from_json(_load_ref(sc["g"], base))
        if not isinstance(f_obj, PAConvexFunction) or not isinstance(
            g_obj, PAConvexFunction
        ):
            raise ParseError("sumrule12 needs two PA convex functions")
        cert = check_sum_rule(f_obj, g_obj, point, eps, eta)
        return _certificate_outcome(name, cert)
    dc = _as_dc(_load_ref(sc["dc"], base))
    if claim in ("Equality22", "Equality26"):
        cert = check_difference_formula(dc, point, eps, eta, norm)
        if cert.claim_id != claim:
            raise ParseError(
                f"eps={eps} eta={eta} selects {cert.claim_id}, not {claim}"
            )
    elif claim == "Inclusion13":
        cert = check_inclusion_13(dc, point, eps, eta, norm)
    elif claim == "Intersection27":
        mus = _parse_point(sc.get("mus", ["0"]))
        cert = check_intersection_formula(dc, point, eps, mus, norm)
    elif claim == "Cor11":
        etas = _parse_point(sc.get("etas", ["0", "1/2", "1"]))
        cert = check_corollary11(dc, point, etas)
    elif claim in ("Cor12a", "Cor12b"):
        cert = check_corollary12(dc, point, eps, norm, variant=claim[-1])
    else:  # LocalMinNecessary
        cert = local_min_necessary(dc, point)
    return _certificate_outcome(name, cert)


def _run_certify(name: str, sc: dict, base: Path) -> RunOutcome:
    problem = ProblemInstance.from_json(_load_ref(sc["problem"], base))
    point = _parse_point(sc["point"])
    cert = certify_blunt_minimizer(problem, point)
    code = 0 if cert.verdict == "BluntMinimizerAllEps" else 1
    lines = [
        f"scenario: {name}",
        "claim: Theorem14",
        f"verdict: {cert.verdict}",
        f"qualification: {cert.qualification}",
        f"normal-cone routes agree: {cert.routes_agree}",
        f"inclusion of subdiff(h): {cert.inclusion28}",
        f"lagrange_validated: {cert.lagrange_validated}",
    ]
    if cert.descent is not None:
        d = cert.descent
        lines.append(
            f"descent witness: direction {_vector_text(d['direction'])}"
            + f", rate {format_rational(d['rate'])}"
            + f", step {format_rational(d['step'])}"
            + f", violation margin {format_rational(d['violation_margin'])}"
        )
    return _outcome(code, lines + _theorem_lines(cert), "certify", cert.to_json())


def _run_probe(name: str, sc: dict, base: Path) -> RunOutcome:
    from .dinioracle import (
        approx_regularity_probe,
        calmness_probe,
        dini_directional_estimate,
        eps_subgradient_membership_probe,
        gap_continuity_probe,
    )

    kind = sc.get("probe")
    if kind not in _PROBE_KINDS:
        raise ParseError(f"unknown probe {kind!r}; expected one of {_PROBE_KINDS}")
    plan = _plan_from(sc, base)
    point = _parse_point(sc["point"])
    if kind == "blunt":
        problem = ProblemInstance.from_json(_load_ref(sc["problem"], base))
        eps = sc["eps"]
        verdict = blunt_min_probe(problem, point, eps, plan)
        return _probe_outcome(name, kind, verdict)
    fn = function_from_json(_load_ref(sc["function"], base))
    if kind == "dini":
        h = _parse_point(sc["direction"])
        est = dini_directional_estimate(fn, point, h, plan)
        code = 0 if est.stable else (1 if est.diverged else 2)
        lines = [
            f"scenario: {name}",
            "probe: dini",
            f"estimate: {est.estimate}",
            f"stable: {est.stable}",
            f"diverged: {est.diverged}",
        ]
        if est.witness:
            lines.append(
                f"witness: {json.dumps(est.witness, sort_keys=True, default=str)}"
            )
        lines.extend(_function_hypothesis_lines(fn, point))
        state = "diverged" if est.diverged else ("stable" if est.stable else "unstable")
        return _outcome(code, lines, "probe", est.to_json(), probe="dini", verdict=state)
    extra = _function_hypothesis_lines(fn, point)
    if kind == "calmness":
        verdict = calmness_probe(fn, point, plan)
    elif kind == "membership":
        xstar = _parse_point(sc["xstar"])
        eps = sc.get("eps", 0)
        alpha = sc.get("alpha", "1")
        verdict = eps_subgradient_membership_probe(fn, point, xstar, eps, alpha, plan)
    elif kind == "regularity":
        eps = sc["eps"]
        mode = sc.get("mode", "convex")
        direction = sc.get("direction")
        verdict = approx_regularity_probe(
            fn,
            point,
            eps,
            mode,
            plan,
            direction=None if direction is None else _parse_point(direction),
        )
    else:  # gap
        eps = sc["eps"]
        verdict = gap_continuity_probe(fn, point, eps, plan)
    return _probe_outcome(name, kind, verdict, extra_lines=extra)


_DISPATCH = {
    "subdiff": _run_subdiff,
    "stardiff": _run_stardiff,
    "check": _run_check,
    "certify": _run_certify,
    "probe": _run_probe,
}


def run_scenario_dict(sc: dict, base: Path, flags: dict, name: str) -> RunOutcome:
    """Run one scenario; the flags that were set override its fields."""
    sc = {**sc, **flags}
    kind = sc.get("kind")
    if not isinstance(kind, str) or kind not in _DISPATCH:
        raise ParseError(f"unknown scenario kind {kind!r}")
    try:
        outcome = _DISPATCH[kind](name, sc, base)
    except KeyError as exc:
        raise ParseError(f"scenario is missing field {exc.args[0]!r}") from exc
    outcome.label = str(sc.get("claim") or sc.get("probe") or kind)
    return outcome


def run_scenario(path: Path, flags: dict) -> RunOutcome:
    sc = _read_json(path)
    if not isinstance(sc, dict):
        raise ParseError(f"{path} must contain a JSON object")
    name = sc.get("name", Path(path).stem)
    return run_scenario_dict(sc, Path(path).parent, flags, name)


def corpus_run(directory: Path, pattern: str, jobs: int, flags: dict) -> RunOutcome:
    """Run the scenario files matching `pattern` serially, in file-name order.

    `jobs` is accepted and ignored: callers still pass it, and a thread pool
    lost at every width (the work is pure Python under one interpreter lock)."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ParseError(f"{directory} is not a directory")
    files = sorted(directory.glob(pattern), key=lambda p: p.name)
    if not files:
        raise ParseError(f"no scenario files matching {pattern!r} in {directory}")
    # load the probe side here, outside the per-scenario times
    from . import dinioracle  # noqa: F401

    rows = []
    for path in files:
        start = time.perf_counter()
        try:
            out = run_scenario(path, flags)
        except (SubgradError, OSError, ValueError) as exc:
            out = RunOutcome(3, f"error: {exc}", {"exit": 3, "error": str(exc)})
        wall = time.perf_counter() - start
        verdict = out.payload.get("verdict") or out.payload.get("status") or (
            "ok" if out.exit_code == 0 else "error"
        )
        rows.append((path.name, out, verdict, wall))

    exits = {out.exit_code for _, out, _, _ in rows}
    code = next((c for c in (1, 3, 2) if c in exits), 0)
    width = max(len(fname) for fname, _, _, _ in rows)
    cwidth = max(len(out.label) for _, out, _, _ in rows)
    lines = [
        f"{fname:<{width}}  {out.label:<{cwidth}}  {verdict:<20}  {wall:8.3f}s"
        for fname, out, verdict, wall in rows
    ]
    lines.append(f"corpus exit: {code}")
    payload = {
        "kind": "corpus",
        "exit": code,
        "scenarios": [
            {
                "name": fname,
                "claim": out.label,
                "verdict": verdict,
                "exit": out.exit_code,
                "result": out.payload,
            }
            for fname, out, verdict, _ in rows
        ],
    }
    return RunOutcome(code, "\n".join(lines), payload)


def _common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=None, help="override plan seed")
    parser.add_argument("--json", default=None, help="write JSON report to this path")
    parser.add_argument("--norm", default=None, help="l1 | linf | l2approx:<k>")
    parser.add_argument("--eps", default=None, help="rational p/q")
    parser.add_argument("--eta", default=None, help="rational p/q")
    parser.add_argument("--point", default=None, help="comma-separated rationals")
    parser.add_argument("--max-dim", type=int, default=None, help="dimension cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subgrad",
        description="exact subdifferential calculus with sampling cross-checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("subdiff", help="eps-subdifferential of a function at a point")
    p.add_argument("--function", required=True)
    _common_flags(p)

    p = sub.add_parser("stardiff", help="star-difference of two polyhedra")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    _common_flags(p)

    p = sub.add_parser("check", help="verify a calculus claim on given data")
    p.add_argument("--claim", required=True)
    p.add_argument("--dc", default=None)
    p.add_argument("--f", default=None)
    p.add_argument("--g", default=None)
    p.add_argument("--mus", default=None)
    p.add_argument("--etas", default=None)
    _common_flags(p)

    p = sub.add_parser("certify", help="blunt-minimality certificate for a problem")
    p.add_argument("--problem", required=True)
    _common_flags(p)

    p = sub.add_parser("probe", help="sampling probe on a function or problem")
    p.add_argument("--probe", required=True, choices=_PROBE_KINDS)
    p.add_argument("--function", default=None)
    p.add_argument("--problem", default=None)
    p.add_argument("--direction", default=None)
    p.add_argument("--xstar", default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--mode", default=None)
    p.add_argument("--plan", default=None)
    _common_flags(p)

    p = sub.add_parser("run", help="run one scenario file")
    p.add_argument("scenario")
    _common_flags(p)

    p = sub.add_parser("corpus", help="run every scenario in a directory")
    p.add_argument("directory")
    p.add_argument("--filter", default="*.json")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: the corpus runs serially, which is faster")
    _common_flags(p)

    return parser


# Arguments that are not scenario fields; every other flag that is set
# overrides the scenario field of the same name.
_NOT_FIELDS = ("command", "json", "max_dim", "scenario", "directory", "filter", "jobs")


def _write_report(path: str, report: dict) -> bool:
    """Writes the --json report; says on stderr why it could not."""
    try:
        Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means "inconclusive" here
        return 3 if exc.code == 2 else exc.code
    env_cap = os.environ.get("SUBGRAD_MAX_FACETS")
    try:
        max_facets = int(env_cap) if env_cap else CAPS.max_facets
    except ValueError:
        print(f"SUBGRAD_MAX_FACETS={env_cap!r} is not an integer", file=sys.stderr)
        return 3
    flags = {
        k: v for k, v in vars(args).items() if v is not None and k not in _NOT_FIELDS
    }
    # CAPS is process-wide: put it back so that in-process callers keep theirs.
    saved = CAPS.max_dim, CAPS.max_facets
    CAPS.max_facets = max_facets
    if args.max_dim is not None:
        CAPS.max_dim = args.max_dim
    try:
        if args.command == "run":
            outcome = run_scenario(Path(args.scenario), flags)
        elif args.command == "corpus":
            outcome = corpus_run(Path(args.directory), args.filter, args.jobs, flags)
        else:
            sc = {"kind": args.command}
            outcome = run_scenario_dict(sc, Path.cwd(), flags, args.command)
    except SubgradError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if args.json:
            _write_report(args.json, {"exit": 3, "error": f"{type(exc).__name__}: {exc}"})
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        CAPS.max_dim, CAPS.max_facets = saved
    print(outcome.text)
    if args.json and not _write_report(args.json, outcome.payload):
        return 3
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
