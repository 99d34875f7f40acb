"""End-to-end command-line checks, through real subprocesses and in-process.

Exit code contract: 0 verified / holds, 1 claim or certificate fails,
2 inconclusive or numerically unstable, 3 malformed input or cap hit.
"""

import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from subgrad.dinioracle import DEFAULT_PLAN, SamplingPlan
from subgrad.errors import ParseError, SubgradError
from subgrad.funcmodel import BlackBoxFunction, DCFunction, PAConvexFunction, function_from_json
from subgrad.optimality import ConstraintSystem, ProblemInstance
from subgrad.polykernel import Polyhedron

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "scenarios" / "data"
CORPUS = ROOT / "scenarios" / "corpus"
EXTRA = ROOT / "scenarios" / "extra"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "subgrad.cli", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=300,
    )


def test_check_difference_formula_at_origin():
    r = run_cli(
        "check", "--claim", "equality22",
        "--dc", str(DATA / "abs_minus_x.json"), "--point", "0",
    )
    assert r.returncode == 0, r.stderr
    assert "verdict: Equal" in r.stdout
    assert "sets: [-2, 0] = [-2, 0]" in r.stdout


def test_check_two_parameter_formula():
    r = run_cli(
        "check", "--claim", "equality26",
        "--dc", str(DATA / "abs_minus_x.json"),
        "--point", "0", "--eps", "1/2", "--eta", "1/2",
    )
    assert r.returncode == 0, r.stderr
    assert "sets: [-5/2, 1/2] = [-5/2, 1/2]" in r.stdout


def test_check_claim_eps_consistency():
    # equality22 is the eps=0 statement; asking for it with eps=1/2 is an error
    r = run_cli(
        "check", "--claim", "equality22",
        "--dc", str(DATA / "abs_minus_x.json"), "--point", "0", "--eps", "1/2",
    )
    assert r.returncode == 3
    assert "selects" in r.stderr


def test_check_with_both_sides_empty(tmp_path, capsys):
    # g = |x|, h = 2|x|: subdiff g(0) = [-1, 1] erodes by [-2, 2] to nothing,
    # and equality (22) holds between two empty sets
    from subgrad import cli

    dc = tmp_path / "abs_minus_2abs.json"
    dc.write_text(json.dumps({
        "type": "dc",
        "g": {"type": "pa_convex", "pieces": [{"slope": ["1"], "intercept": "0"}, {"slope": ["-1"], "intercept": "0"}]},
        "h": {"type": "pa_convex", "pieces": [{"slope": ["2"], "intercept": "0"}, {"slope": ["-2"], "intercept": "0"}]},
    }))
    assert cli.main(["check", "--claim", "equality22", "--dc", str(dc), "--point", "0"]) == 0
    out = capsys.readouterr().out
    assert "verdict: Equal" in out and "sets: empty = empty" in out


def test_probe_on_a_dc_function_reports_its_hypotheses(capsys):
    from subgrad import cli

    code = cli.main(["probe", "--probe", "calmness", "--function", str(DATA / "abs_minus_x.json"), "--point", "0"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("hypotheses:") + 1
    assert lines[start:start + 7] == [
        "  [holds] g piecewise-affine convex (exact-by-construction)",
        "  [holds] h piecewise-affine convex (exact-by-construction)",
        "  [holds] f = g - h calm at the point (exact-by-convexity)",
        "  [holds] g and h directionally approximately starshaped at the point (exact-by-convexity)",
        "  [holds] eps-subdifferential map of h spongiously gap-continuous (exact-by-convexity)",
        "  [holds] point interior to dom g (exact)",
        "note: locally Lipschitz: piecewise-affine data, calmness exact",
    ]


def test_certify_positive_problem():
    r = run_cli("certify", "--problem", str(DATA / "cone_dc.json"), "--point", "0,0")
    assert r.returncode == 0, r.stderr
    assert "BluntMinimizerAllEps" in r.stdout


def test_certify_negative_problem():
    r = run_cli(
        "certify", "--problem", str(DATA / "cone_dc_negative.json"), "--point", "0,0"
    )
    assert r.returncode == 1
    assert "NotBluntMinimizer" in r.stdout
    assert "descent" in r.stdout


def test_stardiff_prints_polyhedron_json():
    r = run_cli("stardiff", "--A", str(DATA / "box.json"), "--B", str(DATA / "seg.json"))
    assert r.returncode == 0, r.stderr
    body = json.loads(r.stdout[r.stdout.index("{"):])
    assert body["dim"] == 2
    verts = {tuple(v) for v in body["vrep"]["vertices"]}
    assert verts == {("-1", "-3/4"), ("-1", "3/4"), ("1", "-3/4"), ("1", "3/4")}


def test_subdiff_of_dc_function():
    r = run_cli(
        "subdiff", "--function", str(DATA / "abs_minus_x.json"), "--point", "0"
    )
    assert r.returncode == 0, r.stderr
    body = json.loads(r.stdout[r.stdout.index("{"):])
    assert {tuple(v) for v in body["vrep"]["vertices"]} == {("-2",), ("0",)}


def write_dini_plan(tmp_path) -> Path:
    plan = json.loads((CORPUS / "probe_dini_abs.json").read_text())["plan"]
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return path


def test_probe_exit_codes(tmp_path):
    stable = run_cli(
        "probe", "--probe", "dini",
        "--function", str(DATA / "abs.json"),
        "--point", "1", "--direction", "-1",
        "--plan", str(write_dini_plan(tmp_path)),
    )
    assert stable.returncode == 0, stable.stdout + stable.stderr

    holds = run_cli("run", str(CORPUS / "probe_dini_abs.json"))
    assert holds.returncode == 0, holds.stderr
    unstable = run_cli("run", str(EXTRA / "probe_dini_shallow.json"))
    assert unstable.returncode == 2
    diverged = run_cli("run", str(EXTRA / "probe_calmness_sqrtabs.json"))
    assert diverged.returncode == 1
    assert "NotCalm" in diverged.stdout


def test_flags_and_scenario_file_agree(tmp_path):
    # each subcommand flag is the scenario field of the same name, so a
    # direct call and `run` on the equivalent file write the same report
    plan = write_dini_plan(tmp_path)
    inline_plan = json.loads(plan.read_text())
    dini = {
        "kind": "probe", "probe": "dini", "function": str(DATA / "abs.json"),
        "point": "1", "direction": "-1",
    }
    cases = {
        "subdiff": {
            "kind": "subdiff", "function": str(DATA / "abs_minus_x.json"),
            "point": "0", "eps": "1/2", "eta": "1/2",
        },
        "stardiff": {"kind": "stardiff", "A": str(DATA / "box.json"), "B": str(DATA / "seg.json")},
        "check_mus": {
            "kind": "check", "claim": "intersection27", "dc": str(DATA / "abs_minus_x.json"),
            "point": "0", "eps": "1/2", "mus": ["0", "1/2", "1"],
        },
        "check_etas": {
            "kind": "check", "claim": "cor11", "dc": str(DATA / "abs_minus_abs.json"),
            "point": "0", "etas": ["0", "1/2"],
        },
        "certify": {"kind": "certify", "problem": str(DATA / "cone_dc.json"), "point": "0,0"},
        "probe_plan": {**dini, "plan": inline_plan},
        "probe_seed": {**dini, "plan": inline_plan, "seed": 3},
    }
    for name, sc in cases.items():
        args = [sc["kind"]]
        for key, value in sc.items():
            if key == "plan":
                value = str(plan)
            elif isinstance(value, list):
                value = ",".join(value)
            if key != "kind":
                args += [f"--{key}", str(value)]
        by_flags, by_file = tmp_path / f"{name}_flags.json", tmp_path / f"{name}_file.json"
        a = run_cli(*args, "--json", str(by_flags))
        scenario = tmp_path / f"{name}.json"
        scenario.write_text(json.dumps(sc))
        b = run_cli("run", str(scenario), "--json", str(by_file))
        assert a.returncode == b.returncode == 0, (name, a.stderr, b.stderr)
        assert by_flags.read_bytes() == by_file.read_bytes(), name


def test_run_malformed_scenario(tmp_path, capsys):
    from subgrad import cli

    # one real process covers the entry point; the shapes run in-process,
    # where any exception that escapes main() fails the test
    r = run_cli("run", str(EXTRA / "bad_kind.json"))
    assert r.returncode == 3
    assert r.stderr.strip() != ""
    # wrong JSON shapes inside otherwise valid scenarios: bad input, not a crash
    point = {"dim": 1, "vrep": {"vertices": [["0"]]}}
    pa = {"type": "pa_convex", "pieces": [{"slope": ["1"], "intercept": "0"}]}
    dc = {"type": "dc", "g": pa, "h": pa}
    abs_expr = ["abs", ["coord", 0]]

    def dini_with_plan(plan):
        return {
            "kind": "probe", "probe": "dini", "point": "0", "direction": "1",
            "function": pa, "plan": plan,
        }

    def certify_with_k(k, **problem):
        c_set = {"dim": 1, "vrep": {"vertices": [["-1"], ["1"]]}}
        return {"kind": "certify", "point": "0", "problem": {"objective": dc, "C": c_set, "k": k, **problem}}

    def calmness_of(function):
        return {"kind": "probe", "probe": "calmness", "point": "0", "function": function}

    def blunt_with_h_intercept(value):
        sc = _inlined(CORPUS / "probe_blunt_positive.json")
        sc["problem"]["objective"]["h"]["pieces"][0]["intercept"] = value
        return sc

    shapes = {
        "hrep_not_list": {"kind": "stardiff", "A": {"dim": 1, "hrep": 5}, "B": point},
        "hrep_item_not_object": {"kind": "stardiff", "A": {"dim": 1, "hrep": [5]}, "B": point},
        "vrep_not_object": {"kind": "stardiff", "A": {"dim": 1, "vrep": 5}, "B": point},
        "pieces_not_list": {
            "kind": "subdiff", "point": "0",
            "function": {"type": "pa_convex", "pieces": "x"},
        },
        "slope_not_vector": {
            "kind": "subdiff", "point": "0",
            "function": {"type": "pa_convex", "pieces": [{"slope": 5, "intercept": "0"}]},
        },
        "slope_string": {
            "kind": "subdiff", "point": "0",
            "function": {"type": "pa_convex", "pieces": [{"slope": "12", "intercept": "0"}]},
        },
        "vertices_not_list": {"kind": "stardiff", "A": {"dim": 1, "vrep": {"vertices": 5}}, "B": point},
        "vertex_not_vector": {"kind": "stardiff", "A": {"dim": 1, "vrep": {"vertices": [5]}}, "B": point},
        "normal_not_vector": {
            "kind": "stardiff", "A": {"dim": 1, "hrep": [{"normal": 5, "offset": "1"}]}, "B": point,
        },
        "dc_parts_not_objects": {
            "kind": "check", "claim": "equality22", "point": "0",
            "dc": {"type": "dc", "g": 5, "h": 5},
        },
        "plan_not_object": {
            "kind": "probe", "probe": "dini", "point": "0", "direction": "1", "plan": 5,
            "function": {"type": "pa_convex", "pieces": [{"slope": ["1"], "intercept": "0"}]},
        },
        "plan_radii_not_list": dini_with_plan({"shell_radii": 5}),
        "plan_samples_not_int": dini_with_plan({"samples_per_shell": "x"}),
        "plan_seed_not_int": dini_with_plan({"seed": "x"}),
        "k_not_object": certify_with_k(5),
        "k_matrix_not_list": certify_with_k({"M": 5, "c": ["0"]}),
        "blackbox_dim_string": calmness_of({"type": "blackbox", "dim": "1", "expr": abs_expr}),
        "blackbox_box_not_pairs": calmness_of(
            {"type": "blackbox", "dim": 1, "expr": abs_expr, "box": 5}
        ),
        "etas_not_list": {"kind": "check", "claim": "cor11", "point": "0", "dc": dc, "etas": 5},
        "kind_not_string": {"kind": [1]},
        "blackbox_const_object": calmness_of(
            {"type": "blackbox", "dim": 1, "expr": ["add", abs_expr, ["const", {}]]}
        ),
        "norm_not_string": {
            "kind": "check", "claim": "equality26", "point": "0", "dc": dc,
            "eps": "1/2", "eta": "1/2", "norm": 5,
        },
        "point_overflows_float": {
            **json.loads((EXTRA / "probe_regularity_staircase_convex.json").read_text()),
            "function": json.loads((DATA / "staircase.json").read_text()),
            "point": [10**400],
        },
        "plan_radius_overflows_float": dini_with_plan({"shell_radii": [10**400]}),
        "plan_radius_nan": dini_with_plan({"shell_radii": [math.nan]}),
        "plan_radius_infinity": dini_with_plan({"shell_radii": [math.inf, 1]}),
        "plan_tol_infinity": dini_with_plan({"stabilization_tol": math.inf}),
        "plan_tol_nan": dini_with_plan({"stabilization_tol": math.nan}),
        "plan_threshold_nan": dini_with_plan({"divergence_threshold": math.nan}),
        "plan_threshold_minus_infinity": dini_with_plan({"divergence_threshold": -math.inf}),
        # far past any count that could be allocated: MemoryError, ValueError
        "plan_samples_10e13": dini_with_plan({"samples_per_shell": 10**13}),
        "plan_samples_10e20": dini_with_plan({"samples_per_shell": 10**20}),
        # misspelled fields, which would otherwise run the defaults
        "plan_sample_per_shell": dini_with_plan({"sample_per_shell": 8}),
        "plan_shell_radius": dini_with_plan({"shell_radius": [0.5]}),
        # exact gaps of 2 * 10**400 between sampled subdifferentials
        "gap_overflows_float": {
            "kind": "probe", "probe": "gap", "point": "1", "eps": "1/2",
            "function": {"type": "pa_convex", "pieces": [
                {"slope": ["1e400"], "intercept": "0"}, {"slope": ["-1e400"], "intercept": "0"},
            ]},
            "plan": {"shell_radii": [4]},
        },
        # found by test_fuzzed_scenarios_keep_the_exit_contract
        "slope_overflows_float": {
            "kind": "probe", "probe": "dini", "point": "1", "direction": "-1",
            "function": {"type": "pa_convex", "pieces": [{"slope": [-(10**400)], "intercept": "0"}]},
        },
        "blunt_intercept_overflows_float": blunt_with_h_intercept(-(10**400)),
        "coord_index_bool": calmness_of({"type": "blackbox", "dim": 1, "expr": ["coord", False]}),
        "blackbox_dim_over_cap": calmness_of({"type": "blackbox", "dim": 2**63, "expr": abs_expr}),
        "polyhedron_dim_bool": {"kind": "stardiff", "A": {"dim": True, "vrep": {"vertices": [["0"]]}}, "B": point},
        # JSON NaN and Infinity, which Python's json reads and writes
        "blackbox_const_nan_membership": {
            **json.loads((CORPUS / "probe_membership_abs.json").read_text()),
            "function": {"type": "blackbox", "dim": 1, "expr": ["add", abs_expr, ["const", math.nan]]},
        },
        "blackbox_const_infinity_regularity": {
            **json.loads((CORPUS / "probe_regularity_abssq.json").read_text()),
            "function": {"type": "blackbox", "dim": 1, "expr": ["add", abs_expr, ["const", math.inf]]},
        },
        "blackbox_const_nan_calmness": calmness_of(
            {"type": "blackbox", "dim": 1, "expr": ["add", abs_expr, ["const", math.nan]]}
        ),
        "blackbox_box_nan_regularity": {
            **json.loads((CORPUS / "probe_regularity_abssq.json").read_text()),
            "function": {"type": "blackbox", "dim": 1, "expr": abs_expr, "box": [[-1, math.nan]]},
        },
        # well-formed functions of the wrong kind for the scenario
        "check_dc_is_pa": {"kind": "check", "claim": "equality22", "point": "0", "dc": pa},
        "sumrule12_blackbox_f": {
            "kind": "check", "claim": "sumrule12", "point": "0",
            "f": {"type": "blackbox", "dim": 1, "expr": abs_expr}, "g": pa,
        },
        "equality22_selects_equality26": {
            "kind": "check", "claim": "equality22", "point": "0", "dc": dc, "eps": "1/2",
        },
        "subdiff_blackbox": {
            "kind": "subdiff", "point": "0", "function": {"type": "blackbox", "dim": 1, "expr": abs_expr},
        },
        # a point string splits on every comma, and an empty part is no rational
        "point_string_empty_part": {**_inlined(CORPUS / "certify_positive.json"), "point": "0,,0"},
        "point_string_trailing_comma": {**_inlined(CORPUS / "subdiff_abs.json"), "point": "0,"},
        "normal_wrong_length": {
            "kind": "stardiff", "A": {"dim": 1, "hrep": [{"normal": ["1", "0"], "offset": "1"}]}, "B": point,
        },
        "k_matrix_empty": certify_with_k({"M": [], "c": []}),
        "k_rows_mixed_widths": certify_with_k({"M": [["1"], ["1", "0"]], "c": ["0", "0"]}),
        "k_row_wrong_width": certify_with_k({"M": [["1", "0"]], "c": ["0"]}),
        "cone_wrong_dim": certify_with_k(
            {"M": [["1"]], "c": ["-1"]}, K={"dim": 2, "vrep": {"vertices": [["0", "0"]], "rays": [["1", "0"]]}}
        ),
        "objective_and_constraints_dims_differ": certify_with_k(
            {"M": [["1"]], "c": ["-1"]}, objective=json.loads((DATA / "cone_dc.json").read_text())["objective"]
        ),
        "mus_negative": {**_inlined(CORPUS / "check_intersection27.json"), "mus": ["-1"]},
        "etas_negative": {**_inlined(CORPUS / "check_cor11.json"), "etas": ["0", "-1"]},
        "regularity_eps_zero": {**_inlined(CORPUS / "probe_regularity_abssq.json"), "eps": "0"},
        "gap_eps_zero": {**_inlined(CORPUS / "probe_gap_abs.json"), "eps": "0"},
        "blunt_eps_zero": {**_inlined(CORPUS / "probe_blunt_positive.json"), "eps": "0"},
        "plan_radii_empty": dini_with_plan({"shell_radii": []}),
        "plan_tol_zero": dini_with_plan({"stabilization_tol": 0}),
        "norm_facets_not_int": {**_inlined(CORPUS / "check_cor12a.json"), "norm": "l2approx:x"},
        "point_blank": {**_inlined(CORPUS / "subdiff_abs.json"), "point": " "},
        "point_missing": {k: v for k, v in _inlined(CORPUS / "subdiff_abs.json").items() if k != "point"},
    }
    # the full error line, where a shape's message is checked too
    messages = {
        "k_row_wrong_width": "error: ParseError: expected a vector of length 1, got 2\n",
        "point_blank": "error: ParseError: empty point\n",
        "point_missing": "error: ParseError: scenario is missing field 'point'\n",
    }
    for name, sc in shapes.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(sc))
        code = cli.main(["run", str(path)])
        err = capsys.readouterr().err
        # the one bad-input path prints the error's type
        assert code == 3 and err.startswith("error: "), (name, err)
        assert name not in messages or err == messages[name], (name, err)
    assert cli.main(["corpus", str(path)]) == 3
    assert capsys.readouterr().err == f"error: ParseError: {path} is not a directory\n"


def test_gap_probe_skips_samples_past_float_range(tmp_path, capsys):
    from subgrad import cli

    # every sample of the shell around 1e308 leaves float range in one
    # direction or the other
    sc = {
        **_inlined(CORPUS / "probe_gap_abs.json"),
        "point": "1e308",
        "plan": {"shell_radii": [1e308]},
    }
    path = tmp_path / "gap_1e308.json"
    path.write_text(json.dumps(sc))
    assert cli.main(["run", str(path)]) in (0, 1, 2), capsys.readouterr()


@pytest.mark.parametrize(
    "probe,code",
    [("dini", 2), ("membership", 0), ("regularity-convex", 0), ("regularity-starshaped", 0),
     ("regularity-directional", 2)],
)
def test_probes_past_float_range_do_not_warn(tmp_path, capsys, probe, code):
    from subgrad import cli

    kind, _, mode = probe.partition("-")
    if mode:
        # |x| from the Dini scenario, whose direction the directional mode reads
        sc = {**_inlined(CORPUS / "probe_dini_abs.json"), "probe": kind, "eps": "1/10", "mode": mode}
    else:
        sc = _inlined(CORPUS / f"probe_{probe}_abs.json")
    sc.update({"point": "1e308", "plan": {"shell_radii": [1e308]}})
    path = tmp_path / f"{probe}_1e308.json"
    path.write_text(json.dumps(sc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", str(path)]) == code, capsys.readouterr()


def test_blackbox_dini_past_float_range_is_a_probe_verdict(tmp_path, capsys):
    from subgrad import cli

    # x0 - x0 is inf - inf at every overflowed sample; those are dropped
    sc = {
        "kind": "probe",
        "probe": "dini",
        "function": {"type": "blackbox", "dim": 1, "expr": ["sub", ["coord", 0], ["coord", 0]]},
        "point": "1e308",
        "direction": "1",
        "plan": {"shell_radii": [1e308]},
    }
    path = tmp_path / "blackbox_dini_1e308.json"
    path.write_text(json.dumps(sc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", str(path)]) in (0, 1, 2), capsys.readouterr()


UNIT_INTERVAL = {"dim": 1, "hrep": [{"normal": ["1"], "offset": "1"}, {"normal": ["-1"], "offset": "1"}]}
ABS_ON_UNIT = {**json.loads((DATA / "abs.json").read_text()), "domain": UNIT_INTERVAL}
# |x| on [-1, 1] less 0, over C = [-3, 3] with the k-map 0: x = 2 is feasible
BLUNT_OFF_DOMAIN = {
    "objective": {"type": "dc", "g": ABS_ON_UNIT, "h": {"type": "pa_convex", "pieces": [{"slope": ["0"], "intercept": "0"}]}},
    "C": {"dim": 1, "hrep": [{"normal": ["1"], "offset": "3"}, {"normal": ["-1"], "offset": "3"}]},
    "k": {"M": [["0"]], "c": ["0"]},
}
PROBE_FIELDS = {
    "dini": {"direction": "1"},
    "calmness": {},
    "membership": {"xstar": "0"},
    "regularity": {"eps": "1/10"},
    "gap": {"eps": "1/10"},
    "blunt": {"eps": "1/10", "problem": BLUNT_OFF_DOMAIN},
}


def _bad_base_point(tmp_path, capsys, sc) -> str:
    """Runs a probe scenario at x = 2 unless it names its point, with
    RuntimeWarnings as errors, and returns the error line of its exit 3."""
    from subgrad import cli

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"kind": "probe", "point": "2", **sc}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["run", str(path)])
    err = capsys.readouterr().err
    assert code == 3, err
    return err


@pytest.mark.parametrize("probe", list(PROBE_FIELDS))
def test_probe_base_point_outside_the_domain_exits_3(tmp_path, capsys, probe):
    # a base point outside dom f is bad input for every probe: calmness
    # answered Holds here, membership, regularity and blunt Inconclusive
    sc = {"probe": probe, **PROBE_FIELDS[probe]}
    if probe != "blunt":
        sc["function"] = ABS_ON_UNIT
    err = _bad_base_point(tmp_path, capsys, sc)
    assert err.startswith("error: PointOutsideDomain: "), err


# |x| on 3x <= 1, alone and less x/2: the float of the point lies in the
# domain, the point itself does not
ABS_ON_A_THIRD = {**ABS_ON_UNIT, "domain": {"dim": 1, "hrep": [{"normal": ["3"], "offset": "1"}]}}
ROUNDS_INTO_DOMAIN = {
    "pa": ABS_ON_A_THIRD,
    "dc": {"type": "dc", "g": ABS_ON_A_THIRD, "h": {"type": "pa_convex", "pieces": [{"slope": ["1/2"], "intercept": "0"}]}},
}


@pytest.mark.parametrize("model", list(ROUNDS_INTO_DOMAIN))
@pytest.mark.parametrize("probe", list(PROBE_FIELDS))
def test_a_point_whose_float_rounds_into_the_domain_is_outside_it(tmp_path, capsys, probe, model):
    # every probe decides x in dom f exactly on PA and DC data; a float test
    # let this point through, to Holds under regularity, an unstable Dini
    # estimate and a membership violation read against f(x) = +inf
    from subgrad import dinioracle as D
    from subgrad.errors import PointOutsideDomain
    from subgrad.optimality import blunt_min_probe

    fn = ROUNDS_INTO_DOMAIN[model]
    x = ("33333333333333333334/100000000000000000000",)
    # x* = -1 makes membership find samples below the subgradient inequality
    sc = {"probe": probe, **PROBE_FIELDS[probe], "point": x[0], **({"xstar": "-1"} if probe == "membership" else {})}
    if probe == "blunt":
        sc["problem"] = {**BLUNT_OFF_DOMAIN, "objective": fn if model == "dc" else {**BLUNT_OFF_DOMAIN["objective"], "g": fn}}
        call = partial(blunt_min_probe, ProblemInstance.from_json(sc["problem"]), x, sc["eps"])
    else:
        sc["function"] = fn
        f = function_from_json(fn)
        call = {
            "dini": partial(D.dini_directional_estimate, f, x, [sc.get("direction")]),
            "calmness": partial(D.calmness_probe, f, x),
            "membership": partial(D.eps_subgradient_membership_probe, f, x, [sc.get("xstar")], 0, 1),
            "regularity": partial(D.approx_regularity_probe, f, x, sc.get("eps"), "convex"),
            "gap": partial(D.gap_continuity_probe, f, x, sc.get("eps")),
        }[probe]
    with pytest.raises(PointOutsideDomain, match="is outside the effective domain"):
        call()
    err = _bad_base_point(tmp_path, capsys, sc)
    assert err.startswith("error: PointOutsideDomain: "), err


@pytest.mark.parametrize("probe", ["dini", "calmness", "membership", "regularity"])
def test_probe_base_point_outside_a_black_box_exits_3(tmp_path, capsys, probe):
    box = {"type": "blackbox", "dim": 1, "expr": ["abs", ["coord", 0]], "box": [[-1, 1]]}
    err = _bad_base_point(tmp_path, capsys, {"probe": probe, "function": box, **PROBE_FIELDS[probe]})
    assert err == "error: EvaluationFailure: f is not finite at the base point\n"


def test_exact_answer_too_long_to_print_is_a_cap(tmp_path):
    # A = [-1, 1/d] less B = [0, 1/e] is [-1, 1/d - 1/e], whose denominator
    # d*e passes the interpreter's 4,300-digit limit on printing an int
    d, e = "7" + "3" * 2199, "1" + "9" * 2199 + "1"
    sc = {
        "kind": "stardiff",
        "A": {"dim": 1, "vrep": {"vertices": [["-1"], [f"1/{d}"]]}},
        "B": {"dim": 1, "vrep": {"vertices": [["0"], [f"1/{e}"]]}},
    }
    scen = tmp_path / "scen"
    scen.mkdir()
    path = scen / "stardiff_long.json"
    path.write_text(json.dumps(sc))
    (tmp_path / "A.json").write_text(json.dumps(sc["A"]))
    (tmp_path / "B.json").write_text(json.dumps(sc["B"]))
    report = tmp_path / "r.json"
    for argv in (
        ["run", str(path)],
        ["stardiff", "--A", str(tmp_path / "A.json"), "--B", str(tmp_path / "B.json"), "--json", str(report)],
        ["corpus", str(scen)],
    ):
        r = run_cli(*argv)
        assert r.returncode == 3, r.stdout + r.stderr
        assert "Traceback" not in r.stderr
    assert json.loads(report.read_text())["error"].startswith("CapExceeded: ")


def test_usage_errors_exit_3(capsys):
    from subgrad import cli

    # argparse's own status for these, 2, would read "inconclusive"
    assert run_cli("check", "--point", "0").returncode == 3
    for argv in (["probe", "--probe", "nosuch"], ["corpus", str(CORPUS), "--jobs", "x"]):
        assert cli.main(argv) == 3, argv
    assert cli.main(["--help"]) == 0
    assert "usage: subgrad" in capsys.readouterr().out


# Each command with arguments that run it to exit 0, and the scenario-field
# flags it does not read
UNREAD_FLAGS = {
    "stardiff": (["--A", str(DATA / "box.json"), "--B", str(DATA / "seg.json")],
                 ["seed", "norm", "eps", "eta", "point"]),
    "certify": (["--problem", str(DATA / "cone_dc.json"), "--point", "0,0"], ["seed", "norm", "eps", "eta"]),
    "subdiff": (["--function", str(DATA / "abs.json"), "--point", "0"], ["seed"]),
    "check": (["--claim", "equality22", "--dc", str(DATA / "abs_minus_x.json"), "--point", "0"], ["seed"]),
    "probe": (["--probe", "calmness", "--function", str(DATA / "abs.json"), "--point", "0"], ["norm", "eta"]),
}
FLAG_VALUES = {"seed": "5", "norm": "l1", "eps": "1/2", "eta": "1/2", "point": "0"}


@pytest.mark.parametrize("command, flag", [(c, f) for c, (_, flags) in UNREAD_FLAGS.items() for f in flags])
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, command, flag):
    # a command used to ignore these, so `stardiff --eps abc` exited 0
    from subgrad import cli

    argv = [command, *UNREAD_FLAGS[command][0]]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main([*argv, f"--{flag}", FLAG_VALUES[flag]]) == 3
    assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err


@pytest.mark.parametrize("eta, error", [("abc", "ParseError: bad rational literal 'abc'"),
                                        ("-1", "NegativeEps: eta must be nonnegative, got -1")])
@pytest.mark.parametrize("data", ["abs.json", "abs_minus_x.json"])
def test_subdiff_reads_eta_for_every_model(capsys, data, eta, error):
    from subgrad import cli

    assert cli.main(["subdiff", "--function", str(DATA / data), "--point", "0", "--eta", eta]) == 3
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("radius", ["eps", "eta"])
@pytest.mark.parametrize("scenario", sorted(p.name for p in CORPUS.glob("check_*.json")))
def test_check_rejects_a_negative_radius_for_every_claim(tmp_path, capsys, scenario, radius):
    # cor11, cor12a/b, intersection27 and localmin used to accept some of these
    from subgrad import cli

    path = tmp_path / scenario
    path.write_text(json.dumps({**_inlined(CORPUS / scenario), radius: "-1"}))
    assert cli.main(["run", str(path)]) == 3
    assert capsys.readouterr().err == f"error: NegativeEps: {radius} must be nonnegative, got -1\n"


STARDIFF = CORPUS / "stardiff_box_seg.json"
CALMNESS = ["probe", "--probe", "calmness", "--function", str(DATA / "abs.json"), "--point", "0"]


@pytest.mark.parametrize("argv, flags, error", [
    (["run", str(STARDIFF)], ["--eps", "abc", "--norm", "bogus"], "ParseError: bad rational literal 'abc'"),
    (["run", str(STARDIFF)], ["--norm", "bogus"], "ParseError: bad norm spec 'bogus'"),
    (["run", str(STARDIFF)], ["--eta", "-1"], "NegativeEps: eta must be nonnegative, got -1"),
    (["run", str(STARDIFF)], ["--point", "1/0"], "ParseError: bad rational literal '1/0'"),
    (["corpus", str(CORPUS), "--filter", STARDIFF.name], ["--point", ""], "ParseError: empty point"),
    (CALMNESS, ["--eps", "abc"], "ParseError: bad rational literal 'abc'"),
    (CALMNESS, ["--eps", "-1"], "NegativeEps: eps must be nonnegative, got -1"),
], ids=["run-eps-norm", "run-norm", "run-eta", "run-point", "corpus-point", "probe-eps", "probe-negative-eps"])
def test_a_malformed_flag_is_an_error_where_no_scenario_reads_it(capsys, argv, flags, error):
    # the flag used to be parsed only by the scenarios that read its field
    from subgrad import cli

    assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main([*argv, *flags]) == 3
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
@pytest.mark.parametrize("scenario", [CORPUS / "subdiff_abs.json", CORPUS / "no_such_scenario.json"],
                         ids=["good_scenario", "missing_scenario"])
def test_unwritable_json_report_exits_3(tmp_path, capsys, target, scenario):
    from subgrad import cli

    # exit 1 would read "fails with witness"
    out = tmp_path / "missing" / "out.json" if target == "missing_dir" else tmp_path
    assert cli.main(["run", str(scenario), "--json", str(out)]) == 3
    assert f"error: cannot write {out}: " in capsys.readouterr().err


def _inlined(path: Path):
    """A shipped scenario with each referenced data file read in place."""
    sc = json.loads(path.read_text())
    for key, value in sc.items():
        if isinstance(value, str) and value.endswith(".json"):
            sc[key] = json.loads((path.parent / value).read_text())
    return sc


def _paths(node, prefix=()):
    """Every subtree of a JSON value, as the key path that reaches it."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


SHIPPED = [
    (sc, list(_paths(sc)))
    for sc in (_inlined(p) for d in (CORPUS, EXTRA) for p in sorted(d.glob("*.json")))
]

# Integers stay small or far beyond any size that could be allocated, so that
# a count that lacks its bound fails at once: samples_per_shell = 10**8 would
# have a probe ask for gigabytes before anything failed.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-1000, max_value=1000),
    st.sampled_from([10**400, -(10**400), 2**63, 10**20, 0.0, -0.5, 1e-300]),
    st.floats(),
    st.integers(min_value=-1000, max_value=1000).map(str),
    st.sampled_from(["1/0", "0", "-1", "1/3", "-7/2", "1" + "0" * 400, "1e400", "1e100000000", "x", "", "l1", "l2approx:8",
                     "1e4300", "-1e-4300", "1e4300,0"]),
    st.text(max_size=4),
)
json_values = st.one_of(
    json_scalars,
    st.lists(json_scalars, max_size=4),
    st.recursive(
        json_scalars,
        lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
        max_leaves=10,
    ),
    # deep nests, short of the interpreter's recursion limit
    st.integers(min_value=20, max_value=200).map(lambda n: json.loads("[" * n + "]" * n)),
)


PROBES = [sc for sc, _ in SHIPPED if sc["kind"] == "probe"]
PLAN_FIELDS = [f.name for f in dataclasses.fields(SamplingPlan)]


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _mutated(draw, obj, paths):
    """`obj` with one subtree (possibly all of it) replaced by random JSON,
    or with one key of one of its objects deleted; and the deleted key."""
    keyed = [path for path in paths if path and isinstance(_at(obj, path[:-1]), dict)]
    if keyed and draw(st.booleans()):
        path = draw(st.sampled_from(keyed))
        obj = copy.deepcopy(obj)
        del _at(obj, path[:-1])[path[-1]]
        return obj, path[-1]
    path = draw(st.sampled_from(paths))
    new = draw(json_values)
    if not path:
        return new, None
    obj = copy.deepcopy(obj)
    _at(obj, path[:-1])[path[-1]] = new
    return obj, None


@st.composite
def mutated_scenarios(draw):
    """A shipped scenario, data files inlined, with one subtree (possibly
    the whole scenario) replaced by random JSON, with one key deleted or, in
    a probe scenario, with one sampling-plan field set to a random scalar."""
    if draw(st.integers(0, 2)) == 0:
        sc = copy.deepcopy(draw(st.sampled_from(PROBES)))
        sc.setdefault("plan", {})[draw(st.sampled_from(PLAN_FIELDS))] = draw(json_scalars)
        return sc
    return _mutated(draw, *draw(st.sampled_from(SHIPPED)))[0]


@given(mutated_scenarios())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_fuzzed_scenarios_keep_the_exit_contract(sc):
    from subgrad import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(sc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", str(path)])
    assert code in (0, 1, 2, 3)


def _plan_fields(obj):
    """The plan constructor's own checks on an object's fields, where they
    are keyword arguments it takes; ``SamplingPlan.from_json`` elsewhere."""
    if isinstance(obj, dict) and set(obj) <= set(PLAN_FIELDS):
        return SamplingPlan(**obj)
    return SamplingPlan.from_json(obj)


_CLASSES = {"pa_convex": PAConvexFunction, "dc": DCFunction, "blackbox": BlackBoxFunction}


def _parsers(obj):
    """The parsers that read an input object of this shape."""
    if "objective" in obj:
        return [ProblemInstance.from_json, ConstraintSystem.from_json]
    if "type" in obj:
        return [function_from_json, _CLASSES[obj["type"]].from_json]
    if "dim" in obj:
        return [Polyhedron.from_json]
    return [SamplingPlan.from_json, _plan_fields]


# each input shape of scenarios/data, a black box with a box, and a full plan
SHAPES = [json.loads(p.read_text()) for p in sorted(DATA.glob("*.json"))]
SHAPES += [{**json.loads((DATA / "abs_sq.json").read_text()), "box": [[-1, 1]]}, DEFAULT_PLAN.to_json()]
PARSER_INPUTS = [(parser, obj, list(_paths(obj))) for obj in SHAPES for parser in _parsers(obj)]


@st.composite
def mutated_inputs(draw):
    """A parser and one of its input shapes, mutated or wrapped in a list,
    and the key the mutation deleted, if any."""
    parser, obj, paths = draw(st.sampled_from(PARSER_INPUTS))
    if draw(st.integers(0, 4)) == 0:
        return parser, [obj], None
    return (parser, *_mutated(draw, obj, paths))


@given(mutated_inputs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_parsers_raise_only_subgrad_errors(case):
    parser, obj, deleted = case
    try:
        parser(obj)
    except SubgradError as exc:
        if deleted is not None and "missing field" in str(exc):
            assert str(exc).endswith(f"is missing field {deleted!r}"), (deleted, str(exc))


CONE_DC = json.loads((DATA / "cone_dc.json").read_text())
ABS_PA = json.loads((DATA / "abs.json").read_text())
ABS_EXPR = ["abs", ["coord", 0]]

# Inputs on which each parser raised KeyError, TypeError or ValueError, with
# the field the message names (None: the input is not of the right kind)
PARSER_LEAKS = {
    "halfspace_without_offset": (Polyhedron.from_json, {"dim": 1, "hrep": [{"normal": ["1"]}]}, "offset"),
    "pa_without_pieces": (PAConvexFunction.from_json, {"type": "pa_convex"}, "pieces"),
    "piece_without_slope": (PAConvexFunction.from_json, {"type": "pa_convex", "pieces": [{"intercept": "0"}]}, "slope"),
    "dc_without_h": (DCFunction.from_json, {"type": "dc", "g": ABS_PA}, "h"),
    "blackbox_without_expr": (BlackBoxFunction.from_json, {"type": "blackbox", "dim": 1}, "expr"),
    "blackbox_without_dim": (BlackBoxFunction.from_json, {"type": "blackbox", "expr": ABS_EXPR}, "dim"),
    "problem_without_k": (ProblemInstance.from_json, {k: v for k, v in CONE_DC.items() if k != "k"}, "k"),
    "k_without_c": (ProblemInstance.from_json, {**CONE_DC, "k": {"M": CONE_DC["k"]["M"]}}, "c"),
    "problem_without_objective": (
        ProblemInstance.from_json, {k: v for k, v in CONE_DC.items() if k != "objective"}, "objective"),
    "constraints_not_an_object": (ConstraintSystem.from_json, [1], None),
    "radius_not_a_number": (lambda radii: SamplingPlan(shell_radii=radii), ("x",), None),
    "radius_null": (lambda radii: SamplingPlan(shell_radii=radii), (None,), None),
    "box_bound_not_a_number": (lambda box: BlackBoxFunction(ABS_EXPR, 1, box), [("x", 1)], None),
    "box_bound_null": (lambda box: BlackBoxFunction(ABS_EXPR, 1, box), [(None, 1)], None),
}


@pytest.mark.parametrize("case", list(PARSER_LEAKS))
def test_each_parser_leak_is_a_parse_error(case):
    parser, obj, field = PARSER_LEAKS[case]
    with pytest.raises(ParseError) as info:
        parser(obj)
    if field is not None:
        assert str(info.value).endswith(f"is missing field {field!r}")


ABS_MINUS_X = ["check", "--dc", str(DATA / "abs_minus_x.json"), "--point", "0"]


@pytest.mark.parametrize(
    "argv, error",
    [
        (["certify", "--problem", str(DATA / "cone_dc.json"), "--point", "1e4300,0"], "InfeasiblePoint: (..., 0) "),
        (["check", "--claim", "equality22", "--dc", str(DATA / "abs_restricted_dc.json"), "--point", "1e4300"],
         "PointOutsideDomain: (...) "),
        (ABS_MINUS_X + ["--claim", "intersection27", "--mus", "0,1e4300"], "CapExceeded: "),
        (ABS_MINUS_X + ["--claim", "cor11", "--etas", "0,1e4300"], "CapExceeded: "),
        (ABS_MINUS_X + ["--claim", "equality22", "--eps", "1e4300"],
         "ParseError: eps=... eta=0 selects Equality26, not Equality22"),
    ],
    ids=["certify-point", "check-point", "mu-grid", "eta-grid", "eps"],
)
def test_a_value_too_long_to_print_exits_3(capsys, argv, error):
    # 10**4300 has one digit more than the interpreter prints: an error
    # message elides it, a report note is a cap, and neither is exit 1
    from subgrad import cli

    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith(f"error: {error}")


def test_deeply_nested_json_is_bad_input(tmp_path, capsys):
    # json.dumps cannot write this nesting; json.load raises RecursionError
    from subgrad import cli

    scen = tmp_path / "scen"
    scen.mkdir()
    scenario = json.loads((CORPUS / "subdiff_abs.json").read_text())
    scenario["function"] = str(DATA / "abs.json")
    (scen / "a_valid.json").write_text(json.dumps(scenario))
    nested = scen / "b_nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    assert cli.main(["run", str(nested)]) == 3
    assert "is not valid JSON" in capsys.readouterr().err
    out = tmp_path / "r.json"
    assert cli.main(["corpus", str(scen), "--json", str(out)]) == 3
    exits = {s["name"]: s["exit"] for s in json.loads(out.read_text())["scenarios"]}
    assert exits == {"a_valid.json": 0, "b_nested.json": 3}


def test_corpus_all_pass(tmp_path):
    out = tmp_path / "report.json"
    r = run_cli("corpus", str(CORPUS), "--json", str(out))
    assert r.returncode == 0, r.stdout + r.stderr
    report = json.loads(out.read_text())
    assert report["kind"] == "corpus"
    assert report["exit"] == 0
    names = [s["name"] for s in report["scenarios"]]
    assert names == sorted(names)
    assert all(s["exit"] == 0 for s in report["scenarios"])


def test_corpus_json_deterministic_across_processes(tmp_path):
    # two interpreters with different hash seeds (set iteration order
    # differs) and both --jobs values must write the same bytes
    outs = []
    for jobs, hashseed in (("1", "0"), ("4", "1")):
        out = tmp_path / f"r{jobs}.json"
        r = run_cli("corpus", str(CORPUS), "--jobs", jobs, "--json", str(out),
                    env_extra={"PYTHONHASHSEED": hashseed})
        assert r.returncode == 0, r.stdout + r.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("directory, code", [(CORPUS, 0), (EXTRA, 1)], ids=["corpus", "extra"])
def test_corpus_json_matches_golden(directory, code):
    # tests/data/golden_*.json is `subgrad corpus --json` output recorded
    # before the integer DD kernel; any change to a verdict, witness or
    # canonical form shows up here
    from subgrad.cli import corpus_run

    out = corpus_run(directory, "*.json", {})
    assert out.exit_code == code
    golden = ROOT / "tests" / "data" / f"golden_{directory.name}.json"
    assert json.dumps(out.payload, sort_keys=True, indent=2) + "\n" == golden.read_text()


GOLDEN_TEXT = ROOT / "tests" / "data" / "golden_text.json"


def _text_reports() -> dict:
    """Exit code and stdout of `subgrad run` on each shipped scenario."""
    from subgrad import cli

    reports = {}
    for directory in (CORPUS, EXTRA):
        for path in sorted(directory.glob("*.json")):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["run", str(path)])
            reports[f"{directory.name}/{path.name}"] = {"exit": code, "stdout": buf.getvalue()}
    return reports


def _dump_text_reports(reports: dict) -> str:
    return json.dumps(reports, sort_keys=True, indent=2) + "\n"


def test_text_reports_match_golden():
    # tests/data/golden_text.json pins every byte of the text reports; re-record
    # only for an intended change, with `PYTHONPATH=src python tests/test_cli.py`
    assert _dump_text_reports(_text_reports()) == GOLDEN_TEXT.read_text()


def test_corpus_reads_each_file_once(monkeypatch):
    # the corpus times each scenario around run_scenario; a second parse
    # outside it would go unmeasured
    from subgrad import cli

    reads, runs = Counter(), Counter()
    read_json, run_scenario = cli._read_json, cli.run_scenario

    def counted_read(path):
        reads[Path(path).resolve()] += 1
        return read_json(path)

    def counted_run(path, flags):
        runs[Path(path).resolve()] += 1
        return run_scenario(path, flags)

    monkeypatch.setattr(cli, "_read_json", counted_read)
    monkeypatch.setattr(cli, "run_scenario", counted_run)
    assert cli.main(["corpus", str(CORPUS)]) == 0
    files = [p.resolve() for p in CORPUS.glob("*.json")]
    assert {p: reads[p] for p in files} == dict.fromkeys(files, 1)
    assert runs == Counter(files)


def test_corpus_exit_priority(tmp_path):
    # extra dir mixes exits 1, 2, 3: any failing scenario wins
    out = tmp_path / "r.json"
    r = run_cli("corpus", str(EXTRA), "--json", str(out))
    assert r.returncode == 1
    report = json.loads(out.read_text())
    exits = {s["name"]: s["exit"] for s in report["scenarios"]}
    assert exits["bad_kind.json"] == 3
    assert exits["probe_dini_shallow.json"] == 2


def test_corpus_file_that_is_not_an_object(tmp_path):
    # valid JSON but not a scenario object: exit 3 for that file only
    scenario = json.loads((CORPUS / "subdiff_abs.json").read_text())
    scenario["function"] = str(DATA / "abs.json")
    scen = tmp_path / "scen"
    scen.mkdir()
    (scen / "a_valid.json").write_text(json.dumps(scenario))
    (scen / "b_list.json").write_text("[1]")
    out = tmp_path / "r.json"
    r = run_cli("corpus", str(scen), "--json", str(out))
    assert r.returncode == 3, r.stdout + r.stderr
    assert "Traceback" not in r.stderr
    exits = {s["name"]: s["exit"] for s in json.loads(out.read_text())["scenarios"]}
    assert exits == {"a_valid.json": 0, "b_list.json": 3}


def test_corpus_empty_directory(tmp_path):
    r = run_cli("corpus", str(tmp_path))
    assert r.returncode == 3


def test_seed_override_changes_sampled_report(tmp_path):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    base = str(CORPUS / "probe_dini_abs.json")
    assert run_cli("run", base, "--json", str(a)).returncode == 0
    assert run_cli("run", base, "--json", str(a)).returncode == 0
    first = a.read_bytes()
    assert run_cli("run", base, "--seed", "0", "--json", str(b)).returncode == 0
    assert run_cli("run", base, "--seed", "1", "--json", str(c)).returncode == 0
    assert b.read_bytes() != c.read_bytes()
    # same invocation twice is byte-identical
    assert run_cli("run", base, "--json", str(b)).returncode == 0
    assert b.read_bytes() == first


def test_facet_cap_environment_variable(tmp_path):
    report = tmp_path / "r.json"
    r = run_cli(
        "stardiff", "--A", str(DATA / "box.json"), "--B", str(DATA / "seg.json"), "--json", str(report),
        env_extra={"SUBGRAD_MAX_FACETS": "not-a-number"},
    )
    assert r.returncode == 3
    error = "ParseError: SUBGRAD_MAX_FACETS='not-a-number' is not an integer"
    assert r.stderr == f"error: {error}\n"
    assert json.loads(report.read_text()) == {"exit": 3, "error": error}
    for cap in ("0", "-1"):
        r = run_cli(
            "stardiff", "--A", str(DATA / "box.json"), "--B", str(DATA / "seg.json"), "--json", str(report),
            env_extra={"SUBGRAD_MAX_FACETS": cap},
        )
        assert r.returncode == 3
        error = f"ParseError: SUBGRAD_MAX_FACETS={cap!r} is not a positive integer"
        assert r.stderr == f"error: {error}\n"
        assert json.loads(report.read_text()) == {"exit": 3, "error": error}
    r2 = run_cli(
        "stardiff", "--A", str(DATA / "box.json"), "--B", str(DATA / "seg.json"),
        env_extra={"SUBGRAD_MAX_FACETS": "2"},
    )
    assert r2.returncode == 3
    r3 = run_cli(
        "stardiff", "--A", str(DATA / "box.json"), "--B", str(DATA / "seg.json"),
        env_extra={"SUBGRAD_MAX_FACETS": "50000"},
    )
    assert r3.returncode == 0


def test_main_restores_caps(monkeypatch):
    # main() sets the process-wide caps for its own run only
    from subgrad import cli
    from subgrad.polykernel import CAPS

    def caps():
        return CAPS.max_dim, CAPS.max_facets, CAPS.max_generators

    before = caps()
    subdiff = ["subdiff", "--function", str(DATA / "abs.json"), "--point", "0"]
    assert cli.main([*subdiff, "--max-dim", "1"]) == 0
    assert caps() == before
    monkeypatch.setenv("SUBGRAD_MAX_FACETS", "2")
    assert cli.main(subdiff) == 0
    assert caps() == before
    assert cli.main(["stardiff", "--A", str(DATA / "box.json"), "--B", str(DATA / "seg.json")]) == 3
    assert caps() == before


def test_sum_rule_stops_at_the_product_cap(tmp_path, capsys):
    # the sum of 2,000 + 2,000 pieces would build one piece per pair, 4e6 of
    # them, before anything else looked at its size
    from subgrad import cli

    def pieces(sign):
        return {"type": "pa_convex", "pieces": [{"slope": [str(sign * k)], "intercept": str(-k * k)} for k in range(2000)]}

    scenario = tmp_path / "sum.json"
    scenario.write_text(json.dumps({
        "kind": "check", "claim": "sumrule12", "f": pieces(1), "g": pieces(-1), "point": "0", "eps": "1/2", "eta": "1/2",
    }))
    start = time.perf_counter()
    assert cli.main(["run", str(scenario)]) == 3
    assert time.perf_counter() - start < 1.0
    assert "exceeds the generator cap" in capsys.readouterr().err


def test_huge_exponent_is_refused_at_once(capsys):
    # Fraction would build 10**100000000 before any cap could act
    from subgrad import cli

    start = time.perf_counter()
    assert cli.main(["subdiff", "--function", str(DATA / "abs.json"), "--point", "1e100000000"]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: ParseError: bad rational literal '1e100000000'\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", [
    ("check", "--claim", "equality22", "--dc", str(DATA / "abs_minus_x.json"), "--point", "0"),
    ("corpus", str(CORPUS)),
    ("--help",),
], ids=["check", "corpus", "help"])
def test_unwritable_stdout_exits_3(args):
    # a report that cannot be written is an error, not a verdict: exit 1 would
    # read as "fails with witness"
    with open("/dev/full", "w") as full:
        r = subprocess.run([sys.executable, "-m", "subgrad.cli", *args],
                           stdout=full, stderr=subprocess.PIPE, text=True, cwd=ROOT, timeout=300)
    assert r.returncode == 3
    assert r.stderr.startswith("error: cannot write stdout: ") and r.stderr.count("\n") == 1
    assert "Traceback" not in r.stderr and "Exception ignored" not in r.stderr


def test_max_dim_flag(tmp_path, capsys):
    from subgrad import cli

    r = run_cli(
        "subdiff", "--function", str(DATA / "abs.json"), "--point", "0",
        "--max-dim", "0",
    )
    assert r.returncode == 3
    assert r.stderr == "error: ParseError: --max-dim 0 is not a positive integer\n"
    # a cap below 1 is bad input and gets the --json error report
    report = tmp_path / "r.json"
    subdiff = ["subdiff", "--function", str(DATA / "abs.json"), "--point", "0", "--json", str(report)]
    assert cli.main([*subdiff, "--max-dim", "-1"]) == 3
    error = "ParseError: --max-dim -1 is not a positive integer"
    assert capsys.readouterr().err == f"error: {error}\n"
    assert json.loads(report.read_text()) == {"exit": 3, "error": error}
    # a 2-d input over a cap of 1 is a cap hit
    assert cli.main(["stardiff", "--A", str(DATA / "box.json"), "--B", str(DATA / "seg.json"), "--max-dim", "1"]) == 3
    assert capsys.readouterr().err == "error: CapExceeded: dimension 2 exceeds cap 1\n"


_EXACT_SIDE = """
import json, sys
import subgrad, subgrad.cli, subgrad.calculus, subgrad.optimality, subgrad.funcmodel
from subgrad import cli
codes = [cli.main(["run", path]) for path in sys.argv[1:]]
exact_numpy = "numpy" in sys.modules
from subgrad import dinioracle
lazy_ok = subgrad.calmness_probe is dinioracle.calmness_probe
print(json.dumps([codes, exact_numpy, lazy_ok, "numpy" in sys.modules]))
"""


def test_exact_commands_never_import_numpy(tmp_path):
    # a fresh interpreter: only a probe may load the sampling side
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # a black box is built before subdiff rejects it, so building one must not load NumPy
    subdiff_blackbox = tmp_path / "subdiff_blackbox.json"
    subdiff_blackbox.write_text(json.dumps({
        "kind": "subdiff", "point": "0", "function": json.loads((DATA / "abs_sq.json").read_text()),
    }))
    inputs = [CORPUS / "check_equality22.json", EXTRA / "bad_kind.json", subdiff_blackbox]
    r = subprocess.run(
        [sys.executable, "-c", _EXACT_SIDE, *map(str, inputs)],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    codes, exact_numpy, lazy_ok, probe_numpy = json.loads(r.stdout.strip().splitlines()[-1])
    assert codes == [0, 3, 3]
    assert not exact_numpy, "an exact or malformed run imported numpy"
    assert lazy_ok and probe_numpy, "the probe side still loads on demand"


_LOADED_SIDE = """
import contextlib, io, json, sys
from subgrad import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""
# what `stardiff`, `subdiff` and a `run` of a malformed scenario leave unloaded
_HEAVY = {"subgrad.calculus", "subgrad.optimality", "subgrad.simplex", "subgrad.dinioracle", "dataclasses", "numpy"}


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # one fresh interpreter per command: the modules it does not run stay unloaded
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    malformed = {
        "stardiff": {"kind": "stardiff", "A": {"dim": 1, "hrep": 5}, "B": str(DATA / "seg.json")},
        "subdiff": {"kind": "subdiff", "point": "0", "function": {"type": "pa_convex", "pieces": "x"}},
        "probe": {"kind": "probe", "probe": "bogus", "point": "0"},
    }
    for kind, sc in malformed.items():
        (tmp_path / f"bad_{kind}.json").write_text(json.dumps(sc))
    dc = ["--dc", str(DATA / "abs_minus_x.json"), "--point", "0"]
    cases = [
        (["run", str(tmp_path / "bad_stardiff.json")], 3, _HEAVY),
        (["run", str(tmp_path / "bad_subdiff.json")], 3, _HEAVY),
        (["run", str(tmp_path / "bad_probe.json")], 3, _HEAVY),
        (["stardiff", "--A", str(DATA / "box.json"), "--B", str(DATA / "seg.json")], 0, _HEAVY),
        (["subdiff", "--function", str(DATA / "abs.json"), "--point", "0"], 0, _HEAVY),
        (["check", "--claim", "equality22", *dc], 0, {"subgrad.optimality", "subgrad.simplex", "numpy"}),
        (["certify", "--problem", str(DATA / "cone_dc.json"), "--point", "0,0"], 0, {"subgrad.calculus", "numpy"}),
    ]
    for argv, code, unloaded in cases:
        r = subprocess.run([sys.executable, "-c", _LOADED_SIDE, *argv],
                           capture_output=True, text=True, cwd=ROOT, env=env, timeout=300)
        assert r.returncode == 0, r.stderr
        got, loaded = json.loads(r.stdout.strip().splitlines()[-1])
        assert got == code, argv
        assert not unloaded & set(loaded), (argv, sorted(unloaded & set(loaded)))


_BLAS_SIDE = """
import contextlib, io, json, os, sys
from subgrad import cli
before = dict(os.environ)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["run", sys.argv[1]])
print(json.dumps([code, "numpy" in sys.modules, len(os.listdir("/proc/self/task")), dict(os.environ) == before]))
"""


def _blas_child(script, env_extra):
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(env_extra)
    r = subprocess.run([sys.executable, "-c", script, str(CORPUS / "probe_dini_abs.json")],
                       capture_output=True, text=True, cwd=ROOT, env=env, timeout=300)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads through /proc")
def test_cli_runs_blas_on_one_thread():
    # with no thread setting and NumPy not yet loaded, a probe runs OpenBLAS on
    # one thread (with its pool, the process has one thread per CPU), and the
    # caller's environment is left as it was
    code, numpy_loaded, threads, same_env = _blas_child(_BLAS_SIDE, {})
    assert code == 0 and numpy_loaded
    assert threads == 1
    assert same_env


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads through /proc")
def test_cli_keeps_a_preset_blas_thread_count():
    # a caller's own OPENBLAS_NUM_THREADS is kept: the process has the threads
    # that NumPy alone starts under it
    alone = "import os, numpy; print(len(os.listdir('/proc/self/task')))"
    preset = {"OPENBLAS_NUM_THREADS": "2"}
    code, _, threads, same_env = _blas_child(_BLAS_SIDE, preset)
    assert code == 0 and same_env
    assert threads == _blas_child(alone, preset)


def test_main_leaves_blas_alone_once_numpy_is_loaded(monkeypatch, capsys):
    # NumPy is already loaded here, so its pool is sized: main sets nothing
    from subgrad import cli

    assert "numpy" in sys.modules
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ)
    seen = []
    run_scenario = cli.run_scenario

    def watched(*args, **kwargs):
        seen.append(dict(os.environ))
        return run_scenario(*args, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", watched)
    assert cli.main(["run", str(CORPUS / "probe_dini_abs.json")]) == 0
    capsys.readouterr()
    assert seen == [before]
    assert dict(os.environ) == before


if __name__ == "__main__":
    GOLDEN_TEXT.write_text(_dump_text_reports(_text_reports()))
