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
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from subgrad.dinioracle import SamplingPlan

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

    def certify_with_k(k):
        c_set = {"dim": 1, "vrep": {"vertices": [["-1"], ["1"]]}}
        return {"kind": "certify", "point": "0", "problem": {"objective": dc, "C": c_set, "k": k}}

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
    }
    for name, sc in shapes.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(sc))
        assert cli.main(["run", str(path)]) == 3, (name, capsys.readouterr())


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


def test_usage_errors_exit_3(capsys):
    from subgrad import cli

    # argparse's own status for these, 2, would read "inconclusive"
    assert run_cli("check", "--point", "0").returncode == 3
    for argv in (["probe", "--probe", "nosuch"], ["corpus", str(CORPUS), "--jobs", "x"]):
        assert cli.main(argv) == 3, argv
    assert cli.main(["--help"]) == 0
    assert "usage: subgrad" in capsys.readouterr().out


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
    st.sampled_from(["1/0", "0", "-1", "1/3", "-7/2", "1" + "0" * 400, "1e400", "x", "", "l1", "l2approx:8"]),
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


@st.composite
def mutated_scenarios(draw):
    """A shipped scenario, data files inlined, with one subtree (possibly
    the whole scenario) replaced by random JSON or, in a probe scenario,
    one sampling-plan field set to a random scalar."""
    if draw(st.booleans()):
        sc = copy.deepcopy(draw(st.sampled_from(PROBES)))
        sc.setdefault("plan", {})[draw(st.sampled_from(PLAN_FIELDS))] = draw(json_scalars)
        return sc
    sc, paths = draw(st.sampled_from(SHIPPED))
    path = draw(st.sampled_from(paths))
    new = draw(json_values)
    if not path:
        return new
    sc = copy.deepcopy(sc)
    node = sc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = new
    return sc


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

    out = corpus_run(directory, "*.json", 1, {})
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


def test_facet_cap_environment_variable():
    r = run_cli(
        "stardiff", "--A", str(DATA / "box.json"), "--B", str(DATA / "seg.json"),
        env_extra={"SUBGRAD_MAX_FACETS": "not-a-number"},
    )
    assert r.returncode == 3
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
    from dataclasses import replace

    from subgrad import cli
    from subgrad.polykernel import CAPS

    before = replace(CAPS)
    subdiff = ["subdiff", "--function", str(DATA / "abs.json"), "--point", "0"]
    assert cli.main([*subdiff, "--max-dim", "1"]) == 0
    assert CAPS == before
    monkeypatch.setenv("SUBGRAD_MAX_FACETS", "2")
    assert cli.main(subdiff) == 0
    assert CAPS == before
    assert cli.main(["stardiff", "--A", str(DATA / "box.json"), "--B", str(DATA / "seg.json")]) == 3
    assert CAPS == before


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


def test_max_dim_flag():
    r = run_cli(
        "subdiff", "--function", str(DATA / "abs.json"), "--point", "0",
        "--max-dim", "0",
    )
    assert r.returncode == 3


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


if __name__ == "__main__":
    GOLDEN_TEXT.write_text(_dump_text_reports(_text_reports()))
