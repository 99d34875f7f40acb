"""Byte-level golden for the shell-search probes.

tests/data/golden_probes.json holds the ``to_json()`` of membership,
regularity and blunt-minimality outcomes that the corpus golden does not
pin down: every verdict each probe can reach, including the Inconclusive
tails.  Any change to a random stream, a draw order, a margin, a witness or
a note shows up here.  Re-record only for an intended change, with

    PYTHONPATH=src python tests/test_probe_golden.py
"""

import json
import warnings
from fractions import Fraction
from pathlib import Path

from subgrad.dinioracle import SamplingPlan, approx_regularity_probe, eps_subgradient_membership_probe
from subgrad.funcmodel import BlackBoxFunction, DCFunction, l1_norm_function, linear_function
from subgrad.optimality import ConstraintSystem, ProblemInstance, blunt_min_probe
from subgrad.polykernel import Polyhedron

F = Fraction
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_probes.json"

ABS_SQ = BlackBoxFunction(["sub", ["abs", ["coord", 0]], ["mul", ["coord", 0], ["coord", 0]]], 1)
NEG_SQRT = BlackBoxFunction(["neg", ["sqrtabs", ["coord", 0]]], 1)
STAIRCASE = BlackBoxFunction(["staircase", ["coord", 0]], 1)
NEG_ABS_DIFF = BlackBoxFunction(["neg", ["abs", ["sub", ["coord", 0], ["coord", 1]]]], 2)
# finite only at the base point, so no sample is ever usable
PINNED = BlackBoxFunction(["abs", ["coord", 0]], 1, box=[[0, 0]])


def _problem(h_slope, k_matrix):
    box = Polyhedron.from_hrep(
        [((F(1), F(0)), F(1)), ((F(-1), F(0)), F(1)), ((F(0), F(1)), F(1)), ((F(0), F(-1)), F(1))], 2
    )
    cs = ConstraintSystem(box, k_matrix, ["0"] * len(k_matrix))
    return ProblemInstance(DCFunction(l1_norm_function(2), linear_function(h_slope)), cs)


def _cases() -> dict:
    """Each golden case as a zero-argument callable, by name."""
    origin1, origin2 = (F(0),), (F(0), F(0))
    tail = SamplingPlan(shell_radii=tuple(2.0**-k for k in range(4, 21)))
    star = SamplingPlan(shell_radii=tuple(2.0**-k for k in range(3, 21)))
    halfplane = [["-1", "0"]]
    point = [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]]
    return {
        "membership_fails_l1": lambda: eps_subgradient_membership_probe(
            l1_norm_function(2), origin2, (F(2), F(0)), F(1, 4), F(1, 4)
        ),
        "membership_not_calm": lambda: eps_subgradient_membership_probe(
            NEG_SQRT, origin1, origin1, F(0), F(2**30)
        ),
        "membership_no_samples": lambda: eps_subgradient_membership_probe(
            PINNED, origin1, origin1, F(0), F(1)
        ),
        "regularity_convex_fails_staircase": lambda: approx_regularity_probe(
            STAIRCASE, origin1, F(1, 100), "convex"
        ),
        "regularity_convex_fails_2d": lambda: approx_regularity_probe(
            NEG_ABS_DIFF, origin2, F(1, 10), "convex", SamplingPlan(seed=3)
        ),
        "regularity_starshaped_holds": lambda: approx_regularity_probe(
            STAIRCASE, origin1, F(1, 10), "starshaped", star
        ),
        "regularity_directional_holds": lambda: approx_regularity_probe(
            ABS_SQ, origin1, F(1, 10), "directional", tail, direction=(F(1),)
        ),
        "regularity_no_samples": lambda: approx_regularity_probe(
            PINNED, origin1, F(1, 10), "starshaped"
        ),
        "blunt_fails": lambda: blunt_min_probe(_problem(["3", "0"], halfplane), origin2, F(1, 2)),
        "blunt_holds": lambda: blunt_min_probe(
            _problem(["1", "0"], halfplane), origin2, F(1, 4), SamplingPlan(seed=5)
        ),
        "blunt_no_feasible_samples": lambda: blunt_min_probe(_problem(["1", "0"], point), origin2, F(1, 2)),
    }


def _outcomes() -> dict:
    return {name: run().to_json() for name, run in _cases().items()}


def _dump(outcomes: dict) -> str:
    return json.dumps(outcomes, sort_keys=True, indent=2) + "\n"


def test_probe_outcomes_match_golden():
    outcomes = _outcomes()
    statuses = {name: out["status"] for name, out in outcomes.items()}
    assert statuses == {
        "membership_fails_l1": "FailsWithWitness",
        "membership_not_calm": "Inconclusive",
        "membership_no_samples": "Inconclusive",
        "regularity_convex_fails_staircase": "FailsWithWitness",
        "regularity_convex_fails_2d": "FailsWithWitness",
        "regularity_starshaped_holds": "Holds",
        "regularity_directional_holds": "Holds",
        "regularity_no_samples": "Inconclusive",
        "blunt_fails": "FailsWithWitness",
        "blunt_holds": "Holds",
        "blunt_no_feasible_samples": "Inconclusive",
    }
    assert _dump(outcomes) == GOLDEN.read_text()


def test_unusable_samples_raise_no_warning():
    # every sample is off the domain, so each margin is inf - inf: NaN, unusable
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        outcome = _cases()["regularity_no_samples"]().to_json()
    assert outcome == json.loads(GOLDEN.read_text())["regularity_no_samples"]


if __name__ == "__main__":
    GOLDEN.write_text(_dump(_outcomes()))
