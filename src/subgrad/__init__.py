"""Exact subdifferential calculus for piecewise-affine convex and DC
functions: rational polyhedra, epsilon-subdifferentials, star-difference
formulas, optimality certificates, and sampling-based directional probes."""

from importlib import import_module

__version__ = "0.1.0"

# Where each public name is defined.  A name is imported on first access
# (PEP 562) and then kept in this module's globals, so `import subgrad` loads
# no submodule and a caller loads only the modules whose names it uses: the
# sampling probes of `dinioracle`, and NumPy with them, stay unloaded until a
# probe name is asked for.
_HOME = {
    **dict.fromkeys((
        "CapExceeded", "DimensionMismatch", "EmptyDomain", "EmptySetError", "EvaluationFailure",
        "InfeasiblePoint", "InternalCheckError", "NegativeEps", "NotACone", "ParseError",
        "PointNotInSet", "PointNotInteriorDomG", "PointOutsideDomain", "PointOutsideDomainInterior",
        "SubgradError", "UnboundedC", "UnsupportedNorm",
    ), "errors"),
    **dict.fromkeys((
        "CAPS", "L1", "LINF", "Caps", "Halfspace", "NormSpec", "Polyhedron", "affine_image",
        "cone_is_linear_subspace", "conic_hull", "contains_point", "contains_polyhedron",
        "dual_norm_ball", "gap", "intersect", "intersect_many", "minkowski_sum", "norm_unit_ball",
        "normal_cone_at", "star_difference", "strictly_contains_point", "support_function",
        "tangent_cone_at", "translate",
    ), "polykernel"),
    **dict.fromkeys((
        "AffinePiece", "BlackBoxFunction", "DCFunction", "PAConvexFunction", "abs_function",
        "dc_dini_subdifferential", "dc_dini_subdifferential_definitional", "dc_hypothesis_report",
        "f_eps_expand", "function_from_json", "l1_norm_function", "linear_function",
        "linf_norm_function", "pa_sum",
    ), "funcmodel"),
    **dict.fromkeys((
        "CLAIM_IDS", "Certificate", "check_corollary11", "check_corollary12",
        "check_difference_formula", "check_inclusion_13", "check_intersection_formula",
        "check_sum_rule", "local_min_necessary",
    ), "calculus"),
    **dict.fromkeys((
        "ConstraintSystem", "OptimalityCertificate", "ProblemInstance", "blunt_min_probe",
        "certify_blunt_minimizer", "check_inclusion_28", "feasible_set", "nonneg_orthant",
        "normal_cone_feasible", "qualification_check",
    ), "optimality"),
    **dict.fromkeys((
        "DEFAULT_PLAN", "DiniEstimate", "ProbeVerdict", "SamplingPlan", "approx_regularity_probe",
        "calmness_probe", "dini_directional_estimate", "eps_subgradient_membership_probe",
        "gap_continuity_probe",
    ), "dinioracle"),
}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value
