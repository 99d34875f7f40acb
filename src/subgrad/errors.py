"""Exception hierarchy shared by all subgrad modules."""

from __future__ import annotations


class SubgradError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SubgradError):
    """Malformed serialized input (rationals, polyhedra, functions, scenarios)."""


class DimensionMismatch(SubgradError):
    """Operands live in different ambient dimensions."""


class CapExceeded(SubgradError):
    """A size cap (dimension, facet count, generator count) was exceeded."""


class EmptySetError(SubgradError):
    """Operation undefined on the empty set (e.g. support function)."""


class PointNotInSet(SubgradError):
    """A point expected inside a polyhedron lies outside it."""


class NotACone(SubgradError):
    """A polyhedron expected to be a cone (0 in it, ray-generated) is not."""


class PointOutsideDomain(SubgradError):
    """Evaluation/subdifferential point lies outside the effective domain."""


class NegativeEps(SubgradError):
    """A radius breaks its sign rule: eps, eta and mu must be nonnegative,
    alpha positive, and the eps of the regularity, gap and blunt probes
    positive (see ``rationals.parse_radius``)."""


class UnsupportedNorm(SubgradError):
    """Requested norm is not available in this dimension."""


class PointOutsideDomainInterior(SubgradError):
    """Exact directional derivatives require an interior point."""


class EmptyDomain(SubgradError):
    """Function restriction produced an empty effective domain."""


class EvaluationFailure(SubgradError):
    """A black-box expression could not be evaluated at the given point."""


class InfeasiblePoint(SubgradError):
    """Candidate point violates the constraint system."""


class PointNotInteriorDomG(SubgradError):
    """Optimality checks require the point interior to dom g."""


class UnboundedC(SubgradError):
    """The qualification test requires a bounded constraint polyhedron C."""


class InternalCheckError(SubgradError):
    """An invariant that should be unreachable was violated (bug trap)."""
