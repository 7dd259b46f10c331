"""Exception types shared across the package."""


class CsStressError(Exception):
    """Base class for all errors raised by csstress."""


class InputError(CsStressError):
    """Malformed input file or invalid parameter (CLI exit code 2)."""


class CsViolation(InputError):
    """The facet list does not define a free involution v -> -v on faces."""


class RedundantFacet(InputError):
    """A facet is contained in (or equal to) another facet."""


class NotPure(CsStressError):
    """Operation requires all facets to have the same dimension."""


class NotAFace(CsStressError):
    """The queried face does not belong to the complex."""


class GroundSetOverlap(InputError):
    """Join operands share ground-set labels."""


class NotCs(CsStressError):
    """Operation requires a centrally symmetric complex."""


class NotSimplicial(InputError):
    """Polytope facet is not a simplex with affinely independent vertices."""


class LengthMismatch(CsStressError):
    """Form sequence has the wrong number of forms for the complex."""


class LsopNotFound(CsStressError):
    """No sampled form sequence passed the facet-rank check (exit code 3)."""

    def __init__(self, message, attempts=None):
        super().__init__(message)
        self.attempts = attempts


class HypothesisUnmet(CsStressError):
    """A check's structural precondition fails for the given inputs."""
