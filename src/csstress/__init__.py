"""Exact stress spaces and face-number certificates for centrally
symmetric simplicial complexes.

`import csstress` loads none of the submodules.  Each public name is
imported from the submodule that defines it on first use (PEP 562) and
then kept in this namespace, so a process pays only for the layers it
touches.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "claims": (
        "CLAIM_CM", "CLAIM_EQUIVALENCE", "CLAIM_EQUIVALENCE_AFFINE",
        "CLAIM_EXPECT", "CLAIM_G_PROPAGATION", "CLAIM_H_PROPAGATION",
        "CLAIM_HALF_CROSSPOLY", "CLAIM_LBT", "CLAIM_LBT_AFFINE",
        "CLAIM_RESTRICTION", "CLAIM_SQUAREFREE", "CLAIM_STAR_SUPPORT",
        "CLAIM_SYMMETRY_PROPAGATION", "CorpusInstance",
        "VerificationReport", "affine_table", "cm_certificate",
        "derived_stress", "instance_from_json", "linear_table",
        "merge_reports", "run_claims", "stress_table", "verify_cor37",
        "verify_cor_equivalence", "verify_lbt", "verify_lemma32_34",
        "verify_polytope_cor37",
        "verify_polytope_cor_equivalence", "verify_polytope_lbt",
        "verify_polytope_thm36", "verify_thm35", "verify_thm36",
    ),
    "complexes": (
        "FHGVectors", "SimplicialComplex", "complex_from_json",
        "cross_polytope_boundary",
        "detect_cross_polytope_subcomplexes", "face", "join", "negate",
    ),
    "engine": (
        "FormSequence", "StressSpace", "canonical_forms", "generic_lsop",
        "is_stress", "lsop_check", "special_lsop", "stress_space",
        "vanishing_stress_space",
    ),
    "errors": (
        "CsStressError", "CsViolation", "GroundSetOverlap",
        "HypothesisUnmet", "InputError", "LengthMismatch", "LsopNotFound",
        "NotAFace", "NotCs", "NotPure", "NotSimplicial", "RedundantFacet",
    ),
    "exactla": (),  # no public names; csstress.exactla is the module
    "polynomials": (
        "LinearForm", "Monomial", "ONE", "Polynomial", "delta_monomials",
        "pair_sum", "partial_derivative",
    ),
    "polytopes": (
        "Polytope", "bipyramid", "cross_polytope", "polygon",
        "polytope_from_json", "polytope_to_json_obj",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__),
                        name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
