"""Executable verification of the face-number claims on concrete instances.

Each check consumes a complex or polytope, computes the relevant exact
stress dimensions, and emits a `VerificationReport` whose verdict is one
of "pass", "fail", or "hypothesis_unmet".  A conditional claim whose
hypothesis does not hold on an instance is reported as unmet, never as
failed; a failed verdict always carries a concrete witness.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .complexes import (
    SimplicialComplex,
    complex_from_json_obj,
    cross_polytope_boundary,
    detect_cross_polytope_subcomplexes,
    load_json,
)
from .engine import (
    canonical_forms,
    generic_lsop,
    is_stress,
    restrict_stress_space,
    special_lsop,
    stress_space,
)
from .errors import (
    HypothesisUnmet,
    InputError,
    NotCs,
    NotPure,
    PreconditionUnmet,
)
from .polynomials import (
    LinearForm,
    Monomial,
    Polynomial,
    expand_y_representation,
    is_squarefree,
    is_symmetric,
    partial_derivative,
    y_representation,
)
from .polytopes import Polytope, polytope_from_json_obj

PASS = "pass"
FAIL = "fail"
UNMET = "hypothesis_unmet"
VERDICTS = (PASS, FAIL, UNMET)

# stable claim identifiers used in report records and CLI filters
CLAIM_EXPECT = "Expect"
CLAIM_CM = "CM"
CLAIM_LBT = "Thm2.2.1"
CLAIM_LBT_AFFINE = "Thm2.2.2"
CLAIM_EQUIVALENCE = "Cor2.3.1"
CLAIM_EQUIVALENCE_AFFINE = "Cor2.3.2"
CLAIM_STAR_SUPPORT = "Lem3.1"
CLAIM_SQUAREFREE = "Lem3.2-3.4"
CLAIM_SYMMETRY_PROPAGATION = "Thm3.5"
CLAIM_H_PROPAGATION = "Thm3.6.1"
CLAIM_G_PROPAGATION = "Thm3.6.2"
CLAIM_RESTRICTION = "Cor3.7.1"
CLAIM_HALF_CROSSPOLY = "Cor3.7.2"

LEMMA_SAMPLES = 5


@dataclass(frozen=True)
class VerificationReport:
    claim_id: str
    instance: str
    verdict: str
    expected: object = None
    computed: object = None
    witness: object = None
    note: str = ""

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == FAIL and self.witness is None:
            raise ValueError("a failed verdict requires a witness")

    def to_json_obj(self) -> dict:
        obj = {
            "claim": self.claim_id,
            "instance": self.instance,
            "verdict": self.verdict,
        }
        for key in ("expected", "computed", "witness"):
            value = getattr(self, key)
            if value is not None:
                obj[key] = _jsonable(value)
        if self.note:
            obj["note"] = self.note
        return obj


def _jsonable(value):
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if isinstance(value, (Polynomial, Monomial, LinearForm)):
        return value.text()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    return value


def merge_reports(claim_id, instance, reports) -> VerificationReport:
    """Combine per-degree reports into one (instance, claim) record."""
    if not reports:
        return VerificationReport(
            claim_id, instance, UNMET, note="no degrees in range"
        )
    verdict = UNMET
    if any(r.verdict == FAIL for r in reports):
        verdict = FAIL
    elif any(r.verdict == PASS for r in reports):
        verdict = PASS
    witness = next(
        (r.witness for r in reports if r.verdict == FAIL), None
    )
    notes = sorted({r.note for r in reports if r.note})
    return VerificationReport(
        claim_id,
        instance,
        verdict,
        expected=[r.expected for r in reports if r.expected is not None]
        or None,
        computed=[r.computed for r in reports if r.computed is not None]
        or None,
        witness=witness,
        note="; ".join(notes),
    )


# -- corpus instances --------------------------------------------------------


@dataclass
class CorpusInstance:
    name: str
    complex: SimplicialComplex
    polytope: Polytope | None = None
    expected: dict = field(default_factory=dict)


def instance_from_json(text: str, fallback_name="instance") -> CorpusInstance:
    obj = load_json(text)
    if not isinstance(obj, dict):
        raise InputError("instance JSON must be an object")
    name = obj.get("name", fallback_name)
    if not isinstance(name, str):
        raise InputError('"name" must be a string')
    expected = obj.get("expected", {})
    if not isinstance(expected, dict):
        raise InputError('"expected" must be an object')
    if "coordinates" in obj:
        polytope = polytope_from_json_obj(obj)
        return CorpusInstance(name, polytope.boundary, polytope, expected)
    return CorpusInstance(name, complex_from_json_obj(obj), None, expected)


# -- stress tables -------------------------------------------------------------
#
# A table is the pair (form sequence, stress spaces for degrees 0..top).
# It is built once per instance and passed to every check that reads it.


def stress_table(cx: SimplicialComplex, seq, top: int):
    """(seq, stress spaces of cx for degrees 0..top)."""
    return seq, tuple(stress_space(cx, seq, i) for i in range(top + 1))


def linear_table(cx: SimplicialComplex, seed: int):
    """Table of a sampled l.s.o.p., special when cx is cs, degrees 0..d."""
    seq = special_lsop(cx, seed) if cx.cs else generic_lsop(cx, seed)
    return stress_table(cx, seq, cx.dim + 1)


def affine_table(p: Polytope):
    """Table of the canonical forms, degrees 0..floor(d/2)+1."""
    return stress_table(p.boundary, canonical_forms(p), p.d // 2 + 1)


def cm_certificate(cx: SimplicialComplex, table) -> dict:
    """CM certificate by graded dimension count over a `linear_table`.

    For a verified l.s.o.p., cx is Cohen-Macaulay exactly when dims == h
    (the property holds for some sequence exactly when it holds for every
    one), so any difference proves it is not.  A difference may go either
    way: two disjoint triangles have h_3 = 1 but no degree-3 stress.
    """
    seq, spaces = table
    dims = [s.dim for s in spaces]
    h = list(cx.fhg_vectors().h)
    witnessed = dims == h
    return {
        "dims": dims,
        "h": h,
        "is_cm_witnessed": witnessed,
        "definitive_non_cm": not witnessed,
        "seed": seq.seed,
        "kind": seq.kind,
        "attempts": seq.attempts,
    }


def derived_seed(*parts) -> int:
    """Deterministic sub-seed from string parts (hash-salt independent)."""
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _sample_combination(rng, basis) -> Polynomial:
    """Random integer combination, one draw in [-9, 9] per basis element."""
    coeffs = [rng.randint(-9, 9) for _ in basis]
    return Polynomial(
        (m, k * c) for b, k in zip(basis, coeffs) for m, c in b.terms.items()
    )


# -- theorem checks -----------------------------------------------------------


def verify_lbt(cx: SimplicialComplex, table, instance="") -> VerificationReport:
    """Lower bound h_i >= C(d,i) plus the antisymmetric dimension formula."""
    if not cx.cs:
        raise NotCs("the lower bound check applies to cs complexes")
    cert = cm_certificate(cx, table)
    h = cert["h"]
    if not cert["is_cm_witnessed"]:
        return VerificationReport(
            CLAIM_LBT,
            instance,
            UNMET,
            computed={"dims": cert["dims"], "h": h},
            note="Cohen-Macaulayness not witnessed",
        )
    seq, spaces = table
    d = len(h) - 1
    failures = []
    minus = [s.minus_dim for s in spaces]
    expected_minus = [Fraction(h[i] - comb(d, i), 2) for i in range(d + 1)]
    for i in range(1, d + 1):
        if h[i] < comb(d, i):
            failures.append(
                {"degree": i, "h": h[i], "binomial": comb(d, i),
                 "reason": "lower bound violated"}
            )
        if minus[i] != expected_minus[i]:
            failures.append(
                {"degree": i, "minus_dim": minus[i],
                 "expected": expected_minus[i],
                 "reason": "antisymmetric dimension formula violated"}
            )
    return VerificationReport(
        CLAIM_LBT,
        instance,
        FAIL if failures else PASS,
        expected={"minus_dims": expected_minus[1:],
                  "lower_bounds": [comb(d, i) for i in range(1, d + 1)]},
        computed={"h": h[1:], "minus_dims": minus[1:], "seed": seq.seed},
        witness=failures or None,
    )


def verify_polytope_lbt(p: Polytope, table, instance="") -> VerificationReport:
    """Affine analogue: g_i bounds and minus dimensions for canonical forms."""
    vec = p.boundary.fhg_vectors()
    d = vec.d
    g = list(vec.g)
    _, spaces = table
    failures = []
    rows = []
    for i in range(1, d // 2 + 1):
        bound = comb(d, i) - comb(d, i - 1)
        dim_i = spaces[i].dim
        minus_i = spaces[i].minus_dim
        rows.append(
            {"degree": i, "g": g[i], "dim": dim_i, "minus_dim": minus_i}
        )
        if g[i] < bound:
            failures.append(
                {"degree": i, "g": g[i], "bound": bound,
                 "reason": "affine lower bound violated"}
            )
        if dim_i != g[i]:
            failures.append(
                {"degree": i, "dim": dim_i, "g": g[i],
                 "reason": "affine stress dimension differs from g"}
            )
        if minus_i != Fraction(g[i] - bound, 2):
            failures.append(
                {"degree": i, "minus_dim": minus_i,
                 "expected": Fraction(g[i] - bound, 2),
                 "reason": "affine antisymmetric dimension formula violated"}
            )
    if not rows:
        return VerificationReport(
            CLAIM_LBT_AFFINE, instance, PASS,
            note="no degrees in range; vacuous",
        )
    return VerificationReport(
        CLAIM_LBT_AFFINE,
        instance,
        FAIL if failures else PASS,
        expected={"bounds": [comb(d, i) - comb(d, i - 1)
                             for i in range(1, d // 2 + 1)]},
        computed=rows,
        witness=failures or None,
    )


def verify_cor_equivalence(cx, i, table, instance="") -> VerificationReport:
    """h_i = C(d,i) holds exactly when every degree-i stress is symmetric."""
    if not cx.cs:
        raise NotCs("the equivalence applies to cs complexes")
    vec = cx.fhg_vectors()
    d = vec.d
    if not 1 <= i <= d:
        raise ValueError(f"degree {i} outside 1..{d}")
    if not cm_certificate(cx, table)["is_cm_witnessed"]:
        return VerificationReport(
            CLAIM_EQUIVALENCE, instance, UNMET,
            note="Cohen-Macaulayness not witnessed",
        )
    _, spaces = table
    minus_dim = spaces[i].minus_dim
    equality = vec.h[i] == comb(d, i)
    all_symmetric = minus_dim == 0
    computed = {
        "degree": i, "h": vec.h[i], "binomial": comb(d, i),
        "minus_dim": minus_dim,
    }
    if equality == all_symmetric:
        return VerificationReport(
            CLAIM_EQUIVALENCE, instance, PASS, computed=computed
        )
    return VerificationReport(
        CLAIM_EQUIVALENCE, instance, FAIL,
        computed=computed, witness=computed,
    )


def verify_polytope_cor_equivalence(
    p, i, table, instance=""
) -> VerificationReport:
    """Affine variant of the equivalence, in terms of g-numbers."""
    vec = p.boundary.fhg_vectors()
    d = vec.d
    if not 1 <= i <= d // 2:
        raise ValueError(f"degree {i} outside 1..{d // 2}")
    _, spaces = table
    minus_dim = spaces[i].minus_dim
    equality = vec.g[i] == comb(d, i) - comb(d, i - 1)
    all_symmetric = minus_dim == 0
    computed = {
        "degree": i, "g": vec.g[i],
        "bound": comb(d, i) - comb(d, i - 1),
        "minus_dim": minus_dim,
    }
    if equality == all_symmetric:
        return VerificationReport(
            CLAIM_EQUIVALENCE_AFFINE, instance, PASS, computed=computed
        )
    return VerificationReport(
        CLAIM_EQUIVALENCE_AFFINE, instance, FAIL,
        computed=computed, witness=computed,
    )


def verify_lemma31(cx, forms, w: Polynomial, v: int, instance="") -> VerificationReport:
    """A symmetric stress supported on st(v) lives on lk(v) ∩ lk(-v)."""
    if w.is_zero():
        return VerificationReport(
            CLAIM_STAR_SUPPORT, instance, PASS, note="zero stress; vacuous"
        )
    star = cx.star((v,))
    if not is_symmetric(w):
        raise PreconditionUnmet("the stress is not symmetric")
    if not all(star.contains(m.support) for m in w.terms):
        raise PreconditionUnmet(f"the stress is not supported on st({v})")
    if not is_stress(cx, forms, w):
        raise PreconditionUnmet("the polynomial is not a stress")
    link_v = cx.link((v,))
    link_mv = cx.link((-v,))
    bad = sorted(
        m.support
        for m in w.terms
        if not (link_mv.contains(m.support) and link_v.contains(m.support))
    )
    return VerificationReport(
        CLAIM_STAR_SUPPORT,
        instance,
        FAIL if bad else PASS,
        computed={"vertex": v, "terms": len(w.terms)},
        witness=[list(f) for f in bad] or None,
    )


def _y_rep_or_none(w: Polynomial):
    if not is_squarefree(w):
        return None
    return y_representation(w)


def verify_lemma32_34(cx, table, i, seed=0, instance="") -> VerificationReport:
    """Squarefreeness, y-representation, and forced symmetry of stresses.

    For each basis stress (plus seeded random combinations) of degree i
    whose vertex derivatives are all symmetric: the stress is squarefree;
    if it is symmetric it is a polynomial in the pair sums y_k with an
    exact round trip; and, in degrees two and up, if every vertex
    derivative admits a y-representation the stress itself does and is
    symmetric.
    """
    _, spaces = table
    basis = spaces[i].basis
    rng = random.Random(derived_seed(seed, "lem32-34", instance, i))
    candidates = basis + [
        _sample_combination(rng, basis) for _ in range(LEMMA_SAMPLES)
    ]
    ground = sorted(cx.ground_set)
    checked = skipped = 0
    failures = []
    for w in candidates:
        if w.is_zero():
            continue
        derivatives = [partial_derivative(w, v) for v in ground]
        if not all(is_symmetric(dw) for dw in derivatives):
            skipped += 1
            continue
        checked += 1
        if not is_squarefree(w):
            failures.append(
                {"stress": w.text(), "reason": "stress is not squarefree"}
            )
            continue
        if is_symmetric(w):
            rep = y_representation(w)
            if rep is None:
                failures.append(
                    {"stress": w.text(),
                     "reason": "symmetric stress has no y-representation"}
                )
            elif expand_y_representation(rep) != w:
                failures.append(
                    {"stress": w.text(),
                     "reason": "y-representation round trip failed"}
                )
        # forced symmetry needs degree >= 2: a linear polynomial has
        # constant derivatives, which say nothing about its symmetry
        if w.degree >= 2 and all(
            _y_rep_or_none(dw) is not None for dw in derivatives
        ):
            if _y_rep_or_none(w) is None or not is_symmetric(w):
                failures.append(
                    {"stress": w.text(),
                     "reason": "derivative y-representations did not force "
                               "a symmetric y-polynomial"}
                )
    if checked == 0:
        return VerificationReport(
            CLAIM_SQUAREFREE, instance, UNMET,
            computed={"degree": i, "checked": 0, "skipped": skipped},
            note="no stresses with all-symmetric derivatives",
        )
    return VerificationReport(
        CLAIM_SQUAREFREE,
        instance,
        FAIL if failures else PASS,
        computed={"degree": i, "checked": checked, "skipped": skipped},
        witness=failures or None,
    )


def derived_stress(w: Polynomial, u1: int, u2: int) -> Polynomial:
    """(x_{u1} + x_{-u1} - x_{u2} - x_{-u2}) * d/dx_{u2} d/dx_{u1} w."""
    factor = Polynomial(
        [
            (Monomial([(u1, 1)]), 1),
            (Monomial([(-u1, 1)]), 1),
            (Monomial([(u2, 1)]), -1),
            (Monomial([(-u2, 1)]), -1),
        ]
    )
    return factor * partial_derivative(partial_derivative(w, u1), u2)


def _check_parity_hypothesis(cx, forms) -> None:
    forms = list(forms)
    if any(f.parity != "minus" for f in forms[:-1]):
        raise HypothesisUnmet(
            "all but the last form must be antisymmetric"
        )
    last = forms[-1]
    if last.parity == "minus":
        return
    if last == LinearForm.all_ones(sorted(cx.ground_set)):
        return
    raise HypothesisUnmet(
        "the last form must be antisymmetric or the all-ones form"
    )


def verify_thm35(cx, table, i, seed=0, instance="") -> VerificationReport:
    """Symmetry of stresses propagates upward and forces cross-polytopes.

    If every degree-i stress is symmetric then so is every stress of
    degree j >= i; whenever such a degree j > i carries nonzero stresses
    the complex contains the boundary of the j-cross-polytope.  The
    degree-lowering construction `derived_stress` is re-derived on sampled
    stresses and must itself produce stresses.
    """
    if i <= 1:
        raise ValueError("the propagation check applies to degrees above 1")
    forms, spaces = table
    _check_parity_hypothesis(cx, forms)
    top = len(spaces) - 1
    if i > top:
        raise ValueError(f"degree {i} above computed range {top}")
    if spaces[i].minus_dim != 0:
        return VerificationReport(
            CLAIM_SYMMETRY_PROPAGATION, instance, UNMET,
            computed={"degree": i, "minus_dim": spaces[i].minus_dim},
            note="hypothesis not satisfied; nothing to check",
        )
    failures = []
    minus_dims = {}
    for j in range(i, top + 1):
        minus_dims[j] = spaces[j].minus_dim
        if spaces[j].minus_dim != 0:
            failures.append(
                {"degree": j, "minus_dim": spaces[j].minus_dim,
                 "reason": "antisymmetric stresses above a symmetric degree"}
            )
    detected = {}
    for j in range(i + 1, top + 1):
        if spaces[j].dim > 0:
            hits = detect_cross_polytope_subcomplexes(cx, j)
            detected[j] = len(hits)
            if not hits:
                failures.append(
                    {"degree": j, "dim": spaces[j].dim,
                     "reason": "no cross-polytope subcomplex despite "
                               "nonzero stresses"}
                )
    rng = random.Random(derived_seed(seed, "thm35", instance, i))
    transported = 0
    # the degree-lowering construction applies one degree above the
    # all-symmetric degree, on an edge in the support of the stress
    for j in range(i + 1, top + 1):
        basis = spaces[j].basis
        if not basis:
            continue
        for _ in range(3):
            w = _sample_combination(rng, basis)
            if w.is_zero():
                continue
            edges = sorted(
                {e for m in w.terms
                 for e in itertools.combinations(m.support, 2)}
            )
            if not edges:
                continue
            u1, u2 = rng.choice(edges)
            w_prime = derived_stress(w, u1, u2)
            transported += 1
            if not is_stress(cx, forms, w_prime):
                failures.append(
                    {"degree": j, "edge": [u1, u2],
                     "witness": w_prime.text(),
                     "reason": "derived polynomial is not a stress"}
                )
    return VerificationReport(
        CLAIM_SYMMETRY_PROPAGATION,
        instance,
        FAIL if failures else PASS,
        computed={"degree": i, "minus_dims": minus_dims,
                  "detected": detected, "transported": transported},
        witness=failures or None,
    )


def verify_thm36(cx, i, table, instance="") -> VerificationReport:
    """Equality h_i = C(d,i) propagates to every higher degree."""
    vec = cx.fhg_vectors()
    d = vec.d
    if not 1 <= i < d:
        raise ValueError(f"degree {i} outside 1..{d - 1}")
    if not cx.cs:
        raise NotCs("the propagation applies to cs complexes")
    if not cm_certificate(cx, table)["is_cm_witnessed"]:
        return VerificationReport(
            CLAIM_H_PROPAGATION, instance, UNMET,
            note="Cohen-Macaulayness not witnessed",
        )
    equal = [vec.h[j] == comb(d, j) for j in range(d + 1)]
    failures = []
    # the full scan (equality degrees within 1..d-1 are upward closed
    # through degree d) covers both the direct implication at degree i
    # and the corpus-wide contrapositive
    for a in range(1, d):
        if equal[a]:
            for b in range(a, d + 1):
                if not equal[b]:
                    failures.append(
                        {"degree": b, "h": vec.h[b],
                         "binomial": comb(d, b),
                         "reason": f"equality at degree {a} did not "
                                   "propagate"}
                    )
    iso = None
    if i == 1 and equal[1]:
        hits = detect_cross_polytope_subcomplexes(cx, d)
        pairs = tuple(sorted({abs(v) for v in cx.vertices}))
        model = cross_polytope_boundary(d).fhg_vectors()
        iso = bool(hits) and pairs in [tuple(h) for h in hits] and (
            vec.f == model.f
        )
        if not iso:
            failures.append(
                {"reason": "complex on 2d vertices with h_1 = d is not "
                           "the cross-polytope boundary",
                 "detector_hits": [list(h) for h in hits]}
            )
    computed = {"degree": i, "h": list(vec.h),
                "equalities": [j for j in range(1, d + 1) if equal[j]]}
    if iso is not None:
        computed["isomorphic_to_cross_polytope"] = iso
    return VerificationReport(
        CLAIM_H_PROPAGATION,
        instance,
        FAIL if failures else PASS,
        computed=computed,
        witness=failures or None,
        note="" if equal[i]
        else "no equality at this degree; contrapositive scan only",
    )


def verify_polytope_thm36(p: Polytope, i, instance="") -> VerificationReport:
    """Equality of g_i with its binomial bound propagates up to d/2."""
    vec = p.boundary.fhg_vectors()
    d = vec.d
    half = d // 2
    if not (1 <= i and 2 * i < d):
        raise ValueError(f"degree {i} outside 1..{(d - 1) // 2}")
    bound = [comb(d, j) - (comb(d, j - 1) if j else 0)
             for j in range(half + 1)]
    equal = [j >= 1 and vec.g[j] == bound[j] for j in range(half + 1)]
    failures = []
    for a in range(1, half + 1):
        if 2 * a < d and equal[a]:
            for b in range(a, half + 1):
                if not equal[b]:
                    failures.append(
                        {"degree": b, "g": vec.g[b], "bound": bound[b],
                         "reason": f"g-equality at degree {a} did not "
                                   "propagate"}
                    )
    computed = {"degree": i, "g": list(vec.g),
                "equalities": [j for j in range(1, half + 1) if equal[j]]}
    return VerificationReport(
        CLAIM_G_PROPAGATION,
        instance,
        FAIL if failures else PASS,
        computed=computed,
        witness=failures or None,
        note="" if equal[i]
        else "no equality at this degree; contrapositive scan only",
    )


def verify_cor37(cx, i, table, instance="") -> VerificationReport:
    """At equality degrees, a cross-polytope subcomplex carries all stresses."""
    vec = cx.fhg_vectors()
    d = vec.d
    if not 1 <= i < d:
        raise ValueError(f"degree {i} outside 1..{d - 1}")
    if not cx.cs:
        raise NotCs("the restriction claim applies to cs complexes")
    if not cm_certificate(cx, table)["is_cm_witnessed"]:
        return VerificationReport(
            CLAIM_RESTRICTION, instance, UNMET,
            note="Cohen-Macaulayness not witnessed",
        )
    if vec.h[i] != comb(d, i):
        return VerificationReport(
            CLAIM_RESTRICTION, instance, UNMET,
            computed={"degree": i, "h": vec.h[i], "binomial": comb(d, i)},
            note="equality hypothesis fails at this degree",
        )
    hits = detect_cross_polytope_subcomplexes(cx, d)
    if not hits:
        return VerificationReport(
            CLAIM_RESTRICTION, instance, FAIL,
            computed={"degree": i},
            witness={"reason": "no d-cross-polytope subcomplex found"},
        )
    sigma = hits[0]
    gamma = SimplicialComplex.from_facets(
        [
            tuple(s * k for k, s in zip(sigma, signs))
            for signs in itertools.product((1, -1), repeat=len(sigma))
        ],
        expect_cs=True,
    )
    failures = []
    dims = {}
    _, spaces = table
    for j in range(i, d + 1):
        restricted = restrict_stress_space(spaces[j], gamma).dim
        dims[j] = {"full": spaces[j].dim, "restricted": restricted}
        if restricted != spaces[j].dim:
            failures.append(
                {"degree": j, "full": spaces[j].dim,
                 "restricted": restricted,
                 "reason": "restriction to the cross-polytope lost stresses"}
            )
    return VerificationReport(
        CLAIM_RESTRICTION,
        instance,
        FAIL if failures else PASS,
        computed={"degree": i, "gamma_pairs": list(sigma), "dims": dims},
        witness=failures or None,
    )


def verify_polytope_cor37(p: Polytope, i, instance="") -> VerificationReport:
    """g-equality forces a half-dimensional cross-polytope subcomplex."""
    vec = p.boundary.fhg_vectors()
    d = vec.d
    if not (1 <= i and 2 * i <= d - 2):
        raise ValueError(f"degree {i} outside 1..{(d - 2) // 2}")
    bound = comb(d, i) - comb(d, i - 1)
    if vec.g[i] != bound:
        return VerificationReport(
            CLAIM_HALF_CROSSPOLY, instance, UNMET,
            computed={"degree": i, "g": vec.g[i], "bound": bound},
            note="equality hypothesis fails at this degree",
        )
    j = d // 2
    hits = detect_cross_polytope_subcomplexes(p.boundary, j)
    if not hits:
        return VerificationReport(
            CLAIM_HALF_CROSSPOLY, instance, FAIL,
            computed={"degree": i, "j": j},
            witness={"reason": f"no {j}-cross-polytope subcomplex found"},
        )
    return VerificationReport(
        CLAIM_HALF_CROSSPOLY, instance, PASS,
        computed={"degree": i, "j": j, "hits": [list(h) for h in hits]},
    )


# -- per-instance suites ------------------------------------------------------


def _expect_report(inst: CorpusInstance, table) -> VerificationReport:
    """`table` is the instance's linear table, None when cx is not pure."""
    cx = inst.complex
    exp = inst.expected
    computed = {}
    mismatches = []
    if "cs" in exp:
        computed["cs"] = cx.cs
    if "dim" in exp:
        computed["dim"] = cx.dim
    if any(k in exp for k in ("f", "h", "g")) and cx.is_pure():
        vec = cx.fhg_vectors()
        computed.update(
            {k: list(getattr(vec, k)) for k in ("f", "h", "g") if k in exp}
        )
    if "cm" in exp:
        if table is None:
            raise NotPure("a CM certificate needs a pure complex")
        computed["cm"] = cm_certificate(cx, table)["is_cm_witnessed"]
    for key in sorted(exp):
        if key not in computed:
            mismatches.append({"key": key, "reason": "not computable"})
        elif computed[key] != exp[key]:
            mismatches.append(
                {"key": key, "expected": exp[key],
                 "computed": computed[key]}
            )
    return VerificationReport(
        CLAIM_EXPECT,
        inst.name,
        FAIL if mismatches else PASS,
        expected=exp,
        computed=computed,
        witness=mismatches or None,
    )


def _antipodal_link(cx: SimplicialComplex, k: int):
    """lk(k) ∩ lk(-k), or None when it has no nonempty face."""
    meets = {
        tuple(sorted(set(a) & set(b)))
        for a in cx.link((k,)).facets
        for b in cx.link((-k,)).facets
    }
    facets = [f for f in meets if not any(set(f) < set(g) for g in meets)]
    if facets == [()]:
        return None
    return SimplicialComplex(facets)


def _lemma31_suite(cx, table, instance) -> VerificationReport:
    # A symmetric stress supported on st(v) is also supported on st(-v),
    # hence on st(v) ∩ st(-v) = lk(v) ∩ lk(-v).  Stresses are local, so
    # those are the symmetric stresses of that complex: each of its plus
    # basis vectors is checked against the lemma on cx.  Every face of
    # that complex has a facet-rank restriction of seq, so its stresses
    # vanish above its dimension + 1 (Stanley, CCA III.2.4).
    seq, spaces = table
    d = cx.dim + 1
    pairs = sorted({abs(v) for v in cx.vertices})
    links = {k: _antipodal_link(cx, k) for k in pairs}
    checked = 0
    failures = []
    for i in range(1, d + 1):
        if spaces[i].dim == 0:
            continue
        for k in pairs:
            if links[k] is None or i > links[k].dim + 1:
                continue
            plus = stress_space(links[k], seq, i).plus_basis
            for v in (k, -k):
                for w in plus:
                    report = verify_lemma31(cx, seq, w, v, instance)
                    checked += 1
                    if report.verdict == FAIL:
                        failures.append(
                            {"vertex": v, "degree": i,
                             "faces": report.witness}
                        )
    if checked == 0:
        return VerificationReport(
            CLAIM_STAR_SUPPORT, instance, UNMET,
            note="no symmetric star-supported stresses",
        )
    return VerificationReport(
        CLAIM_STAR_SUPPORT,
        instance,
        FAIL if failures else PASS,
        computed={"checked": checked},
        witness=failures or None,
    )


def instance_reports(inst: CorpusInstance, seed: int) -> list[VerificationReport]:
    """All applicable claim records for one corpus instance."""
    cx = inst.complex
    name = inst.name
    table = linear_table(cx, seed) if cx.is_pure() else None
    out = []
    if inst.expected:
        out.append(_expect_report(inst, table))
    if table is not None:
        summary = cm_certificate(cx, table)
        note = (
            "witnessed" if summary["is_cm_witnessed"]
            else "definitively not Cohen-Macaulay"
        )
        out.append(
            VerificationReport(
                CLAIM_CM, name, PASS, computed=summary, note=note
            )
        )
        if cx.cs:
            d = cx.dim + 1
            out.append(verify_lbt(cx, table, instance=name))
            out.append(
                merge_reports(
                    CLAIM_EQUIVALENCE, name,
                    [verify_cor_equivalence(cx, i, table, instance=name)
                     for i in range(1, d + 1)],
                )
            )
            out.append(_lemma31_suite(cx, table, name))
            out.append(
                merge_reports(
                    CLAIM_SQUAREFREE, name,
                    [verify_lemma32_34(cx, table, i, seed=seed,
                                       instance=name)
                     for i in range(1, d + 1)],
                )
            )
            out.append(
                merge_reports(
                    CLAIM_SYMMETRY_PROPAGATION, name,
                    [verify_thm35(cx, table, i, seed=seed, instance=name)
                     for i in range(2, d + 1)],
                )
            )
            out.append(
                merge_reports(
                    CLAIM_H_PROPAGATION, name,
                    [verify_thm36(cx, i, table, instance=name)
                     for i in range(1, d)],
                )
            )
            out.append(
                merge_reports(
                    CLAIM_RESTRICTION, name,
                    [verify_cor37(cx, i, table, instance=name)
                     for i in range(1, d)],
                )
            )
    if inst.polytope is not None:
        p = inst.polytope
        d = p.d
        affine = affine_table(p)
        out.append(verify_polytope_lbt(p, affine, instance=name))
        out.append(
            merge_reports(
                CLAIM_EQUIVALENCE_AFFINE, name,
                [verify_polytope_cor_equivalence(p, i, affine, instance=name)
                 for i in range(1, d // 2 + 1)],
            )
        )
        out.append(
            merge_reports(
                CLAIM_G_PROPAGATION, name,
                [verify_polytope_thm36(p, i, instance=name)
                 for i in range(1, (d - 1) // 2 + 1)],
            )
        )
        out.append(
            merge_reports(
                CLAIM_HALF_CROSSPOLY, name,
                [verify_polytope_cor37(p, i, instance=name)
                 for i in range(1, (d - 2) // 2 + 1)],
            )
        )
    return out


def run_claims(instances, seed, claims=None) -> list[VerificationReport]:
    """Run every applicable claim; records sorted by (instance, claim)."""
    reports = []
    for inst in sorted(instances, key=lambda x: x.name):
        reports.extend(instance_reports(inst, seed))
    if claims:
        reports = [
            r for r in reports
            if any(r.claim_id.startswith(c) for c in claims)
        ]
    return sorted(reports, key=lambda r: (r.instance, r.claim_id))
