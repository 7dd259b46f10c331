"""Executable verification of the face-number claims on concrete instances.

Each check consumes a complex or polytope, computes the relevant exact
stress dimensions, and emits a `VerificationReport` whose verdict is one
of "pass", "fail", or "hypothesis_unmet".  A conditional claim whose
hypothesis does not hold on an instance is reported as unmet, never as
failed; a failed verdict always carries a concrete witness.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import cache, partial
from math import comb

from .complexes import (
    SimplicialComplex,
    complex_from_json_obj,
    detect_cross_polytope_subcomplexes,
    load_json,
)
from .engine import (
    canonical_forms,
    certify_dims,
    certify_zero,
    full_terms,
    generic_lsop,
    on_faces,
    orbit_family,
    reduced_polynomial,
    special_lsop,
    stress_dims,
    stress_space,
)
from .errors import (
    HypothesisUnmet,
    InputError,
    NotCs,
    NotPure,
)
from .exactla import int_rank
from .polynomials import (
    LinearForm,
    Monomial,
    Polynomial,
    check_monomial_count,
    exps_divide,
    exps_partials,
    exps_times,
    negated_exps,
    pair_sum,
    partial_derivative,
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
CLAIM_IDS = (
    CLAIM_EXPECT, CLAIM_CM, CLAIM_LBT, CLAIM_LBT_AFFINE, CLAIM_EQUIVALENCE,
    CLAIM_EQUIVALENCE_AFFINE, CLAIM_STAR_SUPPORT, CLAIM_SQUAREFREE,
    CLAIM_SYMMETRY_PROPAGATION, CLAIM_H_PROPAGATION, CLAIM_G_PROPAGATION,
    CLAIM_RESTRICTION, CLAIM_HALF_CROSSPOLY,
)


class VerificationReport(namedtuple(
    "VerificationReport",
    "claim_id instance verdict expected computed witness note",
    defaults=(None, None, None, ""),
)):
    """One claim's verdict on one instance; read-only."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == FAIL and self.witness is None:
            raise ValueError("a failed verdict requires a witness")
        return self

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through `_make`: both check as `__new__` does
        return cls(*iterable)

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


class CorpusInstance(namedtuple(
    "CorpusInstance", "name complex polytope expected"
)):
    """A named complex, its polytope when it has coordinates, and the
    values its file expects."""

    __slots__ = ()

    def __new__(cls, name: str, complex: SimplicialComplex,
                polytope: Polytope | None = None, expected=None):
        return super().__new__(cls, name, complex, polytope,
                               {} if expected is None else expected)

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through `_make`: both default as `__new__` does
        return cls(*iterable)


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
# It is built once per instance, when a check first reads it.


def stress_table(cx: SimplicialComplex, seq, top: int):
    """(seq, stress spaces of cx for degrees 0..top)."""
    return seq, tuple(stress_space(cx, seq, i) for i in range(top + 1))


def linear_table(cx: SimplicialComplex, seed: int):
    """Table of a sampled l.s.o.p., special when cx is cs, degrees 0..d,
    refused before any form is sampled when its top degree is too large.

    On a cs complex the readers (Lem3.2-3.4, `--basis`) solve every block
    of degrees 1..d, so only a minus block 0 mod p is fixed, at 0
    (`certify_zero`).  Otherwise the dimensions are certified mod a prime
    when cx is Cohen-Macaulay: by graded Nakayama the dim Stress_i, those
    of K[cx]/(Theta), sum to at least the rank f_{d-1} of K[cx] over the
    ring of Theta, with equality exactly when cx is CM (Stanley,
    Combinatorics and Commutative Algebra, I.5, III.2).
    """
    seq = _sampled_lsop(cx, seed)
    table = stress_table(cx, seq, cx.dim + 1)
    if cx.cs:
        for s in table[1]:
            certify_zero(s.blocks[1])
    else:
        certify_dims(table[1], cx.fhg_vectors().f[-1])
    return table


def linear_dims(cx: SimplicialComplex, seed: int):
    """`linear_table` for dimensions only, one degree held at a time."""
    seq = _sampled_lsop(cx, seed)
    return seq, stress_dims(cx, seq, cx.dim + 1, cx.fhg_vectors().f[-1])


def _sampled_lsop(cx, seed):
    check_monomial_count(cx, cx.dim + 1)
    return special_lsop(cx, seed) if cx.cs else generic_lsop(cx, seed)


def affine_table(p: Polytope):
    """Table of the canonical forms, degrees 0..floor(d/2)+1, refused up
    front like `linear_table`."""
    check_monomial_count(p.boundary, p.d // 2 + 1)
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


def _accumulate(pairs) -> dict:
    out: dict = {}
    for key, x in pairs:
        out[key] = out.get(key, 0) + x
    return {key: x for key, x in out.items() if x}


def _vertex_partials(terms, sign):
    """(v, c e, exps of m / x_v) per term c m and factor x_v^e of the
    vector w with the terms {exps: c} on a block's columns.  With sign s
    != 0 only v > 0 are listed: as d/dx_{-v} w = s sigma(d/dx_v w), the
    conditions below hold at -v exactly when at v."""
    for exps, c in terms.items():
        for v, e, lower in exps_partials(exps):
            if v > 0 or not sign:
                yield v, c * e, lower
            else:
                yield -v, sign * c * e, negated_exps(lower)


def _asymmetry(terms, sign) -> dict:
    # d/dx_v w - sigma(d/dx_v w): the derivative term c mu adds c at
    # (v, mu) and takes it at (v, sigma mu)
    return _accumulate(
        pair for v, c, lower in _vertex_partials(terms, sign)
        for pair in (((v, lower), c), ((v, negated_exps(lower)), -c)))


def verify_lemma32_34(cx, table, i, instance="") -> VerificationReport:
    """Squarefreeness, y-representation, and forced symmetry of stresses.

    The lemmas range over W_i, the degree-i stresses whose vertex
    derivatives are all symmetric.  The forms have definite parity, so
    W_i splits with Stress_i, and `checked` = dim W_i is counted by one
    exact rank per block: its members, less the rank of the conditions
    `_asymmetry` on them.  The conclusions need no check on a table
    split by sigma over face monomials.  A w of W_i with parity s has
    d/dx_{-v} w = s d/dx_v w for every v, so it is a polynomial in the
    y_k = x_k + x_{-k} (s = 1) or the z_k = x_k - x_{-k} (s = -1).  A power
    y_k^e or z_k^e with e >= 2 puts +-e x_k^{e-1} x_{-k} times its cofactor
    in w, which no other term cancels and no face carries; so w is
    multilinear in the y_k or z_k, and therefore squarefree, and a
    symmetric w is a y-polynomial.  For i >= 2, an antisymmetric w whose
    derivatives are all y-polynomials has d_u d_v w = d_{-u} d_v w =
    -d_u d_v w, so every second partial vanishes and w = 0.  None of this
    reads the stress equations; a table whose blocks are not signed
    (+1, -1) is refused.
    """
    space = table[1][i]
    if tuple(b.sign for b in space.blocks) != (1, -1):
        raise HypothesisUnmet(
            "the lemmas need a cs complex and forms of definite parity"
        )
    checked = 0
    for b in space.blocks:
        family = orbit_family(b)
        rows: dict = {}
        for k, (_, terms) in enumerate(family):
            for key, x in _asymmetry(terms, b.sign).items():
                rows.setdefault(key, {})[k] = x
        checked += len(family) - int_rank(list(rows.values()))
    return VerificationReport(
        CLAIM_SQUAREFREE,
        instance,
        PASS if checked else UNMET,
        computed={"degree": i, "checked": checked,
                  "skipped": space.dim - checked},
        note="" if checked else "no stresses with all-symmetric derivatives",
    )


def derived_stress(w: Polynomial, u1: int, u2: int) -> Polynomial:
    """(x_{u1} + x_{-u1} - x_{u2} - x_{-u2}) * d/dx_{u2} d/dx_{u1} w."""
    factor = pair_sum(abs(u1)) - pair_sum(abs(u2))
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


def verify_thm35(cx, table, i, instance="", steps=None) -> VerificationReport:
    """Symmetry of stresses propagates upward and forces cross-polytopes.

    If every degree-i stress is symmetric then so is every stress of
    degree j >= i; whenever such a degree j > i carries nonzero stresses
    the complex contains the boundary of the j-cross-polytope.
    `derived_stress` must map every stress of degree j to one of degree
    j - 1.  It is linear and vanishes on an edge off the stress's
    support, so it is checked on each basis stress and edge of its
    support; `transported` counts those pairs.  Only supports need a test:
    `_check_parity_hypothesis` leaves each echelon row theta antisymmetric
    or all-ones, so theta(f) = 0 for f = x_a + x_-a - x_b - x_-b, and
    theta(d) being a derivation, theta(d)(f d_u2 d_u1 w) = theta(f) d_u2
    d_u1 w + f d_u2 d_u1 theta(d) w = 0 for a stress w.  Degree j's step
    does not depend on i, so calls on one table may share a dict `steps`,
    j to `_thm35_step`, and check each degree once.
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
    if steps is None:
        steps = {}
    detected = {}
    transported = 0
    for j in range(i + 1, top + 1):
        if j not in steps:
            steps[j] = _thm35_step(cx, spaces, j)
        hits, count, found = steps[j]
        if hits is not None:
            detected[j] = hits
        transported += count
        failures += found
    return VerificationReport(
        CLAIM_SYMMETRY_PROPAGATION,
        instance,
        FAIL if failures else PASS,
        computed={"degree": i, "minus_dims": minus_dims,
                  "detected": detected, "transported": transported},
        witness=failures or None,
    )


def _transported(terms, sign, u1, u2) -> dict:
    """`derived_stress` of the vector with the integer terms {exps: c}
    on a block's columns, c m also standing for sign * c sigma m."""
    a, b = abs(u1), abs(u2)
    pairs = []
    for exps, c in terms.items():
        for w1, w2, x in ((u1, u2, c), (-u1, -u2, sign * c)):
            e1, lower = exps_divide(exps, w1)
            e2, lower = exps_divide(lower, w2)
            if x and e1 and e2:
                if w1 != u1:
                    lower = negated_exps(lower)
                x *= e1 * e2
                pairs += [(exps_times(lower, v), y)
                          for v, y in ((a, x), (-a, x), (b, -x), (-b, -x))]
    return _accumulate(pairs)


def _thm35_step(cx, spaces, j):
    """(cross-polytope subcomplexes found, or None when Stress_j = 0;
    transported pairs; failures) of degree j, one above an all-symmetric
    degree.  The transport is linear, so it runs on the integer multiples
    of the basis vectors, and `on_faces` tests it once cancelled terms
    are gone; a failure's witness is `derived_stress` of the reduced
    vector.  For w of parity s the transport along sigma e is s sigma
    that along e, and sigma keeps faces: one test serves both edges."""
    failures = []
    hits = None
    if spaces[j].dim > 0:
        hits = len(detect_cross_polytope_subcomplexes(cx, j))
        if not hits:
            failures.append(
                {"degree": j, "dim": spaces[j].dim,
                 "reason": "no cross-polytope subcomplex despite "
                           "nonzero stresses"}
            )
    transported = 0
    for block in spaces[j].blocks:
        sign = block.sign
        for pivot, terms in orbit_family(block):
            edges = {e for exps in terms for e in itertools.combinations(
                sorted(v for v, _ in exps), 2)}
            if sign:
                edges |= {(-u2, -u1) for u1, u2 in edges}
            tested = {}
            for u1, u2 in sorted(edges):
                transported += 1
                held = tested.get((-u2, -u1)) if sign else None
                if held is None:
                    held = tested[u1, u2] = on_faces(
                        cx, _transported(terms, sign, u1, u2))
                if not held:
                    failures.append(
                        {"degree": j, "edge": [u1, u2],
                         "witness": derived_stress(reduced_polynomial(
                             (pivot, full_terms(terms, sign))), u1, u2).text(),
                         "reason": "derived polynomial is not a stress"}
                    )
    return hits, transported, failures


def verify_thm36(cx, i, table, instance="") -> VerificationReport:
    """Equality h_i = C(d,i) propagates to every higher degree.

    At i = 1 with h_1 = d, cx must be the cross-polytope boundary, and
    it is exactly when its vertex pairs are one hit of the detector.  No
    face of a cs complex holds both v and -v, so every face lies in a
    sign pattern of the pairs, and the hit makes each sign pattern a
    face: the facets are the 2^d sign patterns, and no f-vector needs
    comparing."""
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
        iso = pairs in hits
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
    """At equality degrees, a cross-polytope subcomplex carries all stresses.

    Only two things can fail: that cx holds a d-cross-polytope boundary
    Gamma, and that dim Stress_j(cx) = C(d, j) for j = i..d.  Every facet
    of Gamma is a facet of cx, so the table's l.s.o.p. of cx, which must
    be verified as for `cm_certificate`, is one of Gamma.  Gamma is a
    sphere, hence Cohen-Macaulay (Reisner), so its "restricted"
    dimension dim Stress_j(Gamma) is h_j(Gamma) = C(d, j) (Stanley,
    Combinatorics and Commutative Algebra, III.2) with no solve.
    Stresses are local, so Stress_j(Gamma) lies in Stress_j(cx), and it
    is all of it exactly when the two dimensions agree."""
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
    failures = []
    dims = {}
    _, spaces = table
    for j in range(i, d + 1):
        restricted = comb(d, j)
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
        computed={"degree": i, "gamma_pairs": list(hits[0]), "dims": dims},
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
    """`table()` is the instance's linear table, read only for "cm"."""
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
        if not cx.is_pure():
            raise NotPure("a CM certificate needs a pure complex")
        computed["cm"] = cm_certificate(cx, table())["is_cm_witnessed"]
    for key in sorted(exp):
        if key not in computed:
            mismatches.append({"key": key, "reason": "not computable"})
        elif not _same_json(computed[key], exp[key]):
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


def _same_json(a, b) -> bool:
    """a == b with the JSON types compared too, where Python has True == 1
    and 1.0 == 1."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    return a == b


def _supported_count(vectors, on) -> int:
    """The dimension of the w in the span of `vectors`, pairs (pivot,
    {column: int}) of positive multiples of a reduced basis (primitive,
    positive at their own pivot, 0 at the others'), that vanish on every
    column where on(column) is false: the off columns.  A vector whose
    pivot is off is the only one nonzero there, so it is independent of
    the others on the off columns, and the count is the number of the
    others less their rank on the off columns."""
    kept = [vec for p, vec in vectors if on(p)]
    return len(kept) - int_rank(
        [{j: x for j, x in vec.items() if not on(j)} for vec in kept])


def _lemma31_suite(cx, table, instance) -> VerificationReport:
    """Lem3.1: a symmetric stress supported on st(v) is supported on
    Γ_|v| = lk(v) ∩ lk(-v).

    Stresses are local, so the symmetric stresses on a subcomplex are the
    plus-block stresses of cx that vanish off it, counted by
    `_supported_count`.  Only the Γ count is taken, since σ-symmetry
    gives the lemma: in a cs complex st(v) ∩ st(-v) = Γ_|v|, and a plus
    column m stands for m + σm, where σm lies on st(v) exactly when m
    lies on st(-v).  So a column lies on st(v) exactly when it lies on
    Γ_|v|.  A support σ lies on Γ_k when σ ∪ {k} and σ ∪ {-k} are both
    faces.  `checked` counts each Γ_k once for each of v = ±k.  The
    argument needs a table split by σ: a block of sign other than +1 is
    HypothesisUnmet.
    """
    spaces = table[1]
    pairs = sorted({abs(v) for v in cx.vertices})
    reach: dict = {}  # support σ -> the pairs k with σ on Γ_k
    checked = 0
    for i in range(1, cx.dim + 2):
        if not spaces[i].dim:
            continue
        block = spaces[i].blocks[0]
        if block.sign != 1:
            raise HypothesisUnmet("Lemma 3.1 needs a symmetric block")
        near = []
        for exps in block.columns:
            sigma = tuple(v for v, _ in exps)
            if sigma not in reach:
                reach[sigma] = {k for k in pairs if cx.contains(sigma + (k,))
                                and cx.contains(sigma + (-k,))}
            near.append(reach[sigma])
        checked += 2 * sum(
            _supported_count(block.vectors, lambda j: k in near[j])
            for k in pairs)
    return VerificationReport(
        CLAIM_STAR_SUPPORT, instance, PASS if checked else UNMET,
        computed={"checked": checked} if checked else None,
        note="" if checked else "no symmetric star-supported stresses",
    )


def _cm_report(cx, table, instance) -> VerificationReport:
    summary = cm_certificate(cx, table)
    note = ("witnessed" if summary["is_cm_witnessed"]
            else "definitively not Cohen-Macaulay")
    return VerificationReport(CLAIM_CM, instance, PASS, computed=summary,
                              note=note)


def _thm35_suite(cx, table, instance) -> VerificationReport:
    steps = {}
    return merge_reports(CLAIM_SYMMETRY_PROPAGATION, instance, [
        verify_thm35(cx, table, i, instance=instance, steps=steps)
        for i in range(2, cx.dim + 2)])


# The claim families: (id; the instances it applies to; what it reads:
# nothing, the linear table's dimensions or bases, or the affine table;
# its degrees as a function of d, whose records are merged, or None; its
# check, of the instance, `t`, which returns what the family reads, and
# the degree).  Checks call through module-level names at call time, so
# a wrapper installed there sees every call.
_DIMS, _BASES, _AFFINE = "dims", "bases", "affine"
_FAMILIES = (
    (CLAIM_EXPECT, "expected", _DIMS, None,
     lambda inst, t: _expect_report(inst, t)),
    (CLAIM_CM, "pure", _DIMS, None,
     lambda inst, t: _cm_report(inst.complex, t(), inst.name)),
    (CLAIM_LBT, "pure cs", _DIMS, None,
     lambda inst, t: verify_lbt(inst.complex, t(), inst.name)),
    (CLAIM_LBT_AFFINE, "polytope", _AFFINE, None,
     lambda inst, t: verify_polytope_lbt(inst.polytope, t(), inst.name)),
    (CLAIM_EQUIVALENCE, "pure cs", _DIMS, lambda d: range(1, d + 1),
     lambda inst, t, i: verify_cor_equivalence(inst.complex, i, t(),
                                               inst.name)),
    (CLAIM_EQUIVALENCE_AFFINE, "polytope", _AFFINE,
     lambda d: range(1, d // 2 + 1),
     lambda inst, t, i: verify_polytope_cor_equivalence(
         inst.polytope, i, t(), inst.name)),
    (CLAIM_STAR_SUPPORT, "pure cs", _BASES, None,
     lambda inst, t: _lemma31_suite(inst.complex, t(), inst.name)),
    (CLAIM_SQUAREFREE, "pure cs", _BASES, lambda d: range(1, d + 1),
     lambda inst, t, i: verify_lemma32_34(inst.complex, t(), i, inst.name)),
    (CLAIM_SYMMETRY_PROPAGATION, "pure cs", _BASES, None,
     lambda inst, t: _thm35_suite(inst.complex, t(), inst.name)),
    (CLAIM_H_PROPAGATION, "pure cs", _DIMS, lambda d: range(1, d),
     lambda inst, t, i: verify_thm36(inst.complex, i, t(), inst.name)),
    (CLAIM_G_PROPAGATION, "polytope", None, lambda d: range(1, (d + 1) // 2),
     lambda inst, t, i: verify_polytope_thm36(inst.polytope, i, inst.name)),
    (CLAIM_RESTRICTION, "pure cs", _DIMS, lambda d: range(1, d),
     lambda inst, t, i: verify_cor37(inst.complex, i, t(), inst.name)),
    (CLAIM_HALF_CROSSPOLY, "polytope", None, lambda d: range(1, d // 2),
     lambda inst, t, i: verify_polytope_cor37(inst.polytope, i, inst.name)),
)


def instance_reports(inst: CorpusInstance, seed: int,
                     claims=None) -> list[VerificationReport]:
    """Records of the families that apply to one corpus instance and whose
    id starts with a prefix in `claims` (all without it).  A table is built
    when a selected family first asks for it.  Only readers of bases need
    `linear_table`; without one, the linear table is `linear_dims`'s."""
    families = [f for f in _FAMILIES
                if not claims or any(f[0].startswith(c) for c in claims)]
    linear = (linear_table if any(f[2] == _BASES for f in families)
              else linear_dims)

    @cache
    def table(affine):
        return (affine_table(inst.polytope) if affine
                else linear(inst.complex, seed))

    cx = inst.complex
    applies = {"expected": bool(inst.expected), "pure": cx.is_pure(),
               "pure cs": cx.is_pure() and cx.cs,
               "polytope": inst.polytope is not None}
    out = []
    for claim_id, kind, reads, degrees, check in families:
        read = partial(table, reads == _AFFINE)
        if applies[kind] and degrees is None:
            out.append(check(inst, read))
        elif applies[kind]:
            out.append(merge_reports(claim_id, inst.name, [
                check(inst, read, i) for i in degrees(cx.dim + 1)]))
    return out


def run_claims(instances, seed, claims=None) -> list[VerificationReport]:
    """Run every applicable claim; records sorted by (instance, claim).

    With `claims`, run only the families whose id starts with one of
    these prefixes.  A prefix that starts no claim id is an InputError,
    so a misspelt filter cannot select nothing and pass."""
    for prefix in claims or ():
        if not any(c.startswith(prefix) for c in CLAIM_IDS):
            raise InputError(
                f"claim prefix {prefix!r} starts no claim id; the ids are "
                + ", ".join(CLAIM_IDS)
            )
    reports = []
    for inst in sorted(instances, key=lambda x: x.name):
        reports.extend(instance_reports(inst, seed, claims))
    return sorted(reports, key=lambda r: (r.instance, r.claim_id))
