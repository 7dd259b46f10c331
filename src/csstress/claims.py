"""Executable verification of the face-number claims on concrete instances.

Each check consumes a complex or polytope, computes the relevant exact
stress dimensions, and emits a `VerificationReport` whose verdict is one
of "pass", "fail", or "hypothesis_unmet".  A conditional claim whose
hypothesis does not hold on an instance is reported as unmet, never as
failed; a failed verdict always carries a concrete witness.
"""

from __future__ import annotations

import itertools
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
    certify_dims,
    generic_lsop,
    integer_family,
    is_integer_stress,
    is_stress,
    reduced_polynomial,
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
from .exactla import int_nullspace, int_rank
from .polynomials import (
    LinearForm,
    Monomial,
    Polynomial,
    exps_divide,
    exps_partials,
    exps_times,
    is_symmetric,
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


class VerificationReport:
    """One claim's verdict on one instance; read-only."""

    __slots__ = ("claim_id", "instance", "verdict", "expected", "computed",
                 "witness", "note")

    def __init__(self, claim_id: str, instance: str, verdict: str,
                 expected=None, computed=None, witness=None, note: str = ""):
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        if verdict == FAIL and witness is None:
            raise ValueError("a failed verdict requires a witness")
        values = (claim_id, instance, verdict, expected, computed, witness,
                  note)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not VerificationReport:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"VerificationReport({fields})"

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


class CorpusInstance:
    """A named complex, its polytope when it has coordinates, and the
    values its file expects."""

    __slots__ = ("name", "complex", "polytope", "expected")

    def __init__(self, name: str, complex: SimplicialComplex,
                 polytope: Polytope | None = None, expected=None):
        self.name = name
        self.complex = complex
        self.polytope = polytope
        self.expected = {} if expected is None else expected

    def __eq__(self, other):
        if type(other) is not CorpusInstance:
            return NotImplemented
        return (self.name, self.complex, self.polytope, self.expected) == (
            other.name, other.complex, other.polytope, other.expected
        )

    def __repr__(self):
        return (
            f"CorpusInstance(name={self.name!r}, complex={self.complex!r}, "
            f"polytope={self.polytope!r}, expected={self.expected!r})"
        )


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
    """Table of a sampled l.s.o.p., special when cx is cs, degrees 0..d.

    Its dimensions are certified mod a prime when cx is Cohen-Macaulay.
    K[cx] is a finitely generated module of rank f_{d-1} over the
    polynomial ring of an l.s.o.p. Theta, and dim Stress_i is the
    dimension of degree i of K[cx]/(Theta), which vanishes above d.  By
    graded Nakayama the sum of these dimensions is the least number of
    module generators, so it is at least f_{d-1}, with equality exactly
    when K[cx] is free, that is, when cx is CM (Stanley, Combinatorics and
    Commutative Algebra, I.5 and III.2).  So f_{d-1} is a lower bound that
    `certify_dims` may use, and on a non-CM complex it always falls back
    to exact dimensions.
    """
    seq = special_lsop(cx, seed) if cx.cs else generic_lsop(cx, seed)
    table = stress_table(cx, seq, cx.dim + 1)
    certify_dims(table[1], cx.fhg_vectors().f[-1])
    return table


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


def _accumulate(pairs) -> dict:
    out: dict = {}
    for key, x in pairs:
        out[key] = out.get(key, 0) + x
    return {key: x for key, x in out.items() if x}


def _subfamily(family, conditions) -> list:
    """The members of span(family) on which the linear map `conditions`,
    from terms to {condition: value}, vanishes, from one integer system
    over the family.  Like the family, they are positive at their own
    pivots and 0 at the others'."""
    rows: dict = {}
    for b, (_, terms) in enumerate(family):
        for key, x in conditions(terms).items():
            rows.setdefault(key, {})[b] = x
    return [(family[f][0], _accumulate((exps, x * c) for b, x in y.items()
                                       for exps, c in family[b][1].items()))
            for f, y in int_nullspace(list(rows.values()), len(family))]


def _asymmetry(terms) -> dict:
    # d/dx_v w - sigma(d/dx_v w): the term c m adds e c at (v, m / x_v)
    # and takes it at (v, sigma(m / x_v))
    return _accumulate(
        pair for exps, c in terms.items()
        for v, e, lower in exps_partials(exps)
        for pair in (((v, lower), e * c), ((v, negated_exps(lower)), -e * c)))


def _y_obstruction(terms) -> dict:
    # zero exactly when each vertex derivative is squarefree and has
    # equal derivatives at k and -k, the criterion of y_representation
    def pairs():
        for exps, c in terms.items():
            for v, e, lower in exps_partials(exps):
                if any(f > 1 for _, f in lower):
                    yield (None, v, lower), e * c
                for u, f, lowest in exps_partials(lower):
                    yield (v, abs(u), lowest), (e if u > 0 else -e) * c * f
    return _accumulate(pairs())


def _squarefree(terms) -> bool:
    return all(e == 1 for exps in terms for _, e in exps)


def verify_lemma32_34(cx, table, i, instance="") -> VerificationReport:
    """Squarefreeness, y-representation, and forced symmetry of stresses.

    The lemmas range over W_i, the degree-i stresses whose vertex
    derivatives are all symmetric, and their conclusions are linear, so a
    basis of W_i decides them for every stress: each stress of W_i is
    squarefree; each symmetric one is a polynomial in the pair sums y_k;
    and, in degrees two and up, the stresses of W_i whose vertex
    derivatives all admit y-representations are symmetric.  The forms
    have definite parity, so W_i and that subspace are stable under the
    involution and split into their symmetric and antisymmetric parts,
    each computed inside the matching part of Stress_i.  Every system and
    check runs on integer multiples of the basis vectors, which changes
    no conclusion, as each is linear and homogeneous; a witness is
    printed as the reduced vector.  `checked` is dim W_i.
    """
    space = table[1][i]
    if len(space.blocks) != 2:
        raise HypothesisUnmet(
            "the lemmas need a cs complex and forms of definite parity"
        )
    plus, minus = (_subfamily(integer_family(b), _asymmetry)
                   for b in space.blocks)
    failures = [(w, "stress is not squarefree")
                for w in plus + minus if not _squarefree(w[1])]
    # a squarefree symmetric stress is a polynomial in the y_k exactly
    # when negating one vertex keeps every coefficient; in degree 1 its
    # symmetry says so, and above, a zero y-obstruction does
    failures += [(w, "symmetric stress has no y-representation")
                 for w in plus if _squarefree(w[1]) and _y_obstruction(w[1])]
    # forced symmetry needs degree >= 2: a linear polynomial has
    # constant derivatives, which say nothing about its symmetry
    if i >= 2:
        failures += [(w, "derivative y-representations did not force a "
                         "symmetric y-polynomial")
                     for w in _subfamily(minus, _y_obstruction)]
    checked = len(plus) + len(minus)
    return VerificationReport(
        CLAIM_SQUAREFREE,
        instance,
        FAIL if failures else PASS if checked else UNMET,
        computed={"degree": i, "checked": checked,
                  "skipped": space.dim - checked},
        witness=[{"stress": reduced_polynomial(w).text(), "reason": r}
                 for w, r in failures]
        or None,
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
    the complex contains the boundary of the j-cross-polytope.  The
    degree-lowering construction `derived_stress` must map every stress of
    degree j to a stress of degree j - 1.  It is linear in the stress and
    vanishes on an edge outside the stress's support, so it is checked on
    each basis stress and each edge of that stress's support, and
    `transported` counts those pairs.  What degree j shows does not depend
    on i, so calls on one table may share a dict `steps`, from j to
    `_thm35_step`, and each degree is then checked once.
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
            steps[j] = _thm35_step(cx, forms, spaces, j)
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


def _transported(terms, u1, u2) -> dict:
    """`derived_stress` on the integer terms {exps: coefficient}."""
    a, b = abs(u1), abs(u2)
    pairs = []
    for exps, c in terms.items():
        e1, lower = exps_divide(exps, u1)
        e2, lower = exps_divide(lower, u2)
        if e1 and e2:
            c *= e1 * e2
            pairs += [(exps_times(lower, v), x)
                      for v, x in ((a, c), (-a, c), (b, -c), (-b, -c))]
    return _accumulate(pairs)


def _thm35_step(cx, forms, spaces, j):
    """(cross-polytope subcomplexes found, or None when Stress_j = 0;
    transported pairs; failures) of degree j, one above an all-symmetric
    degree.  The transport is linear, so it runs on the integer multiples
    of the basis vectors and feeds `is_integer_stress`; a failure's
    witness is `derived_stress` of the reduced vector."""
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
        for member in integer_family(block):
            terms = member[1]
            edges = sorted({e for exps in terms for e in itertools.combinations(
                sorted(v for v, _ in exps), 2)})
            for u1, u2 in edges:
                transported += 1
                if not is_integer_stress(cx, forms,
                                         _transported(terms, u1, u2)):
                    failures.append(
                        {"degree": j, "edge": [u1, u2],
                         "witness": derived_stress(
                             reduced_polynomial(member), u1, u2).text(),
                         "reason": "derived polynomial is not a stress"}
                    )
    return hits, transported, failures


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


def _supported_count(vectors, on) -> int:
    """The dimension of the w in the span of `vectors`, pairs (pivot,
    {column: int}) of a reduced basis, that vanish on every column where
    on(column) is false: the off columns.  A vector whose pivot is off is
    the only one nonzero there, so it is independent of the others on the
    off columns, and the count is the number of the others less their
    rank on the off columns."""
    kept = [vec for p, vec in vectors if on(p)]
    return len(kept) - int_rank(
        [{j: x for j, x in vec.items() if not on(j)} for vec in kept])


def _lemma31_suite(cx, table, instance) -> VerificationReport:
    # Lem3.1: a symmetric stress supported on st(v) is supported on
    # Γ_|v| = lk(v) ∩ lk(-v).  Stresses are local, so the symmetric
    # stresses supported on a subcomplex are the plus-block stresses of
    # cx that vanish off it, and their dimension is `_supported_count`.
    # A support σ lies on st(v) when σ ∪ {v} is a face, and on Γ_k when
    # σ ∪ {k} and σ ∪ {-k} both are.  For each (v, i) the two counts
    # must agree; `checked` sums the Γ counts over the (v, i).
    seq, spaces = table
    d = cx.dim + 1
    vertices = cx.vertices
    pairs = sorted({abs(v) for v in vertices})
    reach: dict = {}  # support -> the vertices v with support ∪ {v} a face
    checked = 0
    failures = []
    for i in range(1, d + 1):
        if not spaces[i].dim:
            continue
        vectors = spaces[i].blocks[0].vectors
        near = []
        for m in spaces[i].columns:
            sigma = m.support
            if sigma not in reach:
                reach[sigma] = {v for v in vertices
                                if cx.contains(sigma + (v,))}
            near.append(reach[sigma])
        for k in pairs:
            gamma = _supported_count(
                vectors, lambda j: k in near[j] and -k in near[j])
            for v in (k, -k):
                star = _supported_count(vectors, lambda j: v in near[j])
                checked += gamma
                if star != gamma:
                    failures.append({"vertex": v, "degree": i,
                                     "star": star, "gamma": gamma})
    verdict = FAIL if failures else PASS if checked else UNMET
    return VerificationReport(
        CLAIM_STAR_SUPPORT, instance, verdict,
        computed=None if verdict == UNMET else {"checked": checked},
        witness=failures or None,
        note="no symmetric star-supported stresses" if verdict == UNMET
        else "",
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
                    [verify_lemma32_34(cx, table, i, instance=name)
                     for i in range(1, d + 1)],
                )
            )
            steps = {}
            out.append(
                merge_reports(
                    CLAIM_SYMMETRY_PROPAGATION, name,
                    [verify_thm35(cx, table, i, instance=name, steps=steps)
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
    """Run every applicable claim; records sorted by (instance, claim).

    With `claims`, keep the records whose claim id starts with one of
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
        reports.extend(instance_reports(inst, seed))
    if claims:
        reports = [
            r for r in reports
            if any(r.claim_id.startswith(c) for c in claims)
        ]
    return sorted(reports, key=lambda r: (r.instance, r.claim_id))
