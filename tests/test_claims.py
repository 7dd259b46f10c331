from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import comb, lcm
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from csstress import (
    CorpusInstance,
    FormSequence,
    HypothesisUnmet,
    InputError,
    LinearForm,
    Monomial,
    Polynomial,
    SimplicialComplex,
    VerificationReport,
    bipyramid,
    canonical_forms,
    cross_polytope,
    cross_polytope_boundary,
    derived_stress,
    instance_from_json,
    is_stress,
    merge_reports,
    pair_sum,
    polygon,
    run_claims,
    special_lsop,
    stress_space,
    verify_cor37,
    verify_cor_equivalence,
    verify_lbt,
    verify_lemma32_34,
    verify_polytope_cor37,
    verify_polytope_cor_equivalence,
    verify_polytope_lbt,
    verify_polytope_thm36,
    verify_thm35,
    verify_thm36,
)
import csstress.claims as claims_module
import csstress.engine as engine_module
from csstress.engine import (
    PRIMES,
    full_terms,
    integer_family,
    on_faces,
    orbit_family,
)
from csstress.exactla import rank_mod
from csstress.polynomials import negated_exps
from csstress.claims import (
    CLAIM_IDS,
    affine_table,
    cm_certificate,
    instance_reports,
    linear_table,
    stress_table,
)
from oracles import (
    antipodal_link,
    brute_is_stress,
    brute_lemma31,
    brute_symmetric_derivative_dim,
    brute_symmetric_star_dim,
    form_derivative,
    glued_cross_polytope,
    mirror_terms,
)
from strategies import cs_facet_halves


# -- report plumbing -------------------------------------------------------------


def test_report_validates_verdict():
    with pytest.raises(ValueError):
        VerificationReport("X", "inst", "maybe")
    with pytest.raises(ValueError):
        VerificationReport("X", "inst", "fail")  # fail needs a witness
    r = VerificationReport("X", "inst", "fail", witness={"reason": "r"})
    assert r.verdict == "fail"
    assert r == VerificationReport("X", "inst", "fail", witness={"reason": "r"})
    # read-only, so the checks above cannot be bypassed afterwards
    with pytest.raises(AttributeError):
        r.witness = None


def test_report_replace_and_make_validate():
    # the namedtuple helpers build through `__new__` and its checks
    r = VerificationReport("X", "inst", "pass")
    with pytest.raises(ValueError, match="unknown verdict"):
        r._replace(verdict="maybe")
    with pytest.raises(ValueError, match="requires a witness"):
        r._replace(verdict="fail")
    with pytest.raises(ValueError, match="requires a witness"):
        VerificationReport._make(["X", "inst", "fail", None, None, None, ""])
    assert r._replace(note="n") == VerificationReport("X", "inst", "pass",
                                                      note="n")
    assert VerificationReport._make(r) == r
    # `CorpusInstance` defaults a missing `expected` to {} the same way
    cx = SimplicialComplex([[1]])
    inst = CorpusInstance("x", cx, None, {"cs": False})
    assert inst._replace(expected=None).expected == {}
    assert CorpusInstance._make(["x", cx, None, None]).expected == {}
    assert CorpusInstance._make(inst) == inst


def test_report_json_omits_missing_fields():
    r = VerificationReport("X", "inst", "pass", computed={"a": 1})
    obj = r.to_json_obj()
    assert obj == {
        "claim": "X", "instance": "inst", "verdict": "pass",
        "computed": {"a": 1},
    }
    assert json.dumps(obj, sort_keys=True)


def test_report_json_serializes_fractions_and_polynomials():
    from fractions import Fraction

    r = VerificationReport(
        "X", "inst", "pass",
        computed={
            "whole": Fraction(4, 2),
            "part": Fraction(1, 3),
            "poly": pair_sum(1),
        },
    )
    obj = r.to_json_obj()
    assert obj["computed"]["whole"] == 2
    assert obj["computed"]["part"] == "1/3"
    assert obj["computed"]["poly"] == "1 * x_1 + 1 * x_-1"


def test_merge_reports_priorities():
    ok = VerificationReport("X", "i", "pass")
    unmet = VerificationReport("X", "i", "hypothesis_unmet", note="skip")
    bad = VerificationReport("X", "i", "fail", witness={"reason": "boom"})
    assert merge_reports("X", "i", []).verdict == "hypothesis_unmet"
    assert merge_reports("X", "i", [unmet, unmet]).verdict == (
        "hypothesis_unmet"
    )
    assert merge_reports("X", "i", [unmet, ok]).verdict == "pass"
    merged = merge_reports("X", "i", [ok, bad])
    assert merged.verdict == "fail"
    assert merged.witness == {"reason": "boom"}


# -- the lower bound claims --------------------------------------------------------


def test_lbt_on_octahedron(octahedron):
    r = verify_lbt(octahedron, linear_table(octahedron, 1), instance="oct")
    assert r.verdict == "pass"
    assert r.expected["minus_dims"] == [0, 0, 0]
    assert r.computed["h"] == [3, 3, 1]


def test_lbt_on_bipyramid():
    cx = bipyramid(3).boundary
    r = verify_lbt(cx, linear_table(cx, 1))
    assert r.verdict == "pass"
    assert r.computed["minus_dims"] == [1, 1, 0]


def test_lbt_skips_unwitnessed_instances(noncm):
    r = verify_lbt(noncm, linear_table(noncm, 1))
    assert r.verdict == "hypothesis_unmet"
    assert "not witnessed" in r.note


def test_polytope_lbt_on_polygons():
    for m in (2, 3, 4):
        p = polygon(m)
        r = verify_polytope_lbt(p, affine_table(p), instance=f"m{m}")
        assert r.verdict == "pass"
        (row,) = r.computed
        assert row["g"] == 2 * m - 3
        assert row["dim"] == 2 * m - 3
        assert row["minus_dim"] == m - 2


def test_polytope_lbt_on_cross_polytopes():
    for d in (2, 3, 4):
        p = cross_polytope(d)
        r = verify_polytope_lbt(p, affine_table(p))
        assert r.verdict == "pass"
        for row in r.computed:
            assert row["minus_dim"] == 0


# -- equivalences ------------------------------------------------------------------


def test_equivalence_both_directions(octahedron):
    for i in (1, 2, 3):
        r = verify_cor_equivalence(octahedron, i, linear_table(octahedron, 1))
        assert r.verdict == "pass"
        assert r.computed["h"] == r.computed["binomial"]
        assert r.computed["minus_dim"] == 0
    cx = bipyramid(3).boundary
    r = verify_cor_equivalence(cx, 1, linear_table(cx, 1))
    assert r.verdict == "pass"
    assert r.computed["h"] == 5 and r.computed["binomial"] == 3
    assert r.computed["minus_dim"] == 1
    with pytest.raises(ValueError):
        verify_cor_equivalence(octahedron, 0, linear_table(octahedron, 1))


def test_polytope_equivalence(hexagon):
    r = verify_polytope_cor_equivalence(hexagon, 1, affine_table(hexagon))
    assert r.verdict == "pass"
    assert r.computed["g"] == 3 and r.computed["bound"] == 1
    assert r.computed["minus_dim"] == 1
    p = cross_polytope(4)
    r = verify_polytope_cor_equivalence(p, 2, affine_table(p))
    assert r.verdict == "pass"
    assert r.computed["g"] == r.computed["bound"] == 2
    assert r.computed["minus_dim"] == 0
    with pytest.raises(ValueError):
        verify_polytope_cor_equivalence(hexagon, 2, affine_table(hexagon))


# -- star-supported symmetric stresses ----------------------------------------------


@pytest.mark.parametrize("name", ["crosspoly_d3", "bipyramid_m3"])
def test_lemma31_checks_every_symmetric_star_stress(corpus_by_name, name):
    # one check per basis vector of the symmetric stresses on each st(v)
    inst = corpus_by_name[name]
    cx = inst.complex
    seq, _ = linear_table(cx, 1)
    rows = [{v: f.coefficient(v) for v in cx.vertices} for f in seq]
    dense = sum(
        brute_symmetric_star_dim(cx.facets, rows, i, v)
        for i in range(1, cx.dim + 2)
        for v in cx.vertices
    )
    record = next(r for r in instance_reports(inst, 1)
                  if r.claim_id == "Lem3.1")
    assert dense > 0
    assert record.verdict == "pass"
    assert record.computed == {"checked": dense}


@pytest.mark.parametrize("name", ["crosspoly_d3", "bipyramid_m3",
                                  "bipyramid_m4", "crosspoly_d4"])
def test_lemma31_holds_for_every_counted_vector(corpus_by_name, name):
    # the suite counts the plus basis of each Γ_k = lk(k) ∩ lk(-k) twice,
    # once per v = ±k; each such vector is a symmetric stress of the
    # whole complex, and the lemma holds for it at both vertices
    inst = corpus_by_name[name]
    cx = inst.complex
    seq, spaces = linear_table(cx, 1)
    pairs = sorted({abs(v) for v in cx.vertices})
    counted = 0
    for i in range(1, cx.dim + 2):
        if spaces[i].dim == 0:
            continue
        for k in pairs:
            link = antipodal_link(cx.facets, k)
            if link is None:
                continue
            link = SimplicialComplex(link)
            if i > link.dim + 1:
                continue
            for w in stress_space(link, seq, i).plus_basis:
                terms = {m.exps: c for m, c in w.terms.items()}
                assert mirror_terms(terms) == terms
                assert is_stress(cx, seq, w)
                for v in (k, -k):
                    assert brute_lemma31(cx.facets, terms, v)
                    counted += 1
    record = next(r for r in instance_reports(inst, 1)
                  if r.claim_id == "Lem3.1")
    assert counted > 0
    assert record.computed == {"checked": counted}


def _check_star_counts_are_gamma_counts(cx, seed):
    # a plus column m stands for m + sigma m; over every monomial the
    # symmetric stresses supported on st(v) are counted on their own,
    # and on representatives the count on Γ_|v| is the same at every v.
    # Lem3.1's `checked` is the sum of the star counts
    seq, spaces = linear_table(cx, seed)
    total = 0

    def near(columns):
        # columns as exponent tuples, as a block holds them
        return [{v for v in cx.vertices
                 if cx.contains(tuple(u for u, _ in exps) + (v,))}
                for exps in columns]

    for i in range(1, cx.dim + 2):
        block = spaces[i].blocks[0]
        columns = spaces[i].columns
        index = {m.exps: j for j, m in enumerate(columns)}
        full = [(index[p], {index[e]: x for e, x in terms.items()})
                for p, terms in integer_family(block)]
        on_full = near(m.exps for m in columns)
        on_reps = near(block.columns)
        for v in cx.vertices:
            star = claims_module._supported_count(
                full, lambda j: v in on_full[j])
            assert claims_module._supported_count(
                block.vectors,
                lambda j: v in on_reps[j] and -v in on_reps[j]) == star, (
                    i, v)
            total += star
    r = claims_module._lemma31_suite(cx, (seq, spaces), "x")
    assert r.computed == ({"checked": total} if total else None)


@pytest.mark.parametrize("name", ["bipyramid_m3", "crosspoly_d3"])
def test_lemma31_star_counts_on_representatives_are_the_full_ones(
        corpus_by_name, name):
    _check_star_counts_are_gamma_counts(corpus_by_name[name].complex, 1)


@settings(max_examples=30, deadline=None)
@given(half=cs_facet_halves(), seed=st.integers(0, 99))
def test_lemma31_star_counts_are_gamma_counts_on_cs_complexes(half, seed):
    cx = SimplicialComplex.from_facets(
        half + [[-v for v in f] for f in half], expect_cs=True
    )
    _check_star_counts_are_gamma_counts(cx, seed)


def test_lemma31_refuses_a_stand_in_table(octahedron):
    # a stand-in degree-1 block that is not split by sigma: x_2 + x_1 and
    # x_3 + x_1 over every monomial, with sign 0 and so no mirror
    # columns.  The count on Γ_|v| is the count on st(v) only on a plus
    # block, so the suite refuses this one
    seq, spaces = linear_table(octahedron, 1)
    columns = spaces[1].columns
    x1, x2, x3 = ([j for j, m in enumerate(columns) if m.support == (v,)][0]
                  for v in (1, 2, 3))
    vectors = ((x2, {x2: 1, x1: 1}), (x3, {x3: 1, x1: 1}))
    block = SimpleNamespace(columns=[m.exps for m in columns], sign=0,
                            vectors=vectors)
    stand_in = SimpleNamespace(dim=2, blocks=(block,))
    table = (seq, (spaces[0], stand_in, *spaces[2:]))
    with pytest.raises(HypothesisUnmet, match="symmetric block"):
        claims_module._lemma31_suite(octahedron, table, "oct")


# -- squarefree / pair-sum structure -------------------------------------------------


def test_lemma32_34_on_octahedron(octahedron):
    table = linear_table(octahedron, 1)
    for i in (1, 2, 3):
        r = verify_lemma32_34(octahedron, table, i)
        assert r.verdict == "pass"
        assert r.computed["checked"] == table[1][i].dim
        assert r.computed["skipped"] == 0


def test_lemma32_34_skips_when_derivatives_are_asymmetric():
    cx = bipyramid(3).boundary
    table = linear_table(cx, 1)
    # dim Stress = (5, 5, 1); bipyramid has antisymmetric 1-stresses, so
    # some degree-2 and degree-3 stresses have asymmetric derivatives
    reports = [verify_lemma32_34(cx, table, i) for i in (1, 2, 3)]
    assert [r.verdict for r in reports] == ["pass", "pass",
                                            "hypothesis_unmet"]
    assert [r.computed["checked"] for r in reports] == [5, 3, 0]
    assert [r.computed["skipped"] for r in reports] == [0, 2, 1]


@settings(max_examples=30, deadline=None)
@given(half=cs_facet_halves(), seed=st.integers(0, 99))
def test_lemma32_34_checks_all_of_w_i(half, seed):
    # `checked` is dim W_i, the stresses with all-symmetric derivatives
    cx = SimplicialComplex.from_facets(
        half + [[-v for v in f] for f in half], expect_cs=True
    )
    table = linear_table(cx, seed)
    rows = [{v: f.coefficient(v) for v in cx.ground_set} for f in table[0]]
    for i in range(1, cx.dim + 2):
        r = verify_lemma32_34(cx, table, i)
        dense = brute_symmetric_derivative_dim(cx.facets, rows, i)
        assert r.computed["checked"] == dense, i
        assert r.computed["skipped"] == table[1][i].dim - dense, i
        assert r.verdict == ("pass" if dense else "hypothesis_unmet"), i
        # the integer members of W_i, on orbit representatives, are
        # stresses of their block's parity, each positive at its own
        # pivot and 0 at the others'; over every monomial they solve the
        # conditions at every vertex, not only the positive ones
        for sign, block in zip((1, -1), table[1][i].blocks):
            assert block.sign == sign
            family = claims_module._subfamily(
                orbit_family(block), claims_module._asymmetry, sign)
            pivots = {p for p, _ in family}
            for pivot, terms in family:
                assert terms[pivot] > 0
                assert not set(terms) & (pivots - {pivot})
                full = full_terms(terms, sign)
                assert brute_is_stress(cx.facets, rows, full)
                assert mirror_terms(full) == {e: sign * c
                                              for e, c in full.items()}
                assert claims_module._asymmetry(full, 0) == {}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), i=st.integers(1, 4), data=st.data())
def test_squarefree_symmetric_members_of_w_i_are_y_polynomials(n, i, data):
    # the members of W_i^+ that Lem3.2-3.4 computes, inside the span of
    # symmetric squarefree orbit sums m + sigma m, are squarefree and
    # symmetric with symmetric vertex derivatives, which makes each a
    # y-polynomial: the y-obstruction vanishes on every one of them
    labels = [v for k in range(1, n + 1) for v in (k, -k)]
    reps = {min(exps, negated_exps(exps)) for exps in (
        tuple((v, 1) for v in combo)
        for combo in itertools.combinations(labels, i))}
    sums = [(m, {m: 1, negated_exps(m): 1}) for m in sorted(reps)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(sums),
                              max_size=len(sums)))
    for family in (sums, [m for m, k in zip(sums, keep) if k]):
        w_plus = claims_module._subfamily(family, claims_module._asymmetry,
                                          0)
        for _, terms in w_plus:
            assert terms and claims_module._squarefree(terms)
            assert claims_module._y_obstruction(terms, 0) == {}
        if family is sums:
            # the products of i distinct pair sums y_k
            assert len(w_plus) == comb(n, i)


NOT_SQUAREFREE = "stress is not squarefree"
NOT_FORCED = ("derivative y-representations did not force a symmetric "
              "y-polynomial")


@pytest.mark.parametrize("part, w, reasons", [
    # (x_1 + x_-1)^2 has symmetric derivatives 2 y_1 but is not squarefree
    ("plus_basis", pair_sum(1) * pair_sum(1), [NOT_SQUAREFREE]),
    # the same posing as an antisymmetric stress: its derivatives are
    # y-polynomials too, so it also lies in Y_2, which must hold no
    # antisymmetric stress
    ("minus_basis", pair_sum(1) * pair_sum(1), [NOT_SQUAREFREE, NOT_FORCED]),
    ("minus_basis", pair_sum(1) * pair_sum(2), [NOT_FORCED]),
    # the derivatives 3 y_1^2 of y_1^3 have no y-representation, because
    # they are not squarefree, so y_1^3 lies outside Y_3
    ("minus_basis", pair_sum(1) * pair_sum(1) * pair_sum(1),
     [NOT_SQUAREFREE]),
])
def test_lemma32_34_fails_with_a_witness(octahedron, part, w, reasons):
    # a stand-in block whose one kernel vector is w, with its pivot at a
    # monomial of coefficient 1, so the reduced vector is w itself; its
    # sign 0 says that its columns are every monomial, with no mirror
    items = w.items()
    pivot = next(j for j, (_, c) in enumerate(items) if c == 1)
    block = SimpleNamespace(
        columns=[m.exps for m, _ in items], sign=0,
        vectors=((pivot, {j: int(c) for j, (_, c) in enumerate(items)}),),
    )
    blocks = [SimpleNamespace(columns=(), sign=0, vectors=())] * 2
    blocks[("plus_basis", "minus_basis").index(part)] = block
    space = SimpleNamespace(blocks=blocks, dim=1)
    table = (None, [None] * w.degree + [space])
    r = verify_lemma32_34(octahedron, table, w.degree)
    assert r.verdict == "fail"
    assert r.computed == {"degree": w.degree, "checked": 1, "skipped": 0}
    assert r.witness == [{"stress": w.text(), "reason": reason}
                         for reason in reasons]


# -- upward propagation ---------------------------------------------------------------


def test_derived_stress_formula():
    w = pair_sum(1) * pair_sum(2) * pair_sum(3)
    out = derived_stress(w, 1, 2)
    expected = (pair_sum(1) - pair_sum(2)) * pair_sum(3)
    assert out == expected


def test_derived_stress_stays_a_stress(octahedron):
    seq = special_lsop(octahedron, seed=1)
    w = pair_sum(1) * pair_sum(2) * pair_sum(3)
    assert is_stress(octahedron, seq, derived_stress(w, 1, 2))


def test_thm35_on_octahedron(octahedron):
    table = linear_table(octahedron, 1)
    r = verify_thm35(octahedron, table, 2, instance="oct")
    assert r.verdict == "pass"
    assert r.computed["minus_dims"] == {2: 0, 3: 0}
    assert r.computed["detected"] == {3: 1}
    # one degree-3 basis stress, carried along each of the 12 edges
    assert r.computed["transported"] == 12
    with pytest.raises(ValueError):
        verify_thm35(octahedron, table, 1)


def test_thm35_fails_when_a_derived_polynomial_is_no_stress(octahedron,
                                                          monkeypatch):
    seq, spaces = linear_table(octahedron, 1)
    # a support test that holds none of the derived polynomials; only
    # degree 3 transports, into degree 2
    monkeypatch.setattr(claims_module, "on_faces", lambda cx, exps: False)
    r = verify_thm35(octahedron, (seq, spaces), 2)
    assert r.verdict == "fail"
    assert r.computed["transported"] == 12
    assert len(r.witness) == 12
    assert {f["reason"] for f in r.witness} == {
        "derived polynomial is not a stress"}


def test_thm35_fails_on_a_transport_off_the_faces(octahedron):
    # a stand-in degree-3 block whose one kernel vector is the face
    # monomial x_1^2 x_2, no stress: along its one edge (1, 2) it is
    # carried to 2 x_1 (x_1 + x_-1 - x_2 - x_-2), off the faces at
    # x_1 x_-1, and the unstubbed support test refuses it
    seq, spaces = linear_table(octahedron, 1)
    m = Monomial(((1, 2), (2, 1)))
    block = SimpleNamespace(columns=[m.exps], sign=0,
                            vectors=((0, {0: 1}),))
    empty = SimpleNamespace(columns=(), sign=0, vectors=())
    stand_in = SimpleNamespace(blocks=(block, empty), dim=1, minus_dim=0)
    r = verify_thm35(octahedron, (seq, spaces[:3] + (stand_in,)), 2)
    assert r.verdict == "fail"
    assert r.computed["transported"] == 1
    assert r.witness == [{
        "degree": 3, "edge": [1, 2], "reason":
        "derived polynomial is not a stress",
        "witness": derived_stress(Polynomial([(m, 1)]), 1, 2).text()}]


def test_support_test_reads_every_monomial(octahedron):
    assert on_faces(octahedron, [])
    assert on_faces(octahedron, [((1, 2), (2, 1)), ((-3, 1),)])
    # {1, -1} is no face
    assert not on_faces(octahedron, [((1, 2), (2, 1)), ((1, 1), (-1, 1))])
    # the face monomial x_1^2 x_2, no stress, is carried along (1, 2) to
    # 2 x_1 (x_1 + x_-1 - x_2 - x_-2), off the faces at x_1 x_-1
    t = claims_module._transported({((1, 2), (2, 1)): 1}, 0, 1, 2)
    assert t[(1, 1), (-1, 1)] == 2
    assert not on_faces(octahedron, t)


def test_thm35_transports_each_degree_once(corpus_by_name, monkeypatch):
    calls = []
    real = claims_module._transported
    monkeypatch.setattr(claims_module, "_transported",
                        lambda *a: calls.append(a) or real(*a))
    reports = instance_reports(corpus_by_name["crosspoly_d4"], 1)
    (thm35,) = [r for r in reports if r.claim_id == "Thm3.5"]
    # degree 2 reports the pairs of degrees 3 and 4, degree 3 those of 4;
    # one edge of each pair {e, sigma e} is carried, for both
    assert [c["transported"] for c in thm35.computed] == [72, 24, 0]
    assert len(calls) == 72 // 2


@settings(max_examples=40, deadline=None)
@given(half=cs_facet_halves().filter(lambda h: len(h[0]) > 1),
       seed=st.integers(0, 99), data=st.data())
def test_fused_transport_agrees_with_derived_stress(half, seed, data):
    # a rational combination of degree-j stresses, j >= 2, maybe plus one
    # stray face monomial (always when Stress_j = 0), carried along two
    # vertices of one of its monomials (the stray one if any), so the
    # transport is seldom empty and, with a stray monomial, often off the
    # faces: the integer transport is derived_stress scaled to integers,
    # and is_stress decides it as the dense oracle does.  The support
    # test of verify_thm35 reads the faces as a facet scan does, and on
    # a stress's transport it decides as the dense oracle does
    cx = SimplicialComplex.from_facets(
        half + [[-v for v in f] for f in half], expect_cs=True
    )
    seq, spaces = linear_table(cx, seed)
    j = data.draw(st.integers(2, cx.dim + 1))
    coefficient = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    w = Polynomial.zero()
    for b in spaces[j].basis:
        w = w + b.scale(data.draw(coefficient))
    stray = None
    if not spaces[j].dim or data.draw(st.booleans()):
        stray = data.draw(st.sampled_from(
            [m for m in spaces[j].columns if len(m.exps) > 1]
            or spaces[j].columns))
        w = w + Polynomial([(stray, data.draw(coefficient.filter(bool)))])
    near = [[v for v, _ in m.exps] for m in ([stray] if stray else w.terms)]
    near = [vs for vs in near if len(vs) > 1] or [cx.vertices]
    u1, u2 = data.draw(st.sampled_from(near).flatmap(lambda vs: st.lists(
        st.sampled_from(vs), min_size=2, max_size=2, unique=True)))
    mult = lcm(*(c.denominator for c in w.terms.values()))
    terms = {m.exps: int(c * mult) for m, c in w.terms.items()}
    fused = claims_module._transported(terms, 0, u1, u2)
    derived = derived_stress(w, u1, u2)
    assert fused == {m.exps: c * mult for m, c in derived.terms.items()}
    rows = [{v: f.coefficient(v) for v in cx.ground_set} for f in seq]
    want = brute_is_stress(cx.facets, rows, fused)
    assert is_stress(cx, seq, derived) == want
    held = on_faces(cx, fused)
    event(f"transport {'empty' if not fused else 'nonempty'}, "
          f"on faces: {held}")
    assert held == all(any({v for v, _ in exps} <= set(f) for f in cx.facets)
                       for exps in fused)
    if stray is None:
        assert held == want


@settings(max_examples=30, deadline=None)
@given(half=cs_facet_halves(), seed=st.integers(0, 99), ones=st.booleans())
def test_parity_forms_kill_every_transport_of_a_stress(half, seed, ones):
    # why verify_thm35 tests supports only: with antisymmetric forms,
    # the last maybe all-ones, every form kills x_a + x_-a - x_b - x_-b,
    # so no derivative of a transported basis stress is left
    cx = SimplicialComplex.from_facets(
        half + [[-v for v in f] for f in half], expect_cs=True
    )
    forms = list(special_lsop(cx, seed))
    if ones:
        forms[-1] = LinearForm.all_ones(sorted(cx.ground_set))
    seq = FormSequence(forms, "custom")
    _, spaces = stress_table(cx, seq, cx.dim + 1)
    for j in range(2, cx.dim + 2):
        for w in spaces[j].basis:
            for u1, u2 in itertools.combinations(cx.vertices, 2):
                t = derived_stress(w, u1, u2)
                terms = {m.exps: c for m, c in t.terms.items()}
                assert not any(form_derivative(f.coeffs, terms)
                               for f in seq), (j, u1, u2)


def test_a_symmetric_form_that_is_not_all_ones_can_survive_a_transport(
        octahedron):
    # theta = y_1 + 2 y_2 + 3 y_3 has theta(x_1 + x_-1 - x_2 - x_-2) = -2,
    # so the transport of the stress w along (1, 2), 9 (y_1 - y_2), lies
    # on faces and is no stress: verify_thm35 refuses such forms
    x1, x2 = (LinearForm({k: 1, -k: -1}) for k in (1, 2))
    theta = LinearForm({v: abs(v) for v in (1, -1, 2, -2, 3, -3)})
    seq = FormSequence([x1, x2, theta], "custom")
    y1, y2, y3 = pair_sum(1), pair_sum(2), pair_sum(3)
    squares = Polynomial([(Monomial(((3, 2),)), 4), (Monomial(((-3, 2),)), 4)])
    w = (y1 * y2).scale(9) - (y1 * y3).scale(6) - (y2 * y3).scale(3) + squares
    assert is_stress(octahedron, seq, w)
    t = derived_stress(w, 1, 2)
    assert t == (y1 - y2).scale(9)
    terms = {m.exps: c for m, c in t.terms.items()}
    assert on_faces(octahedron, terms)
    assert form_derivative(theta.coeffs, terms) == {(): -18}
    assert not is_stress(octahedron, seq, t)
    with pytest.raises(HypothesisUnmet):
        verify_thm35(octahedron, stress_table(octahedron, seq, 3), 2)


@settings(max_examples=30, deadline=None)
@given(half=cs_facet_halves(), seed=st.integers(0, 99), data=st.data())
def test_representative_coordinates_give_the_full_results(half, seed, data):
    # on orbit representatives, with the derivative conditions at
    # positive vertices only, W_i and its y-subspace are those computed
    # over every monomial with the conditions at every vertex, and a
    # transport is the one of the full vector
    cx = SimplicialComplex.from_facets(
        half + [[-v for v in f] for f in half], expect_cs=True
    )
    seq, spaces = linear_table(cx, seed)
    sub = claims_module._subfamily
    for i in range(1, cx.dim + 2):
        for block in spaces[i].blocks:
            sign = block.sign
            for conditions in (claims_module._asymmetry,
                               claims_module._y_obstruction):
                ours = sub(orbit_family(block), conditions, sign)
                full = sub(integer_family(block), conditions, 0)
                assert [(p, full_terms(terms, sign))
                        for p, terms in ours] == full, i
            for _, terms in orbit_family(block):
                u1, u2 = data.draw(st.lists(
                    st.sampled_from(cx.vertices), min_size=2, max_size=2,
                    unique=True))
                assert claims_module._transported(terms, sign, u1, u2) == \
                    claims_module._transported(full_terms(terms, sign), 0,
                                               u1, u2)


@pytest.mark.parametrize("name", ["bipyramid_m4", "crosspoly_d4"])
def test_verify_solves_no_minus_block_that_is_zero_mod_p(corpus_by_name,
                                                         monkeypatch, name):
    # every block of degrees 0..d that verify reads is solved exactly,
    # except a minus block whose rank mod p leaves no kernel
    cx = corpus_by_name[name].complex
    table = linear_table(cx, 1)
    fresh = [stress_space(cx, table[0], i) for i in range(cx.dim + 2)]
    zero = [rank_mod(s.blocks[1].matrix, PRIMES[0])
            == len(s.blocks[1].columns) for s in fresh]
    solved = []
    real = engine_module._int_nullspace
    monkeypatch.setattr(engine_module, "_int_nullspace",
                        lambda rows, ncols: solved.append(ncols)
                        or real(rows, ncols))
    cm_certificate(cx, table)
    for i in range(1, cx.dim + 2):
        verify_lemma32_34(cx, table, i)
    assert all(s.blocks[1].known == 0 for s, z in zip(table[1], zero) if z)
    assert len(solved) == 2 * len(fresh) - sum(zero)
    # the bipyramid has antisymmetric stresses, so both kinds occur
    assert any(zero) and (name == "crosspoly_d4" or not all(zero))


def test_thm35_unmet_when_asymmetric_stresses_exist():
    cx = bipyramid(3).boundary
    r = verify_thm35(cx, linear_table(cx, 1), 2)
    assert r.verdict == "hypothesis_unmet"


def test_thm35_requires_parity_pattern(octahedron):
    bad = FormSequence(
        [LinearForm({1: 1, -1: 1, 2: 1})] * 3, "custom"
    )
    with pytest.raises(HypothesisUnmet):
        verify_thm35(octahedron, stress_table(octahedron, bad, 3), 2)


def test_lemma32_34_requires_a_parity_split(octahedron):
    bad = FormSequence(
        [LinearForm({1: 1, -1: 1, 2: 1})] * 3, "custom"
    )
    with pytest.raises(HypothesisUnmet):
        verify_lemma32_34(octahedron, stress_table(octahedron, bad, 3), 2)


def test_thm35_accepts_minus_forms_with_all_ones_tail(octahedron):
    seq = canonical_forms(cross_polytope(3))
    r = verify_thm35(octahedron, stress_table(octahedron, seq, 3), 2)
    assert r.verdict == "pass"


def test_thm36_isomorphism_detection(octahedron):
    r = verify_thm36(octahedron, 1, linear_table(octahedron, 1))
    assert r.verdict == "pass"
    assert r.computed["isomorphic_to_cross_polytope"] is True
    assert r.computed["equalities"] == [1, 2, 3]


def test_thm36_contrapositive_on_bipyramid():
    cx = bipyramid(3).boundary
    table = linear_table(cx, 1)
    r = verify_thm36(cx, 1, table)
    assert r.verdict == "pass"
    assert r.computed["equalities"] == [3]
    assert "contrapositive" in r.note
    with pytest.raises(ValueError):
        verify_thm36(cx, 3, table)


def test_polytope_thm36_scan():
    r = verify_polytope_thm36(cross_polytope(4), 1)
    assert r.verdict == "pass"
    assert r.computed["equalities"] == [1, 2]
    with pytest.raises(ValueError):
        verify_polytope_thm36(cross_polytope(4), 2)


# -- cross-polytope restriction ---------------------------------------------------------


def test_cor37_restriction_on_octahedron(octahedron):
    table = linear_table(octahedron, 1)
    for i in (1, 2):
        r = verify_cor37(octahedron, i, table)
        assert r.verdict == "pass"
        assert r.computed["gamma_pairs"] == [1, 2, 3]
        dims = r.computed["dims"]
        assert all(v["full"] == v["restricted"] for v in dims.values())
    with pytest.raises(ValueError):
        verify_cor37(octahedron, 3, table)


def test_cor37_unmet_without_equality():
    cx = bipyramid(3).boundary
    r = verify_cor37(cx, 1, linear_table(cx, 1))
    assert r.verdict == "hypothesis_unmet"


@pytest.mark.parametrize("d", [3, 4])
def test_cor37_on_a_proper_cross_polytope_subcomplex_solves_nothing(
        monkeypatch, d):
    # Gamma, on pairs 1..d, lacks the two glued facets; its stress
    # dimensions are C(d, j) by theorem, so once the table's dimensions
    # are read (and solved), no space is built or solved
    cx = SimplicialComplex.from_facets(glued_cross_polytope(d),
                                       expect_cs=True)
    table = linear_table(cx, 1)
    assert cm_certificate(cx, table)["is_cm_witnessed"]
    work = []
    real = engine_module._int_nullspace
    monkeypatch.setattr(engine_module, "_int_nullspace",
                        lambda rows, ncols: work.append(ncols)
                        or real(rows, ncols))
    for module in (engine_module, claims_module):
        monkeypatch.setattr(module, "stress_space",
                            lambda *args: work.append(args))
    r = verify_cor37(cx, 1, table)
    assert r.verdict == "hypothesis_unmet"
    assert r.computed == {"degree": 1, "h": d + 2, "binomial": d}
    for i in range(2, d):
        r = verify_cor37(cx, i, table)
        assert r.verdict == "pass"
        assert r.computed["gamma_pairs"] == list(range(1, d + 1))
        assert r.computed["dims"] == {
            j: {"full": comb(d, j), "restricted": comb(d, j)}
            for j in range(i, d + 1)}
    assert work == []


def test_polytope_cor37():
    r = verify_polytope_cor37(cross_polytope(4), 1)
    assert r.verdict == "pass"
    assert r.computed["j"] == 2
    assert len(r.computed["hits"]) == 6  # all pairs from four axes
    with pytest.raises(ValueError):
        verify_polytope_cor37(cross_polytope(4), 2)
    with pytest.raises(ValueError):
        # d = 3 leaves no degree with 2i <= d - 2
        verify_polytope_cor37(bipyramid(4), 1)


# -- instance plumbing --------------------------------------------------------------------


def test_instance_from_json_dispatch():
    poly = instance_from_json(
        json.dumps({
            "name": "sq",
            "coordinates": {"1": ["1", "0"], "-1": ["-1", "0"],
                            "2": ["0", "1"], "-2": ["0", "-1"]},
            "facets": [[1, 2], [-1, 2], [1, -2], [-1, -2]],
        })
    )
    assert poly.polytope == cross_polytope(2)
    cx = instance_from_json('{"facets": [[1, 2]]}', fallback_name="edge")
    assert cx.polytope is None
    assert cx.name == "edge"
    with pytest.raises(InputError):
        instance_from_json('{"facets": [[1,2]], "name": 5}')
    with pytest.raises(InputError):
        instance_from_json('{"facets": [[1,2]], "expected": []}')


def test_run_claims_prefix_filter(corpus):
    small = [inst for inst in corpus if inst.name == "crosspoly_d2"]
    reports = run_claims(small, seed=1, claims=["Thm2.2"])
    assert {r.claim_id for r in reports} == {"Thm2.2.1", "Thm2.2.2"}
    reports = run_claims(small, seed=1, claims=["Cor"])
    assert {r.claim_id for r in reports} == {
        "Cor2.3.1", "Cor2.3.2", "Cor3.7.1", "Cor3.7.2",
    }
    with pytest.raises(InputError, match="'Thm35'"):
        run_claims(small, seed=1, claims=["Thm3.5", "Thm35"])


@pytest.fixture(scope="module")
def all_reports(corpus):
    return run_claims(corpus, seed=1)


@pytest.mark.parametrize("claim_id", CLAIM_IDS)
def test_selection_keeps_every_record(corpus, all_reports, claim_id):
    # only the selected families run, each on the tables it reads, and
    # they give the very records of a full run
    assert run_claims(corpus, 1, claims=[claim_id]) == [
        r for r in all_reports if r.claim_id == claim_id]


def test_run_claims_one_record_per_claim(corpus):
    reports = run_claims(corpus, seed=1)
    keys = [(r.instance, r.claim_id) for r in reports]
    assert len(keys) == len(set(keys))
    assert keys == sorted(keys)


def test_expect_mismatch_is_reported():
    inst = CorpusInstance(
        "wrong", SimplicialComplex([(1, 2), (-1, -2)]),
        expected={"h": [9, 9, 9]},
    )
    reports = run_claims([inst], seed=1, claims=["Expect"])
    (r,) = reports
    assert r.verdict == "fail"
    assert r.witness[0]["key"] == "h"


@pytest.mark.parametrize("key, value", [
    ("dim", True), ("cs", 0), ("f", [1.0, 3, 3]),
])
def test_expect_compares_json_types(key, value):
    # the triangle's boundary: dim 1, not cs, f = (1, 3, 3); True == 1,
    # 0 == False and 1.0 == 1 once let each of these pass
    triangle = SimplicialComplex([(1, 2), (2, 3), (1, 3)])
    right = {"dim": 1, "cs": False, "f": [1, 3, 3]}
    (ok,) = run_claims([CorpusInstance("right", triangle, expected=right)],
                       seed=1, claims=["Expect"])
    assert ok.verdict == "pass"
    inst = CorpusInstance("typed", triangle, expected={key: value})
    (r,) = run_claims([inst], seed=1, claims=["Expect"])
    assert r.verdict == "fail"
    assert r.witness == [{"key": key, "expected": value,
                          "computed": right[key]}]


def test_expect_unknown_key_fails():
    inst = CorpusInstance(
        "odd", SimplicialComplex([(1, 2), (-1, -2)]),
        expected={"euler": 0},
    )
    (r,) = run_claims([inst], seed=1, claims=["Expect"])
    assert r.verdict == "fail"
    assert r.witness[0]["reason"] == "not computable"


def test_non_cs_instances_only_get_generic_claims(corpus_by_name):
    inst = corpus_by_name["simplex2"]
    reports = run_claims([inst], seed=1)
    assert {r.claim_id for r in reports} == {"Expect", "CM"}


def test_linear_table_refuses_an_oversized_table_up_front(monkeypatch):
    # degree 10 of the 10-cross-polytope has 4 780 008 face-supported
    # monomials, past the limit; the face counts say so before any form
    # is sampled or any degree built
    def no_work(*args):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr(claims_module, "special_lsop", no_work)
    monkeypatch.setattr(claims_module, "stress_space", no_work)
    with pytest.raises(InputError, match="degree 10 has 4780008 "):
        linear_table(cross_polytope_boundary(10), 1)
