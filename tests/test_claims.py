from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csstress import (
    CorpusInstance,
    FormSequence,
    HypothesisUnmet,
    InputError,
    LinearForm,
    Monomial,
    Polynomial,
    PreconditionUnmet,
    SimplicialComplex,
    VerificationReport,
    bipyramid,
    canonical_forms,
    cross_polytope,
    derived_stress,
    instance_from_json,
    involution_action,
    is_stress,
    is_symmetric,
    merge_reports,
    pair_sum,
    polygon,
    run_claims,
    special_lsop,
    stress_space,
    verify_cor37,
    verify_cor_equivalence,
    verify_lbt,
    verify_lemma31,
    verify_lemma32_34,
    verify_polytope_cor37,
    verify_polytope_cor_equivalence,
    verify_polytope_lbt,
    verify_polytope_thm36,
    verify_thm35,
    verify_thm36,
)
import csstress.claims as claims_module
from csstress.engine import integer_family, is_integer_stress
from csstress.claims import (
    affine_table,
    instance_reports,
    linear_table,
    stress_table,
)
from oracles import (
    antipodal_link,
    brute_is_stress,
    brute_symmetric_derivative_dim,
    brute_symmetric_star_dim,
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


def test_lemma31_on_a_star_supported_stress(octahedron):
    seq = special_lsop(octahedron, seed=1)
    w = pair_sum(2) * pair_sum(3)  # lives on st(1), away from +-1
    r = verify_lemma31(octahedron, seq, w, 1, instance="oct")
    assert r.verdict == "pass"
    assert r.computed["terms"] == 4


def test_lemma31_zero_stress_is_vacuous(octahedron):
    seq = special_lsop(octahedron, seed=1)
    r = verify_lemma31(octahedron, seq, Polynomial.zero(), 1)
    assert r.verdict == "pass"


def test_lemma31_rejects_out_of_scope_inputs(octahedron):
    seq = special_lsop(octahedron, seed=1)
    asym = Polynomial.variable(2) * Polynomial.variable(3)
    with pytest.raises(PreconditionUnmet):
        verify_lemma31(octahedron, seq, asym, 1)
    not_stress = pair_sum(1) * pair_sum(1)
    with pytest.raises(PreconditionUnmet):
        verify_lemma31(octahedron, seq, not_stress, 1)
    off_star = pair_sum(2) * pair_sum(3)
    with pytest.raises(PreconditionUnmet):
        # w does not live on st(2): terms contain -2
        verify_lemma31(octahedron, seq, off_star, 2)


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
                assert is_symmetric(w)
                assert is_stress(cx, seq, w)
                for v in (k, -k):
                    assert verify_lemma31(cx, seq, w, v).verdict == "pass"
                    counted += 1
    record = next(r for r in instance_reports(inst, 1)
                  if r.claim_id == "Lem3.1")
    assert counted > 0
    assert record.computed == {"checked": counted}


def test_lemma31_suite_does_not_rederive_the_lemma(corpus_by_name,
                                                   monkeypatch):
    inst = corpus_by_name["crosspoly_d3"]
    want = next(r for r in instance_reports(inst, 1)
                if r.claim_id == "Lem3.1")

    def refuse(*args, **kwargs):
        raise AssertionError("verify_lemma31 called by the suite")

    monkeypatch.setattr(claims_module, "verify_lemma31", refuse)
    got = next(r for r in instance_reports(inst, 1)
               if r.claim_id == "Lem3.1")
    assert got.to_json_obj() == want.to_json_obj()


def test_lemma31_fails_on_a_stand_in_table(octahedron):
    # a stand-in degree-1 plus block that is not symmetric: x_2 + x_1
    # and x_3 + x_1, pivoted at x_2 and x_3.  No face holds both k and
    # -k.  Both vectors lie on st(k); on Γ_1 only their difference,
    # which only the rank finds; on Γ_2 only x_3 + x_1, and on Γ_3 only
    # x_2 + x_1.  The counts on st(-k) agree with those on Γ_k
    seq, spaces = linear_table(octahedron, 1)
    columns = spaces[1].columns
    x1, x2, x3 = ([j for j, m in enumerate(columns) if m.support == (v,)][0]
                  for v in (1, 2, 3))
    vectors = ((x2, {x2: 1, x1: 1}), (x3, {x3: 1, x1: 1}))
    stand_in = SimpleNamespace(dim=2, columns=columns,
                               blocks=(SimpleNamespace(vectors=vectors),))
    table = (seq, (spaces[0], stand_in, *spaces[2:]))
    r = claims_module._lemma31_suite(octahedron, table, "oct")
    assert r.verdict == "fail"
    assert r.witness == [{"vertex": k, "degree": 1, "star": 2, "gamma": 1}
                         for k in (1, 2, 3)]
    # one Γ_k vector in degree 1 and, each Γ_k being a 4-cycle, one in
    # degree 2, counted at both vertices ±k
    assert r.computed == {"checked": 2 * (3 + 3)}


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
        # the integer members of W_i are stresses of their block's
        # parity, each positive at its own pivot and 0 at the others'
        for sign, block in zip((1, -1), table[1][i].blocks):
            family = claims_module._subfamily(
                integer_family(block), claims_module._asymmetry)
            pivots = {p for p, _ in family}
            for pivot, terms in family:
                assert terms[pivot] > 0
                assert not set(terms) & (pivots - {pivot})
                assert brute_is_stress(cx.facets, rows, terms)
                w = Polynomial((Monomial(e), c) for e, c in terms.items())
                assert involution_action(w) == w.scale(sign)


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
    # monomial of coefficient 1, so the reduced vector is w itself
    items = w.items()
    pivot = next(j for j, (_, c) in enumerate(items) if c == 1)
    block = SimpleNamespace(
        columns=[m for m, _ in items],
        vectors=((pivot, {j: int(c) for j, (_, c) in enumerate(items)}),),
    )
    blocks = [SimpleNamespace(columns=(), vectors=())] * 2
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
    # a stress test that holds none of the derived polynomials; only
    # degree 3 transports, into degree 2
    monkeypatch.setattr(claims_module, "is_integer_stress",
                        lambda cx, forms, terms: False)
    r = verify_thm35(octahedron, (seq, spaces), 2)
    assert r.verdict == "fail"
    assert r.computed["transported"] == 12
    assert len(r.witness) == 12
    assert {f["reason"] for f in r.witness} == {
        "derived polynomial is not a stress"}


def test_thm35_transports_each_degree_once(corpus_by_name, monkeypatch):
    calls = []
    real = claims_module._transported
    monkeypatch.setattr(claims_module, "_transported",
                        lambda *a: calls.append(a) or real(*a))
    reports = instance_reports(corpus_by_name["crosspoly_d4"], 1)
    (thm35,) = [r for r in reports if r.claim_id == "Thm3.5"]
    # degree 2 reports the pairs of degrees 3 and 4, degree 3 those of 4
    assert [c["transported"] for c in thm35.computed] == [72, 24, 0]
    assert len(calls) == 72


@settings(max_examples=40, deadline=None)
@given(half=cs_facet_halves(), seed=st.integers(0, 99), data=st.data())
def test_fused_transport_agrees_with_derived_stress(half, seed, data):
    # a rational combination of degree-j stresses, maybe plus one stray
    # face monomial, carried along a vertex pair: the integer transport
    # is derived_stress scaled to integers, and is_integer_stress
    # decides it as is_stress and the dense oracle do
    cx = SimplicialComplex.from_facets(
        half + [[-v for v in f] for f in half], expect_cs=True
    )
    seq, spaces = linear_table(cx, seed)
    j = data.draw(st.integers(1, cx.dim + 1))
    coefficient = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    w = Polynomial.zero()
    for b in spaces[j].basis:
        w = w + b.scale(data.draw(coefficient))
    if data.draw(st.booleans()):
        stray = data.draw(st.sampled_from(spaces[j].columns))
        w = w + Polynomial([(stray, data.draw(coefficient.filter(bool)))])
    u1, u2 = data.draw(st.lists(st.sampled_from(cx.vertices), min_size=2,
                                max_size=2, unique=True))
    mult = lcm(*(c.denominator for c in w.terms.values()))
    terms = {m.exps: int(c * mult) for m, c in w.terms.items()}
    fused = claims_module._transported(terms, u1, u2)
    derived = derived_stress(w, u1, u2)
    assert fused == {m.exps: c * mult for m, c in derived.terms.items()}
    rows = [{v: f.coefficient(v) for v in cx.ground_set} for f in seq]
    want = brute_is_stress(cx.facets, rows, fused)
    assert is_integer_stress(cx, seq, fused) == want
    assert is_stress(cx, seq, derived) == want


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
