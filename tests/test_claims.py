from __future__ import annotations

import json

import pytest

from csstress import (
    CorpusInstance,
    FormSequence,
    HypothesisUnmet,
    InputError,
    LinearForm,
    Polynomial,
    PreconditionUnmet,
    SimplicialComplex,
    VerificationReport,
    bipyramid,
    canonical_forms,
    cross_polytope,
    derived_seed,
    derived_stress,
    instance_from_json,
    is_stress,
    merge_reports,
    pair_sum,
    polygon,
    run_claims,
    special_lsop,
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
from csstress.claims import (
    affine_table,
    instance_reports,
    linear_table,
    stress_table,
)
from oracles import brute_symmetric_star_dim


# -- report plumbing -------------------------------------------------------------


def test_report_validates_verdict():
    with pytest.raises(ValueError):
        VerificationReport("X", "inst", "maybe")
    with pytest.raises(ValueError):
        VerificationReport("X", "inst", "fail")  # fail needs a witness
    r = VerificationReport("X", "inst", "fail", witness={"reason": "r"})
    assert r.verdict == "fail"


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


def test_derived_seed_is_deterministic():
    assert derived_seed(1, "a", 2) == derived_seed(1, "a", 2)
    assert derived_seed(1, "a", 2) != derived_seed(1, "a", 3)
    assert 0 <= derived_seed("x") < 2**64


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


# -- squarefree / pair-sum structure -------------------------------------------------


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


def test_lemma32_34_on_octahedron(octahedron):
    table = linear_table(octahedron, 1)
    for i in (1, 2, 3):
        r = verify_lemma32_34(octahedron, table, i, seed=1)
        assert r.verdict == "pass"
        assert r.computed["checked"] > 0
        assert r.computed["skipped"] == 0


def test_lemma32_34_skips_when_derivatives_are_asymmetric():
    cx = bipyramid(3).boundary
    r = verify_lemma32_34(cx, linear_table(cx, 1), 2, seed=1)
    # bipyramid has antisymmetric 1-stresses, so degree-2 candidates with
    # asymmetric derivatives are skipped by the hypothesis filter
    assert r.verdict in ("pass", "hypothesis_unmet")
    assert r.computed["skipped"] > 0


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
    r = verify_thm35(octahedron, table, 2, seed=1, instance="oct")
    assert r.verdict == "pass"
    assert r.computed["minus_dims"] == {2: 0, 3: 0}
    assert r.computed["detected"] == {3: 1}
    assert r.computed["transported"] > 0
    with pytest.raises(ValueError):
        verify_thm35(octahedron, table, 1, seed=1)


def test_thm35_unmet_when_asymmetric_stresses_exist():
    cx = bipyramid(3).boundary
    r = verify_thm35(cx, linear_table(cx, 1), 2, seed=1)
    assert r.verdict == "hypothesis_unmet"


def test_thm35_requires_parity_pattern(octahedron):
    bad = FormSequence(
        [LinearForm({1: 1, -1: 1, 2: 1})] * 3, "custom"
    )
    with pytest.raises(HypothesisUnmet):
        verify_thm35(octahedron, stress_table(octahedron, bad, 3), 2, seed=1)


def test_thm35_accepts_minus_forms_with_all_ones_tail(octahedron):
    seq = canonical_forms(cross_polytope(3))
    r = verify_thm35(octahedron, stress_table(octahedron, seq, 3), 2, seed=1)
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
