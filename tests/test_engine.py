from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csstress.engine as engine_module
from csstress import (
    FormSequence,
    LengthMismatch,
    LinearForm,
    LsopNotFound,
    Monomial,
    NotCs,
    NotPure,
    NotSubcomplex,
    Polynomial,
    SimplicialComplex,
    apply_derivative,
    canonical_forms,
    cm_certificate,
    cross_polytope,
    cross_polytope_boundary,
    generic_lsop,
    involution_action,
    is_stress,
    is_symmetric,
    lsop_check,
    negate,
    pair_sum,
    polygon,
    restrict_stress_space,
    special_lsop,
    stress_space,
    vanishing_stress_space,
)
from csstress.claims import linear_table, stress_table
from csstress.engine import certify_dims, echelon_rows
from oracles import (
    brute_contains,
    brute_is_stress,
    brute_stress_bases,
    brute_stress_dim,
    dense_rank,
    same_span,
)
from strategies import cs_facet_halves, form_coefficient_lists, pure_facets

CS_COMPLEXES = cs_facet_halves().map(
    lambda half: SimplicialComplex.from_facets(
        half + [[-v for v in f] for f in half], expect_cs=True
    )
)

PURE_COMPLEXES = pure_facets().map(SimplicialComplex)


def sampled_lsop(cx, seed):
    return special_lsop(cx, seed) if cx.cs else generic_lsop(cx, seed)


def coeff_rows(forms, labels):
    return [
        {v: f.coefficient(v) for v in labels if f.coefficient(v)}
        for f in forms
    ]


# -- l.s.o.p. construction ------------------------------------------------------


def test_special_lsop_is_deterministic(octahedron):
    a = special_lsop(octahedron, seed=1)
    b = special_lsop(octahedron, seed=1)
    assert list(a) == list(b)
    assert a.kind == "special_lsop"
    assert a.seed == 1
    assert a.attempts >= 1
    assert len(a) == 3
    assert all(f.parity == "minus" for f in a)
    c = special_lsop(octahedron, seed=2)
    assert list(c) != list(a)


def test_special_lsop_coefficients_are_bounded(octahedron):
    seq = special_lsop(octahedron, seed=5)
    for f in seq:
        for v, c in f.items():
            assert abs(c) <= 10**6
            assert c.denominator == 1


def test_special_lsop_passes_rank_check(corpus):
    for inst in corpus:
        cx = inst.complex
        if not (cx.cs and cx.is_pure()):
            continue
        seq = special_lsop(cx, seed=11)
        assert lsop_check(cx, list(seq)), inst.name
        assert seq.attempts <= 8


def test_special_lsop_requires_cs():
    simplex = SimplicialComplex([(1, 2, 3)])
    with pytest.raises(NotCs):
        special_lsop(simplex, seed=1)


def test_special_lsop_requires_pure():
    mixed = SimplicialComplex.from_facets(
        [(1, 2), (-1, -2), (3,), (-3,)]
    )
    with pytest.raises(NotPure):
        special_lsop(mixed, seed=1)


def test_lsop_retry_budget_is_eight(octahedron, monkeypatch):
    calls = []
    monkeypatch.setattr(
        engine_module, "lsop_check",
        lambda cx, forms: calls.append(1) and False,
    )
    with pytest.raises(LsopNotFound) as err:
        engine_module.special_lsop(octahedron, seed=1)
    assert err.value.attempts == 8
    assert len(calls) == 8


def test_lsop_check_rejects_repeats(octahedron):
    seq = special_lsop(octahedron, seed=1)
    degenerate = [seq[0]] * 3
    assert not lsop_check(octahedron, degenerate)
    with pytest.raises(LengthMismatch):
        lsop_check(octahedron, [seq[0]])


@settings(max_examples=60, deadline=None)
@given(cx=st.one_of(CS_COMPLEXES, PURE_COMPLEXES), data=st.data(),
       prime=st.sampled_from([engine_module.PRIMES[0], 3]))
def test_lsop_check_matches_exact_facet_ranks(cx, data, prime):
    # small rational coefficients make rank-deficient facets common; the
    # prime 3 makes the exact fallback common too
    coeff = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
    forms = [
        LinearForm({v: data.draw(coeff) for v in cx.ground_set})
        for _ in range(cx.dim + 1)
    ]
    want = all(
        dense_rank([[f.coefficient(v) for v in facet] for f in forms])
        == len(facet)
        for facet in cx.facets
    )
    with mock.patch.object(engine_module, "PRIMES", (prime,)):
        assert lsop_check(cx, forms) == want


def test_generic_lsop_on_simplex():
    simplex = SimplicialComplex([(1, 2, 3)])
    seq = generic_lsop(simplex, seed=1)
    assert seq.kind == "custom"
    assert len(seq) == 3
    assert lsop_check(simplex, list(seq))


def test_canonical_forms_of_square():
    forms = canonical_forms(cross_polytope(2))
    assert forms.kind == "canonical_polytope"
    assert list(forms) == [
        LinearForm({1: 1, -1: -1}),
        LinearForm({2: 1, -2: -1}),
        LinearForm.all_ones([-2, -1, 1, 2]),
    ]


def test_form_sequence_kind_validation():
    minus = LinearForm({1: 1, -1: -1})
    plus = LinearForm.all_ones([1, -1])
    with pytest.raises(ValueError):
        FormSequence([plus], "special_lsop")
    with pytest.raises(ValueError):
        FormSequence([], "special_lsop")
    with pytest.raises(ValueError):
        FormSequence([plus, minus], "canonical_polytope")
    with pytest.raises(ValueError):
        FormSequence([minus], "bogus")
    assert len(FormSequence([minus, plus], "canonical_polytope")) == 2


# -- stress spaces ---------------------------------------------------------------


def test_octahedron_stress_dimensions(octahedron):
    seq = special_lsop(octahedron, seed=1)
    dims = [stress_space(octahedron, seq, i).dim for i in range(4)]
    assert dims == [1, 3, 3, 1]
    s2 = stress_space(octahedron, seq, 2)
    assert s2.plus_dim == 3 and s2.minus_dim == 0
    with pytest.raises(ValueError):
        stress_space(octahedron, seq, -1)


def test_stress_dims_vanish_above_top_degree(octahedron):
    seq = special_lsop(octahedron, seed=1)
    assert stress_space(octahedron, seq, 4).dim == 0
    assert stress_space(octahedron, seq, 5).dim == 0


def test_stress_basis_elements_are_stresses(octahedron):
    seq = special_lsop(octahedron, seed=1)
    for i in range(4):
        space = stress_space(octahedron, seq, i)
        for w in space.basis:
            assert is_stress(octahedron, seq, w)
            assert space.contains(w)


def test_stress_dims_match_first_principles(octahedron, hexagon, noncm):
    labels_oct = octahedron.ground_set
    seq = special_lsop(octahedron, seed=3)
    rows = coeff_rows(list(seq), labels_oct)
    for i in range(4):
        ours = stress_space(octahedron, seq, i).dim
        assert ours == brute_stress_dim(octahedron.facets, rows, i)

    forms = canonical_forms(hexagon)
    rows = coeff_rows(list(forms), hexagon.boundary.ground_set)
    for i in range(3):
        ours = stress_space(hexagon.boundary, forms, i).dim
        assert ours == brute_stress_dim(hexagon.boundary.facets, rows, i)

    seq = special_lsop(noncm, seed=3)
    rows = coeff_rows(list(seq), noncm.ground_set)
    for i in range(3):
        ours = stress_space(noncm, seq, i).dim
        assert ours == brute_stress_dim(noncm.facets, rows, i)


def test_noncm_dimensions_exceed_h(noncm):
    seq = special_lsop(noncm, seed=1)
    dims = [stress_space(noncm, seq, i).dim for i in range(3)]
    assert dims == [1, 2, 0]
    assert list(noncm.fhg_vectors().h) == [1, 2, -1]
    # every degree-1 stress is symmetric here
    s1 = stress_space(noncm, seq, 1)
    assert s1.minus_dim == 0
    assert all(is_symmetric(w) for w in s1.basis)


def test_hexagon_affine_dimensions(hexagon):
    forms = canonical_forms(hexagon)
    cx = hexagon.boundary
    table = [stress_space(cx, forms, i) for i in range(3)]
    assert [s.dim for s in table] == [1, 3, 0]
    assert table[1].plus_dim == 2 and table[1].minus_dim == 1
    # the affine degree-1 dim equals g_1 = h_1 - h_0
    assert table[1].dim == cx.fhg_vectors().g[1]


def test_minus_dims_follow_h_on_cs_cm_instances(corpus):
    for inst in corpus:
        cx = inst.complex
        if not (cx.cs and cx.is_pure()):
            continue
        vec = cx.fhg_vectors()
        if inst.expected.get("cm") is not True:
            continue
        d = vec.d
        seq = special_lsop(cx, seed=1)
        for i in range(d + 1):
            s = stress_space(cx, seq, i)
            assert s.dim == vec.h[i], (inst.name, i)
            assert s.minus_dim == Fraction(vec.h[i] - comb(d, i), 2), (
                inst.name, i,
            )
            assert s.plus_dim + s.minus_dim == s.dim


def test_split_absent_without_definite_parity():
    simplex = SimplicialComplex([(1, 2, 3)])
    seq = generic_lsop(simplex, seed=1)
    s = stress_space(simplex, seq, 1)
    assert s.plus_dim is None and s.minus_dim is None
    assert s.plus_basis is None and s.minus_basis is None


def test_top_stress_of_octahedron_is_the_pair_sum_product(octahedron):
    # minus-parity forms annihilate any polynomial in the pair sums, so
    # the one-dimensional top space is spanned by y_1 y_2 y_3
    seq = special_lsop(octahedron, seed=1)
    w = pair_sum(1) * pair_sum(2) * pair_sum(3)
    space = stress_space(octahedron, seq, 3)
    assert space.dim == 1
    assert is_stress(octahedron, seq, w)
    assert space.contains(w)
    assert is_symmetric(w)


def test_is_stress_rejects_off_complex_support(octahedron):
    seq = special_lsop(octahedron, seed=1)
    w = Polynomial.variable(1) * Polynomial.variable(-1)
    assert not is_stress(octahedron, seq, w)
    assert is_stress(octahedron, seq, Polynomial.zero())


def test_is_stress_requires_annihilation(octahedron):
    seq = special_lsop(octahedron, seed=1)
    w = Polynomial.variable(1)
    assert any(
        not apply_derivative(f, w).is_zero() for f in seq
    )
    assert not is_stress(octahedron, seq, w)


@settings(max_examples=40, deadline=None)
@given(cx=CS_COMPLEXES, seed=st.integers(0, 99))
def test_parity_blocks_match_dense_oracle(cx, seed):
    seq = special_lsop(cx, seed)
    rows = coeff_rows(list(seq), cx.ground_set)
    for i in range(cx.dim + 3):
        space = stress_space(cx, seq, i)
        assert space.dim == brute_stress_dim(cx.facets, rows, i), i
        assert all(is_symmetric(w) for w in space.plus_basis)
        assert all(involution_action(w) == -w for w in space.minus_basis)
        for w in space.basis:
            assert is_stress(cx, seq, w)
            assert space.contains(w)
        if i >= 1:
            # an l.s.o.p. derivative of a lone monomial is never zero
            lone = Polynomial([(space.columns[0], 1)])
            assert not is_stress(cx, seq, lone)
            assert not space.contains(lone)
            for w in space.basis:
                assert not space.contains(w + lone)


@settings(max_examples=40, deadline=None)
@given(cx=st.one_of(CS_COMPLEXES, PURE_COMPLEXES), seed=st.integers(0, 99))
def test_certified_dims_are_exact(cx, seed):
    seq = sampled_lsop(cx, seed)
    d = cx.dim + 1
    facets = cx.fhg_vectors().f[-1]
    _, spaces = stress_table(cx, seq, d)
    certified = certify_dims(spaces, facets)
    with mock.patch.object(engine_module, "int_nullspace",
                           wraps=engine_module.int_nullspace) as solve:
        fast = [(s.dim, s.plus_dim, s.minus_dim) for s in spaces]
    exact = [stress_space(cx, seq, i) for i in range(d + 1)]
    # the sum of the exact dims is f_{d-1} exactly when cx is CM
    assert certified == (sum(s.dim for s in exact) == facets)
    if not certified:
        return
    assert solve.call_count == 0
    rows = coeff_rows(list(seq), cx.ground_set)
    for i, s in enumerate(exact):
        assert fast[i] == (s.dim, s.plus_dim, s.minus_dim), i
        assert s.dim == brute_stress_dim(cx.facets, rows, i), i


def test_certified_zero_blocks_are_never_solved(corpus_by_name, monkeypatch):
    cx = corpus_by_name["crosspoly_d4"].complex
    seq, spaces = linear_table(cx, 1)
    solved = []
    real = engine_module.int_nullspace
    monkeypatch.setattr(engine_module, "int_nullspace",
                        lambda *a: solved.append(a) or real(*a))
    # minus_i = (h_i - C(d, i)) / 2 vanishes on a cross-polytope
    for s in (*spaces, vanishing_stress_space(cx, seq, 5)):
        assert s.minus_basis == [] and s.minus_dim == 0
    assert solved == []
    first = spaces[2].plus_basis
    assert len(first) == 6 and len(solved) == 1
    # each call hands out a new list of the same stresses
    again = spaces[2].plus_basis
    assert again == first and again is not first and len(solved) == 1


def test_contains_solves_no_block(octahedron, monkeypatch):
    seq = special_lsop(octahedron, seed=1)
    spaces = [stress_space(octahedron, seq, i) for i in range(4)]

    def refuse(*args):
        raise AssertionError("contains solved a block")

    monkeypatch.setattr(engine_module, "int_nullspace", refuse)
    top = pair_sum(1) * pair_sum(2) * pair_sum(3)
    cube = Polynomial([(Monomial([(1, 3)]), 1)])
    assert spaces[3].contains(top)
    assert not spaces[3].contains(top + cube)
    assert not spaces[2].contains(top)
    assert spaces[2].contains(pair_sum(1) * pair_sum(3))
    assert not spaces[1].contains(Polynomial.variable(2))


# -- echelon rows ----------------------------------------------------------------

RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


def drawn_polynomial(data, cx, cols, kernel, j):
    """A rational combination of the `kernel` vectors, degree-j
    stresses over the monomials `cols`, maybe plus one stray degree-j
    monomial: on a face, or off the complex (on the label 5, which no
    complex here has, or on two vertices that span no edge)."""
    terms = []
    for vec in kernel:
        r = data.draw(RATIONALS)
        terms += [(Monomial(m), r * x) for m, x in zip(cols, vec)]
    stray = data.draw(st.sampled_from(["none", "face", "off"]))
    coeff = data.draw(RATIONALS.filter(bool))
    if stray == "face":
        terms.append((Monomial(data.draw(st.sampled_from(cols))), coeff))
    elif stray == "off" and j > 0:
        pairs = [(5, 5)]
        if j > 1:
            pairs += [p for p in itertools.combinations(cx.ground_set, 2)
                      if not brute_contains(cx.facets, p)]
        u, v = data.draw(st.sampled_from(pairs))
        terms.append((Monomial([(u, j - 1), (v, 1)]), coeff))
    return Polynomial(terms)


@settings(max_examples=60, deadline=None)
@given(cx=st.one_of(CS_COMPLEXES, PURE_COMPLEXES), data=st.data())
def test_echelon_assembly_matches_dense_oracle_on_original_forms(cx, data):
    d = cx.dim + 1
    coeffs = data.draw(form_coefficient_lists(sorted(cx.ground_set), d + 1))
    forms = [LinearForm(c) for c in coeffs]
    rows = coeff_rows(forms, cx.ground_set)
    oracle = []  # (space, reduced basis of its kernel) per degree
    if len(forms) == d:
        want = all(
            dense_rank([[f.coefficient(v) for v in facet] for f in forms])
            == d
            for facet in cx.facets
        )
        assert lsop_check(cx, forms) == want
    for i in range(d + 2):
        space = stress_space(cx, forms, i)
        split = len(space.blocks) == 2
        assert split == (cx.cs and all(f.parity != "none" for f in forms))
        bases = brute_stress_bases(cx.facets, rows, i,
                                   [m.exps for m in space.columns], split)
        assert [[list(v) for v in b.basis.vectors] for b in space.blocks] \
            == bases, i
        if split:
            # the whole kernel, a system the split bases do not solve
            assert space.dim == brute_stress_dim(cx.facets, rows, i), i
            assert (space.plus_dim, space.minus_dim) == tuple(
                len(b) for b in bases), i
        else:
            assert space.dim == len(bases[0]), i
        oracle.append((space, [v for b in bases for v in b]))

    # membership, against the definition on the forms as drawn, from
    # the oracle's stresses; a stress of degree i + 1 is no degree-i
    # stress
    for i, (space, _) in enumerate(oracle):
        j = data.draw(st.sampled_from(range(i, min(i + 2, d + 2))))
        cols = [m.exps for m in oracle[j][0].columns]
        w = drawn_polynomial(data, cx, cols, oracle[j][1], j)
        want = brute_is_stress(cx.facets, rows,
                               {m.exps: c for m, c in w.terms.items()})
        assert is_stress(cx, forms, w) == want, (i, w)
        assert space.contains(w) == (want and (j == i or w.is_zero())), \
            (i, w)

    # each parity class is replaced by an integer basis of its own span
    echelon = echelon_rows(forms)
    labels = sorted({v for f in forms for v in f.coeffs})

    def dense(maps):
        return [[Fraction(m.get(v, 0)) for v in labels] for m in maps]

    for parity in ("minus", "plus", "none"):
        ours = [c for e, c in echelon if e == parity]
        theirs = [f.coeffs for f in forms if f.parity == parity]
        assert len(ours) == dense_rank(dense(theirs))
        assert same_span(dense(ours), dense(theirs))
        assert all(type(x) is int for c in ours for x in c.values())
        if parity != "none":
            assert all(LinearForm(c).parity == parity for c in ours)
    seq = FormSequence(forms, "custom")
    assert echelon_rows(seq) == echelon
    assert echelon_rows(seq) is echelon_rows(seq)


def test_kernel_vectors_scale_to_the_reduced_basis(corpus_by_name):
    # bipyramid_m5's stresses have coefficients past 200 bits.  Each
    # kernel vector is primitive, positive at its pivot and 0 at the
    # other pivots, and divided by its pivot entry it is the oracle's
    # reduced vector
    cx = corpus_by_name["bipyramid_m5"].complex
    seq, spaces = linear_table(cx, 1)
    rows = coeff_rows(list(seq), cx.ground_set)
    bits = 0
    for i, space in enumerate(spaces):
        bases = brute_stress_bases(cx.facets, rows, i,
                                   [m.exps for m in space.columns], True)
        for block, want in zip(space.blocks, bases):
            assert len(block.vectors) == len(want)
            pivots = {p for p, _ in block.vectors}
            for (p, vec), reduced in zip(block.vectors, want):
                assert vec[p] > 0 and gcd(*vec.values()) == 1
                assert not set(vec) & (pivots - {p})
                assert [Fraction(vec.get(j, 0), vec[p])
                        for j in range(len(space.columns))] == reduced
                bits = max(bits, *(x.bit_length() for x in vec.values()))
    assert bits > 200


def relabelled_cross_polytope(d, seed):
    """The d-cross-polytope boundary on seed-chosen pair labels, with the
    facets and their vertices in seed-chosen order, as the benchmark's
    `stress_crosspoly` input."""
    rng = random.Random(f"crosspoly:{seed}")
    labels = rng.sample(range(1, 3 * d + 1), d)
    facets = [
        [s * k for k, s in zip(labels, signs)]
        for signs in itertools.product((1, -1), repeat=d)
    ]
    for f in facets:
        rng.shuffle(f)
    rng.shuffle(facets)
    return SimplicialComplex.from_facets(facets, expect_cs=True)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_cross_polytope_block_columns_have_one_entry_per_vertex(d):
    cx = relabelled_cross_polytope(d, seed=d)
    seq = special_lsop(cx, seed=1)
    # each vertex's echelon coefficients form a +-unit vector
    for v in cx.ground_set:
        assert [abs(c[v]) for _, c in echelon_rows(seq) if v in c] == [1]
    for i in range(d + 1):
        space = stress_space(cx, seq, i)
        for block in space.blocks:
            for rep, column in zip(block.reps, block.matrix):
                # a degree-1 monomial reaches only the fixed row orbit of
                # 1, where antisymmetric forms have no symmetric part;
                # forms as drawn would put d entries per vertex
                vanish = i == 1 and block.sign == 1
                want = 0 if vanish else len(space.columns[rep].exps)
                assert len(column) == want, (i, block.sign, rep)


# -- restriction ------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(cx=CS_COMPLEXES, seed=st.integers(0, 99), data=st.data())
def test_restriction_matches_dense_oracle_on_subcomplexes(cx, seed, data):
    keep = data.draw(st.lists(st.sampled_from(cx.facets), min_size=1,
                              unique=True))
    if data.draw(st.booleans()):
        keep += [negate(f) for f in keep]
    sub = SimplicialComplex(keep)
    seq = special_lsop(cx, seed)
    rows = coeff_rows(list(seq), cx.ground_set)
    for i in range(cx.dim + 2):
        restricted = restrict_stress_space(stress_space(cx, seq, i), sub)
        assert restricted.dim == brute_stress_dim(sub.facets, rows, i), i
        for w in restricted.basis:
            assert is_stress(cx, seq, w)


def test_restriction_to_self_is_identity(octahedron):
    seq = special_lsop(octahedron, seed=1)
    s = stress_space(octahedron, seq, 2)
    assert restrict_stress_space(s, octahedron) is s


def test_restriction_to_equator_square(octahedron):
    square = SimplicialComplex.from_facets(
        [(1, 2), (2, -1), (-1, -2), (-2, 1)], expect_cs=True
    )
    seq = special_lsop(octahedron, seed=1)
    s2 = stress_space(octahedron, seq, 2)
    restricted = restrict_stress_space(s2, square)
    direct = stress_space(square, seq, 2)
    assert restricted.dim == direct.dim
    ours = [
        [w.coefficient(m) for m in direct.columns]
        for w in restricted.basis
    ]
    theirs = [
        [w.coefficient(m) for m in direct.columns] for w in direct.basis
    ]
    assert same_span(ours, theirs)


def test_restriction_requires_subcomplex(octahedron):
    other = SimplicialComplex([(1, 7)])
    seq = special_lsop(octahedron, seed=1)
    s = stress_space(octahedron, seq, 1)
    with pytest.raises(NotSubcomplex):
        restrict_stress_space(s, other)


# -- Cohen-Macaulay certificates ----------------------------------------------------


def test_certificate_on_octahedron(octahedron):
    cert = cm_certificate(octahedron, linear_table(octahedron, 1))
    assert cert["dims"] == [1, 3, 3, 1]
    assert cert["h"] == [1, 3, 3, 1]
    assert cert["is_cm_witnessed"] is True
    assert cert["definitive_non_cm"] is False
    assert cert["kind"] == "special_lsop"
    assert cert["seed"] == 1


def test_certificate_on_disjoint_edges(noncm):
    cert = cm_certificate(noncm, linear_table(noncm, 1))
    assert cert["dims"] == [1, 2, 0]
    assert cert["h"] == [1, 2, -1]
    assert cert["is_cm_witnessed"] is False
    assert cert["definitive_non_cm"] is True


def test_certificate_on_disjoint_triangles_falls_below_h():
    # h_3 = 1 counts the two components; a non-CM complex may have fewer
    # top-degree stresses than h says
    cx = SimplicialComplex([(1, 2, 3), (-1, -2, -3)])
    cert = cm_certificate(cx, linear_table(cx, 1))
    assert cert["dims"] == [1, 3, 0, 0]
    assert cert["h"] == [1, 3, -3, 1]
    assert cert["is_cm_witnessed"] is False
    assert cert["definitive_non_cm"] is True


def test_certificate_on_simplex_uses_generic_forms():
    simplex = SimplicialComplex([(1, 2, 3)])
    cert = cm_certificate(simplex, linear_table(simplex, 1))
    assert cert["dims"] == [1, 0, 0, 0]
    assert cert["is_cm_witnessed"] is True
    assert cert["kind"] == "custom"


# -- degrees above d ------------------------------------------------------------


def test_vanishing_space_matches_computed_spaces_above_d(corpus):
    for inst in corpus:
        cx = inst.complex
        if not cx.is_pure():
            continue
        d = cx.dim + 1
        sequences = [linear_table(cx, 1)[0]]
        if inst.polytope is not None:
            seq = canonical_forms(inst.polytope)
            assert lsop_check(cx, seq.forms[:d]), inst.name
            sequences.append(seq)
        for seq in sequences:
            for i in (d + 1, d + 2):
                fast = vanishing_stress_space(cx, seq, i)
                slow = stress_space(cx, seq, i)
                assert (fast.dim, fast.plus_dim, fast.minus_dim) == (
                    slow.dim, slow.plus_dim, slow.minus_dim
                ), (inst.name, seq.kind, i)
                assert fast.basis == slow.basis == []


def test_vanishing_space_refuses_degrees_up_to_d(octahedron):
    seq = special_lsop(octahedron, seed=1)
    with pytest.raises(ValueError):
        vanishing_stress_space(octahedron, seq, 3)
