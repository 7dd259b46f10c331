from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from csstress import (
    LinearForm,
    Monomial,
    ONE,
    Polynomial,
    SimplicialComplex,
    cross_polytope_boundary,
    delta_monomials,
    partial_derivative,
)
from csstress.polynomials import exps_divide, monomial_count, negated_exps
from oracles import (
    _face_monomials,
    brute_faces,
    brute_has_redundant_facet,
    divide_exps,
    exponent,
    mirror_exps,
    mirror_terms,
)
from strategies import cs_facet_halves, near_cs_facets, pure_facets

LABELS = [1, -1, 2, -2, 3, -3]


def mono(*vs) -> Monomial:
    return Monomial(sorted(Counter(vs).items()))


@st.composite
def polynomials(draw, degree=None):
    deg = degree if degree is not None else draw(st.integers(1, 3))
    n_terms = draw(st.integers(0, 4))
    terms = []
    for _ in range(n_terms):
        combo = draw(
            st.lists(st.sampled_from(LABELS), min_size=deg, max_size=deg)
        )
        coeff = draw(st.integers(-5, 5))
        terms.append((mono(*combo), coeff))
    return Polynomial(terms)


# -- monomials -----------------------------------------------------------------


def test_monomial_text_and_degree():
    m = mono(1, -2, -2)
    assert m.degree == 3
    assert m.support == (-2, 1)
    assert m.text() == "x_1 x_-2^2"


def test_monomial_canonical_order_interleaves_signs():
    ms = sorted([mono(-1), mono(2), mono(1), mono(-2)],
                key=lambda m: m.sort_key())
    assert ms == [mono(1), mono(-1), mono(2), mono(-2)]


def test_exps_divide():
    assert exps_divide(mono(1, 1, 2).exps, 1) == (2, mono(1, 2).exps)
    assert exps_divide(mono(1, 2).exps, 3) == (0, mono(1, 2).exps)


def test_monomial_product_merges_exponents():
    assert mono(1, 2) * mono(1, -3) == mono(1, 1, 2, -3)
    assert mono(1) * ONE == mono(1)


MONOMIAL_LABELS = st.lists(st.sampled_from(LABELS), max_size=5)


@given(MONOMIAL_LABELS, MONOMIAL_LABELS)
@example([1, -1, 2], [-1, 2, 2])  # shared variables
@example([2, 3], [-2, -3, 1])  # only +-k pairs across the factors
@example([], [-3])
def test_monomial_product_matches_the_normalising_constructor(vs, ws):
    m1, m2 = mono(*vs), mono(*ws)
    slow = Monomial(m1.exps + m2.exps)
    product = m1 * m2
    assert product.exps == slow.exps
    assert product.degree == slow.degree
    assert hash(product) == hash(slow)


# -- polynomials ----------------------------------------------------------------


def test_polynomial_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        Polynomial([(mono(1), 1), (mono(1, 2), 1)])
    for op in (Polynomial.__add__, Polynomial.__sub__):
        with pytest.raises(ValueError):
            op(Polynomial.variable(1), Polynomial([(mono(1, 2), 1)]))


def test_polynomial_accumulates_and_drops_zeros():
    p = Polynomial([(mono(1), 2), (mono(1), -2), (mono(2), 1)])
    assert p == Polynomial.variable(2)
    assert Polynomial([(mono(1), 0)]).is_zero()
    assert Polynomial.zero().degree is None


def test_polynomial_text_is_canonical():
    p = Polynomial([(mono(-1, 2), Fraction(1, 2)), (mono(1, 1), 3)])
    assert p.text() == "3 * x_1^2 + 1/2 * x_-1 x_2"


def test_arithmetic_basics():
    x1, x2 = Polynomial.variable(1), Polynomial.variable(2)
    assert (x1 + x2) - x1 == x2
    assert (x1 * x2).coefficient(mono(1, 2)) == 1
    assert x1.scale(Fraction(3, 4)).coefficient(mono(1)) == Fraction(3, 4)


# -- fast paths against the normalising constructor -----------------------------


def rebuilt(terms) -> Polynomial:
    """The polynomial of a raw term list, through the normalising path."""
    return Polynomial(list(terms))


def mirror(w: Polynomial) -> Polynomial:
    """w under x_v -> x_{-v}, term by term."""
    return Polynomial((Monomial(mirror_exps(m.exps)), c)
                      for m, c in w.terms.items())


def assert_normal(got: Polynomial, want: Polynomial):
    assert got.terms == want.terms
    for c in got.terms.values():
        assert type(c) is Fraction and c != 0
    for m in got.terms:
        assert m.degree == sum(e for _, e in m.exps) == want.degree


@st.composite
def polynomial_pairs(draw):
    """(w, v) of one degree, v often cancelling some of the terms of w."""
    w = draw(polynomials())
    deg = w.degree or draw(st.integers(1, 3))
    terms = []
    for m, c in w.terms.items():
        pick = draw(st.sampled_from(["drop", "same", "opposite", "other"]))
        if pick == "same":
            terms.append((m, c))
        elif pick == "opposite":
            terms.append((m, -c))
        elif pick == "other":
            terms.append((m, draw(st.integers(-5, 5))))
    terms += draw(polynomials(degree=deg)).terms.items()
    return w, Polynomial(terms)


MIXED = Polynomial([(mono(1, -1, -1), 2), (mono(-1, 1, 1), -2),
                    (mono(2, -2, 3), 1), (mono(-2, 2, -3), 1)])


@given(polynomial_pairs(), st.integers(-3, 3), st.sampled_from(LABELS))
@example((MIXED, MIXED), 0, -1)
@example((MIXED, -MIXED), 2, 1)
@settings(max_examples=150, deadline=None)
def test_fast_paths_match_the_normalising_constructor(pair, k, v):
    w, u = pair
    items, others = list(w.terms.items()), list(u.terms.items())
    assert_normal(w + u, rebuilt(items + others))
    assert_normal(w - u, rebuilt(items + [(m, -c) for m, c in others]))
    assert_normal(-w, rebuilt((m, -c) for m, c in items))
    assert_normal(w.scale(k), rebuilt((m, k * c) for m, c in items))
    assert_normal(w * u, rebuilt((m1 * m2, c1 * c2) for m1, c1 in items
                                 for m2, c2 in others))
    assert_normal(partial_derivative(w, v), rebuilt(
        (Monomial(divide_exps(m.exps, v)), c * exponent(m.exps, v))
        for m, c in items if exponent(m.exps, v)
    ))
    for m, _ in items:
        assert negated_exps(m.exps) == mirror_exps(m.exps)
        for x in m.support:
            assert exps_divide(m.exps, x) == (exponent(m.exps, x),
                                              divide_exps(m.exps, x))


# -- linear forms ---------------------------------------------------------------


def test_linear_form_parity_classification():
    minus = LinearForm({1: 2, -1: -2})
    plus = LinearForm({1: 2, -1: 2})
    neither = LinearForm({1: 2, -1: 1})
    assert minus.parity == "minus"
    assert plus.parity == "plus"
    assert neither.parity == "none"


def test_minus_combination_and_all_ones():
    f = LinearForm.minus_combination({1: 3, 2: -1})
    assert f.parity == "minus"
    assert f.coefficient(1) == 3 and f.coefficient(-1) == -3
    with pytest.raises(ValueError):
        LinearForm.minus_combination({-1: 3})
    ones = LinearForm.all_ones([1, -1, 2, -2])
    assert ones.parity == "plus"
    assert all(ones.coefficient(v) == 1 for v in (1, -1, 2, -2))


def test_canonical_square_forms():
    from csstress import canonical_forms, cross_polytope

    forms = canonical_forms(cross_polytope(2))
    assert [f.parity for f in forms] == ["minus", "minus", "plus"]
    assert forms[0] == LinearForm({1: 1, -1: -1})
    assert forms[1] == LinearForm({2: 1, -2: -1})
    assert forms[2] == LinearForm.all_ones([1, -1, 2, -2])


# -- monomial bases --------------------------------------------------------------


@pytest.mark.parametrize(
    "i,count",
    [(0, 1), (1, 10), (3, 170), (4, 450), (5, 1002)],
)
def test_monomial_basis_counts_on_crosspoly_d5(i, count):
    cx = cross_polytope_boundary(5)
    ms = delta_monomials(cx, i)
    assert len(ms) == count
    # independent count: a face of size k supports C(i-1, k-1) monomials
    faces_of_size = {k: comb(5, k) * 2**k for k in range(6)}
    expected = sum(
        n * comb(i - 1, k - 1)
        for k, n in faces_of_size.items()
        if 1 <= k <= i
    ) if i else 1
    assert count == expected
    assert ms == sorted(ms, key=lambda m: m.sort_key())
    assert all(m.degree == i for m in ms)


@settings(max_examples=80, deadline=None)
@given(facets=st.one_of(
    near_cs_facets(),
    cs_facet_halves().map(lambda h: h + [[-v for v in f] for f in h])))
def test_representative_walk_is_the_full_walk_from_positive_vertices(
        facets):
    # degrees 0..d+1: the walk started at positive vertices only lists
    # the full walk's monomials whose first vertex is positive, in its
    # order; on a cs complex these are one monomial of each orbit
    # {m, sigma m}
    assume(not brute_has_redundant_facet(facets))
    cx = SimplicialComplex(facets)
    for i in range(cx.dim + 3):
        full = [m.exps for m in delta_monomials(cx, i)]
        reps = [m.exps for m in delta_monomials(cx, i, True)]
        assert reps == [e for e in full if not e or e[0][0] > 0], i
        if cx.cs and i:
            mirrors = mirror_terms(dict.fromkeys(reps))
            assert len(full) == 2 * len(reps), i
            assert set(full) == set(reps) | set(mirrors), i


@settings(max_examples=150, deadline=None)
@given(facets=st.one_of(pure_facets(), near_cs_facets()))
def test_delta_monomials_match_the_face_oracle_in_order(facets):
    # the depth-first walk against every multiset of vertices filtered by
    # face membership and sorted by key; faces may hold {v, -v}
    assume(not brute_has_redundant_facet(facets))
    cx = SimplicialComplex(facets)
    faces = brute_faces(facets)
    for i in range(5):
        expected = sorted(map(Monomial, _face_monomials(faces, i)),
                          key=Monomial.sort_key)
        ms = delta_monomials(cx, i)
        assert [m.exps for m in ms] == [m.exps for m in expected], i
        assert all(m.degree == i for m in ms)
        assert len(ms) == monomial_count(cx, i)


def test_monomial_basis_respects_missing_faces(noncm):
    ms = delta_monomials(noncm, 2)
    supports = {m.support for m in ms}
    assert (1, 2) in {tuple(sorted(s)) for s in supports}
    assert all(set(m.support) != {1, -2} for m in ms)


# -- derivatives -----------------------------------------------------------------


def test_partial_derivative_basic():
    w = Polynomial([(mono(1, 1), 1), (mono(1, 2), 3)])
    assert partial_derivative(w, 1) == Polynomial(
        [(mono(1), 2), (mono(2), 3)]
    )
    assert partial_derivative(w, 3).is_zero()
    assert partial_derivative(Polynomial.variable(1), 1) == (
        Polynomial.constant(1)
    )
    assert partial_derivative(Polynomial.constant(5), 1).is_zero()


@given(polynomials(), st.sampled_from(LABELS), st.sampled_from(LABELS))
@settings(max_examples=60, deadline=None)
def test_derivatives_commute(w, u, v):
    a = partial_derivative(partial_derivative(w, u), v)
    b = partial_derivative(partial_derivative(w, v), u)
    assert a == b


@given(polynomials(), st.sampled_from([1, 2, 3]))
@settings(max_examples=60, deadline=None)
def test_involution_swaps_derivative_signs(w, k):
    lhs = mirror(partial_derivative(w, k))
    rhs = partial_derivative(mirror(w), -k)
    assert lhs == rhs


# -- the involution --------------------------------------------------------------


@given(polynomials())
@settings(max_examples=80, deadline=None)
def test_involution_is_an_involution(w):
    assert mirror(mirror(w)) == w
