"""Acceptance gate: one test per advertised guarantee of the package.

Everything here is exact (Fraction arithmetic, integer equality); the only
tolerance anywhere is the wall-clock budget in the first test.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import comb

from csstress import (
    LinearForm,
    Monomial,
    Polynomial,
    canonical_forms,
    cross_polytope,
    cross_polytope_boundary,
    detect_cross_polytope_subcomplexes,
    lsop_check,
    run_claims,
    special_lsop,
    stress_space,
)
from csstress.claims import linear_table
from oracles import (
    form_derivative,
    brute_cross_polytope_pairs,
    brute_f_vector,
    dense_nullspace,
    dense_rank,
    h_from_f,
)


def test_01_cross_polytope_dimension_table_under_30s():
    started = time.monotonic()
    for d in (2, 3, 4, 5):
        cx = cross_polytope_boundary(d)
        seq = special_lsop(cx, seed=1)
        for i in range(d + 1):
            space = stress_space(cx, seq, i)
            assert space.dim == comb(d, i), (d, i)
            assert space.minus_dim == 0, (d, i)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"table took {elapsed:.1f}s"


def test_02_bipyramid_minus_dimensions(corpus_by_name):
    for m in (3, 4, 5):
        cx = corpus_by_name[f"bipyramid_m{m}"].complex
        vec = cx.fhg_vectors()
        assert list(vec.h) == h_from_f(brute_f_vector(cx.facets))
        assert vec.h == (1, 2 * m - 1, 2 * m - 1, 1)
        seq = special_lsop(cx, seed=1)
        for i in (1, 2):
            space = stress_space(cx, seq, i)
            assert space.minus_dim == m - 2, (m, i)


def test_03_affine_stress_dimensions(corpus_by_name):
    for m in (2, 3, 4):
        name = "crosspoly_d2" if m == 2 else f"polygon_m{m}"
        p = corpus_by_name[name].polytope
        forms = canonical_forms(p)
        space = stress_space(p.boundary, forms, 1)
        assert space.dim == 2 * m - 3, m
        assert space.minus_dim == m - 2, m
    for d in (2, 3, 4):
        p = cross_polytope(d)
        forms = canonical_forms(p)
        for i in range(1, d // 2 + 1):
            space = stress_space(p.boundary, forms, i)
            assert space.dim == comb(d, i) - comb(d, i - 1), (d, i)
            assert space.minus_dim == 0, (d, i)


def _sample_combination(rng, basis) -> Polynomial:
    """Random integer combination, one draw in [-9, 9] per basis element."""
    coeffs = [rng.randint(-9, 9) for _ in basis]
    return Polynomial(
        (m, k * c) for b, k in zip(basis, coeffs) for m, c in b.terms.items()
    )


def test_04_derivative_closure_on_100_sampled_pairs(corpus):
    rng = random.Random(20250814)
    pure = [
        inst for inst in corpus
        if inst.complex.is_pure() and inst.complex.dim >= 1
    ]
    tables = [linear_table(inst.complex, 1)[1] for inst in pure]
    checked = 0
    bad = []
    idx = 0
    while checked < 100:
        inst = pure[idx % len(pure)]
        table = tables[idx % len(pure)]
        idx += 1
        cx = inst.complex
        i = rng.randint(1, cx.dim + 1)
        if table[i].dim == 0:
            continue
        w = _sample_combination(rng, table[i].basis)
        if w.is_zero():
            continue
        coeffs = {v: rng.randint(-5, 5) for v in cx.ground_set}
        coeffs[cx.ground_set[0]] = coeffs[cx.ground_set[0]] or 1
        c = LinearForm(coeffs)
        dw = Polynomial((Monomial(exps), x) for exps, x in form_derivative(
            c.coeffs, {m.exps: x for m, x in w.terms.items()}).items())
        checked += 1
        if not (dw.is_zero() or table[i - 1].contains(dw)):
            bad.append((inst.name, i))
    assert checked == 100
    assert bad == []


def test_05_lemma_suite_has_zero_failures(corpus):
    reports = run_claims(corpus, seed=1, claims=["Lem"])
    assert reports, "no lemma records produced"
    failing = [r for r in reports if r.verdict == "fail"]
    assert failing == []
    assert any(r.verdict == "pass" for r in reports)


def test_06_equality_propagation_scan(corpus):
    reports = run_claims(corpus, seed=1, claims=["Thm3.6"])
    assert [r for r in reports if r.verdict == "fail"] == []
    # direct implication on the equality-case family
    for inst in corpus:
        if not inst.name.startswith("crosspoly"):
            continue
        vec = inst.complex.fhg_vectors()
        assert all(
            vec.h[j] == comb(vec.d, j) for j in range(vec.d + 1)
        ), inst.name


def test_07_cross_polytope_detection(corpus):
    import itertools

    for d in (2, 3, 4, 5):
        cx = cross_polytope_boundary(d)
        full = tuple(range(1, d + 1))
        assert detect_cross_polytope_subcomplexes(cx, d) == [full]
        for j in range(1, d):
            assert detect_cross_polytope_subcomplexes(cx, j) == [
                tuple(c) for c in itertools.combinations(full, j)
            ]
    for inst in corpus:
        cx = inst.complex
        if not cx.cs:
            continue
        if inst.name.startswith("bipyramid"):
            assert detect_cross_polytope_subcomplexes(cx, 3) == []
        if len({abs(v) for v in cx.vertices}) <= 6:
            for j in range(1, cx.dim + 2):
                assert detect_cross_polytope_subcomplexes(cx, j) == [
                    tuple(c)
                    for c in brute_cross_polytope_pairs(cx.facets, j)
                ], (inst.name, j)


def test_08_lsop_certification(corpus):
    for inst in corpus:
        cx = inst.complex
        if not (cx.cs and cx.is_pure()):
            continue
        seq = special_lsop(cx, seed=1)
        assert seq.attempts is not None and seq.attempts <= 8, inst.name
        assert lsop_check(cx, list(seq)), inst.name
        if cx.dim >= 1:
            repeated = [seq[0]] * len(seq)
            assert not lsop_check(cx, repeated), inst.name
        if inst.expected.get("cm") is True:
            d = cx.dim + 1
            assert stress_space(cx, seq, d + 1).dim == 0, inst.name


def test_09_linear_algebra_against_dense_oracle():
    from csstress.exactla import int_nullspace, int_rank

    rng = random.Random(424242)
    seen_shapes = set()
    for trial in range(50):
        nrows = rng.randint(1, 40)
        ncols = rng.randint(1, 60)
        seen_shapes.add((nrows, ncols))
        dense = [
            [
                Fraction(rng.randint(-20, 20), rng.randint(1, 7))
                if rng.random() < 0.4 else Fraction(0)
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ]
        rows = [{c: x for c, x in enumerate(row) if x} for row in dense]
        copy = [dict(row) for row in rows]
        r1, ns1 = int_rank(rows), int_nullspace(rows, ncols)
        r2, ns2 = int_rank(copy), int_nullspace(copy, ncols)
        assert (r1, ns1) == (r2, ns2), "not reproducible"
        assert r1 == dense_rank(dense), trial
        oracle = dense_nullspace(dense, ncols)
        assert len(ns1) == len(oracle) == ncols - r1, trial
        # each kernel vector divided by its entry at its free column is
        # the reduced basis vector, one per free column in ascending
        # order, so the two sides agree entry for entry
        assert [[Fraction(vec.get(c, 0), vec[f]) for c in range(ncols)]
                for f, vec in ns1] == oracle, trial
    assert len(seen_shapes) > 25
