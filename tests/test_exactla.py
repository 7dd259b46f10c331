from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csstress import Basis, SparseMatrix, nullspace, rank
from csstress.exactla import int_nullspace, int_rank, int_rref, rank_mod
from oracles import dense_nullspace, dense_rank, dense_rank_mod, same_span


def random_dense(rng, nrows, ncols, density=0.5):
    return [
        [
            Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            if rng.random() < density else Fraction(0)
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


def to_sparse(dense, ncols):
    entries = {
        (r, c): x
        for r, row in enumerate(dense)
        for c, x in enumerate(row)
        if x
    }
    return SparseMatrix(len(dense), ncols, entries)


def test_sparse_matrix_validates_entries():
    with pytest.raises(ValueError):
        SparseMatrix(1, 1, {(2, 0): Fraction(1)})
    with pytest.raises(ValueError):
        SparseMatrix.from_dense([[1, 2], [3]])


def test_rank_and_nullspace_of_small_example():
    m = SparseMatrix.from_dense([
        [1, 2, 3],
        [2, 4, 6],
        [0, 1, 1],
    ])
    assert rank(m) == 2
    ns = nullspace(m)
    assert ns.dim == 1
    (vec,) = ns.vectors
    # A v = 0, exactly
    assert all(
        sum(row[c] * vec[c] for c in range(3)) == 0
        for row in ([1, 2, 3], [0, 1, 1])
    )


def test_nullspace_vector_has_unit_free_coordinate():
    m = SparseMatrix.from_dense([[1, 1, 0], [0, 0, 1]])
    ns = nullspace(m)
    assert ns.dim == 1
    (vec,) = ns.vectors
    assert vec == (Fraction(-1), Fraction(1), Fraction(0))


def test_zero_matrix_nullspace_is_identity_like():
    m = SparseMatrix(2, 3, {})
    assert rank(m) == 0
    ns = nullspace(m)
    assert ns.dim == 3
    assert ns.vectors == tuple(
        tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)
    )


def test_rank_nullspace_match_dense_oracle_randomized():
    rng = random.Random(20240817)
    for _ in range(25):
        nrows = rng.randint(0, 12)
        ncols = rng.randint(1, 12)
        dense = random_dense(rng, nrows, ncols)
        m = to_sparse(dense, ncols)
        assert rank(m) == dense_rank(dense)
        ours = [list(v) for v in nullspace(m).vectors]
        theirs = dense_nullspace(dense, ncols)
        assert len(ours) == len(theirs)
        assert same_span(ours, theirs)
        for vec in ours:
            for row in dense:
                assert sum(a * b for a, b in zip(row, vec)) == 0


@given(st.integers(0, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_rank_nullity_theorem(nrows, ncols, seed):
    dense = random_dense(random.Random(seed), nrows, ncols)
    m = to_sparse(dense, ncols)
    assert rank(m) + nullspace(m).dim == ncols


@given(st.integers(0, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_integer_row_entry_points_match_the_matrix_path(nrows, ncols, seed):
    rng = random.Random(seed)
    # a shared factor per row, so the rows are not gcd-reduced
    rows = [
        {c: 6 * rng.randint(-2, 2) for c in range(ncols)}
        for _ in range(nrows)
    ]
    rows = [{c: v for c, v in row.items() if v} for row in rows]
    before = [dict(row) for row in rows]
    dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    m = to_sparse(dense, ncols)
    assert int_rank(rows) == rank(m) == dense_rank(dense)
    ours = Basis.from_integer(range(ncols), int_nullspace(rows, ncols))
    theirs = nullspace(m)
    assert ours.vectors == theirs.vectors
    assert ours.pivots == theirs.pivots
    assert ours.columns == tuple(range(ncols))
    # a rank mod p never exceeds the rank over Q
    assert rank_mod(rows, 5) <= rank(m)
    assert rows == before


@st.composite
def integer_matrices(draw):
    """Tall, wide or square integer matrices, some rows zero or repeated.

    Besides random ones, two structured shapes make pivots write columns
    that the row they reduce did not hold: an arrowhead (dense first row
    and column plus a diagonal) and a dense row above a band.
    """
    nrows, ncols = draw(st.integers(0, 9)), draw(st.integers(1, 9))
    entries = st.integers(-40, 40) | st.sampled_from([0, 3, 32749, 32749 * 7])
    nonzero = entries.filter(bool)
    shape = draw(st.sampled_from(("random", "arrowhead", "band")))
    if shape == "random":
        rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols))
                for _ in range(nrows)]
    elif shape == "arrowhead":
        rows = [[0] * ncols for _ in range(ncols)]
        for i in range(ncols):
            rows[0][i], rows[i][0] = draw(nonzero), draw(nonzero)
            rows[i][i] = draw(nonzero)
    else:
        width = draw(st.integers(1, 3))
        rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols))]
        for i in range(ncols):
            rows.append([draw(nonzero) if i <= c < i + width else 0
                         for c in range(ncols)])
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, draw(st.sampled_from(rows + [[0] * ncols])))
    return rows, ncols


@given(integer_matrices(), st.sampled_from([3, 32749]))
@settings(max_examples=150, deadline=None)
def test_rank_mod_is_the_same_on_rows_and_columns(matrix, p):
    dense, ncols = matrix
    rows = [{c: x for c, x in enumerate(row) if x} for row in dense]
    columns = [{r: row[c] for r, row in enumerate(dense) if row[c]}
               for c in range(ncols)]
    before = ([dict(row) for row in rows], [dict(col) for col in columns])
    want = dense_rank_mod(dense, p)
    assert rank_mod(rows, p) == rank_mod(columns, p) == want
    assert (rows, columns) == before
    assert want <= int_rank(rows) == dense_rank(dense)


def test_results_are_deterministic():
    rng = random.Random(7)
    dense = random_dense(rng, 8, 10)
    a = nullspace(SparseMatrix.from_dense(dense))
    b = nullspace(SparseMatrix.from_dense(dense))
    assert a.vectors == b.vectors
    assert a.pivots == b.pivots


def test_basis_dimension_and_validation():
    vectors = [
        (Fraction(1), Fraction(0), Fraction(2)),
        (Fraction(0), Fraction(1), Fraction(-1)),
    ]
    b = Basis((0, 1, 2), vectors, pivots=(0, 1))
    assert b.dim == 2
    with pytest.raises(ValueError):
        Basis((0, 1, 2), [(Fraction(1),)], pivots=(0,))
    with pytest.raises(ValueError):
        Basis((0, 1, 2), vectors, pivots=(0,))


def test_large_sparse_system_stays_fast():
    # tall sparse system comparable to the heaviest in-package use
    rng = random.Random(5)
    entries = {}
    for r in range(400):
        for _ in range(4):
            entries[(r, rng.randrange(150))] = Fraction(
                rng.randint(-1000, 1000)
            )
    m = SparseMatrix(400, 150, entries)
    r1 = rank(m)
    ns = nullspace(m)
    assert r1 + ns.dim == 150


@given(integer_matrices())
@settings(max_examples=100, deadline=None)
def test_int_rref_is_the_reduced_echelon_form_in_coprime_integers(matrix):
    dense, ncols = matrix
    rows = [{c: x for c, x in enumerate(row) if x} for row in dense]
    before = [dict(row) for row in rows]
    reduced = int_rref(rows)
    pivots = [min(row) for row in reduced]
    assert len(reduced) == dense_rank(dense)
    assert pivots == sorted(set(pivots))
    for row, c in zip(reduced, pivots):
        assert row[c] > 0 and gcd(*row.values()) == 1
        # zero on every other pivot column: the unique reduced form
        assert not set(row) & (set(pivots) - {c})
    as_dense = [[row.get(c, 0) for c in range(ncols)] for row in reduced]
    assert same_span(as_dense, dense)
    # the kernel basis reduced on the free columns is unique too
    kernel = Basis.from_integer(range(ncols), int_nullspace(rows, ncols))
    assert [list(v) for v in kernel.vectors] == dense_nullspace(dense, ncols)
    assert rows == before


@st.composite
def large_entry_matrices(draw):
    """Wide integer matrices with entries of up to 48 bits, whose kernel
    vectors reach heights past 200 bits."""
    ncols = draw(st.integers(2, 8))
    nrows = draw(st.integers(1, ncols - 1))
    big = st.integers(-2**48, 2**48)
    return [[draw(big) for _ in range(ncols)] for _ in range(nrows)], ncols


def check_integer_kernel(dense, ncols):
    """int_nullspace of dense: one primitive vector per free column,
    positive there and 0 at the other free columns, which divided by that
    entry is the reduced kernel vector of the oracle.  Returns the
    largest entry's bit length."""
    rows = [{c: x for c, x in enumerate(row) if x} for row in dense]
    kernel = int_nullspace(rows, ncols)
    reduced = dense_nullspace(dense, ncols)
    free = {f for f, _ in kernel}
    assert len(kernel) == len(reduced)
    for (f, vec), want in zip(kernel, reduced):
        assert all(type(x) is int and x for x in vec.values())
        assert vec[f] > 0 and gcd(*vec.values()) == 1
        assert not set(vec) & (free - {f})
        assert [Fraction(vec.get(c, 0), vec[f]) for c in range(ncols)] == want
    return max((x.bit_length() for _, vec in kernel for x in vec.values()),
               default=0)


@given(integer_matrices() | large_entry_matrices())
@settings(max_examples=100, deadline=None)
def test_int_nullspace_vectors_scale_to_the_reduced_basis(matrix):
    check_integer_kernel(*matrix)


def test_int_nullspace_keeps_heights_past_200_bits():
    rng = random.Random(7)
    dense = [[rng.randint(-2**48, 2**48) for _ in range(8)] for _ in range(6)]
    assert check_integer_kernel(dense, 8) > 200
