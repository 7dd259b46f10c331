from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from csstress import exactla
from csstress.engine import _Block
from csstress.exactla import Columns, int_nullspace, int_rank, int_rref, rank_mod
from oracles import (
    column_index_eliminate,
    dense_nullspace,
    dense_rank,
    dense_rank_mod,
    same_span,
)


def random_dense(rng, nrows, ncols, density=0.5):
    return [
        [
            Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            if rng.random() < density else Fraction(0)
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


def to_rows(dense):
    return [{c: x for c, x in enumerate(row) if x} for row in dense]


def reduced_kernel(rows, ncols):
    """The reduced kernel basis from `int_nullspace`: each vector divided
    by its entry at its free column, as a dense list of Fractions."""
    return [[Fraction(vec.get(c, 0), vec[f]) for c in range(ncols)]
            for f, vec in int_nullspace(rows, ncols)]


def test_rank_and_nullspace_of_small_example():
    rows = to_rows([
        [1, 2, 3],
        [2, 4, 6],
        [0, 1, 1],
    ])
    assert int_rank(rows) == 2
    ns = reduced_kernel(rows, 3)
    assert len(ns) == 1
    (vec,) = ns
    # A v = 0, exactly
    assert all(
        sum(row[c] * vec[c] for c in range(3)) == 0
        for row in ([1, 2, 3], [0, 1, 1])
    )


def test_nullspace_vector_has_unit_free_coordinate():
    ns = reduced_kernel(to_rows([[1, 1, 0], [0, 0, 1]]), 3)
    assert len(ns) == 1
    (vec,) = ns
    assert vec == [Fraction(-1), Fraction(1), Fraction(0)]


def test_zero_matrix_nullspace_is_identity_like():
    rows = [{}, {}]
    assert int_rank(rows) == 0
    ns = reduced_kernel(rows, 3)
    assert len(ns) == 3
    assert ns == [
        [Fraction(int(i == j)) for j in range(3)] for i in range(3)
    ]


def test_rank_nullspace_match_dense_oracle_randomized():
    rng = random.Random(20240817)
    for _ in range(25):
        nrows = rng.randint(0, 12)
        ncols = rng.randint(1, 12)
        dense = random_dense(rng, nrows, ncols)
        rows = to_rows(dense)
        assert int_rank(rows) == dense_rank(dense)
        ours = reduced_kernel(rows, ncols)
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
    rows = to_rows(dense)
    assert int_rank(rows) + len(int_nullspace(rows, ncols)) == ncols


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
    # the matrix path is the dense oracle on the same rows
    assert int_rank(rows) == dense_rank(dense)
    assert reduced_kernel(rows, ncols) == dense_nullspace(dense, ncols)
    # one vector per free column, in ascending order: a column is free
    # when it adds nothing to the rank of the columns before it
    free = [c for c in range(ncols)
            if dense_rank([r[:c + 1] for r in dense])
            == dense_rank([r[:c] for r in dense])]
    assert [f for f, _ in int_nullspace(rows, ncols)] == free
    # a rank mod p never exceeds the rank over Q
    assert rank_mod(Columns.of(rows), 5) <= int_rank(rows)
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
    want = dense_rank_mod(dense, p)
    assert (rank_mod(Columns.of(rows), p) == rank_mod(Columns.of(columns), p)
            == want)
    assert want <= int_rank(rows) == dense_rank(dense)


@st.composite
def compressed_blocks(draw):
    """(Columns, dense rows, p) of a random block: some columns empty, some
    with every entry 0 mod p, and each column's rows in a drawn order, not
    ascending."""
    p = draw(st.sampled_from([3, 5, 32749]))
    nrows, ncols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    entry = (st.integers(-9, 9).filter(bool)
             | st.sampled_from([p, -p, 7 * p, 32749 * 3 * 5]))
    vectors = []
    for _ in range(ncols):
        kind = draw(st.sampled_from(("random", "empty", "zero mod p")))
        held = [] if kind == "empty" or not nrows else draw(st.lists(
            st.integers(0, nrows - 1), max_size=nrows, unique=True))
        values = (st.sampled_from([p, -2 * p, 11 * p])
                  if kind == "zero mod p" else entry)
        vectors.append({r: draw(values) for r in held})
    dense = [[vec.get(r, 0) for vec in vectors] for r in range(nrows)]
    return Columns.of(vectors), dense, p


@given(compressed_blocks())
@settings(max_examples=200, deadline=None)
def test_rank_mod_of_a_compressed_block_is_the_dense_rank(block):
    # the rank reads the block and leaves it as it was, and an exact solve
    # from the same block is `int_nullspace` of its rows
    matrix, dense, p = block
    copy = Columns(matrix.offsets[:], matrix.rows[:], matrix.values[:])
    assert rank_mod(matrix, p) == dense_rank_mod(dense, p)
    assert matrix == copy
    rows = [{c: x for c, x in enumerate(row) if x} for row in dense]
    solved = _Block(tuple(range(matrix.ncols)), matrix, 0)
    assert list(solved.vectors) == int_nullspace(rows, matrix.ncols)
    assert solved.matrix is None


def test_results_are_deterministic():
    rng = random.Random(7)
    dense = random_dense(rng, 8, 10)
    a = int_nullspace(to_rows(dense), 10)
    b = int_nullspace(to_rows(dense), 10)
    assert a == b


def test_large_sparse_system_stays_fast():
    # tall sparse system comparable to the heaviest in-package use
    rng = random.Random(5)
    rows = [{} for _ in range(400)]
    for r in range(400):
        for _ in range(4):
            rows[r][rng.randrange(150)] = Fraction(
                rng.randint(-1000, 1000)
            )
    rows = [{c: x for c, x in row.items() if x} for row in rows]
    r1 = int_rank(rows)
    ns = int_nullspace(rows, 150)
    assert r1 + len(ns) == 150


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
    assert reduced_kernel(rows, ncols) == dense_nullspace(dense, ncols)
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


@st.composite
def sparse_integer_rows(draw):
    """Sparse integer rows over columns with gaps between them, some rows
    empty, some sums or multiples of others so that updates cancel
    columns, and whole rows, to zero."""
    columns = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12,
                            unique=True))
    nonzero = st.integers(-3, 3).filter(bool)
    rows = [draw(st.dictionaries(st.sampled_from(columns), nonzero,
                                 max_size=6))
            for _ in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 4))):
        if not rows:
            break
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        k = draw(st.sampled_from([-2, -1, 1, 3]))
        combo = {c: a.get(c, 0) + k * b.get(c, 0) for c in a.keys() | b}
        rows.insert(draw(st.integers(0, len(rows))),
                    {c: x for c, x in combo.items() if x})
    return rows


def rank_mod_update(p):
    """An update over GF(p), on rows of residues: it cancels columns, and
    whole rows, far more often than the exact one."""
    def update(row, pivot, c):
        factor = row[c] * pow(pivot[c], -1, p)
        for col, val in pivot.items():
            new = (row.get(col, 0) - factor * val) % p
            if new:
                row[col] = new
            elif col in row:
                del row[col]
        return row
    return update


@given(sparse_integer_rows(), st.sampled_from([None, 2, 3, 32749]))
@settings(max_examples=200, deadline=None)
def test_forward_elimination_matches_the_column_index_reference(rows, p):
    # None: the exact fraction-free update; otherwise the update mod p,
    # which takes rows of residues
    if p is None:
        update = exactla._eliminate
    else:
        update = rank_mod_update(p)
        rows = [{c: x % p for c, x in row.items() if x % p} for row in rows]
    ours, theirs = ([dict(row) for row in rows] for _ in range(2))
    assert (exactla._forward_eliminate(ours, update)
            == column_index_eliminate(theirs, update))
    assert ours == theirs


def test_forward_elimination_of_one_wide_row_allocates_no_column_index():
    # a set per column cost about 21 MiB here
    rows = [{c: 1 for c in range(100_000)}]
    tracemalloc.start()
    try:
        exactla._forward_eliminate(rows, exactla._eliminate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@given(sparse_integer_rows(), st.integers(1, 6), st.booleans())
@settings(max_examples=100, deadline=None)
def test_kernel_of_a_taken_over_list_is_int_nullspace(rows, k, fractions):
    # scaled by k, so a row of ints has a common factor to divide out in
    # place, or divided by k, so a row of Fractions has denominators
    rows = [{c: Fraction(x, k) if fractions else k * x
             for c, x in row.items()} for row in rows]
    ncols = 1 + max((c for row in rows for c in row), default=0)
    before = [dict(row) for row in rows]
    want = int_nullspace(rows, ncols)
    assert rows == before
    taken = [dict(row) for row in rows]
    assert exactla._int_nullspace(taken, ncols) == want
    assert taken == []


@given(sparse_integer_rows(), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_integer_rows_read_int_and_fraction_entries_alike(rows, k):
    # scaled by k, so the gcd division has a common factor to remove
    ints = [{c: k * x for c, x in row.items()} for row in rows]
    fracs = [{c: Fraction(x) for c, x in row.items()} for row in ints]
    before = [dict(row) for row in ints]
    got = exactla._integer_rows(ints)
    assert got == exactla._integer_rows(fracs)
    assert all(type(x) is int for row in got for x in row.values())
    assert all(gcd(*row.values()) == 1 for row in got if row)
    assert ints == before
    assert not any(a is b for a, b in zip(got, ints))
