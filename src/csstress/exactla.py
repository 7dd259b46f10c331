"""Exact sparse linear algebra over the rationals.

Elimination is fraction-free: each row is scaled to integers and kept
gcd-reduced, and updates use cross-multiplication with the common factor
removed, so no rational division happens until basis extraction.  Pivoting
is deterministic: columns are resolved in ascending order and the pivot row
is the eligible row with the fewest nonzeros (ties by original row index).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import IndexMismatch


class SparseMatrix:
    """Immutable sparse rational matrix with optional column labels."""

    __slots__ = ("rows", "cols", "entries", "col_labels")

    def __init__(self, rows, cols, entries, col_labels=None):
        self.rows = rows
        self.cols = cols
        clean = {}
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) out of range")
            v = Fraction(v)
            if v:
                clean[(r, c)] = v
        self.entries = clean
        if col_labels is None:
            col_labels = tuple(range(cols))
        elif len(col_labels) != cols:
            raise ValueError("one label per column required")
        self.col_labels = tuple(col_labels)

    @classmethod
    def from_dense(cls, rows, col_labels=None) -> "SparseMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        entries = {}
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                if v:
                    entries[(r, c)] = Fraction(v)
        return cls(nrows, ncols, entries, col_labels=col_labels)


class Basis:
    """Reduced basis of a subspace of Q^columns.

    Each vector has value 1 at its own pivot coordinate and value 0 at the
    pivot coordinates of all other vectors, which makes membership testing
    a single reduction pass.
    """

    __slots__ = ("columns", "vectors", "pivots")

    def __init__(self, columns, vectors, pivots):
        self.columns = tuple(columns)
        self.vectors = tuple(tuple(Fraction(x) for x in v) for v in vectors)
        self.pivots = tuple(pivots)
        for v in self.vectors:
            if len(v) != len(self.columns):
                raise ValueError("vector length differs from column count")
        if len(self.pivots) != len(self.vectors):
            raise ValueError("one pivot per vector required")

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def reduce(self, vector) -> tuple:
        """Remainder of vector after subtracting its span components."""
        r = [Fraction(x) for x in vector]
        if len(r) != len(self.columns):
            raise IndexMismatch("vector length differs from column count")
        for vec, p in zip(self.vectors, self.pivots):
            coef = r[p]
            if coef:
                for j, x in enumerate(vec):
                    if x:
                        r[j] -= coef * x
        return tuple(r)

    def contains(self, vector) -> bool:
        return all(x == 0 for x in self.reduce(vector))


# -- integer row helpers ---------------------------------------------------


def _to_int_rows(matrix: SparseMatrix) -> list[dict[int, int]]:
    rows = [dict() for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        rows[r][c] = v
    out = []
    for row in rows:
        if not row:
            out.append({})
            continue
        mult = lcm(*(v.denominator for v in row.values()))
        ints = {c: int(v * mult) for c, v in row.items()}
        _gcd_normalize(ints)
        out.append(ints)
    return out


def _gcd_normalize(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g


def _eliminate(row, pivot, c):
    """Cross-multiplied update clearing column c of row against pivot."""
    a, p = row[c], pivot[c]
    g = gcd(a, p)
    fr, fp = p // g, a // g
    new = {col: val * fr for col, val in row.items()}
    for col, val in pivot.items():
        nv = new.get(col, 0) - val * fp
        if nv:
            new[col] = nv
        elif col in new:
            del new[col]
    _gcd_normalize(new)
    return new


def _forward_eliminate(rows, ncols):
    """Echelonize; returns [(pivot col, integer row)] in column order."""
    active = [(i, row) for i, row in enumerate(rows) if row]
    pivots = []
    for c in range(ncols):
        best = None
        for i, (idx, row) in enumerate(active):
            if c in row:
                key = (len(row), idx)
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            continue
        _, at = best
        _, pivot = active.pop(at)
        nxt = []
        for idx, row in active:
            if c in row:
                row = _eliminate(row, pivot, c)
                if row:
                    nxt.append((idx, row))
            else:
                nxt.append((idx, row))
        active = nxt
        pivots.append((c, pivot))
    return pivots


def _back_substitute(pivots):
    """Full reduction: clear every pivot column above its pivot row."""
    for i in range(len(pivots) - 1, -1, -1):
        c, pivot = pivots[i]
        for j in range(i):
            cj, rowj = pivots[j]
            if c in rowj:
                pivots[j] = (cj, _eliminate(rowj, pivot, c))
    return pivots


def rank(matrix: SparseMatrix) -> int:
    return len(_forward_eliminate(_to_int_rows(matrix), matrix.cols))


def nullspace(matrix: SparseMatrix) -> Basis:
    """Reduced basis of the right kernel, one vector per free column."""
    pivots = _back_substitute(
        _forward_eliminate(_to_int_rows(matrix), matrix.cols)
    )
    pivot_cols = [c for c, _ in pivots]
    taken = set(pivot_cols)
    free_cols = [c for c in range(matrix.cols) if c not in taken]
    vectors = []
    for f in free_cols:
        vec = [Fraction(0)] * matrix.cols
        vec[f] = Fraction(1)
        for c, row in pivots:
            if f in row:
                vec[c] = -Fraction(row[f], row[c])
        vectors.append(tuple(vec))
    return Basis(matrix.col_labels, vectors, free_cols)
