"""Exact sparse linear algebra over the rationals, and rank mod a prime.

Every rank and kernel goes through one forward elimination with one pivot
rule: columns are resolved in ascending order, a column -> rows index
finds the rows holding each column, and the pivot is the sparsest of them
(ties by row index).  Only the row update differs between the two fields.

Over Q the update is fraction-free: each row is scaled to coprime
integers, and updates cross-multiply and remove the common factor, so no
rational division happens until basis extraction.  `int_rank`, `int_rref`
and `int_nullspace` take integer rows, dicts {column: value}, directly;
`rank` and `nullspace` split a `SparseMatrix` into such rows.
`rank_mod` works over GF(p) on residue copies of the rows, `_rank_mod`
on the rows of a list it takes over.  Entries stay below p, so this
costs a fraction of the exact path, and for an integer matrix rank mod
p <= rank over Q: every minor that is nonzero mod p is a nonzero
integer.  Callers use it where that inequality certifies the answer and
fall back to the exact path where it does not.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class SparseMatrix:
    """Immutable sparse rational matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
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

    @classmethod
    def from_dense(cls, rows) -> "SparseMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        entries = {}
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                if v:
                    entries[(r, c)] = Fraction(v)
        return cls(nrows, ncols, entries)


class Basis:
    """Reduced basis of a subspace of Q^columns: each vector has value 1
    at its own pivot coordinate and value 0 at the pivot coordinates of
    all other vectors."""

    __slots__ = ("columns", "vectors", "pivots")

    def __init__(self, columns, vectors, pivots):
        self.columns = tuple(columns)
        self.vectors = tuple(
            tuple(x if isinstance(x, Fraction) else Fraction(x) for x in v)
            for v in vectors
        )
        self.pivots = tuple(pivots)
        for v in self.vectors:
            if len(v) != len(self.columns):
                raise ValueError("vector length differs from column count")
        if len(self.pivots) != len(self.vectors):
            raise ValueError("one pivot per vector required")

    @classmethod
    def from_integer(cls, columns, kernel) -> "Basis":
        """The reduced basis of the pairs (f, vector) of `int_nullspace`,
        vectors over the positions of `columns`: each divided by its
        entry at f."""
        vectors = []
        for f, vec in kernel:
            dense = [Fraction(0)] * len(columns)
            for c, x in vec.items():
                dense[c] = Fraction(x, vec[f])
            vectors.append(dense)
        return cls(columns, vectors, [f for f, _ in kernel])

    @property
    def dim(self) -> int:
        return len(self.vectors)


# -- integer row helpers ---------------------------------------------------


def _integer_rows(rows) -> list[dict[int, int]]:
    """Copies of rows, dicts {column: rational}, scaled to coprime
    integers.  Clearing denominators is a no-op on `int` entries."""
    out = []
    for row in rows:
        mult = lcm(*(v.denominator for v in row.values()))
        out.append(_gcd_normalize({c: int(v * mult) for c, v in row.items()}))
    return out


def _gcd_normalize(row: dict[int, int]) -> dict[int, int]:
    """Divide row in place by the gcd of its entries; returns row."""
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g
    return row


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
    return _gcd_normalize(new)


def _forward_eliminate(rows, update):
    """Echelonize `rows` in place; returns [(pivot col, row)] in column
    order.  `update(row, pivot, c)` returns row with column c cleared
    against pivot.  It changes the row's support only on the pivot's
    columns, so the column -> rows index is repaired over those alone."""
    ncols = 1 + max((c for row in rows for c in row), default=-1)
    holding = [set() for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c in row:
            holding[c].add(r)
    pivots = []
    for c in range(ncols):
        if not holding[c]:
            continue
        at = min(holding[c], key=lambda r: (len(rows[r]), r))
        pivot = rows[at]
        for col in pivot:
            holding[col].discard(at)
        targets, holding[c] = holding[c], set()
        for r in targets:
            rows[r] = row = update(rows[r], pivot, c)
            for col in pivot:
                if col in row:
                    holding[col].add(r)
                else:
                    holding[col].discard(r)
        pivots.append((c, pivot))
    return pivots


def _back_substitute(pivots):
    """Full reduction: clear every pivot column above its pivot row.

    Pivot rows are processed from the last.  By then row i holds only its
    pivot column and non-pivot columns, so clearing column c_i changes no
    row's entry in any other pivot column.  The rows holding each pivot
    column are therefore indexed once, up front, and need no repair."""
    row_of = {c: i for i, (c, _) in enumerate(pivots)}
    holders = [[] for _ in pivots]
    for j, (cj, row) in enumerate(pivots):
        for col in row:
            if col != cj and col in row_of:
                holders[row_of[col]].append(j)
    for i in range(len(pivots) - 1, -1, -1):
        c, pivot = pivots[i]
        for j in holders[i]:
            cj, rowj = pivots[j]
            pivots[j] = (cj, _eliminate(rowj, pivot, c))
    return pivots


def rank_mod(rows, p: int) -> int:
    """Rank over GF(p) of integer rows, each a dict {column: value}.
    `rows` is not modified."""
    return _rank_mod(list(rows), p)


def _rank_mod(rows: list, p: int) -> int:
    """`rank_mod` of a list it takes over: each row is replaced by its
    residues, one at a time, and reduced in place; the list is emptied."""

    def update(row, pivot, c):
        if pivot[c] != 1:  # scale the pivot once, in place
            inv = pow(pivot[c], -1, p)
            for col in pivot:
                pivot[col] = pivot[col] * inv % p
        factor = row[c]
        for col, val in pivot.items():
            new = (row.get(col, 0) - factor * val) % p
            if new:
                row[col] = new
            elif col in row:
                del row[col]
        return row

    for n, row in enumerate(rows):
        rows[n] = {c: v % p for c, v in row.items() if v % p}
    rank = len(_forward_eliminate(rows, update))
    rows.clear()
    return rank


def int_rank(rows) -> int:
    """Exact rank of integer rows, each a dict {column: value}."""
    return len(_forward_eliminate(_integer_rows(rows), _eliminate))


def int_rref(rows) -> list[dict[int, int]]:
    """Reduced row echelon basis of the row space of rows, each a dict
    {column: rational}, in pivot order.  Each row is scaled to coprime
    integers with a positive pivot.  `rows` is not modified."""
    pivots = _forward_eliminate(_integer_rows(rows), _eliminate)
    return [row if row[c] > 0 else {j: -x for j, x in row.items()}
            for c, row in _back_substitute(pivots)]


def int_nullspace(rows, ncols: int) -> list[tuple[int, dict[int, int]]]:
    """Kernel of integer rows, each a dict {column: value}, over the
    columns 0..ncols-1: one pair (f, vector) per free column f, in
    ascending order.  The vector is the reduced one, 1 at f, 0 at the
    other free columns and -row[f] / row[c] at the pivot c of each row,
    times the lcm of its denominators: primitive, as some denominator
    holds each prime's full power in the lcm.  `rows` is not modified."""
    pivots = _back_substitute(
        _forward_eliminate(_integer_rows(rows), _eliminate))
    taken = {c for c, _ in pivots}
    # a reduced row holds its pivot column and free columns only
    holding = {f: [] for f in range(ncols) if f not in taken}
    for c, row in pivots:
        for f in row:
            if f != c:
                holding[f].append((c, row))
    kernel = []
    for f, held in holding.items():
        scale = lcm(*(row[c] // gcd(row[f], row[c]) for c, row in held))
        vec = {f: scale}
        for c, row in held:
            vec[c] = -row[f] * scale // row[c]
        kernel.append((f, vec))
    return kernel


def _matrix_rows(matrix: SparseMatrix) -> list[dict[int, Fraction]]:
    rows = [{} for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        rows[r][c] = v
    return rows


def rank(matrix: SparseMatrix) -> int:
    return int_rank(_matrix_rows(matrix))


def nullspace(matrix: SparseMatrix) -> Basis:
    """Reduced basis of the right kernel, one vector per free column."""
    return Basis.from_integer(
        range(matrix.cols), int_nullspace(_matrix_rows(matrix), matrix.cols))
