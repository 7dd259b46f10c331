"""Exact sparse linear algebra over the rationals, and rank mod a prime.

Rows are dicts {column: value}, columns nonnegative integers.  Every
exact rank and kernel goes through one forward elimination with one
pivot rule: columns are resolved in ascending order, and the pivot is
the sparsest row holding the column (ties by row index).  Each row is
filed under its lowest column alone: once every column below c is
resolved, the rows holding c are exactly those filed under c.

The update is fraction-free.  `int_rank`, `int_rref` and `int_nullspace`
take rows with integer or rational values and scale copies of them to
coprime integers; updates cross-multiply and remove the common factor,
so no rational division happens at all, and a kernel comes back as
primitive integer vectors.  `_int_nullspace` scales and eliminates the
rows of a list it takes over, so a caller that builds the rows for one
solve holds them only once.

`rank_mod` works over GF(p) on an integer matrix held as compressed
columns (`Columns`: column offsets, one flat array of row indices and
one flat list of values), which it reads and leaves as it is.  It runs
the same pivot rule with rows and columns swapped, and makes a dict of
residues for a column only when the elimination reaches it.  Entries
stay below p, so this costs a fraction of the exact path, and for an
integer matrix rank mod p <= rank over Q: every minor that is nonzero
mod p is a nonzero integer.  Callers use it where that inequality
certifies the answer and fall back to the exact path where it does not.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from itertools import islice
from math import gcd, lcm


# -- integer row helpers ---------------------------------------------------


def _integer_rows(rows) -> list[dict[int, int]]:
    """Copies of rows, dicts {column: rational}, scaled to coprime
    integers."""
    return [_scaled(dict(row)) for row in rows]


def _scaled(row: dict) -> dict[int, int]:
    """row, a dict {column: rational}, scaled to coprime integers.  A row
    of `int` entries, as every assembled row is, has no denominator to
    clear and is divided in place; any other is scaled in a copy."""
    if not all(type(v) is int for v in row.values()):
        mult = lcm(*(v.denominator for v in row.values()))
        row = {c: int(v * mult) for c, v in row.items()}
    return _gcd_normalize(row)


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
    against pivot, and so with no column <= c.

    Each nonzero row is filed once, under its lowest column.  Columns come
    up in ascending order, and when c does, every row not yet a pivot has
    had each column below c cleared, so the rows holding c are exactly
    those filed under c.  An updated row is refiled under its new lowest
    column, which is above c; a row that cancels to zero is dropped."""
    leading = {}
    for r, row in enumerate(rows):
        if row:
            leading.setdefault(min(row), []).append(r)
    pivots = []
    c = 0
    while leading:
        held = leading.pop(c, None)
        if held is not None:
            at = min(held, key=lambda r: (len(rows[r]), r))
            pivot = rows[at]
            for r in held:
                if r != at:
                    rows[r] = row = update(rows[r], pivot, c)
                    if row:
                        leading.setdefault(min(row), []).append(r)
            pivots.append((c, pivot))
        c += 1
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


class Columns(namedtuple("Columns", "offsets rows values")):
    """An integer matrix in compressed-column form: column j holds
    values[offsets[j]:offsets[j + 1]] at the rows of the same slice of
    `rows`, an array('l'), each row at most once and every value
    nonzero."""

    __slots__ = ()

    @classmethod
    def of(cls, vectors) -> Columns:
        """The matrix whose columns are `vectors`, dicts {row: value}."""
        offsets, rows, values = array("l", [0]), array("l"), []
        for vec in vectors:
            rows.extend(vec)
            values.extend(vec.values())
            offsets.append(len(values))
        return cls(offsets, rows, values)

    @property
    def ncols(self) -> int:
        return len(self.offsets) - 1


def rank_mod(matrix: Columns, p: int) -> int:
    """Rank over GF(p) of `matrix`, which is read and not modified.

    The columns are eliminated against each other, rows resolved in
    ascending order, and the pivot of row c is the sparsest column
    holding it, ties by column index.  Each column is filed under its
    lowest row, in one sorted array of 8 bytes a column, and becomes a
    dict {row: residue} only when row c comes up; one whose residue
    there is 0 is filed again under its lowest nonzero one.  An updated
    column has no row <= c and is filed again too.  A rank needs only
    the count, so each pivot is dropped once its row is resolved."""
    offsets, rows, values = matrix
    n = len(offsets) - 1
    # the key r * n + j files column j under its lowest row r
    queue = array("q", sorted([
        min(rows[a:b]) * n + j
        for j, (a, b) in enumerate(zip(offsets, islice(offsets, 1, None)))
        if a < b]))
    low = queue[0] // n if queue else -1  # the row of queue[k]
    leading: dict = {}  # row -> pairs (column, residues) filed there
    rank, c, k = 0, -1, 0
    while leading or low >= 0:
        c += 1
        live = leading.pop(c, None)
        if low == c:
            live = live or []
            while low == c:
                j = queue[k] - c * n
                k += 1
                low = queue[k] // n if k < len(queue) else -1
                a, b = offsets[j], offsets[j + 1]
                col = {r: x for r, v in zip(rows[a:b], values[a:b])
                       if (x := v % p)}
                if c in col:
                    live.append((j, col))
                elif col:
                    leading.setdefault(min(col), []).append((j, col))
        if not live:
            continue
        rank += 1
        if len(live) == 1:
            continue
        _, pivot = min(live, key=lambda held: (len(held[1]), held[0]))
        top = pivot[c]
        if top != 1:
            inv = pow(top, -1, p)
            for r in pivot:
                pivot[r] = pivot[r] * inv % p
        for j, col in live:
            if col is pivot:
                continue
            factor = col[c]
            for r, val in pivot.items():
                new = (col.get(r, 0) - factor * val) % p
                if new:
                    col[r] = new
                elif r in col:
                    del col[r]
            if col:
                leading.setdefault(min(col), []).append((j, col))
    return rank


def int_rank(rows) -> int:
    """Exact rank of rows, each a dict {column: integer or rational},
    scaled to coprime integers first.  `rows` is not modified."""
    return len(_forward_eliminate(_integer_rows(rows), _eliminate))


def int_rref(rows) -> list[dict[int, int]]:
    """Reduced row echelon basis of the row space of rows, each a dict
    {column: rational}, in pivot order.  Each row is scaled to coprime
    integers with a positive pivot.  `rows` is not modified."""
    pivots = _forward_eliminate(_integer_rows(rows), _eliminate)
    return [row if row[c] > 0 else {j: -x for j, x in row.items()}
            for c, row in _back_substitute(pivots)]


def int_nullspace(rows, ncols: int) -> list[tuple[int, dict[int, int]]]:
    """Kernel of rows, each a dict {column: integer or rational}, scaled to
    coprime integers first, over the columns 0..ncols-1: one pair (f,
    vector) per free column f, in ascending order.  The vector is the
    reduced one, 1 at f, 0 at the other free columns and -row[f] / row[c]
    at the pivot c of each row, times the lcm of its denominators:
    primitive, as some denominator holds each prime's full power in the
    lcm.  `rows` is not modified."""
    return _int_nullspace([dict(row) for row in rows], ncols)


def _int_nullspace(rows: list, ncols: int) -> list:
    """`int_nullspace` of a list it takes over, with its rows: each is
    scaled and eliminated in place, and the list is emptied once the
    pivots are found."""
    for n, row in enumerate(rows):
        rows[n] = _scaled(row)
    pivots = _forward_eliminate(rows, _eliminate)
    rows.clear()
    _back_substitute(pivots)
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
