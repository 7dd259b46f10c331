"""Linear systems of parameters and exact stress-space computation.

A degree-i stress is a homogeneous polynomial whose monomials are each
supported on a face and which is annihilated by the derivative operator of
every form in the chosen sequence.  The stresses depend only on the span
of the forms, so every check reads the forms through the integer reduced
row echelon basis of that span (`echelon_rows`), which makes the
constraint matrix much sparser.  For a centrally symmetric complex and
forms of definite parity, the involution x_v -> x_{-v} splits that
matrix into a symmetric (plus) and an antisymmetric (minus) block; their
dimensions carry the face-number content.  Both are assembled, and their
kernels held, on one monomial of each orbit {m, sigma m}, each block in
compressed-column form, which a rank mod p reads in place.  A block is
solved, into primitive integer kernel vectors, only when its kernel or
dimension is read; `certify_dims` and `stress_dims` take a table's
dimensions from ranks mod a prime when a lower bound proves them exact,
so a caller that needs only dimensions may solve nothing.  `is_stress`
tests membership on the equations and solves nothing.  Stresses are
local: the stresses of cx supported on a subcomplex sub are those of sub
itself, `stress_space(sub, forms, i)`.
"""

from __future__ import annotations

import random
from array import array
from fractions import Fraction
from math import lcm

from .complexes import SimplicialComplex
from .errors import (
    LengthMismatch,
    LsopNotFound,
    NotCs,
    NotPure,
    NotSimplicial,
)
from .exactla import Columns, _int_nullspace, int_rank, int_rref, rank_mod
from .polynomials import (
    LinearForm,
    Monomial,
    Polynomial,
    delta_exps,
    delta_monomials,
    exps_partials,
    negated_exps,
)

COEFF_BOUND = 10**6
MAX_ATTEMPTS = 8
# Moduli of the fast ranks, tried in order: the two largest primes below
# 2^15.  Any prime keeps every answer exact, because a rank mod p is only
# used where it certifies itself.  Below 2^15 a product of two residues
# stays below 2^30, a one-digit CPython int, so `*` and `%` take the
# interpreter's fast paths; the second prime makes an uncertified answer,
# and the exact work it costs, rarer.
PRIMES = (32749, 32719)


class FormSequence:
    """Ordered linear forms with a kind tag and sampling provenance, and
    their echelon rows once read."""

    KINDS = ("special_lsop", "canonical_polytope", "custom")

    __slots__ = ("forms", "kind", "seed", "attempts", "_echelon")

    def __init__(self, forms, kind, seed=None, attempts=None):
        forms = tuple(forms)
        if kind not in self.KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if kind == "special_lsop":
            if not forms or any(f.parity != "minus" for f in forms):
                raise ValueError(
                    "a special l.s.o.p. consists of antisymmetric forms"
                )
        elif kind == "canonical_polytope":
            if len(forms) < 2:
                raise ValueError("canonical sequences have d+1 >= 2 forms")
            if any(f.parity != "minus" for f in forms[:-1]):
                raise ValueError(
                    "the first d canonical forms must be antisymmetric"
                )
            if forms[-1].parity != "plus":
                raise ValueError("the last canonical form must be symmetric")
        self.forms = forms
        self.kind = kind
        self.seed = seed
        self.attempts = attempts
        self._echelon = None

    def __len__(self):
        return len(self.forms)

    def __iter__(self):
        return iter(self.forms)

    def __getitem__(self, k):
        return self.forms[k]

    def __repr__(self):
        return f"FormSequence(kind={self.kind}, len={len(self.forms)})"


class _Block:
    """One kernel block of the constraint matrix, solved on first read.

    `columns` holds the `exps` of monomials m, which with `sign` s = +1
    or -1 are orbit representatives standing for m + s sigma m, and
    `matrix` the integer block over them in compressed-column form
    (`exactla.Columns`).  Ranks mod p read it as it is, over these
    columns, as rank A = rank A^T and the blocks are taller than wide.
    `known` is the exact kernel dimension once known.  The solve takes
    the matrix over and drops it once its entries are filed under their
    rows, and the kernel routine scales and eliminates those rows in
    place.  A block known to be 0 is never solved.
    """

    __slots__ = ("columns", "matrix", "sign", "known", "_vectors",
                 "_polynomials")

    def __init__(self, columns, matrix, sign, known=None):
        self.columns = columns
        self.matrix = matrix
        self.sign = sign
        self.known = known
        self._vectors = None
        self._polynomials = None

    @property
    def dim(self) -> int:
        if self.known is None:
            self.known = len(self.vectors)
        return self.known

    @property
    def vectors(self) -> tuple:
        """The kernel as pairs (pivot, {column: int}) over `columns`:
        each a positive multiple of the reduced basis vector, 1 at its
        pivot column and 0 at every other pivot."""
        if self._vectors is None:
            self._vectors = self._solve()
        return self._vectors

    def _solve(self) -> tuple:
        matrix, self.matrix = self.matrix, None
        if self.known == 0:
            return ()
        # the kernel does not depend on the row order
        offsets, index, values = matrix
        rows: dict = {}
        for b, (a, z) in enumerate(zip(offsets, offsets[1:])):
            for r, x in zip(index[a:z], values[a:z]):
                rows.setdefault(r, {})[b] = x
        del matrix, offsets, index, values
        rows = list(rows.values())
        return tuple(_int_nullspace(rows, len(self.columns)))

    def polynomials(self) -> list[Polynomial]:
        """The reduced basis as polynomials, in a new list on every call."""
        if self._polynomials is None:
            self._polynomials = tuple(
                map(reduced_polynomial, integer_family(self)))
        return list(self._polynomials)


def orbit_family(block) -> list:
    """The kernel of a stress block as pairs (pivot exps, {exps: int})
    over its columns."""
    cols = block.columns
    return [(cols[p], {cols[j]: x for j, x in vec.items()})
            for p, vec in block.vectors]


def integer_family(block) -> list:
    """`orbit_family` over every monomial."""
    return [(p, full_terms(terms, block.sign))
            for p, terms in orbit_family(block)]


def full_terms(terms, sign) -> dict:
    """`terms` {exps: x} of a vector on the columns of a block of this
    sign, over every monomial: x at m puts sign * x at sigma m."""
    if not sign:
        return terms
    full = {}
    for exps, x in terms.items():
        full[exps] = x
        full[negated_exps(exps)] = sign * x
    return full


def reduced_polynomial(member) -> Polynomial:
    """The pair (pivot exps, {exps: int}) of a kernel vector as the reduced
    basis polynomial: divided by its coefficient at the pivot."""
    pivot, terms = member
    degree = sum(e for _, e in pivot)
    return Polynomial._of({Monomial._canonical(exps, degree): Fraction(
        c, terms[pivot]) for exps, c in terms.items()})


class StressSpace:
    """The space of degree-i stresses, solved block by block on demand.

    `columns` lists the candidate monomials (those supported on faces of the
    complex); basis vectors are coordinates over `columns`.  `blocks` holds
    one block for the whole space, or, when the involution splits it, the
    pair (symmetric, antisymmetric).  `plus_*`/`minus_*` read the pair and
    are None without a split.  Reading a basis or a dimension solves the
    blocks it needs exactly, unless the dimension is already known.
    `contains` reads no block: it tests the equations, with `is_stress`.
    """

    __slots__ = ("complex", "forms", "degree", "blocks")

    def __init__(self, complex, forms, degree, blocks):
        self.complex = complex
        self.forms = forms
        self.degree = degree
        self.blocks = tuple(blocks)

    @property
    def columns(self) -> tuple:
        # a split space holds representatives only: walk again
        if self.blocks[0].sign:
            return tuple(delta_monomials(self.complex, self.degree))
        return tuple(Monomial._canonical(exps, self.degree)
                     for exps in self.blocks[0].columns)

    def _part(self, k):
        return self.blocks[k] if len(self.blocks) == 2 else None

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    @property
    def basis(self) -> list[Polynomial]:
        """Symmetric vectors first when the space is split."""
        return [w for b in self.blocks for w in b.polynomials()]

    @property
    def plus_dim(self):
        part = self._part(0)
        return None if part is None else part.dim

    @property
    def minus_dim(self):
        part = self._part(1)
        return None if part is None else part.dim

    @property
    def plus_basis(self):
        part = self._part(0)
        return None if part is None else part.polynomials()

    @property
    def minus_basis(self):
        part = self._part(1)
        return None if part is None else part.polynomials()

    def contains(self, w: Polynomial) -> bool:
        """Is w a degree-i stress?  Decided from the equations, so no
        block is solved."""
        return (all(m.degree == self.degree for m in w.terms)
                and is_stress(self.complex, self.forms, w))

    def __repr__(self):
        return (
            f"StressSpace(degree={self.degree}, dim={self.dim}, "
            f"plus={self.plus_dim}, minus={self.minus_dim})"
        )


# -- form construction -----------------------------------------------------


def special_lsop(cx: SimplicialComplex, seed: int) -> FormSequence:
    """Sample an antisymmetric l.s.o.p. for a cs complex, with retries.

    Coefficients are drawn uniformly from [-10^6, 10^6] by a PRNG keyed to
    `seed`; each sample is verified by `lsop_check` and resampled on
    failure, up to 8 attempts.
    """
    if not cx.cs:
        raise NotCs("a special l.s.o.p. needs a centrally symmetric complex")
    pairs = sorted({abs(v) for v in cx.ground_set})
    return _sample(cx, seed, "special_lsop", lambda rng: (
        LinearForm.minus_combination(
            {k: rng.randint(-COEFF_BOUND, COEFF_BOUND) for k in pairs})))


def generic_lsop(cx: SimplicialComplex, seed: int) -> FormSequence:
    """Sample an unconstrained l.s.o.p. (for complexes that are not cs)."""
    labels = sorted(cx.ground_set)
    return _sample(cx, seed, "custom", lambda rng: LinearForm(
        {v: rng.randint(-COEFF_BOUND, COEFF_BOUND) for v in labels}))


def _sample(cx, seed, kind, draw) -> FormSequence:
    if not cx.is_pure():
        raise NotPure("l.s.o.p. sampling needs a pure complex")
    rng = random.Random(seed)
    for attempt in range(1, MAX_ATTEMPTS + 1):
        forms = [draw(rng) for _ in range(cx.dim + 1)]
        try:
            seq = FormSequence(forms, kind, seed=seed, attempts=attempt)
        except ValueError:
            continue  # a form sampled to zero; try again
        if lsop_check(cx, seq):
            return seq
    special = "special " if kind == "special_lsop" else ""
    raise LsopNotFound(
        f"no {special}l.s.o.p. found with seed {seed}", MAX_ATTEMPTS
    )


def canonical_forms(p) -> FormSequence:
    """Coordinate forms of a cs polytope followed by the all-ones form."""
    d = p.d
    labels = p.vertices
    forms = []
    for k in range(d):
        coeffs = {v: p.coordinates[v][k] for v in labels}
        form = LinearForm(coeffs)
        if not form.coeffs:
            raise NotSimplicial(
                f"coordinate {k + 1} vanishes on every vertex"
            )
        forms.append(form)
    forms.append(LinearForm.all_ones(labels))
    return FormSequence(forms, "canonical_polytope")


def lsop_check(cx: SimplicialComplex, forms) -> bool:
    """Facet-rank criterion: every facet restriction has full rank.

    A facet's rank depends only on the span of the forms, so it is read
    from their echelon rows.  It is taken mod PRIMES[0] first, which can
    only be lower than over Q, so full rank mod that prime is full rank;
    otherwise the exact rank decides.
    """
    if not isinstance(forms, FormSequence):
        forms = list(forms)
    d = cx.dim + 1
    if len(forms) != d:
        raise LengthMismatch(
            f"expected {d} forms for a {d - 1}-dimensional complex, "
            f"got {len(forms)}"
        )
    echelon = [coeffs for _, coeffs in echelon_rows(forms)]
    for facet in sorted(cx.facets):
        rows = [
            {j: c[v] for j, v in enumerate(facet) if v in c} for c in echelon
        ]
        if rank_mod(Columns.of(rows), PRIMES[0]) == len(facet):
            continue
        if int_rank(rows) != len(facet):
            return False
    return True


def echelon_rows(forms) -> tuple:
    """The reduced row echelon basis of span(forms), one parity class at
    a time, as pairs (parity, {vertex: integer coefficient}).

    A combination of forms of one parity keeps that parity, so the rows
    are reduced within each class and the parity split survives.  Each
    row is scaled to coprime integers.  A FormSequence reduces its forms
    on first use and keeps the rows; any other sequence is reduced on
    every call.
    """
    if not isinstance(forms, FormSequence):
        return _reduce_forms(tuple(forms))
    if forms._echelon is None:
        forms._echelon = _reduce_forms(forms.forms)
    return forms._echelon


def _reduce_forms(forms) -> tuple:
    out = []
    for parity in ("minus", "plus", "none"):
        group = [f.coeffs for f in forms if f.parity == parity]
        labels = sorted({v for coeffs in group for v in coeffs})
        index = {v: j for j, v in enumerate(labels)}
        rows = [{index[v]: c for v, c in coeffs.items()} for coeffs in group]
        out.extend(
            (parity, {labels[j]: x for j, x in row.items()})
            for row in int_rref(rows)
        )
    return tuple(out)


# -- stress spaces ----------------------------------------------------------


def stress_space(cx: SimplicialComplex, forms, i: int) -> StressSpace:
    """The degree-i stress equations, assembled as integer column blocks.

    The constraint matrix D has one column per face-supported degree-i
    monomial and one row per (form k, degree-(i-1) monomial mu); its entry
    is the coefficient of mu in the k-th derivative of the column.  The
    forms k are the integer rows of `echelon_rows`, which span the forms,
    so D has the same kernel.  Within a parity class an echelon row
    vanishes on the pivot vertices of the others, so a pivot vertex of
    supp m, or its mirror, puts one entry per class into column m, where
    dense forms put d: |supp m| entries in all with an antisymmetric
    l.s.o.p. of a cross-polytope.  Without a parity split the kernel is
    one block, D itself.

    With one, sigma permutes the columns, freely but for the degree-0
    monomial 1, and the rows likewise; an orbit's representative is its
    monomial whose first vertex is positive (`delta_exps`).  A form of
    parity e_k (+1 or -1) has D[(k, sigma mu), sigma m] = e_k D[(k, mu),
    m], so on a vector of parity s row (k, sigma mu) is s e_k times row
    (k, mu).  The block of parity s thus has one column m + s sigma m per
    representative m and one row per row orbit, and an entry D[(k, mu),
    m] lands on its orbit's representative row with the factor 1 when mu
    is that representative, s e_k when sigma mu is, and 1 + s e_k when
    mu = sigma mu.  The fixed monomial 1 is a symmetric column only, with
    no entries.  Both blocks are built in one pass, and their kernels are
    held over the representatives.  Nothing is solved here.

    A column is held as its exponent tuple, and a block's entries in
    compressed-column form (`exactla.Columns`): row indices in one flat
    array, values in one flat list.  Each row orbit keeps its first row
    index, and each entry e * weight is made once per vertex and
    exponent (`_entry_weights`), so the values list points at shared
    ints, extended a tuple at a time.
    """
    if i < 0:
        raise ValueError("degree must be nonnegative")
    # a FormSequence keeps its echelon rows
    form_list = forms if isinstance(forms, FormSequence) else list(forms)
    split = _has_parity_split(cx, form_list)
    columns = tuple(delta_exps(cx, i, split))
    echelon = echelon_rows(form_list)
    nforms = len(echelon)
    scaled = [coeffs for _, coeffs in echelon]
    if split:
        parity = [1 if e == "plus" else -1 for e, _ in echelon]
        rep_weights = _entry_weights(cx, scaled, [(1, 1)] * nforms, i)
        mirror_weights = _entry_weights(cx, scaled,
                                        [(e, -e) for e in parity], i)
        fixed_weights = _entry_weights(cx, scaled,
                                       [(1 + e, 1 - e) for e in parity], i)
    else:
        # every row is its own orbit, a fixed one, and no entry reaches
        # a second block
        fixed_weights = _entry_weights(cx, scaled, [(1, 0)] * nforms, i)
    # representative lower monomial exps -> its orbit's first row index
    orbits: dict = {}
    row_count = 0
    plus = Columns(array("l", [0]), array("l"), [])
    minus = Columns(array("l", [0]), array("l"), [])
    # bound once: this loop runs once per entry
    plus_row, plus_values, plus_end = (plus.rows.append, plus.values,
                                       plus.offsets.append)
    minus_row, minus_values, minus_end = (minus.rows.append, minus.values,
                                          minus.offsets.append)
    for exps in columns:
        # the m / x_v for distinct v lie in distinct row orbits, their
        # supports being faces of supp m, which meets its mirror in no
        # vertex; so each entry of a block has one term
        for v, e, lower in exps_partials(exps):
            if not split or not lower:
                weights = fixed_weights
            elif lower[0][0] > 0:
                weights = rep_weights
            else:  # a face holds no x_k beside x_-k: the order stays
                lower = tuple([(-u, x) for u, x in lower])
                weights = mirror_weights
            base = orbits.get(lower)
            if base is None:
                base = orbits[lower] = row_count
                row_count += nforms
            plus_at, to_plus, minus_at, to_minus = weights[v][e]
            for k in plus_at:
                plus_row(base + k)
            plus_values += to_plus
            for k in minus_at:
                minus_row(base + k)
            minus_values += to_minus
        plus_end(len(plus_values))
        if split and exps:
            minus_end(len(minus_values))
    blocks = [_Block(columns, plus, int(split))]
    if split:  # 1 has no antisymmetric column
        blocks.append(_Block(columns if i else (), minus, -1))
    return StressSpace(cx, forms, i, blocks)


def _entry_weights(cx, scaled, factors, top) -> dict:
    """Per vertex v and exponent e <= top, the nonzero entries that x_v^e
    sends to the symmetric and to the antisymmetric block, as four
    tuples: forms k and entries for the one, then for the other.  Each
    entry is e times the scaled coefficient of x_v in form k times
    factors[k], the factor pair of `stress_space` for one kind of row;
    it is made here once, and every column shares it."""
    table = {}
    for v in cx.ground_set:
        terms = [(k, c * fp, c * fm) for k, (coeffs, (fp, fm))
                 in enumerate(zip(scaled, factors)) if (c := coeffs.get(v))]
        plus_at = tuple([k for k, w, _ in terms if w])
        plus = [w for _, w, _ in terms if w]
        minus_at = tuple([k for k, _, w in terms if w])
        minus = [w for _, _, w in terms if w]
        table[v] = [(plus_at, tuple([e * w for w in plus]),
                     minus_at, tuple([e * w for w in minus]))
                    for e in range(top + 1)]
    return table


def _certified(dims_mod, floor: int):
    """The first dims_mod(p), p in PRIMES, the block dimensions mod p
    per degree, that sums to `floor`, or None.

    A block's kernel dimension mod p is at least the exact one, the
    matrix being integer, and the caller proves `floor` at most the sum
    of the exact ones, so a sum equal to `floor` makes each of them
    exact.  A prime that lowers some rank gives way to the next.
    """
    for p in PRIMES:
        dims = dims_mod(p)
        if sum(map(sum, dims)) == floor:
            return dims
    return None


def certify_dims(spaces, floor: int) -> bool:
    """Fix the block dimensions of `spaces` from ranks mod p that
    `_certified` accepts; return whether it did."""
    dims = _certified(lambda p: [[len(b.columns) - rank_mod(b.matrix, p)
                                  for b in s.blocks] for s in spaces], floor)
    for s, known in zip(spaces, dims or ()):
        for b, k in zip(s.blocks, known):
            b.known = k
    return dims is not None


def certify_zero(block) -> None:
    """Fix a new `block` at 0 if its rank mod PRIMES[0] leaves no kernel,
    the exact kernel being no larger."""
    if rank_mod(block.matrix, PRIMES[0]) == len(block.columns):
        block.known = 0


def stress_dims(cx: SimplicialComplex, forms, top: int, floor: int):
    """The spaces of degrees 0..top with only their exact block
    dimensions.  For each prime `_certified` tries, each degree is
    assembled, ranked in place and dropped before the next; when none
    certifies, each is solved exactly the same way."""
    def dims_mod(p):
        return [_dims_mod(stress_space(cx, forms, i).blocks, p)
                for i in range(top + 1)]

    dims = _certified(dims_mod, floor) or [
        [b.dim for b in stress_space(cx, forms, i).blocks]
        for i in range(top + 1)]
    return tuple(_known_space(cx, forms, i, k) for i, k in enumerate(dims))


def _dims_mod(blocks, p) -> list:
    for b in blocks:  # only the matrices are read: drop the rest first
        b.columns = None
    return [b.matrix.ncols - rank_mod(b.matrix, p) for b in blocks]


def vanishing_stress_space(cx: SimplicialComplex, forms, i: int) -> StressSpace:
    """The zero space of degree-i stresses, for i above d = dim + 1.

    Only valid when `forms` contain an l.s.o.p. of cx, which the caller
    certifies.  Then K[cx]/(forms) is spanned by face monomials (Stanley,
    Combinatorics and Commutative Algebra, III.2.4), whose degree is at
    most d, so no stress has degree above d and no monomial is listed.
    """
    if i <= cx.dim + 1:
        raise ValueError("stresses vanish by theorem only above degree d")
    return _known_space(cx, forms, i,
                        [0] * (1 + _has_parity_split(cx, forms)))


def _known_space(cx, forms, i, dims) -> StressSpace:
    # no columns and no matrix: nothing is left to solve
    return StressSpace(cx, forms, i,
                       [_Block((), None, 0, known=k) for k in dims])


def _has_parity_split(cx: SimplicialComplex, forms) -> bool:
    # the involution preserves the space only when every form has a
    # definite parity, so the split is computed just in that case
    return cx.cs and all(f.parity in ("minus", "plus") for f in forms)


def on_faces(cx: SimplicialComplex, exps) -> bool:
    """Does every monomial, given by its exponent tuple, lie on a face?"""
    return all(cx.contains(v for v, _ in e) for e in exps)


def is_stress(cx: SimplicialComplex, forms, w: Polynomial) -> bool:
    """True if every term of w sits on a face and all form derivatives kill
    w.  The test is homogeneous in w, so it runs on w scaled to integers,
    and the derivatives are taken along the integer rows of
    `echelon_rows`, which span the forms."""
    if not on_faces(cx, (m.exps for m in w.terms)):
        return False
    mult = lcm(*(c.denominator for c in w.terms.values()))
    # vertex -> (k, coefficient) of the rows holding it; an echelon row
    # holds few vertices
    weights: dict = {}
    for k, (_, row) in enumerate(echelon_rows(forms)):
        for v, x in row.items():
            weights.setdefault(v, []).append((k, x))
    # the term c m puts c e x m / x_v into the derivative along a row
    # with coefficient x at v
    derivative: dict = {}
    for m, c in w.terms.items():
        c = c.numerator * (mult // c.denominator)
        for v, e, lower in exps_partials(m.exps):
            for k, x in weights.get(v, ()):
                key = k, lower
                derivative[key] = derivative.get(key, 0) + c * e * x
    return not any(derivative.values())

