"""Linear systems of parameters and exact stress-space computation.

A degree-i stress is a homogeneous polynomial whose monomials are each
supported on a face and which is annihilated by the derivative operator of
every form in the chosen sequence.  The stresses depend only on the span
of the forms, so the forms are read through the reduced row echelon basis
of that span, in integers (`echelon_rows`): by the facet-rank check, by
`is_stress`, the one membership test, and by the constraint matrix whose
kernels are the stress spaces, which is much sparser than with the forms
as drawn.  For a centrally symmetric complex and forms of definite parity,
the involution x_v -> x_{-v} splits that matrix into a symmetric (plus)
and an antisymmetric (minus) block; their dimensions carry the
face-number content.  A block is solved, into primitive integer kernel
vectors, only when its kernel or dimension is read, and `certify_dims`
fixes the dimensions of a whole table from ranks mod a prime when a
lower bound proves them exact, so a caller that needs only dimensions
may solve nothing.
Stresses are local, so the stresses of a subcomplex are computed on the
subcomplex itself.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from .complexes import SimplicialComplex
from .errors import (
    LengthMismatch,
    LsopNotFound,
    NotCs,
    NotPure,
    NotSimplicial,
    NotSubcomplex,
)
from .exactla import Basis, int_nullspace, int_rank, int_rref, rank_mod
from .polynomials import (
    LinearForm,
    Monomial,
    Polynomial,
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
    their echelon rows once `echelon_rows` has read them."""

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
        self._echelon = None  # filled by `echelon_rows`

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

    `matrix` holds the block's columns, one integer vector {row: value}
    per representative; block column b stands for the full column
    reps[b] plus `sign` times its mirror (the column itself when the
    space does not split).  `known` is the exact kernel dimension once
    it is known, from the kernel, certified by the caller of
    `certify_dims` or by theorem; the matrix is dropped once the kernel
    exists.  A block known to be 0 has the empty kernel, so it is never
    solved.
    """

    __slots__ = ("columns", "matrix", "reps", "mirror", "sign", "known",
                 "_vectors", "_polynomials")

    def __init__(self, columns, matrix, reps, mirror, sign, known=None):
        self.columns = columns
        self.matrix = matrix
        self.reps = reps
        self.mirror = mirror
        self.sign = sign
        self.known = known
        self._vectors = None
        self._polynomials = None

    @property
    def dim(self) -> int:
        if self.known is None:
            self.known = len(self.vectors)
        return self.known

    def dim_mod(self, p: int) -> int:
        """Kernel dimension mod p: at least `dim`, the matrix being integer.

        The rank is taken over the columns, since rank A = rank A^T: the
        blocks are taller than wide, and eliminating columns wastes work
        only on the `dim` of them that reduce to zero.
        """
        if self.matrix is None:
            return self.dim
        return len(self.reps) - rank_mod(self.matrix, p)

    @property
    def vectors(self) -> tuple:
        """The kernel as pairs (pivot, {column: int}) in full coordinates:
        each vector a positive multiple of the reduced basis vector that
        is 1 at its pivot column and 0 at the pivot of every other."""
        if self._vectors is None:
            self._vectors = self._solve()
            self.matrix = None
        return self._vectors

    def _solve(self) -> tuple:
        if self.known == 0:
            return ()
        # the kernel does not depend on the row order
        rows: dict = {}
        for b, column in enumerate(self.matrix):
            for r, x in column.items():
                rows.setdefault(r, {})[b] = x
        vectors = []
        for f, u in int_nullspace(list(rows.values()), len(self.reps)):
            vec = {}
            for b, x in u.items():
                j = self.reps[b]
                vec[j] = x
                vec[self.mirror[j]] = self.sign * x
            vectors.append((self.reps[f], vec))
        return tuple(vectors)

    @property
    def basis(self) -> Basis:
        """Reduced exact basis in full coordinates."""
        return Basis.from_integer(self.columns, self.vectors)

    def polynomials(self) -> list[Polynomial]:
        """The reduced basis as polynomials, in a new list on every call."""
        if self._polynomials is None:
            self._polynomials = tuple(
                map(reduced_polynomial, integer_family(self)))
        return list(self._polynomials)


def integer_family(block) -> list:
    """The kernel of a stress block as pairs (pivot exps, {exps: int})."""
    cols = block.columns
    return [(cols[p].exps, {cols[j].exps: x for j, x in vec.items()})
            for p, vec in block.vectors]


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
    are None without a split.  Reading a basis solves the blocks it needs
    exactly; a dimension is exact too, certified without solving when
    `certify_dims` has accepted it.  `contains` reads no block: it tests
    the stress equations themselves, with `is_stress`.
    """

    __slots__ = ("complex", "forms", "degree", "columns", "blocks")

    def __init__(self, complex, forms, degree, columns, blocks):
        self.complex = complex
        self.forms = forms
        self.degree = degree
        self.columns = tuple(columns)
        self.blocks = tuple(blocks)

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


def _positive_pairs(cx: SimplicialComplex) -> list[int]:
    return sorted({abs(v) for v in cx.ground_set})


def special_lsop(cx: SimplicialComplex, seed: int) -> FormSequence:
    """Sample an antisymmetric l.s.o.p. for a cs complex, with retries.

    Coefficients are drawn uniformly from [-10^6, 10^6] by a PRNG keyed to
    `seed`; each sample is verified by `lsop_check` and resampled on
    failure, up to 8 attempts.
    """
    if not cx.cs:
        raise NotCs("a special l.s.o.p. needs a centrally symmetric complex")
    if not cx.is_pure():
        raise NotPure("l.s.o.p. sampling needs a pure complex")
    d = cx.dim + 1
    pairs = _positive_pairs(cx)
    rng = random.Random(seed)
    for attempt in range(1, MAX_ATTEMPTS + 1):
        forms = [
            LinearForm.minus_combination(
                {k: rng.randint(-COEFF_BOUND, COEFF_BOUND) for k in pairs}
            )
            for _ in range(d)
        ]
        try:
            seq = FormSequence(
                forms, "special_lsop", seed=seed, attempts=attempt
            )
        except ValueError:
            continue  # a form sampled to zero; try again
        if lsop_check(cx, seq):
            return seq
    raise LsopNotFound(
        f"no special l.s.o.p. found with seed {seed}", MAX_ATTEMPTS
    )


def generic_lsop(cx: SimplicialComplex, seed: int) -> FormSequence:
    """Sample an unconstrained l.s.o.p. (for complexes that are not cs)."""
    if not cx.is_pure():
        raise NotPure("l.s.o.p. sampling needs a pure complex")
    d = cx.dim + 1
    labels = sorted(cx.ground_set)
    rng = random.Random(seed)
    for attempt in range(1, MAX_ATTEMPTS + 1):
        forms = [
            LinearForm(
                {v: rng.randint(-COEFF_BOUND, COEFF_BOUND) for v in labels}
            )
            for _ in range(d)
        ]
        seq = FormSequence(forms, "custom", seed=seed, attempts=attempt)
        if lsop_check(cx, seq):
            return seq
    raise LsopNotFound(
        f"no l.s.o.p. found with seed {seed}", MAX_ATTEMPTS
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
        if rank_mod(rows, PRIMES[0]) == len(facet):
            continue
        if int_rank(rows) != len(facet):
            return False
    return True


def echelon_rows(forms) -> tuple:
    """The reduced row echelon basis of span(forms), one parity class at
    a time, as pairs (parity, {vertex: integer coefficient}).

    Every matrix built here has one row per form and vertex data, and
    its ranks and kernels depend only on the span of the forms.  A
    combination of forms of one parity keeps that parity, so the rows
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
    monomial and one row per (form k, degree-(i-1) monomial mu) pair; its
    entry is the coefficient of mu in the k-th derivative of the column
    monomial.  The forms k are the integer echelon rows of `echelon_rows`,
    not the given forms: both span one space, so the rows of D for one
    span the row space of D for the other, and the kernel, its reduced
    basis and every dimension are the same.  Within a parity class an
    echelon row vanishes on the pivot vertices of the others, so a pivot
    vertex v of supp m, or its mirror, puts one entry per class into the
    column of m, where dense forms put d.  With an antisymmetric
    l.s.o.p. of a cross-polytope every vertex is one of the two, so each
    column has |supp m| entries.  Without a parity split the kernel is
    one block, D itself.  With one, it splits into a symmetric and an
    antisymmetric block, built in the same pass.

    The involution sigma permutes the columns of a cs complex, freely
    except for the degree-0 monomial 1, and the rows likewise.  A form
    of parity e_k (+1 or -1) has D[(k, sigma mu), sigma m] =
    e_k D[(k, mu), m].  So on a vector of parity s, row (k, sigma mu) is
    s e_k times row (k, mu), and the block of parity s has one column
    m + s sigma m per orbit representative m and one row per orbit of
    rows.  An entry D[(k, mu), m] of a representative column therefore
    lands on the representative row of its orbit with the factor 1 when
    mu is that representative, s e_k when sigma mu is, and 1 + s e_k
    when mu = sigma mu.  The fixed monomial 1 is a symmetric column only,
    and it has no entries.  Nothing is solved here: each block is solved
    exactly when its basis or dimension is first read.
    """
    if i < 0:
        raise ValueError("degree must be nonnegative")
    columns = tuple(delta_monomials(cx, i))
    # a FormSequence keeps its echelon rows
    form_list = forms if isinstance(forms, FormSequence) else list(forms)
    split = _has_parity_split(cx, form_list)
    if split:
        col_of = {m.exps: j for j, m in enumerate(columns)}
        mirror = [col_of[negated_exps(m.exps)] for m in columns]
    else:
        mirror = range(len(columns))
    echelon = echelon_rows(form_list)
    nforms = len(echelon)
    scaled = [coeffs for _, coeffs in echelon]
    if split:
        parity = [1 if e == "plus" else -1 for e, _ in echelon]
        rep_weights = _entry_weights(cx, scaled, [(1, 1)] * nforms)
        mirror_weights = _entry_weights(cx, scaled,
                                        [(e, -e) for e in parity])
        fixed_weights = _entry_weights(cx, scaled,
                                       [(1 + e, 1 - e) for e in parity])
    else:
        # every row is its own orbit, a fixed one, and no entry reaches
        # a second block
        rep_weights = mirror_weights = None
        fixed_weights = _entry_weights(cx, scaled, [(1, 0)] * nforms)
    # lower monomial exps -> (first of its orbit's nforms rows, weights)
    orbits: dict = {}
    row_count = 0
    plus_reps, plus_matrix, minus_reps, minus_matrix = [], [], [], []
    for j, m in enumerate(columns):
        if mirror[j] < j:
            continue
        exps = m.exps
        plus, minus = {}, {}
        # the m / x_v for distinct v lie in distinct row orbits, their
        # supports being faces of supp m, which meets its mirror in no
        # vertex; so each entry of a block has one term
        for v, e, lower in exps_partials(exps):
            orbit = orbits.get(lower)
            if orbit is None:
                negated = negated_exps(lower) if split else lower
                if negated == lower:
                    orbit = orbits[lower] = (row_count, fixed_weights)
                else:
                    orbit = orbits[lower] = (row_count, rep_weights)
                    orbits[negated] = (row_count, mirror_weights)
                row_count += nforms
            first, weights = orbit
            to_plus, to_minus = weights[v]
            for k, w in to_plus:
                plus[first + k] = e * w
            for k, w in to_minus:
                minus[first + k] = e * w
        plus_reps.append(j)
        plus_matrix.append(plus)
        if mirror[j] != j:
            minus_reps.append(j)
            minus_matrix.append(minus)
    blocks = [_Block(columns, plus_matrix, plus_reps, mirror, 1)]
    if split:
        blocks.append(_Block(columns, minus_matrix, minus_reps, mirror, -1))
    return StressSpace(cx, forms, i, columns, blocks)


def _entry_weights(cx, scaled, factors) -> dict:
    """Per vertex v, the nonzero (k, weight) pairs, for the symmetric and
    for the antisymmetric block, that an entry from x_v^e sends there:
    the scaled coefficient of x_v in form k times factors[k], the factor
    pair of `stress_space` for one kind of row."""
    table = {}
    for v in cx.ground_set:
        terms = [(k, coeffs.get(v, 0), f)
                 for k, (coeffs, f) in enumerate(zip(scaled, factors))]
        table[v] = (
            [(k, c * fp) for k, c, (fp, _) in terms if c * fp],
            [(k, c * fm) for k, c, (_, fm) in terms if c * fm],
        )
    return table


def certify_dims(spaces, floor: int) -> bool:
    """Fix every block dimension of `spaces` from its rank mod a prime of
    PRIMES when those dimensions sum to `floor`; return whether they did.

    Each block is an integer matrix, so its kernel dimension mod any
    prime is at least the exact one.  The caller proves that `floor` is
    at most the sum of the exact dimensions.  When the dimensions mod p
    sum to `floor`, every inequality is therefore an equality and each
    of them is exact.  A prime that lowers some rank is tried no
    further, and the next one is; when every prime fails nothing
    changes, and each dimension is solved exactly when it is read.
    """
    blocks = [b for s in spaces for b in s.blocks]
    for p in PRIMES:
        dims = [b.dim_mod(p) for b in blocks]
        if sum(dims) == floor:
            for b, k in zip(blocks, dims):
                b.known = k
            return True
    return False


def vanishing_stress_space(cx: SimplicialComplex, forms, i: int) -> StressSpace:
    """The zero space of degree-i stresses, for i above d = dim + 1.

    Only valid when `forms` contain an l.s.o.p. of cx, which the caller
    certifies.  Then K[cx]/(forms) is spanned by face monomials (Stanley,
    Combinatorics and Commutative Algebra, III.2.4), whose degree is at
    most d, so no stress has degree above d and no monomial is listed.
    """
    if i <= cx.dim + 1:
        raise ValueError("stresses vanish by theorem only above degree d")
    count = 2 if _has_parity_split(cx, forms) else 1
    blocks = [_Block((), [], [], [], 1, known=0) for _ in range(count)]
    return StressSpace(cx, forms, i, (), blocks)


def _has_parity_split(cx: SimplicialComplex, forms) -> bool:
    # the involution preserves the space only when every form has a
    # definite parity, so the split is computed just in that case
    return cx.cs and all(f.parity in ("minus", "plus") for f in forms)


def is_stress(cx: SimplicialComplex, forms, w: Polynomial) -> bool:
    """True if every term of w sits on a face and all form derivatives kill
    w.  The test is homogeneous in w, so it runs on w scaled to integers."""
    mult = lcm(*(c.denominator for c in w.terms.values()))
    return is_integer_stress(cx, forms, {
        m.exps: c.numerator * (mult // c.denominator)
        for m, c in w.terms.items()})


def is_integer_stress(cx: SimplicialComplex, forms, terms) -> bool:
    """`is_stress` of the polynomial with the nonzero integer terms
    {exps: coefficient}.  The derivatives are taken along the integer
    rows of `echelon_rows`, which span the forms."""
    if not all(cx.contains(v for v, _ in exps) for exps in terms):
        return False
    # vertex -> (k, coefficient) of the rows holding it; an echelon row
    # holds few vertices
    weights: dict = {}
    for k, (_, row) in enumerate(echelon_rows(forms)):
        for v, x in row.items():
            weights.setdefault(v, []).append((k, x))
    # the term c m puts c e x m / x_v into the derivative along a row
    # with coefficient x at v
    derivative: dict = {}
    for exps, c in terms.items():
        for v, e, lower in exps_partials(exps):
            for k, x in weights.get(v, ()):
                key = k, lower
                derivative[key] = derivative.get(key, 0) + c * e * x
    return not any(derivative.values())


def restrict_stress_space(s: StressSpace, sub: SimplicialComplex) -> StressSpace:
    """Stresses of s supported on the subcomplex sub.

    Stresses are local: the derivatives do not see the ambient complex,
    so these are exactly the stresses of sub itself.
    """
    parent = s.complex
    for f in sub.facets:
        if not parent.contains(f):
            raise NotSubcomplex(
                f"facet {list(f)} is not a face of the parent complex"
            )
    if sub == parent:
        return s
    return stress_space(sub, s.forms, s.degree)
