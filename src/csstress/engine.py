"""Linear systems of parameters and exact stress-space computation.

A degree-i stress is a homogeneous polynomial whose monomials are each
supported on a face and which is annihilated by the derivative operator of
every form in the chosen sequence.  Stress spaces are kernels of an
integer constraint matrix.  For a centrally symmetric complex and forms of
definite parity, the involution x_v -> x_{-v} splits that matrix into a
symmetric (plus) and an antisymmetric (minus) block; their dimensions
carry the face-number content.  A block is solved as an exact nullspace
only when its basis or dimension is read, and `certify_dims` fixes the
dimensions of a whole table from ranks mod a prime when a lower bound
proves them exact, so a caller that needs only dimensions may solve
nothing.  Stresses are local, so the stresses of a subcomplex are
computed on the subcomplex itself.
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
from .exactla import Basis, int_nullspace, int_rank, rank_mod
from .polynomials import (
    LinearForm,
    Polynomial,
    apply_derivative,
    delta_monomials,
    pm_split,
)

COEFF_BOUND = 10**6
MAX_ATTEMPTS = 8
# Modulus of the fast ranks.  Any prime keeps every answer exact, because
# a rank mod p is only used where it certifies itself; a large one makes
# an uncertified answer, and the exact work it costs, rare.
PRIME = 2**31 - 1


class FormSequence:
    """Ordered linear forms with a kind tag and sampling provenance."""

    KINDS = ("special_lsop", "canonical_polytope", "custom")

    __slots__ = ("forms", "kind", "seed", "attempts")

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

    `rows` are integer rows over the block's own columns; block column b
    stands for the full column reps[b] plus `sign` times its mirror (the
    column itself when the space does not split).  `known` is the exact
    kernel dimension once it is known, from the basis, certified by the
    caller of `certify_dims` or by theorem; the rows are dropped once the
    basis exists.  A block known to be 0 has the empty basis, so it is
    never solved.
    """

    __slots__ = ("columns", "rows", "reps", "mirror", "sign", "known",
                 "_basis", "_polynomials")

    def __init__(self, columns, rows, reps, mirror, sign, known=None):
        self.columns = columns
        self.rows = rows
        self.reps = reps
        self.mirror = mirror
        self.sign = sign
        self.known = known
        self._basis = None
        self._polynomials = None

    @property
    def dim(self) -> int:
        if self.known is None:
            self.known = self.basis.dim
        return self.known

    def dim_mod(self, p: int) -> int:
        """Kernel dimension mod p: at least `dim`, the rows being integer."""
        if self.rows is None:
            return self.dim
        return len(self.reps) - rank_mod(self.rows, p)

    @property
    def basis(self) -> Basis:
        """Reduced exact basis in full coordinates."""
        if self._basis is None:
            self._basis = self._solve()
            self.rows = None
        return self._basis

    def _solve(self) -> Basis:
        if self.known == 0:
            return Basis(self.columns, [], [])
        kernel = int_nullspace(self.rows, len(self.reps))
        vectors = []
        for u in kernel.vectors:
            vec = [Fraction(0)] * len(self.columns)
            for j, x in zip(self.reps, u):
                if x:
                    vec[j] = x
                    vec[self.mirror[j]] = self.sign * x
            vectors.append(vec)
        pivots = [self.reps[b] for b in kernel.pivots]
        return Basis(self.columns, vectors, pivots)

    def polynomials(self) -> list[Polynomial]:
        """The basis as polynomials, in a new list on every call."""
        if self._polynomials is None:
            # each vector holds nonzero Fractions on distinct columns of
            # one degree
            self._polynomials = tuple(
                Polynomial._of(
                    {m: c for m, c in zip(self.columns, vec) if c}
                )
                for vec in self.basis.vectors
            )
        return list(self._polynomials)


class StressSpace:
    """The space of degree-i stresses, solved block by block on demand.

    `columns` lists the candidate monomials (those supported on faces of the
    complex); basis vectors are coordinates over `columns`.  `blocks` holds
    one block for the whole space, or, when the involution splits it, the
    pair (symmetric, antisymmetric).  `plus_*`/`minus_*` read the pair and
    are None without a split.  Reading a basis, or `contains`, solves the
    blocks it needs exactly; a dimension is exact too, certified without
    solving when `certify_dims` has accepted it.
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

    def vectorize(self, w: Polynomial):
        """Coordinates of w over `columns`; None if w leaves the space."""
        index = {m: j for j, m in enumerate(self.columns)}
        vec = [Fraction(0)] * len(self.columns)
        for m, c in w.terms.items():
            j = index.get(m)
            if j is None:
                return None
            vec[j] = c
        return tuple(vec)

    def contains(self, w: Polynomial) -> bool:
        # the two blocks together are not one reduced basis, so each
        # parity part of w is tested against its own block
        parts = (w,) if len(self.blocks) == 1 else pm_split(w)
        for part, block in zip(parts, self.blocks):
            if part.is_zero():
                continue
            vec = self.vectorize(part)
            if vec is None or not block.basis.contains(vec):
                return False
        return True

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

    Each facet's rank is taken mod PRIME first, which can only be lower
    than over Q, so full rank mod PRIME is full rank; otherwise the exact
    rank decides.
    """
    forms = list(forms)
    d = cx.dim + 1
    if len(forms) != d:
        raise LengthMismatch(
            f"expected {d} forms for a {d - 1}-dimensional complex, "
            f"got {len(forms)}"
        )
    scaled = _integer_coefficients(forms)
    for facet in sorted(cx.facets):
        rows = [
            {j: f[v] for j, v in enumerate(facet) if v in f} for f in scaled
        ]
        if rank_mod(rows, PRIME) == len(facet):
            continue
        if int_rank(rows, len(facet)) != len(facet):
            return False
    return True


def _integer_coefficients(forms) -> list[dict]:
    """Each form's coefficients times the lcm of their denominators.

    Scaling a form by a nonzero constant scales its rows of every matrix
    built here, which changes neither a rank nor a kernel.
    """
    out = []
    for f in forms:
        mult = lcm(*(c.denominator for c in f.coeffs.values()))
        out.append({v: int(c * mult) for v, c in f.coeffs.items()})
    return out


# -- stress spaces ----------------------------------------------------------


def stress_space(cx: SimplicialComplex, forms, i: int) -> StressSpace:
    """The degree-i stress equations, assembled as integer blocks.

    The constraint matrix D has one column per face-supported degree-i
    monomial and one row per (form k, degree-(i-1) monomial) pair; its
    entry is the coefficient of that monomial in the k-th derivative of
    the column monomial, with the rows of form k scaled to integers.  With
    a parity split its kernel is split into two blocks (see
    `_parity_blocks`), otherwise it is one.  Nothing is solved here: each
    block is solved exactly when its basis or dimension is first read.
    """
    if i < 0:
        raise ValueError("degree must be nonnegative")
    columns = tuple(delta_monomials(cx, i))
    form_list = list(forms)
    scaled = _integer_coefficients(form_list)
    row_index: dict = {}
    rows: list[dict] = []
    for j, m in enumerate(columns):
        # distinct v give distinct rows (k, m / x_v), so each entry of D
        # has one term
        for v, e in m.exps:
            lower = m.divide(v)
            for k, coeffs in enumerate(scaled):
                c = coeffs.get(v)
                if not c:
                    continue
                key = (k, lower)
                r = row_index.get(key)
                if r is None:
                    r = row_index[key] = len(rows)
                    rows.append({})
                rows[r][j] = e * c
    if _has_parity_split(cx, form_list):
        blocks = _parity_blocks(columns, row_index, rows)
    else:
        same = range(len(columns))
        blocks = (_Block(columns, rows, same, same, 1),)
    return StressSpace(cx, forms, i, columns, blocks)


def _parity_blocks(columns, row_index, rows) -> tuple[_Block, _Block]:
    """Symmetric and antisymmetric blocks of D.

    The involution sigma permutes the columns of a cs complex, freely
    except for the degree-0 monomial 1.  A form of parity e (+1 or -1)
    has sigma D_k sigma = e D_k, so on a vector of definite parity row
    (k, sigma r) of D is +-e times row (k, r).  Hence the kernel splits
    into a symmetric part, solved over the columns m + sigma m, and an
    antisymmetric part, over the columns m - sigma m, one column per
    orbit representative m and one row per mirror pair of rows.  The
    fixed monomial 1 is a symmetric column only.
    """
    col_of = {m: j for j, m in enumerate(columns)}
    mirror = [col_of[m.negate()] for m in columns]
    kept = [
        rows[n] for (k, r), n in row_index.items()
        if n <= row_index[(k, r.negate())]
    ]
    blocks = []
    for sign in (1, -1):
        reps = [
            j for j, p in enumerate(mirror)
            if j < p or (j == p and sign == 1)
        ]
        at = {j: b for b, j in enumerate(reps)}
        block_rows = []
        for row in kept:
            out = {}
            for j, x in row.items():
                b = at.get(j)
                if b is None:
                    # the mirror of a representative, or 1 in the minus block
                    b = at.get(mirror[j])
                    if b is None:
                        continue
                    x = sign * x
                out[b] = out.get(b, 0) + x
            out = {b: x for b, x in out.items() if x}
            if out:
                block_rows.append(out)
        blocks.append(_Block(columns, block_rows, reps, mirror, sign))
    return tuple(blocks)


def certify_dims(spaces, floor: int) -> bool:
    """Fix every block dimension of `spaces` from its rank mod PRIME when
    those dimensions sum to `floor`; return whether they did.

    Each block is an integer matrix, so its kernel dimension mod PRIME is
    at least the exact one.  The caller proves that `floor` is at most the
    sum of the exact dimensions.  When the dimensions mod PRIME sum to
    `floor`, every inequality is therefore an equality and each of them is
    exact.  Otherwise nothing changes, and each dimension is solved
    exactly when it is read.
    """
    blocks = [b for s in spaces for b in s.blocks]
    dims = [b.dim_mod(PRIME) for b in blocks]
    if sum(dims) != floor:
        return False
    for b, k in zip(blocks, dims):
        b.known = k
    return True


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
    """True if every term of w sits on a face and all form derivatives kill w."""
    if w.is_zero():
        return True
    for m in w.terms:
        if not cx.contains(m.support):
            return False
    return all(
        apply_derivative(f, w).is_zero() for f in forms
    )


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
