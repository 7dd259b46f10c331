"""Linear systems of parameters and exact stress-space computation.

A degree-i stress is a homogeneous polynomial whose monomials are each
supported on a face and which is annihilated by the derivative operator of
every form in the chosen sequence.  Stress spaces are computed as exact
nullspaces; for centrally symmetric complexes they are split into the
symmetric (plus) and antisymmetric (minus) parts under the involution
x_v -> x_{-v}, whose dimensions carry the face-number content.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .complexes import SimplicialComplex
from .errors import (
    LengthMismatch,
    LsopNotFound,
    NotCs,
    NotPure,
    NotSimplicial,
    NotSubcomplex,
)
from .exactla import Basis, SparseMatrix, nullspace, rank, span_basis, intersect
from .polynomials import (
    LinearForm,
    Polynomial,
    apply_derivative,
    delta_monomials,
    pm_split,
)

COEFF_BOUND = 10**6
MAX_ATTEMPTS = 8


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


class StressSpace:
    """Reduced basis of the space of degree-i stresses.

    `columns` lists the candidate monomials (those supported on faces of the
    parent complex); basis vectors are coordinates over `columns`.  For cs
    complexes `plus_basis`/`minus_basis` hold the symmetric and antisymmetric
    parts; for other complexes they are None.
    """

    __slots__ = (
        "complex",
        "forms",
        "degree",
        "columns",
        "vector_basis",
        "plus_vectors",
        "minus_vectors",
    )

    def __init__(
        self, complex, forms, degree, columns, vector_basis,
        plus_vectors, minus_vectors,
    ):
        self.complex = complex
        self.forms = forms
        self.degree = degree
        self.columns = tuple(columns)
        self.vector_basis = vector_basis
        self.plus_vectors = plus_vectors
        self.minus_vectors = minus_vectors

    @property
    def dim(self) -> int:
        return self.vector_basis.dim

    @property
    def plus_dim(self):
        return None if self.plus_vectors is None else self.plus_vectors.dim

    @property
    def minus_dim(self):
        return None if self.minus_vectors is None else self.minus_vectors.dim

    def _to_polynomials(self, basis) -> list[Polynomial]:
        return [
            Polynomial(
                [(m, c) for m, c in zip(self.columns, vec) if c]
            )
            for vec in basis.vectors
        ]

    @property
    def basis(self) -> list[Polynomial]:
        return self._to_polynomials(self.vector_basis)

    @property
    def plus_basis(self):
        if self.plus_vectors is None:
            return None
        return self._to_polynomials(self.plus_vectors)

    @property
    def minus_basis(self):
        if self.minus_vectors is None:
            return None
        return self._to_polynomials(self.minus_vectors)

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
        if w.is_zero():
            return True
        vec = self.vectorize(w)
        if vec is None:
            return False
        return self.vector_basis.contains(vec)

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
    """Facet-rank criterion: every facet restriction has full rank."""
    forms = list(forms)
    d = cx.dim + 1
    if len(forms) != d:
        raise LengthMismatch(
            f"expected {d} forms for a {d - 1}-dimensional complex, "
            f"got {len(forms)}"
        )
    for facet in sorted(cx.facets):
        rows = [
            [f.coefficient(v) for v in facet] for f in forms
        ]
        if rank(SparseMatrix.from_dense(rows)) != len(facet):
            return False
    return True


# -- stress spaces ----------------------------------------------------------


def stress_space(cx: SimplicialComplex, forms, i: int) -> StressSpace:
    """Exact nullspace basis of the degree-i stress equations.

    The constraint matrix D has one column per face-supported degree-i
    monomial and one row per (form k, degree-(i-1) monomial) pair; its
    entry is the coefficient of that monomial in the k-th derivative of
    the column monomial.
    """
    if i < 0:
        raise ValueError("degree must be nonnegative")
    columns = delta_monomials(cx, i)
    form_list = list(forms)
    row_index: dict = {}
    entries: dict = {}
    for j, m in enumerate(columns):
        for k, form in enumerate(form_list):
            for v, e in m.exps:
                c = form.coefficient(v)
                if not c:
                    continue
                key = (k, m.divide(v))
                r = row_index.setdefault(key, len(row_index))
                entries[(r, j)] = entries.get((r, j), Fraction(0)) + e * c
    matrix = SparseMatrix(
        len(row_index), len(columns), entries, col_labels=columns
    )
    kernel = nullspace(matrix)
    plus = minus = None
    if _has_parity_split(cx, form_list):
        plus, minus = _split_basis(kernel, columns)
        if plus.dim + minus.dim != kernel.dim:
            raise RuntimeError(
                "parity split lost dimensions; involution-invariance bug"
            )
    return StressSpace(cx, forms, i, columns, kernel, plus, minus)


def vanishing_stress_space(cx: SimplicialComplex, forms, i: int) -> StressSpace:
    """The zero space of degree-i stresses, for i above d = dim + 1.

    Only valid when `forms` contain an l.s.o.p. of cx, which the caller
    certifies.  Then K[cx]/(forms) is spanned by face monomials (Stanley,
    Combinatorics and Commutative Algebra, III.2.4), whose degree is at
    most d, so no stress has degree above d and no monomial is listed.
    """
    if i <= cx.dim + 1:
        raise ValueError("stresses vanish by theorem only above degree d")
    empty = Basis((), (), ())
    split = empty if _has_parity_split(cx, forms) else None
    return StressSpace(cx, forms, i, (), empty, split, split)


def _has_parity_split(cx: SimplicialComplex, forms) -> bool:
    # the involution preserves the space only when every form has a
    # definite parity, so the split is computed just in that case
    return cx.cs and all(f.parity in ("minus", "plus") for f in forms)


def _split_basis(kernel: Basis, columns) -> tuple[Basis, Basis]:
    index = {m: j for j, m in enumerate(columns)}
    plus_vecs, minus_vecs = [], []
    for vec in kernel.vectors:
        w = Polynomial([(m, c) for m, c in zip(columns, vec) if c])
        for part, bucket in zip(pm_split(w), (plus_vecs, minus_vecs)):
            if part.is_zero():
                continue
            coords = [Fraction(0)] * len(columns)
            for m, c in part.terms.items():
                coords[index[m]] = c
            bucket.append(tuple(coords))
    return (
        span_basis(plus_vecs, kernel.columns),
        span_basis(minus_vecs, kernel.columns),
    )


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
    """Stresses of a subcomplex: intersect with its coordinate subspace."""
    parent = s.complex
    for f in sub.facets:
        if not parent.contains(f):
            raise NotSubcomplex(
                f"facet {list(f)} is not a face of the parent complex"
            )
    if sub == parent:
        return s
    allowed = [
        j for j, m in enumerate(s.columns) if sub.contains(m.support)
    ]
    unit_vectors = []
    n = len(s.columns)
    for j in allowed:
        vec = [Fraction(0)] * n
        vec[j] = Fraction(1)
        unit_vectors.append(tuple(vec))
    coord_basis = Basis(s.vector_basis.columns, unit_vectors, allowed)
    kernel = intersect(s.vector_basis, coord_basis)
    plus = minus = None
    if sub.cs:
        plus, minus = _split_basis(kernel, s.columns)
    return StressSpace(sub, s.forms, s.degree, s.columns, kernel, plus, minus)


# -- Cohen-Macaulay certification --------------------------------------------


def cm_certificate(cx: SimplicialComplex, seed: int) -> dict:
    """CM certificate by graded dimension count.

    For a verified l.s.o.p., cx is Cohen-Macaulay exactly when dims == h
    (the property holds for some sequence exactly when it holds for every
    one), so any difference proves it is not.  A difference may go either
    way: two disjoint triangles have h_3 = 1 but no degree-3 stress.
    """
    vectors = cx.fhg_vectors()
    d = vectors.d
    seq = special_lsop(cx, seed) if cx.cs else generic_lsop(cx, seed)
    dims = [stress_space(cx, seq, i).dim for i in range(d + 1)]
    witnessed = dims == list(vectors.h)
    return {
        "dims": dims,
        "h": list(vectors.h),
        "is_cm_witnessed": witnessed,
        "definitive_non_cm": not witnessed,
        "seed": seed,
        "kind": seq.kind,
        "attempts": seq.attempts,
    }
