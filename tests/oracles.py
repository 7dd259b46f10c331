"""Independent reference implementations used to pin expected values.

Everything here is deliberately written from scratch against the
mathematical definitions, without importing the package's linear algebra
or polynomial machinery, so tests can compare the two sides.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


# -- dense exact linear algebra ----------------------------------------------


def dense_rank(rows) -> int:
    """Rank by textbook Gaussian elimination over Fraction: the number of
    pivots of a row echelon form, so rows above a pivot are left alone."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][c] != 0:
                factor = m[r][c] / top[c]
                # both rows are 0 left of column c
                m[r][c:] = [a - factor * b if b else a
                            for a, b in zip(m[r][c:], top[c:])]
        rank += 1
        if rank == len(m):
            break
    return rank


def dense_rank_mod(rows, p) -> int:
    """Rank over GF(p), p prime, by textbook Gaussian elimination on dense
    rows, below each pivot only."""
    m = [[x % p for x in row] for row in rows]
    if not m:
        return 0
    rank = 0
    for c in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        inv = pow(top[c], p - 2, p)  # Fermat inverse
        for r in range(rank + 1, len(m)):
            if m[r][c]:
                factor = m[r][c] * inv % p
                m[r][c:] = [(a - factor * b) % p
                            for a, b in zip(m[r][c:], top[c:])]
        rank += 1
        if rank == len(m):
            break
    return rank


def dense_nullspace(rows, ncols) -> list[list[Fraction]]:
    """Nullspace basis from the reduced row echelon form."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivot_of_col: dict[int, int] = {}
    rank = 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        # the pivot row is 0 left of column c, so no row changes there
        inv = Fraction(1) / m[rank][c]
        top = m[rank][c:] = [x * inv if x else x for x in m[rank][c:]]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                factor = m[r][c]
                m[r][c:] = [a - factor * b if b else a
                            for a, b in zip(m[r][c:], top)]
        pivot_of_col[c] = rank
        rank += 1
        if rank == len(m):
            break
    free = [c for c in range(ncols) if c not in pivot_of_col]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for c, r in pivot_of_col.items():
            vec[c] = -m[r][f]
        basis.append(vec)
    return basis


def same_span(vecs_a, vecs_b) -> bool:
    """Do two lists of equal-length vectors span the same subspace?"""
    a = [list(v) for v in vecs_a]
    b = [list(v) for v in vecs_b]
    if not a and not b:
        return True
    ra = dense_rank(a) if a else 0
    rb = dense_rank(b) if b else 0
    return ra == rb == dense_rank(a + b)


# -- face enumeration ----------------------------------------------------------


def brute_faces(facets) -> set[tuple[int, ...]]:
    out = set()
    for f in facets:
        for size in range(len(f) + 1):
            out.update(itertools.combinations(sorted(f), size))
    return out


def brute_f_vector(facets) -> list[int]:
    faces = brute_faces(facets)
    d = max(len(f) for f in faces)
    return [sum(1 for f in faces if len(f) == k) for k in range(d + 1)]


def antipodal_link(facets, k):
    """Facets of Γ_k = lk(k) ∩ lk(-k): the maximal faces tau, free of
    +-k, with tau ∪ {k} and tau ∪ {-k} both faces.  None when the empty
    face is the only one."""
    faces = brute_faces(facets)
    meets = [t for t in faces
             if k not in t and -k not in t
             and tuple(sorted(t + (k,))) in faces
             and tuple(sorted(t + (-k,))) in faces]
    maximal = [t for t in meets if not any(set(t) < set(u) for u in meets)]
    return None if maximal == [()] else maximal


def h_from_f(f) -> list[int]:
    """Coefficients of sum_k f_(k-1) (t-1)^(d-k), highest power first."""
    d = len(f) - 1
    total = [0] * (d + 1)
    for k, count in enumerate(f):
        # (t - 1)^(d - k) expanded via repeated convolution
        poly = [1]
        for _ in range(d - k):
            poly = [a - b for a, b in zip(poly + [0], [0] + poly)]
        poly = [0] * (d + 1 - len(poly)) + poly
        total = [a + count * b for a, b in zip(total, poly)]
    return total


# -- stress dimensions from first principles ----------------------------------


def _face_monomials(faces, i):
    """Degree-i exponent maps whose support is one of the given faces, a
    set of sorted tuples closed under taking subsets (`brute_faces`)."""
    verts = sorted({v for f in faces for v in f}, key=lambda v: (abs(v), v < 0))
    out = set()
    for combo in itertools.combinations_with_replacement(verts, i):
        if tuple(sorted(set(combo))) in faces:
            exps = tuple(
                sorted(((v, combo.count(v)) for v in set(combo)),
                       key=lambda t: (abs(t[0]), t[0] < 0))
            )
            out.add(exps)
    return sorted(out)


def _stress_system(facets, coeff_rows, i, symmetric_derivatives=False):
    """(degree-i monomials on the complex, dense derivative rows).

    One column per degree-i monomial on the complex, one row per (form,
    degree-(i-1) monomial) pair; coeff_rows maps each form to
    {vertex: coeff}.  With symmetric_derivatives, also one row per
    (vertex v, degree-(i-1) monomial n): the coefficient of n in
    d/dx_v w minus that of the mirror of n, so the kernel is the stresses
    whose vertex derivatives are all symmetric.
    """
    faces = brute_faces(facets)
    cols = _face_monomials(faces, i)
    if i == 0:
        return cols, []
    lower = {m: idx for idx, m in enumerate(_face_monomials(faces, i - 1))}
    rows = [
        [Fraction(0)] * len(cols)
        for _ in range(len(coeff_rows) * len(lower))
    ]
    asymmetry: dict = {}
    for cidx, exps in enumerate(cols):
        for v, e in exps:
            reduced = tuple(
                (u, k - 1 if u == v else k) for u, k in exps
                if not (u == v and k == 1)
            )
            for fidx, coeffs in enumerate(coeff_rows):
                c = coeffs.get(v, Fraction(0))
                if c and reduced in lower:
                    r = fidx * len(lower) + lower[reduced]
                    rows[r][cidx] += e * c
            if not symmetric_derivatives:
                continue
            mirror = tuple(sorted(((-u, k) for u, k in reduced),
                                  key=lambda t: (abs(t[0]), t[0] < 0)))
            for key, x in (((v, reduced), e), ((v, mirror), -e)):
                row = asymmetry.setdefault(key, [Fraction(0)] * len(cols))
                row[cidx] += x
    return cols, rows + list(asymmetry.values())


def brute_stress_dim(facets, coeff_rows, i) -> int:
    """dim of degree-i stresses; coeff_rows maps each form to {vertex: coeff}."""
    cols, rows = _stress_system(facets, coeff_rows, i)
    return len(cols) - dense_rank(rows)


def brute_is_stress(facets, coeff_rows, terms) -> bool:
    """Is the homogeneous polynomial {exponent tuple: coefficient} a
    stress: is every monomial on a face, and does the derivative along
    every form vanish?"""
    if not terms:
        return True
    i = sum(e for _, e in next(iter(terms)))
    cols, rows = _stress_system(facets, coeff_rows, i)
    at = {m: j for j, m in enumerate(cols)}
    if any(m not in at for m in terms):
        return False
    return all(sum(row[at[m]] * c for m, c in terms.items()) == 0
               for row in rows)


def brute_symmetric_derivative_dim(facets, coeff_rows, i) -> int:
    """dim of the degree-i stresses whose vertex derivatives are all
    symmetric (W_i of Lemmas 3.2-3.4)."""
    cols, rows = _stress_system(facets, coeff_rows, i,
                                symmetric_derivatives=True)
    return len(cols) - dense_rank(rows)


def brute_symmetric_star_dim(facets, coeff_rows, i, v) -> int:
    """dim of the symmetric degree-i stresses supported on st(v).

    Derivatives of a monomial on st(v) stay on st(v), so these solve the
    stress system of the star plus c_m = c_{-m} for every column m, with
    c_{-m} = 0 when -m is off the star.
    """
    cols, rows = _stress_system([f for f in facets if v in f], coeff_rows, i)
    index = {m: j for j, m in enumerate(cols)}
    for j, exps in enumerate(cols):
        mirror = tuple(sorted(((-u, k) for u, k in exps),
                              key=lambda t: (abs(t[0]), t[0] < 0)))
        row = [Fraction(0)] * len(cols)
        row[j] += 1
        if mirror in index:
            row[index[mirror]] -= 1
        rows.append(row)
    return len(cols) - dense_rank(rows)



def brute_stress_bases(facets, coeff_rows, i, order, split):
    """Reduced kernel bases of the degree-i stress system, with the
    monomials (exponent tuples) in the given `order`.

    Without split, one basis of the whole kernel.  With split, the
    symmetric and the antisymmetric kernel: each solved over the first
    monomial m of every mirror pair {m, -m} in `order`, for the vector
    m + s(-m) (m alone when m = -m, which is symmetric only), and given
    in full coordinates.
    """
    cols, rows = _stress_system(facets, coeff_rows, i)
    assert sorted(order) == cols
    at = {m: j for j, m in enumerate(order)}
    where = [cols.index(m) for m in order]
    permuted = [[row[k] for k in where] for row in rows]
    if not split:
        return [dense_nullspace(permuted, len(order))]
    mirror = [
        at[tuple(sorted(((-u, k) for u, k in m),
                        key=lambda t: (abs(t[0]), t[0] < 0)))]
        for m in order
    ]
    bases = []
    for s in (1, -1):
        reps = [j for j in range(len(order))
                if mirror[j] > j or (s == 1 and mirror[j] == j)]
        block = [
            [row[j] + (s * row[mirror[j]] if mirror[j] != j else 0)
             for j in reps]
            for row in permuted
        ]
        basis = []
        for u in dense_nullspace(block, len(reps)):
            vec = [Fraction(0)] * len(order)
            for j, x in zip(reps, u):
                vec[j] = x
                vec[mirror[j]] = s * x
            basis.append(vec)
        bases.append(basis)
    return bases

# -- cross-polytope subcomplex search ------------------------------------------


def brute_cross_polytope_pairs(facets, j) -> list[tuple[int, ...]]:
    """All j-sets of positive labels whose full sign patterns are faces."""
    faces = brute_faces(facets)
    labels = sorted({abs(v) for f in facets for v in f})
    hits = []
    for combo in itertools.combinations(labels, j):
        patterns = itertools.product(*[(k, -k) for k in combo])
        if all(tuple(sorted(p)) in faces for p in patterns):
            hits.append(combo)
    return hits


# -- complex-layer checks by facet scans ---------------------------------------


def brute_contains(facets, tau) -> bool:
    """Is tau a face: does some facet hold every label of tau?"""
    return any(set(tau) <= set(f) for f in facets)


def brute_is_cs(facets, ground_set) -> bool:
    """Face-level definition: v -> -v maps the ground set onto itself and
    every nonempty face to a different face."""
    if set(ground_set) != {-v for v in ground_set}:
        return False
    for tau in brute_faces(facets):
        minus = tuple(sorted(-v for v in tau))
        if tau and (minus == tau or not brute_contains(facets, minus)):
            return False
    return True


def brute_has_redundant_facet(facets) -> bool:
    """Does one of the distinct facets lie inside another?"""
    distinct = {frozenset(f) for f in facets}
    return any(a < b for a in distinct for b in distinct)
