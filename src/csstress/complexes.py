"""Simplicial complexes on signed vertex labels.

Vertices are nonzero integers.  A complex is centrally symmetric (cs) when
the relabeling v -> -v maps every nonempty face to a different face of the
complex, so the involution acts freely on faces.  Complexes are stored by
their facets plus one set of face bitmasks, built on first use and kept:
face membership is a lookup in that set, and the cs and redundancy checks
work on facets, so a pure complex never builds it just to be constructed.
The face counts are taken one lowest vertex at a time instead, so the
f-, h- and g-vectors never build it either.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections import namedtuple

from .errors import (
    CsViolation,
    GroundSetOverlap,
    InputError,
    NotAFace,
    NotCs,
    NotPure,
    RedundantFacet,
)

Face = tuple[int, ...]

# Upper bound on sum_F 2^|F| over the facets: the subsets the face set
# enumerates.  2^20 admits the 10-cross-polytope boundary (1024 facets of
# 10 vertices) and one 20-vertex facet, whose face bitmasks take about
# 0.15 s of CPU and 70 MiB to build; each further vertex doubles both, so
# larger complexes are refused up front instead of never finishing.
MAX_FACE_SUBSETS = 2**20

# Upper bound on the face-supported monomials that one `stress` request
# solves beyond its table, summed over its degrees.  Exact elimination
# grows faster than the columns: on a hexagon, 3 000, 6 000 and 12 000 of
# them take 2.2, 9.6 and 43 s of CPU (CPython 3.11, 2-vCPU Xeon guest).
MAX_REQUEST_MONOMIALS = 6000

# Deepest nesting of arrays and objects in a JSON input.  A valid file
# nests 3 levels (an object of lists of label lists); json.loads, and the
# report writer on an "expected" value, recurse once per level, so a far
# deeper file would end in a RecursionError.
MAX_JSON_DEPTH = 32


def check_face_subsets(subsets, shown=None) -> None:
    """Refuse facets spanning more than MAX_FACE_SUBSETS vertex subsets,
    the sum of 2^|F|; `shown` prints a count too large to write out.  The
    built-in families call this before building any facet."""
    if subsets > MAX_FACE_SUBSETS:
        raise InputError(
            f"facets span {shown or subsets} vertex subsets, more than the "
            f"limit of {MAX_FACE_SUBSETS}"
        )


def check_cross_polytope_size(d) -> None:
    """The 2^d facets of the d-cross-polytope boundary span 4^d subsets.
    The exponent is capped where 4^d already exceeds the limit, so a huge
    d is refused without raising 4 to it."""
    check_face_subsets(4 ** min(d, MAX_FACE_SUBSETS.bit_length()), f"4^{d}")


def face(vertices) -> Face:
    """Canonical form of a face: ascending labels, no duplicates."""
    vs = sorted(set(vertices))
    if any(v == 0 for v in vs):
        raise InputError("vertex labels must be nonzero integers")
    return tuple(vs)


def negate(tau: Face) -> Face:
    return tuple(sorted(-v for v in tau))


def vertex_key(v: int) -> tuple[int, bool]:
    """Sort key of the canonical variable order 1, -1, 2, -2, ..."""
    return (abs(v), v < 0)


class FHGVectors(namedtuple("FHGVectors", "d f h g")):
    """Face counts f_(-1..d-1), the h-transform, and g_i = h_i - h_(i-1).
    Read-only."""

    __slots__ = ()


class SimplicialComplex:
    """Immutable simplicial complex given by an inclusion-free facet list."""

    __slots__ = ("facets", "ground_set", "cs", "_masks", "_counts", "_fhg")

    def __init__(self, facets, ground_set=None, _cs=None):
        fs = sorted({face(f) for f in facets})
        if not fs:
            raise InputError("at least one facet is required")
        check_face_subsets(sum(1 << len(f) for f in fs))
        self.facets = tuple(fs)
        self._masks = None
        self._counts = None
        self._fhg = None
        if not self.is_pure():
            self._check_redundancy()
        verts = self.vertices
        if ground_set is None:
            gs = verts
        else:
            gs = sorted(set(ground_set))
            if any(v == 0 for v in gs):
                raise InputError("ground-set labels must be nonzero integers")
            if not set(verts) <= set(gs):
                raise InputError("ground set must contain every vertex")
        self.ground_set = tuple(gs)
        self.cs = self._check_cs() if _cs is None else _cs

    @classmethod
    def from_facets(cls, facets, expect_cs=False, ground_set=None):
        cx = cls(facets, ground_set=ground_set)
        if expect_cs and not cx.cs:
            labels = set(cx.ground_set)
            lone = next((v for v in cx.ground_set if -v not in labels), None)
            if lone is not None:
                raise CsViolation(
                    f"ground-set label {lone} has no antipode {-lone}"
                )
            raise CsViolation(
                "facets do not define a free involution under v -> -v"
            )
        return cx

    def _check_redundancy(self) -> None:
        """Raise RedundantFacet if a facet lies inside another facet.

        Only a smaller facet f can lie inside another, and then inside one
        through its rarest vertex: the facets are filed, in order, under
        their vertices, and f is tested against that vertex's only.  The
        empty facet lies in every other.  A pure complex has nothing to
        check.
        """
        top = self.dim + 1
        through = {}
        for g in self.facets:
            for v in g:
                through.setdefault(v, []).append(g)
        for f in self.facets:
            if len(f) == top:
                continue
            near = min((through[v] for v in f), key=len, default=self.facets)
            members = set(f)
            big = next((g for g in near
                        if len(g) > len(f) and members.issubset(g)), None)
            if big is not None:
                raise RedundantFacet(f"facet {f} is contained in facet {big}")

    def _check_cs(self) -> bool:
        """cs test on facets: the ground set and the facet set are closed
        under negation, and no facet holds an antipodal pair {v, -v}.

        This is the face-level definition.  Negation preserves inclusion,
        so it maps the complex onto itself exactly when it maps maximal
        faces to maximal faces.  A nonempty face fixed by negation
        contains some pair {v, -v}, which is then a fixed face itself.
        """
        if set(self.ground_set) != {-v for v in self.ground_set}:
            return False
        facets = set(self.facets)
        return all(
            negate(f) in facets and len({abs(v) for v in f}) == len(f)
            for f in self.facets
        )

    # -- basic queries ---------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted({v for f in self.facets for v in f}))

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) == 1

    def contains(self, tau) -> bool:
        """Is the vertex set of tau (any order, repeats allowed) a face?"""
        bit, masks = self.face_masks()
        m = 0
        for v in tau:
            m |= bit.get(v, -1)  # -1 for a non-vertex: no face
        return m in masks

    def face_masks(self) -> tuple[dict, set]:
        """({vertex: bit}, the set of faces as bitmasks), the bits in the
        canonical variable order 1, -1, 2, -2, ...; built once, read only."""
        if self._masks is None:
            order = sorted(self.vertices, key=vertex_key)
            bit = {v: 1 << n for n, v in enumerate(order)}
            masks = {0}
            for f in self.facets:
                m = top = sum(bit[v] for v in f)
                while m:  # every nonempty submask of the facet
                    masks.add(m)
                    m = (m - 1) & top
            self._masks = bit, masks
        return self._masks

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.facets == other.facets
            and self.ground_set == other.ground_set
        )

    def __hash__(self):
        return hash((self.facets, self.ground_set))

    def __repr__(self):
        return (
            f"SimplicialComplex(dim={self.dim}, facets={len(self.facets)}, "
            f"cs={self.cs})"
        )

    # -- derived complexes -----------------------------------------------

    def star(self, tau) -> "SimplicialComplex":
        """Subcomplex generated by the facets containing tau."""
        t = face(tau)
        if not self.contains(t):
            raise NotAFace(f"{t} is not a face")
        return SimplicialComplex(
            [f for f in self.facets if set(t) <= set(f)]
        )

    def link(self, tau) -> "SimplicialComplex":
        """Faces disjoint from tau whose union with tau is a face."""
        t = face(tau)
        if not self.contains(t):
            raise NotAFace(f"{t} is not a face")
        return SimplicialComplex(
            [tuple(v for v in f if v not in t)
             for f in self.facets if set(t) <= set(f)]
        )

    def relabel(self, mapping) -> "SimplicialComplex":
        """Apply an injective label substitution to every facet."""
        img = [mapping.get(v, v) for v in self.ground_set]
        if len(set(img)) != len(img):
            raise InputError("relabeling must be injective")
        return SimplicialComplex(
            [tuple(mapping.get(v, v) for v in f) for f in self.facets],
            ground_set=img,
        )

    # -- face counts -----------------------------------------------------

    def fhg_vectors(self) -> FHGVectors:
        """f-, h- and g-vectors; requires a pure complex.  Counted once
        and kept: the result is frozen."""
        if self._fhg is not None:
            return self._fhg
        if not self.is_pure():
            raise NotPure("h-vector requires a pure complex")
        d = self.dim + 1
        counts = self.face_counts()
        f = tuple(counts[s] for s in range(d + 1))
        h = tuple(
            sum(
                (-1) ** (i - k) * math.comb(d - k, i - k) * f[k]
                for k in range(i + 1)
            )
            for i in range(d + 1)
        )
        g = (1,) + tuple(h[i] - h[i - 1] for i in range(1, d // 2 + 1))
        self._fhg = FHGVectors(d=d, f=f, h=h, g=g)
        return self._fhg

    def face_counts(self) -> dict[int, int]:
        """{s: number of faces with s vertices} for s = 0..dim+1, the empty
        face included; defined for non-pure complexes too.

        Counted once, one vertex at a time, without the face set.  In the
        vertex order of `face_masks`, a nonempty face sigma with lowest
        vertex v is sigma - {v} plus v, and sigma - {v} is a face of the
        upper link of v, generated by F ∩ (vertices above v) over the
        facets F holding v; that is a bijection.  So each vertex adds the
        face counts of its upper link, shifted up by one size.  The facets
        are filed under their vertices in one pass, and each upper link
        numbers its own vertices, so its bitmasks are as wide as the link
        and not the complex, and only one upper link is held at a time.
        No face of a cs complex holds an antipodal pair, so exactly one of
        sigma and -sigma has a positive lowest vertex: a cs complex walks
        its positive vertices only and counts each nonempty face twice.
        """
        if self._counts is None:
            order = sorted(self.vertices, key=vertex_key)
            rank = {v: n for n, v in enumerate(order)}
            through = {v: [] for v in order if v > 0 or not self.cs}
            for f in self.facets:
                for v in f:
                    if v in through:
                        through[v].append(f)
            twice = 2 if self.cs else 1
            counts = [1] + [0] * (self.dim + 1)
            for v, star in through.items():
                r = rank[v]
                local = {}  # {vertex above v: its bit in the upper link}
                upper = set()
                for f in star:
                    m = 0
                    for u in f:
                        if rank[u] > r:
                            m |= local.setdefault(u, 1 << len(local))
                    upper.add(m)
                for s, n in enumerate(_level_counts(upper)):
                    counts[s + 1] += twice * n
            self._counts = tuple(counts)
        return dict(enumerate(self._counts))


def _level_counts(generators) -> list[int]:
    """[number of faces with s vertices, s = 0, 1, ...] of the complex
    generated by a nonempty set of vertex bitmasks, counted level by
    level: the faces with s vertices are the generators with s vertices
    and every face with s + 1 vertices less one of its vertices."""
    by_size = {}
    for m in generators:
        by_size.setdefault(m.bit_count(), []).append(m)
    counts = []
    level = set()
    for s in range(max(by_size), -1, -1):
        below = set(by_size.get(s, ()))
        for m in level:
            rest = m
            while rest:
                b = rest & -rest
                below.add(m ^ b)
                rest ^= b
        level = below
        counts.append(len(level))
    return counts[::-1]


# -- constructions -------------------------------------------------------


def cross_polytope_boundary(d) -> SimplicialComplex:
    """Boundary complex on pairs +-1..+-d: all antipodal-pair-free sets."""
    if d < 1:
        raise InputError("cross-polytope dimension must be >= 1")
    check_cross_polytope_size(d)
    facets = [
        tuple(sorted(i * e for i, e in zip(range(1, d + 1), signs)))
        for signs in itertools.product((1, -1), repeat=d)
    ]
    return SimplicialComplex(facets, _cs=True)


def join(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Join: faces are unions of a face of each operand."""
    if set(a.ground_set) & set(b.ground_set):
        raise GroundSetOverlap(
            f"common labels {sorted(set(a.ground_set) & set(b.ground_set))}"
        )
    return SimplicialComplex(
        [fa + fb for fa in a.facets for fb in b.facets],
        ground_set=a.ground_set + b.ground_set,
    )


def detect_cross_polytope_subcomplexes(cx: SimplicialComplex, j) -> list:
    """Index sets {k_1..k_j} whose full sign patterns are all faces of cx.

    A hit means the boundary complex of the j-dimensional cross-polytope
    on the antipodal pairs +-k_1..+-k_j sits inside cx as a subcomplex.
    """
    if not cx.cs:
        raise NotCs("detector requires a centrally symmetric complex")
    if j < 1:
        raise InputError("index-set size must be >= 1")
    verts = set(cx.vertices)
    pairs = sorted(v for v in verts if v > 0 and -v in verts)
    hits = []
    for sigma in itertools.combinations(pairs, j):
        if all(
            cx.contains(tuple(k * e for k, e in zip(sigma, signs)))
            for signs in itertools.product((1, -1), repeat=j)
        ):
            hits.append(tuple(sigma))
    return hits


# -- JSON ----------------------------------------------------------------


# a JSON string, whose brackets nest nothing, and a run of non-brackets
_JSON_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"')
_NOT_BRACKETS = re.compile(r"[^][{}]+")


def load_json(text: str):
    """json.loads with every parse failure raised as InputError, nesting
    past MAX_JSON_DEPTH refused before parsing, and an object that repeats
    a key refused, where json.loads keeps the last."""
    depth = 0
    for c in _NOT_BRACKETS.sub("", _JSON_STRING.sub("", text)):
        depth += 1 if c in "[{" else -1
        if depth > MAX_JSON_DEPTH:
            raise InputError(
                f"JSON nested deeper than {MAX_JSON_DEPTH} levels"
            )
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON at line {e.lineno}: {e.msg}") from e
    except ValueError as e:
        # an integer beyond Python's digit limit for int(str)
        raise InputError(f"invalid JSON: {e}") from e


def _unique_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InputError(f"invalid JSON: key {key!r} is repeated in "
                             "one object")
        obj[key] = value
    return obj


def complex_from_json(text: str) -> SimplicialComplex:
    """Parse {"facets": [[..]], "cs": bool, "ground_set"?: [..]}."""
    return complex_from_json_obj(load_json(text))


def _is_label_list(value) -> bool:
    # JSON true/false arrive as bool, a subclass of int: not labels
    return isinstance(value, list) and all(type(v) is int for v in value)


def facets_from_json(facets) -> list:
    """Check a JSON "facets" value: a nonempty list of integer lists,
    none of which repeats a label, with at least one vertex among them.
    The complex whose only face is empty has d = 0 and admits no special
    l.s.o.p., so every command refuses it here."""
    if (
        not isinstance(facets, list)
        or not facets
        or not all(_is_label_list(f) for f in facets)
    ):
        raise InputError('"facets" must be a nonempty list of integer lists')
    for f in facets:
        if len(set(f)) != len(f):
            raise InputError(f"facet {f} repeats a label")
    if not any(facets):
        raise InputError('"facets" must hold at least one vertex')
    return facets


def complex_from_json_obj(obj) -> SimplicialComplex:
    if not isinstance(obj, dict) or "facets" not in obj:
        raise InputError('missing "facets" field')
    facets = facets_from_json(obj["facets"])
    expect_cs = obj.get("cs", False)
    if not isinstance(expect_cs, bool):
        raise InputError('"cs" must be true or false')
    ground = obj.get("ground_set")
    if ground is not None and not _is_label_list(ground):
        raise InputError('"ground_set" must be a list of integers')
    return SimplicialComplex.from_facets(
        facets, expect_cs=expect_cs, ground_set=ground
    )
