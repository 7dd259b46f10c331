"""Simplicial complexes on signed vertex labels.

Vertices are nonzero integers.  A complex is centrally symmetric (cs) when
the relabeling v -> -v maps every nonempty face to a different face of the
complex, so the involution acts freely on faces.  Complexes are stored by
their facets plus one face set, built on first use and kept: face
membership is a lookup in that set, and the cs and redundancy checks work
on facets, so a pure complex never builds it just to be constructed.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

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
# 10 vertices) and one 20-vertex facet, whose face set takes about 1 s of
# CPU and 180 MiB to build; each further vertex doubles both, so larger
# complexes are refused up front instead of never finishing.
MAX_FACE_SUBSETS = 2**20


def face(vertices) -> Face:
    """Canonical form of a face: ascending labels, no duplicates."""
    vs = sorted(set(vertices))
    if any(v == 0 for v in vs):
        raise InputError("vertex labels must be nonzero integers")
    return tuple(vs)


def negate(tau: Face) -> Face:
    return tuple(sorted(-v for v in tau))


@dataclass(frozen=True)
class FHGVectors:
    """Face counts f_(-1..d-1), the h-transform, and g_i = h_i - h_(i-1)."""

    d: int
    f: tuple[int, ...]
    h: tuple[int, ...]
    g: tuple[int, ...]


class SimplicialComplex:
    """Immutable simplicial complex given by an inclusion-free facet list."""

    __slots__ = ("facets", "ground_set", "cs", "_faces")

    def __init__(self, facets, ground_set=None, _cs=None):
        fs = sorted({face(f) for f in facets})
        if not fs:
            raise InputError("at least one facet is required")
        subsets = sum(1 << len(f) for f in fs)
        if subsets > MAX_FACE_SUBSETS:
            raise InputError(
                f"facets span {subsets} vertex subsets, more than the "
                f"limit of {MAX_FACE_SUBSETS}"
            )
        self.facets = tuple(fs)
        self._faces = None
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
            raise CsViolation(
                "facets do not define a free involution under v -> -v"
            )
        return cx

    def _check_redundancy(self) -> None:
        """Raise RedundantFacet if a facet lies inside another facet.

        Facets are distinct, so only a smaller facet f can lie inside a
        larger one, and it does exactly when f plus one more vertex is a
        face.  A pure complex has nothing to check.
        """
        top = self.dim + 1
        verts = self.vertices
        for f in self.facets:
            if len(f) == top:
                continue
            if any(v not in f and self.contains(f + (v,)) for v in verts):
                big = next(g for g in self.facets if set(f) < set(g))
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
        return tuple(sorted(set(tau))) in self.all_faces()

    def all_faces(self) -> frozenset:
        """Every face, including the empty face."""
        if self._faces is None:
            # filled in place: no set copy is ever alive beside it
            self._faces = frozenset(itertools.chain.from_iterable(
                itertools.combinations(f, s)
                for f in self.facets
                for s in range(len(f) + 1)
            ))
        return self._faces

    def faces_of_dim(self, i) -> list[Face]:
        """Faces of dimension i in lexicographic order; [( )] for i = -1."""
        if i < -1 or i > self.dim:
            return []
        return sorted(t for t in self.all_faces() if len(t) == i + 1)

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
        """f-, h- and g-vectors; requires a pure complex."""
        if not self.is_pure():
            raise NotPure("h-vector requires a pure complex")
        d = self.dim + 1
        counts = {}
        for t in self.all_faces():
            counts[len(t)] = counts.get(len(t), 0) + 1
        f = tuple(counts.get(s, 0) for s in range(d + 1))
        h = tuple(
            sum(
                (-1) ** (i - k) * math.comb(d - k, i - k) * f[k]
                for k in range(i + 1)
            )
            for i in range(d + 1)
        )
        g = (1,) + tuple(h[i] - h[i - 1] for i in range(1, d // 2 + 1))
        return FHGVectors(d=d, f=f, h=h, g=g)


# -- constructions -------------------------------------------------------


def cross_polytope_boundary(d) -> SimplicialComplex:
    """Boundary complex on pairs +-1..+-d: all antipodal-pair-free sets."""
    if d < 1:
        raise InputError("cross-polytope dimension must be >= 1")
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


def load_json(text: str):
    """json.loads with every parse failure raised as InputError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON at line {e.lineno}: {e.msg}") from e
    except ValueError as e:
        # an integer beyond Python's digit limit for int(str)
        raise InputError(f"invalid JSON: {e}") from e


def complex_from_json(text: str) -> SimplicialComplex:
    """Parse {"facets": [[..]], "cs": bool, "ground_set"?: [..]}."""
    return complex_from_json_obj(load_json(text))


def _is_label_list(value) -> bool:
    # JSON true/false arrive as bool, a subclass of int: not labels
    return isinstance(value, list) and all(type(v) is int for v in value)


def facets_from_json(facets) -> list:
    """Check a JSON "facets" value: a nonempty list of integer lists,
    none of which repeats a label."""
    if (
        not isinstance(facets, list)
        or not facets
        or not all(_is_label_list(f) for f in facets)
    ):
        raise InputError('"facets" must be a nonempty list of integer lists')
    for f in facets:
        if len(set(f)) != len(f):
            raise InputError(f"facet {f} repeats a label")
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


def complex_to_json_obj(cx: SimplicialComplex) -> dict:
    obj = {"facets": [list(f) for f in sorted(cx.facets)], "cs": cx.cs}
    if set(cx.ground_set) != set(cx.vertices):
        obj["ground_set"] = list(cx.ground_set)
    return obj
