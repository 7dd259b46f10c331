"""Centrally symmetric simplicial polytopes with exact rational coordinates.

A polytope is stored as its vertex coordinates plus its boundary complex.
Convexity of the input is assumed, not verified; the built-in families
(`cross_polytope`, `polygon`, `bipyramid`) construct genuinely convex
instances, with polygon vertices placed at rational points of the unit
circle so that coordinates stay exact.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from math import lcm

from .complexes import (
    SimplicialComplex,
    check_cross_polytope_size,
    check_face_subsets,
    face,
    facets_from_json,
    load_json,
    vertex_key,
)
from .errors import InputError, NotCs, NotSimplicial
from .exactla import int_rank


class Polytope:
    """A cs simplicial polytope: rational vertex map plus boundary complex."""

    __slots__ = ("coordinates", "boundary")

    def __init__(self, coordinates, facets):
        coords = {}
        keys = {}  # label -> the key that named it
        for key, vec in coordinates.items():
            v = int(key)
            if v == 0:
                raise InputError("vertex labels must be nonzero")
            if v in keys:
                raise InputError(f"vertex {v} is named twice, by "
                                 f"{keys[v]!r} and {key!r}")
            keys[v] = key
            coords[v] = tuple(Fraction(x) for x in vec)
        if not coords:
            raise InputError("a polytope needs at least one vertex pair")
        dims = {len(vec) for vec in coords.values()}
        if len(dims) != 1:
            raise InputError("coordinate vectors differ in length")
        d = dims.pop()
        if d < 1:
            raise InputError("coordinates must have at least one entry")
        for v, vec in coords.items():
            if -v not in coords:
                raise NotCs(f"vertex {v} has no antipode {-v}")
            if coords[-v] != tuple(-x for x in vec):
                raise NotCs(
                    f"coordinates of {-v} are not the negation of {v}'s"
                )
        boundary = SimplicialComplex.from_facets(facets, expect_cs=True)
        extra = set(boundary.ground_set) - set(coords)
        if extra:
            raise InputError(
                f"facets use labels without coordinates: {sorted(extra)}"
            )
        unused = set(coords) - set(boundary.ground_set)
        if unused:
            raise InputError(
                f"coordinates name labels no facet uses: {sorted(unused)}"
            )
        for f in boundary.facets:
            if len(f) != d:
                raise NotSimplicial(
                    f"facet {list(f)} has {len(f)} vertices, expected {d}"
                )
            if not _affinely_independent([coords[v] for v in f]):
                raise NotSimplicial(
                    f"facet {list(f)} is affinely degenerate"
                )
        self.coordinates = coords
        self.boundary = boundary

    @property
    def d(self) -> int:
        """Ambient (= polytope) dimension."""
        return len(next(iter(self.coordinates.values())))

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.coordinates, key=vertex_key))

    def __eq__(self, other):
        if not isinstance(other, Polytope):
            return NotImplemented
        return (
            self.coordinates == other.coordinates
            and self.boundary == other.boundary
        )

    def __hash__(self):
        return hash(
            (tuple(sorted(self.coordinates.items())), self.boundary)
        )

    def __repr__(self):
        return (
            f"Polytope(d={self.d}, vertices={len(self.coordinates)}, "
            f"facets={len(self.boundary.facets)})"
        )


def _affinely_independent(points) -> bool:
    """Are the difference rows p - points[0] independent?  They are
    scaled to integers by one common denominator."""
    if len(points) <= 1:
        return True
    scale = lcm(*(x.denominator for p in points for x in p))
    scaled = [[x.numerator * (scale // x.denominator) for x in p]
              for p in points]
    base = scaled[0]
    rows = [{j: x - b for j, (x, b) in enumerate(zip(p, base)) if x != b}
            for p in scaled[1:]]
    return int_rank(rows) == len(rows)


# -- built-in families -----------------------------------------------------


def cross_polytope(d) -> Polytope:
    """C*_d with vertices at ±e_k; boundary is ∂C*_d."""
    if d < 1:
        raise ValueError("d must be at least 1")
    check_cross_polytope_size(d)
    coords = {}
    for k in range(1, d + 1):
        unit = tuple(
            Fraction(1 if j == k else 0) for j in range(1, d + 1)
        )
        coords[k] = unit
        coords[-k] = tuple(-x for x in unit)
    facets = [
        tuple(s * k for k, s in zip(range(1, d + 1), signs))
        for signs in itertools.product((1, -1), repeat=d)
    ]
    return Polytope(coords, facets)


def _circle_point(t: Fraction) -> tuple[Fraction, Fraction]:
    """Rational point of the unit circle at parameter t = tan(angle/2)."""
    q = 1 + t * t
    return ((1 - t * t) / q, 2 * t / q)


def polygon(m) -> Polytope:
    """Convex cs 2m-gon with vertices 1..m, −1..−m in cyclic order.

    Vertices 1..m sit at strictly increasing angles in the closed upper
    half of the unit circle; the antipodes fill the lower half, so the
    cyclic order is 1, 2, ..., m, −1, −2, ..., −m.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    check_face_subsets(8 * m)  # 2m edges
    coords = {}
    for j in range(1, m + 1):
        t = Fraction(j - 1, m - j + 1)
        p = _circle_point(t)
        coords[j] = p
        coords[-j] = tuple(-x for x in p)
    return Polytope(coords, _cycle_facets(m))


def _cycle_facets(m) -> list:
    edges = [(k, k + 1) for k in range(1, m)] + [(m, -1)]
    return edges + [tuple(-v for v in e) for e in edges]


def bipyramid(m) -> Polytope:
    """Bipyramid over the cs 2m-gon, apexes ±(m+1) at ±e_3."""
    check_face_subsets(32 * m)  # 4m triangles
    base = polygon(m)
    apex = m + 1
    coords = {
        v: vec + (Fraction(0),) for v, vec in base.coordinates.items()
    }
    coords[apex] = (Fraction(0), Fraction(0), Fraction(1))
    coords[-apex] = (Fraction(0), Fraction(0), Fraction(-1))
    facets = [
        e + (a,) for e in _cycle_facets(m) for a in (apex, -apex)
    ]
    return Polytope(coords, facets)


# -- JSON ------------------------------------------------------------------


def polytope_from_json(text: str) -> Polytope:
    """Parse {"coordinates": {"1": ["2","0"], ...}, "facets": [[..]]}."""
    obj = load_json(text)
    if not isinstance(obj, dict):
        raise InputError("polytope JSON must be an object")
    return polytope_from_json_obj(obj)


def polytope_from_json_obj(obj: dict) -> Polytope:
    coords = obj.get("coordinates")
    if not isinstance(coords, dict) or not coords:
        raise InputError('missing or empty "coordinates" field')
    facets = facets_from_json(obj.get("facets"))
    parsed = {}  # keyed by the file's own keys: `Polytope` reads the labels
    for key, vec in coords.items():
        # only the canonical decimal form: int() also reads " 1", "+1",
        # "01", "1_0" and non-ASCII digits
        try:
            canonical = str(int(key)) == key
        except ValueError:
            canonical = False
        if not canonical:
            raise InputError(f"bad vertex label {key!r}")
        if not isinstance(vec, list):
            raise InputError(f"coordinates of {key} must be a list")
        try:
            parsed[key] = tuple(_rational(str(x), key) for x in vec)
        except (ValueError, ZeroDivisionError):
            raise InputError(
                f"coordinates of {key} are not rationals"
            ) from None
    return Polytope(parsed, [face(f) for f in facets])


def _rational(text: str, key) -> Fraction:
    # Fraction applies a decimal exponent as 10**exp, which for "1e30000000"
    # takes about a minute; Python's own int(str) digit limit bounds it
    _, e, exp = text.lower().partition("e")
    if e:
        limit = sys.get_int_max_str_digits()
        if limit and abs(int(exp)) > limit:
            raise InputError(
                f"coordinates of {key} have a decimal exponent above {limit}"
            )
    return Fraction(text)


def polytope_to_json_obj(p: Polytope) -> dict:
    return {
        "coordinates": {
            str(v): [str(x) for x in p.coordinates[v]] for v in p.vertices
        },
        "facets": [list(f) for f in sorted(p.boundary.facets)],
    }
