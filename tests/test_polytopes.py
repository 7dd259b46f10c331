from __future__ import annotations

import json
from fractions import Fraction

import pytest

from csstress import (
    InputError,
    NotCs,
    NotSimplicial,
    Polytope,
    bipyramid,
    cross_polytope,
    cross_polytope_boundary,
    polygon,
    polytope_from_json,
    polytope_to_json_obj,
)


def test_cross_polytope_coordinates_and_boundary():
    p = cross_polytope(3)
    assert p.d == 3
    assert p.coordinates[1] == (1, 0, 0)
    assert p.coordinates[-3] == (0, 0, -1)
    assert p.boundary == cross_polytope_boundary(3)
    with pytest.raises(ValueError):
        cross_polytope(0)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_polygon_points_lie_on_the_unit_circle(m):
    p = polygon(m)
    assert p.d == 2
    assert len(p.coordinates) == 2 * m
    for xy in p.coordinates.values():
        x, y = xy
        assert x * x + y * y == 1
    vec = p.boundary.fhg_vectors()
    assert vec.f == (1, 2 * m, 2 * m)
    assert vec.h == (1, 2 * m - 2, 1)
    assert p.boundary.cs


def test_polygon_two_is_the_square():
    assert polygon(2) == cross_polytope(2)
    with pytest.raises(ValueError):
        polygon(1)


def test_polygon_coordinates_are_distinct():
    p = polygon(5)
    seen = set(p.coordinates.values())
    assert len(seen) == 10


@pytest.mark.parametrize(
    "m,f,h",
    [
        (3, (1, 8, 18, 12), (1, 5, 5, 1)),
        (4, (1, 10, 24, 16), (1, 7, 7, 1)),
        (5, (1, 12, 30, 20), (1, 9, 9, 1)),
    ],
)
def test_bipyramid_face_counts(m, f, h):
    p = bipyramid(m)
    vec = p.boundary.fhg_vectors()
    assert vec.f == f
    assert vec.h == h
    # apexes sit on the third axis
    assert p.coordinates[m + 1] == (0, 0, 1)
    assert p.coordinates[-(m + 1)] == (0, 0, -1)
    assert all(m + 1 in fc or -(m + 1) in fc for fc in p.boundary.facets)


def test_polytope_requires_antipodal_vertices():
    with pytest.raises(NotCs):
        Polytope({1: (1,), 2: (-1,)}, [(1,), (2,)])
    with pytest.raises(NotCs):
        Polytope({1: (1, 0), -1: (0, 1), 2: (0, 1), -2: (1, 0)},
                 [(1, 2), (-1, -2), (1, -2), (-1, 2)])


def test_polytope_rejects_degenerate_facets():
    # three collinear points cannot span a 2-face
    coords = {
        1: (1, 0, 0), -1: (-1, 0, 0),
        2: (2, 0, 0), -2: (-2, 0, 0),
        3: (3, 0, 0), -3: (-3, 0, 0),
    }
    with pytest.raises(NotSimplicial):
        Polytope(coords, [(1, 2, 3), (-1, -2, -3)])


def test_polytope_facet_rank_is_exact_past_the_prime():
    # the square with vertices ±32749 e_1, ±32749 e_2: each edge's
    # difference row is 0 mod 32749, yet the edges are independent
    q = 32749
    coords = {1: (q, 0), -1: (-q, 0), 2: (0, q), -2: (0, -q)}
    p = Polytope(coords, [(1, 2), (2, -1), (-1, -2), (-2, 1)])
    assert len(p.boundary.facets) == 4


def test_polytope_rejects_degenerate_rational_facets():
    # three collinear points with rational coordinates, scaled to
    # integers by one common denominator
    third, half = Fraction(1, 3), Fraction(1, 2)
    coords = {
        1: (half, third, 0), -1: (-half, -third, 0),
        2: (1, 2 * third, 0), -2: (-1, -2 * third, 0),
        3: (3 * half, 1, 0), -3: (-3 * half, -1, 0),
    }
    with pytest.raises(NotSimplicial):
        Polytope(coords, [(1, 2, 3), (-1, -2, -3)])


def test_polytope_facet_size_must_match_dimension():
    square = cross_polytope(2)
    with pytest.raises(NotSimplicial):
        Polytope(square.coordinates, [(1,), (-1,), (2,), (-2,)])


def test_polytope_facets_need_known_vertices():
    with pytest.raises(InputError):
        Polytope({1: (1, 0), -1: (-1, 0), 2: (0, 1), -2: (0, -1)},
                 [(1, 3), (-1, -3), (1, -3), (-1, 3)])


def test_polytope_equality_and_hash():
    assert cross_polytope(2) == cross_polytope(2)
    assert hash(cross_polytope(2)) == hash(cross_polytope(2))
    assert cross_polytope(2) != polygon(3)
    assert len({cross_polytope(2), polygon(2)}) == 1


def test_json_round_trip_preserves_fractions():
    p = polygon(3)
    obj = polytope_to_json_obj(p)
    assert isinstance(obj["coordinates"]["2"][0], str)
    q = polytope_from_json(json.dumps(obj))
    assert q == p
    assert q.coordinates[2][0] == Fraction(3, 5)


def test_json_rejects_malformed_polytopes():
    with pytest.raises(InputError):
        polytope_from_json('{"coordinates": {}, "facets": []}')
    with pytest.raises(InputError):
        polytope_from_json(
            '{"coordinates": {"a": ["1"]}, "facets": [[1]]}'
        )
    with pytest.raises(InputError):
        polytope_from_json(
            '{"coordinates": {"1": ["1/0"], "-1": ["-1"]}, "facets": [[1]]}'
        )
    with pytest.raises(InputError):
        polytope_from_json('[]')


@pytest.mark.parametrize("first,second", [
    ("1", "01"), ("1", "+1"), ("1", " 1"), ("10", "1_0"), ("1", "\u0661"),
])
def test_json_refuses_a_vertex_named_by_two_keys(first, second):
    # int() reads both keys as one label, and the later one once replaced
    # the earlier one's coordinates; a key that is not a label's
    # canonical decimal form is now refused on its own
    v = int(first)
    coords = {first: ["1"], str(-v): ["-1"], second: ["3"]}
    facets = [[v], [-v]]
    with pytest.raises(InputError) as exc:
        polytope_from_json(json.dumps({"coordinates": coords,
                                       "facets": facets}))
    assert str(exc.value) == f"bad vertex label {second!r}"


def test_library_refuses_a_vertex_named_by_two_keys():
    coords = {1: (1, 0), -1: (-1, 0), 2: (0, 1), -2: (0, -1), "1": (3, 1)}
    with pytest.raises(InputError, match="vertex 1 is named twice, by 1 "
                                         "and '1'"):
        Polytope(coords, [(1, 2), (2, -1), (-1, -2), (-2, 1)])


def test_generated_polygon_matches_golden_coordinates():
    p = polygon(3)
    assert p.coordinates[1] == (1, 0)
    assert p.coordinates[2] == (Fraction(3, 5), Fraction(4, 5))
    assert p.coordinates[3] == (Fraction(-3, 5), Fraction(4, 5))
    assert p.coordinates[-1] == (-1, 0)
    assert p.coordinates[-2] == (Fraction(-3, 5), Fraction(-4, 5))
