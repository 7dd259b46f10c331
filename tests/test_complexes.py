from __future__ import annotations

import itertools
import json
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csstress import (
    CsViolation,
    GroundSetOverlap,
    InputError,
    NotAFace,
    NotPure,
    RedundantFacet,
    SimplicialComplex,
    complex_from_json,
    complex_to_json_obj,
    cross_polytope_boundary,
    detect_cross_polytope_subcomplexes,
    face,
    join,
    negate,
)
from oracles import (
    brute_contains,
    brute_cross_polytope_pairs,
    brute_f_vector,
    brute_has_redundant_facet,
    brute_is_cs,
    h_from_f,
)
from strategies import LABELS, near_cs_facets


def test_face_normalizes_and_rejects_zero():
    assert face([3, 1, 1]) == (1, 3)
    assert face([-2, 1]) == (-2, 1)
    with pytest.raises(InputError):
        face([0, 1])


def test_negate_flips_every_label():
    assert negate((1, -2, 3)) == (-3, -1, 2)
    assert negate(()) == ()


def test_facet_inclusion_is_rejected():
    with pytest.raises(RedundantFacet):
        SimplicialComplex([(1, 2, 3), (1, 2)])


def test_duplicate_facets_collapse():
    cx = SimplicialComplex([(1, 2), (2, 1)])
    assert cx.facets == ((1, 2),)


def test_octahedron_counts(octahedron):
    vec = octahedron.fhg_vectors()
    assert vec.d == 3
    assert vec.f == (1, 6, 12, 8)
    assert vec.h == (1, 3, 3, 1)
    assert vec.g == (1, 2)
    assert len(octahedron.faces_of_dim(1)) == 12
    assert octahedron.faces_of_dim(-1) == [()]
    assert octahedron.cs


def test_link_of_vertex_in_octahedron_is_square(octahedron):
    link = octahedron.link((1,))
    square = cross_polytope_boundary(2).relabel({1: 2, -1: -2, 2: 3, -2: -3})
    assert link == square
    assert link.cs


def test_star_keeps_the_vertex(octahedron):
    star = octahedron.star((1,))
    assert all(1 in f for f in star.facets)
    assert not star.cs
    with pytest.raises(NotAFace):
        octahedron.star((1, -1))


def test_link_requires_a_face(octahedron):
    with pytest.raises(NotAFace):
        octahedron.link((7,))


def test_cs_detection_requires_antipodal_faces():
    path = SimplicialComplex([(1, 2), (-1, -2), (1, -2)])
    assert not path.cs  # edge {1,-2} has no antipode {-1,2}
    square = SimplicialComplex([(1, 2), (2, -1), (-1, -2), (-2, 1)])
    assert square.cs


def test_expect_cs_raises_on_violation():
    with pytest.raises(CsViolation):
        SimplicialComplex.from_facets([(1, 2), (1, -2)], expect_cs=True)


def test_ground_set_may_exceed_vertices():
    cx = SimplicialComplex([(1, 2)], ground_set=[1, -1, 2, -2, 3, -3])
    assert cx.vertices == (1, 2)
    assert cx.ground_set == (-3, -2, -1, 1, 2, 3)
    with pytest.raises(InputError):
        SimplicialComplex([(1, 2)], ground_set=[1, 2, 0])
    with pytest.raises(InputError):
        SimplicialComplex([(1, 2)], ground_set=[1])


def test_relabel_must_be_injective(octahedron):
    with pytest.raises(InputError):
        octahedron.relabel({v: 1 for v in octahedron.vertices})


def test_relabel_roundtrip(octahedron):
    fwd = {v: v * 2 for v in octahedron.ground_set}
    back = {v * 2: v for v in octahedron.ground_set}
    assert octahedron.relabel(fwd).relabel(back) == octahedron


def test_fhg_requires_pure():
    mixed = SimplicialComplex([(1, 2, 3), (4, 5)])
    assert not mixed.is_pure()
    with pytest.raises(NotPure):
        mixed.fhg_vectors()


def test_h_negative_entry_for_disjoint_edges(noncm):
    vec = noncm.fhg_vectors()
    assert vec.f == (1, 4, 2)
    assert vec.h == (1, 2, -1)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cross_polytope_boundary_face_counts(d):
    cx = cross_polytope_boundary(d)
    vec = cx.fhg_vectors()
    assert vec.f[1] == 2 * d
    assert len(cx.facets) == 2**d
    assert cx.cs
    from math import comb

    assert vec.h == tuple(comb(d, i) for i in range(d + 1))


def test_cross_polytope_rejects_nonpositive_dimension():
    with pytest.raises(InputError):
        cross_polytope_boundary(0)


def test_join_of_two_circles_is_octahedron_shape():
    s0 = SimplicialComplex([(1,), (-1,)])
    s1 = SimplicialComplex([(2,), (-2,)])
    square = join(s0, s1)
    assert square == cross_polytope_boundary(2)
    with pytest.raises(GroundSetOverlap):
        join(s0, s0)


def test_f_vectors_match_brute_enumeration(corpus):
    for inst in corpus:
        cx = inst.complex
        if not cx.is_pure():
            continue
        vec = cx.fhg_vectors()
        assert list(vec.f) == brute_f_vector(cx.facets), inst.name
        assert list(vec.h) == h_from_f(list(vec.f)), inst.name


def test_detector_on_octahedron(octahedron):
    assert detect_cross_polytope_subcomplexes(octahedron, 3) == [(1, 2, 3)]
    assert detect_cross_polytope_subcomplexes(octahedron, 2) == [
        (1, 2), (1, 3), (2, 3),
    ]
    assert detect_cross_polytope_subcomplexes(octahedron, 1) == [
        (1,), (2,), (3,),
    ]


def test_detector_on_bipyramid_finds_no_triple(corpus_by_name):
    cx = corpus_by_name["bipyramid_m3"].complex
    assert detect_cross_polytope_subcomplexes(cx, 3) == []
    assert (4,) in detect_cross_polytope_subcomplexes(cx, 1)


def test_detector_agrees_with_brute_force(corpus):
    for inst in corpus:
        cx = inst.complex
        if not cx.cs:
            continue
        pairs = {abs(v) for v in cx.vertices}
        if len(pairs) > 6:
            continue
        for j in range(1, cx.dim + 2):
            assert detect_cross_polytope_subcomplexes(cx, j) == [
                tuple(c) for c in brute_cross_polytope_pairs(cx.facets, j)
            ], (inst.name, j)


def test_json_roundtrip(octahedron):
    text = json.dumps(complex_to_json_obj(octahedron))
    assert complex_from_json(text) == octahedron


def test_json_keeps_large_ground_set():
    cx = SimplicialComplex([(1, 2)], ground_set=[1, -1, 2, -2, 3, -3])
    obj = complex_to_json_obj(cx)
    assert obj["ground_set"] == [-3, -2, -1, 1, 2, 3]
    assert complex_from_json(json.dumps(obj)) == cx


def test_json_rejects_malformed_input():
    with pytest.raises(InputError):
        complex_from_json("not json")
    with pytest.raises(InputError):
        complex_from_json('{"facets": []}')
    with pytest.raises(InputError):
        complex_from_json('{"facets": [[1, "a"]]}')
    with pytest.raises(InputError):
        complex_from_json('[1, 2]')


# -- the face-indexed layer against facet-scan oracles ---------------------

ANY_FACETS = st.lists(st.lists(LABELS, max_size=4), min_size=1, max_size=6)


@given(
    facets=st.one_of(ANY_FACETS, near_cs_facets()),
    extra=st.lists(LABELS, max_size=2),
    probes=st.lists(st.lists(st.integers(-5, 5), max_size=4), max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_complex_layer_matches_facet_scan_oracles(facets, extra, probes):
    ground = sorted({v for f in facets for v in f} | set(extra))
    if brute_has_redundant_facet(facets):
        with pytest.raises(RedundantFacet):
            SimplicialComplex(facets, ground_set=ground)
        return
    cx = SimplicialComplex(facets, ground_set=ground)
    assert cx.cs == brute_is_cs(facets, ground)
    for tau in probes + [[]] + [list(reversed(f)) * 2 for f in facets]:
        assert cx.contains(tau) == brute_contains(facets, tau), tau


def test_pure_complex_builds_no_face_set_to_construct():
    cx = SimplicialComplex.from_facets(
        [(1, 2), (2, -1), (-1, -2), (-2, 1)], expect_cs=True
    )
    assert cx._faces is None
    faces = cx.all_faces()
    assert cx.contains((2, 1)) and cx.all_faces() is faces


def test_ten_cross_polytope_loads_with_closed_form_f_vector():
    facets = [
        tuple(k * s for k, s in zip(range(1, 11), signs))
        for signs in itertools.product((1, -1), repeat=10)
    ]
    cx = SimplicialComplex.from_facets(facets, expect_cs=True)
    assert cx.cs
    assert len(cx.facets) == 1024
    assert cx.fhg_vectors().f == tuple(
        2**k * comb(10, k) for k in range(11)
    )


def test_face_subset_limit():
    # 2^20 subsets: one 20-vertex facet, like the 10-cross-polytope above,
    # is at the limit; the refusals come before any face is enumerated
    SimplicialComplex([tuple(range(1, 21))])
    with pytest.raises(InputError):
        SimplicialComplex([tuple(range(1, 22))])
    with pytest.raises(InputError):
        SimplicialComplex([tuple(range(1, 21)), (21, 22)])
