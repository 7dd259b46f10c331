from __future__ import annotations

import itertools
import json
import time
import tracemalloc
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csstress import (
    CsViolation,
    FHGVectors,
    GroundSetOverlap,
    InputError,
    NotAFace,
    NotPure,
    RedundantFacet,
    SimplicialComplex,
    complex_from_json,
    cross_polytope_boundary,
    detect_cross_polytope_subcomplexes,
    face,
    join,
    negate,
)
from csstress.polynomials import monomial_count
from oracles import (
    brute_contains,
    brute_cross_polytope_pairs,
    brute_f_vector,
    brute_faces,
    brute_has_redundant_facet,
    brute_is_cs,
    h_from_f,
)
from strategies import LABELS, near_cs_facets, pure_facets


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


def test_fhg_vectors_are_counted_once(octahedron):
    vec = octahedron.fhg_vectors()
    assert octahedron.fhg_vectors() is vec
    assert vec.f == (1, 6, 12, 8)


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
    text = json.dumps({"facets": [list(f) for f in octahedron.facets],
                       "cs": True})
    assert complex_from_json(text) == octahedron


def test_json_keeps_large_ground_set():
    cx = SimplicialComplex([(1, 2)], ground_set=[1, -1, 2, -2, 3, -3])
    obj = {"facets": [[1, 2]], "ground_set": [-3, -2, -1, 1, 2, 3]}
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


def maximal_facets(facets) -> list:
    """The inclusion-maximal sets among the facets."""
    sets = {frozenset(f) for f in facets}
    return [sorted(s) for s in sets if not any(s < t for t in sets)]


def cs_closure(facets) -> list:
    """A cs complex, of any purity: each facet cut to one label per
    antipodal pair, joined by its negation, then reduced to maximal
    facets."""
    halves = [list({abs(v): v for v in f}.values()) for f in facets]
    return maximal_facets(halves + [[-v for v in f] for f in halves])


@given(
    # face_counts walks every vertex of most complexes, the positive
    # vertices of a cs one (cs_closure, near_cs_facets)
    facets=st.one_of(ANY_FACETS, near_cs_facets(), pure_facets(),
                     ANY_FACETS.map(maximal_facets),
                     ANY_FACETS.map(cs_closure)),
    extra=st.lists(LABELS, max_size=2),
    probes=st.lists(st.lists(st.integers(-5, 5), max_size=4), max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_complex_layer_matches_facet_scan_oracles(facets, extra, probes):
    ground = sorted({v for f in facets for v in f} | set(extra))
    if brute_has_redundant_facet(facets):
        # named: the first facet, in sorted order, inside another, and the
        # first facet holding it
        fs = sorted({face(f) for f in facets})
        small, big = next((f, g) for f in fs for g in fs if set(f) < set(g))
        with pytest.raises(RedundantFacet) as raised:
            SimplicialComplex(facets, ground_set=ground)
        assert str(raised.value) == f"facet {small} is contained in facet {big}"
        return
    cx = SimplicialComplex(facets, ground_set=ground)
    assert cx.cs == brute_is_cs(facets, ground)
    assert cx.face_counts() == dict(Counter(map(len, brute_faces(facets))))
    for tau in probes + [[]] + [list(reversed(f)) * 2 for f in facets]:
        assert cx.contains(tau) == brute_contains(facets, tau), tau


def test_pure_complex_builds_no_face_set_to_construct():
    cx = SimplicialComplex.from_facets(
        [(1, 2), (2, -1), (-1, -2), (-2, 1)], expect_cs=True
    )
    assert cx._masks is None
    masks = cx.face_masks()
    assert cx.contains((2, 1)) and cx.face_masks() is masks


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


def test_face_numbers_build_no_face_set():
    # f, h, g and the monomial counts come from face_counts alone, which
    # counts on vertex bitmasks: the 3^10 faces are never listed
    cx = cross_polytope_boundary(10)
    vec = cx.fhg_vectors()
    assert cx.face_counts() == {k: 2**k * comb(10, k) for k in range(11)}
    assert vec.h == tuple(comb(10, i) for i in range(11))
    assert vec.g == (1,) + tuple(
        comb(10, i) - comb(10, i - 1) for i in range(1, 6)
    )
    counts = [monomial_count(cx, i) for i in range(11)]
    assert counts[:3] == [1, 20, 20 + 180]
    assert cx._masks is None


def test_face_counts_hold_one_upper_link_at_a_time():
    # a level walk over the faces of the whole complex peaked at 1086 KiB
    cx = cross_polytope_boundary(9)
    tracemalloc.start()
    try:
        counts = cx.face_counts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == {k: 2**k * comb(9, k) for k in range(10)}
    assert peak < 600 * 2**10


def test_face_counts_of_many_vertices_read_each_vertex_star_only():
    # the bipyramid over a cs 2m-gon: 2m + 2 vertices, 4m triangles.  Each
    # vertex reads only the facets it lies on, in bits of its own link; a
    # scan of every facet per vertex took minutes at this size
    m = 10000
    edges = [(k, k + 1) for k in range(1, m)] + [(m, -1)]
    edges += [(-a, -b) for a, b in edges]
    cx = SimplicialComplex([e + (a,) for e in edges for a in (m + 1, -m - 1)])
    assert cx.cs
    start = time.process_time()
    counts = cx.face_counts()
    assert time.process_time() - start < 2
    assert counts == {0: 1, 1: 2 * m + 2, 2: 6 * m, 3: 4 * m}


def test_redundancy_check_reads_each_small_facet_against_its_rarest_vertex():
    # a cs 6000-gon plus 100 isolated vertices, so not pure: each isolated
    # vertex is tested against the one facet through it.  A membership
    # test of each small facet plus each vertex, on masks as wide as the
    # complex, took 1.4 s
    m = 3000
    edges = [(k, k + 1) for k in range(1, m)] + [(m, -1)]
    edges += [(-a, -b) for a, b in edges]
    facets = edges + [(v,) for k in range(m + 1, m + 51) for v in (k, -k)]
    start = time.process_time()
    cx = SimplicialComplex(facets)
    assert time.process_time() - start < 0.3
    assert cx.cs and not cx.is_pure()
    assert cx.face_counts() == {0: 1, 1: 2 * m + 100, 2: 2 * m}
    # the empty facet lies in every other: the first is named
    with pytest.raises(RedundantFacet,
                       match=r"^facet \(\) is contained in facet \(-3050,\)$"):
        SimplicialComplex(facets + [()])


def test_fhg_vectors_are_read_only_values():
    vec = cross_polytope_boundary(2).fhg_vectors()
    same = FHGVectors(d=2, f=(1, 4, 4), h=(1, 2, 1), g=(1, 1))
    assert vec == same and hash(vec) == hash(same)
    assert vec != FHGVectors(2, (1, 4, 4), (1, 2, 1), (1, 2))
    assert repr(vec) == "FHGVectors(d=2, f=(1, 4, 4), h=(1, 2, 1), g=(1, 1))"
    with pytest.raises(AttributeError):
        vec.h = (1, 1, 1)
    with pytest.raises(AttributeError):
        del vec.g
    assert vec.h == (1, 2, 1)


def test_face_subset_limit():
    # 2^20 subsets: one 20-vertex facet, like the 10-cross-polytope above,
    # is at the limit; the refusals come before any face is enumerated
    SimplicialComplex([tuple(range(1, 21))])
    with pytest.raises(InputError):
        SimplicialComplex([tuple(range(1, 22))])
    with pytest.raises(InputError):
        SimplicialComplex([tuple(range(1, 21)), (21, 22)])
