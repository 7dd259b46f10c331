"""Hypothesis strategies shared by the property and fuzz tests."""

from __future__ import annotations

from hypothesis import strategies as st

LABELS = st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])


@st.composite
def cs_facet_halves(draw, max_size=3):
    """Facets of one sign class of a pure cs complex on pairs 1..4; the
    complex is these plus their negations."""
    size = draw(st.integers(1, max_size))
    return draw(st.lists(
        st.tuples(
            st.permutations([1, 2, 3, 4]),
            st.lists(st.sampled_from([1, -1]), min_size=size,
                     max_size=size),
        ).map(lambda t: [k * s for k, s in zip(t[0], t[1])]),
        min_size=1, max_size=4,
    ))


@st.composite
def near_cs_facets(draw):
    """A pure cs facet list, or one with a facet dropped or added, or a
    facet pair widened by an antipodal vertex."""
    half = draw(cs_facet_halves())
    facets = half + [[-v for v in f] for f in half]
    change = draw(st.sampled_from(["none", "drop", "add", "antipodal"]))
    if change == "antipodal":
        # still closed under negation, but one facet pair holds {v, -v}
        f = draw(st.sampled_from(half))
        g = f + [-f[0]]
        facets = [h for h in facets if sorted(h) not in (
            sorted(f), sorted(-v for v in f))] + [g, [-v for v in g]]
    elif change == "drop":
        facets.remove(draw(st.sampled_from(facets)))
        facets = facets or [[1]]
    elif change == "add":
        facets.append(draw(st.lists(LABELS, max_size=4)))
    return facets


@st.composite
def pure_facets(draw, max_size=3):
    """Facets of one size on the labels +-1..+-4: mostly not cs, and
    free to hold an antipodal pair."""
    size = draw(st.integers(1, max_size))
    return draw(st.lists(
        st.lists(LABELS, min_size=size, max_size=size, unique=True),
        min_size=1, max_size=6,
    ))
