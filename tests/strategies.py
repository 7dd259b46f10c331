"""Hypothesis strategies shared by the property and fuzz tests."""

from __future__ import annotations

from fractions import Fraction

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


@st.composite
def form_coefficient_lists(draw, labels, max_forms):
    """1..max_forms coefficient maps {vertex: Fraction} on `labels`, each
    antisymmetric, symmetric, of no parity or a combination of earlier
    ones (so often linearly dependent, and sometimes zero)."""
    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    pairs = sorted({abs(v) for v in labels})
    forms = []
    for _ in range(draw(st.integers(1, max_forms))):
        kind = draw(st.sampled_from(
            ["minus", "plus", "none"] + ["combination"] * bool(forms)))
        if kind == "combination":
            parts = draw(st.lists(st.sampled_from(forms), min_size=1,
                                  max_size=2))
            weights = [draw(coeff) for _ in parts]
            form = {}
            for w, part in zip(weights, parts):
                for v, c in part.items():
                    form[v] = form.get(v, 0) + w * c
        elif kind == "none":
            form = {v: draw(coeff) for v in labels}
        else:
            sign = -1 if kind == "minus" else 1
            form = {}
            for k in pairs:
                c = draw(coeff)
                form[k], form[-k] = c, sign * c
        forms.append(form)
    return forms
