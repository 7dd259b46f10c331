"""Graded polynomial arithmetic over vertex variables x_v, v a signed label.

Coefficients are exact rationals.  The canonical variable order places -k
immediately after +k (1, -1, 2, -2, ...), and monomial lists are emitted in
descending graded-lex order with respect to it, so matrix layouts and golden
files are reproducible.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .complexes import MAX_FACE_SUBSETS, SimplicialComplex
from .errors import InputError, NotSquarefree, ZeroPolynomial


def _vkey(v: int):
    return (abs(v), v < 0)


class Monomial:
    """Product of vertex variables with positive integer exponents."""

    __slots__ = ("exps", "degree", "_hash")

    def __init__(self, exps=()):
        acc = {}
        for v, e in exps:
            if v == 0 or e < 0:
                raise ValueError("labels nonzero, exponents nonnegative")
            if e:
                acc[v] = acc.get(v, 0) + e
        pairs = tuple(sorted(acc.items(), key=lambda p: _vkey(p[0])))
        self.exps = pairs
        self.degree = sum(acc.values())
        self._hash = hash(pairs)

    @classmethod
    def _canonical(cls, pairs, degree) -> "Monomial":
        """Monomial of `pairs`, already in canonical order with positive
        exponents summing to `degree`."""
        m = object.__new__(cls)
        m.exps = pairs
        m.degree = degree
        m._hash = hash(pairs)
        return m

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(v for v, _ in self.exps))

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.exps)

    def divide(self, v: int) -> "Monomial":
        """Divide by x_v; requires x_v | self."""
        e, lower = exps_divide(self.exps, v)
        if not e:
            raise ValueError(f"x_{v} does not divide {self}")
        return Monomial._canonical(lower, self.degree - 1)

    def negate(self) -> "Monomial":
        """Image under the involution x_v -> x_{-v}."""
        return Monomial._canonical(negated_exps(self.exps), self.degree)

    def exponent(self, v: int) -> int:
        for u, e in self.exps:
            if u == v:
                return e
        return 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        # merge the two canonical exps, adding the exponents of a shared
        # variable
        a, b = self.exps, other.exps
        merged = []
        i = j = 0
        while i < len(a) and j < len(b):
            u, v = a[i][0], b[j][0]
            if u == v:
                merged.append((u, a[i][1] + b[j][1]))
                i += 1
                j += 1
            elif _vkey(u) < _vkey(v):
                merged.append(a[i])
                i += 1
            else:
                merged.append(b[j])
                j += 1
        return Monomial._canonical(
            tuple(merged) + a[i:] + b[j:], self.degree + other.degree
        )

    def sort_key(self):
        # ascending sort by this key lists same-degree monomials in
        # descending lex order over the canonical variable order
        return tuple((_vkey(v), -e) for v, e in self.exps)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return self._hash

    def text(self) -> str:
        if not self.exps:
            return "1"
        return " ".join(
            f"x_{v}" if e == 1 else f"x_{v}^{e}" for v, e in self.exps
        )

    def __repr__(self):
        return f"Monomial({self.text()})"


def negated_exps(pairs: tuple) -> tuple:
    """`exps` of the image under x_v -> x_{-v} of the monomial whose
    `exps` are `pairs`."""
    negated = tuple((-v, e) for v, e in pairs)
    # the order compares |v| first, so only x_k and x_{-k} held
    # together, which sit next to each other, trade places
    if any(u == -v for (u, _), (v, _) in zip(negated, negated[1:])):
        negated = tuple(sorted(negated, key=lambda p: _vkey(p[0])))
    return negated


def exps_divide(exps: tuple, v: int) -> tuple:
    """(e, exps of m / x_v) for the monomial m whose `exps` are given and
    its exponent e of x_v; e is 0, and exps are returned, when x_v does
    not divide m."""
    for n, (u, e) in enumerate(exps):
        if u == v:
            # lowering or dropping one exponent keeps the order
            rest = exps[n + 1:]
            if e > 1:
                rest = ((u, e - 1),) + rest
            return e, exps[:n] + rest
    return 0, exps


def exps_times(exps: tuple, v: int) -> tuple:
    """`exps` of x_v m for the monomial m whose `exps` are given."""
    a = abs(v)
    for n, (u, e) in enumerate(exps):
        if u == v:
            return exps[:n] + ((v, e + 1),) + exps[n + 1:]
        # the canonical order puts x_v before x_u
        if abs(u) > a or (u == -v and v > 0):
            return exps[:n] + ((v, 1),) + exps[n:]
    return exps + ((v, 1),)


def exps_partials(exps: tuple):
    """(v, e, exps of m / x_v) for each factor x_v^e of the monomial m
    whose `exps` are given."""
    for n, (v, e) in enumerate(exps):
        if e > 1:
            yield v, e, exps[:n] + ((v, e - 1),) + exps[n + 1:]
        else:
            yield v, e, exps[:n] + exps[n + 1:]


ONE = Monomial()


class Polynomial:
    """Homogeneous polynomial: map from Monomial to nonzero rational."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc = {}
        if isinstance(terms, dict):
            terms = terms.items()
        repeated = False
        for m, c in terms:
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c:
                if m in acc:
                    acc[m] += c
                    repeated = True
                else:
                    acc[m] = c
        if repeated:
            acc = {m: c for m, c in acc.items() if c}
        degrees = {m.degree for m in acc}
        if len(degrees) > 1:
            raise ValueError(f"not homogeneous: degrees {sorted(degrees)}")
        self.terms = acc

    @classmethod
    def _of(cls, terms: dict) -> "Polynomial":
        """Polynomial of `terms`, already nonzero Fractions on distinct
        monomials of one degree."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def variable(cls, v: int) -> "Polynomial":
        return cls([(Monomial([(v, 1)]), 1)])

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls([(ONE, c)])

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        """Common degree of all terms; None for the zero polynomial."""
        for m in self.terms:
            return m.degree
        return None

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

    def items(self):
        """Terms in canonical (descending graded-lex) order."""
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other, for sign +1 or -1."""
        if other.is_zero():
            return self
        if self.is_zero():
            return other if sign == 1 else -other
        if self.degree != other.degree:
            raise ValueError(
                f"not homogeneous: degrees "
                f"{sorted((self.degree, other.degree))}"
            )
        acc = dict(self.terms)
        for m, c in other.terms.items():
            if sign != 1:
                c = -c
            if m in acc:
                c += acc[m]
                if not c:
                    del acc[m]
                    continue
            acc[m] = c
        return Polynomial._of(acc)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, 1)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, -1)

    def scale(self, c) -> "Polynomial":
        if not isinstance(c, Fraction):
            c = Fraction(c)
        if not c:
            return Polynomial()
        return Polynomial._of({m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = []
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                out.append((m1 * m2, c1 * c2))
        return Polynomial(out)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def text(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c} * {m.text()}" if m.exps else f"{c}"
                          for m, c in self.items())

    def __repr__(self):
        return f"Polynomial({self.text()})"


class LinearForm:
    """Degree-1 form sum c_v x_v with a computed involution-parity tag."""

    __slots__ = ("coeffs", "parity")

    def __init__(self, coeffs):
        if isinstance(coeffs, dict):
            coeffs = coeffs.items()
        acc = {}
        for v, c in coeffs:
            if v == 0:
                raise ValueError("labels must be nonzero")
            c = Fraction(c)
            if c:
                acc[v] = acc.get(v, Fraction(0)) + c
        self.coeffs = {v: c for v, c in acc.items() if c}
        self.parity = self._classify()

    def _classify(self) -> str:
        if not self.coeffs:
            return "none"
        minus = all(
            self.coeffs.get(-v, Fraction(0)) == -c
            for v, c in self.coeffs.items()
        )
        if minus:
            return "minus"
        plus = all(
            self.coeffs.get(-v, Fraction(0)) == c
            for v, c in self.coeffs.items()
        )
        return "plus" if plus else "none"

    @classmethod
    def minus_combination(cls, weights) -> "LinearForm":
        """Sum over positive labels k of weight_k * (x_k - x_{-k})."""
        coeffs = {}
        for k, c in weights.items():
            if k <= 0:
                raise ValueError("weights are keyed by positive labels")
            coeffs[k] = Fraction(c)
            coeffs[-k] = -Fraction(c)
        return cls(coeffs)

    @classmethod
    def all_ones(cls, labels) -> "LinearForm":
        return cls({v: 1 for v in labels})

    def coefficient(self, v: int) -> Fraction:
        return self.coeffs.get(v, Fraction(0))

    def items(self):
        return sorted(self.coeffs.items(), key=lambda t: _vkey(t[0]))

    def __eq__(self, other):
        return isinstance(other, LinearForm) and self.coeffs == other.coeffs

    def text(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c} * x_{v}" for v, c in self.items())

    def __repr__(self):
        return f"LinearForm({self.text()}, parity={self.parity})"


# -- Delta-supported monomial bases ---------------------------------------


def _compositions(total: int, parts: int):
    """Positive integer tuples of given length summing to total."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        prev = 0
        out = []
        for c in cuts + (total,):
            out.append(c - prev)
            prev = c
        yield tuple(out)


def monomial_count(cx: SimplicialComplex, i: int) -> int:
    """Number of degree-i monomials on faces of cx, from its face counts."""
    if i == 0:
        return 1
    # a face with s vertices carries C(i-1, s-1) of them
    return sum(
        n * math.comb(i - 1, s - 1) for s, n in cx.face_counts().items() if s
    )


def delta_monomials(cx: SimplicialComplex, i: int) -> list[Monomial]:
    """Degree-i monomials supported on a face of cx, in canonical order."""
    if i < 0:
        raise ValueError("degree must be >= 0")
    if i == 0:
        return [ONE]
    count = monomial_count(cx, i)
    if count > MAX_FACE_SUBSETS:
        raise InputError(
            f"degree {i} has {count} face-supported monomials, more than "
            f"the limit of {MAX_FACE_SUBSETS}"
        )
    out = []
    for tau in sorted(cx.all_faces()):
        s = len(tau)
        if 1 <= s <= i:
            ordered = sorted(tau, key=_vkey)
            for comp in _compositions(i, s):
                out.append(Monomial(zip(ordered, comp)))
    out.sort(key=Monomial.sort_key)
    return out


# -- Differential operators and the involution -----------------------------


def partial_derivative(w: Polynomial, v: int) -> Polynomial:
    """Partial derivative with respect to x_v."""
    # dividing by x_v maps distinct monomials to distinct monomials of
    # one degree, and e * c is a nonzero Fraction, so nothing needs the
    # normalisation of Polynomial.__init__
    out = {}
    for m, c in w.terms.items():
        e, lower = exps_divide(m.exps, v)
        if e:
            out[Monomial._canonical(lower, m.degree - 1)] = c * e
    return Polynomial._of(out)


def apply_derivative(c: LinearForm, w: Polynomial) -> Polynomial:
    """The operator sending w to sum_v c_v * d/dx_v (w)."""
    out = []
    for m, coef in w.terms.items():
        for v, e in m.exps:
            cv = c.coeffs.get(v)
            if cv:
                out.append((m.divide(v), coef * e * cv))
    return Polynomial(out)


def involution_action(w: Polynomial) -> Polynomial:
    """Substitute x_{-v} for x_v throughout."""
    # negation permutes the monomials of each degree
    return Polynomial._of({m.negate(): c for m, c in w.terms.items()})


def is_symmetric(w: Polynomial) -> bool:
    return involution_action(w) == w


def pm_split(w: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Decompose w into symmetric and antisymmetric parts."""
    half = Fraction(1, 2)
    terms = w.terms
    plus = {}
    minus = {}
    for m, c in terms.items():
        if m in plus or m in minus:
            continue  # set with its mirror
        n = m.negate()
        # the parts hold (c_m +- c_n) / 2 at m and +-(c_m +- c_n) / 2 at n
        cn = terms.get(n, 0)
        p = (c + cn) * half
        q = (c - cn) * half
        if p:
            plus[m] = plus[n] = p
        if q:
            minus[m] = q
            minus[n] = -q
    return Polynomial._of(plus), Polynomial._of(minus)


# -- Support, squarefreeness, pair-sum structure ---------------------------


def stress_support(w: Polynomial) -> SimplicialComplex:
    """Complex generated by the supports of the terms of w."""
    if w.is_zero():
        raise ZeroPolynomial("zero polynomial has no support complex")
    supports = {m.support for m in w.terms}
    maximal = [
        s for s in supports
        if not any(s != t and set(s) <= set(t) for t in supports)
    ]
    return SimplicialComplex(maximal)


def is_squarefree(w: Polynomial) -> bool:
    return all(m.is_squarefree() for m in w.terms)


def pair_sum(k: int) -> Polynomial:
    """The symmetric linear polynomial x_k + x_{-k} for a positive label."""
    if k <= 0:
        raise ValueError("pair label must be positive")
    return Polynomial.variable(k) + Polynomial.variable(-k)


def y_representation(w: Polynomial):
    """Write squarefree w as sum c_tau prod_{k in tau} (x_k + x_{-k}).

    Returns {tau: coefficient} with tau a sorted tuple of positive labels,
    or None when no such representation exists.  The decision uses the
    derivative criterion: representable iff d/dx_k w = d/dx_{-k} w for
    every positive label k.
    """
    if not is_squarefree(w):
        raise NotSquarefree("pair-sum representation needs squarefree input")
    labels = sorted({abs(v) for m in w.terms for v in m.support})
    for k in labels:
        if partial_derivative(w, k) != partial_derivative(w, -k):
            return None
    rep = {}
    for m, c in w.items():
        sup = m.support
        if all(v > 0 for v in sup):
            rep[sup] = c
    return rep


def expand_y_representation(rep) -> Polynomial:
    """Inverse of y_representation: expand sum c_tau prod y_k."""
    out = Polynomial.zero()
    for tau, c in sorted(rep.items()):
        term = Polynomial.constant(c)
        for k in tau:
            term = term * pair_sum(k)
        out = out + term
    return out
