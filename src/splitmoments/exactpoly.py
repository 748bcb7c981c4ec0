"""Exact algebra of compactly supported piecewise polynomials over rationals.

A function is represented by breakpoints ``b_0 < b_1 < ... < b_k`` and ``k``
coefficient tuples.  Piece ``i`` lives on the half-open interval
``[b_i, b_{i+1})`` and its coefficients are in the global variable ``x``
(ascending degree).  The function is identically zero outside ``[b_0, b_k]``;
evaluation at the final right endpoint returns the limit from the left.

Every deep convolution runs on term lists (below), so the piecewise form only
carries transforms, their halves and squares, and small polynomials: low
degrees, for which coefficients in a local variable ``x - b_i`` would save no
coefficient growth.  In x, equal adjacent pieces have equal tuples, and
restriction, products and integrals need no change of variable;
the Taylor shift (``_pshift``, binomials from ``math.comb``) is used only
where a jump is moved to its knot (:func:`to_terms`) and back to x
(:func:`from_terms`).

All piecewise coefficients are :class:`fractions.Fraction`, so every
operation here is exact.  Every operation builds its result with the
:class:`PiecewisePoly` constructor, which always canonicalizes: zero tails of
coefficient tuples are trimmed, adjacent pieces describing the same
polynomial are merged, and leading/trailing zero pieces are dropped.  Two
constructions of the same function therefore compare equal structurally.

The second representation is the *term list*, the truncated-power
(one-sided) decomposition on a knot lattice.  A term list has a unit h > 0
(the rational gcd of its knots) and one rational scale s, and holds for each
integer knot k only its nonzero terms, int pairs (j, c_j) in increasing j, in
the divided-power basis:

    p(x) = s * sum_k sum_j c_j * e_j(x/h - k),    e_j(t) = t_+^j / j!.

:func:`to_terms` and :func:`from_terms` convert between the two forms; the
format itself stays private to this module.  In this basis convolution is
term by term and needs no factorial weights,

    e_m(x/h - a) * e_n(x/h - b) = h * e_{m+n+1}(x/h - a - b),

so :func:`term_convolve` is an integer multiply-add over the stored terms,
whose scale is the product of the two scales times h; asked only for the
knots below a point, it builds no pair whose knot sum lies at or past it.
Two lists on different units are first moved to the gcd unit; the
self-convolution powers of one transform share its unit and never need this.
Because the terms of a compactly supported function telescope to zero past
its last knot, reflection (:func:`term_reflect`) and the mass below a point
(:func:`term_mass_below`) also act on the terms directly, the latter summing
ints over one common denominator.  Chains of these operations need no
piecewise form and no ``Fraction`` arithmetic in between; :func:`convolve`
is the single-step round trip.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import pairwise, zip_longest
from math import comb, factorial, gcd, lcm, perm
from typing import Iterable, NamedTuple, Sequence, Union

RationalLike = Union[int, str, Fraction]

__all__ = [
    "PiecewisePoly",
    "frac",
    "from_global_pieces",
    "evaluate",
    "multiply",
    "convolve",
    "cumulative",
    "definite_integral",
    "integral",
    "restrict",
    "to_terms",
    "from_terms",
    "term_convolve",
    "term_reflect",
    "term_mass_below",
]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x: RationalLike) -> Fraction:
    """Coerce an int, "p/q" string, or Fraction to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r} (floats are rejected)")


# ---------------------------------------------------------------------------
# dense univariate polynomial helpers (tuples of Fractions, ascending degree)
# ---------------------------------------------------------------------------

def _ptrim(c: Sequence[Fraction]) -> tuple[Fraction, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _padd(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return _ptrim([ca + cb for ca, cb in zip_longest(a, b, fillvalue=ZERO)])


def _pmul(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _ptrim(out)


def _peval(a: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _pshift(a: Sequence[Fraction], s: Fraction) -> tuple[Fraction, ...]:
    """Coefficients of p(t + s) given coefficients of p(t) (Taylor shift):
    a_k t^k adds a_k C(k, j) s^(k-j) to the t^j coefficient, j <= k."""
    spow = [s**i for i in range(len(a))]
    out = [ZERO] * len(a)
    for k, c in enumerate(a):
        if c:
            for j in range(k + 1):
                out[j] += c * comb(k, j) * spow[k - j]
    return _ptrim(out)


def _pintegrate(a: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Antiderivative with zero constant term."""
    return _ptrim([ZERO] + [c / (i + 1) for i, c in enumerate(a)])


# ---------------------------------------------------------------------------
# the piecewise type
# ---------------------------------------------------------------------------

class PiecewisePoly:
    """Compactly supported piecewise polynomial; see module docstring.

    ``breakpoints`` has length k+1 (or 0 for the zero function); ``pieces``
    has length k, each a tuple of Fraction coefficients in x.  Equality and
    hashing are structural, on the canonical form.
    """

    __slots__ = ("breakpoints", "pieces")

    def __init__(self, breakpoints: Iterable[RationalLike],
                 pieces: Iterable[Iterable[RationalLike]]):
        breaks = tuple(frac(b) for b in breakpoints)
        pieces = tuple(_ptrim(tuple(frac(c) for c in p)) for p in pieces)
        if len(breaks) != (len(pieces) + 1 if pieces else 0):
            if not (len(breaks) == 0 and len(pieces) == 0):
                raise ValueError("breakpoints/pieces length mismatch")
        for lo, hi in zip(breaks, breaks[1:]):
            if not lo < hi:
                raise ValueError("breakpoints must be strictly increasing")
        self.breakpoints, self.pieces = _canonical(breaks, pieces)

    def __eq__(self, other):
        if other.__class__ is not PiecewisePoly:
            return NotImplemented
        return self.breakpoints == other.breakpoints and self.pieces == other.pieces

    def __hash__(self):
        return hash((self.breakpoints, self.pieces))

    def __repr__(self):
        return f"PiecewisePoly({self.breakpoints!r}, {self.pieces!r})"

    # -- convenience -------------------------------------------------------

    @staticmethod
    def zero() -> "PiecewisePoly":
        return PiecewisePoly((), ())

    def is_zero(self) -> bool:
        return not self.pieces

    @property
    def support(self) -> tuple[Fraction, Fraction] | None:
        if not self.pieces:
            return None
        return (self.breakpoints[0], self.breakpoints[-1])

    def degree(self) -> int:
        """Max piece degree; -1 for the zero function."""
        return max((len(p) - 1 for p in self.pieces), default=-1)


def _canonical(
    breaks: tuple[Fraction, ...], pieces: tuple[tuple[Fraction, ...], ...]
) -> tuple[tuple[Fraction, ...], tuple[tuple[Fraction, ...], ...]]:
    """Merge equal adjacent pieces, drop zero edges, normalize the zero fn."""
    if not pieces:
        return (), ()
    bl = [breaks[0]]
    pl: list[tuple[Fraction, ...]] = []
    for hi, p in zip(breaks[1:], pieces):
        if pl and pl[-1] == p:
            bl[-1] = hi
        else:
            pl.append(p)
            bl.append(hi)
    # drop zero pieces at the edges
    while pl and not pl[0]:
        del pl[0]
        del bl[0]
    while pl and not pl[-1]:
        del pl[-1]
        del bl[-1]
    if not pl:
        return (), ()
    return tuple(bl), tuple(pl)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def from_global_pieces(
    spans: Sequence[tuple[RationalLike, RationalLike, Sequence[RationalLike]]]
) -> PiecewisePoly:
    """Build from (lo, hi, coefficients in x) spans.

    Spans must be non-overlapping; gaps are filled with zero pieces.
    """
    cleaned = sorted(
        ((frac(lo), frac(hi), tuple(frac(c) for c in cs)) for lo, hi, cs in spans),
        key=lambda s: s[0],
    )
    breaks: list[Fraction] = []
    pieces: list[tuple[Fraction, ...]] = []
    for lo, hi, cs in cleaned:
        if breaks and lo < breaks[-1]:
            raise ValueError("overlapping spans")
        if breaks and lo > breaks[-1]:
            pieces.append(())
            breaks.append(lo)
        elif not breaks:
            breaks.append(lo)
        pieces.append(cs)
        breaks.append(hi)
    return PiecewisePoly(breaks, pieces)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(p: PiecewisePoly, x: RationalLike) -> Fraction:
    """Value at x; left-closed/right-open pieces, left limit at the far end."""
    x = frac(x)
    if not p.pieces:
        return ZERO
    b = p.breakpoints
    if x < b[0] or x > b[-1]:
        return ZERO
    i = len(b) - 2 if x == b[-1] else bisect_right(b, x) - 1
    return _peval(p.pieces[i], x)


# ---------------------------------------------------------------------------
# pointwise algebra
# ---------------------------------------------------------------------------

def _piece_at(p: PiecewisePoly, x: Fraction) -> tuple[Fraction, ...]:
    """The piece of p holding [x, next breakpoint); () outside the support."""
    if not p.pieces or x < p.breakpoints[0] or x >= p.breakpoints[-1]:
        return ()
    return p.pieces[bisect_right(p.breakpoints, x) - 1]


def multiply(p: PiecewisePoly, q: PiecewisePoly) -> PiecewisePoly:
    """Exact pointwise product; support is contained in the intersection."""
    cuts = sorted(set(p.breakpoints) | set(q.breakpoints))
    return PiecewisePoly(cuts, (_pmul(_piece_at(p, lo), _piece_at(q, lo)) for lo in cuts[:-1]))


def restrict(p: PiecewisePoly, lo: RationalLike, hi: RationalLike) -> PiecewisePoly:
    """Pointwise product with the indicator of [lo, hi)."""
    lo, hi = frac(lo), frac(hi)
    if not lo < hi:
        raise ValueError("restrict requires lo < hi")
    if p.is_zero():
        return p
    lo = max(lo, p.breakpoints[0])
    hi = min(hi, p.breakpoints[-1])
    if not lo < hi:
        return PiecewisePoly.zero()
    cuts = [lo] + [b for b in p.breakpoints if lo < b < hi] + [hi]
    return PiecewisePoly(cuts, (_piece_at(p, a) for a in cuts[:-1]))


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

def cumulative(p: PiecewisePoly, lo: RationalLike, hi: RationalLike) -> PiecewisePoly:
    """The function x -> integral of p over (-inf, x], represented on [lo, hi).

    The running integral is built over the support of p and continued by its
    total, a constant, out to hi.
    """
    lo, hi = frac(lo), frac(hi)
    if not lo < hi:
        raise ValueError("cumulative requires lo < hi")
    if p.is_zero():
        return PiecewisePoly.zero()
    b = p.breakpoints
    pieces = []
    acc = ZERO
    for i, piece in enumerate(p.pieces):
        integ = _pintegrate(piece)
        start = _peval(integ, b[i])
        pieces.append(_padd(integ, (acc - start,)))
        acc += _peval(integ, b[i + 1]) - start
    breaks = list(b)
    if hi > b[-1]:
        pieces.append((acc,))
        breaks.append(hi)
    return restrict(PiecewisePoly(breaks, pieces), lo, hi)


def definite_integral(p: PiecewisePoly, lo: RationalLike, hi: RationalLike) -> Fraction:
    """Exact integral of p over [lo, hi]; requires lo <= hi."""
    lo, hi = frac(lo), frac(hi)
    if lo > hi:
        raise ValueError("definite_integral requires lo <= hi")
    total = ZERO
    for (b0, b1), piece in zip(pairwise(p.breakpoints), p.pieces):
        a0, a1 = max(lo, b0), min(hi, b1)
        if a0 < a1:
            integ = _pintegrate(piece)
            total += _peval(integ, a1) - _peval(integ, a0)
    return total


def integral(p: PiecewisePoly) -> Fraction:
    """Total integral over the real line."""
    return definite_integral(p, *(p.support or (ZERO, ZERO)))


# ---------------------------------------------------------------------------
# term lists (truncated powers on a knot lattice) and convolution
# ---------------------------------------------------------------------------

class Terms(NamedTuple):
    """scale * sum_k sum_j c_j * e_j(x/unit - k), e_j(t) = t_+^j / j!.

    ``knots`` holds (k, pairs_k) in increasing k, where ``pairs_k`` holds the
    nonzero terms (j, c_j) of knot k in increasing j; every k, j and c_j is
    an int.
    """

    unit: Fraction
    scale: Fraction
    knots: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]


_NO_TERMS = Terms(ONE, ONE, ())


def _rational_gcd(values: Iterable[Fraction]) -> Fraction:
    """The largest g > 0 with every value an integer multiple of g (1 if all are 0)."""
    nonzero = [v for v in values if v]
    if not nonzero:
        return ONE
    return Fraction(gcd(*(v.numerator for v in nonzero)),
                    lcm(*(v.denominator for v in nonzero)))


def _top_degree(terms: Terms) -> int:
    return max(pairs[-1][0] for _, pairs in terms.knots)


def to_terms(p: PiecewisePoly) -> Terms:
    """Decompose as a sum of c * (x - xi)_+^j terms on the lattice of p's knots."""
    # the jump of the pieces at each knot xi, re-expanded in x - xi
    jumps: list[tuple[Fraction, tuple[Fraction, ...]]] = []
    for xi, left, right in zip(p.breakpoints, ((),) + p.pieces, p.pieces + ((),)):
        delta = _pshift(_padd(right, tuple(-c for c in left)), xi)
        if delta:
            jumps.append((xi, delta))
    # c (x - k h)_+^j = c h^j j! e_j(x/h - k)
    unit = _rational_gcd(xi for xi, _ in jumps)
    lattice = [(xi / unit, [(j, c * unit**j * factorial(j)) for j, c in enumerate(cs) if c])
               for xi, cs in jumps]
    scale = _rational_gcd(c for _, pairs in lattice for _, c in pairs)
    return Terms(unit, scale, tuple(
        (k.numerator, tuple((j, (c / scale).numerator) for j, c in pairs))
        for k, pairs in lattice))


def from_terms(terms: Terms) -> PiecewisePoly:
    """The piecewise form of a term list; the terms must telescope to zero."""
    if not terms.knots:
        return PiecewisePoly.zero()
    h, s = terms.unit, terms.scale
    knots = [k * h for k, _ in terms.knots]
    pieces = []
    acc: tuple[Fraction, ...] = ()
    for xi, (_, pairs) in zip(knots, terms.knots):
        # the jump at xi, in x - xi, brought back to x
        coeff = dict(pairs)
        jump = [s * coeff.get(j, 0) / (h**j * factorial(j)) for j in range(pairs[-1][0] + 1)]
        acc = _padd(acc, _pshift(jump, -xi))
        pieces.append(acc)
    # past the final knot the accumulation must vanish (compact support)
    if pieces.pop():
        raise AssertionError("truncated-power sum does not telescope to zero")
    return PiecewisePoly(knots, pieces)


def _on_unit(terms: Terms, unit: Fraction) -> Terms:
    """The same function on the finer lattice unit*Z (terms.unit / unit an integer).

    With h = r * unit, e_j(x/h - k) = e_j(x/unit - r k) / r^j, so the degree-j
    coefficient gains r^(d-j) and the scale loses r^d, d the top degree.
    """
    r = (terms.unit / unit).numerator
    if r == 1:
        return terms
    d = _top_degree(terms)
    return Terms(unit, terms.scale / r**d, tuple(
        (k * r, tuple((j, c * r ** (d - j)) for j, c in pairs)) for k, pairs in terms.knots))


def term_convolve(tp: Terms, tq: Terms, below: RationalLike | None = None) -> Terms:
    """Exact convolution of two term lists: e_m * e_n = unit * e_{m+n+1}.

    With ``below=x`` only the knots k with k * unit < x are built, which are
    exactly the knots that ``term_mass_below(., x)`` reads: knot k collects
    the pairs ka + kb = k, so each ``ka`` takes the ``kb`` below
    ceil(x/unit) - ka, found by bisection in the sorted ``kb``.
    """
    if not tp.knots or not tq.knots:
        return _NO_TERMS
    if tp.unit != tq.unit:
        unit = _rational_gcd((tp.unit, tq.unit))
        tp, tq = _on_unit(tp, unit), _on_unit(tq, unit)
    width = _top_degree(tp) + _top_degree(tq) + 1
    if below is not None:
        kbs = [kb for kb, _ in tq.knots]
        t = frac(below) / tp.unit
        cut = -(-t.numerator // t.denominator)  # ka + kb < cut  <=>  (ka + kb) * unit < x
    out: dict[int, list[int]] = {}  # bucket[m + n] holds degree m + n + 1
    for ka, pa in tp.knots:
        qknots = tq.knots if below is None else tq.knots[:bisect_left(kbs, cut - ka)]
        if not qknots:
            break  # ka increases, so no later ka has a pair below the cut
        for kb, qb in qknots:
            bucket = out.get(ka + kb)
            if bucket is None:
                bucket = out[ka + kb] = [0] * width
            for m, a in pa:
                for n, b in qb:
                    bucket[m + n] += a * b
    knots = tuple((k, pairs) for k, v in sorted(out.items())
                  if (pairs := tuple((j + 1, c) for j, c in enumerate(v) if c)))
    return Terms(tp.unit, tp.scale * tq.scale * tp.unit, knots)


def term_reflect(terms: Terms) -> Terms:
    """x -> p(-x) on a term list.

    e_j(-t - k) = (-1)^j (t + k)^j / j! - (-1)^j e_j(t + k), and the full
    powers cancel across the terms because p has compact support, so each
    term moves to knot -k with coefficient (-1)^(j+1) c_j.
    """
    return Terms(terms.unit, terms.scale, tuple(
        (-k, tuple((j, c if j % 2 else -c) for j, c in pairs))
        for k, pairs in reversed(terms.knots)))


def term_mass_below(terms: Terms, x: RationalLike) -> Fraction:
    """Integral over (-inf, x]: scale * unit * sum of c_j e_{j+1}(x/unit - k)
    over the knots k < x/unit.

    With x/unit = P/Q and w = P - kQ, each term c_j w^(j+1) / (Q^(j+1) (j+1)!)
    is c_j Q^(d-1-j) (d!/(j+1)!) w^(j+1) over Q^d d!, d the largest j + 1, so
    the sum stays in ints until the one division at the end.
    """
    t = frac(x) / terms.unit
    P, Q = t.numerator, t.denominator
    below = [(P - k * Q, pairs) for k, pairs in terms.knots if k * Q < P]
    if not below:
        return ZERO
    d = max(pairs[-1][0] for _, pairs in below) + 1
    total = sum(c * Q ** (d - 1 - j) * perm(d, d - 1 - j) * w ** (j + 1)
                for w, pairs in below for j, c in pairs)
    return terms.scale * terms.unit * Fraction(total, Q**d * factorial(d))


def convolve(p: PiecewisePoly, q: PiecewisePoly) -> PiecewisePoly:
    """Exact convolution; support is the Minkowski sum of the supports."""
    return from_terms(term_convolve(to_terms(p), to_terms(q)))
