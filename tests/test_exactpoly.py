"""Exact piecewise-polynomial algebra: examples and algebraic properties."""

from fractions import Fraction as F

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from convolution_reference import convolve_at, reference_convolve, reflect
from splitmoments import exactpoly as ep
from splitmoments.testfn import fejer


def triangle_fhat(sigma):
    return fejer(sigma).fhat


def box(lo, hi):
    """Indicator of [lo, hi)."""
    return ep.from_global_pieces([(lo, hi, [1])])


class TestEvaluate:
    def test_triangle_at_zero(self):
        assert ep.evaluate(triangle_fhat(F(1, 2)), 0) == 2

    def test_outside_support_is_zero(self):
        p = triangle_fhat(F(1, 2))
        assert ep.evaluate(p, 2) == 0
        assert ep.evaluate(p, F(-3, 4)) == 0

    def test_triangle_at_quarter(self):
        assert ep.evaluate(triangle_fhat(F(1, 2)), F(1, 4)) == 1

    def test_right_endpoint_left_limit(self):
        b = box(0, 1)
        assert ep.evaluate(b, 1) == 1  # left limit, not the outside value


class TestPointwiseAlgebra:
    def test_box_product_idempotent(self):
        b = box(0, 1)
        assert ep.multiply(b, b) == b

    def test_triangle_product_at_zero(self):
        t = triangle_fhat(1)
        assert ep.evaluate(ep.multiply(t, t), 0) == 1

    def test_reflect_even(self):
        t = triangle_fhat(F(3, 5))
        assert reflect(t) == t

    def test_restrict_half_of_triangle(self):
        t = triangle_fhat(1)
        assert ep.integral(ep.restrict(t, 0, 1)) == F(1, 2)

    def test_restrict_creates_jump(self):
        b = ep.restrict(box(0, 2), 0, 1)
        assert ep.evaluate(b, F(1, 2)) == 1
        assert ep.evaluate(b, F(3, 2)) == 0


class TestConvolve:
    def test_box_to_triangle(self):
        b = box(F(-1, 2), F(1, 2))
        tri = ep.convolve(b, b)
        assert tri == triangle_fhat(1)
        assert tri.support == (F(-1), F(1))
        assert ep.evaluate(tri, 0) == 1

    def test_total_integral_multiplies(self):
        p = ep.from_global_pieces([(0, 1, [1, 2]), (1, 3, [F(1, 2)])])
        q = ep.from_global_pieces([(-1, 1, [2, 0, -1])])
        assert ep.integral(ep.convolve(p, q)) == ep.integral(p) * ep.integral(q)

    def test_bspline_edge_mass(self):
        # conv of the unit-mass triangle of half-width s with itself puts
        # mass 1/24 on [s, 2s]
        s = F(3, 5)
        tri = triangle_fhat(s)
        c = ep.convolve(tri, tri)
        assert ep.definite_integral(c, s, 2 * s) == F(1, 24)
        assert c.support == (-2 * s, 2 * s)

    def test_commutative(self):
        p = ep.from_global_pieces([(0, 2, [1, 1])])
        q = triangle_fhat(F(1, 3))
        assert ep.convolve(p, q) == ep.convolve(q, p)

    def test_associative(self):
        p = box(0, 1)
        q = box(F(-1, 2), F(3, 2))
        r = triangle_fhat(F(1, 2))
        left = ep.convolve(ep.convolve(p, q), r)
        right = ep.convolve(p, ep.convolve(q, r))
        assert left == right


class TestCalculus:
    def test_triangle_unit_mass(self):
        assert ep.definite_integral(triangle_fhat(1), -1, 1) == 1

    def test_empty_interval(self):
        assert ep.definite_integral(triangle_fhat(1), F(1, 3), F(1, 3)) == 0

    def test_sigma_sq_integrand(self):
        # 2 int |y| fhat^2 = 1/3 for the Fejer triangle, any sigma
        t = triangle_fhat(F(1, 2))
        abs_y = ep.from_global_pieces([(-1, 0, [0, -1]), (0, 1, [0, 1])])
        assert 2 * ep.integral(ep.multiply(ep.multiply(t, t), abs_y)) == F(1, 3)

    def test_antiderivative_normalization(self):
        # cumulative is the antiderivative that vanishes left of the support
        t = triangle_fhat(F(1, 2))
        a = ep.cumulative(t, F(-1, 2), F(1, 2))
        assert ep.evaluate(a, F(-1, 2)) == 0
        assert ep.evaluate(a, F(1, 2)) == 1  # reaches the total mass

    def test_cumulative_window(self):
        t = triangle_fhat(F(1, 2))
        w = ep.cumulative(t, 0, 4)
        assert ep.evaluate(w, 0) == F(1, 2)
        assert ep.evaluate(w, 3) == 1


class TestCanonicalForms:
    def test_two_paths_same_structure(self):
        # the same triangle built via convolution and via explicit pieces
        b = box(F(-1, 2), F(1, 2))
        via_conv = ep.convolve(b, b)
        explicit = ep.from_global_pieces([(-1, 0, [1, 1]), (0, 1, [1, -1])])
        assert via_conv == explicit
        assert hash(via_conv) == hash(explicit)

    def test_adjacent_merge(self):
        p = ep.from_global_pieces([(0, 1, [1]), (1, 2, [1])])
        assert p == box(0, 2)
        assert len(p.pieces) == 1

    def test_zero_pieces_dropped(self):
        p = ep.from_global_pieces([(0, 1, [0]), (1, 2, [1]), (2, 3, [])])
        assert p == box(1, 2)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

small_rational = st.fractions(
    min_value=-3, max_value=3, max_denominator=6
)


@st.composite
def piecewise_polys(draw, max_pieces=3, max_degree=2):
    n_pieces = draw(st.integers(1, max_pieces))
    cuts = draw(
        st.lists(small_rational, min_size=n_pieces + 1, max_size=n_pieces + 1, unique=True)
    )
    cuts.sort()
    pieces = [
        [draw(small_rational) for _ in range(draw(st.integers(0, max_degree)) + 1)]
        for _ in range(n_pieces)
    ]
    return ep.from_global_pieces(
        [(lo, hi, cs) for (lo, hi), cs in zip(zip(cuts, cuts[1:]), pieces)]
    )


@settings(max_examples=200, deadline=None)
@given(piecewise_polys(), piecewise_polys())
def test_convolution_commutative(p, q):
    assert ep.convolve(p, q) == ep.convolve(q, p)


@settings(max_examples=200, deadline=None)
@given(piecewise_polys(max_pieces=2, max_degree=1), piecewise_polys(max_pieces=2, max_degree=1))
def test_fubini(p, q):
    assert ep.integral(ep.convolve(p, q)) == ep.integral(p) * ep.integral(q)


@settings(max_examples=60, deadline=None)
@given(
    piecewise_polys(max_pieces=2, max_degree=1),
    piecewise_polys(max_pieces=2, max_degree=1),
    piecewise_polys(max_pieces=2, max_degree=1),
)
def test_convolution_associative(p, q, r):
    assert ep.convolve(ep.convolve(p, q), r) == ep.convolve(p, ep.convolve(q, r))


def _edge_points(*polys):
    """Right support edges, where the left-limit convention overrides the
    half-open value and pointwise identities legitimately fail."""
    return {p.breakpoints[-1] for p in polys if not p.is_zero()}


def _probe_points(p):
    """Fixed points, p's breakpoints, and a point inside each of p's pieces."""
    b = p.breakpoints
    mids = ((lo + hi) / 2 for lo, hi in zip(b, b[1:]))
    return {F(-2), F(-1, 3), F(0), F(1, 2), F(5, 4), *b, *mids}


@settings(max_examples=200, deadline=None)
@given(piecewise_polys(), piecewise_polys())
def test_multiply_pointwise(p, q):
    m = ep.multiply(p, q)
    skip = _edge_points(p, q, m)
    for x in [F(-2), F(-1, 3), F(0), F(1, 2), F(5, 4)]:
        if x in skip:
            continue
        assert ep.evaluate(m, x) == ep.evaluate(p, x) * ep.evaluate(q, x)


@settings(max_examples=100, deadline=None)
@given(piecewise_polys())
def test_reflect_involution(p):
    assert reflect(reflect(p)) == p


@settings(max_examples=200, deadline=None)
@given(piecewise_polys())
def test_reflect_pointwise(p):
    r = reflect(p)
    # at a breakpoint the two sides take the pieces on opposite sides of it
    for y in _probe_points(p) - set(p.breakpoints):
        assert ep.evaluate(r, -y) == ep.evaluate(p, y)


@settings(max_examples=100, deadline=None)
@given(piecewise_polys())
def test_antiderivative_fundamental_theorem(p):
    if p.is_zero():
        return
    lo, hi = p.support
    a = ep.cumulative(p, lo, hi)
    for x in [lo, (lo + hi) / 2, hi]:
        assert ep.evaluate(a, x) == ep.definite_integral(p, lo, x)


@settings(max_examples=200, deadline=None)
@given(piecewise_polys(), small_rational, small_rational)
def test_cumulative_window_beyond_support(p, before, past):
    """A window that starts left of the support and ends right of it."""
    if p.is_zero():
        return
    lo, hi = p.support
    w_lo, w_hi = lo - abs(before) - 1, hi + abs(past) + 1
    w = ep.cumulative(p, w_lo, w_hi)
    for x in _probe_points(p) | {w_lo, hi + 1, w_hi, w_hi + 1}:
        want = ep.definite_integral(p, lo, max(lo, x)) if x <= w_hi else 0
        assert ep.evaluate(w, x) == want


# term lists: the kernel against a convolution built from its definition
# (convolution_reference), with no term list on the reference side


@st.composite
def lattice_polys(draw, denominator):
    """Piecewise polynomials whose knots lie on (1/denominator)Z."""
    n_pieces = draw(st.integers(1, 2))
    cuts = sorted(draw(st.lists(st.integers(-6, 6), min_size=n_pieces + 1,
                                max_size=n_pieces + 1, unique=True)))
    return ep.from_global_pieces([
        (F(lo, denominator), F(hi, denominator),
         [draw(small_rational) for _ in range(draw(st.integers(1, 2)))])
        for lo, hi in zip(cuts, cuts[1:])
    ])


def test_reference_box_to_triangle():
    b = box(F(-1, 2), F(1, 2))
    assert reference_convolve(b, b) == triangle_fhat(1)
    assert convolve_at(b, b, F(1, 4)) == F(3, 4)


def _knot_sums(p, q):
    return sorted({a + b for a in p.breakpoints for b in q.breakpoints}) or [F(0)]


# Shrinking a failing chain of three re-runs the interpolating reference for
# every candidate (over 100 s), so these two properties report the first
# counterexample found as it is.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


def stored(terms):
    """``terms``, after checking that it holds only nonzero int terms: knots
    strictly increasing, and at each knot a nonempty run of (j, c) with
    strictly increasing j >= 0 and c != 0."""
    ks = [k for k, _ in terms.knots]
    assert ks == sorted(set(ks))
    for k, pairs in terms.knots:
        js = [j for j, _ in pairs]
        assert type(k) is int and pairs and js[0] >= 0 and js == sorted(set(js))
        assert all(type(c) is int and c for _, c in pairs)
    return terms


def _check_against_reference(p, q, r, xs):
    tp, tq, tr = (stored(ep.to_terms(f)) for f in (p, q, r))
    pq = ep.from_terms(stored(ep.term_convolve(tp, tq)))
    assert pq == reference_convolve(p, q)
    for x in xs:
        assert ep.evaluate(pq, x) == convolve_at(p, q, x)
    # a chain of three, with no piecewise form between the two convolutions
    chained = stored(ep.term_convolve(ep.term_convolve(tp, tq), tr))
    assert ep.from_terms(chained) == reference_convolve(reference_convolve(p, q), r)


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(
    piecewise_polys(max_pieces=2, max_degree=1),
    piecewise_polys(max_pieces=2, max_degree=1),
    piecewise_polys(max_pieces=2, max_degree=1),
    st.data(),
)
def test_term_convolve_matches_reference(p, q, r, data):
    xs = data.draw(st.lists(st.one_of(small_rational, st.sampled_from(_knot_sums(p, q))),
                            min_size=1, max_size=3))
    _check_against_reference(p, q, r, xs)


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(lattice_polys(3), lattice_polys(2), lattice_polys(3), st.data())
def test_term_convolve_across_lattices(p, q, r, data):
    """Thirds against halves: the kernel must first move both to the unit 1/6."""
    xs = data.draw(st.lists(st.sampled_from(_knot_sums(p, q)), min_size=1, max_size=3))
    _check_against_reference(p, q, r, xs + [F(1, 5)])


@settings(max_examples=200, deadline=None)
@given(piecewise_polys())
def test_term_reflect_matches_reflect(p):
    assert ep.from_terms(stored(ep.term_reflect(stored(ep.to_terms(p))))) == reflect(p)


@settings(max_examples=200, deadline=None)
@given(piecewise_polys(), piecewise_polys(), st.data())
def test_term_mass_below_matches_definite_integral(p, q, data):
    x = data.draw(st.one_of(small_rational, st.sampled_from(_knot_sums(p, q))))
    conv = reference_convolve(p, q)
    tconv = ep.term_convolve(ep.to_terms(p), ep.to_terms(q))
    for f, terms in (
        (p, ep.to_terms(p)),
        (conv, tconv),
        (reflect(conv), ep.term_reflect(tconv)),
    ):
        stored(terms)
        lo = x if f.is_zero() else min(x, f.support[0])
        assert ep.term_mass_below(terms, x) == ep.definite_integral(f, lo, x)


@st.composite
def term_lists(draw):
    """Term lists with any int knots and nonzero int terms, on a few units."""
    ks = sorted(draw(st.lists(st.integers(-8, 8), min_size=1, max_size=5, unique=True)))
    js = st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True).map(sorted)
    coeff = st.integers(-5, 5).filter(bool)
    return ep.Terms(draw(st.sampled_from([F(1), F(1, 2), F(1, 3), F(2, 5)])),
                    draw(st.sampled_from([F(1), F(-3, 7)])),
                    tuple((k, tuple((j, draw(coeff)) for j in draw(js))) for k in ks))


@settings(max_examples=300, deadline=None)
@given(term_lists(), term_lists(), st.data())
def test_term_convolve_below_keeps_the_knots_below(tp, tq, data):
    """The cut convolution is the full one's knots left of x, tuple for tuple,
    whether x sits on the result's lattice or between its points."""
    full = stored(ep.term_convolve(tp, tq))
    x = data.draw(st.one_of(st.integers(-18, 18).map(lambda j: j * full.unit), small_rational))
    cut = stored(ep.term_convolve(tp, tq, below=x))
    assert (cut.unit, cut.scale) == (full.unit, full.scale)
    assert cut.knots == tuple((k, cs) for k, cs in full.knots if k * full.unit < x)
    assert ep.term_mass_below(cut, x) == ep.term_mass_below(full, x)


def test_rejects_float_input():
    with pytest.raises(TypeError):
        ep.frac(0.5)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: ep.PiecewisePoly((0, 1), ()), "length mismatch", id="breaks-only"),
    pytest.param(lambda: ep.PiecewisePoly((), [(1,)]), "length mismatch", id="pieces-only"),
    pytest.param(lambda: ep.PiecewisePoly((0, 1, 2), [(1,)]), "length mismatch",
                 id="one-break-extra"),
    pytest.param(lambda: ep.PiecewisePoly((0, 0), [(1,)]), "strictly increasing",
                 id="repeated-break"),
    pytest.param(lambda: ep.from_global_pieces([(0, 2, [1]), (1, 3, [1])]), "overlapping",
                 id="overlapping-spans"),
    pytest.param(lambda: ep.restrict(box(0, 2), 1, 1), "restrict requires lo < hi",
                 id="restrict-empty"),
    pytest.param(lambda: ep.restrict(box(0, 2), 1, 0), "restrict requires lo < hi",
                 id="restrict-reversed"),
    pytest.param(lambda: ep.definite_integral(box(0, 2), 1, 0),
                 "definite_integral requires lo <= hi", id="integral-reversed"),
    pytest.param(lambda: ep.cumulative(box(0, 2), 1, 1), "cumulative requires lo < hi",
                 id="cumulative-empty"),
])
def test_refuses_malformed_pieces_and_windows(build, message):
    """Each refusal names its own rule, so a weakened check that fails later,
    in another constructor, does not pass for it."""
    with pytest.raises(ValueError, match=message):
        build()
