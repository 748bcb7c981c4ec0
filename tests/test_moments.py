"""Exact moment quantities: paper values, cross-route identities, oracle checks."""

import hashlib
import math
import tracemalloc
from fractions import Fraction as F
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convolution_reference import I_integral, full_bracket, poly_integral, poly_mul, reflect
from oracle_reference import (oracle_I_integral, oracle_sigma_phi_sq, oracle_X_xi,
                              t_transform_numeric)
from splitmoments import exactpoly as ep
from splitmoments import moments as mo
from splitmoments import quadrature as qd
from splitmoments import testfn
from splitmoments.errors import DomainError, InvariantViolation, ToleranceError
from splitmoments.testfn import fejer, psi_terms

HALF = fejer(F(1, 2))
THREE_FIFTHS = fejer(F(3, 5))
# fhat(y) = (1/2 - |y|)^3 on [-1/2, 1/2], with no closed-form phi
CUBIC = testfn.TestFunction(
    sigma=F(1, 2),
    fhat=ep.from_global_pieces([(-F(1, 2), 0, [F(1, 8), F(3, 4), F(3, 2), 1]),
                                (0, F(1, 2), [F(1, 8), -F(3, 4), F(3, 2), -1])]),
    phi_at=None,
    label="cubic",
)
# fhat(y) = 1 - (2y)^16 on [-1/2, 1/2], one piece across 0
DEG16 = testfn.TestFunction(
    sigma=F(1, 2),
    fhat=ep.from_global_pieces([(-F(1, 2), F(1, 2), [1] + [0] * 15 + [-(2**16)])]),
    phi_at=None,
    label="deg16",
)


@st.composite
def even_fhat(draw):
    """(sigma, pieces on [0, sigma]) of a random even piecewise-polynomial fhat:
    rational knots, degree <= 3, support inside [-sigma, sigma]."""
    sigma = draw(st.builds(F, st.integers(1, 6), st.integers(1, 6)))
    inner = draw(st.lists(st.builds(F, st.integers(1, 11), st.just(12)),
                          max_size=3, unique=True))
    cuts = [F(0)] + sorted(sigma * t for t in inner) + [sigma]
    coef = st.builds(F, st.integers(-4, 4), st.integers(1, 4))
    return sigma, [(lo, hi, [draw(coef) for _ in range(draw(st.integers(1, 4)))])
                   for lo, hi in zip(cuts, cuts[1:])]


def sine_transform(tf, k, A):
    """T_k(A) = int_0^A psi_k(u) du with psi_k the transform of phi^k."""
    if A < 0 or k < 1:
        raise DomainError("sine_transform requires A >= 0 and k >= 1")
    psi = psi_terms(tf, k)
    return ep.term_mass_below(psi, A) - ep.term_mass_below(psi, 0)


def bar_X_xi(tf, n, ell):
    """The two-sided indicator integral along both exact routes, which must agree.

    Route (a) expands it over sign patterns as 2^{l+1} sum_i C(n-l, i) X(xi_{i+l});
    route (b) is the closed form 2^{l+1} M(n-l, l), M the mass below -1 of
    psi_{n-l} * gp^{*l}.
    """
    via_sum = 2 ** (ell + 1) * sum(math.comb(n - ell, i) * mo.X_xi(tf, n, i + ell)
                                   for i in range((n + 1) // 2 - ell))
    via_closed = 2 ** (ell + 1) * mo._tail_mass(tf, n - ell, ell)
    if via_sum != via_closed:
        raise InvariantViolation(f"bar_X_xi({n}, {ell}): {via_sum} != {via_closed}")
    return via_sum


class TestSigmaPhiSq:
    def test_half(self):
        assert mo.sigma_phi_sq(HALF) == F(1, 3)

    def test_sigma_independence(self):
        assert mo.sigma_phi_sq(fejer(F(1, 5))) == F(1, 3)
        assert mo.sigma_phi_sq(fejer(2)) == F(1, 3)

    @settings(max_examples=150, deadline=None)
    @given(even_fhat())
    def test_equals_piecewise_integral(self, drawn):
        """4 sum of int y p(y)^2 over the drawn pieces p on [0, sigma], in the
        Fraction helpers of the convolution reference."""
        sigma, half = drawn
        fhat = ep.from_global_pieces(
            [(-hi, -lo, [-c if j % 2 else c for j, c in enumerate(cs)])
             for lo, hi, cs in reversed(half)] + half)
        tf = testfn.TestFunction(sigma=sigma, fhat=fhat, phi_at=None, label="drawn")
        exact = 4 * sum((poly_integral(poly_mul([F(0), F(1)], poly_mul(cs, cs)), lo, hi)
                         for lo, hi, cs in half), F(0))
        assert mo.sigma_phi_sq(tf) == exact


class TestSineTransform:
    def test_saturation(self):
        for A in [F(1, 2), F(3, 4), F(10)]:
            assert sine_transform(HALF, 1, A) == F(1, 2)

    def test_half_sigma(self):
        assert sine_transform(HALF, 1, F(1, 4)) == F(3, 8)

    def test_at_zero(self):
        assert sine_transform(HALF, 3, 0) == 0

    def test_negative_A_rejected(self):
        with pytest.raises(DomainError):
            sine_transform(HALF, 1, F(-1, 2))


class TestRMoment:
    def test_r11_vanishes(self):
        for s in [F(1, 4), F(1, 2), F(1)]:
            assert mo.R_moment(fejer(s), 1, 1) == 0

    def test_r21_three_fifths(self):
        assert mo.R_moment(THREE_FIFTHS, 2, 1) == F(1, 972)

    def test_r42_half(self):
        assert mo.R_moment(HALF, 4, 2) == F(4, 105)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mo.R_moment(HALF, 2, 3)
        with pytest.raises(DomainError):
            mo.R_moment(HALF, 2, 0)


def cut_bracket(tf, k, ell):
    """The R route's bracket phi(0)^(k+l) / 2 - 2^l M(k, l)."""
    return tf.phi_zero() ** (k + ell) / 2 - 2 ** ell * mo._tail_mass(tf, k, ell)


class TestBracketCut:
    """Each R bracket is read from the knots of psi_k * gp^{*l} below -1 only;
    it must equal the bracket built from every knot of psi_k * reflect(gp^{*l})."""

    @pytest.mark.parametrize("sigma", [F(1, 2), F(1, 3), F(1, 5), F(1),  # -1 a knot
                                       F(2, 5), F(3, 7), F(5, 8), F(4, 9)])
    def test_equals_full_bracket(self, sigma):
        tf = fejer(sigma)
        tails = 0
        for k in range(1, 9):
            for ell in range(5):
                assert cut_bracket(tf, k, ell) == full_bracket(tf, k, ell)
                tails += (k + ell) * sigma > 1
        assert tails  # some convolution reaches past the cut

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12).flatmap(
               lambda q: st.builds(F, st.integers(1, q), st.just(q))),
           st.integers(1, 8), st.integers(0, 4))
    def test_equals_full_bracket_at_drawn_sigma(self, sigma, k, ell):
        tf = fejer(sigma)
        assert cut_bracket(tf, k, ell) == full_bracket(tf, k, ell)


class TestSCorrection:
    def test_s42_equals_r42(self):
        assert mo.S_correction(HALF, 4, 2) == F(4, 105)

    def test_single_term_is_r(self):
        assert mo.S_correction(THREE_FIFTHS, 2, 1) == mo.R_moment(THREE_FIFTHS, 2, 1)
        assert mo.S_correction(fejer(F(2, 3)), 3, 2) == mo.R_moment(fejer(F(2, 3)), 3, 2)

    def test_empty_sum_mock_gaussian(self):
        tf = fejer(F(1, 5))  # sigma < 1/n for n = 4
        assert mo.minimal_a(tf, 4) == 0
        assert mo.S_correction(tf, 4, 0) == 0

    def test_invalid_combination_named(self):
        # violates only sigma <= 1/(n-a); the message names that inequality
        with pytest.raises(DomainError, match=r"1/\(n-a\)"):
            mo.S_correction(THREE_FIFTHS, 3, 1)
        # violates sigma <= 2/n
        with pytest.raises(DomainError, match="2/n"):
            mo.S_correction(THREE_FIFTHS, 4, 1)

    def test_a_independence(self):
        # S(n, a) identical across every valid a for fixed tf, n
        for s, n in [(F(1, 4), 6), (F(1, 4), 4), (F(1, 3), 5), (F(1, 2), 3)]:
            tf = fejer(s)
            vals = {mo.S_correction(tf, n, a) for a in mo.valid_a_range(tf, n) if a >= 1}
            mock = mo.S_correction(tf, n, 0) if mo.minimal_a(tf, n) == 0 else None
            if mock is not None:
                vals.add(mock)
            assert len(vals) == 1, (s, n, vals)


class TestPredictedMoment:
    def test_flagship_value(self):
        assert mo.predicted_centered_moment(HALF, 4, 2, "minus") == F(31, 105)

    def test_odd_moment_no_gaussian_term(self):
        assert mo.predicted_centered_moment(HALF, 3, 2, "minus") == -mo.S_correction(HALF, 3, 2)

    def test_variance_both_signs(self):
        assert mo.predicted_centered_moment(THREE_FIFTHS, 2, 1, "plus") == F(325, 972)
        assert mo.predicted_centered_moment(THREE_FIFTHS, 2, 1, "minus") == F(323, 972)

    def test_sign_symmetry(self):
        for s, n in [(F(1, 2), 4), (F(1, 3), 5), (F(3, 5), 2)]:
            tf = fejer(s)
            a = mo.minimal_a(tf, n)
            p = mo.predicted_centered_moment(tf, n, a, "plus")
            m = mo.predicted_centered_moment(tf, n, a, "minus")
            gauss = (
                mo.double_factorial(n - 1) * mo.sigma_phi_sq(tf) ** (n // 2)
                if n % 2 == 0
                else 0
            )
            assert p + m == 2 * gauss

    def test_mock_gaussian_regime(self):
        tf = fejer(F(1, 5))
        assert mo.minimal_a(tf, 4) == 0
        assert mo.predicted_centered_moment(tf, 4, 0, "minus") == 3 * F(1, 3) ** 2

    def test_support_violation(self):
        with pytest.raises(DomainError, match="unsupported support"):
            mo.predicted_centered_moment(THREE_FIFTHS, 4, 2, "minus")

    def test_unknown_sign(self):
        with pytest.raises(DomainError, match="sign"):
            mo.predicted_centered_moment(HALF, 4, 2, "both")

    def test_boundary_flag(self):
        # sigma = 2/n sits on the closed boundary and is accepted
        tf = fejer(F(1, 2))
        assert mo.predicted_centered_moment(tf, 4, 2, "minus") == F(31, 105)


class TestMeanValue:
    def test_values(self):
        assert mo.mean_value(THREE_FIFTHS) == F(13, 6)
        assert mo.mean_value(HALF) == F(5, 2)
        assert mo.mean_value(fejer(1)) == F(3, 2)

    def test_requires_sigma_le_one(self):
        with pytest.raises(DomainError):
            mo.mean_value(fejer(F(3, 2)))


class TestIIntegral:
    def test_no_outer_variables(self):
        assert I_integral(HALF, 4, 0, 0) == sine_transform(HALF, 4, 1)

    @pytest.mark.parametrize(
        "sigma,n,alpha,delta",
        [
            (F(1, 2), 4, 0, 1),
            (F(1, 2), 4, 1, 1),
            (F(3, 5), 3, 0, 2),
            (F(1, 3), 5, 1, 2),
            (F(2, 5), 4, 2, 1),
        ],
    )
    def test_one_step_recursion(self, sigma, n, alpha, delta):
        tf = fejer(sigma)
        lhs = I_integral(tf, n, alpha, delta)
        rhs = 2 * I_integral(tf, n, alpha, delta - 1) - I_integral(
            tf, n, alpha + 1, delta - 1
        )
        assert lhs == rhs

    @pytest.mark.parametrize(
        "sigma,n,alpha,delta",
        [(F(1, 2), 4, 0, 2), (F(3, 5), 3, 0, 2), (F(1, 3), 6, 1, 2), (F(2, 5), 5, 0, 3)],
    )
    def test_collapse_to_delta_zero(self, sigma, n, alpha, delta):
        tf = fejer(sigma)
        lhs = I_integral(tf, n, alpha, delta)
        rhs = sum(
            2 ** (delta - j) * (-1) ** j * math.comb(delta, j) * I_integral(tf, n, alpha + j, 0)
            for j in range(delta + 1)
        )
        assert lhs == rhs

    def test_domain(self):
        with pytest.raises(DomainError):
            I_integral(HALF, 3, 2, 1)


class TestXXi:
    def test_all_negative_infeasible(self):
        for n in range(1, 5):
            assert mo.X_xi(THREE_FIFTHS, n, n) == 0

    def test_single_coordinate_cannot_exceed_one(self):
        assert mo.X_xi(fejer(1), 1, 0) == 0
        assert mo.X_xi(HALF, 1, 0) == 0

    def test_known_value(self):
        # n=2, l=0 at sigma=3/5: mass of psi-like density past 1
        assert mo.X_xi(THREE_FIFTHS, 2, 0) == F(1, 1944)

    def test_monotone_in_ell(self):
        vals = [mo.X_xi(THREE_FIFTHS, 3, ell) for ell in range(4)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_matches_piecewise_reference(self):
        # the density of the signed sum built by piecewise convolution, and
        # its integral over [1, right edge]
        for s in [F(1, 4), F(1, 3), F(1, 2), F(3, 5), F(1)]:
            tf = fejer(s)
            gp = ep.restrict(tf.fhat, 0, tf.sigma + 1)
            for n in range(1, 8):
                for ell in range(n + 1):
                    h = reduce(ep.convolve, [gp] * (n - ell) + [reflect(gp)] * ell)
                    top = h.support[1] if not h.is_zero() else 0
                    ref = ep.definite_integral(h, 1, top) if top > 1 else 0
                    assert mo.X_xi(tf, n, ell) == ref, (s, n, ell)


class TestQnCrossPath:
    def test_q42_half(self):
        assert mo.Q_n_via_classes(HALF, 4, 2) == F(4, 105)

    def test_q21_three_fifths(self):
        assert mo.Q_n_via_classes(THREE_FIFTHS, 2, 1) == F(1, 972)

    def test_equality_with_r_on_grid(self):
        # exhaustively on a small grid; the acceptance suite runs the full one
        for s in [F(1, 3), F(1, 2)]:
            tf = fejer(s)
            for n in range(2, 5):
                if tf.sigma > F(2, n):
                    continue
                for a in mo.valid_a_range(tf, n):
                    if a < 1:
                        continue
                    assert mo.Q_n_via_classes(tf, n, a) == mo.R_moment(tf, n, a), (s, n, a)

    def test_equality_beyond_acceptance_grid(self):
        # deeper orders exercise longer convolution chains and bigger
        # alternating sums; still exact equality (and a-independence shows)
        for s, n in [(F(1, 5), 7), (F(2, 7), 7), (F(1, 4), 8), (F(1, 5), 9)]:
            tf = fejer(s)
            values = set()
            for a in mo.valid_a_range(tf, n):
                if a < 1:
                    continue
                q = mo.Q_n_via_classes(tf, n, a)
                assert q == mo.R_moment(tf, n, a), (s, n, a)
                values.add(q)
            assert len(values) == 1

    def test_equality_on_r19_kernels(self):
        # every R(m, i) in S(20, 10) at sigma = 1/10, the moment behind the
        # r = 19 bound
        tf = fejer(F(1, 10))
        for m, i in [(20, 10), (18, 8), (16, 6), (14, 4), (12, 2)]:
            assert mo.Q_n_via_classes(tf, m, i) == mo.R_moment(tf, m, i), (m, i)


class TestBarXXi:
    def test_closed_form_ell_zero(self):
        # phi(0)^n - 2 T_n(1)
        tf = THREE_FIFTHS
        expected = tf.phi_zero() ** 3 - 2 * sine_transform(tf, 3, 1)
        assert bar_X_xi(tf, 3, 0) == expected

    def test_small_sigma_vanishes(self):
        for n in [2, 3, 4]:
            tf = fejer(F(1, n + 1))  # sigma < 1/n so T_n(1) = phi(0)^n / 2
            assert bar_X_xi(tf, n, 0) == 0

    def test_paths_agree_on_grid(self):
        # the function itself raises InvariantViolation on any disagreement
        for s in [F(1, 3), F(1, 2), F(3, 5)]:
            tf = fejer(s)
            for n in range(2, 7):
                a_max = (n + 1) // 2
                if n - a_max > 0 and tf.sigma > F(1, n - a_max):
                    continue
                for ell in range(min(3, a_max)):
                    bar_X_xi(tf, n, ell)


class TestOracleConcordance:
    def test_sigma_phi_sq(self):
        assert abs(oracle_sigma_phi_sq(HALF) - 1 / 3) < 1e-8

    def test_r42(self):
        assert abs(qd.oracle_R_moment(HALF, 4, 2) - float(F(4, 105))) < 1e-7

    def test_r21(self):
        assert abs(qd.oracle_R_moment(THREE_FIFTHS, 2, 1) - float(F(1, 972))) < 1e-7

    def test_x_xi(self):
        exact = float(mo.X_xi(THREE_FIFTHS, 2, 0))
        assert abs(oracle_X_xi(THREE_FIFTHS, 2, 0) - exact) < 1e-7

    @pytest.mark.parametrize("alpha,delta", [(2, 0), (1, 1), (0, 2), (2, 1)])
    def test_i_integral_folded_depths(self, alpha, delta):
        exact = float(I_integral(HALF, 5, alpha, delta))
        assert abs(oracle_I_integral(HALF, 5, alpha, delta) - exact) < 1e-9

    def test_folded_depth_with_k_one(self):
        # one folded coordinate under T_1: the costliest folded rule
        assert abs(qd.oracle_R_moment(HALF, 2, 2) - float(mo.R_moment(HALF, 2, 2))) < 1e-9
        exact = float(I_integral(HALF, 2, 1, 0))
        assert abs(oracle_I_integral(HALF, 2, 1, 0) - exact) < 1e-9

    def test_oracle_values_pinned(self):
        # oracle_R_moment at every crosscheck row of n <= 4, sigma in {1/2, 1/3, 1/4}
        # (sigma <= 2/n, every valid a >= 1), then oracle_I_integral at n = 5, sigma = 1/2
        vals = [qd.oracle_R_moment(fejer(s), n, a)
                for n in range(2, 5) for s in (F(1, 2), F(1, 3), F(1, 4)) if s <= F(2, n)
                for a in mo.valid_a_range(fejer(s), n) if a >= 1]
        vals += [oracle_I_integral(HALF, 5, alpha, delta)
                 for alpha in range(5) for delta in range(5 - alpha)]
        assert len(vals) == 29
        assert hashlib.sha256(" ".join(map(float.hex, vals)).encode()).hexdigest() == (
            "817c7b2edff3ddbf2c17a5da3939c59fe3464a263602f57f17c930c79afd5b7f")

    def test_oracle_memory_does_not_grow_with_its_rule(self):
        # sigma = 1/100 needs a T_2 rule of 12153 panels; it is drawn one
        # panel at a time, so the traced peak stays that of a few panels
        tf = fejer(F(1, 100))
        qd.oracle_R_moment(tf, 2, 1)
        tracemalloc.start()
        try:
            qd.oracle_R_moment(tf, 2, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_gauss_legendre_table_matches_numpy(self):
        x, w = np.polynomial.legendre.leggauss(16)
        assert max(abs(a - b) for a, b in zip(qd._GL_X, x)) <= 1e-15
        assert max(abs(a - b) for a, b in zip(qd._GL_W, w)) <= 1e-15

    @pytest.mark.parametrize("name,omega_L", [
        ("fejer", 0.5), ("fejer", 0.999), ("fejer", 1.001), ("fejer", 2.0), ("fejer", 30.0),
        ("cubic", 2.997), ("cubic", 3.003), ("cubic", 90.0),
        # by parts would lose 8 digits at omega L = 2 on a degree-16 piece
        ("deg16", 2.0), ("deg16", 15.98), ("deg16", 16.02),
    ])
    def test_closed_form_F_matches_fine_panels(self, name, omega_L):
        # the piece's one panel below omega L = max(1, degree), by parts above;
        # fhat is evaluated at y itself, so deg16's piece across 0 loses no digits
        tf = {"fejer": HALF, "cubic": CUBIC, "deg16": DEG16}[name]
        sigma = float(tf.sigma)
        xi = omega_L / (2 * math.pi * sigma)
        nodes, weights = np.polynomial.legendre.leggauss(16)
        want = 0j
        for j in range(64):
            lo, hi = sigma * j / 64, sigma * (j + 1) / 64
            for x, w in zip(nodes, weights):
                y = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
                f = float(tf.fhat_at(F(y)))
                want += 2 * f * 0.5 * (hi - lo) * w * complex(math.cos(2 * math.pi * xi * y),
                                                              math.sin(2 * math.pi * xi * y))
        assert abs(qd._F(qd._pieces(tf), xi) - want) < 1e-12

    def test_sigma_phi_sq_refuses_degree_beyond_the_rule(self):
        # y fhat^2 has degree 33 > 31
        with pytest.raises(ToleranceError, match="degree 16"):
            oracle_sigma_phi_sq(DEG16)

    def test_t_transform_direct(self):
        assert abs(t_transform_numeric(HALF, 1, 0.25) - 0.375) < 1e-9

    def test_phi_comes_from_phi_at_not_the_label(self):
        custom = testfn.TestFunction(
            sigma=HALF.sigma, fhat=HALF.fhat, phi_at=HALF.phi_at, label="custom"
        )
        assert qd.oracle_R_moment(custom, 4, 2) == qd.oracle_R_moment(HALF, 4, 2)

    def test_oracle_refuses_missing_phi_at(self):
        bare = testfn.TestFunction(sigma=HALF.sigma, fhat=HALF.fhat, phi_at=None, label="custom")
        with pytest.raises(DomainError, match="phi_at"):
            t_transform_numeric(bare, 2, 1.0)
        with pytest.raises(DomainError, match="phi_at"):
            qd.oracle_R_moment(bare, 4, 2)


class TestSineProductIdentity:
    """The corrected two-sided sine identity (the closed form behind the
    I recursion): int fhat(y)[sin(z + 2 pi x |y|) + sin(z - 2 pi x |y|)] dy
    equals 2 sin(z) phi(x)."""

    @pytest.mark.parametrize("z,x", [(0.7, 0.3), (1.9, 1.2), (0.1, 2.5)])
    def test_identity_numeric(self, z, x):
        from scipy.integrate import quad

        tf = THREE_FIFTHS
        s = float(tf.sigma)

        def f(y):
            return float(tf.fhat_at(F(y))) * (
                math.sin(z + 2 * math.pi * x * abs(y)) + math.sin(z - 2 * math.pi * x * abs(y))
            )

        val, _ = quad(f, -s, s, points=[0.0], limit=200)
        assert abs(val - 2 * math.sin(z) * tf.phi_at(x)) < 1e-10
