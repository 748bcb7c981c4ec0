"""Test-function catalog: Fejer family and transform powers."""

import hashlib
import math
import threading
from fractions import Fraction as F

import pytest
from scipy.integrate import quad

from convolution_reference import reflect
from oracle_reference import phi_value_numeric
from splitmoments import exactpoly as ep
from splitmoments.errors import DomainError
from splitmoments.moments import predicted_centered_moment, sigma_phi_sq
from splitmoments.testfn import fejer, gp_terms, phi_power_hat, psi_terms


class TestFejer:
    def test_fhat_at_zero(self):
        assert fejer(F(1, 2)).fhat_at(0) == 2

    def test_phi_at_zero_is_one(self):
        assert fejer(F(1, 2)).phi_at(0.0) == 1.0

    def test_fhat_vanishes_at_edge(self):
        s = F(2, 7)
        assert fejer(s).fhat_at(s) == 0

    def test_invalid_sigma(self):
        with pytest.raises(DomainError):
            fejer(0)
        with pytest.raises(DomainError):
            fejer(F(-1, 2))

    def test_evenness_and_support(self):
        tf = fejer(F(3, 5))
        assert reflect(tf.fhat) == tf.fhat
        assert tf.fhat.support == (-F(3, 5), F(3, 5))

    def test_phi_zero_equals_transform_mass(self):
        for s in [F(1, 4), F(1, 2), F(3, 5), F(2)]:
            tf = fejer(s)
            assert tf.phi_zero() == 1
            assert abs(tf.phi_at(0.0) - 1.0) < 1e-12

    def test_structural_invariants_rejected(self):
        from splitmoments.testfn import TestFunction

        odd = ep.from_global_pieces([(0, 1, [1])])  # not even
        with pytest.raises(DomainError, match="even"):
            TestFunction(sigma=F(1), fhat=odd, phi_at=None, label="bad")
        wide = fejer(1).fhat
        with pytest.raises(DomainError, match="vanish"):
            TestFunction(sigma=F(1, 2), fhat=wide, phi_at=None, label="bad")
        good = fejer(F(1, 2))
        with pytest.raises(DomainError, match="phi_at"):
            TestFunction(
                sigma=good.sigma, fhat=good.fhat, phi_at=lambda x: 5.0, label="bad"
            )


class TestPhiPowerHat:
    def test_power_one_is_identity(self):
        tf = fejer(F(1, 2))
        assert phi_power_hat(tf, 1) == tf.fhat

    def test_unit_mass_all_powers(self):
        tf = fejer(F(3, 5))
        for m in range(1, 7):
            assert ep.integral(phi_power_hat(tf, m)) == 1

    def test_bspline_tail(self):
        tf = fejer(F(3, 5))
        psi2 = phi_power_hat(tf, 2)
        assert ep.definite_integral(psi2, F(3, 5), F(6, 5)) == F(1, 24)

    def test_convolution_additivity(self):
        tf = fejer(F(2, 5))
        lhs = phi_power_hat(tf, 5)
        rhs = ep.convolve(phi_power_hat(tf, 2), phi_power_hat(tf, 3))
        assert lhs == rhs

    def test_support_scales(self):
        tf = fejer(F(1, 3))
        assert phi_power_hat(tf, 4).support == (-F(4, 3), F(4, 3))

    def test_rejects_bad_power(self):
        with pytest.raises(DomainError):
            phi_power_hat(fejer(F(1, 2)), 0)

    def test_term_caches_reject_powers_below_one(self):
        tf = fejer(F(1, 2))
        psi_terms(tf, 3)
        gp_terms(tf, 2)
        for power in (psi_terms, gp_terms):
            for k in (0, -1):
                with pytest.raises(DomainError):
                    power(tf, k)

    @pytest.mark.parametrize("power", [psi_terms, gp_terms])
    def test_power_list_shared_across_threads(self, power, monkeypatch):
        """Two threads that each build the second power before either stores
        it still get the third power, and the cache they leave is still the
        list of powers."""
        expected = [power(fejer(F(1, 7)), k) for k in (1, 2, 3, 4)]
        tf = fejer(F(1, 7))
        convolve, met = ep.term_convolve, threading.local()
        barrier = threading.Barrier(2, timeout=10)

        def convolve_then_meet(*args, **kwargs):
            out = convolve(*args, **kwargs)
            if not getattr(met, "done", False):
                met.done = True
                barrier.wait()  # both threads hold power 2; neither has stored it
            return out

        monkeypatch.setattr(ep, "term_convolve", convolve_then_meet)
        got = [None, None]

        def build(i):
            got[i] = power(tf, 3)

        threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert got == [expected[2]] * 2
        monkeypatch.undo()
        assert [power(tf, k) for k in (1, 2, 3, 4)] == expected

    def test_fejer_psi_stores_one_term_per_knot(self):
        """psi_k of the triangle is a sum of e_{2k-1} at knots -k..k; the
        cache holds that one term per knot and no padding."""
        tf = fejer(F(1, 10))
        predicted_centered_moment(tf, 20, 10, "minus")
        cached = tf._psi
        assert len(cached) == 20
        for k, psi in enumerate(cached, start=1):
            assert [kk for kk, _ in psi.knots] == list(range(-k, k + 1))
            assert all(len(pairs) == 1 and pairs[0][0] == 2 * k - 1
                       for _, pairs in psi.knots)

    @pytest.mark.parametrize("sigma, digest", [
        (F(1, 2), "5d7a2e7c6aa92c013972256ea02282bd29114214e89d1a3ddb6d4db59f4fab03"),
        (F(1, 3), "e0d193839ecbe74eced77a98587782906971983e0f75e10f0b2d30eee3c84352"),
        (F(3, 5), "7171beefa4a56bbf72b04a3cdc64fc255d7fd713b949633153b9f539277c9253"),
    ])
    def test_power_term_lists_pinned(self, sigma, digest):
        """psi_m (m <= 6), gp^{*l} (l <= 4) and the piecewise psi_m, pinned by
        the sha256 of their repr: the Taylor shifts in and out of the term
        lists and the constructor's canonical form stay bit for bit."""
        tf = fejer(sigma)
        powers = ([psi_terms(tf, m) for m in range(1, 7)],
                  [gp_terms(tf, ell) for ell in range(1, 5)],
                  [phi_power_hat(tf, m) for m in range(1, 7)])
        assert hashlib.sha256(repr(powers).encode()).hexdigest() == digest


class TestPhiValueNumeric:
    def test_closed_form_at_one(self):
        # (sin(pi/2)/(pi/2))^2 = 4/pi^2 for sigma = 1/2 at x = 1
        v = phi_value_numeric(fejer(F(1, 2)), 1.0)
        assert abs(v - 4 / math.pi**2) < 1e-12

    def test_decay_envelope(self):
        v = phi_value_numeric(fejer(F(1, 2)), 1000.0)
        assert abs(v) < 1e-5

    def test_inversion_at_zero(self):
        for s in [F(1, 4), F(3, 5)]:
            tf = fejer(s)
            assert abs(phi_value_numeric(tf, 0.0) - float(tf.phi_zero())) < 1e-10

    def test_numeric_inversion_fallback_matches_closed_form(self):
        from splitmoments.testfn import TestFunction

        base = fejer(F(1, 2))
        generic = TestFunction(sigma=base.sigma, fhat=base.fhat, phi_at=None, label="generic")
        for x in [0.0, 0.3, 1.0, 2.5, 40.0]:
            assert abs(phi_value_numeric(generic, x) - base.phi_at(x)) < 1e-9


class TestParsevalConsistency:
    def test_exact_vs_numeric_weighted_square(self):
        # 2 int |y| fhat^2 agrees between the exact route and quadrature
        tf = fejer(F(3, 5))
        exact = sigma_phi_sq(tf)
        num, _ = quad(
            lambda y: 2 * abs(y) * float(tf.fhat_at(F(y))) ** 2,
            -float(tf.sigma),
            float(tf.sigma),
            points=[0.0],
        )
        assert abs(float(exact) - num) < 1e-9
