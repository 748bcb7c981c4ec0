"""Closed-form moment quantities for the split orthogonal families.

All quantities are exact rationals.  Notation, with ``fhat`` the transform
of the test function and ``sigma`` its support radius:

- ``sigma_phi_sq``: the limiting variance  2 * int |y| fhat(y)^2 dy.
- ``R_moment(m, i)``: the correction kernel
  2^{m-1} (-1)^m sum_{l=0}^{i-1} (-2)^l C(m,l) M(m-l, l), where M(k, l) is
  the mass below -1 of psi_k * gp^{*l}, psi_k = fhat^{*k} the transform of
  phi^k and gp the half of fhat on [0, sigma] (never an oscillatory
  integral).
- ``S_correction(n, a)``: sum_l n!/((n-2l)! l!) R(n-2l, a-2l) (sigma^2/2)^l.
- ``predicted_centered_moment``: 1_{n even} (n-1)!! sigma_phi^n +- S(n, a).
- ``X_xi(n, l)`` and ``Q_n_via_classes``: the independent route through the
  indicator integrals over [0, inf)^n, which must agree exactly with R.

The mean of the statistic is ``mean_value`` = fhat(0) + (1/2) int_{-1}^{1} fhat.

The two exact routes share no convolution code above :mod:`exactpoly`.  The
R route (``R_moment``, ``S_correction``, ``predicted_centered_moment``)
works on the term lists cached per test function (:func:`testfn.psi_terms`,
:func:`testfn.gp_terms`) and never builds a piecewise intermediate.  The Q
route (``X_xi``, ``Q_n_via_classes``) also chains term-list convolutions, but
of term lists it rebuilds from ``fhat`` on every call, so it reads nothing
from that cache; the two routes then differ in the formula they evaluate
(sign-pattern classes against tail masses), not in the algebra beneath it.

Each M(k, l) is a thin tail when sigma <= 2/n, and the R route builds only
the knots it reads there.  The Q route keeps full convolutions, so R == Q
compares the cut computation against an uncut one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb, factorial
from typing import Literal

from . import exactpoly as ep
from .errors import DomainError
from .testfn import TestFunction, gp_terms, psi_terms

__all__ = [
    "Sign",
    "sigma_phi_sq",
    "R_moment",
    "S_correction",
    "predicted_centered_moment",
    "mean_value",
    "X_xi",
    "Q_n_via_classes",
    "minimal_a",
    "valid_a_range",
    "double_factorial",
]

Sign = Literal["plus", "minus"]


def double_factorial(n: int) -> int:
    """n!! with (-1)!! = 0!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def minimal_a(tf: TestFunction, n: int) -> int:
    """Smallest a >= 0 with sigma <= 1/(n-a); 0 in the mock-Gaussian regime."""
    bound = n - 1 / tf.sigma  # a >= n - 1/sigma
    return max(0, -(-bound.numerator // bound.denominator))


def valid_a_range(tf: TestFunction, n: int) -> range:
    """All a with sigma <= 1/(n-a) and a <= ceil(n/2) (boundaries allowed).

    Empty when sigma exceeds the overall 2/n hypothesis.
    """
    if n < 1:
        raise DomainError("moment order n must be >= 1")
    if tf.sigma > Fraction(2, n):
        return range(0)
    lo = minimal_a(tf, n)
    hi = (n + 1) // 2
    return range(lo, hi + 1) if lo <= hi else range(0)


def _check_support(tf: TestFunction, n: int, a: int) -> None:
    """Validate the support window; the closed boundaries (sigma = 2/n or
    sigma = 1/(n-a)) are accepted, every downstream functional being
    continuous in sigma."""
    if tf.sigma > Fraction(2, n):
        raise DomainError(
            f"unsupported support: sigma={tf.sigma} vs 2/n={Fraction(2, n)}"
        )
    if a < 0 or a > (n + 1) // 2:
        raise DomainError(f"a={a} outside 0..ceil(n/2)={(n + 1) // 2}")
    if a < n and tf.sigma > Fraction(1, n - a):
        raise DomainError(
            f"sigma={tf.sigma} vs 1/(n-a)={Fraction(1, n - a)}; "
            f"need a >= {minimal_a(tf, n)}"
        )


# ---------------------------------------------------------------------------
# basic functionals
# ---------------------------------------------------------------------------

def sigma_phi_sq(tf: TestFunction) -> Fraction:
    """2 * int |y| fhat(y)^2 dy, exactly: 4 int_0^sigma y fhat(y)^2 dy by evenness."""
    y = ep.from_global_pieces([(0, tf.sigma, [0, 1])])
    return 4 * ep.integral(ep.multiply(ep.multiply(tf.fhat, tf.fhat), y))


def mean_value(tf: TestFunction) -> Fraction:
    """fhat(0) + (1/2) int_{-1}^{1} fhat(y) dy (requires sigma <= 1)."""
    if tf.sigma > 1:
        raise DomainError("mean_value requires sigma <= 1")
    return tf.fhat_at(0) + Fraction(1, 2) * ep.definite_integral(tf.fhat, -1, 1)


# ---------------------------------------------------------------------------
# the folded-coordinate bracket
#
# The paper's bracket V(m, l) integrates T_k(1 + s), k = m - l and
# T_k(A) = int_0^A psi_k, against rho, the density of a sum of l folded
# coordinates |x_j|, each of density 2 gp.  Swapping the order of integration
# turns int rho(s) F_k(1 + s) ds, F_k the cumulative of psi_k, into the mass
# of psi_k * reflect(rho) below 1.  That mass is the total phi(0)^m minus the
# mass above 1, which, psi_k being even, is 2^l M(k, l).  So
# V(m, l) = phi(0)^m / 2 - 2^l M(k, l), the phi(0)^m / 2 cancels in every R
# bracket, and only the thin tails' knots are built.  The Q route keeps full
# convolutions, so R == Q checks the cut.
# ---------------------------------------------------------------------------

def _tail_mass(tf: TestFunction, k: int, ell: int) -> Fraction:
    """M(k, l): the mass below -1 of psi_k * gp^{*l} (psi_k itself for l = 0),
    built only at the knots below -1."""
    conv = psi_terms(tf, k)
    if ell:
        conv = ep.term_convolve(conv, gp_terms(tf, ell), below=-1)
    return ep.term_mass_below(conv, -1)


# ---------------------------------------------------------------------------
# the R / S closed forms
# ---------------------------------------------------------------------------

def R_moment(tf: TestFunction, m: int, i: int) -> Fraction:
    """Exact R(m, i) correction kernel."""
    if i < 1 or i > m:
        raise DomainError(f"R_moment requires 1 <= i <= m, got m={m}, i={i}")
    total = sum((-2) ** ell * comb(m, ell) * _tail_mass(tf, m - ell, ell) for ell in range(i))
    return Fraction(2) ** (m - 1) * (-1) ** m * total


def S_correction(tf: TestFunction, n: int, a: int) -> Fraction:
    """Exact S(n, a); the empty sum (a <= 0) is zero."""
    if n < 1:
        raise DomainError("S_correction requires n >= 1")
    _check_support(tf, n, a)
    if a <= 0:
        return Fraction(0)
    var = sigma_phi_sq(tf)
    total = Fraction(0)
    for ell in range((a - 1) // 2 + 1):
        coeff = Fraction(factorial(n), factorial(n - 2 * ell) * factorial(ell))
        total += coeff * R_moment(tf, n - 2 * ell, a - 2 * ell) * (var / 2) ** ell
    return total


def predicted_centered_moment(tf: TestFunction, n: int, a: int, sign: Sign) -> Fraction:
    """1_{n even} (n-1)!! sigma_phi^n  +  sign * S(n, a).

    ``a`` may be 0 only in the mock-Gaussian regime (sigma < 1/n), where the
    correction sum is empty; ``minimal_a(tf, n)`` is the smallest valid a.
    Sigma may sit on the closed support boundaries (the continuity-in-sigma
    reading).
    """
    if sign not in ("plus", "minus"):
        raise DomainError("sign must be 'plus' or 'minus'")
    s = S_correction(tf, n, a)
    gaussian = Fraction(0)
    if n % 2 == 0:
        gaussian = double_factorial(n - 1) * sigma_phi_sq(tf) ** (n // 2)
    return gaussian + s if sign == "plus" else gaussian - s


# ---------------------------------------------------------------------------
# the indicator-integral route (X(xi_l) and Q_n)
# ---------------------------------------------------------------------------

def X_xi(tf: TestFunction, n: int, ell: int) -> Fraction:
    """int_{[0,inf)^n} prod fhat(y_i) 1{y_1+..+y_{n-l} - y_{n-l+1}-..-y_n > 1} dy.

    The signed sum has density gp^{*(n-l)} * reflect(gp)^{*l}, gp being fhat
    on [0, sigma], supported below (n-l) sigma; X is its mass between 1 and
    that edge.  The term lists are rebuilt from ``fhat`` on every call.
    """
    if not 0 <= ell <= n:
        raise DomainError("X_xi requires 0 <= ell <= n")
    hi = (n - ell) * tf.sigma
    if hi <= 1:
        return Fraction(0)  # the sum never exceeds 1
    gp = ep.to_terms(ep.restrict(tf.fhat, 0, tf.sigma + 1))
    h = reduce(ep.term_convolve, [gp] * (n - ell) + [ep.term_reflect(gp)] * ell)
    return ep.term_mass_below(h, hi) - ep.term_mass_below(h, 1)


def Q_n_via_classes(tf: TestFunction, n: int, a: int) -> Fraction:
    """2^{n-1} (-1)^n sum_{l=0}^{a-1} (-1)^l C(n,l) X(xi_l)."""
    _check_support(tf, n, a)
    total = Fraction(0)
    for ell in range(a):
        total += (-1) ** ell * comb(n, ell) * X_xi(tf, n, ell)
    return Fraction(2) ** (n - 1) * (-1) ** n * total

