"""Exact convolution of piecewise polynomials straight from its definition.

(p * q)(x) is the sum, over each piece p_i on [a0, a1) and each piece q_j on
[b0, b1), of the integral of p_i(y) q_j(x - y) over the y in
[a0, a1) ∩ (x - b1, x - b0].  Both factors are expanded as polynomials in y
and their product is integrated exactly.  No term list is involved, so this
is an independent reference for the term-list kernel in ``exactpoly``, and
:func:`reflect`, which acts on the pieces, one for ``term_reflect``.

:func:`psi_terms` and :func:`gp_terms` give the term lists of the powers
psi_k = fhat^{*k} and gp^{*l}, gp = fhat on [0, sigma], memoized per base.
:func:`pair_sum_R` and :func:`pair_sum_S` are the R route summed pair by pair,
2^{m-1} (-1)^m sum_{l<i} (-2)^l C(m, l) M(m-l, l), each :func:`tail_mass`
M(k, l) the mass below -1 of psi_k * gp^{*l}, built only at the knots below
-1: the reference for ``moments``' single chain of the signed fold.

:func:`full_bracket` is the other kind of reference: the R route's bracket
computed the long way, from the full convolution psi_k * reflect(gp^{*l}),
against which the cut to the knots below -1 is checked.  Its signed form
gives the paper's signed-fold integrals :func:`I_integral`, on which the
tests check the two recursions that collapse I(alpha, delta) to I(omega, 0).

:func:`from_global_pieces` builds a ``PiecewisePoly`` from (lo, hi,
coefficients) spans in any order, filling gaps with zero and refusing
overlaps; the tests write their piecewise inputs with it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial

from splitmoments import exactpoly as ep
from splitmoments.errors import DomainError
from splitmoments.exactpoly import PiecewisePoly, frac
from splitmoments.moments import sigma_phi_sq


def from_global_pieces(spans) -> PiecewisePoly:
    """Build from (lo, hi, coefficients in x) spans, in any order.

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


def reflect(p: PiecewisePoly) -> PiecewisePoly:
    """x -> p(-x): the pieces in reverse order, odd coefficients negated."""
    return PiecewisePoly((-b for b in reversed(p.breakpoints)),
                         (tuple(-c if j % 2 else c for j, c in enumerate(piece))
                          for piece in reversed(p.pieces)))


def poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _affine(c, alpha: Fraction, beta: Fraction) -> list[Fraction]:
    """Coefficients in y of c(alpha + beta*y), c ascending in its variable."""
    out = [Fraction(0)]
    for coef in reversed(c):  # Horner with polynomial arithmetic
        out = poly_mul(out, [alpha, beta])
        out[0] += coef
    return out


def poly_integral(c: list[Fraction], lo: Fraction, hi: Fraction) -> Fraction:
    return sum((cj * (hi ** (j + 1) - lo ** (j + 1)) / (j + 1) for j, cj in enumerate(c)),
               Fraction(0))


def convolve_at(p: PiecewisePoly, q: PiecewisePoly, x) -> Fraction:
    """(p * q)(x) for rational x, knot sums included."""
    x = Fraction(x)
    total = Fraction(0)
    for i, pc in enumerate(p.pieces):
        a0, a1 = p.breakpoints[i], p.breakpoints[i + 1]
        for j, qc in enumerate(q.pieces):
            b0, b1 = q.breakpoints[j], q.breakpoints[j + 1]
            lo, hi = max(a0, x - b1), min(a1, x - b0)
            if lo < hi:
                q_in_y = _affine(qc, x, Fraction(-1))  # q_j(x - y)
                total += poly_integral(poly_mul(list(pc), q_in_y), lo, hi)
    return total


def reference_convolve(p: PiecewisePoly, q: PiecewisePoly) -> PiecewisePoly:
    """p * q in canonical piecewise form, interpolated from :func:`convolve_at`.

    Between consecutive knot sums p * q is one polynomial of degree at most
    deg p + deg q + 1, so that many interior values plus one determine it.
    """
    if p.is_zero() or q.is_zero():
        return PiecewisePoly.zero()
    cuts = sorted({a + b for a in p.breakpoints for b in q.breakpoints})
    nodes = p.degree() + q.degree() + 2
    spans = []
    for lo, hi in zip(cuts, cuts[1:]):
        xs = [lo + (hi - lo) * (k + 1) / (nodes + 1) for k in range(nodes)]
        coeffs = [Fraction(0)] * nodes
        for k, xk in enumerate(xs):  # Lagrange basis polynomial of node k
            basis, denom = [Fraction(1)], Fraction(1)
            for m, xm in enumerate(xs):
                if m != k:
                    basis = poly_mul(basis, [-xm, Fraction(1)])
                    denom *= xk - xm
            weight = convolve_at(p, q, xk) / denom
            for j, bj in enumerate(basis):
                coeffs[j] += weight * bj
        spans.append((lo, hi, coeffs))
    return from_global_pieces(spans)


@cache
def _power(base, k: int):
    """base^{*k} for a term list ``base`` (k >= 1), memoized on the terms."""
    if k < 1:
        raise DomainError("power must be >= 1")
    return base if k == 1 else ep.term_convolve(_power(base, k - 1), base)


def psi_terms(tf, k: int):
    """Term list of psi_k = fhat^{*k}, the transform of phi^k (k >= 1)."""
    return _power(ep.to_terms(tf.fhat), k)


def gp_terms(tf, ell: int):
    """Term list of gp^{*l} with gp = fhat on [0, sigma] (l >= 1).

    The folded coordinate |x| has density 2 gp; gp itself has mass phi(0)/2.
    """
    return _power(ep.to_terms(ep.restrict(tf.fhat, 0, tf.sigma + 1)), ell)


def tail_mass(tf, k: int, ell: int) -> Fraction:
    """M(k, l): the mass below -1 of psi_k * gp^{*l} (psi_k itself for l = 0),
    built only at the knots below -1."""
    conv = psi_terms(tf, k)
    if ell:
        conv = ep.term_convolve(conv, gp_terms(tf, ell), below=-1)
    return ep.term_mass_below(conv, -1)


def pair_sum_R(tf, m: int, i: int) -> Fraction:
    """R(m, i) = 2^{m-1} (-1)^m sum_{l<i} (-2)^l C(m, l) M(m-l, l), at any sigma."""
    total = sum((-2) ** ell * comb(m, ell) * tail_mass(tf, m - ell, ell) for ell in range(i))
    return Fraction(2) ** (m - 1) * (-1) ** m * total


def pair_sum_S(tf, n: int, a: int) -> Fraction:
    """S(n, a) = sum_l n!/((n-2l)! l!) R(n-2l, a-2l) (sigma_phi^2/2)^l from
    :func:`pair_sum_R`; the empty sum (a <= 0) is zero."""
    var = sigma_phi_sq(tf)
    return sum((Fraction(factorial(n), factorial(n - 2 * ell) * factorial(ell))
                * pair_sum_R(tf, n - 2 * ell, a - 2 * ell) * (var / 2) ** ell
                for ell in range((a - 1) // 2 + 1)), Fraction(0))


def full_bracket(tf, k: int, pos: int, neg: int = 0) -> Fraction:
    """int rho(s) T_k(1 + s) ds for rho the density of ``pos`` folded
    coordinates minus ``neg`` (a unit point mass at 0 when both are 0).

    This is the mass of psi_k * reflect(rho) below 1 minus F_k(0) int rho,
    with F_k(0) = phi(0)^k / 2 (psi_k is even), int rho = phi(0)^(pos+neg)
    and reflect(rho) = 2^(pos+neg) reflect(gp^{*pos}) * gp^{*neg}, every knot
    of the convolution built.
    """
    conv = psi_terms(tf, k)
    if pos:
        conv = ep.term_convolve(conv, ep.term_reflect(gp_terms(tf, pos)))
    if neg:
        conv = ep.term_convolve(conv, gp_terms(tf, neg))
    return 2 ** (pos + neg) * ep.term_mass_below(conv, 1) - tf.phi_zero() ** (k + pos + neg) / 2


def I_integral(tf, n: int, alpha: int, delta: int) -> Fraction:
    """I(alpha, delta): T_{n-alpha-delta} against the signed folded density."""
    if alpha < 0 or delta < 0:
        raise DomainError("alpha, delta must be >= 0")
    if alpha + delta >= n:
        raise DomainError("I_integral requires alpha + delta < n")
    return full_bracket(tf, n - alpha - delta, alpha, delta)
