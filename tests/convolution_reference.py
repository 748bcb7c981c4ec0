"""Exact convolution of piecewise polynomials straight from its definition.

(p * q)(x) is the sum, over each piece p_i on [a0, a1) and each piece q_j on
[b0, b1), of the integral of p_i(y) q_j(x - y) over the y in
[a0, a1) ∩ (x - b1, x - b0].  Both factors are expanded as polynomials in y
and their product is integrated exactly.  No term list is involved, so this
is an independent reference for the term-list kernel in ``exactpoly``, and
:func:`reflect`, which acts on the pieces, one for ``term_reflect``.

:func:`full_bracket` is the other kind of reference: the R route's bracket
computed the long way, from the full convolution psi_k * reflect(gp^{*l}),
against which the route's cut to the knots below -1 is checked.  Its signed
form gives the paper's signed-fold integrals :func:`I_integral`, on which the
tests check the two recursions that collapse I(alpha, delta) to I(omega, 0).
"""

from __future__ import annotations

from fractions import Fraction

from splitmoments import exactpoly as ep
from splitmoments.errors import DomainError
from splitmoments.exactpoly import PiecewisePoly, from_global_pieces
from splitmoments.testfn import gp_terms, psi_terms


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
