"""Floating-point oracle recomputations of the exact moment quantities.

Everything here deliberately avoids the exact convolution and term-list
machinery: quantities are recomputed from their definitions in double
precision, on Python floats with ``math``, ``cmath`` and ``math.fsum`` (no
numpy), so that agreement with the exact route is meaningful
cross-validation.  The one rule is 16-point Gauss-Legendre (GL) on equal
panels, its table computed once at import; fhat is evaluated by Horner at y
on the pieces of ``tf.fhat``, whose coefficients are in y.

- F(xi) = int_0^sigma 2 fhat(y) e^{2 pi i y xi} dy in closed form per piece
  of fhat on [0, sigma].  With omega = 2 pi xi, L the piece's length and d
  its degree, integration by parts gives a finite sum over the derivatives
  at the two ends when omega L >= max(1, d); below that (where the sum
  would cancel) the piece's one GL panel is used instead.
- R(m, i): the folded integrals
  int_{[0,sigma]^d} prod 2 fhat(x_j) T_k(1 + sum x_j) dx, with
  T_k(A) = int phi^k(x) sin(2 pi x A)/(2 pi x) dx, factorise in Fourier
  space into 2 sum g(xi) Im[e^{2 pi i xi} F(xi)^d] with
  g(xi) = phi^k(xi) w / (2 pi xi); depth 0 is F^0 = 1, that is T_k(1).  The
  xi panels run out to a cutoff chosen from the envelope
  phi(x)^k <= (pi sigma x)^{-2k}.

Target absolute error is 1e-8.  The T_k rule's panel count grows like
1/sigma; above ``_MAX_PANELS`` it raises ResourceLimitError before building
a node.  The rule streams into one correctly rounded ``fsum`` a 16-node
panel at a time, so memory does not grow with the panel count.  The tests
reuse this rule for float references of phi(x), T_k(A), sigma_phi^2 and the
signed-fold integrals I(alpha, delta) (``tests/oracle_reference.py``).
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from itertools import chain
from math import comb, fsum
from typing import Callable, Iterator, NamedTuple

from .errors import DomainError, ResourceLimitError
from .testfn import TestFunction

__all__ = ["oracle_R_moment"]

_TARGET = 1e-8
# Panel cap of the streamed T_k rule, a bound on time only: 130853 panels
# (R(3, 1) at sigma = 1/5300) take about 1.6 s (2-core x86-64, Python 3.11).
# The tests need at most 28117 (sigma = 1/2, k = 1) and crosscheck --n 3 at
# sigma = 1/1000 needs 61142; sigma = 1/10000 is refused.
_MAX_PANELS = 1 << 17


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0, p1 = 1.0, x
    for d in range(2, n + 1):
        p0, p1 = p1, ((2 * d - 1) * x * p1 - (d - 1) * p0) / d
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes (ascending) and weights of n-point Gauss-Legendre on [-1, 1].

    Newton's method on P_n from the guesses cos(pi (j + 3/4) / (n + 1/2));
    the table is then made exactly symmetric.
    """
    nodes, weights = [], []
    for j in reversed(range(n)):
        x = math.cos(math.pi * (j + 0.75) / (n + 0.5))
        for _ in range(100):
            p, dp = _legendre(n, x)
            x -= p / dp
            if abs(p / dp) < 1e-15:
                break
        dp = _legendre(n, x)[1]
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    mirror = range(n - 1, -1, -1)
    return (tuple(0.5 * (a - nodes[j]) for a, j in zip(nodes, mirror)),
            tuple(0.5 * (a + weights[j]) for a, j in zip(weights, mirror)))


# 16-point Gauss-Legendre on [-1, 1]: exact for polynomials of degree <= 31.
_GL_X, _GL_W = _gauss_legendre(16)


def _panel(lo: float, hi: float) -> tuple[list[float], list[float]]:
    """GL nodes and weights on [lo, hi]."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return [mid + half * x for x in _GL_X], [half * w for w in _GL_W]


def _horner(coeffs, t):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


class _Piece(NamedTuple):
    """fhat on one piece [lo, hi] of [0, sigma], ready for F(xi).

    ``ends`` holds the values at lo and at hi of 2 fhat and its derivatives
    (lowest order first); ``y``, ``f`` and ``fw`` are the piece's GL panel:
    nodes, fhat there, and the weights 2 fhat(y) w.
    """

    lo: float
    hi: float
    switch: float
    ends: tuple[list[float], list[float]]
    y: list[float]
    f: list[float]
    fw: list[float]


def _pieces(tf: TestFunction) -> list[_Piece]:
    """fhat on [0, sigma], cut at its breakpoints."""
    breaks, polys = tf.fhat.breakpoints, tf.fhat.pieces
    cuts = sorted({0, tf.sigma} | {b for b in breaks if 0 < b < tf.sigma})
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        i = bisect_right(breaks, lo) - 1  # the piece of fhat holding [lo, hi]
        coeffs = [float(c) for c in polys[i]] if 0 <= i < len(polys) else []
        ends = ([], [])
        deriv = [2.0 * c for c in coeffs]
        while deriv:
            ends[0].append(_horner(deriv, float(lo)))
            ends[1].append(_horner(deriv, float(hi)))
            deriv = [d * c for d, c in enumerate(deriv)][1:]
        y, w = _panel(float(lo), float(hi))
        f = [_horner(coeffs, t) for t in y]
        out.append(_Piece(float(lo), float(hi), max(1.0, len(coeffs) - 1.0), ends,
                          y, f, [2.0 * a * b for a, b in zip(f, w)]))
    return out


def _F(pieces: list[_Piece], xi: float) -> complex:
    """F(xi) = int_0^sigma 2 fhat(y) e^{2 pi i y xi} dy, piece by piece.

    By parts, int_lo^hi q(y) e^{i omega y} dy is
    sum_k (-1)^k [q^(k)(y) e^{i omega y} / (i omega)^(k+1)]_lo^hi
    = -u [e^{i omega y} sum_k q^(k)(y) u^k]_lo^hi with u = i / omega.
    """
    omega = 2.0 * math.pi * xi
    total = 0j
    for p in pieces:
        if abs(omega) * (p.hi - p.lo) < p.switch:
            total += sum(fw * cmath.exp(1j * omega * y) for y, fw in zip(p.y, p.fw))
        else:
            u = 1j / omega
            total -= u * (cmath.exp(1j * omega * p.hi) * _horner(p.ends[1], u)
                          - cmath.exp(1j * omega * p.lo) * _horner(p.ends[0], u))
    return total


def _phi(tf: TestFunction) -> Callable[[float], float]:
    """The test function's float evaluator, the oracle's only reading of phi."""
    if tf.phi_at is None:
        raise DomainError(f"the quadrature oracle needs phi_at; {tf.label} has none")
    return tf.phi_at


def _t_kernel(tf: TestFunction, k: int, freq: float, fold: int,
              v: float) -> Iterator[tuple[list[float], list[float]]]:
    """Nodes xi and weights g(xi) = phi^k(xi) w / (2 pi xi) of the rule for T_k.

    T_k(A) = 2 sum g(xi) sin(2 pi A xi).  The panels resolve oscillation up
    to frequency ``freq`` on top of phi^k's band k sigma.  The rule stops
    where the envelope (pi sigma xi)^{-2k}, times (v / (pi xi))^fold for a
    factor the integrand carries besides, leaves a tail under a tenth of the
    target.  phi^k comes from the test function's ``phi_at``.  The panel
    count is checked at once; the rule then yields one panel's (xi, g) lists
    at a time, as they are drawn.
    """
    phi = _phi(tf)
    s = float(tf.sigma)
    p = 2 * k + fold
    c = (math.pi * s) ** (-2 * k) * (v / math.pi) ** fold / (math.pi * p)
    cutoff = max(4.0 / s, (c / (_TARGET * 0.1)) ** (1.0 / p))
    panels = int(cutoff * (freq + k * s + 1.0) * 2) + 8
    if panels > _MAX_PANELS:
        raise ResourceLimitError(
            f"quadrature oracle: T_{k} at sigma={tf.sigma} needs {panels} panels,"
            f" over the cap of {_MAX_PANELS}")

    def panel(j: int) -> tuple[list[float], list[float]]:
        nodes, weights = _panel(cutoff * j / panels, cutoff * (j + 1) / panels)
        return nodes, [phi(x) ** k * w / (2.0 * math.pi * x) for x, w in zip(nodes, weights)]

    return map(panel, range(panels))


def _folded(tf: TestFunction, k: int, pos: int) -> float:
    """int over [0,sigma]^pos of prod 2 fhat(x_j) * T_k(1 + sum x_j).

    Summing T_k's rule under the integral gives
    2 sum g(xi) Im[e^{2 pi i xi} F(xi)^pos].  By parts, |F(xi)| <= v / (pi xi),
    v being the end values of fhat on [0, sigma] plus its variation there; v
    is read off the pieces' GL nodes and doubled for margin, and shortens
    T_k's rule when pos > 0.
    """
    pieces = _pieces(tf)
    f = [a for p in pieces for a in p.f]
    v = 2.0 * (abs(f[0]) + abs(f[-1]) + fsum(abs(b - a) for a, b in zip(f, f[1:])))

    def terms(panel: tuple[list[float], list[float]]) -> list[float]:
        xi, g = panel
        if not pos:
            return [w * cmath.exp(2j * math.pi * x).imag for x, w in zip(xi, g)]
        return [w * (cmath.exp(2j * math.pi * x) * _F(pieces, x) ** pos).imag
                for x, w in zip(xi, g)]

    rule = _t_kernel(tf, k, 1.0 + pos * float(tf.sigma), pos, v)
    return 2.0 * fsum(chain.from_iterable(map(terms, rule)))


def oracle_R_moment(tf: TestFunction, m: int, i: int) -> float:
    """R(m, i) from the definitional formula: folded integrals V(m, l), l < i."""
    if i < 1 or i > m:
        raise DomainError("oracle_R_moment requires 1 <= i <= m")
    phi0_m = _phi(tf)(0.0) ** m
    total = 0.0
    for ell in range(i):
        v = _folded(tf, m - ell, ell)
        total += (-1) ** ell * comb(m, ell) * (-phi0_m / 2 + v)
    return 2.0 ** (m - 1) * (-1) ** (m + 1) * total

