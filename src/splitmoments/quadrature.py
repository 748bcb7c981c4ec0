"""Floating-point oracle recomputations of the exact moment quantities.

Everything here deliberately avoids the exact convolution and term-list
machinery: quantities are recomputed from their definitions in double
precision, so that agreement with the exact route is meaningful
cross-validation.  Every integral except X(xi_l) runs on one rule,
16-point Gauss-Legendre (GL) on equal panels:

- sigma_phi_sq = 4 int_0^sigma y fhat(y)^2 dy: one panel per piece of fhat,
  exact while the pieces have degree <= 15.
- phi_value_numeric: phi(x) = 2 int_0^sigma fhat(y) cos(2 pi x y) dy on
  panels over the pieces of fhat.
- T_k(A) = int phi^k(x) sin(2 pi x A)/(2 pi x) dx = 2 sum g(xi) sin(2 pi A xi)
  with g(xi) = phi^k(xi) w / (2 pi xi), on panels out to a cutoff chosen
  from the envelope phi(x)^k <= (pi sigma x)^{-2k}.
- R(m, i) and I(alpha, delta): the folded integrals
  int_{[0,sigma]^d} prod 2 fhat(x_j) T_k(1 + sum s_j x_j) dx factorise in
  Fourier space into 2 sum g(xi) Im[e^{2 pi i xi} F(xi)^pos conj(F(xi))^neg],
  F(xi) = int_0^sigma 2 fhat(y) e^{2 pi i y xi} dy on panels over the pieces
  of fhat; depth 0 is F^0 = 1, that is T_k(1).
- X(xi_l): trapezoid grid convolution of the coordinate weights with
  Richardson extrapolation.

Target absolute error is 1e-8; ToleranceError is raised where a rule cannot
meet it (sigma_phi_sq on high-degree pieces, a non-converging X(xi_l)).
"""

from __future__ import annotations

import math
from math import comb

import numpy as np

from .errors import DomainError, ToleranceError
from .testfn import TestFunction

__all__ = [
    "oracle_sigma_phi_sq",
    "oracle_R_moment",
    "oracle_X_xi",
    "oracle_I_integral",
    "phi_value_numeric",
    "t_transform_numeric",
]

_TARGET = 1e-8
# 16-point Gauss-Legendre on [-1, 1]: exact for polynomials of degree <= 31.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_CHUNK = 1 << 20  # elements in one temporary (xi, y) array


def _fhat_np(tf: TestFunction, y: np.ndarray) -> np.ndarray:
    """Vectorized double-precision evaluation of fhat."""
    breaks = np.array([float(b) for b in tf.fhat.breakpoints])
    out = np.zeros_like(y, dtype=float)
    if breaks.size == 0:
        return out
    idx = np.searchsorted(breaks, y, side="right") - 1
    inside = (y >= breaks[0]) & (y <= breaks[-1])
    idx = np.clip(idx, 0, len(tf.fhat.pieces) - 1)
    for i, piece in enumerate(tf.fhat.pieces):
        sel = inside & (idx == i)
        if not sel.any():
            continue
        t = y[sel] - breaks[i]
        acc = np.zeros_like(t)
        for c in reversed(piece):
            acc = acc * t + float(c)
        out[sel] = acc
    return out


def _panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GL nodes and weights on the panels between consecutive ``edges``."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * _GL_X).ravel(), (half[:, None] * _GL_W).ravel()


def _fhat_rule(tf: TestFunction, freq: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y and weights 2 fhat(y) w of the rule for int_0^sigma 2 fhat(y) h(y) dy.

    Each piece of fhat is cut into panels no longer than 1/freq (one panel
    when freq is 0), so h(y) = e^{2 pi i y xi} is resolved for |xi| <= freq.
    """
    s = float(tf.sigma)
    breaks = sorted({0.0, s} | {float(b) for b in tf.fhat.breakpoints if 0 < b < tf.sigma})
    edges = [np.linspace(lo, hi, 2 + int((hi - lo) * freq))[:-1]
             for lo, hi in zip(breaks, breaks[1:])]
    y, w = _panels(np.concatenate(edges + [[s]]))
    return y, 2.0 * _fhat_np(tf, y) * w


def _t_kernel(tf: TestFunction, k: int, freq: float, fold: int = 0,
              v: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Nodes xi and weights g(xi) = phi^k(xi) w / (2 pi xi) of the rule for T_k.

    T_k(A) = 2 sum g(xi) sin(2 pi A xi).  The panels resolve oscillation up
    to frequency ``freq`` on top of phi^k's band k sigma.  The rule stops
    where the envelope (pi sigma xi)^{-2k}, times (v / (pi xi))^fold for a
    factor the integrand carries besides, leaves a tail under a tenth of the
    target.  phi^k comes from the test function's vectorized ``phi_at``.
    """
    if tf.phi_at is None:
        raise DomainError(f"the quadrature oracle needs phi_at; {tf.label} has none")
    s = float(tf.sigma)
    p = 2 * k + fold
    c = (math.pi * s) ** (-2 * k) * (v / math.pi) ** fold / (math.pi * p)
    cutoff = max(4.0 / s, (c / (_TARGET * 0.1)) ** (1.0 / p))
    xi, w = _panels(np.linspace(0.0, cutoff, int(cutoff * (freq + k * s + 1.0) * 2) + 9))
    return xi, tf.phi_at(xi) ** k * w / (2 * np.pi * xi)


def t_transform_numeric(tf: TestFunction, k: int, A: float) -> float:
    """T_k(A) by direct oscillatory quadrature of the defining integral."""
    xi, g = _t_kernel(tf, k, abs(A))
    return 2.0 * float(g @ np.sin(2 * np.pi * A * xi))


def _folded(tf: TestFunction, k: int, pos: int, neg: int) -> float:
    """int over [0,sigma]^(pos+neg) of prod 2 fhat(x_j) * T_k(1 + sum s_j x_j).

    The first ``pos`` signs s_j are +1 and the last ``neg`` are -1.  Summing
    T_k's rule under the integral gives
    2 sum g(xi) Im[e^{2 pi i xi} F(xi)^pos conj(F(xi))^neg] with
    F(xi) = int_0^sigma 2 fhat(y) e^{2 pi i y xi} dy, evaluated in chunks of
    xi.  By parts, |F(xi)| <= v / (pi xi), v being the end values of fhat on
    [0, sigma] plus its variation there; v is read off the one-panel rule's
    nodes and doubled for margin, and shortens T_k's rule when pos + neg > 0.
    """
    fold = pos + neg
    y, _ = _fhat_rule(tf, 0.0)
    f = _fhat_np(tf, y)
    v = 2.0 * (abs(f[0]) + abs(f[-1]) + np.abs(np.diff(f)).sum())
    xi, g = _t_kernel(tf, k, 1.0 + max(pos, neg) * float(tf.sigma), fold, v)
    y, fw = _fhat_rule(tf, xi[-1] if fold else 0.0)
    total = 0.0
    step = max(1, _CHUNK // y.size)
    for j in range(0, xi.size, step):
        x = xi[j : j + step]
        z = np.exp(2j * np.pi * x)
        if fold:
            arg = 2 * np.pi * np.outer(x, y)
            F = np.cos(arg) @ fw + 1j * (np.sin(arg) @ fw)
            z *= F**pos * np.conj(F) ** neg
        total += float(g[j : j + step] @ z.imag)
    return 2.0 * total


def phi_value_numeric(tf: TestFunction, x: float) -> float:
    """phi(x) via the closed form when available, else by inverting fhat.

    phi(x) = 2 int_0^sigma fhat(y) cos(2 pi x y) dy, fhat being even.
    """
    if tf.phi_at is not None:
        return float(tf.phi_at(x))
    y, fw = _fhat_rule(tf, abs(x))
    return float(np.cos(2 * np.pi * x * y) @ fw)


def oracle_sigma_phi_sq(tf: TestFunction) -> float:
    """sigma_phi^2 = 4 int_0^sigma y fhat(y)^2 dy, one GL panel per piece."""
    degree = max((len(p) - 1 for p in tf.fhat.pieces), default=0)
    if 2 * degree + 1 > 2 * _GL_X.size - 1:
        raise ToleranceError(
            f"sigma_phi_sq oracle: {_GL_X.size}-point GL is not exact on fhat pieces "
            f"of degree {degree}"
        )
    y, fw = _fhat_rule(tf, 0.0)
    return 2.0 * float((y * _fhat_np(tf, y)) @ fw)


def oracle_R_moment(tf: TestFunction, m: int, i: int) -> float:
    """R(m, i) from the definitional formula: folded integrals V(m, l), l < i."""
    if i < 1 or i > m:
        raise DomainError("oracle_R_moment requires 1 <= i <= m")
    phi0_m = float(tf.phi_zero()) ** m
    total = 0.0
    for ell in range(i):
        v = _folded(tf, m - ell, ell, 0)
        total += (-1) ** ell * comb(m, ell) * (-phi0_m / 2 + v)
    return 2.0 ** (m - 1) * (-1) ** (m + 1) * total


def oracle_I_integral(tf: TestFunction, n: int, alpha: int, delta: int) -> float:
    if alpha < 0 or delta < 0 or alpha + delta >= n:
        raise DomainError("oracle_I_integral requires alpha, delta >= 0, alpha+delta < n")
    return _folded(tf, n - alpha - delta, alpha, delta)


def _grid_X_xi(tf: TestFunction, n: int, ell: int, points_per_sigma: int) -> float:
    """Trapezoid grid convolution estimate of X(xi_ell)."""
    sig = tf.sigma
    # Grid step h must divide both sigma and 1 so breakpoints and the tail
    # cut at s=1 land on grid points: h = 1/(den*t) with sigma = num/den.
    den, num = sig.denominator, sig.numerator
    t = max(1, math.ceil(points_per_sigma / float(num)))
    h = 1.0 / (den * t)
    npts = num * t  # points across [0, sigma]
    y = np.arange(npts + 1) * h
    g = _fhat_np(tf, y)
    g[0] *= 0.5
    g[-1] *= 0.5  # trapezoid end weights
    pos = g
    arr = None
    for _ in range(n - ell):
        arr = pos if arr is None else np.convolve(arr, pos) * h
    rev = pos[::-1]  # reflected weight, support [-sigma, 0]
    offset = 0  # index of s = (left support edge)/h relative to 0
    for _ in range(ell):
        arr = np.convolve(arr, rev) * h
        offset += npts
    # arr[j] ~ density at s = (j - offset) * h; integrate s > 1
    cut = offset + den * t  # index where s = 1
    if cut >= len(arr):
        return 0.0
    tail = arr[cut:]
    val = h * (np.sum(tail) - 0.5 * tail[0] - 0.5 * tail[-1])
    return float(val)


def oracle_X_xi(tf: TestFunction, n: int, ell: int) -> float:
    """X(xi_ell) by grid convolution with Richardson extrapolation."""
    if not 0 <= ell <= n:
        raise DomainError("oracle_X_xi requires 0 <= ell <= n")
    if ell == n:
        return 0.0
    base = 3000
    v1 = _grid_X_xi(tf, n, ell, base)
    v2 = _grid_X_xi(tf, n, ell, 2 * base)
    rich = (4.0 * v2 - v1) / 3.0
    if not math.isfinite(rich) or abs(v2 - v1) / 3.0 > max(10 * _TARGET, 1e-7):
        raise ToleranceError(
            f"X_xi oracle did not converge: v1={v1!r}, v2={v2!r}"
        )
    return rich
