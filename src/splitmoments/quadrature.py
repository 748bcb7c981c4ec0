"""Floating-point oracle recomputations of the exact moment quantities.

Everything here deliberately avoids the exact convolution/antiderivative
machinery: quantities are recomputed from their definitions with double
precision quadrature so that agreement with the exact route is meaningful
cross-validation.

- sigma_phi_sq: Gauss-Kronrod on |y| fhat(y)^2.
- R(m, i) and I(alpha, delta): the definitional oscillatory inner integral
  T_k(A) = int phi^k(x) sin(2 pi x A)/(2 pi x) dx is evaluated by composite
  Gauss-Legendre panels out to a cutoff chosen from the envelope bound
  phi(x)^k <= (pi sigma x)^{-2k}, tabulated on an A-grid and interpolated;
  the outer folded variables use nested Gauss-Kronrod.
- X(xi_l): iterated 1-D integration realized as trapezoid grid convolution
  of the coordinate weights with Richardson extrapolation (the nested
  adaptive route is equivalent but far slower at depth n).

Target absolute error is 1e-8; routines raise ToleranceError when their
internal error estimates exceed the target.
"""

from __future__ import annotations

import math
from math import comb
from typing import Sequence

import numpy as np
from scipy.integrate import quad

from . import exactpoly as ep
from .errors import DomainError, ToleranceError
from .testfn import TestFunction

__all__ = [
    "oracle_numeric",
    "oracle_sigma_phi_sq",
    "oracle_R_moment",
    "oracle_X_xi",
    "oracle_I_integral",
    "t_transform_numeric",
]

_TARGET = 1e-8


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


def _phi_pow(tf: TestFunction, k: int, x: np.ndarray) -> np.ndarray:
    """phi(x)^k through the test function's vectorized closed form."""
    if tf.phi_at is None:
        raise DomainError(f"the quadrature oracle needs phi_at; {tf.label} has none")
    return tf.phi_at(x) ** k


# Gauss-Legendre nodes/weights on [-1, 1], order 16, reused across panels.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def t_transform_numeric(tf: TestFunction, k: int, A: float) -> float:
    """T_k(A) by direct oscillatory quadrature of the defining integral."""
    if A == 0.0:
        return 0.0
    sign = 1.0
    if A < 0:
        sign, A = -1.0, -A
    s = float(tf.sigma)
    # envelope phi(x)^k <= (pi s x)^{-2k}; tail past X contributes at most
    # (pi s)^{-2k} X^{-2k} / (4 pi k) (times 2 for evenness, folded in).
    c = (math.pi * s) ** (-2 * k) / (2 * math.pi * k)
    cutoff = max(4.0 / s, (c / (_TARGET * 0.1)) ** (1.0 / (2 * k)))
    freq = A + k * s + 1.0
    n_panels = int(cutoff * freq * 2) + 8
    edges = np.linspace(0.0, cutoff, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    w = (half[:, None] * _GL_W[None, :]).ravel()
    fx = _phi_pow(tf, k, x) * np.sin(2 * np.pi * A * x) / (2 * np.pi * x)
    return sign * 2.0 * float(np.dot(w, fx))


class _TTable:
    """T_k on a uniform A-grid with cubic interpolation for nested quadrature."""

    def __init__(self, tf: TestFunction, k: int, a_lo: float, a_hi: float):
        from scipy.interpolate import CubicSpline

        pad = 1e-6
        a_lo, a_hi = a_lo - pad, a_hi + pad
        npts = max(64, int((a_hi - a_lo) * 3000) + 1)
        grid = np.linspace(a_lo, a_hi, npts)
        s = float(tf.sigma)
        c = (math.pi * s) ** (-2 * k) / (2 * math.pi * k)
        cutoff = max(4.0 / s, (c / (_TARGET * 0.1)) ** (1.0 / (2 * k)))
        freq = max(abs(a_lo), abs(a_hi)) + k * s + 1.0
        n_panels = int(cutoff * freq * 2) + 8
        edges = np.linspace(0.0, cutoff, n_panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        x = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
        w = (half[:, None] * _GL_W[None, :]).ravel()
        g = _phi_pow(tf, k, x) / (2 * np.pi * x) * w
        # T(A) = 2 * sum_x g(x) sin(2 pi A x); evaluate in sample chunks
        vals = np.empty(npts)
        chunk = max(1, int(4e6 // max(x.size, 1)))
        for i0 in range(0, npts, chunk):
            aa = grid[i0 : i0 + chunk]
            vals[i0 : i0 + chunk] = 2.0 * (np.sin(2 * np.pi * np.outer(aa, x)) @ g)
        self._spline = CubicSpline(grid, vals)

    def __call__(self, A: float) -> float:
        return float(self._spline(A))


def oracle_sigma_phi_sq(tf: TestFunction) -> float:
    s = float(tf.sigma)
    breaks = sorted({float(b) for b in tf.fhat.breakpoints if 0 < b < tf.sigma})

    def f(y: float) -> float:
        v = ep.evaluate_float(tf.fhat, y)
        return y * v * v

    val, err = quad(f, 0.0, s, points=breaks, limit=200, epsabs=1e-11)
    if err > 1e-9:
        raise ToleranceError(f"sigma_phi_sq oracle error estimate {err:.2e}")
    return 4.0 * val


def _nested_V(tf: TestFunction, k: int, signs: Sequence[int]) -> float:
    """int over [0,s]^len(signs) of prod 2 fhat(x_j) * T_k(1 + sum signs_j x_j)."""
    s = float(tf.sigma)
    n_pos = sum(1 for sg in signs if sg > 0)
    n_neg = len(signs) - n_pos
    a_lo = 1.0 - n_neg * s
    a_hi = 1.0 + n_pos * s
    table = _TTable(tf, k, a_lo, a_hi)

    def level(j: int, acc: float) -> float:
        if j == len(signs):
            return table(acc)

        def f(x: float) -> float:
            return 2.0 * ep.evaluate_float(tf.fhat, x) * level(j + 1, acc + signs[j] * x)

        val, _ = quad(f, 0.0, s, limit=100, epsabs=1e-10 if j > 0 else 1e-9)
        return val

    return level(0, 1.0)


def oracle_R_moment(tf: TestFunction, m: int, i: int) -> float:
    """R(m, i) from the definitional formula with numeric T and nested quad."""
    if i < 1 or i > m:
        raise DomainError("oracle_R_moment requires 1 <= i <= m")
    phi0_m = float(tf.phi_zero()) ** m
    total = 0.0
    for ell in range(i):
        if ell == 0:
            v = t_transform_numeric(tf, m, 1.0)
        else:
            v = _nested_V(tf, m - ell, [+1] * ell)
        total += (-1) ** ell * comb(m, ell) * (-phi0_m / 2 + v)
    return 2.0 ** (m - 1) * (-1) ** (m + 1) * total


def oracle_I_integral(tf: TestFunction, n: int, alpha: int, delta: int) -> float:
    if alpha < 0 or delta < 0 or alpha + delta >= n:
        raise DomainError("oracle_I_integral requires alpha, delta >= 0, alpha+delta < n")
    k = n - alpha - delta
    if alpha == 0 and delta == 0:
        return t_transform_numeric(tf, n, 1.0)
    return _nested_V(tf, k, [+1] * alpha + [-1] * delta)


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


def oracle_X_xi(tf: TestFunction, n: int, ell: int, target: float = _TARGET) -> float:
    """X(xi_ell) by grid convolution with Richardson extrapolation."""
    if not 0 <= ell <= n:
        raise DomainError("oracle_X_xi requires 0 <= ell <= n")
    if ell == n:
        return 0.0
    base = 3000
    v1 = _grid_X_xi(tf, n, ell, base)
    v2 = _grid_X_xi(tf, n, ell, 2 * base)
    rich = (4.0 * v2 - v1) / 3.0
    if not math.isfinite(rich) or abs(v2 - v1) / 3.0 > max(10 * target, 1e-7):
        raise ToleranceError(
            f"X_xi oracle did not converge: v1={v1!r}, v2={v2!r}"
        )
    return rich


def oracle_numeric(tf: TestFunction, descriptor) -> float:
    """Dispatch on a descriptor tuple ("name", *params).

    Supported: ("sigma_phi_sq",), ("R_moment", m, i), ("X_xi", n, ell),
    ("I_integral", n, alpha, delta).
    """
    name, *params = descriptor
    if name == "sigma_phi_sq":
        return oracle_sigma_phi_sq(tf)
    if name == "R_moment":
        return oracle_R_moment(tf, *params)
    if name == "X_xi":
        return oracle_X_xi(tf, *params)
    if name == "I_integral":
        return oracle_I_integral(tf, *params)
    raise DomainError(f"unknown oracle descriptor {descriptor!r}")
