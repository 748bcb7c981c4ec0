"""Test-only float references for the exact moment quantities.

Two numpy routines share no code with the exact route or with the package's
quadrature oracle:

- ``oracle_X_xi``: X(xi_l) by trapezoid grid convolution of the coordinate
  weights, with Richardson extrapolation.
- ``oracle_Qn_mc``: a literal Monte Carlo evaluation of the cumulant
  expansion's n-dimensional integral.

``_fhat_np`` evaluates fhat elementwise on a numpy array for both.

Four Python-float references run on the package oracle's own private rule
(``splitmoments.quadrature``: its Gauss-Legendre panels, F(xi) and T_k
kernel), so they check that rule rather than stand apart from it:
``t_transform_numeric`` (T_k(A) on the T_k panels), ``phi_value_numeric``
(phi(x) = Re F(x), fhat being even), ``oracle_sigma_phi_sq``
(4 int_0^sigma y fhat(y)^2 dy, one panel per piece of fhat, which raises
ToleranceError past degree 15) and ``oracle_I_integral`` (the signed-fold
integral I(alpha, delta), the oracle's folded integral with ``delta``
coordinates entering negatively).
"""

from __future__ import annotations

import cmath
import math
from itertools import chain
from math import factorial, fsum

import numpy as np

from splitmoments.errors import DomainError, ToleranceError
from splitmoments.quadrature import _F, _GL_X, _pieces, _t_kernel
from splitmoments.sop import compositions
from splitmoments.testfn import TestFunction

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
        t = y[sel]
        acc = np.zeros_like(t)
        for c in reversed(piece):
            acc = acc * t + float(c)
        out[sel] = acc
    return out


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


def oracle_Qn_mc(
    tf: TestFunction, n: int, a: int, samples: int, seed: int
) -> tuple[float, float]:
    """Literal Monte Carlo of the 2^{n-2}-weighted expansion integral.

    Samples y uniformly on [0, sigma]^n, evaluates the full alternating sum
    over systems of parameters of the indicator products, importance-weights
    by prod fhat(y_i) * sigma^n, and returns (estimate, standard error).
    """
    if n > 4:
        raise DomainError("oracle_Qn_mc supports n <= 4 (cost ~ 2^{2n-1}/sample)")
    if a < 1:
        raise DomainError("need a >= 1")
    del a  # the expansion integral itself does not depend on a
    sigma = float(tf.sigma)
    rng = np.random.default_rng(seed)
    # rows of eta signs per (lambdas, ell); group rows per composition
    groups = []
    for lam in compositions(n):
        m = len(lam)
        denomA = 1
        for l in lam:
            denomA *= factorial(l)
        wA = ((-1) ** (m + 1) / m) * (factorial(n) / denomA)
        psum = np.cumsum(lam)
        etas = np.array(
            [[1 if (j + 1) <= psum[ell] else -1 for j in range(n)] for ell in range(m)],
            dtype=float,
        )
        groups.append((wA, etas))

    eps_list = np.array(
        [[1 if bits & (1 << j) else -1 for j in range(n)] for bits in range(1 << n)],
        dtype=float,
    )

    total = 0.0
    total_sq = 0.0
    chunk = 65536
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        y = rng.uniform(0.0, sigma, size=(b, n))
        w = np.prod(_fhat_np(tf, y), axis=1) * sigma**n
        k_vals = np.zeros(b)
        for wA, etas in groups:
            for eps in eps_list:
                signs = etas * eps[None, :]  # (m, n)
                sums = y @ signs.T  # (b, m)
                ind = np.all(np.abs(sums) <= 1.0, axis=1)
                k_vals += wA * ind
        vals = 2.0 ** (n - 2) * w * k_vals
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        done += b
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    stderr = (var / samples) ** 0.5
    return mean, stderr


def t_transform_numeric(tf: TestFunction, k: int, A: float) -> float:
    """T_k(A) by direct oscillatory quadrature of the defining integral."""
    rule = _t_kernel(tf, k, abs(A), 0, 0.0)  # no folded factor
    return 2.0 * fsum(w * math.sin(2.0 * math.pi * A * x)
                      for xi, g in rule for x, w in zip(xi, g))


def phi_value_numeric(tf: TestFunction, x: float) -> float:
    """phi(x) via the closed form when available, else as Re F(x)."""
    if tf.phi_at is not None:
        return float(tf.phi_at(x))
    return _F(_pieces(tf), x).real


def oracle_sigma_phi_sq(tf: TestFunction) -> float:
    """sigma_phi^2 = 4 int_0^sigma y fhat(y)^2 dy, one GL panel per piece."""
    degree = max((len(p) - 1 for p in tf.fhat.pieces), default=0)
    if 2 * degree + 1 > 2 * len(_GL_X) - 1:
        raise ToleranceError(
            f"sigma_phi_sq oracle: {len(_GL_X)}-point GL is not exact on fhat pieces "
            f"of degree {degree}"
        )
    return 2.0 * fsum(y * f * fw for p in _pieces(tf) for y, f, fw in zip(p.y, p.f, p.fw))


def oracle_I_integral(tf: TestFunction, n: int, alpha: int, delta: int) -> float:
    """I(alpha, delta): int over [0,sigma]^(alpha+delta) of prod 2 fhat(x_j) *
    T_k(1 + sum s_j x_j), k = n - alpha - delta, the first ``alpha`` signs s_j
    +1 and the last ``delta`` -1.

    The package oracle's folded integral with a signed fold:
    2 sum g(xi) Im[e^{2 pi i xi} F(xi)^alpha conj(F(xi))^delta] on T_k's
    rule, which the same bound |F(xi)| <= v / (pi xi) shortens.
    """
    if alpha < 0 or delta < 0 or alpha + delta >= n:
        raise DomainError("oracle_I_integral requires alpha, delta >= 0, alpha+delta < n")
    fold = alpha + delta
    pieces = _pieces(tf)
    f = [a for p in pieces for a in p.f]
    v = 2.0 * (abs(f[0]) + abs(f[-1]) + fsum(abs(b - a) for a, b in zip(f, f[1:])))

    def terms(panel: tuple[list[float], list[float]]) -> list[float]:
        xi, g = panel
        if not fold:
            return [w * cmath.exp(2j * math.pi * x).imag for x, w in zip(xi, g)]
        fx = [_F(pieces, x) for x in xi]
        return [w * (cmath.exp(2j * math.pi * x) * (F**alpha * F.conjugate() ** delta)).imag
                for x, w, F in zip(xi, g, fx)]

    rule = _t_kernel(tf, n - fold, 1.0 + max(alpha, delta) * float(tf.sigma), fold, v)
    return 2.0 * fsum(chain.from_iterable(map(terms, rule)))
