"""Admissible even Schwartz test functions with piecewise-polynomial transforms.

A test function phi is described by the exact transform ``fhat`` (an even,
compactly supported :class:`PiecewisePoly` on [-sigma, sigma]) together with a
real evaluator ``phi_at`` for phi itself, which the quadrature oracle calls
on Python floats.  The catalog ships the Fejer family

    phi(x) = (sin(pi sigma x) / (pi sigma x))^2,
    fhat(y) = 1/sigma - |y|/sigma^2   on |y| < sigma,

whose transform is the unit-mass triangle.  Any other even function with a
piecewise-polynomial transform can be registered through the same type.

The constructor builds psi_1, the term list of fhat (see :mod:`exactpoly`),
and reads evenness and phi(0) off it.  A TestFunction keeps no power of its
transform: the exact moment routes build the convolution chains they need
from ``fhat`` on every call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Callable

from . import exactpoly as ep
from .exactpoly import PiecewisePoly, frac
from .errors import DomainError

__all__ = ["TestFunction", "fejer", "phi_power_hat"]


class TestFunction:
    """Even Schwartz test function with exact compactly supported transform.

    Equality is identity; nothing is set after construction.
    """

    __slots__ = ("sigma", "fhat", "phi_at", "label", "_phi0")

    def __init__(self, sigma: Fraction, fhat: PiecewisePoly,
                 phi_at: Callable[[float], float] | None, label: str):
        self.sigma = frac(sigma)
        if self.sigma <= 0:
            raise DomainError("sigma must be positive")
        psi1 = ep.to_terms(fhat)
        if ep.term_reflect(psi1) != psi1:
            raise DomainError("fhat must be even")
        supp = fhat.support
        if supp is not None and (supp[0] < -self.sigma or supp[1] > self.sigma):
            raise DomainError("fhat must vanish outside [-sigma, sigma]")
        self.fhat, self.phi_at, self.label = fhat, phi_at, label
        # Fourier inversion at 0: phi(0) = integral of fhat, all of it below sigma
        self._phi0 = ep.term_mass_below(psi1, self.sigma)
        if phi_at is not None:
            if abs(phi_at(0.0) - float(self.phi_zero())) > 1e-10:
                raise DomainError("phi_at(0) must equal the integral of fhat")

    def phi_zero(self) -> Fraction:
        """Exact phi(0) = total integral of fhat, computed once at construction."""
        return self._phi0

    def fhat_at(self, y) -> Fraction:
        return ep.evaluate(self.fhat, y)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"TestFunction({self.label})"


def fejer(sigma) -> TestFunction:
    """The Fejer-kernel test function with transform supported on [-sigma, sigma]."""
    s = frac(sigma)
    if s <= 0:
        raise DomainError("fejer requires sigma > 0")
    inv = 1 / s
    inv2 = 1 / (s * s)
    # 1/sigma + y/sigma^2 on [-sigma, 0), 1/sigma - y/sigma^2 on [0, sigma)
    fhat = PiecewisePoly((-s, 0, s), ((inv, inv2), (inv, -inv2)))
    sf = float(s)

    def phi(x: float) -> float:
        t = math.pi * sf * x
        # sin(t)/t by its series around the removable singularity at 0
        v = 1.0 - t * t / 6.0 if abs(t) < 1e-8 else math.sin(t) / t
        return v * v

    return TestFunction(sigma=s, fhat=fhat, phi_at=phi, label=f"fejer:{s}")


def phi_power_hat(tf: TestFunction, m: int) -> PiecewisePoly:
    """Transform of phi^m: the m-fold self-convolution of fhat."""
    if m < 1:
        raise DomainError("power must be >= 1")
    psi1 = ep.to_terms(tf.fhat)
    return ep.from_terms(reduce(ep.term_convolve, [psi1] * m))
