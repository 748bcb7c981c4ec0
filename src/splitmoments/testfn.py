"""Admissible even Schwartz test functions with piecewise-polynomial transforms.

A test function phi is described by the exact transform ``fhat`` (an even,
compactly supported :class:`PiecewisePoly` on [-sigma, sigma]) together with a
real evaluator ``phi_at`` for phi itself, which the quadrature oracle calls
on Python floats.  The catalog ships the Fejer family

    phi(x) = (sin(pi sigma x) / (pi sigma x))^2,
    fhat(y) = 1/sigma - |y|/sigma^2   on |y| < sigma,

whose transform is the unit-mass triangle.  Any other even function with a
piecewise-polynomial transform can be registered through the same type.

Each TestFunction keeps two lists of term lists (see :mod:`exactpoly`), the
self-convolution powers that the exact moment kernels consume: psi_k =
fhat^{*k} and gp^{*l}, gp being fhat on [0, sigma].  :func:`psi_terms` and
:func:`gp_terms` extend them on demand.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from . import exactpoly as ep
from .exactpoly import PiecewisePoly, frac
from .errors import DomainError

__all__ = ["TestFunction", "fejer", "phi_power_hat", "psi_terms", "gp_terms"]


class TestFunction:
    """Even Schwartz test function with exact compactly supported transform.

    Equality is identity.  ``_psi[k-1]`` holds the term list of fhat^{*k} and
    ``_gp[l-1]`` that of gp^{*l}, each list filled by its accessor.
    """

    __slots__ = ("sigma", "fhat", "phi_at", "label", "_psi", "_gp", "_phi0")

    def __init__(self, sigma: Fraction, fhat: PiecewisePoly,
                 phi_at: Callable[[float], float] | None, label: str):
        self.sigma = frac(sigma)
        if self.sigma <= 0:
            raise DomainError("sigma must be positive")
        if ep.reflect(fhat) != fhat:
            raise DomainError("fhat must be even")
        supp = fhat.support
        if supp is not None and (supp[0] < -self.sigma or supp[1] > self.sigma):
            raise DomainError("fhat must vanish outside [-sigma, sigma]")
        self.fhat, self.phi_at, self.label = fhat, phi_at, label
        self._psi: list = []
        self._gp: list = []
        # Fourier inversion at 0: phi(0) = integral of fhat
        self._phi0 = ep.integral(fhat)
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
    fhat = ep.from_global_pieces(
        [
            (-s, 0, [inv, inv2]),     # 1/sigma + y/sigma^2
            (0, s, [inv, -inv2]),     # 1/sigma - y/sigma^2
        ]
    )
    sf = float(s)

    def phi(x: float) -> float:
        t = math.pi * sf * x
        # sin(t)/t by its series around the removable singularity at 0
        v = 1.0 - t * t / 6.0 if abs(t) < 1e-8 else math.sin(t) / t
        return v * v

    return TestFunction(sigma=s, fhat=fhat, phi_at=phi, label=f"fejer:{s}")


def _power(powers: list, k: int):
    """Extend ``powers`` (first entry the base) by convolution up to the k-th."""
    if k < 1:
        raise DomainError("power must be >= 1")
    while len(powers) < k:
        powers.append(ep.term_convolve(powers[-1], powers[0]))
    return powers[k - 1]


def psi_terms(tf: TestFunction, k: int):
    """Term list of psi_k = fhat^{*k}, the transform of phi^k (k >= 1), cached."""
    if not tf._psi:
        tf._psi.append(ep.to_terms(tf.fhat))
    return _power(tf._psi, k)


def gp_terms(tf: TestFunction, ell: int):
    """Term list of gp^{*l} with gp = fhat on [0, sigma] (l >= 1), cached.

    The folded coordinate |x| has density 2 gp; gp itself has mass phi(0)/2.
    """
    if not tf._gp:
        tf._gp.append(ep.to_terms(ep.restrict(tf.fhat, 0, tf.sigma + 1)))
    return _power(tf._gp, ell)


def phi_power_hat(tf: TestFunction, m: int) -> PiecewisePoly:
    """Transform of phi^m: the m-fold self-convolution of fhat."""
    return ep.from_terms(psi_terms(tf, m))
