"""Order-of-vanishing bounds at the central point from exact centered moments.

A form whose completed L-function vanishes to order >= r at the center
pushes the centered statistic above the threshold

    r * phi(0) - fhat(0) - phi(0)/2        (= r - 1/sigma - 1/2 for Fejer),

so Markov's inequality with the exact n-th centered moment (n even) bounds
the proportion of such forms by moment / threshold^n.  The flagship numbers:
r=5 with (n=4, sigma=1/2) gives exactly 496/65625, and r=19 with
(n=20, sigma=1/10) is about 2.86e-15.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import moments as mo
from .errors import DomainError
from .exactpoly import frac
from .testfn import TestFunction, fejer

__all__ = [
    "VanishingQuery",
    "VanishingResult",
    "vanishing_result",
    "vanishing_bound",
    "vanishing_threshold",
    "PRIOR_BOUNDS",
    "assumptions_for",
]

# earlier published bounds for the r = 5 negative-sign proportion, for context
PRIOR_BOUNDS = {
    "prior-one-level": Fraction(1, 32),
    "prior-second-moment": Fraction(1, 49),
}


class VanishingQuery:
    __slots__ = ("r", "n", "sigma", "sign")

    def __init__(self, r: int, n: int, sigma: Fraction, sign: mo.Sign):
        if r < 1:
            raise DomainError("order threshold r must be >= 1")
        if n % 2 != 0 or n < 2:
            raise DomainError("Markov argument needs an even moment order n >= 2")
        sigma = frac(sigma)
        if sigma <= 0:
            raise DomainError("sigma must be positive")
        if sigma > Fraction(2, n):
            raise DomainError(f"sigma={sigma} exceeds 2/n={Fraction(2, n)}")
        if sign not in ("plus", "minus"):
            raise DomainError("sign must be 'plus' or 'minus'")
        self.r, self.n, self.sigma, self.sign = r, n, sigma, sign


def vanishing_threshold(tf: TestFunction, r: int) -> Fraction:
    """r phi(0) minus the mean fhat(0) + phi(0)/2, exactly."""
    return r * tf.phi_zero() - mo.mean_value(tf)


class VanishingResult(NamedTuple):
    """The Markov bound together with the moment and threshold it is made of."""

    moment: Fraction
    threshold: Fraction
    bound: Fraction


def vanishing_result(q: VanishingQuery) -> VanishingResult:
    """Exact Markov bound moment / threshold^n for the Fejer family, with its parts."""
    tf = fejer(q.sigma)
    threshold = vanishing_threshold(tf, q.r)
    if threshold <= 0:
        raise DomainError(
            f"threshold r - 1/sigma - 1/2 = {threshold} is not positive; "
            "the Markov argument does not apply"
        )
    moment = mo.predicted_centered_moment(tf, q.n, mo.minimal_a(tf, q.n), q.sign)
    return VanishingResult(moment=moment, threshold=threshold, bound=moment / threshold**q.n)


def vanishing_bound(q: VanishingQuery) -> Fraction:
    """Exact Markov bound: moment / threshold^n for the Fejer family."""
    return vanishing_result(q).bound


def assumptions_for(q: VanishingQuery) -> list[str]:
    """Caveats attached to a query's report."""
    notes = []
    if q.sign == "plus":
        notes.append(
            "positive-sign family: same formula, but no published value pins it"
        )
    if q.n == 4 and q.r < 5:
        notes.append(
            "r < 5 with n = 4 lies outside the published regime; the literal "
            "formula is used"
        )
    if q.sigma == Fraction(2, q.n):
        notes.append(
            "sigma sits on the closed 2/n boundary (continuity-in-sigma limit)"
        )
    return notes
