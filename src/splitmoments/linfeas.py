"""Exact linear feasibility over the rationals by Fourier-Motzkin elimination.

Constraints are ``coeffs . y <= rhs`` or ``coeffs . y < rhs`` with Fraction
entries; strictness survives combination (a combined constraint is strict if
either parent is).  After all variables are eliminated the surviving constant
constraints decide feasibility exactly.  Intended for the small systems that
arise from indicator tuples (n <= 10 variables, a handful of strict rows), so
no effort is spent fighting the worst-case blowup beyond normalization and
deduplication.  The tests check its verdicts against a one-sided search of
the box vertices (``tests/combinat_reference.py``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

__all__ = ["Constraint", "feasible"]


class Constraint:
    """coeffs . y  (<= or <)  rhs."""

    __slots__ = ("coeffs", "rhs", "strict")

    def __init__(self, coeffs: Sequence[Fraction], rhs: Fraction, strict: bool = False):
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        self.rhs = Fraction(rhs)
        self.strict = bool(strict)

    def normalized(self) -> "Constraint":
        scale = max((abs(c) for c in self.coeffs if c != 0), default=Fraction(0))
        if scale == 0:
            return self
        return Constraint(
            [c / scale for c in self.coeffs], self.rhs / scale, self.strict
        )

    def key(self):
        return (self.coeffs, self.rhs, self.strict)

    def __repr__(self):  # pragma: no cover - debugging aid
        op = "<" if self.strict else "<="
        return f"Constraint({self.coeffs} {op} {self.rhs})"


def feasible(constraints: Iterable[Constraint], n_vars: int) -> bool:
    """True iff some rational point satisfies every constraint."""
    rows = [c.normalized() for c in constraints]
    for var in range(n_vars):
        lowers = []  # -y_var <= ...  (coeff < 0)
        uppers = []  # +y_var <= ...  (coeff > 0)
        keep = []
        for c in rows:
            a = c.coeffs[var]
            if a > 0:
                uppers.append(c)
            elif a < 0:
                lowers.append(c)
            else:
                keep.append(c)
        new_rows = keep
        seen = {c.key() for c in keep}
        for lo, up in product(lowers, uppers):
            al, au = lo.coeffs[var], up.coeffs[var]
            # eliminate: au * lo - al * up has zero coefficient at var
            coeffs = tuple(
                au * cl - al * cu for cl, cu in zip(lo.coeffs, up.coeffs)
            )
            comb = Constraint(
                coeffs, au * lo.rhs - al * up.rhs, lo.strict or up.strict
            ).normalized()
            if comb.key() not in seen:
                seen.add(comb.key())
                new_rows.append(comb)
        rows = new_rows
    for c in rows:
        if c.rhs < 0 or (c.strict and c.rhs <= 0):
            return False
    return True

