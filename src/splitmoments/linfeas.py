"""Exact linear feasibility over the rationals by Fourier-Motzkin elimination.

A row ``Constraint(coeffs, rhs, strict)`` reads ``coeffs . y <= rhs``, or ``< rhs``
when strict.  Rows are plain tuples scaled to Fraction entries with largest
|coefficient| 1, so equal rows are equal tuples and a set deduplicates them.
Eliminating a variable keeps the rows free of it and adds every lower x upper
combination, strict if either parent is; the constant rows left at the end decide
feasibility exactly.  Meant for the small systems of indicator tuples (n <= 10).
The tests check verdicts from both sides: a search of the box vertices
(``tests/combinat_reference.py``) confirms feasible ones, and beside it a float
linear program (``tests/test_sop.py``) checks infeasible ones too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, NamedTuple, Sequence

__all__ = ["Constraint", "feasible"]


class Constraint(NamedTuple):
    """coeffs . y  (<= or <)  rhs."""

    coeffs: Sequence[Fraction]
    rhs: Fraction
    strict: bool = False


def _normalized(c: Constraint) -> Constraint:
    """c divided by its largest |coefficient| (by 1 for a constant row)."""
    scale = Fraction(max(map(abs, c.coeffs), default=0) or 1)
    return Constraint(tuple(x / scale for x in c.coeffs), c.rhs / scale, c.strict)


def feasible(constraints: Iterable[Constraint], n_vars: int) -> bool:
    """True iff some rational point satisfies every constraint."""
    rows = {_normalized(c) for c in constraints}
    for v in range(n_vars):
        lowers = [c for c in rows if c.coeffs[v] < 0]  # -y_v <= ...
        uppers = [c for c in rows if c.coeffs[v] > 0]  # +y_v <= ...
        rows = {c for c in rows if c.coeffs[v] == 0} | {  # up[v] * lo - lo[v] * up
            _normalized(Constraint(
                tuple(up.coeffs[v] * x - lo.coeffs[v] * y
                      for x, y in zip(lo.coeffs, up.coeffs)),
                up.coeffs[v] * lo.rhs - lo.coeffs[v] * up.rhs, lo.strict or up.strict))
            for lo, up in product(lowers, uppers)}
    return all(c.rhs > 0 if c.strict else c.rhs >= 0 for c in rows)
