"""Brute-force combinatorics behind the cumulant expansion.

A *system of parameters* S is a composition lambda_1..lambda_m of n, with
partial sums p_1 < .. < p_m = n (``compositions`` draws p_1..p_{m-1} from
1..n-1 with ``itertools.combinations``), and a sign vector eps in {+-1}^n.  It
carries the weight

    A(S) = (-1)^{m+1}/m * n!/(lambda_1! ... lambda_m!)

and, for a support parameter a, one set per partial sum p: the indices j
with eta_p(j) eps_j = +1, where eta_p(j) = +1 iff j <= p, if at most a-1
indices qualify, or else the other indices if at most a-1 of those.  I(S)
keeps the inclusion-minimal sets.  Unordered t-tuples of subsets are
grouped into t-classes (orbits under relabeling of {1..n}), each named by
its canonical key, a sorted tuple of sorted tuples (``class_canonical``).
``sum_TA_all`` accumulates sum_S T(S, C) A(S) per class, which the theory
says collapses to 2(-1)^{n+f+1} C(n,f) for 1-classes of size f >= 1 and to
0 for every feasible class of 2 or more subsets.

The enumeration runs on bitmasks.  eps is the mask E with bit j-1 set when
eps_j = +1, and the eta_p * eps pattern is E ^ full ^ ((1 << p) - 1), so the
sets depend only on (E, p) and one table per E serves every composition.
eps and -eps give the same sets, so only the E with bit n-1 clear are
enumerated, at twice the weight.  A(S) * lcm(1..n) is an integer, so the
sums stay in ints until one division per class at the end.

Also here: the log/exp composition-sum coefficients that the
``verify combinat`` command checks.  The tests hold the rest in
``tests/combinat_reference.py``: the definitional systems of parameters,
their J-sets, minimal sets and weights, and the loop over them that
``sum_TA_all`` is tested against; the G and H binomial telescopes and the
symmetric-function transform check.  A literal Monte Carlo evaluation of the
expansion's n-dimensional integral, the end-to-end oracle for these
identities, lives in ``tests/oracle_reference.py``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations, pairwise, permutations
from math import factorial, lcm, prod
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, ResourceLimitError
from .linfeas import Constraint, feasible

__all__ = [
    "compositions",
    "tuple_feasible",
    "class_canonical",
    "sum_TA_all",
    "soshnikov_coeff",
    "exp_neg_coeff",
    "ENUMERATION_CAP",
]

ENUMERATION_CAP = 8


def compositions(n: int, parts: int | None = None) -> Iterator[tuple[int, ...]]:
    """Compositions of n (into `parts` parts if given), lexicographic: the
    partial sums come in lexicographic order, and so do the parts."""
    if n < 1 or parts is not None and parts < 1:
        if n == 0 and parts in (0, None):  # the empty composition, with no parts
            yield ()
        return
    for m in range(1, n + 1) if parts is None else (parts,):
        for cuts in combinations(range(1, n), m - 1):
            # from a list: tuple(generator) resizes, and resized tuples fill the free lists
            yield tuple([b - a for a, b in pairwise((0, *cuts, n))])


# ---------------------------------------------------------------------------
# t-classes
# ---------------------------------------------------------------------------

CanonicalKey = tuple[tuple[int, ...], ...]


def _canonical_key(masks: Sequence[int], n: int) -> CanonicalKey:
    """Orbit-canonical representative via the atom-size signature.

    ``masks`` holds each subset as a bitmask (bit x-1 for element x).  For
    each ordering of the t subsets, count elements per membership pattern;
    the lexicographically smallest rebuilt representative (largest patterns
    get the smallest labels) is a complete orbit invariant for unordered
    tuples.
    """
    t = len(masks)
    best: CanonicalKey | None = None
    for order in permutations(masks):
        counts: dict[int, int] = {}
        for x in range(n):
            atom = 0
            for i, s in enumerate(order):
                if s >> x & 1:
                    atom |= 1 << i
            if atom:
                counts[atom] = counts.get(atom, 0) + 1
        rebuilt: list[list[int]] = [[] for _ in range(t)]
        label = 1
        for atom in sorted(counts, reverse=True):
            for _ in range(counts[atom]):
                for i in range(t):
                    if atom & (1 << i):
                        rebuilt[i].append(label)
                label += 1
        key = tuple(sorted(tuple(sorted(s)) for s in rebuilt))
        if best is None or key < best:
            best = key
    assert best is not None
    return best


def class_canonical(subsets: Iterable[Iterable[int]], n: int) -> CanonicalKey:
    """Canonical key of the t-class (the orbit under S_n) of an unordered tuple
    of distinct subsets of {1..n}."""
    subs = [frozenset(s) for s in subsets]
    if len(set(subs)) != len(subs):
        raise DomainError("tuple components must be distinct subsets")
    for s in subs:
        if s and (min(s) < 1 or max(s) > n):
            raise DomainError("subset elements must lie in 1..n")
    return _canonical_key([sum(1 << (x - 1) for x in s) for s in subs], n)


def one_class(n: int, f: int) -> CanonicalKey:
    """Canonical key of the 1-class of all f-element subsets."""
    return class_canonical([range(1, f + 1)] if f else [()], n)


def tuple_feasible(subsets: Iterable[Iterable[int]], n: int, a: int) -> bool:
    """True iff some y in [0, 1/(n-a)]^n satisfies, for every subset I,
    y_1+..+y_n > 1 + 2 sum_{i in I} y_i  (strictly).

    Decided exactly by Fourier-Motzkin with strictness; box bounds closed.
    """
    if a >= n:
        raise DomainError("tuple_feasible requires a < n")
    hi = Fraction(1, n - a)
    rows = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(-1)
        rows.append(Constraint(e, Fraction(0)))  # -y_i <= 0
        e2 = [Fraction(0)] * n
        e2[i] = Fraction(1)
        rows.append(Constraint(e2, hi))  # y_i <= 1/(n-a)
    for I in subsets:
        Iset = set(I)
        coeffs = [Fraction(1) if (i + 1) in Iset else Fraction(-1) for i in range(n)]
        rows.append(Constraint(coeffs, Fraction(-1), strict=True))
        # sum_{i notin I} y_i - sum_{i in I} y_i > 1  <=>  -that < -1
    return feasible(rows, n)


# ---------------------------------------------------------------------------
# the big accumulation:  sum over systems of parameters of T(S, C) A(S)
# ---------------------------------------------------------------------------

def sum_TA_all(n: int, a: int, t_max: int = 3) -> dict[CanonicalKey, Fraction]:
    """sum_S T(S, C) A(S) for every class C with t <= t_max, in one pass.

    Enumerates the 2^(n-1) compositions against the 2^(n-1) sign masks with
    bit n-1 clear; for each system, adds 2 A(S) lcm(1..n) onto the canonical
    key of every t-subset of I(S), and divides by lcm(1..n) at the end.
    """
    if n > ENUMERATION_CAP:
        raise ResourceLimitError(f"n={n} exceeds enumeration cap {ENUMERATION_CAP}")
    if not 1 <= a <= (n + 1) // 2:
        raise DomainError(f"a={a} outside 1..ceil(n/2)={(n + 1) // 2}")
    full = (1 << n) - 1
    scale = lcm(*range(1, n + 1))
    cuts = [(tuple(accumulate(lam)),
             2 * (-1) ** (len(lam) + 1) * (scale // len(lam))
             * (factorial(n) // prod(factorial(l) for l in lam)))
            for lam in compositions(n)]
    acc: dict[CanonicalKey, int] = {}
    canon: dict[frozenset[int], CanonicalKey] = {}
    for E in range(1 << (n - 1)):  # bit n-1 clear; -eps doubles the weight
        J: list[int | None] = [None] * (n + 1)
        for p in range(1, n + 1):
            x = E ^ full ^ ((1 << p) - 1)
            if x.bit_count() < a:
                J[p] = x
            elif n - x.bit_count() < a:
                J[p] = x ^ full
        for psums, w in cuts:
            js = [J[p] for p in psums if J[p] is not None]
            mins = [x for x in js if not any(y != x and y & x == y for y in js)]
            for t in range(1, min(t_max, len(mins)) + 1):
                for combo in combinations(mins, t):
                    fs = frozenset(combo)
                    key = canon.get(fs)
                    if key is None:
                        key = canon[fs] = _canonical_key(combo, n)
                    acc[key] = acc.get(key, 0) + w
    return {key: Fraction(v, scale) for key, v in acc.items()}


# ---------------------------------------------------------------------------
# coefficient identities
# ---------------------------------------------------------------------------

def soshnikov_coeff(n: int) -> Fraction:
    """sum over compositions of (-1)^{m+1}/m / prod(lambda!); 1 iff n == 1.

    Each term is an int over lcm(1..n) n!, so the sum divides once at the end.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    scale = lcm(*range(1, n + 1))
    total = sum((-1) ** (len(lam) + 1) * (scale // len(lam))
                * (factorial(n) // prod(factorial(l) for l in lam)) for lam in compositions(n))
    return Fraction(total, scale * factorial(n))


def exp_neg_coeff(n: int) -> Fraction:
    """sum over compositions of (-1)^m / prod(lambda!) = (-1)^n / n!.

    Each term is an int over n!, so the sum divides once at the end.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    total = sum((-1) ** len(lam) * (factorial(n) // prod(factorial(l) for l in lam))
                for lam in compositions(n))
    return Fraction(total, factorial(n))
