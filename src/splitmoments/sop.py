"""Brute-force combinatorics behind the cumulant expansion.

A *system of parameters* is a tuple (m, lambda_1..lambda_m, eps_1..eps_n) with
the lambdas a composition of n and eps_j = +-1.  Each system S carries the
sign function eta(l, j) = +1 iff j <= lambda_1+..+lambda_l, the weight

    A(S) = (-1)^{m+1}/m * n!/(lambda_1! ... lambda_m!),

and, for a support parameter a, the family J(S) of index subsets whose
eta*eps sign pattern is constant with at most a-1 exceptions; I(S) keeps the
inclusion-minimal ones.  Unordered t-tuples of subsets are grouped into
t-classes (orbits under relabeling of {1..n}), each named by its canonical
key, a sorted tuple of sorted tuples (``class_canonical``).  This module
enumerates every system of parameters and accumulates sum_S T(S, C) A(S) per
class, which the theory says collapses to 2(-1)^{n+f+1} C(n,f) for 1-classes
of size f >= 1 and to 0 for every feasible class of 2 or more subsets.

Also here: the log/exp composition-sum coefficients that the
``verify combinat`` command checks.  The tests hold the rest in
``tests/combinat_reference.py``: the definitional sign function and the
block rule that ``j_sets`` and ``i_min`` are compared with, the G and H
binomial telescopes and the symmetric-function transform check.  A literal
Monte Carlo evaluation of the expansion's n-dimensional integral, the
end-to-end oracle for these identities, lives in
``tests/oracle_reference.py``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, ResourceLimitError
from .linfeas import Constraint, feasible

__all__ = [
    "SystemOfParameters",
    "enumerate_sops",
    "compositions",
    "j_sets",
    "i_min",
    "a_weight",
    "tuple_feasible",
    "class_canonical",
    "sum_TA_all",
    "soshnikov_coeff",
    "exp_neg_coeff",
    "ENUMERATION_CAP",
]

ENUMERATION_CAP = 8


class SystemOfParameters:
    __slots__ = ("lambdas", "epsilons")

    def __init__(self, lambdas: tuple[int, ...], epsilons: tuple[int, ...]):
        if not lambdas or any(l < 1 for l in lambdas):
            raise DomainError("lambdas must be a composition with parts >= 1")
        if sum(lambdas) != len(epsilons):
            raise DomainError("epsilons must have length n = sum(lambdas)")
        if any(e not in (-1, 1) for e in epsilons):
            raise DomainError("epsilons must be +-1")
        self.lambdas, self.epsilons = lambdas, epsilons

    @property
    def m(self) -> int:
        return len(self.lambdas)

    @property
    def n(self) -> int:
        return len(self.epsilons)

    def partial_sums(self) -> tuple[int, ...]:
        out = []
        acc = 0
        for l in self.lambdas:
            acc += l
            out.append(acc)
        return tuple(out)


def compositions(n: int, parts: int | None = None) -> Iterator[tuple[int, ...]]:
    """Compositions of n (into `parts` parts if given), lexicographic."""
    if n == 0 and parts in (0, None):
        yield ()
        return
    if parts is None:
        for m in range(1, n + 1):
            yield from compositions(n, m)
        return
    if parts < 1 or n < parts:
        return
    if parts == 1:
        yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in compositions(n - first, parts - 1):
            yield (first,) + rest


def enumerate_sops(n: int) -> Iterator[SystemOfParameters]:
    """All systems of parameters: m ascending, compositions lex, eps as n-bit ints."""
    comps = [c for m in range(1, n + 1) for c in compositions(n, m)]
    for lambdas in comps:
        for bits in range(1 << n):
            eps = tuple(1 if bits & (1 << j) else -1 for j in range(n))
            yield SystemOfParameters(lambdas, eps)


def j_sets(S: SystemOfParameters, a: int) -> list[tuple[int, frozenset[int], int]]:
    """(ell, J_ell, zeta_ell) for every ell where a side has <= a-1 indices.

    The two sign-count conditions are mutually exclusive when 2(a-1) < n, and
    at most one (ell, zeta) pair can produce any given subset.
    """
    if not 1 <= a <= (S.n + 1) // 2:
        raise DomainError(f"a={a} outside 1..ceil(n/2)")
    out = []
    psums = S.partial_sums()
    for ell in range(1, S.m + 1):
        plus = frozenset(
            j
            for j in range(1, S.n + 1)
            if (1 if j <= psums[ell - 1] else -1) * S.epsilons[j - 1] == 1
        )
        if len(plus) <= a - 1:
            out.append((ell, plus, 1))
        elif S.n - len(plus) <= a - 1:
            out.append((ell, frozenset(range(1, S.n + 1)) - plus, -1))
    return out


def i_min(S: SystemOfParameters, a: int) -> frozenset[frozenset[int]]:
    """Inclusion-minimal subsets among {J_ell}."""
    js = [J for _, J, _ in j_sets(S, a)]
    return frozenset(
        J for J in js if not any(K < J for K in js)
    )


def a_weight(S: SystemOfParameters) -> Fraction:
    """A(S) = (-1)^{m+1}/m * n!/(prod lambda_i!)."""
    denom = 1
    for l in S.lambdas:
        denom *= factorial(l)
    return Fraction((-1) ** (S.m + 1), S.m) * Fraction(factorial(S.n), denom)


# ---------------------------------------------------------------------------
# t-classes
# ---------------------------------------------------------------------------

CanonicalKey = tuple[tuple[int, ...], ...]


def _canonical_key(subsets: Sequence[frozenset[int]], n: int) -> CanonicalKey:
    """Orbit-canonical representative via the atom-size signature.

    For each ordering of the t subsets, count elements per membership mask;
    the lexicographically smallest rebuilt representative (largest masks get
    the smallest labels) is a complete orbit invariant for unordered tuples.
    """
    t = len(subsets)
    best: CanonicalKey | None = None
    for order in permutations(range(t)):
        masks = {}
        for x in range(1, n + 1):
            mask = 0
            for i, oi in enumerate(order):
                if x in subsets[oi]:
                    mask |= 1 << i
            if mask:
                masks[mask] = masks.get(mask, 0) + 1
        rebuilt: list[list[int]] = [[] for _ in range(t)]
        label = 1
        for mask in sorted(masks, reverse=True):
            for _ in range(masks[mask]):
                for i in range(t):
                    if mask & (1 << i):
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
    return _canonical_key(subs, n)


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

_sum_ta_cache: dict[tuple[int, int, int], dict[CanonicalKey, Fraction]] = {}


def sum_TA_all(n: int, a: int, t_max: int = 3) -> dict[CanonicalKey, Fraction]:
    """sum_S T(S, C) A(S) for every class C with t <= t_max, in one pass.

    Enumerates all sum_m C(n-1, m-1) * 2^n systems of parameters; for each,
    accumulates A(S) onto the canonical key of every t-subset of I(S).
    """
    if n > ENUMERATION_CAP:
        raise ResourceLimitError(f"n={n} exceeds enumeration cap {ENUMERATION_CAP}")
    key = (n, a, t_max)
    if key in _sum_ta_cache:
        return _sum_ta_cache[key]
    acc: dict[CanonicalKey, Fraction] = {}
    canon_memo: dict[frozenset[frozenset[int]], CanonicalKey] = {}
    for S in enumerate_sops(n):
        mins = i_min(S, a)
        if not mins:
            continue
        w = a_weight(S)
        mins_list = sorted(mins, key=lambda s: (len(s), sorted(s)))
        for t in range(1, min(t_max, len(mins_list)) + 1):
            for combo in combinations(mins_list, t):
                fs = frozenset(combo)
                ck = canon_memo.get(fs)
                if ck is None:
                    ck = _canonical_key(combo, n)
                    canon_memo[fs] = ck
                acc[ck] = acc.get(ck, Fraction(0)) + w
    _sum_ta_cache[key] = acc
    return acc


# ---------------------------------------------------------------------------
# coefficient identities
# ---------------------------------------------------------------------------

def soshnikov_coeff(n: int) -> Fraction:
    """sum over compositions of (-1)^{m+1}/m / prod(lambda!); 1 iff n == 1."""
    if n < 1:
        raise DomainError("n must be >= 1")
    total = Fraction(0)
    for lam in compositions(n):
        m = len(lam)
        denom = 1
        for l in lam:
            denom *= factorial(l)
        total += Fraction((-1) ** (m + 1), m * denom)
    return total


def exp_neg_coeff(n: int) -> Fraction:
    """sum over compositions of (-1)^m / prod(lambda!) = (-1)^n / n!."""
    if n < 0:
        raise DomainError("n must be >= 0")
    if n == 0:
        return Fraction(1)  # empty composition, empty product
    total = Fraction(0)
    for lam in compositions(n):
        m = len(lam)
        denom = 1
        for l in lam:
            denom *= factorial(l)
        total += Fraction((-1) ** m, denom)
    return total
