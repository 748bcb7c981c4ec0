"""Test-only references for the combinatorics behind the cumulant expansion.

No command runs these; the tests check ``sop`` and ``linfeas`` against them
and check the identities that collapse the class expansion:

- ``SystemOfParameters``, ``enumerate_sops``, ``j_sets``, ``i_min`` and
  ``a_weight``: the definitional object model of a system of parameters,
  its J-sets, their inclusion-minimal sets I(S) and its weight A(S);
- ``sum_ta_reference``: the loop over every system of parameters that
  ``sop.sum_TA_all`` (bitmasks, integer weights) is tested against;
- ``eta`` and ``i_min_block_rule``: the sign function of a system of
  parameters and the lambda-block rule for minimal J-sets, against which
  ``j_sets`` and ``i_min`` are tested;
- ``g_combin`` and ``verify_single_simp``: the G binomial telescope;
- ``h_partial_sums`` and ``verify_h_vanishes``: the H binomial telescope;
- ``symmetric_transform_check``: the symmetric-function transform collapse;
- ``box_vertex_witness``: a one-sided search of the box vertices, against
  which the Fourier-Motzkin verdict of ``linfeas.feasible`` is tested.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod
from typing import Iterator

from splitmoments.errors import DomainError
from splitmoments.sop import CanonicalKey, class_canonical, compositions


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


def sum_ta_reference(n: int, a: int, t_max: int = 3) -> dict[CanonicalKey, Fraction]:
    """sum_S T(S, C) A(S) for every class C with t <= t_max, one system at a time.

    Enumerates all sum_m C(n-1, m-1) * 2^n systems of parameters; for each,
    accumulates A(S) onto the canonical key of every t-subset of I(S).
    """
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
                    ck = class_canonical(combo, n)
                    canon_memo[fs] = ck
                acc[ck] = acc.get(ck, Fraction(0)) + w
    return acc


def eta(S, ell: int, j: int) -> int:
    """+1 iff j <= lambda_1 + .. + lambda_ell (1-indexed both ways)."""
    if not 1 <= ell <= S.m:
        raise DomainError(f"ell={ell} outside 1..{S.m}")
    if not 1 <= j <= S.n:
        raise DomainError(f"j={j} outside 1..{S.n}")
    return 1 if j <= S.partial_sums()[ell - 1] else -1


def i_min_block_rule(S, a: int) -> frozenset[frozenset[int]]:
    """Minimal J-sets by the lambda-block rule (m >= 2; i_min otherwise).

    J_ell is minimal iff neither the ell-th lambda block nor the following
    one (cyclically, [1, lambda_1] when ell = m) is contained in it.
    """
    if S.m < 2:
        return i_min(S, a)
    ends = (0,) + S.partial_sums()
    blocks = [frozenset(range(lo + 1, hi + 1)) for lo, hi in zip(ends, ends[1:])]
    return frozenset(J for ell, J, _ in j_sets(S, a)
                     if not blocks[ell - 1] <= J and not blocks[ell % S.m] <= J)


def _c(n: int, k: int) -> int:
    """Binomial with the zero convention outside 0 <= k <= n."""
    return comb(n, k) if 0 <= k <= n else 0


def g_combin(n: int, f: int, c: int, d: int) -> int:
    """C(n,f) - C(n-c,f-c) - C(n-d,f-d) + C(n-c-d,f-c-d)."""
    if c < 0 or d < 0 or c + d > n:
        raise DomainError("need 0 <= c, d and c + d <= n")
    return _c(n, f) - _c(n - c, f - c) - _c(n - d, f - d) + _c(n - c - d, f - c - d)


def verify_single_simp(n: int, f: int) -> bool:
    """2 n! (-1)^n sum_{c,d} (-1)^{c+d+1} G(n,f,c,d)/((n-c-d)! c! d!)
    == 2 C(n,f) ((-1)^{n+f+1} - 1)."""
    total = sum((Fraction((-1) ** (c + d + 1) * g_combin(n, f, c, d),
                          factorial(n - c - d) * factorial(c) * factorial(d))
                 for c in range(n + 1) for d in range(n + 1 - c)), Fraction(0))
    return 2 * factorial(n) * (-1) ** n * total == 2 * _c(n, f) * ((-1) ** (n + f + 1) - 1)


def h_partial_sums(f: int, g: int) -> tuple[Fraction, ...]:
    """The four composition sums taken term by term over H's binomials.

    Each equals (-1)^f / (g! (f-g)!) for interior 1 <= g <= f-1; at the edges
    g in {0, f} the middle two break individually but the combination still
    telescopes to zero.
    """
    sums = [Fraction(0)] * 4
    for mu in compositions(f):
        w = Fraction((-1) ** len(mu), prod(factorial(m) for m in mu))
        first, last = mu[0], mu[-1]
        for i, term in enumerate((_c(f, g), _c(f - first, g - first), _c(f - last, g),
                                  _c(f - first - last, g - first))):
            sums[i] += w * term
    return tuple(sums)


def verify_h_vanishes(f: int, g: int) -> bool:
    """sum over compositions of (-1)^d H(f,g,mu_1,mu_d)/prod(mu!) == 0."""
    h1, h2, h3, h4 = h_partial_sums(f, g)
    return h1 - h2 - h3 + h4 == 0


def symmetric_transform_check(n: int, q: Fraction) -> bool:
    """With f = prod q^{t_i}, the alternating transform sum collapses to q^n."""
    q = Fraction(q)
    if not 0 < abs(q) < 1:
        raise DomainError("require 0 < |q| < 1")
    tail2, tail1 = q * q / (1 - q), q / (1 - q)  # sum_{t>=2} q^t, sum_{t>=1} q^t
    return sum((-1) ** i * comb(n, i) * tail2**i * tail1 ** (n - i)
               for i in range(n + 1)) == q**n


def box_vertex_witness(rows, n_vars: int, hi: Fraction) -> tuple[Fraction, ...] | None:
    """A vertex of [0, hi]^n satisfying every row, or None.

    One-sided: a hit proves feasibility of the open system intersected with
    the closed box; a miss proves nothing.
    """
    for bits in range(1 << n_vars):
        y = tuple(hi if bits >> i & 1 else Fraction(0) for i in range(n_vars))
        lhs = [sum(a * v for a, v in zip(c.coeffs, y)) for c in rows]
        if all(v < c.rhs if c.strict else v <= c.rhs for v, c in zip(lhs, rows)):
            return y
    return None
