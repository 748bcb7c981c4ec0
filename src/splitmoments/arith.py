"""Arithmetic exponential sums: Ramanujan, Gauss, Kloosterman, and the
prime-level Kloosterman-to-Gauss factorization.

Dirichlet characters are built from the unit-group generators of each
prime power p^e || q (primitive roots for odd prime powers, {+-1} x <5> for
2^k with k >= 3), each lifted by CRT to a residue mod q that is g mod p^e and
1 mod q/p^e.  One ``itertools.product`` over the exponent vectors t lists
every unit prod_i g_i^{t_i}; a second over the index vectors j lists the
characters.  Character values are stored as exact root-of-unity exponents
(k, N) meaning e(k/N) = e^{2 pi i k / N}.  Each character's primitivity
(conductor == modulus, by ``_conductor``) is computed once, when
``enumerate_characters`` builds it, and kept in ``chi.primitive``.
``_roots(N)``, the cached table of e(j/N) for j = 0..N-1, is the one place
where character values and exponential sums become complex numbers: each
term's exponent is reduced to an integer residue and the sums add table
entries.  ``enumerate_characters`` caches one modulus at a time, and keeps
each character's values on the units of ``_units(q)`` in ``chi.values``; a
Gauss sum multiplies them with the cached row ``_twist(q, n mod q)`` of
e(an/q) that all phi(q) characters share.  Every other walk over the units
(the exponential Ramanujan route, Kloosterman sums with their inverses d^-1)
reads ``_units(q)``.  gcd(0, q) = q is ``math.gcd``'s own convention, which the
Ramanujan routes and the Kloosterman bound rely on; the divisor count in that
bound comes from the cached ``tau(q)``.  All verified identities at these
modulus sizes are separated by far more than the 1e-9/1e-6 comparison
tolerances; the tests also check the characters' orthogonality relations.

``identity_rows`` is the ``verify arith`` suite: it runs each identity over
its case range, counts the cases that fail, and refuses a qmax above its cap
before any case runs.

The magnitude bound sqrt(q) for Gauss sums is a theorem only for primitive
characters (for the principal character G reduces to a Ramanujan sum, e.g.
|G_{chi_0 mod 12}(12)| = phi(12) = 4 > sqrt(12)); the bound checker
therefore asserts sqrt(q) for primitive characters and the Ramanujan
identity for principal ones.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import product
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import DomainError, InvariantViolation, ResourceLimitError

__all__ = [
    "DirichletCharacter",
    "factorize",
    "mobius",
    "euler_phi",
    "tau",
    "gcd_saturate",
    "ramanujan",
    "ramanujan_exponential",
    "ramanujan_divisor_sum",
    "ramanujan_von_sterneck",
    "enumerate_characters",
    "gauss_sum",
    "kloosterman",
    "verify_kloosterman_factorization",
    "identity_rows",
]

_FACTOR_CAP = 10**6


@lru_cache(maxsize=8)
def _roots(N: int) -> tuple[complex, ...]:
    """e(j/N) = e^{2 pi i j / N} for j = 0..N-1."""
    return tuple(cmath.exp(2j * cmath.pi * j / N) for j in range(N))


@lru_cache(maxsize=8)
def _units(q: int) -> tuple[tuple[int, int], ...]:
    """The pairs (d, d^-1 mod q) over units d in 1..q, in increasing d."""
    return tuple((d, pow(d, -1, q)) for d in range(1, q + 1) if math.gcd(d, q) == 1)


@lru_cache(maxsize=64)
def _twist(q: int, r: int) -> tuple[complex, ...]:
    """e(a r / q) at the units a of ``_units(q)``, in increasing a."""
    e = _roots(q)
    return tuple(e[a * r % q] for a, _ in _units(q))


def factorize(n: int) -> list[tuple[int, int]]:
    """Trial-division prime factorization, capped at 10^6."""
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    if n > _FACTOR_CAP:
        raise DomainError(f"n={n} exceeds factorization cap {_FACTOR_CAP}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def mobius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for _, e in f):
        return 0
    return (-1) ** len(f)


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


@lru_cache(maxsize=256)
def tau(n: int) -> int:
    out = 1
    for _, e in factorize(n):
        out *= e + 1
    return out


def gcd_saturate(x: int, y: int) -> int:
    """(x, y^inf): the largest divisor of x made of primes dividing y."""
    if x < 1 or y < 1:
        raise DomainError("gcd_saturate requires positive arguments")
    out = 1
    g = math.gcd(x, y)
    while g > 1:
        out *= g
        x //= g
        g = math.gcd(x, g)
    return out


# ---------------------------------------------------------------------------
# Ramanujan sums
# ---------------------------------------------------------------------------

def ramanujan_exponential(n: int, q: int) -> int:
    """Direct unit sum of e(an/q), rounded from floats (oracle route)."""
    e = _roots(q)
    total = sum(e[a * n % q].real for a, _ in _units(q))
    r = round(total)
    if abs(total - r) > 1e-6:
        raise InvariantViolation(f"ramanujan exponential sum not integral: {total}")
    return r


def ramanujan_divisor_sum(n: int, q: int) -> int:
    g = math.gcd(n, q)
    return sum(mobius(q // d) * d for d in range(1, g + 1) if g % d == 0)


def ramanujan_von_sterneck(n: int, q: int) -> int:
    qg = q // math.gcd(n, q)
    return mobius(qg) * euler_phi(q) // euler_phi(qg)


def ramanujan(n: int, q: int) -> int:
    """Ramanujan sum by three routes; raises if they ever disagree."""
    if q < 1:
        raise DomainError("modulus must be >= 1")
    div = ramanujan_divisor_sum(n, q)
    von = ramanujan_von_sterneck(n, q)
    expo = ramanujan_exponential(n, q)
    if not div == von == expo:
        raise InvariantViolation(
            f"ramanujan({n},{q}) disagreement: divisor={div}, "
            f"von_sterneck={von}, exponential={expo}"
        )
    return div


# ---------------------------------------------------------------------------
# Dirichlet characters
# ---------------------------------------------------------------------------

class DirichletCharacter(NamedTuple):
    """Character modulo q; exps[a] is k with value e^{2 pi i k/order}, None off units.

    ``values`` holds e(k/order) at the units of ``_units(q)``, in increasing
    a: the values that :func:`gauss_sum` weights.
    """

    modulus: int
    order: int  # common denominator of all exponents
    exps: tuple[Optional[int], ...]
    is_principal: bool
    primitive: bool  # conductor == modulus, fixed when the character is built
    values: tuple[complex, ...]

    def value(self, a: int) -> complex:
        k = self.exps[a % self.modulus]
        return 0j if k is None else _roots(self.order)[k]


def _primitive_root(p: int, e: int) -> int:
    """Primitive root mod p^e for odd prime p."""
    phi_p = p - 1
    fac = [f for f, _ in factorize(phi_p)]
    g = None
    for cand in range(2, p):
        if all(pow(cand, phi_p // f, p) != 1 for f in fac):
            g = cand
            break
    assert g is not None
    if e == 1:
        return g
    # lift: g or g + p generates mod p^2 (and then all higher powers)
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _unit_group_generators(p: int, e: int) -> list[tuple[int, int]]:
    """[(generator, order)] of (Z/p^e)^*."""
    q = p**e
    if p == 2:
        if e == 1:
            return []
        if e == 2:
            return [(3, 2)]
        return [(q - 1, 2), (5, 2 ** (e - 2))]
    return [(_primitive_root(p, e), euler_phi(q))]


@lru_cache(maxsize=1)
def enumerate_characters(q: int) -> tuple[DirichletCharacter, ...]:
    """All phi(q) Dirichlet characters modulo q.

    The character with index vector j sends the unit prod_i g_i^{t_i} to
    e(sum_i j_i t_i / order_i), where the g_i are the generators of every
    prime power p^e || q, each lifted by CRT to g mod p^e and 1 mod q/p^e.
    The characters run over j in lexicographic order.
    """
    if q < 1:
        raise DomainError("modulus must be >= 1")
    gens = []
    for p, e in factorize(q):
        pe = p**e
        m = q // pe
        gens += [(1 + m * ((g - 1) * pow(m, -1, pe) % pe), o)
                 for g, o in _unit_group_generators(p, e)]
    powers = [[pow(g, t, q) for t in range(o)] for g, o in gens]
    # the units prod_i g_i^{t_i} mod q, over the exponent vectors t in lexicographic order
    units = [math.prod(xs) % q for xs in product(*powers)]
    assert len(set(units)) == euler_phi(q)
    order = math.lcm(*(o for _, o in gens))
    w = _roots(order)
    chars = []
    for js in product(*(range(o) for _, o in gens)):
        # steps[i][t]: chi(g_i^t) = e(j_i t / order_i) as an exponent over order
        steps = [[j * (order // o) * t % order for t in range(o)]
                 for j, (_, o) in zip(js, gens)]
        exps: list[Optional[int]] = [None] * q
        for a, ks in zip(units, product(*steps)):
            exps[a] = sum(ks) % order
        chars.append(
            DirichletCharacter(
                modulus=q,
                order=order,
                exps=tuple(exps),
                is_principal=not any(js),
                primitive=_conductor(q, exps) == q,
                values=tuple(w[k] for k in exps if k is not None),
            )
        )
    return tuple(chars)


def _conductor(q: int, exps: Sequence[Optional[int]]) -> int:
    """Smallest d | q such that exps[a] == 0 at every unit a congruent to 1 mod d."""
    for d in range(1, q + 1):
        if q % d == 0 and all(
            exps[a] == 0 for a in range(q) if exps[a] is not None and a % d == 1 % d
        ):
            return d
    return q


# ---------------------------------------------------------------------------
# Gauss and Kloosterman sums
# ---------------------------------------------------------------------------

def gauss_sum(chi: DirichletCharacter, n: int) -> complex:
    """G_chi(n) = sum over a mod q of chi(a) e(an/q).

    A principal chi must give the Ramanujan sum and a primitive one at most
    sqrt(q) in modulus; either violation raises InvariantViolation.  Other
    characters assert nothing, yet hold 213282 of the 937278 terms (23%) of
    ``verify arith``'s Gauss row (q, n <= 50), where they count as checked.
    """
    q = chi.modulus
    total = sum(map(mul, chi.values, _twist(q, n % q)), 0j)
    if chi.is_principal:
        ram = ramanujan_divisor_sum(n, q)
        if abs(total - ram) > 1e-9 * max(1, q):
            raise InvariantViolation(
                f"principal Gauss sum != Ramanujan: {total} vs {ram}"
            )
    elif chi.primitive and abs(total) > math.sqrt(q) + 1e-9:
        raise InvariantViolation(
            f"|G_chi({n})| = {abs(total)} exceeds sqrt({q}) for primitive chi"
        )
    return total


def kloosterman(m: int, n: int, q: int) -> float:
    """S(m, n; q) = sum over units d of e((m d + n dbar)/q); real-valued.

    A value above the Weil-type bound raises InvariantViolation.
    """
    if q < 1:
        raise DomainError("modulus must be >= 1")
    e = _roots(q)
    total = sum([e[(m * d + n * dbar) % q] for d, dbar in _units(q)], 0j)
    if abs(total.imag) > 1e-9 * max(1, q):
        raise InvariantViolation(f"Kloosterman sum has imaginary part {total.imag}")
    value = total.real
    bound = (math.gcd(m, n, q) * math.sqrt(min(q / math.gcd(m, q), q / math.gcd(n, q)))
             * tau(q))
    if abs(value) > bound + 1e-6:
        raise InvariantViolation(
            f"|S({m},{n};{q})| = {abs(value)} exceeds Weil-type bound {bound}"
        )
    return value


def verify_kloosterman_factorization(N: int, b: int, Q: int, m: int) -> bool:
    """Check S(m^2, N Q; N b) against the character-sum factorization

    -(1/phi(b)) sum_{chi mod b} G_chi(m^2) G_chi((Q, b^inf))
                 conj(chi)(Q / (Q, b^inf)) chi(N)

    to within 1e-6.

    Preconditions: N prime, N not dividing b, Q, or m.
    """
    if N < 2 or factorize(N) != [(N, 1)]:
        raise DomainError("N must be prime")
    if b % N == 0 or Q % N == 0 or m % N == 0:
        raise DomainError("N must not divide b, Q, or m")
    lhs = kloosterman(m * m, N * Q, N * b)
    r = gcd_saturate(Q, b)
    rhs = 0j
    for chi in enumerate_characters(b):
        rhs += (
            gauss_sum(chi, m * m)
            * gauss_sum(chi, r)
            * chi.value(Q // r).conjugate()
            * chi.value(N)
        )
    rhs = -rhs / euler_phi(b)
    return abs(lhs - rhs) <= 1e-6


# ---------------------------------------------------------------------------
# the verify arith suite
# ---------------------------------------------------------------------------

# the Ramanujan row is qmax^2 cases of O(qmax) work each, most of the run:
# qmax = 300 takes 1.8-2.1 s in-process (2-core x86-64, Python 3.11.7), and a
# larger qmax is refused before any case runs
_QMAX_CAP = 300


def identity_rows(qmax: int, kloosterman_sweep: bool) -> tuple[list[dict], bool]:
    """The rows and verdict of ``verify arith``: each identity's case count and
    failures, with the prime-level factorization sweep if ``kloosterman_sweep``.

    A case fails when its check raises InvariantViolation or returns False.
    The checks are read as module globals when the call runs.
    """
    if qmax > _QMAX_CAP:
        raise ResourceLimitError(f"qmax={qmax} exceeds cap {_QMAX_CAP}")
    identities = [
        ("ramanujan three-way", ramanujan,
         ((n, q) for q in range(1, qmax + 1) for n in range(1, qmax + 1))),
        ("gauss bounds (primitive) + principal=Ramanujan", gauss_sum,
         ((chi, n) for q in range(1, min(qmax, 50) + 1)
          for chi in enumerate_characters(q) for n in range(51))),
        ("kloosterman Weil-type bound", kloosterman,
         ((m, n, q) for q in range(1, min(qmax, 100) + 1)
          for m in range(21) for n in range(21))),
    ]
    if kloosterman_sweep:
        identities.append(
            ("prime-level Kloosterman factorization", verify_kloosterman_factorization,
             ((N, b, Q, m) for N in (3, 5, 7) for b in range(1, 21) if b % N
              for Q in range(1, 31) if Q % N for m in range(1, 6) if m % N))
        )
    rows = []
    for name, check, cases in identities:
        checked = failures = 0
        for args in cases:
            checked += 1
            try:
                failures += check(*args) is False
            except InvariantViolation:
                failures += 1
        rows.append({"identity": name, "checked": checked, "failures": failures})
    return rows, all(row["failures"] == 0 for row in rows)
