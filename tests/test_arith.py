"""Arithmetic sums: Ramanujan/Gauss/Kloosterman identities and bounds."""

import cmath
import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitmoments import arith
from splitmoments.errors import DomainError, InvariantViolation


def e(x):
    """e(x) = exp(2 pi i x), written out for the textbook formulas below."""
    return cmath.exp(2j * math.pi * x)


def character_orthogonality_defect(q):
    """Max deviation from phi(q) delta_{chi, chi'} over all character pairs."""
    chars = arith.enumerate_characters(q)
    units = [a for a in range(q) if chars[0].exps[a] is not None]
    return max(abs(sum(chi.value(a) * psi.value(a).conjugate() for a in units)
                   - (arith.euler_phi(q) if i == j else 0))
               for i, chi in enumerate(chars) for j, psi in enumerate(chars))


class TestHelpers:
    def test_factorize(self):
        assert arith.factorize(360) == [(2, 3), (3, 2), (5, 1)]
        assert arith.factorize(1) == []

    def test_phi_mu_tau(self):
        assert arith.euler_phi(12) == 4
        assert arith.mobius(30) == -1
        assert arith.mobius(12) == 0
        assert arith.tau(12) == 6

    def test_gcd_saturate(self):
        assert arith.gcd_saturate(12, 2) == 4
        assert arith.gcd_saturate(7, 1) == 1
        assert arith.gcd_saturate(5, 5) == 5
        assert arith.gcd_saturate(720, 6) == 144  # 2^4 * 3^2


class TestRamanujan:
    def test_prime_at_one(self):
        for p in [2, 3, 5, 7, 11, 13]:
            assert arith.ramanujan(1, p) == -1

    def test_diagonal_is_phi(self):
        for q in [1, 2, 6, 12, 30]:
            assert arith.ramanujan(q, q) == arith.euler_phi(q)

    def test_r_6_4(self):
        # mu(2)*2 + mu(4)*1 = -2 (all three routes agree on -2)
        assert arith.ramanujan_exponential(6, 4) == -2
        assert arith.ramanujan(6, 4) == -2

    def test_three_way_agreement_small(self):
        for q in range(1, 41):
            for n in range(1, 41):
                arith.ramanujan(n, q)  # raises on any disagreement


class TestCharacters:
    def test_q1_trivial(self):
        (chi,) = arith.enumerate_characters(1)
        assert chi.value(0) == 1
        assert chi.is_principal

    def test_q5_count_and_orthogonality(self):
        assert len(arith.enumerate_characters(5)) == 4
        assert character_orthogonality_defect(5) < 1e-9

    def test_q8_all_real(self):
        chars = arith.enumerate_characters(8)
        assert len(chars) == 4
        assert all(k is None or 2 * k % c.order == 0 for c in chars for k in c.exps)

    def test_counts_match_phi(self):
        for q in [2, 3, 4, 6, 9, 12, 16, 24, 35, 40]:
            assert len(arith.enumerate_characters(q)) == arith.euler_phi(q)

    def test_complete_multiplicativity(self):
        for q in [5, 8, 12, 15]:
            for chi in arith.enumerate_characters(q):
                assert abs(chi.value(1) - 1) < 1e-12
                for a in range(q):
                    for b in range(q):
                        lhs = chi.value((a * b) % q)
                        rhs = chi.value(a) * chi.value(b)
                        assert abs(lhs - rhs) < 1e-9

    def test_zero_off_units(self):
        for q in [4, 6, 12]:
            for chi in arith.enumerate_characters(q):
                for a in range(q):
                    if math.gcd(a, q) != 1:
                        assert chi.value(a) == 0

    def test_orthogonality_sweep(self):
        for q in range(1, 51):
            assert character_orthogonality_defect(q) < 1e-9, q

    def test_character_table_pinned(self):
        # every character mod q <= 60 in list order; integers only, so no libm
        rows = [(c.modulus, c.order, c.exps, c.is_principal, c.primitive)
                for q in range(1, 61) for c in arith.enumerate_characters(q)]
        assert len(rows) == 1102
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "810f6f367f45052d41db67d6102444655dc358a1d3256272c5ed8902f83b53f4")

    def test_primitive_count(self):
        # the primitive characters mod q number sum_{d | q} mu(q/d) phi(d)
        for q in range(1, 201):
            want = sum(arith.mobius(q // d) * arith.euler_phi(d)
                       for d in range(1, q + 1) if q % d == 0)
            assert sum(c.primitive for c in arith.enumerate_characters(q)) == want, q


class TestGaussSums:
    def test_principal_reduces_to_ramanujan(self):
        for q in [4, 9, 12, 15]:
            chi0 = next(c for c in arith.enumerate_characters(q) if c.is_principal)
            for n in range(0, q + 2):
                g = arith.gauss_sum(chi0, n)
                assert abs(g - arith.ramanujan_divisor_sum(n, q)) < 1e-9

    def test_nonprincipal_at_zero(self):
        for q in [5, 7, 12]:
            for chi in arith.enumerate_characters(q):
                if not chi.is_principal:
                    assert abs(arith.gauss_sum(chi, 0)) < 1e-9

    def test_primitive_magnitude(self):
        for chi in arith.enumerate_characters(5):
            if not chi.is_principal:
                assert abs(abs(arith.gauss_sum(chi, 1)) - math.sqrt(5)) < 1e-9

    def test_primitive_bound_sweep(self):
        # sqrt(q) bound asserted for primitive characters, q <= 50, n <= 50
        for q in range(1, 51):
            for chi in arith.enumerate_characters(q):
                if not chi.primitive:
                    continue
                for n in range(0, 51):
                    arith.gauss_sum(chi, n)  # raises on violation

    def test_primitive_bound_raises(self):
        # the principal character mod 5, marked primitive, sums to phi(5) = 4 at
        # n = 5: above sqrt(5) but below 2 sqrt(5), so a looser bound lets it pass
        chi0 = next(c for c in arith.enumerate_characters(5) if c.is_principal)
        chi = chi0._replace(is_principal=False, primitive=True)
        with pytest.raises(InvariantViolation):
            arith.gauss_sum(chi, 5)

    def test_imprimitive_counterexample_documented(self):
        # the naive sqrt(q) bound fails for imprimitive characters: the
        # principal character mod 12 at n = 12 gives phi(12) = 4 > sqrt(12)
        chi0 = next(c for c in arith.enumerate_characters(12) if c.is_principal)
        g = arith.gauss_sum(chi0, 12)
        assert abs(g) > math.sqrt(12)

    def test_matches_textbook_formula(self):
        # G_chi(n) = sum_{a mod q} chi(a) e(an/q), chi(a) = e(k/order) on units
        for q in range(1, 21):
            for chi in arith.enumerate_characters(q):
                for n in range(q + 1):
                    want = sum(
                        e(k / chi.order) * e(a * n / q)
                        for a, k in enumerate(chi.exps)
                        if k is not None
                    )
                    assert abs(arith.gauss_sum(chi, n) - want) <= 1e-12, (q, chi.exps, n)

    def test_every_sum_bit_identical_to_the_unit_sum(self):
        # the same products chi(a) e(an/q), in increasing a, added from 0j
        checked = 0
        for q in range(1, 51):
            e = arith._roots(q)
            units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
            for chi in arith.enumerate_characters(q):
                for n in range(51):
                    want = sum((chi.value(a) * e[a * n % q] for a in units), 0j)
                    assert arith.gauss_sum(chi, n) == want, (q, chi.exps, n)
                    checked += 1
        assert checked == 39474


class TestKloosterman:
    def test_s00_is_phi(self):
        for q in [2, 6, 12, 30]:
            assert abs(arith.kloosterman(0, 0, q) - arith.euler_phi(q)) < 1e-9

    def test_s11_mod2(self):
        assert abs(arith.kloosterman(1, 1, 2) - 1) < 1e-12

    def test_symmetry(self):
        for q in [5, 7, 12]:
            for m in range(3):
                for n in range(3):
                    a = arith.kloosterman(m, n, q)
                    b = arith.kloosterman(n, m, q)
                    assert abs(a - b) < 1e-9

    def test_weil_bound_sweep_small(self):
        for q in range(1, 41):
            for m in range(0, 8):
                for n in range(0, 8):
                    arith.kloosterman(m, n, q)  # raises on bound violation

    def test_real_valued(self):
        v = arith.kloosterman(3, 7, 23)
        assert isinstance(v, float)

    def test_matches_textbook_formula(self):
        # S(m, n; q) = sum_{d mod q, (d, q) = 1} e((m d + n dbar)/q)
        for q in range(1, 21):
            units = [d for d in range(1, q + 1) if math.gcd(d, q) == 1]
            for m in range(q):
                for n in range(q):
                    want = sum(e((m * d + n * pow(d, -1, q)) / q) for d in units)
                    assert abs(arith.kloosterman(m, n, q) - want) <= 1e-12, (m, n, q)


    def test_cached_units_leave_every_sum_bit_identical(self):
        # the same terms in the same order as the sum over units from the definition
        for q in range(1, 61):
            e = arith._roots(q)
            units = [d for d in range(1, q + 1) if math.gcd(d, q) == 1]
            for m in range(21):
                for n in range(21):
                    want = sum((e[(m * d + n * pow(d, -1, q)) % q] for d in units), 0j).real
                    assert arith.kloosterman(m, n, q) == want, (m, n, q)


class TestFactorizationLemma:
    def test_examples(self):
        assert arith.verify_kloosterman_factorization(3, 4, 5, 1)
        assert arith.verify_kloosterman_factorization(5, 6, 14, 2)

    def test_trivial_modulus(self):
        assert arith.verify_kloosterman_factorization(3, 1, 1, 1)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            arith.verify_kloosterman_factorization(4, 3, 5, 1)  # N not prime
        with pytest.raises(DomainError):
            arith.verify_kloosterman_factorization(3, 6, 5, 1)  # N | b
        with pytest.raises(DomainError):
            arith.verify_kloosterman_factorization(3, 4, 6, 1)  # N | Q
        with pytest.raises(DomainError):
            arith.verify_kloosterman_factorization(3, 4, 5, 6)  # N | m

    def test_small_sweep(self):
        for N in [3, 5]:
            for b in range(1, 11):
                if b % N == 0:
                    continue
                for Q in range(1, 11):
                    if Q % N == 0:
                        continue
                    for m in [1, 2]:
                        if m % N == 0:
                            continue
                        assert arith.verify_kloosterman_factorization(N, b, Q, m), (
                            N,
                            b,
                            Q,
                            m,
                        )


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(1, 150), st.integers(1, 150))
def test_ramanujan_multiplicative_in_q(n, q):
    # R(n, q1 q2) = R(n, q1) R(n, q2) for coprime q1, q2
    f = arith.factorize(q)
    if len(f) < 2:
        return
    p, e = f[0]
    q1 = p**e
    q2 = q // q1
    assert arith.ramanujan_divisor_sum(n, q) == arith.ramanujan_divisor_sum(
        n, q1
    ) * arith.ramanujan_divisor_sum(n, q2)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 200), st.integers(1, 120))
def test_ramanujan_three_way(n, q):
    arith.ramanujan(n, q)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 500), st.integers(1, 60))
def test_gcd_saturate_properties(x, y):
    d = arith.gcd_saturate(x, y)
    assert x % d == 0
    # maximality: the cofactor shares no prime with y
    assert math.gcd(x // d, y) == 1
    # every prime of d divides y
    for p, _ in arith.factorize(d):
        assert y % p == 0
