"""Systems of parameters, t-classes, and the combinatorial identities."""

import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import combinat_reference as cr
from oracle_reference import oracle_Qn_mc
from splitmoments import sop
from splitmoments.errors import DomainError, ResourceLimitError
from splitmoments.linfeas import Constraint, _normalized, feasible
from splitmoments.moments import R_moment
from splitmoments.testfn import fejer


def S(lambdas, epsilons):
    return cr.SystemOfParameters(tuple(lambdas), tuple(epsilons))


class TestEta:
    def test_single_block_all_plus(self):
        s = S([4], [1, 1, -1, 1])
        assert all(cr.eta(s, 1, j) == 1 for j in range(1, 5))

    def test_two_blocks(self):
        s = S([1, 2], [1, 1, 1])
        assert cr.eta(s, 1, 1) == 1
        assert cr.eta(s, 1, 2) == -1
        assert cr.eta(s, 2, 3) == 1

    def test_last_level_all_plus(self):
        s = S([2, 1, 3], [1, -1, 1, 1, -1, -1])
        assert all(cr.eta(s, 3, j) == 1 for j in range(1, 7))

    def test_out_of_range(self):
        s = S([2], [1, 1])
        with pytest.raises(DomainError):
            cr.eta(s, 2, 1)
        with pytest.raises(DomainError):
            cr.eta(s, 1, 3)


class TestJSets:
    def test_all_plus_gives_empty_negative_side(self):
        s = S([4], [1, 1, 1, 1])
        out = cr.j_sets(s, 2)
        assert out == [(1, frozenset(), -1)]

    def test_single_negative_index(self):
        s = S([4], [-1, 1, 1, 1])
        out = cr.j_sets(s, 2)
        assert out == [(1, frozenset({1}), -1)]

    def test_definitional_sign_condition(self):
        # for every returned (ell, J, zeta): eta*eps == zeta exactly on J
        random.seed(3)
        for _ in range(200):
            n = random.randint(2, 7)
            m = random.randint(1, n)
            lam = random.choice(list(sop.compositions(n, m)))
            eps = [random.choice([-1, 1]) for _ in range(n)]
            s = S(lam, eps)
            a = random.randint(1, (n + 1) // 2)
            for ell, J, zeta in cr.j_sets(s, a):
                members = {
                    j for j in range(1, n + 1) if cr.eta(s, ell, j) * eps[j - 1] == zeta
                }
                assert members == J

    def test_pairwise_distinct(self):
        # no subset appears for two distinct ell within one system
        random.seed(4)
        for _ in range(300):
            n = random.randint(2, 7)
            lam = random.choice(list(sop.compositions(n)))
            eps = [random.choice([-1, 1]) for _ in range(n)]
            a = random.randint(1, (n + 1) // 2)
            js = cr.j_sets(S(lam, eps), a)
            subsets = [J for _, J, _ in js]
            assert len(subsets) == len(set(subsets))


class TestIMin:
    def test_minimality(self):
        assert cr.i_min(S([4], [1, 1, 1, 1]), 2) == frozenset({frozenset()})

    def test_m1_keeps_single(self):
        s = S([5], [-1, 1, 1, 1, 1])
        assert cr.i_min(s, 2) == frozenset({frozenset({1})})

    def test_strict_containment_filter(self):
        base = {frozenset(), frozenset({1})}
        mins = {J for J in base if not any(K < J for K in base)}
        assert mins == {frozenset()}

    def test_block_rule_agrees(self):
        # the lambda-block characterization matches inclusion-minimality
        random.seed(5)
        for _ in range(400):
            n = random.randint(2, 7)
            lam = random.choice(list(sop.compositions(n)))
            if len(lam) < 2:
                continue
            eps = [random.choice([-1, 1]) for _ in range(n)]
            a = random.randint(1, (n + 1) // 2)
            s = S(lam, eps)
            assert cr.i_min(s, a) == cr.i_min_block_rule(s, a), (lam, eps, a)


class TestAWeight:
    def test_m1(self):
        assert cr.a_weight(S([5], [1] * 5)) == 1

    def test_n2_split(self):
        assert cr.a_weight(S([1, 1], [1, 1])) == -1

    def test_n3_12(self):
        assert cr.a_weight(S([1, 2], [1, 1, 1])) == F(-3, 2)


class TestEnumeration:
    def test_count(self):
        # sum over m of C(n-1, m-1) compositions times 2^n epsilons = 2^{2n-1}
        for n in [2, 3, 4]:
            assert sum(1 for _ in cr.enumerate_sops(n)) == 2 ** (2 * n - 1)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            sop.sum_TA_all(9, 2)

    def test_compositions_pinned(self):
        # every n <= 10 and every parts in {None, -1, ..., n + 1}, order included
        listed = [(n, parts, list(sop.compositions(n, parts)))
                  for n in range(11) for parts in [None, *range(-1, n + 2)]]
        assert hashlib.sha256(repr(listed).encode()).hexdigest() == (
            "4648edc47bc71f62e5b43898be13000cac2c0046be05e7790af0160178525728")

    def test_streamed_compositions_retain_no_memory(self):
        # every n <= 14, one at a time; tuples built by tuple(generator) are
        # resized, and about 0.9 MB of them would stay in CPython's free lists;
        # a first pass, untraced, settles what the interpreter keeps anyway
        for _ in sop.compositions(12):
            pass
        tracemalloc.start()
        try:
            for n in range(1, 15):
                for _ in sop.compositions(n):
                    pass
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 64_000, retained


class TestTupleFeasible:
    def test_single_small_subset_feasible(self):
        # |I| <= a-1 makes the 1-tuple feasible
        for n, a in [(4, 2), (5, 2), (6, 3), (7, 3)]:
            for f in range(0, a):
                assert sop.tuple_feasible([range(1, f + 1)], n, a)

    def test_single_large_subset_infeasible(self):
        for n, a in [(4, 2), (6, 3)]:
            assert not sop.tuple_feasible([range(1, a + 1)], n, a)

    def test_pair_with_large_union_infeasible(self):
        # |I union J| >= a forces an empty region
        assert not sop.tuple_feasible([{1}, {2}], 4, 2)
        assert not sop.tuple_feasible([{1, 2}, {2, 3}], 6, 3)

    def test_empty_set_witness(self):
        assert sop.tuple_feasible([()], 5, 2)

    def test_agrees_with_vertex_search(self):
        # one-sided: whenever a box vertex satisfies the strict rows, the
        # Fourier-Motzkin verdict must be feasible
        random.seed(6)
        for _ in range(200):
            n = random.randint(3, 7)
            a = random.randint(1, n - 1)
            t = random.randint(1, 3)
            subsets = [
                frozenset(random.sample(range(1, n + 1), random.randint(0, n // 2)))
                for _ in range(t)
            ]
            hi = F(1, n - a)
            rows = []
            for I in subsets:
                coeffs = [F(1) if (i + 1) in I else F(-1) for i in range(n)]
                rows.append(Constraint(coeffs, F(-1), strict=True))
            witness = cr.box_vertex_witness(rows, n, hi)
            if witness is not None:
                assert sop.tuple_feasible(subsets, n, a)

    def test_agrees_with_linear_program(self):
        # both sides: feasible iff t* = max t subject to s_I . y >= t on the box
        # exceeds 1, with s_I . y = sum_{i notin I} y_i - sum_{i in I} y_i; a float
        # solver cannot decide t* within 1e-9 of 1, so those systems are skipped
        from scipy.optimize import linprog

        rng = random.Random(35)
        verdicts = []
        for _ in range(300):
            n = rng.randint(2, 7)
            a = rng.randint(1, n - 1)
            subsets = [frozenset(rng.sample(range(1, n + 1), rng.randint(0, n // 2)))
                       for _ in range(rng.randint(1, 3))]
            # variables (y_1..y_n, t): minimize -t subject to t - s_I . y <= 0
            rows = [[1 if i + 1 in I else -1 for i in range(n)] + [1] for I in subsets]
            res = linprog([0] * n + [-1], A_ub=rows, b_ub=[0] * len(rows),
                          bounds=[(0, 1 / (n - a))] * n + [(None, None)])
            assert res.status == 0, res.message
            t_star = -res.fun
            if abs(t_star - 1) > 1e-9:
                verdicts.append(sop.tuple_feasible(subsets, n, a))
                assert verdicts[-1] == (t_star > 1), (n, a, subsets, t_star)
        # 151 feasible and 72 infeasible verdicts checked, 77 systems skipped
        assert verdicts.count(True) >= 100 and verdicts.count(False) >= 50


class TestClassCanonical:
    def test_disjoint_singletons_same_class(self):
        assert sop.class_canonical([{2}, {3}], 4) == sop.class_canonical([{1}, {4}], 4)

    def test_intersection_pattern_distinguishes(self):
        a = sop.class_canonical([{1, 2}, {2, 3}], 4)
        b = sop.class_canonical([{1, 2}, {3, 4}], 4)
        assert a != b

    def test_idempotent(self):
        c = sop.class_canonical([{1, 3}, {2, 3}, {5}], 6)
        assert sop.class_canonical(c, 6) == c

    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            sop.class_canonical([{1}, {1}], 3)

    def test_matches_brute_force_minimal_image(self):
        random.seed(7)
        for _ in range(120):
            n = random.randint(2, 6)
            t = random.randint(1, 3)
            subs = set()
            while len(subs) < t:
                size = random.randint(0, n // 2)
                subs.add(frozenset(random.sample(range(1, n + 1), size)))
            subs = list(subs)
            best = None
            for perm in itertools.permutations(range(1, n + 1)):
                mp = {i + 1: perm[i] for i in range(n)}
                key = tuple(sorted(tuple(sorted(mp[x] for x in s)) for s in subs))
                if best is None or key < best:
                    best = key
            assert sop.class_canonical(subs, n) == best


def one_class_sum(n, a, f):
    """sum_S T(S, C) A(S) for C the 1-class of f-element subsets."""
    return sop.sum_TA_all(n, a).get(sop.one_class(n, f), 0)


class TestSumTA:
    def test_one_class_coefficient(self):
        # sum_S T(S, C_f) A(S) = 2 (-1)^{n+f+1} C(n, f) for 1 <= f <= a-1
        for n, a in [(4, 2), (5, 3), (6, 3)]:
            for f in range(1, a):
                got = one_class_sum(n, a, f)
                assert got == 2 * (-1) ** (n + f + 1) * comb(n, f), (n, a, f)

    def test_valid_t_classes_vanish(self):
        for n, a in [(5, 3), (6, 3), (7, 4)]:
            table = sop.sum_TA_all(n, a, t_max=3)
            for key, val in table.items():
                if len(key) >= 2 and val != 0:
                    assert not sop.tuple_feasible(key, n, a), (n, a, key, val)

    def test_m_ge_2_partial_sum_closed_form(self):
        # the m >= 2 partial matches 2 C(n,f) ((-1)^{n+f+1} - 1): subtract the
        # m = 1 contribution 2 C(n,f) from the full sum
        for n, a, f in [(4, 2, 1), (6, 3, 2), (7, 4, 3)]:
            full = one_class_sum(n, a, f)
            m1 = 2 * comb(n, f)
            assert full - m1 == 2 * comb(n, f) * ((-1) ** (n + f + 1) - 1)

    def test_f_zero_reported_value_matches_extension(self):
        # not asserted by the theory for f = 0; record the observed agreement
        # with the same closed form (see decisions ledger)
        for n, a in [(3, 2), (4, 2), (5, 2), (6, 3)]:
            got = one_class_sum(n, a, 0)
            assert got == 2 * (-1) ** (n + 1)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_definitional_reference(self, n):
        for a in range(1, (n + 1) // 2 + 1):
            for t_max in (1, 3):
                assert sop.sum_TA_all(n, a, t_max) == cr.sum_ta_reference(n, a, t_max), (a, t_max)

    def test_tables_pinned(self):
        # every class sum at n = 2..8 and every a, pinned by digest
        h = hashlib.sha256()
        for n in range(2, 9):
            for a in range(1, (n + 1) // 2 + 1):
                table = sop.sum_TA_all(n, a, t_max=3)
                h.update(repr((n, a, sorted((k, str(v)) for k, v in table.items()))).encode())
        assert h.hexdigest() == (
            "5a8a8194f33bc26b4b65f276ed927d1e464dedab93aeecd4fdf20a3ee3bb95d7")


class TestCoefficientIdentities:
    def test_soshnikov(self):
        assert sop.soshnikov_coeff(1) == 1
        for n in range(2, 13):
            assert sop.soshnikov_coeff(n) == 0, n

    def test_exp_neg(self):
        assert sop.exp_neg_coeff(0) == 1
        assert sop.exp_neg_coeff(3) == F(-1, 6)
        assert sop.exp_neg_coeff(7) == F(-1, 5040)
        for n in range(13):
            assert sop.exp_neg_coeff(n) == F((-1) ** n, __import__("math").factorial(n))

    def test_g_zero_offsets(self):
        for n in [3, 6, 9]:
            for f in range(n + 1):
                assert cr.g_combin(n, f, 0, 0) == 0

    def test_single_simp(self):
        for f in range(1, 11):
            for n in (2 * f, 2 * f + 1):
                assert cr.verify_single_simp(n, f), (n, f)

    def test_h_vanishes(self):
        for f in range(1, 11):
            for g in range(0, f + 1):
                assert cr.verify_h_vanishes(f, g), (f, g)

    def test_h_partials_constant_interior(self):
        for f in range(2, 9):
            for g in range(1, f):
                expected = F((-1) ** f, __import__("math").factorial(g) * __import__("math").factorial(f - g))
                assert all(h == expected for h in cr.h_partial_sums(f, g)), (f, g)

    @pytest.mark.parametrize("n,q", [(1, F(1, 2)), (4, F(1, 3)), (6, F(2, 5)), (5, F(-1, 3))])
    def test_symmetric_transform(self, n, q):
        assert cr.symmetric_transform_check(n, q)


class TestFeasibilityEngine:
    def test_strict_contradiction(self):
        # y <= 0 and y > 0 infeasible
        rows = [Constraint([F(1)], F(0)), Constraint([F(-1)], F(0), strict=True)]
        assert not feasible(rows, 1)

    def test_open_interval(self):
        # 0 < y < 1 feasible
        rows = [
            Constraint([F(-1)], F(0), strict=True),
            Constraint([F(1)], F(1), strict=True),
        ]
        assert feasible(rows, 1)

    def test_two_var_chain(self):
        # y1 + y2 > 1, y1 <= 1/2, y2 <= 1/2: only the corner, strict fails
        rows = [
            Constraint([F(-1), F(-1)], F(-1), strict=True),
            Constraint([F(1), F(0)], F(1, 2)),
            Constraint([F(0), F(1)], F(1, 2)),
            Constraint([F(-1), F(0)], F(0)),
            Constraint([F(0), F(-1)], F(0)),
        ]
        assert not feasible(rows, 2)

    # the three systems above, written in ints: (coeffs, rhs, strict) rows, the
    # number of variables and the verdict
    INT_SYSTEMS = {
        "strict_contradiction": ([((1,), 0, False), ((-1,), 0, True)], 1, False),
        "open_interval": ([((-1,), 0, True), ((1,), 1, True)], 1, True),
        "two_var_chain": ([((-1, -1), -1, True), ((2, 0), 1, False), ((0, 2), 1, False),
                           ((-1, 0), 0, False), ((0, -1), 0, False)], 2, False),
    }

    @pytest.mark.parametrize("name", INT_SYSTEMS)
    def test_int_rows_match_their_fraction_copy(self, name):
        rows, n_vars, verdict = self.INT_SYSTEMS[name]
        ints = [Constraint(*row) for row in rows]
        fractions = [Constraint(tuple(map(F, c)), F(rhs), strict) for c, rhs, strict in rows]
        assert feasible(ints, n_vars) is feasible(fractions, n_vars) is verdict

    def test_normalized_rows_hold_fractions(self, monkeypatch):
        # an int scale would turn x / scale into a float
        built = []
        monkeypatch.setattr(sop, "feasible", lambda rows, n: built.extend(rows) or True)
        sop.tuple_feasible([{1}, {2, 3}], 5, 2)
        assert all(type(x) is int for c in built for x in c.coeffs)
        written = [Constraint(*row) for system, _, _ in self.INT_SYSTEMS.values()
                   for row in system]
        for c in (*written, *built, Constraint((0, 0), -1)):  # and a constant row
            normal = _normalized(c)
            assert all(type(x) is F for x in (*normal.coeffs, normal.rhs)), c
            assert max(map(abs, normal.coeffs)) in (0, 1)


class TestQnMonteCarloOracle:
    def test_n2_matches_exact(self):
        tf = fejer(F(3, 5))
        est, se = oracle_Qn_mc(tf, 2, 1, 10**6, seed=12345)
        assert abs(est - float(F(1, 972))) <= 3 * se

    def test_n3_matches_exact(self):
        tf = fejer(F(1, 2))
        est, se = oracle_Qn_mc(tf, 3, 1, 2 * 10**5, seed=777)
        exact = float(R_moment(tf, 3, 1))
        assert abs(est - exact) <= 3 * se

    def test_mock_gaussian_regime(self):
        tf = fejer(F(1, 4))  # sigma < 1/n for n=3
        est, se = oracle_Qn_mc(tf, 3, 1, 2 * 10**5, seed=99)
        assert abs(est) <= max(3 * se, 1e-12)

    def test_rejects_large_n(self):
        with pytest.raises(DomainError):
            oracle_Qn_mc(fejer(F(1, 4)), 5, 2, 100, seed=1)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@st.composite
def random_sops(draw):
    n = draw(st.integers(2, 7))
    comps = list(sop.compositions(n))
    lam = draw(st.sampled_from(comps))
    eps = tuple(draw(st.sampled_from([-1, 1])) for _ in range(n))
    return S(lam, eps)


@settings(max_examples=200, deadline=None)
@given(random_sops(), st.integers(1, 4))
def test_jsets_invariant(s, a):
    a = min(a, (s.n + 1) // 2)
    for ell, J, zeta in cr.j_sets(s, a):
        assert len(J) <= a - 1
        for j in range(1, s.n + 1):
            inside = cr.eta(s, ell, j) * s.epsilons[j - 1] == zeta
            assert inside == (j in J)


@settings(max_examples=200, deadline=None)
@given(random_sops())
def test_a_weight_sign(s):
    w = cr.a_weight(s)
    assert (w > 0) == (s.m % 2 == 1)
    assert abs(w) >= F(1, s.m)
