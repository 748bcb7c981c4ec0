"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` (or the whole suite); each
criterion prints a PASS line with its runtime.  Criterion 7 draws each RMT
cosine collection once and reuses it for every test function it gates.
"""

import random
import time
from fractions import Fraction as F
from math import comb, factorial

import numpy as np
import pytest

import combinat_reference as cr
from convolution_reference import I_integral, reflect
from oracle_reference import oracle_Qn_mc, oracle_sigma_phi_sq, oracle_X_xi
from splitmoments import arith, linfeas, moments as mo, quadrature as qd, rmt, sop
from splitmoments import vanishing as vb
from splitmoments.testfn import fejer

pytestmark = pytest.mark.acceptance

SIGMA_GRID = [F(1, 4), F(1, 3), F(1, 2), F(3, 5)]


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            print(f"\n{self.name}: PASS ({elapsed:.1f}s, budget {self.seconds:.0f}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded time budget"
        return False


def test_criterion_1_flagship_values():
    with _Budget("criterion 1 (exact flagship values)", 1.0):
        tf = fejer(F(1, 2))
        assert mo.predicted_centered_moment(tf, 4, 2, "minus") == F(31, 105)
        q = vb.VanishingQuery(r=5, n=4, sigma=F(1, 2), sign="minus")
        assert vb.vanishing_bound(q) == F(496, 65625)


def test_criterion_2_r19_bound():
    with _Budget("criterion 2 (r=19, n=20 bound)", 30.0):
        q = vb.VanishingQuery(r=19, n=20, sigma=F(1, 10), sign="minus")
        res = vb.vanishing_result(q)
        bound = res.bound
        assert F(280, 100) / 10**15 <= bound <= F(292, 100) / 10**15
        assert f"{float(bound):.3g}" == "2.86e-15"
        assert str(bound) == (
            "12003733022065897858870674688360437874156544/"
            "4196099824773005945611228919456403693147495162444353859375"
        )
        assert str(res.threshold) == "17/2"
        assert str(res.moment) == (
            "11722395529361228377803393250351990111481/"
            "1057224796191373252798177975152000000"
        )


def test_criterion_3_cross_path_identity():
    with _Budget("criterion 3 (Q via classes == R, exact)", 120.0):
        checked = 0
        for n in range(2, 7):
            for sigma in SIGMA_GRID + [F(2, n)]:
                tf = fejer(sigma)
                for a in mo.valid_a_range(tf, n):
                    if a < 1:
                        continue
                    assert mo.Q_n_via_classes(tf, n, a) == mo.R_moment(tf, n, a), (
                        sigma, n, a,
                    )
                    checked += 1
        assert checked >= 25
        print(f"  exact equalities checked: {checked}")


def test_criterion_4_oracle_concordance():
    with _Budget("criterion 4 (quadrature oracle, 1e-7)", 120.0):
        for sigma in SIGMA_GRID:
            tf = fejer(sigma)
            assert abs(oracle_sigma_phi_sq(tf) - float(mo.sigma_phi_sq(tf))) <= 1e-7
            for n in range(2, 5):
                if sigma > F(2, n):
                    continue
                for a in mo.valid_a_range(tf, n):
                    if a < 1:
                        continue
                    exact = float(mo.R_moment(tf, n, a))
                    assert abs(qd.oracle_R_moment(tf, n, a) - exact) <= 1e-7, (sigma, n, a)
                for ell in range(0, min(n, 3)):
                    exact = float(mo.X_xi(tf, n, ell))
                    assert abs(oracle_X_xi(tf, n, ell) - exact) <= 1e-7, (sigma, n, ell)


def test_criterion_5_combinatorial_suite():
    with _Budget("criterion 5 (combinatorial lemmas)", 600.0):
        for n in range(2, 8):
            for a in range(1, (n + 1) // 2 + 1):
                table = sop.sum_TA_all(n, a, t_max=3)
                for f in range(1, a):
                    got = table.get(sop.one_class(n, f), F(0))
                    assert got == 2 * (-1) ** (n + f + 1) * comb(n, f), (n, a, f)
                for key, val in table.items():
                    if len(key) >= 2 and val != 0:
                        assert not sop.tuple_feasible(key, n, a), (n, a, key, val)
        for k in range(1, 13):
            assert sop.soshnikov_coeff(k) == (1 if k == 1 else 0)
        for k in range(13):
            assert sop.exp_neg_coeff(k) == F((-1) ** k, factorial(k))
        for f in range(1, 11):
            for n in (2 * f, 2 * f + 1):
                assert cr.verify_single_simp(n, f), (n, f)
            for g in range(f + 1):
                assert cr.verify_h_vanishes(f, g), (f, g)


def test_criterion_6_arithmetic_suite():
    with _Budget("criterion 6 (arithmetic identities)", 180.0):
        for q in range(1, 201):
            for n in range(1, 201):
                arith.ramanujan(n, q)  # raises on three-way disagreement
        for q in range(1, 51):
            for chi in arith.enumerate_characters(q):
                for n in range(0, 51):
                    arith.gauss_sum(chi, n)  # primitive bound / principal identity
        for q in range(1, 101):
            for m in range(0, 21):
                for n in range(0, 21):
                    arith.kloosterman(m, n, q)  # Weil-type bound enforced
        checked = 0
        for N in (3, 5, 7):
            for b in range(1, 21):
                if b % N == 0:
                    continue
                for Q in range(1, 31):
                    if Q % N == 0:
                        continue
                    for m in range(1, 6):
                        if m % N == 0:
                            continue
                        assert arith.verify_kloosterman_factorization(N, b, Q, m), (
                            N, b, Q, m,
                        )
                        checked += 1
        print(f"  factorization cases checked: {checked}")


# ---------------------------------------------------------------------------
# criterion 7: the statistical RMT gate (shared collections)
# ---------------------------------------------------------------------------

RMT_SEED = 123
RMT_SAMPLES = 20000


def test_criterion_7_rmt_statistical_gate():
    """The moments are centred on the exact finite-M mean, so the mock-Gaussian
    orders can be gated at the full sample count."""
    with _Budget("criterion 7 (RMT statistical gate)", 60.0):
        t35 = fejer(F(3, 5))
        rmt_collections = {}
        for M in (100, 101):
            spec = rmt.EnsembleSpec(M=M, samples=RMT_SAMPLES, seed=RMT_SEED)
            K = rmt.fourier_cutoff(t35, M)
            rmt_collections[M] = (spec, list(rmt.sample_verblunsky(spec, K)))
        predictions = {100: F(325, 972), 101: F(323, 972)}
        for M, (spec, alpha) in rmt_collections.items():
            table = rmt.fourier_table(t35, M)
            z = rmt.z_values_for(table, spec, alpha)
            mean_row, var_row = rmt.moment_rows(t35, M, table, z, 2)
            assert mean_row["predicted"] == F(13, 6)
            mean_err = abs(mean_row["empirical"] - float(mean_row["predicted"]))
            assert mean_err <= max(4 * mean_row["stderr"], 0.05), (M, mean_err)
            assert var_row["predicted"] == predictions[M]
            var_err = abs(var_row["empirical"] - float(var_row["predicted"]))
            assert var_err <= max(4 * var_row["stderr"], 0.02), (M, var_err)
            print(f"  M={M}: mean err {mean_err:.4f}, var err {var_err:.4f}")

        t14 = fejer(F(1, 4))
        gaussian = {2: F(1, 3), 3: F(0), 4: 3 * F(1, 3) ** 2}
        for M, (spec, alpha) in rmt_collections.items():
            table = rmt.fourier_table(t14, M)
            z = rmt.z_values_for(table, spec, alpha)
            for r in rmt.moment_rows(t14, M, table, z, 4)[1:]:
                n = r["n"]
                assert r["predicted"] == gaussian[n], (M, n)
                err = abs(r["empirical"] - float(r["predicted"]))
                assert err <= 4 * r["stderr"], (M, n, err, 4 * r["stderr"])
                print(f"  mock-Gaussian M={M} n={n}: err {err:.4f} <= {4 * r['stderr']:.4f}")


def test_criterion_8_qn_monte_carlo():
    with _Budget("criterion 8 (Q_n Monte Carlo oracle)", 120.0):
        est, se = oracle_Qn_mc(fejer(F(3, 5)), 2, 1, 10**6, seed=12345)
        assert abs(est - float(F(1, 972))) <= 3 * se
        print(f"  estimate {est:.3e} vs 1/972, z = {(est - float(F(1,972)))/se:+.2f}")


def test_criterion_9_invariant_sweeps():
    """At least 200 random cases per module invariant group (the per-module
    hypothesis suites run many more; this keeps the gate self-contained)."""
    with _Budget("criterion 9 (random invariant sweeps)", 600.0):
        rng = random.Random(2024)

        # exactpoly: convolution commutes/associates, integrals multiply
        from splitmoments import exactpoly as ep

        def rand_poly(max_pieces=3, max_deg=2):
            cuts = sorted(rng.sample(range(-6, 7), rng.randint(2, max_pieces + 1)))
            spans = []
            for lo, hi in zip(cuts, cuts[1:]):
                deg = rng.randint(0, max_deg)
                spans.append(
                    (F(lo, 2), F(hi, 2), [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg + 1)])
                )
            return ep.from_global_pieces(spans)

        for _ in range(200):
            p, q = rand_poly(), rand_poly()
            c = ep.convolve(p, q)
            assert c == ep.convolve(q, p)
            assert ep.integral(c) == ep.integral(p) * ep.integral(q)
        for _ in range(200):
            p, q, r = (rand_poly(max_pieces=2, max_deg=1) for _ in range(3))
            assert ep.convolve(ep.convolve(p, q), r) == ep.convolve(p, ep.convolve(q, r))

        # testfn: structural invariants and transform-power additivity
        from splitmoments import testfn as tfm

        sigmas = [F(rng.randint(1, 9), rng.randint(10, 29)) for _ in range(10)]
        tfs = {s: fejer(s) for s in sigmas}
        for _ in range(200):
            s = rng.choice(sigmas)
            tf = tfs[s]
            assert reflect(tf.fhat) == tf.fhat
            assert tf.fhat.support == (-s, s)
            m1, m2 = rng.randint(1, 3), rng.randint(1, 3)
            lhs = tfm.phi_power_hat(tf, m1 + m2)
            rhs = ep.convolve(tfm.phi_power_hat(tf, m1), tfm.phi_power_hat(tf, m2))
            assert lhs == rhs

        # moments: a-independence, sign symmetry, mock-Gaussian degeneration,
        # and the one-step collapse recursion of the signed-fold integrals
        for _ in range(200):
            n = rng.randint(2, 5)
            sigma = F(rng.randint(1, 8), rng.randint(9, 24))
            if sigma > F(2, n):
                continue
            tf = tfs.setdefault(sigma, fejer(sigma))
            vals = {mo.S_correction(tf, n, a) for a in mo.valid_a_range(tf, n)}
            assert len(vals) == 1, (sigma, n, vals)
            a = mo.minimal_a(tf, n)
            plus = mo.predicted_centered_moment(tf, n, a, "plus")
            minus = mo.predicted_centered_moment(tf, n, a, "minus")
            gauss = (
                mo.double_factorial(n - 1) * mo.sigma_phi_sq(tf) ** (n // 2)
                if n % 2 == 0
                else 0
            )
            assert plus + minus == 2 * gauss
            if sigma < F(1, n):
                assert a == 0 and mo.S_correction(tf, n, 0) == 0
        for _ in range(200):
            n = rng.randint(2, 5)
            sigma = rng.choice(sigmas)
            tf = tfs[sigma]
            alpha = rng.randint(0, n - 2)
            delta = rng.randint(1, n - 1 - alpha)
            lhs = I_integral(tf, n, alpha, delta)
            rhs = 2 * I_integral(tf, n, alpha, delta - 1) - I_integral(
                tf, n, alpha + 1, delta - 1
            )
            assert lhs == rhs, (sigma, n, alpha, delta)

        # sop: definitional sign condition of the J sets
        for _ in range(200):
            n = rng.randint(2, 7)
            lam = rng.choice(list(sop.compositions(n)))
            eps = tuple(rng.choice([-1, 1]) for _ in range(n))
            s = cr.SystemOfParameters(lam, eps)
            a = rng.randint(1, (n + 1) // 2)
            for ell, J, zeta in cr.j_sets(s, a):
                members = {
                    j for j in range(1, n + 1)
                    if cr.eta(s, ell, j) * eps[j - 1] == zeta
                }
                assert members == J

        # linfeas: vertex witnesses imply Fourier-Motzkin feasibility
        for _ in range(200):
            n = rng.randint(3, 6)
            a = rng.randint(1, n - 1)
            t = rng.randint(1, 3)
            subsets = [
                frozenset(rng.sample(range(1, n + 1), rng.randint(0, n // 2)))
                for _ in range(t)
            ]
            rows = [
                linfeas.Constraint(
                    [F(1) if (i + 1) in I else F(-1) for i in range(n)],
                    F(-1),
                    strict=True,
                )
                for I in subsets
            ]
            if cr.box_vertex_witness(rows, n, F(1, n - a)) is not None:
                assert sop.tuple_feasible(subsets, n, a)

        # arith: three-way Ramanujan agreement on random pairs
        for _ in range(200):
            arith.ramanujan(rng.randint(1, 300), rng.randint(1, 150))

        # rmt: eigenangle negation symmetry and determinant constraint
        gen = np.random.default_rng(99)
        for _ in range(200):
            M = rng.randint(2, 12)
            U = rmt.sample_haar_so(M, gen)
            s = rmt.eigenangles(U)  # construction enforces the symmetry
            total = sum(s.angles)
            assert abs((total + np.pi) % (2 * np.pi) - np.pi) < 1e-8
