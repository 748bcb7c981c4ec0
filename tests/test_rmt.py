"""The Szego power traces against the cosine reference, the sampler against
the dense Haar reference, eigenangles, the linear statistic, and small-M
moment gates."""

import hashlib
import math
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import stats

import rmt_reference as ref
from splitmoments import rmt
from splitmoments.errors import DomainError, InvariantViolation, ResourceLimitError
from splitmoments.testfn import fejer


def draw(spec):
    """Every sample's Verblunsky coefficients as one array (the blocks join
    into one draw whatever their length, so any K will do)."""
    return np.concatenate(list(rmt.sample_verblunsky(spec, spec.M)))


def haar_z(tf, spec):
    """Z per sample, drawn in the blocks that ``rmt`` traces tf with."""
    K = rmt.fourier_cutoff(tf, spec.M)
    return rmt.z_values_for(rmt.fourier_table(tf, spec.M), spec, rmt.sample_verblunsky(spec, K))


class TestHaarSampling:
    def test_orthogonal_and_special(self):
        rng = np.random.default_rng(1)
        for M in [2, 5, 24]:
            U = rmt.sample_haar_so(M, rng)
            assert np.max(np.abs(U.T @ U - np.eye(M))) < 1e-10
            assert abs(np.linalg.det(U) - 1.0) < 1e-8

    def test_first_coordinate_marginal(self):
        # first column is uniform on the sphere; its first coordinate has
        # density prop. to (1 - x^2)^{(M-3)/2} = affine image of a Beta
        M, n_samples, n_bins = 6, 8000, 16
        rng = np.random.default_rng(5)
        xs = np.array([rmt.sample_haar_so(M, rng)[0, 0] for _ in range(n_samples)])
        alpha = (M - 1) / 2
        edges = 2 * stats.beta.ppf(np.linspace(0, 1, n_bins + 1), alpha, alpha) - 1
        counts, _ = np.histogram(xs, bins=edges)
        res = stats.chisquare(counts)
        assert res.pvalue > 0.01

    def test_rejects_small_M(self):
        with pytest.raises(DomainError):
            rmt.sample_haar_so(1, np.random.default_rng(0))


class TestEigenangles:
    def test_identity(self):
        s = rmt.eigenangles(np.eye(6))
        assert s.angles == (0.0,) * 6

    def test_rotation_block(self):
        a = 1.1
        R = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        assert sorted(rmt.eigenangles(R).angles) == pytest.approx([-a, a])

    def test_angle_sum_zero_mod_2pi(self):
        rng = np.random.default_rng(2)
        for M in [4, 7, 12]:
            U = rmt.sample_haar_so(M, rng)
            total = sum(rmt.eigenangles(U).angles)
            assert abs((total + math.pi) % (2 * math.pi) - math.pi) < 1e-8

    def test_fast_matches_dense(self):
        rng = np.random.default_rng(3)
        for M in [5, 16, 41, 100, 101]:
            U = rmt.sample_haar_so(M, rng)
            fast = np.sort(rmt.eigenangles(U).angles)
            dense = np.sort(rmt.eigenangles_dense(U).angles)
            assert np.allclose(fast, dense, atol=1e-9)

    def test_negation_symmetry_enforced(self):
        with pytest.raises(InvariantViolation):
            rmt.EigenangleSample(angles=(0.3, 0.5, -0.3))

    def test_odd_parity_has_plus_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            U = rmt.sample_haar_so(9, rng)
            rmt.eigenangles(U).check_odd_parity()


def half_cosines(sample):
    """The floor(M/2) cosines cos theta_j of a reference sample's angle pairs."""
    a = np.sort(np.abs(sample.angles))
    if len(a) % 2:
        a = a[1:]  # the fixed angle 0 of SO(odd)
    return np.cos(a[::2])


def z_of(table, M, cosines):
    """Z through the reference route for rows of floor(M/2) cosines."""
    return ref.z_from_cosines(table, M, np.asarray(cosines))


def f_m(table, M, theta):
    """F_M at each theta, M even: M/2 pairs (theta, -theta) have Z = M F_M(theta)."""
    thetas = np.atleast_1d(theta)
    cosines = np.repeat(np.cos(thetas)[:, None], M // 2, axis=1)
    return z_of(table, M, cosines) / M


def z_direct(table, M, thetas):
    """Z by np.cos over all M angles +-theta_j (and 0 for odd M)."""
    coeffs = np.array([float(c) for c in table])
    k = np.arange(1, len(coeffs))
    angles = np.concatenate([thetas, -thetas, np.zeros((len(thetas), M % 2))], axis=1)
    f = coeffs[0] + 2 * np.cos(angles[:, :, None] * k) @ coeffs[1:]
    return f.sum(axis=1) / M


# fhat(0), fhat(1/2) of fejer(1/2) at M = 2: Z is constant there, which
# fourier_table refuses (the rmt cases of test_cli.py), so it is written out
M2_HALF = (F(2), F(0))


class TestFMValue:
    def test_periodicity(self):
        table = rmt.fourier_table(fejer(F(3, 5)), 10)
        for th in [0.3, 1.7, -2.0]:
            assert f_m(table, 10, th)[0] == pytest.approx(
                f_m(table, 10, th + 2 * math.pi)[0], abs=1e-12
            )

    def test_m2_value_at_zero(self):
        # (1/2)[fhat(0) + 2 fhat(1/2)] = (1/2)(2 + 0) = 1 for sigma = 1/2
        assert M2_HALF == tuple(fejer(F(1, 2)).fhat_at(F(k, 2)) for k in (0, 1))
        assert f_m(M2_HALF, 2, 0.0)[0] == pytest.approx(1.0)

    def test_mean_over_circle(self):
        # only the k=0 term survives: integral over [0, 2pi] is 2 pi fhat(0)/M
        tf = fejer(F(1, 2))
        M = 8
        th = np.linspace(0, 2 * math.pi, 20001)[:-1]
        avg = float(np.mean(f_m(rmt.fourier_table(tf, M), M, th)))
        assert avg == pytest.approx(float(tf.fhat_at(0)) / M, abs=1e-9)

    def test_boundary_term_weight(self):
        # sigma*M integer: k = sigma*M enters with weight fhat(sigma) = 0
        tf = fejer(F(1, 2))
        table = rmt.fourier_table(tf, 4)
        assert len(table) == 3  # k = 0, 1, 2
        assert table[-1] == 0


class TestFourierTable:
    def test_one_table_per_rmt_run(self, monkeypatch, capsys):
        # the weights, the finite-M mean and the report's centre all read one
        # table of K + 1 = 61 values; fhat(1) and the M -> infinity mean
        # (fhat(0)) are the only other evaluations
        from splitmoments import cli
        from splitmoments.testfn import TestFunction

        calls = []
        fhat_at = TestFunction.fhat_at
        monkeypatch.setattr(TestFunction, "fhat_at",
                            lambda tf, y: calls.append(y) or fhat_at(tf, y))
        assert cli.main(["rmt", "--M", "100", "--sigma", "3/5", "--samples", "20",
                         "--nmax", "2"]) in (0, 1)
        assert 61 <= len(calls) <= 60 + 3, len(calls)


class TestZValue:
    def test_identity_matrix(self):
        s = rmt.eigenangles(np.eye(2))
        assert z_of(M2_HALF, 2, [half_cosines(s)])[0] == pytest.approx(2.0)

    def test_conjugation_invariance(self):
        table = rmt.fourier_table(fejer(F(3, 5)), 8)
        rng = np.random.default_rng(6)
        U = rmt.sample_haar_so(8, rng)
        Q = rmt.sample_haar_so(8, rng)
        samples = [rmt.eigenangles(U), rmt.eigenangles(Q @ U @ Q.T)]
        z1, z2 = z_of(table, 8, [half_cosines(s) for s in samples])
        assert z1 == pytest.approx(z2, abs=1e-8)

    def test_real_valued(self):
        table = rmt.fourier_table(fejer(F(3, 5)), 10)
        rng = np.random.default_rng(7)
        U = rmt.sample_haar_so(10, rng)
        z = z_of(table, 10, [half_cosines(rmt.eigenangles(U))])
        assert z.dtype == np.float64 and z.shape == (1,)

    @pytest.mark.parametrize("M", [2, 3, 100, 101])
    def test_recurrence_matches_cos(self, M):
        table = rmt.fourier_table(fejer(F(3, 5)), M)
        thetas = np.random.default_rng(M).uniform(0, math.pi, size=(50, M // 2))
        got = z_of(table, M, np.cos(thetas))
        assert np.max(np.abs(got - z_direct(table, M, thetas))) < 1e-12


class TestSzegoTraces:
    """The Szego power traces against the eigensolved cosine route."""

    @pytest.mark.parametrize("M", [2, 3, 10, 11, 100, 101])
    def test_matches_cosine_route(self, M):
        alpha = draw(rmt.EnsembleSpec(M=M, samples=200, seed=5))
        cosines = ref.jacobi_cosines(alpha)
        for K in [M // 4, 3 * M // 5, M] + ([2 * M] if M == 11 else []):
            got = rmt._block_traces(alpha, M, K)
            assert got.shape == (200, K + 1)
            assert np.max(np.abs(got - ref.chebyshev_traces(cosines, M, K))) <= 1e-9, K

    @pytest.mark.parametrize("samples", [1, 511, 512, 513, 1300])
    def test_blocks_split_nothing(self, samples):
        # a sample's traces and Z do not depend on the block they are made in
        spec = rmt.EnsembleSpec(M=21, samples=samples, seed=3)
        alpha = draw(spec)
        tf = fejer(F(3, 5))
        traces = rmt._block_traces(alpha, 21, 12)
        assert rmt._block_rows(12) == 512  # the block length sampled around
        table = rmt.fourier_table(tf, 21)
        z = rmt.z_values_for(table, spec, rmt.sample_verblunsky(spec, 12))
        for i, j in [(0, samples), (0, 1), (samples // 3, samples), (samples - 1, samples)]:
            assert np.array_equal(traces[i:j], rmt._block_traces(alpha[i:j], 21, 12)), (i, j)
            part = rmt.EnsembleSpec(M=21, samples=j - i, seed=3)
            assert np.array_equal(z[i:j], rmt.z_values_for(table, part, [alpha[i:j]])), (i, j)

    def test_traces_and_z_pinned(self):
        # sha256 over the bytes of the traces at every K <= 2M and of Z at five
        # sigma, taken before the recursion carried Phi alone: any rewrite of
        # the trace stage must keep every float bit for bit
        digest = hashlib.sha256()
        for M in (2, 3, 4, 5, 10, 11, 21, 100, 101):
            spec = rmt.EnsembleSpec(M=M, samples=300, seed=M)
            alpha = draw(spec)
            for K in range(1, 2 * M + 1):
                digest.update(rmt._block_traces(alpha[:40], M, K).tobytes())
            for sigma in (F(1, 10), F(1, 4), F(1, 2), F(3, 5), F(1)):
                # the table written out, since fourier_table refuses a constant Z
                tf = fejer(sigma)
                K = rmt.fourier_cutoff(tf, M)
                table = tuple(tf.fhat_at(F(k, M)) for k in range(K + 1))
                if any(table[1:]):
                    assert table == rmt.fourier_table(tf, M)
                z = rmt.z_values_for(table, spec, rmt.sample_verblunsky(spec, K))
                digest.update(z.tobytes())
        assert digest.hexdigest() == (
            "b13ea6980a133c9ed5510ce66acf5c0b0b36d25f91796737142a476449fc3913")

    @pytest.mark.parametrize("M, sigma, samples", [
        (100, F(3, 5), 2000), (101, F(1, 4), 2000), (400, F(1, 10), 600),
    ], ids=["100-3/5", "101-1/4", "400-1/10"])
    def test_resource_estimate_covers_the_peak(self, M, sigma, samples, monkeypatch):
        # check_resources counts every float64 array a run holds: with the
        # budget set to the traced peak of z_values_for, it refuses the run
        tf = fejer(sigma)
        K = rmt.fourier_cutoff(tf, M)
        table = rmt.fourier_table(tf, M)
        spec = rmt.EnsembleSpec(M=M, samples=samples, seed=1)
        warm = rmt.EnsembleSpec(M=M, samples=3, seed=1)
        rmt.z_values_for(table, warm, rmt.sample_verblunsky(warm, K))  # warm the caches
        tracemalloc.start()
        try:
            rmt.z_values_for(table, spec, rmt.sample_verblunsky(spec, K))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(rmt, "_MEMORY_BUDGET", peak)
        with pytest.raises(ResourceLimitError, match="GiB"):
            rmt.check_resources(spec, K)

    def test_blocks_must_cover_the_samples(self):
        spec = rmt.EnsembleSpec(M=21, samples=600, seed=3)
        alpha = draw(spec)
        with pytest.raises(InvariantViolation, match="599 rows"):
            rmt.z_values_for(rmt.fourier_table(fejer(F(3, 5)), 21), spec, [alpha[:599]])

    def test_holds_one_block_of_traces(self):
        # the coefficients are drawn and Z is contracted block by block: the
        # peak allocation is the Z array and one block, not the samples x
        # (K + 1) traces (K = 2 here) or the samples x 1 coefficients
        samples = 200_000
        spec = rmt.EnsembleSpec(M=4, samples=samples, seed=1)
        tf = fejer(F(1, 2))
        warm = rmt.EnsembleSpec(M=4, samples=10, seed=1)
        haar_z(tf, warm)  # warm the transform cache
        tracemalloc.start()
        try:
            z = haar_z(tf, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert z.shape == (samples,)
        assert peak < 2 * 8 * samples, peak

    @pytest.mark.parametrize("M, mean, var", [
        (20, 2.045406605771411, 0.31570718116121926),
        (21, 2.128694817362016, 0.32627833752894964),
    ], ids=["20", "21"])
    def test_pinned_z_moments(self, M, mean, var):
        # taken from the eigensolved cosine route (rmt_reference) on the same stream
        spec = rmt.EnsembleSpec(M=M, samples=200, seed=1)
        z = haar_z(fejer(F(3, 5)), spec)
        assert float(np.mean(z)) == pytest.approx(mean, rel=1e-12, abs=0)
        assert float(np.var(z, ddof=1)) == pytest.approx(var, rel=1e-12, abs=0)


class TestSamplerAgainstReference:
    """The Killip-Nenciu samples against the dense Haar route, in distribution."""

    @pytest.mark.parametrize("M", [20, 21])
    def test_two_sample_ks(self, M):
        spec = rmt.EnsembleSpec(M=M, samples=2000, seed=31)
        alpha = draw(spec)
        fast = ref.jacobi_cosines(alpha)
        dense_spec = rmt.EnsembleSpec(M=M, samples=2000, seed=32)
        dense = np.array([half_cosines(s) for s in rmt.collect_angle_samples(dense_spec)])
        assert fast.shape == dense.shape == (2000, M // 2)
        assert stats.ks_2samp(fast.ravel(), dense.ravel()).pvalue > 0.01
        table = rmt.fourier_table(fejer(F(3, 5)), M)
        z = rmt.z_values_for(table, spec, [alpha])
        assert stats.ks_2samp(z, z_of(table, M, dense)).pvalue > 0.01

    @pytest.mark.parametrize("M", [10, 11])
    def test_pooled_power_traces(self, M):
        # E Tr U^k over SO(M) is 1 for even k and 0 for odd k, 0 < k < M
        spec = rmt.EnsembleSpec(M=M, samples=20000, seed=17)
        alpha = draw(spec)
        traces = rmt._block_traces(alpha, M, M - 1)
        assert np.all(traces[:, 0] == M)
        for k in range(1, M):
            col = traces[:, k]
            err = abs(col.mean() - (1 - k % 2))
            assert err <= 4 * col.std(ddof=1) / np.sqrt(len(col)), (k, err)
        table = rmt.fourier_table(fejer(F(1, 2)), M)
        z = rmt.z_values_for(table, spec, [alpha])
        err = abs(z.mean() - float(rmt.finite_mean(table, M)))
        assert err <= 4 * z.std(ddof=1) / np.sqrt(len(z))

    def test_finite_mean_exact(self):
        tf = fejer(F(3, 5))
        assert rmt.finite_mean(rmt.fourier_table(tf, 100), 100) == F(43, 20)
        assert rmt.finite_mean(rmt.fourier_table(tf, 101), 101) == F(21935, 10201)

    def test_finite_mean_domain(self):
        with pytest.raises(DomainError, match="sigma <= 1"):
            rmt.fourier_table(fejer(F(3, 2)), 10)


class TestReproducibility:
    def test_bit_identical_streams(self):
        spec = rmt.EnsembleSpec(M=8, samples=50, seed=99)
        a = draw(spec)
        assert np.array_equal(a, draw(spec))
        other = rmt.EnsembleSpec(M=8, samples=50, seed=100)
        assert not np.array_equal(a, draw(other))

    def test_stream_unchanged(self):
        # drawn by the one-generator-per-run sampler; float repr
        # round-trips, so == is bit identity
        spec = rmt.EnsembleSpec(M=7, samples=2, seed=1)
        assert draw(spec).tolist() == [
            [-0.1738067809721784, -0.6127010952368908, -0.3930583442246829,
             -0.6185660448452404, -0.8454512543180892],
            [-0.20921273593231082, -0.9084755804488442, -0.061334450344810554,
             -0.307326773193628, -0.7556368218260174],
        ]

    @pytest.mark.parametrize("M", [8, 101])
    @pytest.mark.parametrize("k", [1, 300])
    def test_shorter_run_is_a_prefix(self, M, k):
        long = draw(rmt.EnsembleSpec(M=M, samples=2000, seed=7))
        short = draw(rmt.EnsembleSpec(M=M, samples=k, seed=7))
        assert np.array_equal(long[:k], short)

    @pytest.mark.parametrize("M", [4, 100, 101])
    def test_blocks_join_into_one_draw(self, M):
        # drawing block by block from the one generator gives the stream of
        # one Beta call over every sample, bit for bit; at sigma = 3/5 the
        # block is 2^14 // (K + 1) samples, clipped to [256, 512]
        spec = rmt.EnsembleSpec(M=M, samples=2000, seed=7)
        blocks = list(rmt.sample_verblunsky(spec, 3 * M // 5))
        assert [len(b) for b in blocks] == {
            4: [512, 512, 512, 464], 100: [268] * 7 + [124], 101: [268] * 7 + [124]}[M]
        s, t = rmt._verblunsky_shapes(M)
        whole = np.random.default_rng(7).beta(s, t, size=(2000, len(s))) * -2 + 1
        assert np.array_equal(np.concatenate(blocks), whole)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            rmt.EnsembleSpec(M=1, samples=10, seed=0)
        with pytest.raises(DomainError):
            rmt.EnsembleSpec(M=10, samples=0, seed=0)


class TestMomentEstimation:
    """Small-M statistical gates; the full acceptance gate runs M in {100, 101}."""

    def test_mean_and_variance_small_M(self):
        # the mean is centred on its exact SO(40) value, as the CLI gates it;
        # the M -> infinity limit 13/6 is 0.042 away from it
        tf = fejer(F(3, 5))
        spec = rmt.EnsembleSpec(M=40, samples=4000, seed=11)
        zv = haar_z(tf, spec)
        table = rmt.fourier_table(tf, spec.M)
        mean_row, var_row = rmt.moment_rows(tf, spec.M, table, zv, 2)
        assert abs(mean_row["empirical"] - float(rmt.finite_mean(table, spec.M))) <= max(
            4 * mean_row["stderr"], 2.0 / spec.M
        )
        assert abs(var_row["empirical"] - float(var_row["predicted"])) <= max(
            4 * var_row["stderr"], 2.0 / spec.M
        )

    def test_mock_gaussian_small_sigma(self):
        # the moments are centred on the exact SO(48) mean, which sits
        # O(1/(sigma M)) from the M -> infinity mean
        tf = fejer(F(1, 4))
        spec = rmt.EnsembleSpec(M=48, samples=400, seed=13)
        zv = haar_z(tf, spec)
        gauss = {2: 1 / 3, 3: 0.0}
        for r in rmt.moment_rows(tf, spec.M, rmt.fourier_table(tf, spec.M), zv, 3)[1:]:
            assert float(r["predicted"]) == pytest.approx(gauss[r["n"]], abs=1e-12)
            assert abs(r["empirical"] - gauss[r["n"]]) <= max(4 * r["stderr"], 2.0 / spec.M)

    def test_unsupported_order_labeled(self):
        tf = fejer(F(3, 5))  # 2/n < sigma for n >= 4
        spec = rmt.EnsembleSpec(M=12, samples=200, seed=3)
        zv = haar_z(tf, spec)
        by_n = {r["n"]: r for r in rmt.moment_rows(tf, spec.M, rmt.fourier_table(tf, 12), zv, 4)}
        assert by_n[2]["supported"] and by_n[3]["supported"]
        assert not by_n[4]["supported"]
        assert by_n[4]["predicted"] is None and by_n[4]["gate"] is None
        assert by_n[4]["passed"] is None and by_n[4]["note"]
        assert by_n[4]["empirical"] != 0.0  # still computed

    def test_rows_are_numpy_mean_and_std(self):
        # every row reduces its one private array in place; that is np.mean
        # and np.std(ddof=1) bit for bit, at every length
        tf = fejer(F(1, 2))
        table = rmt.fourier_table(tf, 10)
        centre = float(rmt.finite_mean(table, 10))
        rng = np.random.default_rng(0)
        for N in [*range(2, 300), 511, 512, 513, 2000, 20000, 100003]:
            z = rng.normal(2.0, 0.7, N)
            for row in rmt.moment_rows(tf, 10, table, z, 4):
                powers = z if row["n"] == 1 else (z - centre) ** row["n"]
                assert row["empirical"] == float(np.mean(powers)), (N, row["n"])
                assert row["stderr"] == float(np.std(powers, ddof=1) / np.sqrt(N)), (N, row["n"])

    def test_rows_hold_one_array_of_powers(self):
        # beyond the caller's Z values, the rows allocate one sample-sized
        # array at a time (a copy of Z for n = 1, then the powers), not two
        N = 200_000
        tf = fejer(F(1, 2))
        table = rmt.fourier_table(tf, 10)
        z = np.random.default_rng(1).normal(2.0, 0.7, N)
        rmt.moment_rows(tf, 10, table, z[:10], 4)  # warm the exact predictions
        tracemalloc.start()
        try:
            rmt.moment_rows(tf, 10, table, z, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * N, peak

    def test_stderr_positive_invariant(self):
        tf = fejer(F(1, 2))
        with pytest.raises(InvariantViolation):
            rmt.moment_rows(tf, 10, rmt.fourier_table(tf, 10), np.full(5, 2.0), 2)

    def test_overflowing_row_refused(self):
        # (Z - m)^2 fits a float here but its squared deviations do not: the
        # n = 2 row is refused by order, silently (no numpy warning)
        tf = fejer(F(1, 2))
        z = np.array([1e100, -1e100, 2e100])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="n=2 moment"):
                rmt.moment_rows(tf, 10, rmt.fourier_table(tf, 10), z, 2)

    def test_one_sample_refused(self):
        # one Z has no standard error: refused before any 0/0
        tf = fejer(F(1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="at least 2 samples"):
                rmt.moment_rows(tf, 10, rmt.fourier_table(tf, 10), np.array([2.0]), 2)

    def test_mean_bias_shrinks_with_M(self):
        # |bias(large M)| <= |bias(small M)| + 2 * combined stderr, averaged
        # over seeds (the M -> infinity statement, statistically)
        tf = fejer(F(3, 5))
        biases = {}
        errs = {}
        for M in (24, 96):
            bs, es = [], []
            for seed in (1, 2):
                spec = rmt.EnsembleSpec(M=M, samples=1500, seed=seed)
                zv = haar_z(tf, spec)
                rep = rmt.moment_rows(tf, M, rmt.fourier_table(tf, M), zv, 1)[0]
                bs.append(rep["empirical"] - float(rep["predicted"]))
                es.append(rep["stderr"])
            biases[M] = float(np.mean(bs))
            errs[M] = float(np.mean(es)) / len(bs) ** 0.5
        combined = 2 * (errs[24] ** 2 + errs[96] ** 2) ** 0.5
        assert abs(biases[96]) <= abs(biases[24]) + combined
