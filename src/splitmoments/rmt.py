"""Haar Monte Carlo over SO(even)/SO(odd) for the linear eigenvalue statistic.

The eigenvalues of U in SO(M) are the pairs exp(+-i theta_j), j = 1..n with
n = floor(M/2), plus a fixed eigenvalue 1 when M is odd.  By the Weyl
integration formula the cosines x_j = cos theta_j form a beta = 2 Jacobi
ensemble on [-1, 1] with weight (1 - x)^a (1 + x)^b, where a = b = -1/2 for
SO(2n) and a = 1/2, b = -1/2 for SO(2n+1).

Sampling (``sample_verblunsky``) follows the Killip-Nenciu model (Killip
and Nenciu 2004, *Matrix models for circular ensembles*, Thm 2; see also
Edelman and Sutton 2008, *The beta-Jacobi matrix model*): independent real
Verblunsky coefficients alpha_0..alpha_{2n-2} with Beta laws on [-1, 1],
and alpha_{2n-1} = -1, define a 2n x 2n CMV matrix whose eigenvalues are
the exp(+-i theta_j).  One generator seeded by ``seed`` draws every sample,
in index order, so the stream is bit-identical for a given seed and a
shorter run is a prefix of a longer one.

The statistic uses the finite Fourier sum

    F_M(theta) = (1/M) [ fhat(0) + 2 sum_{k=1}^{K} fhat(k/M) cos(k theta) ],

with K = floor(sigma M) (``fourier_cutoff``); when sigma M is an integer the
boundary term is included with weight fhat(sigma).  ``fourier_table`` makes
the one exact table of fhat(k/M), k <= K, that the weights and the finite-M
mean read.  Z(U) sums F_M over all M angles: it needs only Tr U^k, k <= K.
``_block_traces`` takes them from the Szego recursion of the coefficients
and Newton's identities, one block of ``_block_rows(K)`` samples at a time.
The recursion carries one array, Phi*_k (Phi_k's coefficients reversed),
until it would pass 2K + 2 coefficients, and then Phi_k and Phi*_k
truncated after u^K.  ``z_values_for`` keeps only each sample's Z; no
eigenvalue is computed.  ``moment_rows`` turns the Z values into the gated
rows of the ``rmt`` report.

Reference route, kept for the tests that check the sampler against it:
Gaussian matrix -> QR -> fix signs so R has positive diagonal (Haar on O(M))
-> flip the last column when det = -1 (``sample_haar_so``), then the angle
multiset from the symmetric solver on (U + U^T)/2 (``eigenangles``) or the
dense nonsymmetric solver (``eigenangles_dense``), collected per seed by
``collect_angle_samples``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError, InvariantViolation, ResourceLimitError
from . import moments as mo
from .testfn import TestFunction

__all__ = [
    "EnsembleSpec",
    "EigenangleSample",
    "sample_haar_so",
    "eigenangles",
    "eigenangles_dense",
    "collect_angle_samples",
    "fourier_cutoff",
    "fourier_table",
    "check_resources",
    "sample_verblunsky",
    "z_values_for",
    "finite_mean",
    "moment_rows",
]


class EnsembleSpec:
    """SO(M) with ``samples`` draws from ``seed``; M's parity picks SO(even) or SO(odd)."""

    __slots__ = ("M", "samples", "seed")

    def __init__(self, M: int, samples: int, seed: int):
        if M < 2:
            raise DomainError("M must be >= 2")
        if samples < 1:
            raise DomainError("samples must be >= 1")
        self.M, self.samples, self.seed = M, samples, seed


class EigenangleSample:
    """All M eigenvalue arguments in (-pi, pi], conjugates doubly counted."""

    __slots__ = ("angles",)

    def __init__(self, angles: tuple[float, ...]):
        self.angles = angles
        a = np.asarray(angles)
        # negation closure: pi is its own negation mod 2 pi
        canon = np.sort(np.where(np.isclose(np.abs(a), np.pi, atol=1e-9), np.pi, a))
        neg = np.sort(np.where(np.isclose(np.abs(a), np.pi, atol=1e-9), np.pi, -a))
        if not np.allclose(canon, neg, atol=1e-9):
            raise InvariantViolation("angle multiset not closed under negation")

    def check_odd_parity(self) -> None:
        if not any(abs(t) <= 1e-6 for t in self.angles):
            raise InvariantViolation("odd parity requires an eigenvalue at +1")


def sample_haar_so(M: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed element of SO(M)."""
    if M < 2:
        raise DomainError("M must be >= 2")
    g = rng.standard_normal((M, M))
    q, r = np.linalg.qr(g)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    q = q * d
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def eigenangles_dense(U: np.ndarray) -> EigenangleSample:
    """Reference route through the dense nonsymmetric eigensolver."""
    w = np.linalg.eigvals(U)
    return EigenangleSample(angles=tuple(np.angle(w)))


def eigenangles(U: np.ndarray) -> EigenangleSample:
    """Angle multiset via the symmetric solver on (U + U^T)/2.

    Unpaired interior cosines (possible only through numerical noise) fall
    back to the dense route.
    """
    c = np.linalg.eigvalsh((U + U.T) / 2.0)
    c = np.clip(c, -1.0, 1.0)
    th = np.sort(np.arccos(c))  # ascending in [0, pi]
    out: list[float] = []
    i = 0
    n = len(th)
    while i < n:
        t = th[i]
        if t <= 1e-6:
            out.append(0.0)
            i += 1
        elif np.pi - t <= 1e-6:
            out.append(np.pi)
            i += 1
        elif i + 1 < n and th[i + 1] - t <= 1e-7:
            mid = 0.5 * (t + th[i + 1])
            out.extend((mid, -mid))
            i += 2
        else:
            return eigenangles_dense(U)
    return EigenangleSample(angles=tuple(out))


def fourier_cutoff(tf: TestFunction, M: int) -> int:
    """K = floor(sigma M), the last k whose fhat(k/M) the statistic weights."""
    return (tf.sigma.numerator * M) // tf.sigma.denominator


def fourier_table(tf: TestFunction, M: int) -> tuple[Fraction, ...]:
    """The exact fhat(k/M) for k = 0..K, refusing sigma > 1, fhat(1) != 0 and a constant Z."""
    if tf.sigma > 1 or tf.fhat_at(1) != 0:
        raise DomainError("finite-M mean requires sigma <= 1 and fhat(1) = 0")
    table = tuple(tf.fhat_at(Fraction(k, M)) for k in range(fourier_cutoff(tf, M) + 1))
    if not any(table[1:]):
        raise DomainError(
            f"Z is constant on SO({M}) at sigma={tf.sigma}: fhat(k/{M}) = 0 for all k >= 1")
    return table


def collect_angle_samples(spec: EnsembleSpec) -> list[EigenangleSample]:
    """Reference angle samples through dense Haar matrices, index-ordered.

    Sample i uses a generator seeded by SeedSequence((seed, i)).
    """
    out = []
    for i in range(spec.samples):
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, i)))
        s = eigenangles(sample_haar_so(spec.M, rng))
        if spec.M % 2:
            s.check_odd_parity()
        out.append(s)
    return out


def _verblunsky_shapes(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Beta shapes (s_k, t_k) of alpha_0..alpha_{2n-2} for the cosines of SO(M).

    alpha_k has density prop. to (1 - x)^(s_k - 1) (1 + x)^(t_k - 1) on
    [-1, 1]; Killip-Nenciu Thm 2 at beta = 2 with the weight exponents a, b.
    """
    n = M // 2
    a, b = (-0.5, -0.5) if M % 2 == 0 else (0.5, -0.5)
    k = np.arange(2 * n - 1)
    even = k % 2 == 0
    s = np.where(even, (2 * n - k - 2) / 2 + a + 1, (2 * n - k - 3) / 2 + a + b + 2)
    t = np.where(even, (2 * n - k - 2) / 2 + b + 1, (2 * n - k - 1) / 2)
    return s, t


def _block_rows(K: int) -> int:
    """Samples per block: 2^14 // (K + 1), clipped to [256, 512].

    Each step of ``_block_traces`` is a few whole-array operations, so a
    block of rows * (K + 1) >= 2^14 elements keeps the per-call cost of a
    small K from dominating, and a large K still gets the smaller block.
    """
    return min(512, max(256, (1 << 14) // (K + 1)))


_MEMORY_BUDGET = 1 << 31  # bytes of float64 arrays in one run
# Multiply-adds of the trace stage, samples * (M K + K^2 / 2).  They took 3.6 to
# 4.8 ns each at M = 100 to 4000 (2-core x86-64, numpy 2.4.6), so the cap is
# one to two minutes of tracing.
_WORK_BUDGET = 2 * 10**10


def check_resources(spec: EnsembleSpec, K: int) -> None:
    """Refuse, before any draw, a run over the memory or the work budget.

    The float64 estimate counts one Z per sample; the arrays of one block of
    ``_block_rows(K)`` samples: its 2n - 1 Verblunsky coefficients, the two
    arrays of ``_block_traces`` (max(min(2n + 1, 2K + 2), K + 1)
    coefficients each) and four rows for Newton's identities and the
    weighted sum; the two buffers of ``np.getbufsize()`` elements that a
    broadcasting ufunc allocates; and the Beta shapes and Fourier weights.
    At sigma = 3/5 it is about 0.95 MB for M = 100 with 20000 samples (the
    acceptance gate's size) and 0.80 MB with 2000.
    """
    n = spec.M // 2
    rows = min(spec.samples, _block_rows(K))
    coefficients = max(min(2 * n + 1, 2 * K + 2), K + 1)
    floats = (spec.samples + rows * (2 * n - 1 + 2 * coefficients + 4)
              + 2 * np.getbufsize() + 2 * (2 * n - 1) + 2 * (K + 1))
    if 8 * floats > _MEMORY_BUDGET:
        raise ResourceLimitError(
            f"rmt at M={spec.M} with {spec.samples} samples needs about"
            f" {8 * floats / 2**30:.1f} GiB, over the budget of {_MEMORY_BUDGET >> 30} GiB")
    work = spec.samples * (spec.M * K + K * K // 2)
    if work > _WORK_BUDGET:
        raise ResourceLimitError(
            f"rmt at M={spec.M} with {spec.samples} samples and K={K} needs about"
            f" {work:.1e} multiply-adds, over the budget of {_WORK_BUDGET:.0e}")


def _draw(rng: np.random.Generator, s: np.ndarray, t: np.ndarray, rows: int) -> np.ndarray:
    alpha = rng.beta(s, t, size=(rows, len(s)))
    alpha *= -2
    alpha += 1
    return alpha


def sample_verblunsky(spec: EnsembleSpec, K: int) -> Iterator[np.ndarray]:
    """The Verblunsky coefficients alpha_k, in (rows, 2 floor(M/2) - 1) blocks.

    One generator, seeded by ``seed``, draws the Beta variates of
    ``_block_rows(K)`` samples at a time (fewer in the last block), K being
    the last power the blocks will be traced to; it sets only the block
    length.  The generator fills the rows in order, so the blocks join into
    the array that one draw of every row gives, and sample i depends only on
    the seed and i: the first k rows of any longer draw are the k-sample
    draw.  No block is referenced here once it is yielded.
    """
    s, t = _verblunsky_shapes(spec.M)
    rng = np.random.default_rng(spec.seed)
    rows = _block_rows(K)
    for i0 in range(0, spec.samples, rows):
        yield _draw(rng, s, t, min(rows, spec.samples - i0))


def _block_traces(alpha: np.ndarray, M: int, K: int) -> np.ndarray:
    """(rows, K + 1) array of Tr U^k = sum over all M angles of cos(k theta).

    With alpha_{2n-1} = -1 appended, the 2n = 2 floor(M/2) eigenvalues other
    than the fixed 1 of odd M are the zeros of the Szego polynomial Phi_{2n},
    so det(I - u U) / (1 - u)^(M mod 2) = Phi*_{2n}(u) = sum_k c_k u^k
    (Simon 2005, *Orthogonal Polynomials on the Unit Circle*, 1.5).  The
    recursion

        Phi_{k+1}(u) = u Phi_k(u) - alpha_k Phi*_k(u),
        Phi*_{k+1}(u) = Phi*_k(u) - alpha_k u Phi_k(u),

    starts from Phi_0 = Phi*_0 = 1, and Newton's identities
    p_k = -k c_k - sum_{m<k} c_{k-m} p_m give the power sums of those
    eigenvalues: Tr U^k = p_k + (M mod 2).

    The alpha are real, so Phi*_k(u) = u^k Phi_k(1/u): one array holds the
    k + 1 coefficients of Phi*_k, which are those of Phi_k reversed, and a
    step is Phi*_{k+1}[m] = Phi*_k[m] - alpha_k Phi*_k[k + 1 - m] for
    1 <= m <= k, with Phi*_{k+1}[0] = 1 and Phi*_{k+1}[k + 1] = -alpha_k
    written in advance.  Once Phi*_k would exceed 2K + 2 coefficients, only
    its low K + 1 and the low K + 1 of Phi_k (its top K + 1, reversed) can
    reach c_0..c_K, so the recursion carries those two arrays modulo
    u^{K+1}, which closes on itself; at sigma >= 1/2 it never gets there.
    Every coefficient comes from the same float operations in either form
    (adding -alpha_k times a coefficient rounds as subtracting alpha_k times
    it does).
    The block is laid out (coefficients, rows), so each step is two to five
    whole-array operations on rows that stay in cache.
    """
    rows, steps = alpha.shape[0], alpha.shape[1] + 1
    whole = min(steps, 2 * K + 1)  # steps on all of Phi*
    star = np.zeros((max(whole + 1, K + 1), rows))
    work = np.empty_like(star)
    star[0] = 1.0
    drawn = min(whole, steps - 1)
    np.negative(alpha[:, :drawn].T, out=star[1 : drawn + 1])  # star[j + 1] = -alpha_j
    star[drawn + 1 : whole + 1] = 1.0  # -alpha_{2n-1}, if the whole form reaches it
    for j in range(whole):
        np.multiply(star[j:0:-1], star[j + 1], out=work[:j])
        np.add(star[1 : j + 1], work[:j], out=star[1 : j + 1])
    if whole < steps:
        phi, nxt, tmp = work[: K + 1], star[K + 1 :], work[K + 1 :]
        phi[:] = star[: K : -1]
        star = star[: K + 1]
        for j in range(whole, steps):
            np.negative(alpha[:, j] if j < steps - 1 else -1.0, out=nxt[0])  # Phi_{j+1}[0]
            np.multiply(star[1:], nxt[0], out=tmp[1:])
            np.add(phi[:-1], tmp[1:], out=nxt[1:])
            np.multiply(phi[:-1], nxt[0], out=tmp[1:])
            star[1:] += tmp[1:]
            phi, nxt = nxt, phi
    traces = work[: K + 1]
    traces[0] = M
    np.multiply(star[1 : K + 1], -np.arange(1.0, K + 1)[:, None], out=traces[1:])
    row = np.empty(rows)
    for k in range(2, K + 1):
        traces[k] -= np.einsum("ms,ms->s", star[k - 1 : 0 : -1], traces[1:k], out=row)
    traces[1:] += M % 2
    return traces.T


def z_values_for(table: tuple[Fraction, ...], spec: EnsembleSpec,
                 blocks: Iterable[np.ndarray]) -> np.ndarray:
    """Z per sample, weighted by :func:`fourier_table`, from the blocks of
    Verblunsky coefficients that :func:`sample_verblunsky` yields.

    The blocks must hold ``spec.samples`` rows in all, in blocks of any
    length.  Each block's traces are weighted and summed over k as soon as
    they are made, and neither this loop nor the sampler keeps a block once
    it is used, so only one block of coefficients and traces is held at a
    time.  The sum runs elementwise in k order, so a sample's Z does not
    depend on its block.
    """
    coeffs = np.array([float(c) for c in table])
    weights = 2 * coeffs
    weights[0] = coeffs[0]
    K = len(table) - 1
    z = np.empty(spec.samples)
    i0 = 0
    for alpha in blocks:
        rows = len(alpha)
        z[i0 : i0 + rows] = sum(w * t for w, t in zip(weights, _block_traces(alpha, spec.M, K).T))
        i0 += rows
        del alpha  # held by nothing while the next block is drawn
    if i0 != spec.samples:
        raise InvariantViolation(f"{i0} rows of coefficients for {spec.samples} samples")
    z /= spec.M
    return z


def finite_mean(table: tuple[Fraction, ...], M: int) -> Fraction:
    """Exact E[Z] over SO(M): fhat(0) + (2/M) sum_{even k <= K} fhat(k/M).

    E Tr U^k is 1 for even k and 0 for odd k when 0 < k < M; the only other
    term, k = M at sigma = 1, carries fhat(1), which ``fourier_table`` checks is 0.
    """
    return table[0] + Fraction(2, M) * sum(table[2::2], Fraction(0))


def moment_rows(tf: TestFunction, M: int, table: tuple[Fraction, ...],
                z_vals: np.ndarray, n_max: int) -> list[dict]:
    """The ``rmt`` report rows: E[Z], then E[(Z - m)^n] for 2 <= n <= n_max.

    m is the exact finite-M mean of ``table`` (:func:`finite_mean`).  The mean
    is gated against m with the floor 0.05, each centred moment against its
    M -> infinity prediction (sign + for even M, - for odd, at the minimal a)
    with the finite-M allowance 2/M; an order with sigma > 2/n has no
    prediction and no gate.  The standard error is the plain iid error of the
    sample mean of Z or (Z - m)^n (the estimator is linear, so this coincides
    with its jackknife estimate; it needs two or more Z values), and
    ``z_score`` is measured from the centre of the gate.  A row whose mean or
    standard error overflows a float is refused (DomainError naming n).
    """
    N = len(z_vals)
    if N < 2:
        raise DomainError(f"moment rows need at least 2 samples, got {N}")
    centre = finite_mean(table, M)
    sign = "plus" if M % 2 == 0 else "minus"
    rows = []
    for n in range(1, n_max + 1):
        # np.mean and np.std(ddof=1), bit for bit, reduced in place in one
        # private array: Z itself for n = 1, (Z - m)^n after (overflow refused)
        with np.errstate(over="ignore", invalid="ignore"):
            if n == 1:
                values = z_vals.copy()
            else:
                values = z_vals - float(centre)
                values **= n
            mean = np.add.reduce(values) / N
            empirical = float(mean)
            values -= mean
            np.multiply(values, values, out=values)
            stderr = float(np.sqrt(np.add.reduce(values) / (N - 1)) / np.sqrt(N))
        del values  # before the next row makes its own
        if not (np.isfinite(empirical) and np.isfinite(stderr)):
            raise DomainError(f"the n={n} moment of Z overflows a float; lower nmax")
        if not stderr > 0:
            raise InvariantViolation(f"stderr of the n={n} row is {stderr}, not positive")
        supported = tf.sigma <= Fraction(2, n)
        predicted = target = gate = passed = z_score = None
        note = "" if supported else "sigma exceeds 2/n: no closed-form prediction at this order"
        if n == 1:
            predicted, target, floor = mo.mean_value(tf), centre, 0.05
        elif supported:
            predicted = mo.predicted_centered_moment(tf, n, mo.minimal_a(tf, n), sign)
            target, floor = predicted, 2.0 / M
        if target is not None:
            gate = max(4 * stderr, floor)
            passed = abs(empirical - float(target)) <= gate
            z_score = (empirical - float(target)) / stderr
        rows.append({
            "n": n,
            "empirical": empirical,
            "stderr": stderr,
            "predicted": predicted,
            "finite_M_mean": centre if n == 1 else None,
            "z_score": z_score,
            "samples": N,
            "supported": supported,
            "gate": gate,
            "passed": passed,
            "note": note,
        })
    return rows
