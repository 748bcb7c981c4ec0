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

with K = floor(sigma M); when sigma M is an integer the boundary term is
included with weight fhat(sigma).  Z(U) sums F_M over all M angles, so it
needs only the power traces Tr U^k for k <= K.  ``power_traces`` takes them
from the Szego recursion of the coefficients, truncated after u^K, and
Newton's identities, in blocks of samples; no eigenvalue is computed.

Reference route, kept for the tests that check the sampler against it:
Gaussian matrix -> QR -> fix signs so R has positive diagonal (Haar on O(M))
-> flip the last column when det = -1 (``sample_haar_so``), then the angle
multiset from the symmetric solver on (U + U^T)/2 (``eigenangles``) or the
dense nonsymmetric solver (``eigenangles_dense``), collected per seed by
``collect_angle_samples``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

import numpy as np

from .errors import DomainError, InvariantViolation, ResourceLimitError
from . import moments as mo
from .testfn import TestFunction

__all__ = [
    "EnsembleSpec",
    "EigenangleSample",
    "MomentReport",
    "sample_haar_so",
    "eigenangles",
    "eigenangles_dense",
    "collect_angle_samples",
    "check_resources",
    "sample_verblunsky",
    "power_traces",
    "z_values_for",
    "finite_mean",
    "estimate_centered_moments",
    "empirical_mean_check",
]

Parity = Literal["even", "odd"]


@dataclass(frozen=True)
class EnsembleSpec:
    M: int
    parity: Parity
    samples: int
    seed: int

    def __post_init__(self):
        if self.M < 2:
            raise DomainError("M must be >= 2")
        if self.parity not in ("even", "odd"):
            raise DomainError("parity must be 'even' or 'odd'")
        if self.M % 2 != (0 if self.parity == "even" else 1):
            raise DomainError(f"M={self.M} does not match parity {self.parity!r}")
        if self.samples < 1:
            raise DomainError("samples must be >= 1")


@dataclass(frozen=True)
class EigenangleSample:
    """All M eigenvalue arguments in (-pi, pi], conjugates doubly counted."""

    angles: tuple[float, ...]

    def __post_init__(self):
        a = np.asarray(self.angles)
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


def _fourier_coeffs(tf: TestFunction, M: int) -> np.ndarray:
    """fhat(k/M) for k = 0..floor(sigma M), exact evaluations to double."""
    K = (tf.sigma.numerator * M) // tf.sigma.denominator
    return np.array([float(tf.fhat_at(Fraction(k, M))) for k in range(K + 1)])


def collect_angle_samples(spec: EnsembleSpec) -> list[EigenangleSample]:
    """Reference angle samples through dense Haar matrices, index-ordered.

    Sample i uses a generator seeded by SeedSequence((seed, i)).
    """
    out = []
    for i in range(spec.samples):
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, i)))
        s = eigenangles(sample_haar_so(spec.M, rng))
        if spec.parity == "odd":
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


_BLOCK = 512  # samples per pass of the Szego recursion in ``power_traces``
_MEMORY_BUDGET = 1 << 31  # bytes of float64 arrays in one run
# Multiply-adds of the trace stage, samples * (M K + K^2 / 2).  They took 3.6 to
# 4.8 ns each at M = 100 to 4000 (2-core x86-64, numpy 2.4.6), so the cap is
# one to two minutes of tracing.
_WORK_BUDGET = 2 * 10**10


def check_resources(spec: EnsembleSpec, K: int) -> None:
    """Refuse, before any draw, a run over the memory or the work budget.

    The float64 estimate counts the Verblunsky coefficients, K + 2 outputs
    per sample (its traces and Z) and the work arrays of one
    ``power_traces`` block: its 2n steps and five (K + 1, block) arrays.
    At sigma = 3/5 it is about 28 MB for M = 100 with 20000 samples (the
    acceptance gate's size) and 4 MB with 2000.
    """
    n = spec.M // 2
    block = min(spec.samples, _BLOCK)
    floats = spec.samples * (2 * n - 1 + K + 2) + block * (2 * n + 5 * (K + 1))
    if 8 * floats > _MEMORY_BUDGET:
        raise ResourceLimitError(
            f"rmt at M={spec.M} with {spec.samples} samples needs about"
            f" {8 * floats / 2**30:.1f} GiB, over the budget of {_MEMORY_BUDGET >> 30} GiB")
    work = spec.samples * (spec.M * K + K * K // 2)
    if work > _WORK_BUDGET:
        raise ResourceLimitError(
            f"rmt at M={spec.M} with {spec.samples} samples and K={K} needs about"
            f" {work:.1e} multiply-adds, over the budget of {_WORK_BUDGET:.0e}")


def sample_verblunsky(spec: EnsembleSpec) -> np.ndarray:
    """(samples, 2 floor(M/2) - 1) array of the Verblunsky coefficients alpha_k.

    One generator, seeded by ``seed``, draws all the Beta variates in one
    call.  It fills the array row by row, so sample i depends only on the
    seed and i: the first k rows of any longer draw are the k-sample draw.
    """
    s, t = _verblunsky_shapes(spec.M)
    alpha = np.random.default_rng(spec.seed).beta(s, t, size=(spec.samples, len(s)))
    alpha *= -2
    alpha += 1
    return alpha


def power_traces(alpha: np.ndarray, M: int, K: int) -> np.ndarray:
    """(samples, K + 1) array of Tr U^k = sum over all M angles of cos(k theta).

    With alpha_{2n-1} = -1 appended, the 2n = 2 floor(M/2) eigenvalues other
    than the fixed 1 of odd M are the zeros of the Szego polynomial Phi_{2n},
    so det(I - u U) / (1 - u)^(M mod 2) = Phi*_{2n}(u) = sum_k c_k u^k
    (Simon 2005, *Orthogonal Polynomials on the Unit Circle*, 1.5).  The
    recursion

        Phi_{k+1}(u) = u Phi_k(u) - alpha_k Phi*_k(u),
        Phi*_{k+1}(u) = Phi*_k(u) - alpha_k u Phi_k(u),

    from Phi_0 = Phi*_0 = 1 runs modulo u^{K+1}, which closes on itself, and
    Newton's identities p_k = -k c_k - sum_{m<k} c_{k-m} p_m give the power
    sums of those eigenvalues: Tr U^k = p_k + (M mod 2).  Blocks of
    ``_BLOCK`` samples are laid out (K + 1, block), so each step is a few
    whole-array operations on arrays that stay in cache; before step j only
    the coefficients of u^0..u^j can be nonzero, so the step touches those.
    """
    out = np.empty((alpha.shape[0], K + 1))
    for i0 in range(0, alpha.shape[0], _BLOCK):
        out[i0 : i0 + _BLOCK] = _block_traces(alpha[i0 : i0 + _BLOCK], M, K)
    return out


def _block_traces(alpha: np.ndarray, M: int, K: int) -> np.ndarray:
    """``power_traces`` of one block of samples."""
    rows = alpha.shape[0]
    steps = np.empty((alpha.shape[1] + 1, rows))
    steps[:-1] = alpha.T
    steps[-1] = -1.0
    phi, star, nxt, tmp = (np.zeros((K + 1, rows)) for _ in range(4))
    phi[0] = star[0] = 1.0
    for j, a in enumerate(steps):
        d = min(j + 2, K + 1)  # rows of Phi_{j+1}, Phi*_{j+1} that can be nonzero
        np.multiply(star[:d], a, out=tmp[:d])
        np.negative(tmp[0], out=nxt[0])
        np.subtract(phi[: d - 1], tmp[1:d], out=nxt[1:d])
        np.multiply(phi[: d - 1], a, out=tmp[1:d])
        star[1:d] -= tmp[1:d]
        phi, nxt = nxt, phi
    traces = np.empty((K + 1, rows))
    traces[0] = M
    for k in range(1, K + 1):
        traces[k] = -k * star[k] - np.einsum("ms,ms->s", star[k - 1 : 0 : -1], traces[1:k])
    traces[1:] += M % 2
    return traces.T


def z_values_for(tf: TestFunction, spec: EnsembleSpec, alpha: np.ndarray) -> np.ndarray:
    """Z per sample from its Verblunsky coefficients (they do not depend on the test function)."""
    coeffs = _fourier_coeffs(tf, spec.M)
    weights = 2 * coeffs
    weights[0] = coeffs[0]
    return power_traces(alpha, spec.M, len(coeffs) - 1) @ weights / spec.M


def finite_mean(tf: TestFunction, M: int) -> Fraction:
    """Exact E[Z] over SO(M): fhat(0) + (2/M) sum_{even k <= K} fhat(k/M).

    E Tr U^k is 1 for even k and 0 for odd k when 0 < k < M; the only other
    term, k = M at sigma = 1, carries fhat(1), which must vanish.
    """
    if tf.sigma > 1 or tf.fhat_at(1) != 0:
        raise DomainError("finite-M mean requires sigma <= 1 and fhat(1) = 0")
    K = (tf.sigma.numerator * M) // tf.sigma.denominator
    even = sum((tf.fhat_at(Fraction(k, M)) for k in range(2, K + 1, 2)), Fraction(0))
    return tf.fhat_at(0) + Fraction(2, M) * even


@dataclass(frozen=True)
class MomentReport:
    n: int
    empirical: float
    stderr: float
    predicted: Fraction | None
    samples: int
    supported: bool
    note: str = ""

    def __post_init__(self):
        if self.samples > 1 and not self.stderr > 0:
            raise InvariantViolation("stderr must be positive for samples > 1")


def _report(n, values, predicted, supported, note=""):
    emp = float(np.mean(values))
    se = float(np.std(values, ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    return MomentReport(
        n=n,
        empirical=emp,
        stderr=se,
        predicted=predicted,
        samples=len(values),
        supported=supported,
        note=note,
    )


def estimate_centered_moments(
    tf: TestFunction,
    spec: EnsembleSpec,
    n_max: int,
    z_vals: np.ndarray,
) -> list[MomentReport]:
    """Empirical E[(Z - mu)^n] for 2 <= n <= n_max against exact predictions.

    ``z_vals`` holds one Z per sample (see :func:`z_values_for`).  Centering
    uses the exact limiting mean; the standard error is the plain iid error
    of the sample mean of (Z - mu)^n (the estimator is linear, so this
    coincides with its jackknife estimate).
    """
    mu = float(mo.mean_value(tf))
    centered = z_vals - mu
    sign = "plus" if spec.parity == "even" else "minus"
    reports = []
    for n in range(2, n_max + 1):
        supported = tf.sigma <= Fraction(2, n)
        predicted = None
        note = ""
        if supported:
            predicted = mo.predicted_centered_moment(
                mo.MomentSpec.with_minimal_a(tf, n, sign)
            )
        else:
            note = "sigma exceeds 2/n: no closed-form prediction at this order"
        reports.append(_report(n, centered**n, predicted, supported, note))
    return reports


def empirical_mean_check(tf: TestFunction, z_vals: np.ndarray) -> MomentReport:
    """Empirical E[Z] of the samples ``z_vals`` against the exact limiting mean."""
    if tf.sigma > 1:
        raise DomainError("mean comparison requires sigma <= 1")
    return _report(1, z_vals, mo.mean_value(tf), True)
