"""Haar Monte Carlo over SO(even)/SO(odd) for the linear eigenvalue statistic.

Sampling: Gaussian matrix -> QR -> fix signs so R has positive diagonal
(giving Haar on O(M)) -> flip the last column when det = -1 (pushing onto
SO(M)).  Per-sample generators are derived from (seed, sample_index), so the
stream is bit-identical for a given seed.

Eigenangles: for orthogonal U the symmetric matrix (U + U^T)/2 has the
eigenvalues cos(theta) with matching multiplicity, so the fast symmetric
solver recovers the angle multiset; angles are emitted as exact +- pairs
plus fixed angles 0 and pi.  A dense nonsymmetric route is kept as the
reference implementation (the contract is the multiset within 1e-9).

The statistic uses the finite Fourier sum

    F_M(theta) = (1/M) [ fhat(0) + 2 sum_{k=1}^{K} fhat(k/M) cos(k theta) ],

with K = floor(sigma M); when sigma M is an integer the boundary term is
included with weight fhat(sigma).  Z(U) sums F_M over all M angles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

import numpy as np

from .errors import DomainError, InvariantViolation
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
    "z_values_for",
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
    """Deterministic index-ordered angle samples for the ensemble.

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


def z_values_for(
    tf: TestFunction, spec: EnsembleSpec, samples: Sequence[EigenangleSample]
) -> np.ndarray:
    """Z over precollected samples (angles do not depend on the test function)."""
    coeffs = _fourier_coeffs(tf, spec.M)
    ks = np.arange(1, len(coeffs))
    angles = np.array([s.angles for s in samples])  # (N, M)
    acc = np.full(angles.shape[0], coeffs[0] * spec.M)
    chunk = max(1, int(2e7 // (angles.shape[1] * max(len(ks), 1))))
    for i0 in range(0, angles.shape[0], chunk):
        block = angles[i0 : i0 + chunk]  # (b, M)
        cosines = np.cos(block[:, None, :] * ks[None, :, None])  # (b, K, M)
        acc[i0 : i0 + block.shape[0]] += 2.0 * np.einsum("k,bkm->b", coeffs[1:], cosines)
    return acc / spec.M


@dataclass(frozen=True)
class MomentReport:
    n: int
    empirical: float
    stderr: float
    predicted: Fraction | None
    z_score: float | None
    samples: int
    supported: bool
    note: str = ""

    def __post_init__(self):
        if self.samples > 1 and not self.stderr > 0:
            raise InvariantViolation("stderr must be positive for samples > 1")


def _report(n, values, predicted, supported, note=""):
    emp = float(np.mean(values))
    se = float(np.std(values, ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    z = None
    if predicted is not None and se > 0:
        z = (emp - float(predicted)) / se
    return MomentReport(
        n=n,
        empirical=emp,
        stderr=se,
        predicted=predicted,
        z_score=z,
        samples=len(values),
        supported=supported,
        note=note,
    )


def estimate_centered_moments(
    tf: TestFunction,
    spec: EnsembleSpec,
    n_max: int,
    angle_samples: Sequence[EigenangleSample] | None = None,
    z_vals: np.ndarray | None = None,
) -> list[MomentReport]:
    """Empirical E[(Z - mu)^n] for 2 <= n <= n_max against exact predictions.

    Centering uses the exact limiting mean; the standard error is the plain
    iid error of the sample mean of (Z - mu)^n (the estimator is linear, so
    this coincides with its jackknife estimate).
    """
    if z_vals is None:
        if angle_samples is None:
            angle_samples = collect_angle_samples(spec)
        z_vals = z_values_for(tf, spec, angle_samples)
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


def empirical_mean_check(
    tf: TestFunction,
    spec: EnsembleSpec,
    angle_samples: Sequence[EigenangleSample] | None = None,
    z_vals: np.ndarray | None = None,
) -> MomentReport:
    """Empirical E[Z] against the exact limiting mean."""
    if tf.sigma > 1:
        raise DomainError("mean comparison requires sigma <= 1")
    if z_vals is None:
        if angle_samples is None:
            angle_samples = collect_angle_samples(spec)
        z_vals = z_values_for(tf, spec, angle_samples)
    return _report(1, z_vals, mo.mean_value(tf), True)
