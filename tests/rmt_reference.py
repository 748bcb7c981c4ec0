"""Test-only cosine route for the Monte Carlo statistic.

The package gets the power traces of each sample from the Szego recursion of
its Verblunsky coefficients (``splitmoments.rmt._block_traces``).  This module
keeps the route it replaced, which computes the eigenvalues:

- ``jacobi_cosines``: the Geronimus relations turn the coefficients into an
  n x n Jacobi matrix whose eigenvalues are 2 cos theta_j, solved by the
  dense symmetric eigensolver in stacks of ``_EIG_BATCH`` matrices;
- ``chebyshev_traces``: Tr U^k = 2 sum_j T_k(x_j) + (M mod 2) by the
  Chebyshev recurrence;
- ``z_from_cosines``: Z from the cosines, weighted by the package's exact
  Fourier table.

It takes the package's Verblunsky coefficients and Fourier table
(``rmt.fourier_table``) and shares nothing on the way from the coefficients
to the traces.
"""

from __future__ import annotations

import numpy as np

_EIG_BATCH = 256  # Jacobi matrices per eigensolve call, bounding the (rows, n, n) stack


def jacobi_cosines(alpha: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues / 2 of the Jacobi matrices of a (rows, 2n-1) stack.

    Geronimus relations with alpha_{-2} = alpha_{-1} = alpha_{2n-1} = -1:
    diagonal (1 - alpha_{2k-1}) alpha_{2k} - (1 + alpha_{2k-1}) alpha_{2k-2},
    off-diagonal sqrt((1 - alpha_{2k-1})(1 - alpha_{2k}^2)(1 + alpha_{2k+1})).
    """
    if alpha.shape[0] > _EIG_BATCH:
        return np.concatenate([jacobi_cosines(alpha[i0 : i0 + _EIG_BATCH])
                               for i0 in range(0, alpha.shape[0], _EIG_BATCH)])
    rows, n = alpha.shape[0], (alpha.shape[1] + 1) // 2
    ext = np.full((rows, 2 * n + 2), -1.0)
    ext[:, 2:-1] = alpha  # ext[:, j + 2] = alpha_j
    odd = ext[:, 1::2]  # alpha_{2k-1}, k = 0..n
    even = ext[:, 0::2]  # alpha_{2k-2}, k = 0..n
    diag = (1 - odd[:, :-1]) * even[:, 1:] - (1 + odd[:, :-1]) * even[:, :-1]
    off = np.sqrt((1 - odd[:, :-2]) * (1 - even[:, 1:-1] ** 2) * (1 + odd[:, 1:-1]))
    J = np.zeros((rows, n, n))
    i = np.arange(n)
    J[:, i, i] = diag
    J[:, i[:-1], i[1:]] = off
    J[:, i[1:], i[:-1]] = off
    return np.linalg.eigvalsh(J) / 2


def chebyshev_traces(cosines: np.ndarray, M: int, K: int) -> np.ndarray:
    """(samples, K + 1) array of Tr U^k = sum over all M angles of cos(k theta).

    With the angles +-theta_j and, for odd M, the fixed angle 0,
    Tr U^k = 2 sum_j T_k(x_j) + (M mod 2); T_k comes from the Chebyshev
    recurrence T_{k+1} = 2 x T_k - T_{k-1}.
    """
    x = np.asarray(cosines, dtype=float)
    out = np.empty((x.shape[0], K + 1))
    out[:, 0] = M
    prev, cur = np.ones_like(x), x
    for k in range(1, K + 1):
        out[:, k] = 2 * cur.sum(axis=1) + M % 2
        prev, cur = cur, 2 * x * cur - prev
    return out


def z_from_cosines(table, M: int, cosines) -> np.ndarray:
    """Z per row of floor(M/2) cosines, with the weights of the table
    fhat(k/M), k = 0..K, that ``rmt.fourier_table`` makes."""
    coeffs = np.array([float(c) for c in table])
    weights = 2 * coeffs
    weights[0] = coeffs[0]
    return chebyshev_traces(cosines, M, len(coeffs) - 1) @ weights / M
