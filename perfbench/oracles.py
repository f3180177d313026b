"""Reference computations that share no code with fslm.

The benchmark checks the program's outputs against these: the
log-determinant by Ord's eigenvalue identity, the concentrated and full
log-likelihoods built on it, Moran's I from its defining sum, and the
effective sample size from an FFT autocorrelation truncated by Geyer's
initial monotone sequence.
"""

from __future__ import annotations

import math

import numpy as np


def eigenvalues(w: np.ndarray) -> np.ndarray:
    """Eigenvalues of a weight matrix that is similar to a symmetric one
    (any row-standardized symmetric contiguity matrix is), so they are real."""
    lam = np.linalg.eigvals(w)
    if np.max(np.abs(lam.imag)) > 1e-8:
        raise ValueError("weight matrix has complex eigenvalues")
    return lam.real


def log_det(lam: np.ndarray, rho: float) -> float:
    """ln|I - rho W| = sum_i ln(1 - rho lambda_i) (Ord 1975)."""
    terms = 1.0 - rho * lam
    if np.any(terms <= 0):
        raise ValueError(f"I - rho W is not positive definite at rho={rho}")
    return float(np.sum(np.log(terms)))


def concentrated_loglik(rho: float, y, z, w, lam) -> float:
    """-(n/2) ln sigma2_hat(rho) + ln|I - rho W|, with beta and sigma2
    profiled out by least squares of (I - rho W) y on Z."""
    ay = y - rho * (w @ y)
    coef, *_ = np.linalg.lstsq(z, ay, rcond=None)
    r = ay - z @ coef
    return -0.5 * y.size * math.log(float(r @ r) / y.size) + log_det(lam, rho)


def log_likelihood(beta, sigma2: float, rho: float, y, z, w, lam) -> float:
    """Gaussian log-likelihood of y = rho W y + Z beta + eps."""
    n = y.size
    r = y - rho * (w @ y) - z @ np.asarray(beta)
    return (-0.5 * n * math.log(2 * math.pi) - 0.5 * n * math.log(sigma2)
            - 0.5 * float(r @ r) / sigma2 + log_det(lam, rho))


def argmax_concentrated(y, z, w, lam, lo: float, hi: float,
                        n_grid: int = 2001, tol: float = 1e-12) -> float:
    """Maximizer of the concentrated log-likelihood on [lo, hi]: the best
    point of a dense grid, refined by ternary search between its
    neighbours."""
    grid = np.linspace(lo, hi, n_grid)
    vals = [concentrated_loglik(r, y, z, w, lam) for r in grid]
    i = int(np.argmax(vals))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, n_grid - 1)]
    while b - a > tol:
        m1, m2 = a + (b - a) / 3, b - (b - a) / 3
        if concentrated_loglik(m1, y, z, w, lam) < concentrated_loglik(m2, y, z, w, lam):
            a = m1
        else:
            b = m2
    return 0.5 * (a + b)


def morans_i(values, triplets) -> float:
    """I = (n / S0) * sum_ij w_ij z_i z_j / sum_i z_i^2 over the nonzero
    weights (i, j, w_ij), with z the centered values."""
    z = [v - sum(values) / len(values) for v in values]
    s0 = sum(wij for _, _, wij in triplets)
    cross = sum(wij * z[i] * z[j] for i, j, wij in triplets)
    return len(z) / s0 * cross / sum(v * v for v in z)


def autocorrelation(x) -> np.ndarray:
    """Sample autocorrelations at lags 0..n-1, by FFT with zero padding
    (no wrap-around)."""
    xc = np.asarray(x, dtype=float) - np.mean(x)
    if not np.any(xc):
        raise ValueError("constant series has no autocorrelation")
    n = xc.size
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n]
    return acov / acov[0]


def ess(x) -> float:
    """Effective sample size n / tau, tau = -1 + 2 * sum_k Gamma_k with
    Gamma_k = rho_2k + rho_2k+1 the sums of adjacent autocorrelations,
    kept while positive and made monotone (Geyer 1992).  tau is floored
    at 1 / log10(n), as in Stan, so antithetic chains stay finite."""
    n = len(x)
    if n < 4:
        raise ValueError("need at least 4 draws")
    rho = autocorrelation(x)
    gamma = rho[: n - n % 2].reshape(-1, 2).sum(axis=1)
    nonpositive = np.flatnonzero(gamma <= 0)
    gamma = gamma[: nonpositive[0] if nonpositive.size else gamma.size]
    tau = -1.0 + 2.0 * np.minimum.accumulate(gamma).sum()
    return n / max(tau, 1.0 / math.log10(n))
