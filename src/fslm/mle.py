"""Maximum-likelihood baseline via the concentrated likelihood in rho.

For fixed rho, beta and sigma2 have closed-form maximizers (OLS of
A(rho)y on Z and the mean squared residual), leaving a one-dimensional
concentrated log-likelihood

    l_c(rho) = const - (n/2) ln sigma2_hat(rho) + ln|I - rho W|

maximized by golden-section search.  Standard errors come from the
analytic observed information (Anselin 1988, Spatial Econometrics, ch. 6).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import FslmData, Theta, _residual, bic, log_likelihood
from .spatial import log_det_A

__all__ = ["MlEstimate", "fit_ml", "concentrated_loglik"]

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class MlEstimate:
    theta: Theta
    log_likelihood: float
    bic: float
    std_beta: np.ndarray
    std_sigma2: float
    std_rho: float

    def to_json_dict(self) -> dict:
        return {
            "beta_mean": self.theta.beta.tolist(),
            "beta_std": self.std_beta.tolist(),
            "sigma2_mean": self.theta.sigma2,
            "sigma2_std": self.std_sigma2,
            "rho_mean": self.theta.rho,
            "rho_std": self.std_rho,
            "bic": self.bic,
        }


def _profile(rho: float, data: FslmData):
    ay = data.y - rho * data.wy
    beta = data.ols_projector @ ay
    r = ay - data.z @ beta
    sigma2 = float(r @ r) / data.n
    return beta, sigma2


def concentrated_loglik(rho: float, data: FslmData) -> float:
    """l_c(rho) up to an additive constant."""
    _, sigma2 = _profile(rho, data)
    return -0.5 * data.n * np.log(sigma2) + log_det_A(data.w, rho)


def _golden_max(f, lo: float, hi: float, tol: float = 1e-8) -> float:
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


def fit_ml(data: FslmData, rho_interval=(0.0, 0.999)) -> MlEstimate:
    """Maximize the concentrated likelihood over the rho interval."""
    s = np.linalg.svd(data.z, compute_uv=False)
    # with n < k the SVD sees only n singular values, all of which can be large
    if data.n < data.k or s[-1] < 1e-10 * s[0]:
        raise np.linalg.LinAlgError("design matrix Z is rank deficient")

    lo, hi = rho_interval
    grid = np.linspace(lo, hi, 200)
    vals = np.array([concentrated_loglik(r, data) for r in grid])
    # unimodality scan: a single sign change in the discrete slope expected
    slopes = np.sign(np.diff(vals))
    changes = np.sum(np.diff(slopes[slopes != 0]) != 0)
    if changes > 1:
        warnings.warn("concentrated likelihood looks multimodal on the interval")
    i_best = int(np.argmax(vals))
    bracket_lo = grid[max(i_best - 1, 0)]
    bracket_hi = grid[min(i_best + 1, grid.size - 1)]
    rho_hat = _golden_max(lambda r: concentrated_loglik(r, data), bracket_lo, bracket_hi)

    beta_hat, sigma2_hat = _profile(rho_hat, data)
    theta = Theta(beta=beta_hat, sigma2=sigma2_hat, rho=rho_hat)
    ll = log_likelihood(theta, data)
    std_beta, std_sigma2, std_rho = _observed_info_std(theta, data)
    return MlEstimate(
        theta=theta,
        log_likelihood=ll,
        bic=bic(theta, data),
        std_beta=std_beta,
        std_sigma2=std_sigma2,
        std_rho=std_rho,
    )


def _observed_info_std(theta: Theta, data: FslmData):
    """Std errors from the inverse of the exact observed information of
    the full log-likelihood in (beta, sigma2, rho)."""
    k, n = data.k, data.n
    s2 = theta.sigma2
    r = _residual(theta.beta, theta.rho, data)
    lam = data.w.eigenvalues
    g = lam / (1.0 - theta.rho * lam)
    hess = np.empty((k + 2, k + 2))
    hess[:k, :k] = -data.ztz / s2
    hess[:k, k] = hess[k, :k] = -(data.z.T @ r) / s2**2
    hess[:k, k + 1] = hess[k + 1, :k] = -(data.z.T @ data.wy) / s2
    hess[k, k] = n / (2 * s2**2) - (r @ r) / s2**3
    hess[k, k + 1] = hess[k + 1, k] = -(data.wy @ r) / s2**2
    hess[k + 1, k + 1] = -(data.wy @ data.wy) / s2 - np.sum(g * g).real
    try:
        cov = np.linalg.inv(-hess)
        std = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        std = np.full(k + 2, np.nan)
    return std[:k], float(std[k]), float(std[k + 1])
