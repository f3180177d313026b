"""Maximum-likelihood baseline via the concentrated likelihood in rho.

For fixed rho, beta and sigma2 have closed-form maximizers.  With B and
E the OLS coefficients and residuals of [y, Wy] on Z (FslmData.ols_pair),
beta_hat = B (1, -rho) and sigma2_hat = ||E (1, -rho)||^2 / n, an
n-vector sum that keeps the precision the Gram form loses near the
optimum.  The concentrated log-likelihood

    l_c(rho) = const - (n/2) ln sigma2_hat(rho) + ln|I - rho W|

is maximized over W's domain [0, W.rho_max), capped at 0.999: one array
evaluation scans 200 points (the log-determinants come from one log-sum
over W's eigenvalues), and more rescan the best point's neighbours until
they are at most 1e-8 apart.  Standard errors come from the analytic
observed information (Anselin 1988, Spatial Econometrics, ch. 6).
"""

from __future__ import annotations

import warnings

import numpy as np

from .model import Estimate, FslmData, Theta, _gram_form, bic
from .model import rho_information, sigma2_hat
from .spatial import log_det_A

__all__ = ["fit_ml", "concentrated_loglik"]

NOT_POSITIVE_DEFINITE = ("the observed information at the estimate is not positive "
                         "definite, so it gives no standard errors")

# Points per rescan, ends included: each narrows the 0.01-wide bracket of
# the 200-point scan 5-fold, so at most nine rescans take it below 1e-8.
RESCAN_POINTS = 11


def concentrated_loglik(rho, data: FslmData):
    """l_c(rho) up to an additive constant; one value per rho for an array."""
    return -0.5 * data.n * np.log(sigma2_hat(rho, data)) + log_det_A(data.w, rho)


def fit_ml(data: FslmData) -> Estimate:
    """Maximize the concentrated likelihood over [0, min(0.999, W.rho_max))
    by a scan and rescans to a bracket at most 1e-8 wide, whose midpoint is
    rho_hat; the Estimate carries observed-information std errors and BIC."""
    s = np.linalg.svd(data.z, compute_uv=False)
    # with n < k the SVD sees only n singular values, all of which can be large
    if data.n < data.k or s[-1] < 1e-10 * s[0]:
        raise np.linalg.LinAlgError("design matrix Z is rank deficient")

    # l_c can fall to -inf at rho_max, so a margin keeps the end finite
    cap = min(0.999, data.w.rho_max * (1 - 1e-9))
    grid = np.linspace(0.0, cap, 200)
    vals = concentrated_loglik(grid, data)
    # unimodality scan: a single sign change in the discrete slope expected
    slopes = np.sign(np.diff(vals))
    changes = np.sum(np.diff(slopes[slopes != 0]) != 0)
    if changes > 1:
        warnings.warn("concentrated likelihood looks multimodal on the interval")
    while True:
        i_best = int(np.argmax(vals))
        i_lo, i_hi = max(i_best - 1, 0), min(i_best + 1, grid.size - 1)
        lo, hi = grid[i_lo], grid[i_hi]
        if hi - lo <= 1e-8:
            break
        grid = np.linspace(lo, hi, RESCAN_POINTS)
        # linspace keeps both ends exact, so their values are known
        vals = np.concatenate(([vals[i_lo]], concentrated_loglik(grid[1:-1], data),
                               [vals[i_hi]]))
    rho_hat = 0.5 * (lo + hi)

    beta_hat = data.ols_pair[0] @ (1.0, -rho_hat)
    theta = Theta(beta=beta_hat, sigma2=sigma2_hat(rho_hat, data), rho=rho_hat)
    *std, unavailable = _observed_info_std(theta, data)
    return Estimate(theta, *std, bic(theta, data), std_unavailable=unavailable)


def _observed_info_std(theta: Theta, data: FslmData):
    """(std_beta, std_sigma2, std_rho, None): std errors from the inverse of
    the exact observed information -H of the full log-likelihood in (rho,
    beta, sigma2).  With X_1 = [Wy, Z], X_1'X_1 = G[1:, 1:] and X_1'r =
    (Gv)[1:].  When -H is not positive definite (a Cholesky test), its
    inverse is no covariance matrix: (None, None, None, the reason)."""
    k, n = data.k, data.n
    s2 = theta.sigma2
    gv, rr = _gram_form(theta.beta, theta.rho, data)
    hess = np.empty((k + 2, k + 2))
    hess[:-1, :-1] = -data.gram[1:, 1:] / s2
    hess[0, 0] = -rho_information(s2, theta.rho, data)
    hess[:-1, -1] = hess[-1, :-1] = -gv[1:] / s2**2
    hess[-1, -1] = n / (2 * s2**2) - rr / s2**3
    try:
        np.linalg.cholesky(-hess)  # raises unless -hess is positive definite
        var = np.diag(np.linalg.inv(-hess))
    except np.linalg.LinAlgError:
        var = None
    # a variance that rounding left not positive and finite (NaN fails both)
    if var is None or not np.all((var > 0) & (var < np.inf)):
        return None, None, None, NOT_POSITIVE_DEFINITE
    std = np.sqrt(var)
    return std[1:-1], float(std[-1]), float(std[0]), None
