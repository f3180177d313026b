"""Maximum-likelihood baseline via the concentrated likelihood in rho.

For fixed rho, beta and sigma2 have closed-form maximizers.  With B and
E the OLS coefficients and residuals of [y, Wy] on Z (FslmData.ols_pair),
beta_hat = B (1, -rho) and sigma2_hat = ||E (1, -rho)||^2 / n, an
n-vector sum that keeps the precision the Gram form loses near the
optimum.  The concentrated log-likelihood

    l_c(rho) = const - (n/2) ln sigma2_hat(rho) + ln|I - rho W|

is maximized over W's domain [0, W.rho_max), capped at 0.999: one array
evaluation scans 200 points (the log-determinants come from one log-sum
over W's eigenvalues), and Newton steps on the slope, kept between the best
point's neighbours, find the maximizer.  With r = E (1, -rho), e1 = E[:, 1]
and g = lambda / (1 - rho*lambda) over W's eigenvalues (Ord 1975),
l_c' = n r.e1 / r.r - sum Re g and l_c'' = n (2 (r.e1)^2 - (e1.e1) r.r) /
(r.r)^2 - sum Re g^2, O(n) sums as precise as sigma2_hat.  Standard errors
come from the analytic observed information (Anselin 1988, Spatial
Econometrics, ch. 6).
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

# The Newton iteration stops at a step or bracket this wide.
RHO_TOL = 1e-12


def concentrated_loglik(rho, data: FslmData):
    """l_c(rho) up to an additive constant; one value per rho for an array."""
    return -0.5 * data.n * np.log(sigma2_hat(rho, data)) + log_det_A(data.w, rho)


def fit_ml(data: FslmData) -> Estimate:
    """Maximize the concentrated likelihood over [0, min(0.999, W.rho_max)):
    rho_hat is the root of l_c' between the best of 200 scanned points'
    neighbours, or 0 or the cap itself when l_c' points out of the interval
    there; the Estimate carries observed-information std errors and BIC."""
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
    i = int(np.argmax(vals))
    rho_hat = _slope_root(data, grid[max(i - 1, 0)], grid[i], grid[min(i + 1, grid.size - 1)])

    beta_hat = data.ols_pair[0] @ (1.0, -rho_hat)
    theta = Theta(beta=beta_hat, sigma2=sigma2_hat(rho_hat, data), rho=rho_hat)
    *std, unavailable = _observed_info_std(theta, data)
    return Estimate(theta, *std, bic(theta, data), std_unavailable=unavailable)


def _slope_root(data: FslmData, lo: float, rho: float, hi: float) -> float:
    """rho_hat from the best scanned point rho and its neighbours lo and hi:
    Newton steps on l_c', bisecting when one leaves the bracket or l_c'' >= 0,
    to a step or bracket of at most RHO_TOL.  rho itself when l_c' is 0
    there (W = 0, or r.r = 0) or points out of the scanned interval."""
    lam, (e0, e1) = data.w.eigenvalues, data.ols_pair[1].T
    e11 = e1 @ e1

    def slope(rho):  # l_c' and l_c''; (0, 0) at r.r = 0, where l_c = +inf
        r = e0 - rho * e1
        rr, re = r @ r, r @ e1
        if rr == 0:
            return 0.0, 0.0
        g = lam / (1.0 - rho * lam)
        return (data.n * re / rr - np.sum(g).real,
                data.n * (2 * re * re - e11 * rr) / (rr * rr) - np.sum(g * g).real)

    f, df = slope(rho)
    if f == 0:
        return rho
    # the root lies on the side l_c' points to, which is empty at rho = lo = 0
    # with l_c' < 0 and at rho = hi = the cap with l_c' > 0
    lo, hi = (rho, hi) if f > 0 else (lo, rho)
    while hi - lo > RHO_TOL:
        newton = rho - f / df if df < 0 else np.inf
        last, rho = rho, newton if lo <= newton <= hi else 0.5 * (lo + hi)
        if abs(rho - last) <= RHO_TOL:
            break
        f, df = slope(rho)
        if f == 0:
            break
        lo, hi = (rho, hi) if f > 0 else (lo, rho)
    return rho


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
