"""Likelihood, full conditional distributions and BIC for the spatial lag
model with score-matrix design.

The model is y = rho*W*y + Z*beta + eps, eps ~ N(0, sigma2*I).  With
A = I - rho*W and v = (1, -rho, -beta), the data enter only through the
Gram matrix G = X'X of X = [y, Wy, Z] (LeSage & Pace 2009, ch. 3):
r'r = ||A y - Z beta||^2 = v'Gv, and ln|A| comes from W's eigenvalues
(spatial.log_det_A).  log_likelihood (and so BIC and ML) reads v'Gv.
Conditionals:

  sigma2 | beta, rho  ~  InvGamma(n/2 + a, (r'r + 2b)/2)
  beta   | sigma2, rho ~  N(P^{-1} b, sigma2 P^{-1}), P = Z'Z + sigma2 Sigma^{-1},
                          b = Z'A y + sigma2 Sigma^{-1} m
  rho    | beta, sigma2   ln|A| - r'r(rho)/(2 sigma2) up to a constant, no
                          standard form: a Metropolis step in the sampler.

beta's conditional is factored once per (data, prior) by beta_factor:
the generalized eigenproblem Z'Z u = mu Sigma^{-1} u, with
U' Sigma^{-1} U = I, gives P^{-1} = U diag(d) U', d = 1/(mu + sigma2),
and U'b is linear in rho and sigma2.  In the coordinates s of beta = U s
the conditional is independent normals, s_i ~ N(d_i (U'b)_i, sigma2 d_i),
so beta_conditional_params costs a few k-vector operations.  At fixed
beta, r'r is a quadratic in rho, a - 2b rho + c rho^2, and since
U'Z'ZU = diag(mu) its coefficients (rss_quadratic) are read from s, the
factor and G in O(k); the sigma2 step and rho's conditional at any
proposal then evaluate it in O(1) (rss_at).

rho's prior is flat on W's domain [0, W.rho_max), where det(A) > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .spatial import SpatialWeights, log_det_A, read_only

__all__ = [
    "FslmData",
    "PriorSpec",
    "Theta",
    "Estimate",
    "log_likelihood",
    "sigma2_shape",
    "sigma2_conditional_params",
    "BetaFactor",
    "beta_factor",
    "beta_conditional_params",
    "rss_quadratic",
    "rss_at",
    "rho_log_conditional",
    "rho_information",
    "sigma2_hat",
    "bic",
]

DIFFUSE_VARIANCE = 1e4  # each beta coefficient's prior variance in PriorSpec.diffuse


@dataclass(frozen=True)
class FslmData:
    """Response vector, score design matrix and spatial weights.

    y and z are stored read-only, so the products of the data that the
    likelihood reuses (gram, ols_pair) are computed once and stay valid.
    """

    y: np.ndarray
    z: np.ndarray
    w: SpatialWeights

    def __post_init__(self):
        object.__setattr__(self, "y", read_only(self.y))
        object.__setattr__(self, "z", read_only(self.z))
        n = self.y.shape[0]
        if self.z.shape[0] != n or self.w.n != n:
            raise ValueError("y, z and w dimensions are inconsistent")
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.z))):
            raise ValueError("y and z must be finite")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def k(self) -> int:
        return self.z.shape[1]

    @cached_property
    def _x(self) -> np.ndarray:
        """X = [y, Wy, Z], n x (k + 2)."""
        i, j, w_ij = self.w.links
        wy = np.bincount(i, w_ij * self.y[j], minlength=self.n)
        return read_only(np.column_stack([self.y, wy, self.z]))

    @cached_property
    def gram(self) -> np.ndarray:
        """G = X'X, (k + 2) x (k + 2): the likelihood's sufficient statistic."""
        return read_only(self._x.T @ self._x)

    @cached_property
    def ols_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """OLS coefficients B (k x 2) and residuals E (n x 2) of [y, Wy] on Z."""
        g = self.gram
        try:
            b = np.linalg.solve(g[2:, 2:], g[2:, :2])
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError(
                "design matrix Z is rank deficient: Z'Z is singular to rounding") from None
        return read_only(b), read_only(self._x[:, :2] - self.z @ b)

    @cached_property
    def rss_terms(self) -> tuple[float, float, float]:
        """G00 = y'y, G01 = y'Wy and G11 = (Wy)'Wy as Python floats, read by
        rss_quadratic at every sampler iteration."""
        g = self.gram
        return float(g[0, 0]), float(g[0, 1]), float(g[1, 1])


@dataclass(frozen=True)
class PriorSpec:
    """Normal prior on beta, inverse-gamma on sigma2; rho's flat prior
    lives on W's domain, so it has no parameter here."""

    m: np.ndarray
    sigma_beta: np.ndarray
    a: float = 0.001
    b: float = 0.001

    def __post_init__(self):
        object.__setattr__(self, "m", read_only(self.m))
        object.__setattr__(self, "sigma_beta", read_only(self.sigma_beta))
        m, s = self.m, self.sigma_beta
        if m.ndim != 1 or s.shape != (m.size, m.size):
            raise ValueError(f"sigma_beta must be k x k for an m of length k, not {s.shape}")
        for name, value in (("m", m), ("sigma_beta", s)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        for name in ("a", "b"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        # cholesky reads only the lower triangle
        if np.abs(s - s.T).max(initial=0.0) > 1e-12 * np.abs(s).max(initial=0.0):
            raise ValueError("sigma_beta must be symmetric")
        np.linalg.cholesky(s)  # raises if not SPD

    @classmethod
    def diffuse(cls, k: int) -> "PriorSpec":
        return cls(m=np.zeros(k), sigma_beta=DIFFUSE_VARIANCE * np.eye(k))


@dataclass(frozen=True)
class Theta:
    beta: np.ndarray
    sigma2: float
    rho: float

    def __post_init__(self):
        # sigma2 == 0 is allowed for noiseless synthetic truth; density
        # evaluations reject it
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")


@dataclass(frozen=True)
class Estimate:
    """A fit's point estimate theta (ML maximizer or posterior mean), the
    standard errors (ML) or posterior sds of beta, sigma2 and rho, its BIC,
    and, for a chain, the acceptance rate after burn-in.  ML standard
    errors that the data do not give are None, and std_unavailable says
    why."""
    theta: Theta
    std_beta: np.ndarray | None
    std_sigma2: float | None
    std_rho: float | None
    bic: float
    acceptance_rate: float | None = None
    std_unavailable: str | None = None

    def to_json_dict(self) -> dict:
        entry = {
            "beta_mean": self.theta.beta.tolist(),
            "beta_std": None if self.std_beta is None else self.std_beta.tolist(),
            "sigma2_mean": self.theta.sigma2,
            "sigma2_std": self.std_sigma2,
            "rho_mean": self.theta.rho,
            "rho_std": self.std_rho,
            "bic": self.bic,
        }
        if self.acceptance_rate is not None:
            entry["acceptance_rate"] = self.acceptance_rate
        if self.std_unavailable is not None:
            entry["std_unavailable"] = self.std_unavailable
        return entry


def _gram_form(beta: np.ndarray, rho: float, data: FslmData) -> tuple[np.ndarray, float]:
    """X'r = Gv and r'r = v'Gv for r = (I - rho*W) y - Z beta; r'r is
    clamped at 0, as at an exact fit its rounding error has either sign."""
    v = np.concatenate(([1.0, -rho], -beta))
    gv = data.gram @ v
    return gv, max(float(v @ gv), 0.0)


def log_likelihood(theta: Theta, data: FslmData) -> float:
    """Gaussian log-likelihood with the |I - rho*W| Jacobian term."""
    if theta.sigma2 <= 0:
        raise ValueError("sigma2 must be positive for density evaluation")
    rr = _gram_form(theta.beta, theta.rho, data)[1]
    return float(-0.5 * data.n * np.log(2 * np.pi * theta.sigma2)
                 + (log_det_A(data.w, theta.rho) - 0.5 * rr / theta.sigma2))


class BetaFactor(NamedTuple):
    """beta's conditional for one (data, prior), from beta_factor."""

    u: np.ndarray   # Z'Z U = Sigma^{-1} U diag(mu) with U' Sigma^{-1} U = I
    mu: np.ndarray  # clamped at 0
    ub: np.ndarray  # columns U'G[2:, 0], U'G[2:, 1], U' Sigma^{-1} m


def beta_factor(data: FslmData, prior: PriorSpec) -> BetaFactor:
    """With Sigma = SS' (Cholesky) and S'Z'ZS = Q diag(mu) Q' (eigh), U = SQ."""
    if prior.m.size != data.k:
        raise ValueError(f"m has {prior.m.size} entries, but the data have k = {data.k}")
    s = np.linalg.cholesky(prior.sigma_beta)
    g = data.gram
    mu, q = np.linalg.eigh(s.T @ g[2:, 2:] @ s)
    u = s @ q
    # U' Sigma^{-1} m = Q' S^{-1} m
    ub = np.column_stack([u.T @ g[2:, :2], q.T @ np.linalg.solve(s, prior.m)])
    return BetaFactor(u, np.maximum(mu, 0.0), ub)


def beta_conditional_params(
    sigma2: float, rho: float, factor: BetaFactor
) -> tuple[np.ndarray, np.ndarray]:
    """Means and sds of beta's coordinates s, beta = U s, given sigma2 and
    rho; they are independent: s ~ N(d * U'b, sigma2 d), d = 1/(mu + sigma2),
    with U'b = ub @ (1, -rho, sigma2)."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    _, mu, ub = factor
    d = 1.0 / (mu + sigma2)
    # ub.dot gives the bits of ub @ (...) at about two thirds of its cost
    return d * ub.dot((1.0, -rho, sigma2)), np.sqrt(sigma2 * d)


def rss_quadratic(s: np.ndarray, factor: BetaFactor, data: FslmData) -> tuple[float, float, float]:
    """(a, b, c) with r'r = a - 2b rho + c rho^2 for r = (I - rho*W) y - Z beta
    and beta = U s: a = G00 - 2 s.U'Z'y + sum mu s^2, b = G01 - s.U'Z'Wy
    and c = G11, as U'Z'ZU = diag(mu)."""
    yy, ywy, wywy = data.rss_terms
    # .dot gives the bits of @ here, at lower cost
    sy, swy, _ = s.dot(factor.ub).tolist()
    return yy - 2.0 * sy + float(factor.mu.dot(s * s)), ywy - swy, wywy


def rss_at(quadratic: tuple[float, float, float], rho: float) -> float:
    """r'r at rho from rss_quadratic's coefficients; clamped at 0, as at an
    exact fit its rounding error has either sign."""
    a, b, c = quadratic
    return max(a - rho * (2.0 * b - c * rho), 0.0)


def sigma2_shape(data: FslmData, prior: PriorSpec) -> float:
    """Inverse-gamma shape n/2 + a of sigma2's conditional, which no draw
    of beta or rho changes."""
    return data.n / 2 + prior.a


def sigma2_conditional_params(rss: float, data: FslmData, prior: PriorSpec) -> tuple[float, float]:
    """Inverse-gamma (shape, scale) of sigma2 given beta and rho, whose
    residual sum of squares is rss."""
    return sigma2_shape(data, prior), (rss + 2 * prior.b) / 2


def rho_log_conditional(rho: float, quadratic: tuple[float, float, float], sigma2: float,
                        data: FslmData) -> float:
    """Unnormalized log full conditional of rho (flat prior on its domain),
    ln|I - rho*W| - r'r(rho)/(2 sigma2), with r'r(rho) from beta's
    rss_quadratic.

    Returns -inf outside [0, W.rho_max), and where I - rho*W is singular
    to rounding.
    """
    if not 0.0 <= rho < data.w.rho_max:
        return -np.inf
    try:
        return log_det_A(data.w, rho) - 0.5 * rss_at(quadratic, rho) / sigma2
    except np.linalg.LinAlgError:
        return -np.inf


def sigma2_hat(rho, data: FslmData):
    """ML sigma2 at fixed rho, one per rho of an array: ||E (1, -rho)||^2 / n."""
    e = (data.ols_pair[1] @ np.array((np.ones_like(rho), np.negative(rho)))).T
    # a row-by-row matmul keeps a scalar rho's sum the bits of e @ e
    s2 = (e[..., None, :] @ e[..., :, None])[..., 0, 0] / data.n
    return float(s2) if s2.ndim == 0 else s2


def rho_information(sigma2: float, rho: float, data: FslmData) -> float:
    """-d^2/drho^2 of the log-likelihood and of rho's log conditional:
    G[1,1]/sigma2 + sum_i Re(g_i^2), g_i = lambda_i / (1 - rho*lambda_i)."""
    lam = data.w.eigenvalues
    g = lam / (1.0 - rho * lam)
    return float(data.gram[1, 1] / sigma2 + np.sum(g * g).real)


def bic(theta_hat: Theta, data: FslmData) -> float:
    """-2 log L + (k + 2) ln n; the +2 counts sigma2 and rho."""
    return float(-2.0 * log_likelihood(theta_hat, data) + (data.k + 2) * np.log(data.n))
