"""Metropolis-within-Gibbs sampler and posterior summarization.

Per iteration: draw beta from its normal conditional, sigma2 from its
inverse-gamma conditional, then update rho by a symmetric random-walk
Metropolis step (normal or uniform kernel).  The step scale c is
adapted in blocks during burn-in toward a target acceptance band and
frozen afterwards so the post-burn-in chain has a fixed kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    FslmData,
    PriorSpec,
    Theta,
    bic,
    beta_conditional_params,
    rho_log_conditional,
    sigma2_conditional_params,
)
from .spatial import EIG_RTOL, stability_interval

__all__ = [
    "MhConfig",
    "Chain",
    "PosteriorSummary",
    "propose_rho",
    "adapt_tuning",
    "default_init",
    "run_mwg",
    "summarize",
]


@dataclass(frozen=True)
class MhConfig:
    n_iter: int = 20_000
    burn_in: int = 5_000
    tuning_c: float = 0.1
    kernel: str = "normal"  # "normal" or "uniform"
    adapt: bool = True
    adapt_block: int = 100
    target_acceptance: tuple = (0.40, 0.60)
    seed: int = 0
    init: Theta | None = None  # default_init(data) when None
    thin: int = 1

    def __post_init__(self):
        if not 0 <= self.burn_in < self.n_iter:
            raise ValueError("need 0 <= burn_in < n_iter")
        if self.tuning_c <= 0:
            raise ValueError("tuning_c must be positive")
        if self.kernel not in ("normal", "uniform"):
            raise ValueError("kernel must be 'normal' or 'uniform'")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        if self.adapt_block < 1:
            raise ValueError("adapt_block must be at least 1")
        lo, hi = self.target_acceptance
        if not 0 < lo < hi < 1:
            raise ValueError("target_acceptance must be an increasing pair in (0, 1)")


@dataclass
class Chain:
    draws_beta: np.ndarray     # n_stored x k
    draws_sigma2: np.ndarray   # n_stored
    draws_rho: np.ndarray      # n_stored
    accepted: np.ndarray       # n_stored bool
    tuning_trace: np.ndarray   # c value per adaptation block
    thin: int = 1              # iterations per stored draw

    def __len__(self) -> int:
        return self.draws_rho.shape[0]


@dataclass(frozen=True)
class PosteriorSummary:
    mean: Theta
    std_beta: np.ndarray
    std_sigma2: float
    std_rho: float
    quantiles_beta: np.ndarray  # 3 x k, rows are 2.5/50/97.5%
    quantiles_sigma2: np.ndarray
    quantiles_rho: np.ndarray
    acceptance_rate: float
    bic: float

    def to_json_dict(self) -> dict:
        return {
            "beta_mean": self.mean.beta.tolist(),
            "beta_std": self.std_beta.tolist(),
            "sigma2_mean": self.mean.sigma2,
            "sigma2_std": self.std_sigma2,
            "rho_mean": self.mean.rho,
            "rho_std": self.std_rho,
            "acceptance_rate": self.acceptance_rate,
            "bic": self.bic,
        }


def propose_rho(rho_old: float, c: float, kernel: str, rng: np.random.Generator) -> float:
    """Symmetric random-walk proposal: rho_old + c*psi."""
    if c <= 0:
        raise ValueError("c must be positive")
    if kernel == "normal":
        return rho_old + c * rng.standard_normal()
    if kernel == "uniform":
        return rho_old + c * rng.uniform(-1.0, 1.0)
    raise ValueError("kernel must be 'normal' or 'uniform'")


def adapt_tuning(c: float, block_acceptance: float, target=(0.40, 0.60)) -> float:
    """Widen or shrink the step scale by 10% if outside the target band."""
    lo, hi = target
    if block_acceptance > hi:
        return c * 1.1
    if block_acceptance < lo:
        return c / 1.1
    return c


def default_init(data: FslmData, prior: PriorSpec) -> Theta:
    """OLS of y on Z for beta and sigma2; rho at the support midpoint."""
    beta, *_ = np.linalg.lstsq(data.z, data.y, rcond=None)
    resid = data.y - data.z @ beta
    dof = max(data.n - data.k, 1)
    sigma2 = max(float(resid @ resid) / dof, 1e-12)
    rho = 0.5 * (prior.rho_support[0] + prior.rho_support[1])
    return Theta(beta=beta, sigma2=sigma2, rho=rho)


def run_mwg(data: FslmData, prior: PriorSpec, config: MhConfig) -> Chain:
    """Run the Metropolis-within-Gibbs chain; fully determined by the seed.

    Raises ValueError before any draw when the prior's rho support
    reaches outside W's stability interval, where det(I - rho*W) <= 0.
    """
    lo, hi = prior.rho_support
    stable_lo, stable_hi = stability_interval(data.w)
    if lo < stable_lo * (1 + EIG_RTOL) or hi > stable_hi * (1 + EIG_RTOL):
        raise ValueError(
            f"prior rho support ({lo}, {hi}) reaches outside W's stability "
            f"interval ({stable_lo:.6g}, {stable_hi:.6g})"
        )
    rng = np.random.default_rng(config.seed)
    theta = config.init if config.init is not None else default_init(data, prior)
    if not lo <= theta.rho <= hi:
        raise ValueError("initial rho outside the prior support")

    k = data.k
    n_store = config.n_iter // config.thin
    draws_beta = np.empty((n_store, k))
    draws_sigma2 = np.empty(n_store)
    draws_rho = np.empty(n_store)
    accepted = np.zeros(n_store, dtype=bool)
    tuning_trace = []

    beta, sigma2, rho = theta.beta.copy(), theta.sigma2, theta.rho
    c = config.tuning_c
    block_accepts = 0
    stored = 0

    for j in range(1, config.n_iter + 1):
        mean, cov = beta_conditional_params(sigma2, rho, data, prior)
        beta = mean + np.linalg.cholesky(cov) @ rng.standard_normal(k)

        shape, scale = sigma2_conditional_params(beta, rho, data, prior)
        sigma2 = scale / rng.gamma(shape)

        # beta and sigma2 changed, so the current rho's conditional is recomputed
        log_cond_old = rho_log_conditional(rho, beta, sigma2, data, prior)

        rho_new = propose_rho(rho, c, config.kernel, rng)
        # -inf off the support, so such a proposal is never accepted
        log_cond_new = rho_log_conditional(rho_new, beta, sigma2, data, prior)
        accept = np.log(rng.uniform()) < min(log_cond_new - log_cond_old, 0.0)
        if accept:
            rho = rho_new
            block_accepts += 1

        if j % config.thin == 0:
            draws_beta[stored] = beta
            draws_sigma2[stored] = sigma2
            draws_rho[stored] = rho
            accepted[stored] = accept
            stored += 1

        if j % config.adapt_block == 0:
            if config.adapt and j <= config.burn_in:
                c = adapt_tuning(
                    c, block_accepts / config.adapt_block, config.target_acceptance
                )
            tuning_trace.append(c)
            block_accepts = 0

    return Chain(
        draws_beta=draws_beta,
        draws_sigma2=draws_sigma2,
        draws_rho=draws_rho,
        accepted=accepted,
        tuning_trace=np.asarray(tuning_trace),
        thin=config.thin,
    )


def summarize(chain: Chain, burn_in: int, data: FslmData | None = None) -> PosteriorSummary:
    """Posterior means, stds and quantiles over the post-burn-in draws.

    burn_in counts iterations, as in MhConfig; under thinning it drops
    the first burn_in // thin stored draws.  BIC is evaluated at the
    posterior-mean parameters when data is given, NaN otherwise.
    """
    burn_in //= chain.thin
    if burn_in >= len(chain):
        raise ValueError("burn_in leaves no draws to summarize")
    qs = (2.5, 50.0, 97.5)
    beta = chain.draws_beta[burn_in:]
    sigma2 = chain.draws_sigma2[burn_in:]
    rho = chain.draws_rho[burn_in:]

    mean = Theta(
        beta=beta.mean(axis=0),
        sigma2=float(sigma2.mean()),
        rho=float(rho.mean()),
    )
    summary_bic = bic(mean, data) if data is not None else float("nan")
    return PosteriorSummary(
        mean=mean,
        std_beta=beta.std(axis=0, ddof=1),
        std_sigma2=float(sigma2.std(ddof=1)),
        std_rho=float(rho.std(ddof=1)),
        quantiles_beta=np.percentile(beta, qs, axis=0),
        quantiles_sigma2=np.percentile(sigma2, qs),
        quantiles_rho=np.percentile(rho, qs),
        acceptance_rate=float(chain.accepted[burn_in:].mean()),
        bic=summary_bic,
    )
