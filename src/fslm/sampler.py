"""Metropolis-within-Gibbs sampler and posterior summarization.

Per iteration: draw beta from its normal conditional, sigma2 from its
inverse-gamma conditional, then update rho by a symmetric random-walk
Metropolis step (normal or uniform kernel) of scale c.  The chain starts
at rho = W.rho_max / 2 with sigma2 at its ML value there (beta is drawn
first) and c = STEP_SCALE / sqrt(I), I the curvature of rho's log full
conditional there.  Each burn-in block of min(100, burn_in // 10)
iterations (at least one) multiplies c by exp(block acceptance rate -
TARGET_ACCEPTANCE) (Andrieu & Thoms 2008); then c is frozen.  Proposals
off W's domain [0, W.rho_max) have zero density and are never accepted.

beta's conditional is factored once per chain (model.beta_factor), and
beta is drawn in the factor's coordinates s, beta = U s: independent
normals, so a draw is a few k-vector products, and the chain forms its
beta draws S U' once, at its end.  From s the iteration reads r'r as a
quadratic in rho (model.rss_quadratic), once; the sigma2 step and the
current and proposed rho's log conditionals, ln|I - rho*W| -
r'r(rho)/(2 sigma2), evaluate it.  The current rho's ln|I - rho*W| is
kept between iterations; an accepted proposal's is recovered from its
log conditional.  An iteration therefore costs one log-determinant (none
for a proposal off W's domain) and no matrix factorization.

A chain draws all of its random numbers from its one generator before
its loop, in this order: an n_iter x k block of standard normals xi
(row j becomes beta's coordinates s = mean + sd * xi in place, so the
block is the chain's draws of s), n_iter gamma variates for sigma2 (the
shape n/2 + a of its conditional, model.sigma2_shape, is fixed over the
chain), n_iter steps psi of rho's kernel (rho_steps) and the logs of
n_iter uniforms for the Metropolis test.  An iteration indexes them and makes no generator call.
With one BLAS thread an iteration costs about 12 us at n = 121 and 484
(21 us with a generator call per draw and the step scale c as a NumPy
scalar, whose arithmetic is slower than a Python float's).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    Estimate,
    FslmData,
    PriorSpec,
    Theta,
    bic,
    beta_conditional_params,
    beta_factor,
    rho_information,
    rho_log_conditional,
    rss_at,
    rss_quadratic,
    sigma2_conditional_params,
    sigma2_hat,
    sigma2_shape,
)
from .spatial import log_det_A

__all__ = [
    "MhConfig",
    "Chain",
    "rho_steps",
    "default_init",
    "run_mwg",
    "summarize",
]

# The burn-in steers each block's acceptance rate toward this value.
TARGET_ACCEPTANCE = 0.5

# Optimal 1-D random-walk step, in target sds (Roberts, Gelman & Gilks 1997, AAP 7:110).
STEP_SCALE = 2.4


@dataclass(frozen=True)
class MhConfig:
    n_iter: int = 20_000
    burn_in: int = 5_000
    kernel: str = "normal"  # "normal" or "uniform"
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.burn_in < self.n_iter - 1:
            raise ValueError("need 0 <= burn_in < n_iter - 1: two kept draws at least")
        if self.kernel not in ("normal", "uniform"):
            raise ValueError("kernel must be 'normal' or 'uniform'")


@dataclass
class Chain:
    draws_beta: np.ndarray     # n_iter x k
    draws_sigma2: np.ndarray   # n_iter
    draws_rho: np.ndarray      # n_iter
    accepted: np.ndarray       # n_iter bool
    tuning_trace: np.ndarray   # c after each burn-in block
    burn_in: int               # MhConfig.burn_in of the run

    def __len__(self) -> int:
        return self.draws_rho.shape[0]


def rho_steps(kernel: str, size: int, rng: np.random.Generator) -> np.ndarray:
    """size steps psi of the symmetric random-walk proposal rho + c*psi:
    standard normal, or uniform on [-1, 1)."""
    if kernel == "normal":
        return rng.standard_normal(size)
    if kernel == "uniform":
        return rng.uniform(-1.0, 1.0, size)
    raise ValueError("kernel must be 'normal' or 'uniform'")


def default_init(data: FslmData) -> tuple[float, float]:
    """The chain's start (rho, sigma2): W.rho_max / 2 and sigma2's ML value there."""
    rho = 0.5 * data.w.rho_max
    return rho, max(sigma2_hat(rho, data), 1e-12)


def run_mwg(data: FslmData, prior: PriorSpec, config: MhConfig) -> Chain:
    """Run the Metropolis-within-Gibbs chain; fully determined by the seed."""
    n_iter, burn_in = config.n_iter, config.burn_in
    factor = beta_factor(data, prior)
    rng = np.random.default_rng(config.seed)
    # every random number of the chain, in the module docstring's order;
    # row j of xi becomes beta's coordinates s = mean + sd * xi, beta = U s
    draws_s = rng.standard_normal((n_iter, data.k))
    gammas = rng.gamma(sigma2_shape(data, prior), size=n_iter).tolist()
    steps = rho_steps(config.kernel, n_iter, rng).tolist()
    log_uniforms = np.log(rng.random(n_iter)).tolist()

    rho, sigma2 = default_init(data)
    draws_sigma2 = np.empty(n_iter)
    draws_rho = np.empty(n_iter)
    accepted = np.zeros(n_iter, dtype=bool)
    tuning_trace = []

    # W = 0 gives I = 0, and complex eigenvalue pairs can make I negative
    info = rho_information(sigma2, rho, data)
    c = float(min(data.w.rho_max, STEP_SCALE / np.sqrt(info))) if info > 0 else data.w.rho_max
    block = min(100, max(1, burn_in // 10))
    log_det = log_det_A(data.w, rho)

    for j in range(n_iter):
        mean, sd = beta_conditional_params(sigma2, rho, factor)
        s = draws_s[j]
        s *= sd
        s += mean
        quadratic = rss_quadratic(s, factor, data)
        rss = rss_at(quadratic, rho)

        _, scale = sigma2_conditional_params(rss, data, prior)
        sigma2 = scale / gammas[j]

        # beta and sigma2 changed, but the current rho's log-det did not
        log_cond_old = log_det - 0.5 * rss / sigma2

        rho_new = rho + c * steps[j]
        # -inf off W's domain, so such a proposal is never accepted
        log_cond_new = rho_log_conditional(rho_new, quadratic, sigma2, data)
        # a log-uniform is below 0, so this is the test against min(ratio, 0)
        accept = log_uniforms[j] < log_cond_new - log_cond_old
        if accept:
            rho = rho_new
            # the proposal's log-det, recovered from its log conditional
            log_det = log_cond_new + 0.5 * rss_at(quadratic, rho) / sigma2

        draws_sigma2[j] = sigma2
        draws_rho[j] = rho
        accepted[j] = accept

        if j < burn_in and (j + 1) % block == 0:
            # c (and so rho) stays a Python float, whose arithmetic is cheaper
            c *= float(np.exp(accepted[j + 1 - block:j + 1].mean() - TARGET_ACCEPTANCE))
            tuning_trace.append(c)

    return Chain(
        draws_beta=draws_s @ factor.u.T,
        draws_sigma2=draws_sigma2,
        draws_rho=draws_rho,
        accepted=accepted,
        tuning_trace=np.asarray(tuning_trace),
        burn_in=burn_in,
    )


def summarize(chain: Chain, data: FslmData) -> Estimate:
    """Posterior means (as theta), sds and acceptance rate over the draws
    after the chain's burn-in, of which there must be two at least, and
    BIC on the chain's data at the posterior mean."""
    burn_in = chain.burn_in
    if burn_in >= len(chain) - 1:
        raise ValueError("burn_in must leave two draws at least to summarize")
    beta = chain.draws_beta[burn_in:]
    sigma2 = chain.draws_sigma2[burn_in:]
    rho = chain.draws_rho[burn_in:]

    mean = Theta(
        beta=beta.mean(axis=0),
        sigma2=float(sigma2.mean()),
        rho=float(rho.mean()),
    )
    return Estimate(
        theta=mean,
        std_beta=beta.std(axis=0, ddof=1),
        std_sigma2=float(sigma2.std(ddof=1)),
        std_rho=float(rho.std(ddof=1)),
        bic=bic(mean, data),
        acceptance_rate=float(chain.accepted[burn_in:].mean()),
    )
