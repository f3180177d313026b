"""Generate a synthetic dataset on an 11x11 lattice and recover the
parameters with the Metropolis-within-Gibbs sampler.

Run: python3 demos/02_simulate_and_fit.py
"""

import numpy as np

from fslm import (
    MhConfig,
    PriorSpec,
    SimulationSpec,
    grid_contiguity,
    make_dataset,
    row_standardize,
    run_mwg,
    summarize,
)

spec = SimulationSpec(rho_true=0.5, sigma2_true=1.0, seed=7)
ds = make_dataset(spec, row_standardize(grid_contiguity(11, 11)))
print(f"simulated {ds.data.n} units, design matrix {ds.data.z.shape}")
print("true rho:", ds.true_theta.rho, " true sigma2:", ds.true_theta.sigma2)
print("true beta:", np.round(ds.true_theta.beta, 3))

prior = PriorSpec.diffuse(ds.data.k)
config = MhConfig(n_iter=10_000, burn_in=3_000, kernel="normal", seed=1)
chain = run_mwg(ds.data, prior, config)
summary = summarize(chain, ds.data)  # over the draws after chain.burn_in

print("\nposterior mean beta:", np.round(summary.theta.beta, 3))
print("posterior mean sigma2:", round(summary.theta.sigma2, 3))
print("posterior mean rho:", round(summary.theta.rho, 3))
interval = np.percentile(chain.draws_rho[chain.burn_in:], [2.5, 97.5])
print("rho 95% interval:", np.round(interval, 3))
print("acceptance rate:", round(summary.acceptance_rate, 3))
print("adapted step scale:", round(chain.tuning_trace[-1], 4))
print("BIC:", round(summary.bic, 1))
