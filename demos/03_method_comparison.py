"""Compare the normal-kernel sampler, the uniform-kernel sampler and the
concentrated-likelihood ML baseline on one dataset, for several values of
the spatial autoregressive parameter.

Run: python3 demos/03_method_comparison.py
"""

import numpy as np

from fslm import (
    MhConfig,
    PriorSpec,
    SimulationSpec,
    fit_ml,
    grid_contiguity,
    make_dataset,
    row_standardize,
    run_mwg,
    summarize,
)

w = row_standardize(grid_contiguity(11, 11))  # the paper's rook lattice

header = f"{'rho_true':>8} {'method':>16} {'rho_hat':>8} {'sigma2':>8} {'BIC':>8}"
print(header)
print("-" * len(header))

for rho_true in (0.3, 0.5, 0.7):
    ds = make_dataset(SimulationSpec(rho_true=rho_true, seed=int(rho_true * 100)), w)
    prior = PriorSpec.diffuse(ds.data.k)
    for kernel in ("uniform", "normal"):
        config = MhConfig(n_iter=6_000, burn_in=2_000, kernel=kernel, seed=0)
        s = summarize(run_mwg(ds.data, prior, config), ds.data)
        print(
            f"{rho_true:>8} {kernel + ' kernel':>16} {s.theta.rho:>8.3f} "
            f"{s.theta.sigma2:>8.3f} {s.bic:>8.1f}"
        )
    ml = fit_ml(ds.data)
    print(
        f"{rho_true:>8} {'max likelihood':>16} {ml.theta.rho:>8.3f} "
        f"{ml.theta.sigma2:>8.3f} {ml.bic:>8.1f}"
    )
