"""Bayesian and maximum-likelihood estimation of the functional spatial
lag model: B-spline smoothing of curve covariates, spatial weight
handling, a Metropolis-within-Gibbs sampler and a concentrated-likelihood
ML baseline."""

from .basis import (
    BasisSpec,
    FunctionalSample,
    build_bspline_basis,
    reconstruct_gamma,
    smooth_curves,
)
from .mle import fit_ml
from .model import (
    Estimate,
    FslmData,
    PriorSpec,
    Theta,
    beta_conditional_params,
    beta_factor,
    bic,
    log_likelihood,
    rho_log_conditional,
    rss_at,
    rss_quadratic,
    sigma2_conditional_params,
)
from .sampler import (
    Chain,
    MhConfig,
    rho_steps,
    run_mwg,
    summarize,
)
from .simgen import (
    SimulatedDataset,
    SimulationSpec,
    make_dataset,
    simulate_response,
    true_gamma,
)
from .spatial import (
    MoranResult,
    SpatialWeights,
    grid_contiguity,
    log_det_A,
    morans_i,
    row_standardize,
    weights_from_edges,
)

__version__ = "0.1.0"
