"""Synthetic data generation for the simulation study.

make_dataset owns the paper's truth on the caller's W, one unit per row:
covariate curves cos(t) + sin(t) plus white noise on the integer grid
GRID_T, smoothed onto the B-spline basis, and beta, the projection on
GRID_T of the functional coefficient
g(t) = exp(-t/10) * ((t/10)^2 + 3*(t/10) - 4).  simulate_response
solves (I - rho*W) y = Z beta + eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, FunctionalSample, build_bspline_basis, smooth_curves
from .model import FslmData, Theta
from .spatial import SpatialWeights, check_rho

__all__ = [
    "GRID_T",
    "SimulationSpec",
    "SimulatedDataset",
    "true_gamma",
    "simulate_response",
    "make_dataset",
]

# Integer observation grid of every simulated covariate curve; the cubic
# (order 4) B-spline basis spans it.
GRID_T = np.arange(101.0)
GRID_T.flags.writeable = False


@dataclass(frozen=True)
class SimulationSpec:
    rho_true: float = 0.5
    sigma2_true: float = 1.0
    noise_sd: float = 1.0
    n_basis: int = 7
    seed: int = 0

    def __post_init__(self):
        # zero stays allowed, as Theta permits a noiseless truth
        for name in ("sigma2_true", "noise_sd"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be nonnegative, not {value}")
            if value == np.inf:
                raise ValueError(f"{name} must be finite, not {value}")


@dataclass(frozen=True)
class SimulatedDataset:
    data: FslmData
    sample: FunctionalSample
    true_theta: Theta
    true_gamma_coef: np.ndarray  # B-spline coefficients of projected gamma
    raw_curves: np.ndarray  # n x len(GRID_T), before smoothing


def true_gamma(t):
    """exp(-t/10) * ((t/10)^2 + 3*(t/10) - 4)."""
    u = np.asarray(t, dtype=float) / 10.0
    return np.exp(-u) * (u * u + 3.0 * u - 4.0)


def project_gamma(basis: BasisSpec, t_grid: np.ndarray) -> np.ndarray:
    """Least-squares B-spline coefficients of the true functional parameter."""
    phi = basis.design_matrix(t_grid)
    coef, *_ = np.linalg.lstsq(phi, true_gamma(t_grid), rcond=None)
    return coef


def simulate_response(z: np.ndarray, w: SpatialWeights, theta: Theta, seed: int) -> np.ndarray:
    """Solve (I - rho*W) y = Z beta + eps, eps ~ N(0, sigma2*I) drawn from
    the seed, for y; a ValueError when rho lies outside W's domain
    [0, W.rho_max)."""
    check_rho(theta.rho, w)
    eps = np.sqrt(theta.sigma2) * np.random.default_rng(seed).standard_normal(w.n)
    i, j, w_ij = w.links
    a = np.eye(w.n)
    a[i, j] -= theta.rho * w_ij
    return np.linalg.solve(a, z @ theta.beta + eps)


def make_dataset(spec: SimulationSpec, w: SpatialWeights) -> SimulatedDataset:
    """Covariates, the paper's truth and the response on W, one unit per row."""
    basis = build_bspline_basis(GRID_T[0], GRID_T[-1], spec.n_basis, 4)
    # raw covariate curves: cos(t) + sin(t) plus white noise, one per unit
    rng = np.random.default_rng(spec.seed)
    signal = np.cos(GRID_T) + np.sin(GRID_T)
    raw = signal[None, :] + spec.noise_sd * rng.standard_normal((w.n, GRID_T.size))
    sample = smooth_curves(GRID_T, raw, basis)
    gamma_coef = project_gamma(basis, GRID_T)
    theta = Theta(beta=basis.gram_chol.T @ gamma_coef, sigma2=spec.sigma2_true,
                  rho=spec.rho_true)
    y = simulate_response(sample.scores, w, theta, seed=spec.seed + 1)
    return SimulatedDataset(data=FslmData(y=y, z=sample.scores, w=w), sample=sample,
                            true_theta=theta, true_gamma_coef=gamma_coef, raw_curves=raw)
