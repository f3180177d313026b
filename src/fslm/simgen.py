"""Synthetic data generation for the simulation study.

Covariate curves are cos(t) + sin(t) plus white noise on an integer
grid, smoothed onto the B-spline basis; the functional coefficient is
g(t) = exp(-t/10) * ((t/10)^2 + 3*(t/10) - 4); responses solve
(I - rho*W) y = Z beta + eps on a rook lattice or any given W.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import BasisSpec, FunctionalSample, build_bspline_basis, smooth_curves
from .model import FslmData, Theta
from .spatial import SpatialWeights, grid_contiguity, row_standardize

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
    lattice_rows: int = 11
    lattice_cols: int = 11
    noise_sd: float = 1.0
    n_basis: int = 7
    seed: int = 0

    def __post_init__(self):
        # zero stays allowed, as Theta permits a noiseless truth
        for name in ("sigma2_true", "noise_sd"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be nonnegative, not {value}")


@dataclass(frozen=True)
class SimulatedDataset:
    data: FslmData
    sample: FunctionalSample
    true_theta: Theta
    true_gamma_coef: np.ndarray  # B-spline coefficients of projected gamma
    raw_curves: np.ndarray | None = None  # n x len(GRID_T), before smoothing


def true_gamma(t):
    """exp(-t/10) * ((t/10)^2 + 3*(t/10) - 4)."""
    u = np.asarray(t, dtype=float) / 10.0
    return np.exp(-u) * (u * u + 3.0 * u - 4.0)


def project_gamma(basis: BasisSpec, t_grid: np.ndarray) -> np.ndarray:
    """Least-squares B-spline coefficients of the true functional parameter."""
    phi = basis.design_matrix(t_grid)
    coef, *_ = np.linalg.lstsq(phi, true_gamma(t_grid), rcond=None)
    return coef


def simulate_response(
    sample: FunctionalSample,
    w: SpatialWeights,
    rho: float,
    sigma2: float,
    seed: int,
    t_grid: np.ndarray | None = None,
) -> SimulatedDataset:
    """Solve (I - rho*W) y = Z beta + eps for the response vector; a
    ValueError when rho lies outside W's domain [0, W.rho_max)."""
    if not 0 <= rho < w.rho_max:
        raise ValueError(f"rho {rho} outside W's domain [0, {w.rho_max:.6g})")
    basis = sample.basis
    if t_grid is None:
        t_grid = np.linspace(basis.domain_start, basis.domain_end, 1001)
    gamma_coef = project_gamma(basis, t_grid)
    beta = basis.gram_chol.T @ gamma_coef

    rng = np.random.default_rng(seed)
    n = sample.n
    eps = np.sqrt(sigma2) * rng.standard_normal(n)
    a = np.eye(n) - rho * w.entries
    y = np.linalg.solve(a, sample.scores @ beta + eps)

    data = FslmData(y=y, z=sample.scores, w=w)
    return SimulatedDataset(
        data=data,
        sample=sample,
        true_theta=Theta(beta=beta, sigma2=sigma2, rho=rho),
        true_gamma_coef=gamma_coef,
    )


def make_dataset(spec: SimulationSpec, w: SpatialWeights | None = None) -> SimulatedDataset:
    """Full pipeline: weights, covariates, response.

    W defaults to the row-standardized rook contiguity of the spec's
    lattice; a given W replaces the lattice and sets the unit count.
    """
    if w is None:
        w = row_standardize(grid_contiguity(spec.lattice_rows, spec.lattice_cols))
    basis = build_bspline_basis(GRID_T[0], GRID_T[-1], spec.n_basis, 4)
    # raw covariate curves: cos(t) + sin(t) plus white noise, one per unit
    rng = np.random.default_rng(spec.seed)
    t = GRID_T
    signal = np.cos(t) + np.sin(t)
    raw = signal[None, :] + spec.noise_sd * rng.standard_normal((w.n, t.size))
    dataset = simulate_response(
        smooth_curves(t, raw, basis),
        w,
        rho=spec.rho_true,
        sigma2=spec.sigma2_true,
        seed=spec.seed + 1,
        t_grid=GRID_T,
    )
    return replace(dataset, raw_curves=raw)
