import numpy as np
import pytest

from fslm import (
    SimulationSpec,
    Theta,
    build_bspline_basis,
    grid_contiguity,
    make_dataset,
    row_standardize,
    simulate_response,
    true_gamma,
)
from fslm.simgen import GRID_T


def rook(rows: int, cols: int):
    """The row-standardized rook contiguity of a rows x cols lattice."""
    return row_standardize(grid_contiguity(rows, cols))


def test_true_gamma_values():
    assert true_gamma(0.0) == -4.0
    assert true_gamma(10.0) == pytest.approx(0.0, abs=1e-15)  # e^-1 * (1+3-4)
    assert abs(true_gamma(200.0)) < 1e-6


def test_covariates_deterministic_signal():
    spec = SimulationSpec(noise_sd=0.0, seed=1)
    sample = make_dataset(spec, rook(2, 3)).sample
    # identical inputs; lstsq leaves rounding-level differences across rows
    assert np.abs(sample.coef - sample.coef[0]).max() < 1e-12


def test_covariates_clt_mean():
    spec = SimulationSpec(seed=2)
    raw = make_dataset(spec, rook(20, 25)).raw_curves  # n = 500
    assert raw.shape == (500, GRID_T.size)
    signal = np.cos(GRID_T) + np.sin(GRID_T)
    band = 3 * spec.noise_sd / np.sqrt(500)
    assert np.abs(raw.mean(axis=0) - signal).max() < band * 2.5


def test_covariates_dimensions():
    spec = SimulationSpec(seed=3)
    sample = make_dataset(spec, rook(11, 11)).sample
    assert sample.scores.shape == (121, 7)


def test_response_no_spatial_feedback():
    spec = SimulationSpec(rho_true=0.0, seed=4)
    ds = make_dataset(spec, rook(3, 3))
    rng = np.random.default_rng(spec.seed + 1)
    eps = np.sqrt(spec.sigma2_true) * rng.standard_normal(9)
    expected = ds.data.z @ ds.true_theta.beta + eps
    assert np.abs(ds.data.y - expected).max() < 1e-12


def test_response_noiseless_identity():
    spec = SimulationSpec(seed=5)
    w = rook(3, 3)
    ds = make_dataset(spec, w)
    z = ds.data.z
    theta = Theta(beta=ds.true_theta.beta, sigma2=0.0, rho=0.5)
    y = simulate_response(z, w, theta, seed=9)
    a = np.eye(9) - 0.5 * w.entries
    resid = a @ y - z @ theta.beta
    assert np.linalg.norm(resid) < 1e-10


def test_response_covariance_propagation():
    # var of y - A^{-1} Z beta should match diag of sigma2 (A A^T)^{-1}
    rng = np.random.default_rng(6)
    n = 4
    w = row_standardize(grid_contiguity(2, 2))
    z = rng.standard_normal((n, 1))
    rho, sigma2 = 0.4, 1.5
    theta = Theta(beta=np.ones(1), sigma2=sigma2, rho=rho)
    a = np.eye(n) - rho * w.entries
    draws = np.empty((10_000, n))
    for r in range(draws.shape[0]):
        draws[r] = simulate_response(z, w, theta, seed=r)
    centered = draws - draws.mean(axis=0)
    emp_var = centered.var(axis=0)
    theo = sigma2 * np.diag(np.linalg.inv(a @ a.T))
    assert np.abs(emp_var / theo - 1).max() < 0.05


def test_dataset_round_trip_determinism():
    spec = SimulationSpec(rho_true=0.3, seed=11)
    a = make_dataset(spec, rook(11, 11))
    b = make_dataset(spec, rook(11, 11))
    assert np.array_equal(a.data.y, b.data.y)
    assert np.array_equal(a.data.z, b.data.z)
    assert np.array_equal(a.true_theta.beta, b.true_theta.beta)


def test_dataset_satisfies_model_identity():
    spec = SimulationSpec(rho_true=0.5, seed=12)
    ds = make_dataset(spec, rook(11, 11))
    rng = np.random.default_rng(spec.seed + 1)
    eps = rng.standard_normal(121)
    a = np.eye(121) - 0.5 * ds.data.w.entries
    assert np.abs(a @ ds.data.y - ds.data.z @ ds.true_theta.beta - eps).max() < 1e-10


def test_gamma_projection_reconstruction_error():
    from fslm import reconstruct_gamma
    from fslm.simgen import project_gamma

    basis = build_bspline_basis(0, 100, 7, 4)
    t = np.arange(101.0)
    gcoef = project_gamma(basis, t)
    beta = basis.gram_chol.T @ gcoef
    dense = np.linspace(0, 100, 2001)
    err = np.abs(reconstruct_gamma(beta, basis, dense) - true_gamma(dense)).max()
    # ~0.14 with uniform knots; the sharp feature near t=0 dominates
    assert err < 0.2


def test_invalid_spec():
    with pytest.raises(ValueError):
        make_dataset(SimulationSpec(rho_true=1.0), rook(11, 11))


def test_rho_outside_the_domain_of_the_given_weights_rejected():
    # I - 0.5 W is singular for the binary rook lattice, whose domain
    # ends at 1/(4 cos(pi/12)) = 0.2588
    with pytest.raises(ValueError, match="domain"):
        make_dataset(SimulationSpec(rho_true=0.5, seed=1), grid_contiguity(11, 11))
    with pytest.raises(ValueError, match="domain"):
        make_dataset(SimulationSpec(rho_true=-0.1, seed=1), rook(11, 11))
    ds = make_dataset(SimulationSpec(rho_true=0.25, seed=1), grid_contiguity(11, 11))
    theta = Theta(beta=ds.true_theta.beta, sigma2=1.0, rho=0.5)
    with pytest.raises(ValueError, match="domain"):
        simulate_response(ds.data.z, grid_contiguity(11, 11), theta, seed=2)
