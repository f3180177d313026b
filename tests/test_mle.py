import json
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from fslm import (
    FslmData,
    SimulationSpec,
    Theta,
    fit_ml,
    grid_contiguity,
    log_likelihood,
    make_dataset,
    row_standardize,
    weights_from_edges,
)
from fslm.io import read_weights_csv, write_json, write_weights_csv
from fslm.mle import NOT_POSITIVE_DEFINITE, concentrated_loglik
from fslm.model import sigma2_hat
from fslm.sampler import default_init
from test_spatial import nearest_neighbour_weights


def finite_difference_std(theta, data):
    """Std errors from the inverse of the central-difference Hessian of the
    full log-likelihood in (beta, sigma2, rho): an oracle for fit_ml's
    analytic observed information."""
    k = data.k
    x0 = np.concatenate([theta.beta, [theta.sigma2, theta.rho]])

    def ll(x):
        return log_likelihood(Theta(beta=x[:k], sigma2=x[k], rho=x[k + 1]), data)

    p = x0.size
    h = 1e-5 * np.maximum(np.abs(x0), 1.0)
    h[k] = min(h[k], 0.4 * theta.sigma2)  # keep sigma2 steps positive
    hess = np.empty((p, p))
    for i in range(p):
        for j in range(i, p):
            total = 0.0
            for si, sj, sign in [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]:
                x = x0.copy()
                x[i] += si * h[i]
                x[j] += sj * h[j]
                total += sign * ll(x)
            hess[i, j] = hess[j, i] = total / (4 * h[i] * h[j])
    return np.sqrt(np.diag(np.linalg.inv(-hess)))


def test_no_spatial_term_reduces_to_ols():
    rng = np.random.default_rng(0)
    n, k = 40, 3
    z = rng.standard_normal((n, k))
    y = z @ np.array([1.0, 2.0, -1.0]) + 0.3 * rng.standard_normal(n)
    data = FslmData(y=y, z=z, w=weights_from_edges(n, []))
    est = fit_ml(data)
    ols, *_ = np.linalg.lstsq(z, y, rcond=None)
    assert np.abs(est.theta.beta - ols).max() < 1e-10
    resid = y - z @ ols
    assert est.theta.sigma2 == pytest.approx(float(resid @ resid) / n, rel=1e-10)


def test_noiseless_identifiability():
    rng = np.random.default_rng(1)
    n, k = 49, 3
    w = row_standardize(grid_contiguity(7, 7))
    z = rng.standard_normal((n, k))
    beta0 = np.array([2.0, -1.0, 0.5])
    rho0 = 0.5
    sigma = 1e-6
    a = np.eye(n) - rho0 * w.entries
    y = np.linalg.solve(a, z @ beta0 + sigma * rng.standard_normal(n))
    est = fit_ml(FslmData(y=y, z=z, w=w))
    assert est.theta.rho == pytest.approx(rho0, abs=1e-4)
    assert np.abs(est.theta.beta - beta0).max() < 1e-4


def test_gradient_vanishes_at_optimum():
    rng = np.random.default_rng(2)
    n = 49
    w = row_standardize(grid_contiguity(7, 7))
    z = rng.standard_normal((n, 2))
    a = np.eye(n) - 0.4 * w.entries
    y = np.linalg.solve(a, z @ np.array([1.0, -1.0]) + rng.standard_normal(n))
    data = FslmData(y=y, z=z, w=w)
    est = fit_ml(data)
    h = 1e-5
    grad = (
        concentrated_loglik(est.theta.rho + h, data)
        - concentrated_loglik(est.theta.rho - h, data)
    ) / (2 * h)
    assert abs(grad) < 1e-4


def test_scalar_slm_matches_grid_search():
    rng = np.random.default_rng(3)
    n = 36
    w = row_standardize(grid_contiguity(6, 6))
    z = np.ones((n, 1))
    a = np.eye(n) - 0.6 * w.entries
    y = np.linalg.solve(a, z @ np.array([2.0]) + 0.5 * rng.standard_normal(n))
    data = FslmData(y=y, z=z, w=w)
    est = fit_ml(data)
    grid = np.linspace(0, 0.999, 10_000)
    vals = concentrated_loglik(grid, data)
    rho_grid = grid[int(np.argmax(vals))]
    assert est.theta.rho == pytest.approx(rho_grid, abs=1e-3)


@pytest.mark.parametrize("side", [11, 22])
def test_analytic_information_matches_finite_differences(side):
    ds = make_dataset(SimulationSpec(seed=side), row_standardize(grid_contiguity(side, side)))
    est = fit_ml(ds.data)
    analytic = np.concatenate([est.std_beta, [est.std_sigma2, est.std_rho]])
    oracle = finite_difference_std(est.theta, ds.data)
    assert np.all(np.isfinite(analytic)) and np.all(analytic > 0)
    assert np.abs(analytic / oracle - 1).max() < 1e-4


def test_fewer_units_than_coefficients_is_rank_deficient():
    # a 4 x 7 Z has 4 large singular values but rank 4 < 7
    rng = np.random.default_rng(5)
    w = row_standardize(grid_contiguity(2, 2))
    data = FslmData(y=rng.standard_normal(4), z=rng.standard_normal((4, 7)), w=w)
    with pytest.raises(np.linalg.LinAlgError):
        fit_ml(data)


def test_rank_deficiency_error():
    n = 9
    w = row_standardize(grid_contiguity(3, 3))
    z = np.ones((n, 2))  # duplicated column
    y = np.arange(n, dtype=float)
    with pytest.raises(np.linalg.LinAlgError):
        fit_ml(FslmData(y=y, z=z, w=w))


def test_std_errors_finite_and_positive():
    rng = np.random.default_rng(4)
    n = 49
    w = row_standardize(grid_contiguity(7, 7))
    z = rng.standard_normal((n, 2))
    a = np.eye(n) - 0.3 * w.entries
    y = np.linalg.solve(a, z @ np.array([1.0, 0.5]) + rng.standard_normal(n))
    est = fit_ml(FslmData(y=y, z=z, w=w))
    assert np.all(np.isfinite(est.std_beta)) and np.all(est.std_beta > 0)
    assert est.std_sigma2 > 0 and est.std_rho > 0


def test_indefinite_information_gives_no_std_errors(tmp_path):
    # rho near 1 with almost noiseless data: the observed information at
    # the estimate is indefinite, whose inverse has a negative variance
    # that was once clipped to a std error of 0.0
    ds = make_dataset(SimulationSpec(rho_true=0.99, sigma2_true=1e-8, noise_sd=1e-8, seed=0),
                      row_standardize(grid_contiguity(11, 11)))
    est = fit_ml(ds.data)
    assert (est.std_beta, est.std_sigma2, est.std_rho) == (None, None, None)
    assert est.std_unavailable == NOT_POSITIVE_DEFINITE
    entry = est.to_json_dict()
    assert (entry["beta_std"], entry["sigma2_std"], entry["rho_std"]) == (None, None, None)
    assert entry["std_unavailable"] == NOT_POSITIVE_DEFINITE
    write_json(tmp_path / "report.json", {"ml": entry})
    assert json.loads((tmp_path / "report.json").read_text())["ml"] == entry


def test_json_refuses_nan(tmp_path):
    with pytest.raises(ValueError):
        write_json(tmp_path / "report.json", {"std": float("nan")})


def test_search_stays_inside_stability_interval_of_binary_weights():
    # the unstandardized rook lattice has lambda_max = 4 cos(pi/12), so
    # det(I - rho W) turns negative at rho = 0.2588, inside [0, 0.999]
    w = grid_contiguity(11, 11)
    ds = make_dataset(SimulationSpec(rho_true=0.15, seed=8), w)
    est = fit_ml(ds.data)
    assert 0.0 <= est.theta.rho < w.rho_max < 0.2589
    assert est.theta.rho == pytest.approx(0.15, abs=0.05)


@pytest.mark.parametrize("w", [row_standardize(grid_contiguity(11, 11)),
                               row_standardize(grid_contiguity(22, 22)),
                               nearest_neighbour_weights(45)],
                         ids=["11x11", "22x22", "nearest-neighbour"])
@pytest.mark.parametrize("seed", [0, 1])
def test_array_scan_matches_the_scalar_loop(w, seed):
    data = make_dataset(SimulationSpec(seed=seed), w).data
    grid = np.linspace(0.0, min(0.999, w.rho_max * (1 - 1e-9)), 200)
    s2 = np.array([sigma2_hat(rho, data) for rho in grid])
    np.testing.assert_allclose(sigma2_hat(grid, data), s2, rtol=1e-14, atol=0)
    looped = np.array([concentrated_loglik(rho, data) for rho in grid])
    vals = concentrated_loglik(grid, data)
    # l_c crosses 0 on some grids, so its rounding is bounded on the scale
    # of the (n/2) ln sigma2 term, not of l_c itself
    np.testing.assert_allclose(vals, looped, rtol=1e-14, atol=1e-14 * data.n)
    assert np.argmax(vals) == np.argmax(looped)


def test_sigma2_hat_of_a_scalar_is_a_float():
    data = make_dataset(SimulationSpec(seed=0), row_standardize(grid_contiguity(11, 11))).data
    assert type(sigma2_hat(0.5, data)) is float


@pytest.mark.parametrize("w, rho_true", [
    (row_standardize(grid_contiguity(11, 11)), 0.5),
    (nearest_neighbour_weights(45), 0.5),
    (grid_contiguity(11, 11), 0.15),
    (row_standardize(grid_contiguity(11, 11)), 0.99),
], ids=["rook", "nearest-neighbour", "binary", "near-cap"])
def test_rho_hat_matches_a_bounded_scalar_search(w, rho_true):
    # the nearest-neighbour W has complex eigenvalues; the binary one has
    # rho_max < 0.26; at rho_true = 0.99 rho_hat lies near the 0.999 cap
    data = make_dataset(SimulationSpec(rho_true=rho_true, seed=1), w).data
    hi = min(0.999, w.rho_max * (1 - 1e-9))
    oracle = minimize_scalar(lambda rho: -concentrated_loglik(rho, data), bounds=(0.0, hi),
                             method="bounded", options={"xatol": 1e-12}).x
    assert fit_ml(data).theta.rho == pytest.approx(oracle, abs=1e-8)


def test_rho_hat_of_a_flat_likelihood_is_inside_the_interval():
    # with W = 0, l_c does not depend on rho, so any point of it is a maximum
    rng = np.random.default_rng(6)
    n = 30
    data = FslmData(y=rng.standard_normal(n), z=rng.standard_normal((n, 2)),
                    w=weights_from_edges(n, []))
    rho = fit_ml(data).theta.rho
    assert np.isfinite(rho) and 0.0 <= rho <= 0.999


def test_z_whose_gram_matrix_is_singular_to_rounding_is_rank_deficient():
    # Z's smallest singular value passes fit_ml's 1e-10 ratio test, but Z'Z,
    # whose condition is its square, is singular to rounding; ML and the
    # chain's start both reach it through ols_pair
    ds = make_dataset(SimulationSpec(0.99, 1e-8, 1e-8, seed=3),
                      row_standardize(grid_contiguity(11, 11)))
    for fit in (fit_ml, default_init):
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient: Z'Z is singular"):
            fit(ds.data)


def test_rho_hat_is_zero_when_the_slope_at_zero_is_negative():
    w = row_standardize(grid_contiguity(11, 11))
    rng = np.random.default_rng(7)
    z = rng.standard_normal((w.n, 3))
    y = np.linalg.solve(np.eye(w.n) + 0.5 * w.entries,
                        z @ np.array([1.0, -1.0, 0.5]) + rng.standard_normal(w.n))
    assert fit_ml(FslmData(y=y, z=z, w=w)).theta.rho == 0.0


def test_rho_hat_is_the_cap_when_the_slope_at_the_cap_is_positive():
    w = row_standardize(grid_contiguity(11, 11))
    ds = make_dataset(SimulationSpec(rho_true=0.99999, sigma2_true=1e-4, noise_sd=1e-2,
                                     seed=1), w)
    assert fit_ml(ds.data).theta.rho == 0.999


def dense_slope(rho, data):
    """l_c'(rho) = n r'Wy / r'r - tr(W (I - rho W)^-1), with neither W's
    eigenvalues nor ols_pair: r is the least-squares residual of
    (I - rho W) y on Z, at whose beta d(r'r)/drho = -2 r'Wy, and the
    trace comes from a dense solve."""
    w = data.w.entries
    wy = w @ data.y
    ay = data.y - rho * wy
    r = ay - data.z @ np.linalg.lstsq(data.z, ay, rcond=None)[0]
    trace = np.trace(np.linalg.solve(np.eye(data.n) - rho * w, w))
    return data.n * (r @ wy) / (r @ r) - trace


@pytest.mark.parametrize("w, rho_true", [
    (row_standardize(grid_contiguity(11, 11)), 0.5),
    (nearest_neighbour_weights(45), 0.5),
    (grid_contiguity(11, 11), 0.15),
], ids=["rook", "nearest-neighbour", "binary"])
@pytest.mark.parametrize("seed", [0, 1])
def test_rho_hat_is_the_root_of_a_dense_slope(w, rho_true, seed):
    data = make_dataset(SimulationSpec(rho_true=rho_true, seed=seed), w).data
    rho_hat = fit_ml(data).theta.rho
    root = brentq(dense_slope, rho_hat - 1e-3, rho_hat + 1e-3, args=(data,),
                  xtol=1e-15, rtol=1e-15)
    assert abs(rho_hat - root) <= 1e-11


def test_fit_ml_on_a_read_lattice_builds_no_n_by_n_array(tmp_path):
    # W is held as its links: reading it and fitting on it, spectrum and
    # W y included, never makes an n x n array (rook lattices take the
    # half-size block's SVD)
    lattice = row_standardize(grid_contiguity(22, 22))
    ds = make_dataset(SimulationSpec(seed=2), lattice)
    write_weights_csv(tmp_path / "weights.csv", lattice)
    n_by_n = 8 * lattice.n**2
    tracemalloc.start()
    try:
        w = read_weights_csv(tmp_path / "weights.csv", lattice.n)
        fit_ml(FslmData(y=ds.data.y, z=ds.data.z, w=w))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_by_n
    assert "entries" not in vars(w)
