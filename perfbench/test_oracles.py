"""Each oracle against a closed form or a brute-force value.

    python3 -m pytest perfbench/test_oracles.py
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.signal import lfilter
from scipy.stats import multivariate_normal

import oracles


def rook(rows, cols):
    """Row-standardized rook contiguity, built cell by cell."""
    n = rows * cols
    c = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if abs(i // cols - j // cols) + abs(i % cols - j % cols) == 1:
                c[i, j] = 1.0
    return c / c.sum(axis=1, keepdims=True)


def sar_data(rows=4, cols=5, k=3, rho=0.4, seed=0):
    rng = np.random.default_rng(seed)
    w = rook(rows, cols)
    n = w.shape[0]
    z = rng.standard_normal((n, k))
    y = np.linalg.solve(np.eye(n) - rho * w, z @ rng.standard_normal(k)
                        + 0.5 * rng.standard_normal(n))
    return y, z, w, oracles.eigenvalues(w)


@pytest.mark.parametrize("rho", [-0.5, 0.3, 0.9])
def test_log_det_complete_graph_closed_form(rho):
    # W = (J - I)/(m - 1) has eigenvalues 1 and -1/(m - 1) (m - 1 times)
    m = 6
    w = (np.ones((m, m)) - np.eye(m)) / (m - 1)
    expected = math.log(1 - rho) + (m - 1) * math.log(1 + rho / (m - 1))
    assert oracles.log_det(oracles.eigenvalues(w), rho) == pytest.approx(expected, abs=1e-12)


def test_log_det_matches_slogdet_on_lattice():
    w = rook(4, 6)
    lam = oracles.eigenvalues(w)
    for rho in (-0.9, 0.0, 0.5, 0.99):
        sign, logdet = np.linalg.slogdet(np.eye(w.shape[0]) - rho * w)
        assert sign > 0
        assert oracles.log_det(lam, rho) == pytest.approx(logdet, abs=1e-10)


def test_log_det_rejects_singular_rho():
    with pytest.raises(ValueError):
        oracles.log_det(oracles.eigenvalues(rook(3, 3)), 1.2)


def test_log_likelihood_matches_multivariate_normal():
    # y = (I - rho W)^-1 (Z beta + eps) is N(A^-1 Z beta, sigma2 (A'A)^-1)
    y, z, w, lam = sar_data()
    beta, sigma2, rho = np.array([0.3, -1.0, 2.0]), 0.7, 0.35
    a_inv = np.linalg.inv(np.eye(y.size) - rho * w)
    dist = multivariate_normal(a_inv @ z @ beta, sigma2 * a_inv @ a_inv.T)
    assert oracles.log_likelihood(beta, sigma2, rho, y, z, w, lam) == pytest.approx(
        dist.logpdf(y), rel=1e-10)


def test_concentrated_loglik_is_profiled_full_loglik():
    # max over (beta, sigma2) of the full log-likelihood at fixed rho is
    # l_c(rho) - (n/2)(1 + ln 2 pi)
    y, z, w, lam = sar_data()
    n, k, rho = y.size, z.shape[1], 0.25

    def neg(x):
        return -oracles.log_likelihood(x[:k], math.exp(x[k]), rho, y, z, w, lam)

    best = minimize(neg, np.zeros(k + 1), method="BFGS", options={"gtol": 1e-9})
    expected = oracles.concentrated_loglik(rho, y, z, w, lam) - 0.5 * n * (1 + math.log(2 * math.pi))
    assert -best.fun == pytest.approx(expected, abs=1e-6)


def test_argmax_concentrated_matches_dense_grid():
    y, z, w, lam = sar_data(rho=0.6, seed=3)
    grid = np.linspace(0.0, 0.999, 20_001)
    brute = grid[np.argmax([oracles.concentrated_loglik(r, y, z, w, lam) for r in grid])]
    assert oracles.argmax_concentrated(y, z, w, lam, 0.0, 0.999) == pytest.approx(
        brute, abs=grid[1] - grid[0])


def test_morans_i_checkerboard_is_minus_one():
    # every rook neighbour of a +1 cell is -1: sum w z_i z_j = -S0
    rows, cols = 4, 4
    w = rook(rows, cols)
    values = [(-1.0) ** (i // cols + i % cols) for i in range(rows * cols)]
    triplets = [(i, j, w[i, j]) for i, j in zip(*np.nonzero(w))]
    assert oracles.morans_i(values, triplets) == pytest.approx(-1.0, abs=1e-14)


def test_morans_i_matches_matrix_form():
    y, _, w, _ = sar_data(seed=5)
    triplets = [(i, j, w[i, j]) for i, j in zip(*np.nonzero(w))]
    zc = y - y.mean()
    expected = y.size / w.sum() * (zc @ w @ zc) / (zc @ zc)
    assert oracles.morans_i(list(y), triplets) == pytest.approx(expected, abs=1e-12)


def test_autocorrelation_matches_direct_sum():
    x = np.random.default_rng(1).standard_normal(300).cumsum()
    xc = x - x.mean()
    direct = np.array([xc[: x.size - t] @ xc[t:] for t in range(x.size)]) / (xc @ xc)
    assert np.allclose(oracles.autocorrelation(x), direct, atol=1e-12)


@pytest.mark.parametrize("phi", [0.9, 0.0, -0.5])
def test_ess_of_ar1_matches_closed_form(phi):
    # AR(1): tau = (1 + phi) / (1 - phi)
    n = 200_000
    x = lfilter([1.0], [1.0, -phi], np.random.default_rng(7).standard_normal(n))
    assert oracles.ess(x) == pytest.approx(n * (1 - phi) / (1 + phi), rel=0.05)


def test_ess_rejects_constant_series():
    with pytest.raises(ValueError):
        oracles.ess(np.ones(100))
