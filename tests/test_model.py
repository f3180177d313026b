import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import trapezoid

from fslm import (
    FslmData,
    PriorSpec,
    Theta,
    beta_conditional_params,
    beta_factor,
    bic,
    log_likelihood,
    rho_log_conditional,
    row_standardize,
    sigma2_conditional_params,
    weights_from_edges,
)
from fslm.mle import NOT_POSITIVE_DEFINITE, _observed_info_std
from fslm.model import rss_at, rss_quadratic


def make_data(n=6, k=2, seed=0, edges=None):
    rng = np.random.default_rng(seed)
    if edges is None:
        edges = [(i, i + 1) for i in range(n - 1)]
    w = weights_from_edges(n, edges)
    z = rng.standard_normal((n, k))
    y = rng.standard_normal(n)
    return FslmData(y=y, z=z, w=w)


def beta_params(sigma2, rho, factor):
    """beta's conditional mean and a square root R of its covariance,
    RR' = sigma2 P^{-1}, from its coordinates' means and sds: beta = U s."""
    mean, sd = beta_conditional_params(sigma2, rho, factor)
    return factor.u @ mean, factor.u * sd


def quadratic_at(beta, data, prior=None):
    """rss_quadratic's coefficients at beta, whose coordinates solve U s = beta."""
    factor = beta_factor(data, prior or PriorSpec.diffuse(data.k))
    return rss_quadratic(np.linalg.solve(factor.u, beta), factor, data)


def test_loglik_standard_normal_origin():
    n = 5
    data = FslmData(
        y=np.zeros(n),
        z=np.zeros((n, 2)),
        w=weights_from_edges(n, []),
    )
    theta = Theta(beta=np.zeros(2), sigma2=1.0, rho=0.0)
    assert log_likelihood(theta, data) == pytest.approx(-0.5 * n * np.log(2 * np.pi))


def test_loglik_matches_ols_at_rho_zero():
    data = make_data(seed=1)
    theta = Theta(beta=np.array([0.4, -0.2]), sigma2=1.7, rho=0.0)
    resid = data.y - data.z @ theta.beta
    ref = stats.norm.logpdf(resid, scale=np.sqrt(theta.sigma2)).sum()
    assert log_likelihood(theta, data) == pytest.approx(ref, abs=1e-10)


def test_loglik_hand_2x2():
    w = weights_from_edges(2, [(0, 1)])
    y = np.array([1.0, 2.0])
    z = np.array([[1.0], [1.0]])
    data = FslmData(y=y, z=z, w=w)
    theta = Theta(beta=np.array([0.5]), sigma2=2.0, rho=0.5)
    # A y = (1 - 0.5*2, 2 - 0.5*1) = (0, 1.5); residuals (-0.5, 1.0)
    quad = (0.25 + 1.0) / (2 * 2.0)
    ref = -np.log(2 * np.pi) - np.log(2.0) - quad + np.log(0.75)
    assert log_likelihood(theta, data) == pytest.approx(ref, abs=1e-12)


def test_loglik_invalid_sigma2():
    data = make_data()
    with pytest.raises(ValueError):
        log_likelihood(Theta(beta=np.zeros(2), sigma2=0.0, rho=0.0), data)


def test_sigma2_conditional_zero_residual():
    data = make_data(seed=2)
    prior = PriorSpec.diffuse(2)
    # choose beta/rho giving the exact residual structure
    data = FslmData(y=data.z @ np.array([1.0, 2.0]), z=data.z, w=data.w)
    rss = rss_at(quadratic_at(np.array([1.0, 2.0]), data, prior), 0.0)
    shape, scale = sigma2_conditional_params(rss, data, prior)
    assert shape == pytest.approx(data.n / 2 + prior.a)
    assert scale == pytest.approx(prior.b)


def test_sigma2_conditional_arithmetic():
    w = weights_from_edges(4, [])
    y = np.array([1.0, 1.0, 0.0, 0.0])
    z = np.zeros((4, 1))
    data = FslmData(y=y, z=z, w=w)
    prior = PriorSpec(m=np.zeros(1), sigma_beta=np.eye(1), a=0.001, b=0.001)
    shape, scale = sigma2_conditional_params(rss_at(quadratic_at(np.zeros(1), data, prior), 0.0),
                                             data, prior)
    assert shape == pytest.approx(2.001)
    assert scale == pytest.approx(1.001)


def test_sigma2_conditional_ig_moments():
    rng = np.random.default_rng(4)
    shape, scale = 4.0, 3.0
    draws = scale / rng.gamma(shape, size=100_000)
    mean = scale / (shape - 1)
    sd = mean / np.sqrt(shape - 2)
    mcse = draws.std() / np.sqrt(draws.size)
    assert abs(draws.mean() - mean) < 3 * mcse
    assert draws.std() == pytest.approx(sd, rel=0.05)


def test_beta_conditional_no_data_returns_prior():
    n, k = 5, 2
    data = FslmData(y=np.ones(n), z=np.zeros((n, k)), w=weights_from_edges(n, []))
    prior = PriorSpec(m=np.array([1.0, -2.0]), sigma_beta=np.diag([2.0, 3.0]))
    mean, root = beta_params(1.5, 0.0, beta_factor(data, prior))
    assert np.allclose(mean, prior.m)
    assert np.allclose(root @ root.T, prior.sigma_beta)


def test_beta_conditional_diffuse_limit_is_ols():
    data = make_data(n=30, seed=5)
    prior = PriorSpec(m=np.zeros(2), sigma_beta=1e6 * np.eye(2))
    mean, _ = beta_params(1.0, 0.0, beta_factor(data, prior))
    ols, *_ = np.linalg.lstsq(data.z, data.y, rcond=None)
    assert np.abs(mean - ols).max() / np.abs(ols).max() < 1e-4


def test_beta_conditional_scalar_conjugacy():
    # textbook normal-normal update with known variance
    n = 12
    rng = np.random.default_rng(6)
    y = rng.standard_normal(n) + 2.0
    data = FslmData(y=y, z=np.ones((n, 1)), w=weights_from_edges(n, []))
    m0, v0, sigma2 = 0.5, 4.0, 2.0
    prior = PriorSpec(m=np.array([m0]), sigma_beta=np.array([[v0]]))
    mean, root = beta_params(sigma2, 0.0, beta_factor(data, prior))
    post_var = 1 / (n / sigma2 + 1 / v0)
    post_mean = post_var * (y.sum() / sigma2 + m0 / v0)
    assert mean[0] == pytest.approx(post_mean, abs=1e-12)
    assert (root @ root.T)[0, 0] == pytest.approx(post_var, abs=1e-12)


def test_beta_conditional_cov_spd():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n, k = 8, 3
        data = FslmData(
            y=rng.standard_normal(n),
            z=rng.standard_normal((n, k)),
            w=weights_from_edges(n, [(0, 1)]),
        )
        q = rng.standard_normal((k, k))
        prior = PriorSpec(m=rng.standard_normal(k), sigma_beta=q @ q.T + k * np.eye(k))
        _, root = beta_params(
            float(rng.uniform(0.2, 3)), float(rng.uniform(0, 0.9)), beta_factor(data, prior)
        )
        cov = root @ root.T
        assert np.allclose(cov, cov.T)
        np.linalg.cholesky(cov)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    extra=st.integers(0, 16),
    rank_deficient=st.booleans(),
    log_sigma2=st.floats(-6.0, 6.0),
    rho=st.floats(0.0, 0.9),
)
def test_beta_factor_matches_solve_and_inverse(seed, k, extra, rank_deficient, log_sigma2,
                                               rho):
    rng = np.random.default_rng(seed)
    n = k + 3 + extra
    z = rng.standard_normal((n, k))
    if rank_deficient:  # a null direction of Z'Z: mu = 0
        z[:, -1] = z[:, :-1] @ rng.standard_normal(k - 1) if k > 1 else 0.0
    data = FslmData(y=3.0 * rng.standard_normal(n), z=z,
                    w=weights_from_edges(n, [(i, i + 1) for i in range(n - 1)]))
    q = rng.standard_normal((k, k))
    prior = PriorSpec(m=rng.standard_normal(k), sigma_beta=q @ q.T + 0.5 * np.eye(k))
    sigma2 = 10.0**log_sigma2
    factor = beta_factor(data, prior)
    if rank_deficient:
        assert factor.mu.min() <= 1e-12 * max(1.0, factor.mu.max())
    mean, root = beta_params(sigma2, rho, factor)

    g = data.gram
    p = g[2:, 2:] + sigma2 * np.linalg.inv(prior.sigma_beta)
    b = g[2:, 0] - rho * g[2:, 1] + sigma2 * np.linalg.solve(prior.sigma_beta, prior.m)
    # 1e-10 relative, or the rounding that P's conditioning allows any
    # float64 method (at sigma2 = 1e-6 and mu = 0, cond(P) reaches 1e8)
    tol = max(1e-10, 16 * np.finfo(float).eps * np.linalg.cond(p))
    want = np.linalg.solve(p, b)
    assert np.linalg.norm(mean - want) <= tol * np.linalg.norm(want)
    cov = sigma2 * np.linalg.inv(p)
    assert np.linalg.norm(root @ root.T - cov) <= tol * np.linalg.norm(cov)


def test_rho_conditional_constant_when_w_zero():
    data = make_data(edges=[], seed=8)
    quadratic = quadratic_at(np.array([0.1, 0.2]), data)
    vals = [rho_log_conditional(r, quadratic, 1.0, data) for r in (0.0, 0.3, 0.9)]
    assert np.ptp(vals) < 1e-12


def test_rho_conditional_outside_support():
    data = make_data()
    quadratic = quadratic_at(np.zeros(2), data)
    assert rho_log_conditional(1.5, quadratic, 1.0, data) == -np.inf
    assert rho_log_conditional(-0.1, quadratic, 1.0, data) == -np.inf


def test_rho_conditional_matches_loglik_at_zero():
    data = make_data(seed=9)
    beta, sigma2 = np.array([0.3, -0.7]), 1.3
    const = -0.5 * data.n * np.log(2 * np.pi * sigma2)
    ll = log_likelihood(Theta(beta=beta, sigma2=sigma2, rho=0.0), data)
    assert rho_log_conditional(0.0, quadratic_at(beta, data), sigma2, data) == pytest.approx(
        ll - const, abs=1e-10
    )


def test_rho_conditional_differences_match_loglik():
    from fslm import row_standardize, grid_contiguity

    rng = np.random.default_rng(10)
    w = row_standardize(grid_contiguity(3, 3))
    data = FslmData(
        y=rng.standard_normal(9), z=rng.standard_normal((9, 2)), w=w
    )
    beta, sigma2 = rng.standard_normal(2), 0.8
    quadratic = quadratic_at(beta, data)
    for r1, r2 in [(0.1, 0.6), (0.0, 0.9), (0.25, 0.3)]:
        d_cond = rho_log_conditional(r1, quadratic, sigma2, data) - rho_log_conditional(
            r2, quadratic, sigma2, data
        )
        d_ll = log_likelihood(
            Theta(beta=beta, sigma2=sigma2, rho=r1), data
        ) - log_likelihood(Theta(beta=beta, sigma2=sigma2, rho=r2), data)
        assert d_cond == pytest.approx(d_ll, abs=1e-10)


def test_rho_conditional_normalizes_to_one():
    from fslm import row_standardize, grid_contiguity

    rng = np.random.default_rng(11)
    w = row_standardize(grid_contiguity(3, 3))
    data = FslmData(y=rng.standard_normal(9), z=rng.standard_normal((9, 2)), w=w)
    beta, sigma2 = rng.standard_normal(2), 1.0
    quadratic = quadratic_at(beta, data)
    grid = np.linspace(0, 1, 10_001)
    logs = np.array([rho_log_conditional(r, quadratic, sigma2, data) for r in grid])
    dens = np.exp(logs - logs.max())
    dens /= trapezoid(dens, grid)
    assert trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)


def test_bic_penalty_and_monotonicity():
    data = make_data(n=10, seed=12)
    assert (data.k + 2) * np.log(data.n) == pytest.approx(4 * np.log(10))
    t1 = Theta(beta=np.zeros(2), sigma2=1.0, rho=0.0)
    t2 = Theta(beta=np.zeros(2), sigma2=5.0, rho=0.0)
    better, worse = sorted(
        (t1, t2), key=lambda t: -log_likelihood(t, data)
    )
    assert bic(better, data) < bic(worse, data)


def test_bic_paper_scale_penalty():
    assert 9 * np.log(121) == pytest.approx(43.17, abs=0.01)


def test_bic_reduces_to_linear_model():
    data = make_data(n=20, seed=13)
    theta = Theta(beta=np.array([0.5, -0.5]), sigma2=1.2, rho=0.0)
    resid = data.y - data.z @ theta.beta
    ll = stats.norm.logpdf(resid, scale=np.sqrt(theta.sigma2)).sum()
    ref = -2 * ll + (data.k + 2) * np.log(data.n)
    assert bic(theta, data) == pytest.approx(ref, abs=1e-10)


def test_gibbs_conditionals_match_grid_posterior():
    # k=1, n=8, fixed rho: the (beta, sigma2) posterior from the exact
    # conditionals must agree with a brute-force 2-d grid posterior
    rng = np.random.default_rng(14)
    n = 8
    w = weights_from_edges(n, [(i, i + 1) for i in range(n - 1)])
    from fslm import row_standardize

    w = row_standardize(w)
    z = rng.standard_normal((n, 1))
    beta_true = np.array([1.5])
    rho = 0.4
    a_mat = np.eye(n) - rho * w.entries
    y = np.linalg.solve(a_mat, z @ beta_true + 0.7 * rng.standard_normal(n))
    data = FslmData(y=y, z=z, w=w)
    prior = PriorSpec(m=np.zeros(1), sigma_beta=np.array([[10.0]]), a=2.0, b=1.0)

    betas = np.linspace(-2, 5, 400)
    sig2s = np.linspace(0.01, 8, 400)
    bb, ss = np.meshgrid(betas, sig2s, indexing="ij")
    ay = a_mat @ y
    resid2 = (ay[None, None, :] - z[:, 0][None, None, :] * bb[..., None]) ** 2
    logp = (
        -0.5 * (n / 1.0) * np.log(ss)
        - 0.5 * resid2.sum(axis=-1) / ss
        - 0.5 * bb**2 / prior.sigma_beta[0, 0]
        - (prior.a + 1) * np.log(ss)
        - prior.b / ss
    )
    post = np.exp(logp - logp.max())
    post /= post.sum()
    grid_beta_mean = (post.sum(axis=1) * betas).sum()
    grid_sig2_mean = (post.sum(axis=0) * sig2s).sum()

    # Gibbs on the same two blocks with rho fixed
    rng2 = np.random.default_rng(15)
    sigma2 = 1.0
    draws_b, draws_s = [], []
    factor = beta_factor(data, prior)
    for _ in range(40_000):
        mean, sd = beta_conditional_params(sigma2, rho, factor)
        s = mean + sd * rng2.standard_normal(1)
        rss = rss_at(rss_quadratic(s, factor, data), rho)
        shape, scale = sigma2_conditional_params(rss, data, prior)
        sigma2 = scale / rng2.gamma(shape)
        draws_b.append((factor.u @ s)[0])
        draws_s.append(sigma2)
    draws_b, draws_s = np.array(draws_b[2000:]), np.array(draws_s[2000:])

    assert draws_b.mean() == pytest.approx(grid_beta_mean, abs=0.02 * max(1, abs(grid_beta_mean)))
    assert draws_s.mean() == pytest.approx(grid_sig2_mean, rel=0.02)
    assert draws_b.std() == pytest.approx(
        np.sqrt((post.sum(axis=1) * (betas - grid_beta_mean) ** 2).sum()), rel=0.02
    )


@pytest.mark.parametrize("k", [1, 2, 7, 9])
def test_iteration_helpers_give_the_bits_of_their_matmul_forms(k):
    # the sampler's per-iteration helpers use ndarray.dot and cached floats
    data = make_data(n=12, k=k, seed=k)
    rng = np.random.default_rng(k)
    prior = PriorSpec(m=rng.standard_normal(k), sigma_beta=np.diag(rng.random(k) + 0.5))
    factor = beta_factor(data, prior)
    g = data.gram
    for _ in range(200):
        sigma2, rho = 10.0 ** rng.uniform(-3, 3), rng.random()
        mean, sd = beta_conditional_params(sigma2, rho, factor)
        d = 1.0 / (factor.mu + sigma2)
        assert np.array_equal(mean, d * (factor.ub @ (1.0, -rho, sigma2)))
        assert np.array_equal(sd, np.sqrt(sigma2 * d))
        s = mean + sd * rng.standard_normal(k)
        sy, swy, _ = s @ factor.ub
        assert rss_quadratic(s, factor, data) == (
            g[0, 0] - 2.0 * sy + factor.mu @ (s * s), g[0, 1] - swy, g[1, 1])


def test_data_products_cached():
    data = make_data(n=8, k=3, seed=13)
    x = np.column_stack([data.y, data.w.entries @ data.y, data.z])
    assert np.array_equal(data.gram, x.T @ x)
    b, e = data.ols_pair
    ols, *_ = np.linalg.lstsq(data.z, x[:, :2], rcond=None)
    assert b == pytest.approx(ols, abs=1e-12)
    assert e == pytest.approx(x[:, :2] - data.z @ ols, abs=1e-12)
    assert data.gram is data.gram and data.ols_pair is data.ols_pair
    g = data.gram
    assert data.rss_terms == (g[0, 0], g[0, 1], g[1, 1])
    assert all(type(t) is float for t in data.rss_terms)
    with pytest.raises(ValueError):
        data.y[0] = 1.0  # read-only, so the cached products cannot go stale
    with pytest.raises(ValueError):
        data.gram[0, 0] = 1.0


def test_rho_conditional_vanishes_where_singular():
    # W = [[0, 1], [1, 0]] makes I - W singular and det(I - rho W) < 0
    # for rho > 1; just below 1 the factor 1 - rho is rounding
    data = make_data(n=2, k=1, seed=14)
    quadratic = quadratic_at(np.zeros(1), data)
    assert data.w.rho_max == 1.0
    for rho in (1.0, 1.5, 1.0 - 1e-13):
        assert rho_log_conditional(rho, quadratic, 1.0, data) == -np.inf
    assert np.isfinite(rho_log_conditional(0.5, quadratic, 1.0, data))


def vector_residual_oracle(beta, sigma2, rho, data, prior):
    """Every likelihood quantity from the n-vector residual
    r = (I - rho W) y - Z beta, slogdet and dense inverses."""
    n, k = data.n, data.k
    w, y, z = data.w.entries, data.y, data.z
    wy = w @ y
    r = y - rho * wy - z @ beta
    rr = r @ r
    sign, logdet = np.linalg.slogdet(np.eye(n) - rho * w)
    assert sign > 0
    kernel = logdet - 0.5 * rr / sigma2
    cov = np.linalg.inv(z.T @ z / sigma2 + np.linalg.inv(prior.sigma_beta))
    prior_mean = np.linalg.solve(prior.sigma_beta, prior.m)
    mean = cov @ (z.T @ (y - rho * wy) / sigma2 + prior_mean)
    # observed information in (beta, sigma2, rho); sum g^2 = tr((W A^-1)^2)
    wa = w @ np.linalg.inv(np.eye(n) - rho * w)
    hess = np.empty((k + 2, k + 2))
    hess[:k, :k] = -z.T @ z / sigma2
    hess[:k, k] = hess[k, :k] = -(z.T @ r) / sigma2**2
    hess[:k, k + 1] = hess[k + 1, :k] = -(z.T @ wy) / sigma2
    hess[k, k] = n / (2 * sigma2**2) - rr / sigma2**3
    hess[k, k + 1] = hess[k + 1, k] = -(wy @ r) / sigma2**2
    hess[k + 1, k + 1] = -(wy @ wy) / sigma2 - np.trace(wa @ wa)
    return {
        "loglik": -0.5 * n * np.log(2 * np.pi * sigma2) + kernel,
        "rho_cond": kernel,
        "sigma2_params": (n / 2 + prior.a, (rr + 2 * prior.b) / 2),
        "beta_params": (mean, cov),
        "hess": hess,
    }


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    extra=st.integers(0, 16),
    density=st.floats(0.0, 1.0),
    standardize=st.booleans(),
    u=st.floats(-0.95, 0.95),
    sigma2=st.floats(0.05, 20.0),
)
def test_gram_kernel_matches_vector_residual(seed, k, extra, density, standardize, u,
                                             sigma2):
    n = k + 3 + extra  # enough residual dimensions for a regular information
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.uniform() < density]
    w = weights_from_edges(n, edges)
    if standardize:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # isolated units stay all-zero rows
            w = row_standardize(w)
    # log_likelihood holds on (1/lambda_min, 1/lambda_max), negative rho
    # included; rho_log_conditional only on [0, rho_max)
    lam = w.eigenvalues
    edge = lam.max(initial=0.0) if u > 0 else -lam.min(initial=0.0)
    rho = u / edge if edge > 0 else u
    rho_c = abs(u) * w.rho_max
    z = rng.standard_normal((n, k))
    y = 3.0 * rng.standard_normal(n)
    data = FslmData(y=y, z=z, w=w)
    beta = rng.standard_normal(k)
    prior = PriorSpec(m=rng.standard_normal(k), sigma_beta=np.diag(rng.uniform(0.5, 5.0, k)))
    want = vector_residual_oracle(beta, sigma2, rho, data, prior)

    theta = Theta(beta=beta, sigma2=sigma2, rho=rho)
    loglik = log_likelihood(theta, data)
    assert loglik == pytest.approx(want["loglik"], rel=1e-10, abs=1e-10)
    quadratic = quadratic_at(beta, data, prior)
    assert rho_log_conditional(rho_c, quadratic, sigma2, data) == pytest.approx(
        vector_residual_oracle(beta, sigma2, rho_c, data, prior)["rho_cond"],
        rel=1e-10, abs=1e-10)
    shape, scale = sigma2_conditional_params(rss_at(quadratic, rho), data, prior)
    assert shape == want["sigma2_params"][0]
    assert scale == pytest.approx(want["sigma2_params"][1], rel=1e-10)
    mean, root = beta_params(sigma2, rho, beta_factor(data, prior))
    assert mean == pytest.approx(want["beta_params"][0], rel=1e-8, abs=1e-10)
    assert root @ root.T == pytest.approx(want["beta_params"][1], rel=1e-8, abs=1e-12)

    hess = want["hess"]
    assume(np.linalg.cond(hess) < 1e8)
    std_beta, std_sigma2, std_rho, unavailable = _observed_info_std(theta, data)
    # away from the ML estimate the information need not be positive definite
    if np.linalg.eigvalsh(-hess).min() > 0:
        std = np.sqrt(np.diag(np.linalg.inv(-hess)))
        got = np.concatenate([std_beta, [std_sigma2, std_rho]])
        assert got == pytest.approx(std, rel=1e-6, abs=1e-9 * std.max())
        assert unavailable is None
    else:
        assert (std_beta, std_sigma2, std_rho) == (None, None, None)
        assert unavailable == NOT_POSITIVE_DEFINITE


def test_exact_fit_squared_residual_is_not_negative():
    # y = Z beta at rho = 0: the residual is exactly zero, and the expanded
    # quadratic reads a rounding error of either sign there
    prior = PriorSpec.diffuse(3)
    w = weights_from_edges(30, [(i, i + 1) for i in range(29)])
    for seed in range(50):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((30, 3))
        beta = 10.0 * rng.standard_normal(3)
        data = FslmData(y=z @ beta, z=z, w=w)
        quadratic = quadratic_at(beta, data, prior)
        _, scale = sigma2_conditional_params(rss_at(quadratic, 0.0), data, prior)
        assert scale >= prior.b
        assert rho_log_conditional(0.0, quadratic, 1e-6, data) <= 0.0


@pytest.mark.parametrize("fields, name", [
    (dict(m=np.zeros(5), sigma_beta=np.eye(3)), "sigma_beta"),
    (dict(m=np.zeros((2, 1)), sigma_beta=np.eye(2)), "sigma_beta"),
    (dict(m=np.array([0.0, np.nan]), sigma_beta=np.eye(2)), "m"),
    (dict(m=np.zeros(2), sigma_beta=np.diag([1.0, np.inf])), "sigma_beta"),
    (dict(m=np.zeros(2), sigma_beta=np.eye(2), a=np.nan), "a"),
    (dict(m=np.zeros(2), sigma_beta=np.eye(2), a=0.0), "a"),
    (dict(m=np.zeros(2), sigma_beta=np.eye(2), b=np.inf), "b"),
    (dict(m=np.zeros(2), sigma_beta=np.eye(2), b=-1.0), "b"),
    # cholesky would read only the lower triangle, identity here
    (dict(m=np.zeros(2), sigma_beta=np.array([[1.0, 0.5], [0.0, 1.0]])), "sigma_beta"),
])
def test_prior_refuses_invalid_fields_naming_them(fields, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        PriorSpec(**fields)


def test_prior_of_another_k_is_refused_before_any_draw(monkeypatch):
    import fslm.sampler
    from fslm import MhConfig, run_mwg

    draws = []
    monkeypatch.setattr(fslm.sampler, "beta_conditional_params",
                        lambda *args: draws.append(args))
    with pytest.raises(ValueError, match="^m has 3 entries, but the data have k = 2"):
        run_mwg(make_data(k=2), PriorSpec.diffuse(3), MhConfig(n_iter=10, burn_in=2))
    assert draws == []
