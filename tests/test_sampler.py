from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import trapezoid

from fslm import (
    Chain,
    FslmData,
    MhConfig,
    PriorSpec,
    SimulationSpec,
    grid_contiguity,
    make_dataset,
    propose_rho,
    rho_log_conditional,
    row_standardize,
    run_mwg,
    summarize,
    weights_from_edges,
)
from fslm.model import (
    beta_conditional_params,
    beta_factor,
    bic,
    rho_information,
    sigma2_conditional_params,
    sigma2_hat,
)
from fslm.sampler import STEP_SCALE, TARGET_ACCEPTANCE, default_init


@pytest.fixture(scope="module")
def small_problem():
    rng = np.random.default_rng(20)
    w = row_standardize(grid_contiguity(3, 3))
    z = rng.standard_normal((9, 2))
    a = np.eye(9) - 0.4 * w.entries
    y = np.linalg.solve(a, z @ np.array([1.0, -0.5]) + 0.5 * rng.standard_normal(9))
    return FslmData(y=y, z=z, w=w), PriorSpec.diffuse(2)


def test_propose_rho_zero_scale_limit():
    rng = np.random.default_rng(0)
    assert propose_rho(0.5, 1e-300, "normal", rng) == pytest.approx(0.5)


def test_propose_rho_normal_sd():
    rng = np.random.default_rng(1)
    c = 0.37
    draws = np.array([propose_rho(0.2, c, "normal", rng) for _ in range(100_000)])
    assert draws.std() == pytest.approx(c, rel=0.02)
    assert draws.mean() == pytest.approx(0.2, abs=0.01)


def test_propose_rho_uniform_support():
    rng = np.random.default_rng(2)
    c = 0.25
    draws = np.array([propose_rho(0.5, c, "uniform", rng) for _ in range(10_000)])
    assert draws.min() >= 0.25 and draws.max() <= 0.75


def log_accept(rho_new, rho_old, beta, sigma2, data):
    """The Metropolis step's log acceptance probability in run_mwg."""
    new = rho_log_conditional(rho_new, beta, sigma2, data)
    old = rho_log_conditional(rho_old, beta, sigma2, data)
    return min(new - old, 0.0)


def test_acceptance_identity_proposal(small_problem):
    data, _ = small_problem
    beta = np.array([1.0, -0.5])
    assert log_accept(0.4, 0.4, beta, 0.5, data) == 0.0


def test_acceptance_outside_support(small_problem):
    data, _ = small_problem
    beta = np.array([1.0, -0.5])
    assert log_accept(1.2, 0.4, beta, 0.5, data) == -np.inf
    assert log_accept(-0.2, 0.4, beta, 0.5, data) == -np.inf


def test_acceptance_matches_normalized_density_ratio(small_problem):
    data, _ = small_problem
    beta, sigma2 = np.array([1.0, -0.5]), 0.5
    grid = np.linspace(0, 1, 20_001)
    logs = np.array([rho_log_conditional(r, beta, sigma2, data) for r in grid])
    dens = np.exp(logs - logs.max())
    dens /= trapezoid(dens, grid)

    def norm_dens(r):
        return np.exp(
            rho_log_conditional(r, beta, sigma2, data) - logs.max()
        ) / trapezoid(np.exp(logs - logs.max()), grid)

    for r_new, r_old in [(0.6, 0.3), (0.1, 0.8)]:
        lp = log_accept(r_new, r_old, beta, sigma2, data)
        ratio = min(norm_dens(r_new) / norm_dens(r_old), 1.0)
        assert np.exp(lp) == pytest.approx(ratio, abs=1e-8)


def test_burn_in_scales_step_by_block_acceptance(small_problem):
    cfg = MhConfig(n_iter=1100, burn_in=1000)
    chain = run_mwg(*small_problem, cfg)
    block_acceptance = chain.accepted[:cfg.burn_in].reshape(10, 100).mean(axis=1)
    trace = chain.tuning_trace
    assert np.array_equal(trace[1:], trace[:-1] * np.exp(block_acceptance[1:] - 0.5))


def test_chain_determinism(small_problem):
    data, prior = small_problem
    cfg = MhConfig(n_iter=500, burn_in=100, seed=77)
    a = run_mwg(data, prior, cfg)
    b = run_mwg(data, prior, cfg)
    assert np.array_equal(a.draws_beta, b.draws_beta)
    assert np.array_equal(a.draws_sigma2, b.draws_sigma2)
    assert np.array_equal(a.draws_rho, b.draws_rho)
    assert np.array_equal(a.accepted, b.accepted)


def test_summarize_reads_the_burn_in_the_chain_ran_with(small_problem):
    data, prior = small_problem
    cfg = MhConfig(n_iter=300, burn_in=120, seed=9)
    chain = run_mwg(data, prior, cfg)
    assert chain.burn_in == cfg.burn_in
    s = summarize(chain, data)
    kept = chain.draws_beta[cfg.burn_in:]
    assert np.array_equal(s.theta.beta, kept.mean(axis=0))
    assert np.array_equal(s.std_beta, kept.std(axis=0, ddof=1))
    assert s.theta.rho == chain.draws_rho[cfg.burn_in:].mean()
    assert s.std_rho == chain.draws_rho[cfg.burn_in:].std(ddof=1)
    assert s.theta.sigma2 == chain.draws_sigma2[cfg.burn_in:].mean()
    assert s.std_sigma2 == chain.draws_sigma2[cfg.burn_in:].std(ddof=1)


def test_chain_support_invariants(small_problem):
    data, prior = small_problem
    cfg = MhConfig(n_iter=2000, burn_in=500, seed=3)
    chain = run_mwg(data, prior, cfg)
    assert np.all(chain.draws_sigma2 > 0)
    assert np.all((chain.draws_rho >= 0) & (chain.draws_rho <= 1))
    for arr in (chain.draws_beta, chain.draws_sigma2, chain.draws_rho):
        assert np.all(np.isfinite(arr))


def test_rejected_moves_keep_rho(small_problem):
    data, prior = small_problem
    cfg = MhConfig(n_iter=2000, burn_in=500, seed=4)
    chain = run_mwg(data, prior, cfg)
    rejected = np.nonzero(~chain.accepted[1:])[0] + 1
    assert rejected.size > 0
    assert np.array_equal(chain.draws_rho[rejected], chain.draws_rho[rejected - 1])


def test_adaptation_freeze(small_problem, monkeypatch):
    import fslm.sampler

    steps = []
    real = fslm.sampler.propose_rho
    monkeypatch.setattr(fslm.sampler, "propose_rho",
                        lambda rho, c, *args: steps.append(c) or real(rho, c, *args))
    data, prior = small_problem
    cfg = MhConfig(n_iter=3000, burn_in=1000, seed=5)
    chain = run_mwg(data, prior, cfg)
    assert len(chain.tuning_trace) == 10  # one entry per burn-in block
    # every post-burn-in proposal uses the last adapted step scale
    assert np.all(np.array(steps[cfg.burn_in:]) == chain.tuning_trace[-1])


def test_short_burn_in_adapts_ten_times(small_problem):
    chain = run_mwg(*small_problem, MhConfig(n_iter=110, burn_in=100))
    assert len(chain.tuning_trace) == 10  # the ten adapted blocks


def test_trace_holds_only_burn_in_blocks(small_problem):
    chain = run_mwg(*small_problem, MhConfig(n_iter=2000, burn_in=0))
    assert chain.tuning_trace.size == 0
    chain = run_mwg(*small_problem, MhConfig(n_iter=2000, burn_in=5))
    assert chain.tuning_trace.size == 5


def test_default_init_is_the_ml_profile_at_half_rho_max(small_problem):
    data, _ = small_problem
    rho = data.w.rho_max / 2
    theta = default_init(data)
    assert theta.rho == rho
    assert theta.sigma2 == sigma2_hat(rho, data)


def test_unlinked_weights_start_the_step_at_rho_max(monkeypatch):
    import fslm.sampler

    steps = []
    real = fslm.sampler.propose_rho
    monkeypatch.setattr(fslm.sampler, "propose_rho",
                        lambda rho, c, *args: steps.append(c) or real(rho, c, *args))
    rng = np.random.default_rng(9)
    z = rng.standard_normal((20, 2))
    y = z @ np.array([1.0, -1.0]) + rng.standard_normal(20)
    data = FslmData(y=y, z=z, w=weights_from_edges(20, []))
    run_mwg(data, PriorSpec.diffuse(2), MhConfig(n_iter=5, burn_in=1))
    assert steps[0] == data.w.rho_max


def chain_with_two_log_dets_per_iteration(data, prior, config):
    """Reference: run_mwg's iteration with the current rho's conditional,
    log-det included, recomputed after every beta and sigma2 draw."""
    rng = np.random.default_rng(config.seed)
    theta = default_init(data)
    draws_beta = np.empty((config.n_iter, data.k))
    draws_sigma2 = np.empty(config.n_iter)
    draws_rho = np.empty(config.n_iter)
    accepted = np.zeros(config.n_iter, dtype=bool)
    tuning_trace = []
    beta, sigma2, rho = theta.beta, theta.sigma2, theta.rho
    info = rho_information(sigma2, rho, data)
    c = min(data.w.rho_max, STEP_SCALE / np.sqrt(info)) if info > 0 else data.w.rho_max
    block = min(100, max(1, config.burn_in // 10))
    factor = beta_factor(data, prior)
    for j in range(config.n_iter):
        mean, root = beta_conditional_params(sigma2, rho, factor)
        beta = mean + root @ rng.standard_normal(data.k)
        shape, scale = sigma2_conditional_params(beta, rho, data, prior)
        sigma2 = scale / rng.gamma(shape)
        log_cond_old = rho_log_conditional(rho, beta, sigma2, data)
        rho_new = propose_rho(rho, c, config.kernel, rng)
        log_cond_new = rho_log_conditional(rho_new, beta, sigma2, data)
        accept = np.log(rng.uniform()) < min(log_cond_new - log_cond_old, 0.0)
        if accept:
            rho = rho_new
        draws_beta[j], draws_sigma2[j], draws_rho[j], accepted[j] = beta, sigma2, rho, accept
        if j < config.burn_in and (j + 1) % block == 0:
            c *= np.exp(accepted[j + 1 - block:j + 1].mean() - TARGET_ACCEPTANCE)
            tuning_trace.append(c)
    return draws_beta, draws_sigma2, draws_rho, accepted, np.asarray(tuning_trace)


@pytest.mark.parametrize("kernel", ["normal", "uniform"])
def test_kept_log_det_gives_the_two_log_det_chain(kernel):
    data = make_dataset(SimulationSpec(seed=4), row_standardize(grid_contiguity(6, 6))).data
    prior = PriorSpec.diffuse(data.k)
    cfg = MhConfig(n_iter=600, burn_in=200, kernel=kernel, seed=6)
    chain = run_mwg(data, prior, cfg)
    reference = chain_with_two_log_dets_per_iteration(data, prior, cfg)
    assert 0 < chain.accepted.sum() < cfg.n_iter
    for got, want in zip((chain.draws_beta, chain.draws_sigma2, chain.draws_rho,
                          chain.accepted, chain.tuning_trace), reference):
        assert np.array_equal(got, want)


def test_log_det_computed_once_per_iteration_and_accepted_move(small_problem, monkeypatch):
    import fslm.model
    import fslm.sampler

    calls = []
    real = fslm.sampler.log_det_A
    for module in (fslm.model, fslm.sampler):
        monkeypatch.setattr(module, "log_det_A",
                            lambda w, rho: calls.append(rho) or real(w, rho))
    cfg = MhConfig(n_iter=1000, burn_in=300, seed=8)
    chain = run_mwg(*small_problem, cfg)
    assert 0 < chain.accepted.sum() < cfg.n_iter
    assert len(calls) <= 1 + cfg.n_iter + chain.accepted.sum()


def test_iteration_makes_no_linalg_call(monkeypatch):
    # beta's conditional is factored once per chain, so the chain's
    # np.linalg calls do not grow with its length
    calls = []
    for name in dir(np.linalg):
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type) and not name.startswith("_"):
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, _fn=fn, _name=name, **kw:
                                calls.append(_name) or _fn(*a, **kw))
    counts = []
    for n_iter in (50, 500):
        # fresh data and prior, so that their cached products count each time
        data = make_dataset(SimulationSpec(seed=4), row_standardize(grid_contiguity(5, 5))).data
        calls.clear()
        run_mwg(data, PriorSpec.diffuse(data.k), MhConfig(n_iter=n_iter, burn_in=20, seed=3))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.fixture(scope="module")
def lattice_22x22():
    w = row_standardize(grid_contiguity(22, 22))
    return make_dataset(SimulationSpec(rho_true=0.5, seed=3), w).data


@pytest.mark.parametrize("kernel", ["normal", "uniform"])
def test_derived_step_mixes_on_22x22_lattice(lattice_22x22, kernel):
    prior = PriorSpec.diffuse(lattice_22x22.k)
    for seed in range(3):
        cfg = MhConfig(n_iter=1_500, burn_in=500, kernel=kernel, seed=seed)
        chain = run_mwg(lattice_22x22, prior, cfg)
        assert 0.30 <= chain.accepted[cfg.burn_in:].mean() <= 0.65


def test_invalid_config_and_init():
    with pytest.raises(ValueError):
        MhConfig(n_iter=10, burn_in=10)


def test_conjugate_regression_oracle():
    # W = 0 decouples rho; the (beta, sigma2) marginals are the standard
    # semi-conjugate posterior, checked against the flat-prior closed form
    rng = np.random.default_rng(6)
    n, k = 25, 2
    z = rng.standard_normal((n, k))
    beta_true = np.array([1.0, -2.0])
    y = z @ beta_true + 0.8 * rng.standard_normal(n)
    data = FslmData(y=y, z=z, w=weights_from_edges(n, []))
    prior = PriorSpec(m=np.zeros(k), sigma_beta=1e8 * np.eye(k), a=3.0, b=2.0)

    cfg = MhConfig(n_iter=20_000, burn_in=2_000, seed=7)
    chain = run_mwg(data, prior, cfg)
    s = summarize(chain, data)

    ols, *_ = np.linalg.lstsq(z, y, rcond=None)
    rss = float(np.sum((y - z @ ols) ** 2))
    nu = 2 * prior.a + n - k
    post_mean_sigma2 = (2 * prior.b + rss) / (nu - 2)
    n_draws = cfg.n_iter - cfg.burn_in
    for j in range(k):
        mcse = s.std_beta[j] / np.sqrt(n_draws / 10)  # crude ESS discount
        assert abs(s.theta.beta[j] - ols[j]) < 3 * mcse
    mcse_s = s.std_sigma2 / np.sqrt(n_draws / 10)
    assert abs(s.theta.sigma2 - post_mean_sigma2) < 3 * mcse_s


def path_data(k: int) -> FslmData:
    """Six units on a path with k covariates: the data of a hand-built chain."""
    rng = np.random.default_rng(k)
    return FslmData(y=rng.standard_normal(6), z=rng.standard_normal((6, k)),
                    w=weights_from_edges(6, [(i, i + 1) for i in range(5)]))


def test_summarize_trivial_cases():
    k = 2
    n = 50
    beta = np.tile([1.0, 2.0], (n, 1))
    chain = Chain(
        draws_beta=beta,
        draws_sigma2=np.full(n, 3.0),
        draws_rho=np.full(n, 0.25),
        accepted=np.ones(n, dtype=bool),
        tuning_trace=np.array([0.1]),
        burn_in=10,
    )
    data = path_data(k)
    s = summarize(chain, data)
    assert np.all(s.std_beta == 0)
    assert s.std_sigma2 == 0
    assert s.acceptance_rate == 1.0
    assert s.bic == bic(s.theta, data)
    for burn_in in (n - 1, n):  # fewer than two kept draws
        with pytest.raises(ValueError):
            summarize(replace(chain, burn_in=burn_in), data)


def test_summarize_ig_moments():
    rng = np.random.default_rng(8)
    n = 1_000_000
    sigma2 = 2.0 / rng.gamma(3.0, size=n)  # IG(3, 2): mean 1, sd 1
    chain = Chain(
        draws_beta=np.zeros((n, 1)),
        draws_sigma2=sigma2,
        draws_rho=np.full(n, 0.5),
        accepted=np.zeros(n, dtype=bool),
        tuning_trace=np.array([0.1]),
        burn_in=0,
    )
    s = summarize(chain, path_data(1))
    assert s.theta.sigma2 == pytest.approx(1.0, rel=0.01)
    # IG(3,.) has no finite 4th moment, so the sample sd converges slowly
    assert s.std_sigma2 == pytest.approx(1.0, rel=0.05)


def test_adaptation_reaches_band(small_problem):
    data, prior = small_problem
    in_band = 0
    runs = 10
    for seed in range(runs):
        cfg = MhConfig(n_iter=3500, burn_in=2000, seed=seed)
        chain = run_mwg(data, prior, cfg)
        ar = float(chain.accepted[cfg.burn_in :].mean())
        in_band += 0.40 <= ar <= 0.60
    assert in_band >= 0.9 * runs


@pytest.mark.parametrize("kernel", ["normal", "uniform"])
def test_adaptation_reaches_band_at_high_rho(kernel):
    # the posterior of rho sits far above the start at rho_max / 2
    data = make_dataset(SimulationSpec(rho_true=0.9, seed=3),
                        row_standardize(grid_contiguity(11, 11))).data
    prior = PriorSpec.diffuse(data.k)
    for seed in range(3):
        cfg = MhConfig(n_iter=5_000, burn_in=1_500, kernel=kernel, seed=seed)
        chain = run_mwg(data, prior, cfg)
        assert 0.40 <= chain.accepted[cfg.burn_in:].mean() <= 0.60


@pytest.fixture(scope="module")
def lattice_data():
    rng = np.random.default_rng(21)
    w = row_standardize(grid_contiguity(11, 11))
    z = rng.standard_normal((121, 2))
    a = np.eye(121) - 0.5 * w.entries
    y = np.linalg.solve(a, z @ np.array([1.0, -0.5]) + rng.standard_normal(121))
    return FslmData(y=y, z=z, w=w)


def test_default_support_accepted_on_lattice(lattice_data):
    chain = run_mwg(lattice_data, PriorSpec.diffuse(2), MhConfig(n_iter=200, burn_in=100))
    assert len(chain) == 200
