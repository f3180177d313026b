from collections import Counter
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
    rho_log_conditional,
    rho_steps,
    row_standardize,
    run_mwg,
    summarize,
    weights_from_edges,
)
from fslm.model import (
    _gram_form,
    beta_conditional_params,
    beta_factor,
    bic,
    rho_information,
    rss_at,
    rss_quadratic,
    sigma2_conditional_params,
    sigma2_hat,
)
from fslm.sampler import STEP_SCALE, TARGET_ACCEPTANCE, default_init
from fslm.spatial import SpatialWeights, log_det_A


@pytest.fixture(scope="module")
def small_problem():
    rng = np.random.default_rng(20)
    w = row_standardize(grid_contiguity(3, 3))
    z = rng.standard_normal((9, 2))
    a = np.eye(9) - 0.4 * w.entries
    y = np.linalg.solve(a, z @ np.array([1.0, -0.5]) + 0.5 * rng.standard_normal(9))
    return FslmData(y=y, z=z, w=w), PriorSpec.diffuse(2)


def test_rho_steps_normal_sd():
    rng = np.random.default_rng(1)
    c = 0.37
    draws = 0.2 + c * rho_steps("normal", 100_000, rng)  # proposals from rho = 0.2
    assert draws.std() == pytest.approx(c, rel=0.02)
    assert draws.mean() == pytest.approx(0.2, abs=0.01)


def test_rho_steps_uniform_support():
    rng = np.random.default_rng(2)
    c = 0.25
    draws = 0.5 + c * rho_steps("uniform", 10_000, rng)  # proposals from rho = 0.5
    assert draws.min() >= 0.25 and draws.max() <= 0.75


def test_rho_steps_refuses_an_unknown_kernel():
    with pytest.raises(ValueError, match="kernel"):
        rho_steps("cauchy", 3, np.random.default_rng(0))


def chain_random_numbers(data, prior, config):
    """run_mwg's random numbers in its block order: beta's standard normals,
    sigma2's gamma variates, rho's steps and the log-uniforms."""
    rng = np.random.default_rng(config.seed)
    xi = rng.standard_normal((config.n_iter, data.k))
    gammas = rng.gamma(data.n / 2 + prior.a, size=config.n_iter)
    steps = rho_steps(config.kernel, config.n_iter, rng)
    return xi, gammas, steps, np.log(rng.random(config.n_iter))


def proposals_of(monkeypatch):
    """The rho proposals a chain run after this call evaluates, in order."""
    import fslm.sampler

    proposals = []
    real = fslm.sampler.rho_log_conditional
    monkeypatch.setattr(fslm.sampler, "rho_log_conditional",
                        lambda rho, *args: proposals.append(rho) or real(rho, *args))
    return proposals


def quadratic_at(beta, data):
    """rss_quadratic's coefficients at beta, whose coordinates solve U s = beta."""
    factor = beta_factor(data, PriorSpec.diffuse(data.k))
    return rss_quadratic(np.linalg.solve(factor.u, beta), factor, data)


def log_accept(rho_new, rho_old, beta, sigma2, data):
    """The Metropolis step's log acceptance probability in run_mwg."""
    quadratic = quadratic_at(beta, data)
    new = rho_log_conditional(rho_new, quadratic, sigma2, data)
    old = rho_log_conditional(rho_old, quadratic, sigma2, data)
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
    quadratic = quadratic_at(beta, data)
    grid = np.linspace(0, 1, 20_001)
    logs = np.array([rho_log_conditional(r, quadratic, sigma2, data) for r in grid])
    dens = np.exp(logs - logs.max())
    dens /= trapezoid(dens, grid)

    def norm_dens(r):
        return np.exp(
            rho_log_conditional(r, quadratic, sigma2, data) - logs.max()
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
    proposals = proposals_of(monkeypatch)
    data, prior = small_problem
    cfg = MhConfig(n_iter=3000, burn_in=1000, seed=5)
    chain = run_mwg(data, prior, cfg)
    assert len(chain.tuning_trace) == 10  # one entry per burn-in block
    # every post-burn-in proposal uses the last adapted step scale
    steps = chain_random_numbers(data, prior, cfg)[2]
    kept = slice(cfg.burn_in, None)
    assert np.array_equal(np.array(proposals)[kept],
                          chain.draws_rho[cfg.burn_in - 1:-1] + chain.tuning_trace[-1] * steps[kept])


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
    rho0, sigma2 = default_init(data)
    assert rho0 == rho
    assert sigma2 == sigma2_hat(rho, data)


def test_unlinked_weights_start_the_step_at_rho_max(monkeypatch):
    proposals = proposals_of(monkeypatch)
    rng = np.random.default_rng(9)
    z = rng.standard_normal((20, 2))
    y = z @ np.array([1.0, -1.0]) + rng.standard_normal(20)
    data = FslmData(y=y, z=z, w=weights_from_edges(20, []))
    prior, cfg = PriorSpec.diffuse(2), MhConfig(n_iter=5, burn_in=1)
    run_mwg(data, prior, cfg)
    steps = chain_random_numbers(data, prior, cfg)[2]
    assert proposals[0] == default_init(data)[0] + data.w.rho_max * steps[0]


def chain_with_two_log_dets_per_iteration(data, prior, config):
    """Reference: run_mwg's iteration with the current rho's conditional,
    log-det included, recomputed after every beta and sigma2 draw."""
    xi, gammas, steps, log_uniforms = chain_random_numbers(data, prior, config)
    rho, sigma2 = default_init(data)
    draws_s = np.empty((config.n_iter, data.k))
    draws_sigma2 = np.empty(config.n_iter)
    draws_rho = np.empty(config.n_iter)
    accepted = np.zeros(config.n_iter, dtype=bool)
    tuning_trace = []
    info = rho_information(sigma2, rho, data)
    c = min(data.w.rho_max, STEP_SCALE / np.sqrt(info)) if info > 0 else data.w.rho_max
    block = min(100, max(1, config.burn_in // 10))
    factor = beta_factor(data, prior)
    for j in range(config.n_iter):
        mean, sd = beta_conditional_params(sigma2, rho, factor)
        s = mean + sd * xi[j]
        quadratic = rss_quadratic(s, factor, data)
        shape, scale = sigma2_conditional_params(rss_at(quadratic, rho), data, prior)
        sigma2 = scale / gammas[j]
        log_cond_old = rho_log_conditional(rho, quadratic, sigma2, data)
        rho_new = rho + c * steps[j]
        log_cond_new = rho_log_conditional(rho_new, quadratic, sigma2, data)
        accept = log_uniforms[j] < min(log_cond_new - log_cond_old, 0.0)
        if accept:
            rho = rho_new
        draws_s[j], draws_sigma2[j], draws_rho[j], accepted[j] = s, sigma2, rho, accept
        if j < config.burn_in and (j + 1) % block == 0:
            c *= np.exp(accepted[j + 1 - block:j + 1].mean() - TARGET_ACCEPTANCE)
            tuning_trace.append(c)
    return (draws_s @ factor.u.T, draws_sigma2, draws_rho, accepted,
            np.asarray(tuning_trace))


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


def gram_form_chain(data, prior, config):
    """Reference: the iteration as written on the Gram matrix G before beta
    was drawn in its factor's coordinates.  beta = mean + R xi in beta's own
    coordinates, r'r = v'Gv with v = (1, -rho, -beta) in the sigma2 step and
    again at the proposal and a log-det recomputed after each accepted move.
    Also returns the number of proposals off W's domain."""
    xi, gammas, steps, log_uniforms = chain_random_numbers(data, prior, config)
    rho, sigma2 = default_init(data)
    draws_beta = np.empty((config.n_iter, data.k))
    draws_sigma2 = np.empty(config.n_iter)
    draws_rho = np.empty(config.n_iter)
    accepted = np.zeros(config.n_iter, dtype=bool)
    tuning_trace = []
    info = rho_information(sigma2, rho, data)
    c = min(data.w.rho_max, STEP_SCALE / np.sqrt(info)) if info > 0 else data.w.rho_max
    block = min(100, max(1, config.burn_in // 10))
    log_det = log_det_A(data.w, rho)
    u, mu, ub = beta_factor(data, prior)
    off_domain = 0
    for j in range(config.n_iter):
        d = 1.0 / (mu + sigma2)
        mean, root = u @ (d * (ub @ (1.0, -rho, sigma2))), u * np.sqrt(sigma2 * d)
        beta = mean + root @ xi[j]
        scale = (_gram_form(beta, rho, data)[1] + 2 * prior.b) / 2
        sigma2 = scale / gammas[j]
        log_cond_old = log_det - (scale - prior.b) / sigma2
        rho_new = rho + c * steps[j]
        log_cond_new = -np.inf
        if 0.0 <= rho_new < data.w.rho_max:
            try:
                log_cond_new = (log_det_A(data.w, rho_new)
                                - 0.5 * _gram_form(beta, rho_new, data)[1] / sigma2)
            except np.linalg.LinAlgError:
                pass
        else:
            off_domain += 1
        accept = log_uniforms[j] < min(log_cond_new - log_cond_old, 0.0)
        if accept:
            rho = rho_new
            log_det = log_det_A(data.w, rho)
        draws_beta[j], draws_sigma2[j], draws_rho[j], accepted[j] = beta, sigma2, rho, accept
        if j < config.burn_in and (j + 1) % block == 0:
            c *= np.exp(accepted[j + 1 - block:j + 1].mean() - TARGET_ACCEPTANCE)
            tuning_trace.append(c)
    return (draws_beta, draws_sigma2, draws_rho, accepted, np.asarray(tuning_trace),
            off_domain)


def directed_nearest_neighbours(n_points: int, k: int, seed: int) -> SpatialWeights:
    """Row-standardized W linking each of n random points to its k nearest
    others; the links are not symmetric, so W has complex eigenvalues."""
    xy = np.random.default_rng(seed).random((n_points, 2))
    dist = np.linalg.norm(xy[:, None] - xy[None, :], axis=-1)
    np.fill_diagonal(dist, np.inf)
    entries = np.zeros((n_points, n_points))
    np.put_along_axis(entries, np.argsort(dist, axis=1)[:, :k], 1.0, axis=1)
    return row_standardize(SpatialWeights(n=n_points, entries=entries))


@pytest.mark.parametrize("kernel", ["normal", "uniform"])
@pytest.mark.parametrize("case", ["directed_4nn", "rook_rho_095"])
def test_run_mwg_matches_the_gram_form_chain(case, kernel):
    if case == "directed_4nn":
        w = directed_nearest_neighbours(45, 4, seed=2)
        assert np.iscomplexobj(w.eigenvalues)
        data = make_dataset(SimulationSpec(rho_true=0.5, seed=5), w).data
    else:
        data = make_dataset(SimulationSpec(rho_true=0.95, seed=3),
                            row_standardize(grid_contiguity(11, 11))).data
    prior = PriorSpec.diffuse(data.k)
    cfg = MhConfig(n_iter=1500, burn_in=500, kernel=kernel, seed=11)
    chain = run_mwg(data, prior, cfg)
    *reference, off_domain = gram_form_chain(data, prior, cfg)
    beta, sigma2, rho, accepted, tuning_trace = reference
    assert 0 < accepted.sum() < cfg.n_iter
    if case == "rook_rho_095":
        assert off_domain > 0  # proposals at or above rho_max were refused
    assert np.array_equal(chain.accepted, accepted)
    assert np.array_equal(chain.tuning_trace, tuning_trace)
    assert np.array_equal(chain.draws_rho, rho)
    # beta and sigma2 move only by rounding, measured in posterior sds
    kept = slice(cfg.burn_in, None)
    assert np.all(np.abs(chain.draws_beta - beta).max(axis=0)
                  <= 1e-10 * beta[kept].std(axis=0))
    assert np.abs(chain.draws_sigma2 - sigma2).max() <= 1e-10 * sigma2[kept].std()


def test_each_iteration_calls_each_conditional_once(small_problem, monkeypatch):
    import fslm.sampler

    names = ("beta_conditional_params", "sigma2_conditional_params", "rho_log_conditional")
    calls = Counter()
    for name in names:
        real = getattr(fslm.sampler, name)
        monkeypatch.setattr(fslm.sampler, name,
                            lambda *args, _real=real, _name=name:
                            calls.update([_name]) or _real(*args))
    cfg = MhConfig(n_iter=700, burn_in=200, seed=2)
    run_mwg(*small_problem, cfg)
    assert calls == dict.fromkeys(names, cfg.n_iter)


def test_sigma2_shape_has_one_home(small_problem, monkeypatch):
    # the chain's gamma variates and sigma2's conditional read one shape
    import fslm.sampler

    data, prior = small_problem
    calls = []
    real = fslm.sampler.sigma2_shape
    monkeypatch.setattr(fslm.sampler, "sigma2_shape",
                        lambda *args: calls.append(args) or real(*args))
    run_mwg(data, prior, MhConfig(n_iter=50, burn_in=10, seed=2))
    assert calls == [(data, prior)]
    assert sigma2_conditional_params(1.0, data, prior)[0] == real(data, prior)


def test_log_det_computed_once_per_chain_and_proposal(small_problem, monkeypatch):
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
    assert len(calls) <= 1 + cfg.n_iter


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
