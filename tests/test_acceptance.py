"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -s` to see the
per-criterion report."""

import csv
import hashlib
import json
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import simpson

from fslm import (
    FslmData,
    MhConfig,
    PriorSpec,
    SimulationSpec,
    build_bspline_basis,
    fit_ml,
    grid_contiguity,
    log_det_A,
    make_dataset,
    morans_i,
    row_standardize,
    run_mwg,
    smooth_curves,
    summarize,
    weights_from_edges,
)
from fslm.cli import main as cli_main
from fslm.mle import concentrated_loglik
from fslm.spatial import SpatialWeights

# the paper's 11x11 rook lattice, row-standardized
PAPER_W = row_standardize(grid_contiguity(11, 11))


def report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_conjugacy_oracle():
    # W = 0: the (beta, sigma2) Gibbs marginals must match the flat-beta
    # normal-inverse-gamma closed form
    rng = np.random.default_rng(100)
    n, k = 25, 2
    z = rng.standard_normal((n, k))
    y = z @ np.array([1.0, -2.0]) + 0.8 * rng.standard_normal(n)
    data = FslmData(y=y, z=z, w=weights_from_edges(n, []))
    a0, b0 = 3.0, 2.0
    prior = PriorSpec(m=np.zeros(k), sigma_beta=1e8 * np.eye(k), a=a0, b=b0)

    cfg = MhConfig(n_iter=22_000, burn_in=2_000, seed=101)
    chain = run_mwg(data, prior, cfg)
    beta_draws = chain.draws_beta[cfg.burn_in :]
    sig2_draws = chain.draws_sigma2[cfg.burn_in :]
    assert beta_draws.shape[0] == 20_000

    ols, *_ = np.linalg.lstsq(z, y, rcond=None)
    rss = float(np.sum((y - z @ ols) ** 2))
    shape_post = a0 + (n - k) / 2
    scale_post = b0 + rss / 2
    nu = 2 * shape_post
    s2 = scale_post / shape_post
    ztzi = np.linalg.inv(z.T @ z)

    oks, details = [], []
    # sigma2 marginal: IG(shape_post, scale_post)
    ks_s = stats.kstest(
        sig2_draws, lambda x: stats.invgamma.cdf(x, shape_post, scale=scale_post)
    ).statistic
    oks.append(ks_s < 0.02)
    details.append(f"KS(sigma2)={ks_s:.4f}")
    mean_s = scale_post / (shape_post - 1)
    mcse = sig2_draws.std() / np.sqrt(len(sig2_draws) / 10)
    oks.append(abs(sig2_draws.mean() - mean_s) < 3 * mcse)
    # beta_j marginal: scaled t with nu dof
    for j in range(k):
        sd_j = np.sqrt(s2 * ztzi[j, j])
        ks_b = stats.kstest(
            beta_draws[:, j], lambda x: stats.t.cdf(x, nu, loc=ols[j], scale=sd_j)
        ).statistic
        oks.append(ks_b < 0.02)
        details.append(f"KS(beta_{j + 1})={ks_b:.4f}")
        mcse_b = beta_draws[:, j].std() / np.sqrt(len(beta_draws) / 10)
        oks.append(abs(beta_draws[:, j].mean() - ols[j]) < 3 * mcse_b)
    report("1 conjugacy oracle", all(oks), " ".join(details))


def test_criterion_2_brute_force_posterior():
    rng = np.random.default_rng(200)
    n, k = 8, 1
    w = row_standardize(weights_from_edges(n, [(i, i + 1) for i in range(n - 1)]))
    z = rng.standard_normal((n, k)) + 1.0
    rho0 = 0.4
    a_mat = np.eye(n) - rho0 * w.entries
    y = np.linalg.solve(a_mat, z @ np.array([1.5]) + 0.6 * rng.standard_normal(n))
    data = FslmData(y=y, z=z, w=w)
    prior = PriorSpec(m=np.zeros(1), sigma_beta=np.array([[25.0]]), a=2.0, b=1.0)

    betas = np.linspace(-1, 4, 200)
    sig2s = np.linspace(0.01, 4, 200)
    rhos = np.linspace(0.0, 0.999, 200)
    logp = np.empty((200, 200, 200))  # rho x beta x sigma2
    bb, ss = np.meshgrid(betas, sig2s, indexing="ij")
    for r_idx, rho in enumerate(rhos):
        ld = log_det_A(w, rho)
        ay = y - rho * (w.entries @ y)
        resid2 = ((ay[None, :] - np.outer(betas, z[:, 0])[:, :]) ** 2).sum(axis=1)
        logp[r_idx] = (
            ld
            - 0.5 * n * np.log(ss)
            - 0.5 * resid2[:, None] / ss
            - 0.5 * bb**2 / prior.sigma_beta[0, 0]
            - (prior.a + 1) * np.log(ss)
            - prior.b / ss
        )
    post = np.exp(logp - logp.max())
    post /= post.sum()
    grid_means = {
        "rho": float((post.sum(axis=(1, 2)) * rhos).sum()),
        "beta": float((post.sum(axis=(0, 2)) * betas).sum()),
        "sigma2": float((post.sum(axis=(0, 1)) * sig2s).sum()),
    }

    cfg = MhConfig(n_iter=60_000, burn_in=5_000, seed=201)
    chain = run_mwg(data, prior, cfg)
    s = summarize(chain, data)
    mcmc_means = {
        "rho": s.theta.rho,
        "beta": float(s.theta.beta[0]),
        "sigma2": s.theta.sigma2,
    }
    oks, details = [], []
    for key in grid_means:
        rel = abs(mcmc_means[key] - grid_means[key]) / max(abs(grid_means[key]), 0.1)
        oks.append(rel < 0.02)
        details.append(f"{key}: grid={grid_means[key]:.4f} mcmc={mcmc_means[key]:.4f}")
    report("2 brute-force posterior", all(oks), " ".join(details))


def _recover_one(rho_true, rep, method):
    spec = SimulationSpec(rho_true=rho_true, seed=10_000 * rep + int(rho_true * 100))
    ds = make_dataset(spec, PAPER_W)
    if method == "ml":
        est = fit_ml(ds.data)
        return est.theta.rho, est.theta.sigma2
    prior = PriorSpec.diffuse(7)
    cfg = MhConfig(n_iter=2_500, burn_in=1_000, kernel=method, seed=rep)
    s = summarize(run_mwg(ds.data, prior, cfg), ds.data)
    return s.theta.rho, s.theta.sigma2


def test_criterion_3_parameter_recovery():
    reps = 20
    oks, details = [], []
    tasks = [
        (rho, method)
        for rho in (0.3, 0.5, 0.7)
        for method in ("normal", "uniform", "ml")
    ]

    def run_cell(cell):
        rho, method = cell
        results = [_recover_one(rho, r, method) for r in range(reps)]
        return np.median([r[0] for r in results]), np.median([r[1] for r in results])

    for rho, method in tasks:
        med_rho, med_sig2 = run_cell((rho, method))
        ok = abs(med_rho - rho) <= 0.15 and abs(med_sig2 - 1.0) <= 0.25
        oks.append(ok)
        details.append(f"{method}@{rho}: rho={med_rho:.3f} sigma2={med_sig2:.3f}")
    report("3 parameter recovery", all(oks), " ".join(details))


def test_criterion_4_acceptance_rate_control():
    spec = SimulationSpec(rho_true=0.5, seed=400)
    ds = make_dataset(spec, PAPER_W)
    prior = PriorSpec.diffuse(7)

    def one(seed):
        cfg = MhConfig(n_iter=3_500, burn_in=2_000, seed=seed)
        chain = run_mwg(ds.data, prior, cfg)
        return float(chain.accepted[2_000:].mean())

    ars = [one(seed) for seed in range(50)]
    in_band = sum(0.40 <= ar <= 0.60 for ar in ars)
    report(
        "4 acceptance-rate control",
        in_band >= 45,
        f"{in_band}/50 runs in [0.40, 0.60]",
    )


def test_criterion_5_log_determinant():
    w2 = weights_from_edges(2, [(0, 1)])
    ok_hand = abs(log_det_A(w2, 0.5) - np.log(0.75)) < 1e-12

    rng = np.random.default_rng(500)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 51))
        base = np.triu((rng.random((n, n)) < 0.3).astype(float), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zero-neighbour rows
            w = row_standardize(SpatialWeights(n=n, entries=base + base.T))
        rho = float(rng.uniform(0, 0.9))
        eig = np.linalg.eigvals(w.entries)
        ref = float(np.sum(np.log(np.abs(1 - rho * eig))).real)
        worst = max(worst, abs(log_det_A(w, rho) - ref))
    report(
        "5 log-determinant",
        ok_hand and worst < 1e-8,
        f"max |LU - eig| = {worst:.2e}",
    )


def test_criterion_6_basis_score_duality():
    b = build_bspline_basis(0, 100, 7, 4)
    t_fit = np.linspace(0, 100, 60)
    t_quad = np.linspace(0, 100, 10_001)
    phi_quad = b.design_matrix(t_quad)
    rng = np.random.default_rng(600)
    worst = 0.0
    for _ in range(50):
        c = rng.standard_normal((2, 7))
        gcoef = rng.standard_normal(7)
        sample = smooth_curves(t_fit, c @ b.design_matrix(t_fit).T, b)
        beta = b.gram_chol.T @ gcoef
        direct = np.array(
            [
                simpson((sample.coef[i] @ phi_quad.T) * (phi_quad @ gcoef), x=t_quad)
                for i in range(2)
            ]
        )
        worst = max(worst, float(np.abs(sample.scores @ beta - direct).max()))
    pou = float(np.abs(b.design_matrix(np.linspace(0, 100, 1000)).sum(axis=1) - 1).max())
    report(
        "6 basis/score duality",
        worst < 1e-8 and pou < 1e-10,
        f"max duality err {worst:.2e}, partition-of-unity err {pou:.2e}",
    )


def test_criterion_7_ml_baseline():
    rng = np.random.default_rng(700)
    n, k = 49, 3
    w = row_standardize(grid_contiguity(7, 7))
    z = rng.standard_normal((n, k))
    beta0 = np.array([2.0, -1.0, 0.5])
    rho0 = 0.5
    a_mat = np.eye(n) - rho0 * w.entries
    y = np.linalg.solve(a_mat, z @ beta0 + 1e-7 * rng.standard_normal(n))
    est0 = fit_ml(FslmData(y=y, z=z, w=w))
    ok_noiseless = (
        abs(est0.theta.rho - rho0) < 1e-4
        and np.abs(est0.theta.beta - beta0).max() < 1e-4
    )

    spec = SimulationSpec(rho_true=0.5, seed=701)
    ds = make_dataset(spec, PAPER_W)
    est = fit_ml(ds.data)
    h = 1e-5
    grad = (
        concentrated_loglik(est.theta.rho + h, ds.data)
        - concentrated_loglik(est.theta.rho - h, ds.data)
    ) / (2 * h)
    ok_grad = abs(grad) < 1e-4

    prior = PriorSpec.diffuse(7)
    cfg = MhConfig(n_iter=4_000, burn_in=1_500, seed=702)
    s = summarize(run_mwg(ds.data, prior, cfg), ds.data)
    band_rho = 3 * (s.std_rho + est.std_rho)
    ok_agree = abs(s.theta.rho - est.theta.rho) < band_rho and np.all(
        np.abs(s.theta.beta - est.theta.beta) < 3 * (s.std_beta + est.std_beta)
    )
    report(
        "7 ML baseline",
        ok_noiseless and ok_grad and ok_agree,
        f"noiseless={ok_noiseless} grad={grad:.2e} "
        f"bayes rho={s.theta.rho:.3f} ml rho={est.theta.rho:.3f}",
    )


def test_criterion_8_moran_sanity():
    n = 10
    w_path = weights_from_edges(n, [(i, i + 1) for i in range(n - 1)])
    alt = np.array([1.0, -1.0] * (n // 2))
    res_path = morans_i(alt, w_path, 99, seed=0)
    ok_path = res_path.statistic == -1.0

    w_lat = row_standardize(grid_contiguity(11, 11))
    grad_vals = np.arange(121, dtype=float)
    res_a = morans_i(grad_vals, w_lat, 999, seed=800)
    res_b = morans_i(grad_vals, w_lat, 999, seed=800)
    report(
        "8 Moran sanity",
        ok_path and res_a.p_value < 0.05 and res_a == res_b,
        f"path I={res_path.statistic} lattice p={res_a.p_value:.4f}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    def hash_dir(path):
        digest = hashlib.sha256()
        for p in sorted(path.rglob("*")):
            if p.is_file():
                digest.update(p.name.encode())
                digest.update(p.read_bytes())
        return digest.hexdigest()

    hashes = {}
    for attempt in ("a", "b"):
        root = tmp_path / attempt
        sim = root / "sim"
        assert cli_main(
            ["simulate", "--rho", "0.5", "--seed", "9", "--out", str(sim)]
        ) == 0
        fit = root / "fit"
        assert cli_main(
            ["fit", "--data", str(sim), "--method", "all", "--n-iter", "400",
             "--burn-in", "100", "--seed", "9", "--out", str(fit)]
        ) == 0
        tab = root / "tab"
        assert cli_main(
            ["table1", "--rho-list", "0.3,0.5", "--grid", "4x4", "--seed", "9",
             "--n-iter", "300", "--burn-in", "100", "--out", str(tab)]
        ) == 0
        assert cli_main(
            ["moran", "--response", str(sim / "response.csv"),
             "--weights", str(sim / "weights.csv"), "--seed", "9"]
        ) == 0
        hashes[attempt] = hash_dir(root)
    report(
        "9 CLI determinism",
        hashes["a"] == hashes["b"],
        f"hash={hashes['a'][:12]}",
    )
