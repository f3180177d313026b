import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.interpolate import BSpline
from scipy.linalg import solve_triangular

from fslm import (
    build_bspline_basis,
    reconstruct_gamma,
    smooth_curves,
)


def test_constant_basis_on_unit_interval():
    b = build_bspline_basis(0, 1, n_basis=1, order=1)
    assert np.allclose(b.gram, [[1.0]])
    t = np.array([0.0, 0.3, 1.0])
    assert np.allclose(b.design_matrix(t), 1.0)


def test_paper_default_basis_dimensions():
    b = build_bspline_basis(0, 100, 7, 4)
    assert b.n_basis == 7
    assert b.knots.size == 11
    assert np.unique(b.knots).size == 5  # 3 interior + 2 boundary
    np.linalg.cholesky(b.gram)  # SPD
    assert np.allclose(b.gram, b.gram.T)


def test_bernstein_gram_corner():
    # degree-3 Bernstein basis: first function is (1-t)^3, so
    # gram[0,0] = int_0^1 (1-t)^6 dt = 1/7
    b = build_bspline_basis(0, 1, 4, 4)
    assert b.gram[0, 0] == pytest.approx(1 / 7, abs=1e-12)


def test_invalid_construction():
    with pytest.raises(ValueError):
        build_bspline_basis(0, 1, 3, 4)
    with pytest.raises(ValueError):
        build_bspline_basis(1, 0, 7, 4)


def test_partition_of_unity():
    b = build_bspline_basis(0, 100, 7, 4)
    t = np.linspace(0, 100, 1000)
    sums = b.design_matrix(t).sum(axis=1)
    assert np.abs(sums - 1).max() < 1e-10


def test_basis_nonnegative():
    b = build_bspline_basis(0, 100, 9, 4)
    t = np.linspace(0, 100, 1000)
    assert b.design_matrix(t).min() >= -1e-12


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_design_matrix_matches_per_basis_splines(order):
    # reference: each basis function evaluated as its own spline, with the
    # last basis function set to 1 at the right endpoint
    for n_basis in range(order, 10):
        b = build_bspline_basis(0, 100, n_basis, order)
        t = np.concatenate([np.linspace(0, 100, 1001), b.knots])
        ref = np.empty((t.size, n_basis))
        for k in range(n_basis):
            spl = BSpline(b.knots, np.eye(n_basis)[k], order - 1, extrapolate=False)
            ref[:, k] = np.nan_to_num(spl(t))
        ref[t == 100] = np.eye(n_basis)[-1]
        assert np.array_equal(b.design_matrix(t), ref)


def test_gram_matches_simpson():
    b = build_bspline_basis(0, 10, 6, 3)
    t = np.linspace(0, 10, 100_001)
    phi = b.design_matrix(t)
    ref = np.empty_like(b.gram)
    for i in range(b.n_basis):
        for j in range(b.n_basis):
            ref[i, j] = simpson(phi[:, i] * phi[:, j], x=t)
    assert np.abs(b.gram - ref).max() < 1e-8


def test_smoothing_reproduces_constants():
    b = build_bspline_basis(0, 100, 7, 4)
    t = np.linspace(0, 100, 60)
    obs = np.ones((3, t.size))
    sample = smooth_curves(t, obs, b)
    fitted = sample.coef @ b.design_matrix(t).T
    assert np.abs(fitted - 1).max() < 1e-10


def test_smoothing_noiseless_round_trip():
    rng = np.random.default_rng(7)
    b = build_bspline_basis(0, 100, 7, 4)
    t = np.linspace(0, 100, 80)
    c_true = rng.standard_normal((5, 7))
    obs = c_true @ b.design_matrix(t).T
    sample = smooth_curves(t, obs, b)
    assert np.abs(sample.coef - c_true).max() < 1e-8


def test_smoothing_residual_sd_tracks_noise():
    rng = np.random.default_rng(11)
    b = build_bspline_basis(0, 100, 7, 4)
    t = np.arange(101.0)
    signal = np.cos(t) + np.sin(t)
    noise_sd = 1.0
    obs = signal[None, :] + noise_sd * rng.standard_normal((100, t.size))
    sample = smooth_curves(t, obs, b)
    resid = obs - sample.coef @ b.design_matrix(t).T
    # cos+sin is nearly orthogonal to a 7-spline space on this grid, so the
    # residual carries the signal too; compare against its projection residual
    ref = smooth_curves(t, signal[None, :], b)
    signal_resid = signal - (ref.coef @ b.design_matrix(t).T)[0]
    expected_sd = np.sqrt(noise_sd**2 + np.mean(signal_resid**2))
    assert resid.std() == pytest.approx(expected_sd, rel=0.2)


def test_smoothing_rank_deficiency_error():
    b = build_bspline_basis(0, 100, 7, 4)
    t = np.linspace(0, 100, 5)
    with pytest.raises(ValueError):
        smooth_curves(t, np.ones((1, 5)), b)


def test_smoothing_is_projection():
    rng = np.random.default_rng(3)
    b = build_bspline_basis(0, 100, 7, 4)
    t = np.linspace(0, 100, 50)
    obs = rng.standard_normal((4, t.size))
    once = smooth_curves(t, obs, b)
    twice = smooth_curves(t, once.coef @ b.design_matrix(t).T, b)
    assert np.abs(once.coef - twice.coef).max() < 1e-12


def test_scores_zero_and_identity_gram():
    b = build_bspline_basis(0, 1, 1, 1)  # gram = I trivially
    t = np.linspace(0, 1, 10)
    sample = smooth_curves(t, np.zeros((3, 10)), b)
    assert np.all(sample.scores == 0)


def test_score_integral_duality():
    rng = np.random.default_rng(5)
    b = build_bspline_basis(0, 100, 7, 4)
    t_fit = np.linspace(0, 100, 60)
    t_quad = np.linspace(0, 100, 10_001)
    phi_quad = b.design_matrix(t_quad)
    for _ in range(50):
        c = rng.standard_normal((3, 7))
        gcoef = rng.standard_normal(7)
        sample = smooth_curves(t_fit, c @ b.design_matrix(t_fit).T, b)
        beta = b.gram_chol.T @ gcoef
        direct = np.array(
            [
                simpson((sample.coef[i] @ phi_quad.T) * (phi_quad @ gcoef), x=t_quad)
                for i in range(3)
            ]
        )
        assert np.abs(sample.scores @ beta - direct).max() < 1e-8


def test_reconstruct_gamma_zero_and_round_trip():
    b = build_bspline_basis(0, 100, 7, 4)
    t = np.linspace(0, 100, 33)
    assert np.all(reconstruct_gamma(np.zeros(7), b, t) == 0)

    rng = np.random.default_rng(9)
    gcoef = rng.standard_normal(7)
    beta = b.gram_chol.T @ gcoef
    direct = b.design_matrix(t) @ gcoef
    assert np.abs(reconstruct_gamma(beta, b, t) - direct).max() < 1e-10


def test_reconstruct_gamma_paper_formula_endpoint():
    from fslm import true_gamma
    from fslm.simgen import project_gamma

    b = build_bspline_basis(0, 100, 7, 4)
    t = np.arange(101.0)
    gcoef = project_gamma(b, t)
    beta = b.gram_chol.T @ gcoef
    # the projection sup-norm error of this gamma on 7 uniform-knot cubic
    # splines is ~0.17 (sharp feature near t=0), so the endpoint carries it
    assert reconstruct_gamma(beta, b, np.array([0.0]))[0] == pytest.approx(
        -4.0, abs=0.2
    )
    assert true_gamma(0.0) == -4.0


def test_reconstruct_gamma_outside_domain():
    b = build_bspline_basis(0, 100, 7, 4)
    with pytest.raises(ValueError):
        reconstruct_gamma(np.zeros(7), b, np.array([101.0]))
