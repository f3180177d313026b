"""Smooth noisy curve observations onto a B-spline basis and check that
score coordinates reproduce curve-coefficient integrals.

Run: python3 demos/01_smoothing_and_scores.py
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

from fslm import build_bspline_basis, smooth_curves, reconstruct_gamma
from fslm.simgen import project_gamma, true_gamma

# Seven cubic B-splines on [0, 100], the default design throughout
basis = build_bspline_basis(0, 100, n_basis=7, order=4)
print("knot vector:", basis.knots)
print("Gram matrix diagonal:", np.round(np.diag(basis.gram), 3))

# Noisy observations of cos(t) + sin(t) on the integer grid
rng = np.random.default_rng(0)
t = np.arange(101.0)
raw = np.cos(t) + np.sin(t) + rng.standard_normal((5, t.size))
sample = smooth_curves(t, raw, basis)
print("\ncoefficient matrix shape:", sample.coef.shape)
print("score matrix shape:", sample.scores.shape)

# The whole point of the score transform: Z @ (L^T b) equals the
# integral of each curve against any function with coefficients b
gcoef = project_gamma(basis, t)
beta = basis.gram_chol.T @ gcoef
# Gauss-Legendre with 4 nodes per knot span is exact for the integrand,
# a piecewise polynomial of degree 6
nodes, weights = leggauss(4)
spans = np.unique(basis.knots)
half = 0.5 * np.diff(spans)
t_quad = (0.5 * (spans[:-1] + spans[1:])[:, None] + half[:, None] * nodes).ravel()
w_quad = (half[:, None] * weights).ravel()
phi = basis.design_matrix(t_quad)
direct = ((sample.coef @ phi.T) * (phi @ gcoef)) @ w_quad
print("\nintegral via scores:    ", np.round(sample.scores @ beta, 6))
print("integral via quadrature:", np.round(direct, 6))

# Going back from score coordinates to a function of t
gamma_hat = reconstruct_gamma(beta, basis, t)
print("\ngamma(0) true vs basis-projected:", true_gamma(0.0), round(gamma_hat[0], 3))
