"""B-spline bases, curve smoothing and orthonormal score coordinates.

A functional covariate enters the model only through integrals
``int X_i(t) g(t) dt``.  Curves are held as B-spline coefficient rows C,
and with the basis Gram matrix factored as G = L L^T the matrix
Z = C L gives coordinates in which those integrals become plain dot
products: Z (L^T b) = C G b.  Everything downstream (the regression
design matrix) works with Z.  Basis functions are evaluated by de Boor's
recurrence (Piegl & Tiller, The NURBS Book, algorithm A2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "BasisSpec",
    "FunctionalSample",
    "build_bspline_basis",
    "smooth_curves",
    "reconstruct_gamma",
]


@dataclass(frozen=True)
class BasisSpec:
    """A B-spline basis on [domain_start, domain_end] with its Gram matrix."""

    domain_start: float
    domain_end: float
    order: int
    n_basis: int
    knots: np.ndarray       # full knot vector, length n_basis + order
    gram: np.ndarray        # K x K, entries int phi_k phi_j dt
    gram_chol: np.ndarray   # lower triangular L with gram = L L^T

    def design_matrix(self, t: np.ndarray) -> np.ndarray:
        """Evaluate all basis functions at t; returns len(t) x n_basis."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.domain_start - 1e-12) or np.any(t > self.domain_end + 1e-12):
            raise ValueError("evaluation points outside the basis domain")
        t = np.clip(t, self.domain_start, self.domain_end)
        phi = _bspline_values(t, self.knots, self.order)
        # right endpoint support convention: the last basis function is 1 there
        phi[t == self.domain_end] = np.eye(self.n_basis)[-1]
        return phi


@dataclass(frozen=True)
class FunctionalSample:
    """n curves as B-spline coefficient rows plus their score coordinates."""

    basis: BasisSpec
    coef: np.ndarray    # n x K
    scores: np.ndarray  # n x K, scores = coef @ gram_chol

    @property
    def n(self) -> int:
        return self.coef.shape[0]


def build_bspline_basis(
    domain_start: float, domain_end: float, n_basis: int, order: int
) -> BasisSpec:
    """Construct a B-spline basis with uniform interior knots.

    The Gram matrix is integrated exactly by per-span Gauss-Legendre
    quadrature (basis products are piecewise polynomials of degree
    2*(order-1), so order+1 nodes per span suffice).
    """
    if domain_start >= domain_end:
        raise ValueError("domain_start must be strictly less than domain_end")
    if order < 1:
        raise ValueError("order must be at least 1")
    if n_basis < order:
        raise ValueError("n_basis must be at least the order")

    n_interior = n_basis - order
    interior = np.linspace(domain_start, domain_end, n_interior + 2)[1:-1]
    knots = np.concatenate(
        [np.full(order, domain_start), interior, np.full(order, domain_end)]
    )

    gram = _gram_matrix(knots, int(order))
    gram = 0.5 * (gram + gram.T)
    return BasisSpec(
        domain_start=float(domain_start),
        domain_end=float(domain_end),
        order=int(order),
        n_basis=int(n_basis),
        knots=knots,
        gram=gram,
        gram_chol=np.linalg.cholesky(gram),
    )


def _bspline_values(x: np.ndarray, knots: np.ndarray, order: int) -> np.ndarray:
    """All basis functions at x, len(x) x n_basis; the last knot span is closed."""
    n_basis = knots.size - order
    span = np.clip(np.searchsorted(knots, x, side="right") - 1, order - 1, n_basis - 1)
    # h holds, per point, the j + 1 functions of degree j nonzero on its span
    h = np.ones((x.size, 1))
    for j in range(1, order):
        hi = knots[span[:, None] + np.arange(1, j + 1)]
        lo = knots[span[:, None] + np.arange(1 - j, 1)]
        w = h / (hi - lo)
        h = np.zeros((x.size, j + 1))
        h[:, :j] = w * (hi - x[:, None])
        h[:, 1:] += w * (x[:, None] - lo)
    phi = np.zeros((x.size, n_basis))
    phi[np.arange(x.size)[:, None], span[:, None] + np.arange(1 - order, 1)] = h
    return phi


def _gram_matrix(knots: np.ndarray, order: int) -> np.ndarray:
    nodes, weights = leggauss(order + 1)
    n_basis = knots.size - order
    gram = np.zeros((n_basis, n_basis))
    spans = np.unique(knots)
    for lo, hi in zip(spans[:-1], spans[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        # Gauss nodes lie inside the span, away from the right endpoint
        phi = _bspline_values(mid + half * nodes, knots, order)
        gram += half * (phi.T * weights) @ phi
    return gram


def smooth_curves(
    t_grid: np.ndarray, obs: np.ndarray, basis: BasisSpec
) -> FunctionalSample:
    """Least-squares fit of each observed curve onto the basis.

    Rows of ``obs`` are curves sampled at ``t_grid``.  Each row is fit
    independently, so the result does not depend on how many curves are
    smoothed together.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    if t_grid.ndim != 1 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if obs.shape[1] != t_grid.size:
        raise ValueError("obs must have one column per grid point")
    if t_grid.size < basis.n_basis:
        raise ValueError("need at least n_basis observation points")

    # lstsq returns the singular values of phi that the rank check needs
    coef, _, _, s = np.linalg.lstsq(basis.design_matrix(t_grid), obs.T, rcond=None)
    if s[-1] < 1e-10 * s[0]:
        raise np.linalg.LinAlgError(
            "rank-deficient design matrix: too few effective observation points"
        )
    coef = coef.T
    return FunctionalSample(basis=basis, coef=coef, scores=coef @ basis.gram_chol)


def reconstruct_gamma(
    beta: np.ndarray, basis: BasisSpec, t_eval: np.ndarray
) -> np.ndarray:
    """Map score-coordinate coefficients back to a function of t.

    Inverts the score transform (b = L^{-T} beta) and evaluates the
    B-spline expansion at t_eval.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (basis.n_basis,):
        raise ValueError("beta length must equal n_basis")
    b = np.linalg.solve(basis.gram_chol.T, beta)
    return basis.design_matrix(np.asarray(t_eval, dtype=float)) @ b
