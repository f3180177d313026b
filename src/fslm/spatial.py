"""Spatial weight matrices, the log-determinant of I - rho*W, and Moran's I.

The log-determinant uses Ord's (1975) identity
ln|I - rho*W| = sum_i ln(1 - rho*lambda_i) over the eigenvalues of W,
which each SpatialWeights computes once.  They also set rho's domain
[0, rho_max), on which det(I - rho*W) > 0 (LeSage & Pace 2009, ch. 4).
When W is similar to a symmetric matrix and its links close no odd cycle
(a bipartite W, such as any rook lattice), the eigenvalues come from the
singular values of a half-size block, at about half the cost of the
full symmetric eigenproblem.

Moran's I scores a permutation's z'Wz along W's well-filled diagonals and
over its other linked pairs, at O(nnz), or, for a W with few zero
entries, by a dense product with W, at O(n^2): whichever does less work.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SpatialWeights",
    "MoranResult",
    "weights_from_edges",
    "grid_contiguity",
    "row_standardize",
    "log_det_A",
    "morans_i",
]

# Relative size below which an eigenvalue's imaginary part or a factor
# 1 - rho*lambda is rounding.
EIG_RTOL = 1e-12

# Values per block of Moran permutations: a block of MORAN_BLOCK_VALUES // n
# permuted rows and its product with W stay near 1 MB at any n.
MORAN_BLOCK_VALUES = 1 << 16

# Work per Moran permutation, in values of a sliced diagonal's product
# (about 1 ns each on one core): a gathered pair costs MORAN_GATHER_COST,
# and a sliced diagonal MORAN_DIAGONAL_COST beside its n - d values (its
# numpy calls' pass over the block's rows).  An entry of the dense product
# with W costs 1 / MORAN_DENSE_RATIO, with one BLAS thread.
MORAN_GATHER_COST = 2
MORAN_DIAGONAL_COST = 32
MORAN_DENSE_RATIO = 25


def read_only(a) -> np.ndarray:
    """A read-only float view of a, so that values cached from it stay valid."""
    view = np.asarray(a, dtype=float).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class SpatialWeights:
    """Finite, nonnegative n x n weight matrix with zero diagonal."""

    n: int
    entries: np.ndarray
    row_standardized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "entries", read_only(self.entries))
        w = self.entries
        if w.shape != (self.n, self.n):
            raise ValueError("entries must be n x n")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(np.diag(w) != 0):
            raise ValueError("diagonal must be zero")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")

    @cached_property
    def links(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, w_ij) of W's nonzero entries in row-major order, found
        on first use; read-only."""
        i, j = np.nonzero(self.entries)
        links = i, j, self.entries[i, j]
        for a in links:
            a.flags.writeable = False
        return links

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of W, computed on first use.

        Real when W is similar to a symmetric matrix (a symmetric W, or a
        row-standardized binary symmetric one) or when every imaginary
        part is rounding; complex, in conjugate pairs, otherwise.

        A W similar to a symmetric S whose links two-colour into units a
        and b (no odd cycle) has S = [[0, B], [B', 0]] in colour order,
        so its eigenvalues, returned in ascending order, are +-sigma(B)
        and n - 2 min(|a|, |b|) zeros.  With one BLAS thread the SVD of
        the |a| x |b| block B costs half of eigvalsh on the n x n S at
        n = 484 and a third at n = 1024; the colouring, one pass over the
        links per breadth-first level, adds about 5%.  The SVD keeps the zero eigenvalues exact, where the
        eigenvalues of B B' would bring them back as square roots of
        rounding (~1e-8).  Odd cycles (queen contiguity, most k-nearest-
        neighbour graphs) keep eigvalsh on S.
        """
        w = self.entries
        i, j, w_ij = self.links
        degree = np.bincount(i, minlength=self.n)
        # D W is symmetric for D = I (symmetric W) or D = diag(row
        # degree) (row-standardized binary symmetric W); then
        # D^1/2 W D^-1/2 is symmetric with W's eigenvalues.
        for d in (np.ones(self.n), np.where(degree > 0, degree, 1.0)):
            if np.allclose(d[i] * w_ij, d[j] * w[j, i], rtol=EIG_RTOL, atol=0.0):
                root = np.sqrt(d)
                side = _two_colouring(self.n, i, j)
                if side is None:
                    s = w * root[:, None]
                    s /= root[None, :]
                    return np.linalg.eigvalsh(s)
                a, b = np.flatnonzero(~side), np.flatnonzero(side)
                block = w[np.ix_(a, b)]
                block *= root[a, None]
                block /= root[None, b]
                sigma = np.linalg.svd(block, compute_uv=False)
                return np.concatenate(
                    [-sigma, np.zeros(self.n - 2 * sigma.size), sigma[::-1]])
        lam = np.linalg.eigvals(w)
        if np.all(np.abs(lam.imag) <= EIG_RTOL * max(1.0, np.abs(lam).max())):
            return lam.real
        return lam

    @cached_property
    def eigenvalue_range(self) -> tuple[float, float]:
        """Smallest and largest real part of W's eigenvalues.  W's trace
        is 0, so they bracket 0, the value returned for n = 0."""
        real = self.eigenvalues.real
        return float(real.min(initial=0.0)), float(real.max(initial=0.0))

    @cached_property
    def rho_max(self) -> float:
        """Upper end of rho's domain [0, rho_max): min(1, 1/lambda_max) over
        W's real eigenvalues, or 1 when none is positive.  A row-standardized
        W has lambda_max = 1, so its rho_max is 1 up to rounding."""
        lam = self.eigenvalues
        real = lam if np.isrealobj(lam) else lam[lam.imag == 0].real
        hi = real.max(initial=0.0)
        return min(1.0, 1.0 / float(hi)) if hi > 0 else 1.0


def check_rho(rho: float, w: SpatialWeights) -> None:
    """A ValueError when rho lies outside W's domain [0, W.rho_max)."""
    if not 0 <= rho < w.rho_max:
        raise ValueError(f"rho {rho} outside W's domain [0, {w.rho_max:.6g})")


def _two_colouring(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray | None:
    """A side (False or True) per unit such that every link (i[k], j[k])
    of a symmetric pattern joins the two sides, or None when the links
    close an odd cycle.

    Breadth-first from the lowest unvisited linked unit of each
    component, one pass over the links per level; a link inside a level
    is an odd cycle.  Unlinked units stay on side False."""
    side = np.zeros(n, dtype=bool)
    seen = np.zeros(n, dtype=bool)
    frontier = np.zeros(n, dtype=bool)
    level_side = False
    while True:
        if not frontier.any():
            unseen = np.flatnonzero(~seen[i])
            if not unseen.size:
                return side
            frontier[i[unseen[0]]] = True
        seen |= frontier
        side[frontier] = level_side
        out = frontier[i]
        if frontier[j[out]].any():
            return None
        frontier = np.zeros(n, dtype=bool)
        frontier[j[out]] = True
        frontier &= ~seen
        level_side = not level_side


@dataclass(frozen=True)
class MoranResult:
    statistic: float
    expected: float
    p_value: float
    n_permutations: int


def weights_from_edges(n: int, edges) -> SpatialWeights:
    """Binary symmetric contiguity matrix from an undirected edge list, an
    (m, 2) integer array or a sequence of integer pairs."""
    pairs = np.asarray(edges) if len(edges) else np.empty((0, 2), dtype=int)
    # numpy reads True beside an integer as 1, so a sequence is searched for it
    if (pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu"
            or pairs is not edges
            and any(isinstance(v, (bool, np.bool_)) for pair in edges for v in pair)):
        raise ValueError("edges must be pairs of integers")
    i, j = pairs.T
    bad = np.flatnonzero((i == j) | (np.minimum(i, j) < 0) | (np.maximum(i, j) >= n))
    if bad.size:  # the first such edge
        i, j = pairs[bad[0]]
        raise ValueError(f"self-loop at unit {i}" if i == j
                         else f"edge ({i},{j}) out of range for n={n}")
    w = np.zeros((n, n))
    w[i, j] = w[j, i] = 1.0
    return SpatialWeights(n=n, entries=w, row_standardized=False)


def grid_contiguity(rows: int, cols: int) -> SpatialWeights:
    """Binary rook (4-neighborhood) contiguity of a rows x cols lattice."""
    if rows < 1 or cols < 1:
        raise ValueError("lattice dimensions must be positive")
    unit = np.arange(rows * cols).reshape(rows, cols)
    down = np.column_stack([unit[:-1].ravel(), unit[1:].ravel()])
    right = np.column_stack([unit[:, :-1].ravel(), unit[:, 1:].ravel()])
    return weights_from_edges(rows * cols, np.concatenate([down, right]))


def row_standardize(w: SpatialWeights) -> SpatialWeights:
    """Divide each nonzero row by its sum; zero rows pass through."""
    sums = w.entries.sum(axis=1)
    if np.any(sums == 0):
        warnings.warn("zero-neighbor rows left as all-zero under standardization")
    safe = np.where(sums > 0, sums, 1.0)
    return SpatialWeights(
        n=w.n, entries=w.entries / safe[:, None], row_standardized=True
    )


def log_det_A(w: SpatialWeights, rho):
    """ln|det(I - rho*W)| = sum_i ln|1 - rho*lambda_i| from W's cached
    eigenvalues.  An array of rho gives one log-det per value, from one
    log-sum over the (rho, lambda) products; a scalar rho gives a float.
    Errors, naming the first such rho, if a det is zero or negative."""
    lam = w.eigenvalues
    is_real = lam.dtype.kind == "f"
    # 1 - rho*lambda rounds monotonically in lambda, so with real eigenvalues
    # each rho's smallest factor is the one at W's smallest or largest
    lo, hi = w.eigenvalue_range
    if isinstance(rho, (int, float)):
        terms = rho * lam  # the bits of np.multiply.outer(rho, lam)
        smallest = min(1.0 - rho * lo, 1.0 - rho * hi)
    else:
        terms = np.multiply.outer(rho, lam)
        smallest = (1.0 - np.multiply.outer(rho, (lo, hi))).min(initial=np.inf)
    np.subtract(1.0, terms, out=terms)
    if is_real and smallest > EIG_RTOL:
        # inside rho's domain, where log(terms) = log|terms|: one pass
        size = terms
    else:
        size = np.abs(terms)
        # a conjugate pair contributes |1 - rho*lambda|^2 > 0, so only the
        # real eigenvalues set the sign of det
        real = terms if is_real else terms[..., lam.imag == 0].real
        # inside rho's domain every factor is positive: check per rho only if not
        if (size <= EIG_RTOL).any() or (real < 0).any():
            bad = (size <= EIG_RTOL).any(axis=-1) | ((real < 0).sum(axis=-1) % 2 == 1)
            if bad.any():
                raise np.linalg.LinAlgError(
                    f"det(I - rho*W) not positive at rho={np.ravel(rho)[np.argmax(bad)]}")
    log_det = np.log(size, out=size).sum(axis=-1)
    return float(log_det) if log_det.ndim == 0 else log_det


def morans_i(
    values: np.ndarray,
    w: SpatialWeights,
    n_permutations: int = 999,
    seed: int = 0,
) -> MoranResult:
    """Global Moran's I with a two-sided permutation p-value.

    I = (n/S0) * (z' W z)/(z' z) with z the centered values and
    S0 the total weight.  The p-value counts permutations whose
    deviation from the null expectation -1/(n-1) is at least as
    large as the observed one.

    Permutations run in blocks of MORAN_BLOCK_VALUES // n rows, scored
    by _quadratic_form_scorer.  A block is drawn with
    rng.permuted(..., axis=1), the same stream as P successive
    rng.permutation(z) calls, so a seed gives the p-value of drawing and
    testing each permutation alone, whichever scorer runs.
    """
    values = np.asarray(values, dtype=float)
    n = w.n
    if values.shape != (n,):
        raise ValueError("values length must match the number of units")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if n < 3:
        raise ValueError("need at least 3 units")
    if n_permutations < 0:
        raise ValueError("n_permutations must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        z = values - values.mean()
        denom = z @ z
    # z'z below the smallest normal float has too few significant bits, and
    # z'z not below inf (or NaN) has overflowed, in the mean or in z'z
    if not np.finfo(float).tiny <= denom < np.inf:
        if values.min() == values.max():
            raise ValueError("values are constant; Moran's I undefined")
        raise ValueError(f"the values' spread is too {'small' if denom < 1 else 'large'} "
                         "to compute Moran's I")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        s0 = w.entries.sum()
        zwz = z @ w.entries @ z
    if s0 == 0:
        raise ValueError("weight matrix has no links; Moran's I undefined")
    if not (np.isfinite(s0) and np.isfinite(zwz)):
        raise ValueError("W's total weight or z'Wz overflows, so Moran's I cannot be computed")
    observed = (n / s0) * zwz / denom
    expected = -1.0 / (n - 1)
    rng = np.random.default_rng(seed)
    block = max(1, MORAN_BLOCK_VALUES // n)
    score = _quadratic_form_scorer(w)
    hits = 0
    for start in range(0, n_permutations, block):
        rows = min(block, n_permutations - start)
        zp = rng.permuted(np.broadcast_to(z, (rows, n)), axis=1)
        quad = score(zp)
        # a permutation leaves z'z unchanged
        stats = (n / s0) * quad / denom
        hits += np.count_nonzero(
            np.abs(stats - expected) >= abs(observed - expected) - 1e-15)
    p = (hits + 1) / (n_permutations + 1)
    return MoranResult(
        statistic=float(observed),
        expected=expected,
        p_value=float(p),
        n_permutations=n_permutations,
    )


def _quadratic_form_scorer(w: SpatialWeights):
    """A function of a block of rows z giving z'Wz per row, by the scorer
    of least work (the MORAN_* costs; every rook lattice from 9x9 up takes
    its two diagonals alone).

    The sparse scorer takes each linked pair once, as (lo, hi) with weight
    w_ij + w_ji, since z'Wz = sum over pairs of (w_ij + w_ji) z_lo z_hi
    (Cliff & Ord 1981).  The pairs at offset d = hi - lo lie on W's d-th
    diagonal.  A well-filled diagonal scores as (z[:, :-d] * z[:, d:]) @ v,
    v the (n - d)-vector of its pair weights at lo, with no gather; the
    other pairs are gathered.  A W with few zero entries is scored by the
    dense product z @ W, at O(n^2)."""
    n = w.n
    i, j, w_ij = w.links
    entries = w.entries

    def dense(z):
        return np.einsum("ij,ij->i", z @ entries, z)

    # W has nnz/2 pairs or more, each costing the sparse scorer 1 or more:
    # the dense product wins the test below, so skip its O(nnz) set-up
    if n * n <= MORAN_DENSE_RATIO * i.size / 2:
        return dense
    # each linked pair once: as i < j, or as i > j when w_ji = 0
    once = (i < j) | (entries[j, i] == 0)
    i, j = i[once], j[once]
    weight = w_ij[once] + entries[j, i]
    lo, offset = np.minimum(i, j), np.abs(j - i)
    count = np.bincount(offset, minlength=n)
    d = np.flatnonzero(count)
    # a diagonal is sliced when that costs less than gathering its pairs
    d = d[MORAN_GATHER_COST * count[d] >= n - d + MORAN_DIAGONAL_COST]
    sliced = np.zeros(n, dtype=bool)
    sliced[d] = True
    gathered = ~sliced[offset]
    work = ((n - d + MORAN_DIAGONAL_COST).sum()
            + MORAN_GATHER_COST * np.count_nonzero(gathered))
    if n * n <= MORAN_DENSE_RATIO * work:
        return dense
    # row k holds the weights of diagonal d[k] at lo
    v = np.zeros((d.size, n))
    v[np.searchsorted(d, offset[~gathered]), lo[~gathered]] = weight[~gathered]
    diagonals = [(dk, v[k, :n - dk]) for k, dk in enumerate(d.tolist())]
    i, j, weight = i[gathered], j[gathered], weight[gathered]

    def score(z):
        products = z[:, i]
        products *= z[:, j]
        quad = products @ weight
        for dk, vk in diagonals:
            quad += (z[:, :-dk] * z[:, dk:]) @ vk
        return quad

    return score
