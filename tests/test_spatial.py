import contextlib
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fslm import (
    grid_contiguity,
    log_det_A,
    morans_i,
    row_standardize,
    weights_from_edges,
)
from fslm import io as fio
from fslm import spatial
from fslm.spatial import EIG_RTOL, MORAN_BLOCK_VALUES, MoranResult, SpatialWeights


def test_single_edge():
    w = weights_from_edges(2, [(0, 1)])
    assert np.array_equal(w.entries, [[0, 1], [1, 0]])
    assert not w.row_standardized


def test_empty_edges():
    w = weights_from_edges(3, [])
    assert np.all(w.entries == 0)


def test_path_graph_degrees():
    w = weights_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert np.array_equal(w.entries.sum(axis=1), [1, 2, 2, 1])
    assert np.array_equal(w.entries, w.entries.T)


def test_edge_errors():
    with pytest.raises(ValueError):
        weights_from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        weights_from_edges(3, [(0, 3)])


@pytest.mark.parametrize("edges", [[(0, 1.5)], [(0.0, 1.0)], [(0, 1, 2)], [(0, True)],
                                   np.array([[0.0, 1.0]]), np.array([[False, True]])],
                         ids=["float", "floats", "triple", "bool", "float-array", "bool-array"])
def test_edges_that_are_not_integer_pairs_are_refused(edges):
    with pytest.raises(ValueError, match="edges must be pairs of integers"):
        weights_from_edges(3, edges)


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (2, 2), (0, 5)], "self-loop at unit 2"),
    ([(0, 1), (4, 0), (1, 1)], r"edge \(4,0\) out of range for n=3"),
    ([(-1, 0)], r"edge \(-1,0\) out of range for n=3"),
    ([(5, 5)], "self-loop at unit 5"),
])
def test_edge_errors_name_the_first_bad_edge(edges, message):
    for given in (edges, np.array(edges)):
        with pytest.raises(ValueError, match=message):
            weights_from_edges(3, given)


def test_edge_array_and_list_give_the_same_w():
    edges = [(0, 1), (1, 2), (3, 1)]
    want = [[0, 1, 0, 0], [1, 0, 1, 1], [0, 1, 0, 0], [0, 1, 0, 0]]
    for given in (edges, np.array(edges)):
        assert np.array_equal(weights_from_edges(4, given).entries, want)


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 6), (6, 1), (2, 2), (3, 7), (7, 3), (11, 11)])
def test_grid_matches_the_loop_built_lattice(rows, cols):
    want = np.zeros((rows * cols, rows * cols))
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if r + 1 < rows:
                want[i, i + cols] = want[i + cols, i] = 1.0
            if c + 1 < cols:
                want[i, i + 1] = want[i + 1, i] = 1.0
    assert np.array_equal(grid_contiguity(rows, cols).entries, want)


def test_grid_trivial_and_rook():
    assert np.all(grid_contiguity(1, 1).entries == 0)
    w = grid_contiguity(2, 2)
    assert np.array_equal(w.entries.sum(axis=1), [2, 2, 2, 2])


def test_lattice_link_count():
    w = grid_contiguity(11, 11)
    assert w.n == 121
    assert w.entries.sum() == 440  # 2 * (11*10*2) directed links


def test_grid_errors():
    with pytest.raises(ValueError):
        grid_contiguity(0, 5)


def test_row_standardize():
    w = row_standardize(weights_from_edges(2, [(0, 1)]))
    assert np.array_equal(w.entries, [[0, 1], [1, 0]])

    w4 = row_standardize(weights_from_edges(4, [(0, 1), (0, 2), (0, 3)]))
    assert np.allclose(w4.entries[0], [0, 1 / 3, 1 / 3, 1 / 3])
    sums = w4.entries.sum(axis=1)
    assert np.all((np.abs(sums - 1) < 1e-12) | (sums == 0))


def test_zero_row_passthrough():
    with pytest.warns(UserWarning):
        w = row_standardize(weights_from_edges(3, [(0, 1)]))
    assert np.all(w.entries[2] == 0)


def test_standardized_spectral_radius():
    w = row_standardize(grid_contiguity(11, 11))
    # power iteration
    v = np.ones(w.n)
    for _ in range(200):
        v = w.entries @ v
        v /= np.linalg.norm(v)
    radius = v @ w.entries @ v
    assert radius <= 1 + 1e-10


def test_diagonal_zero_enforced():
    with pytest.raises(ValueError):
        SpatialWeights(n=2, entries=np.array([[1.0, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weight_refused(bad):
    with pytest.raises(ValueError, match="finite"):
        SpatialWeights(n=2, entries=np.array([[0.0, bad], [1.0, 0.0]]))


def test_log_det_zero_rho():
    for w in (weights_from_edges(3, []), row_standardize(grid_contiguity(3, 3))):
        assert log_det_A(w, 0.0) == 0.0


def test_log_det_hand_2x2():
    w = weights_from_edges(2, [(0, 1)])
    assert log_det_A(w, 0.5) == pytest.approx(np.log(0.75), abs=1e-12)


def test_log_det_eigen_oracle():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = rng.integers(3, 51)
        base = (rng.random((n, n)) < 0.3).astype(float)
        base = np.triu(base, 1)
        base = base + base.T
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zero-neighbour rows
            w = row_standardize(SpatialWeights(n=int(n), entries=base))
        eig = np.linalg.eigvals(w.entries)
        rho = 0.3
        ref = np.sum(np.log(np.abs(1 - rho * eig))).real
        assert log_det_A(w, rho) == pytest.approx(ref, abs=1e-8)


def test_log_det_singular():
    w = weights_from_edges(2, [(0, 1)])
    with pytest.raises(np.linalg.LinAlgError):
        log_det_A(w, 1.0)


def test_moran_alternating_path():
    n = 10
    w = weights_from_edges(n, [(i, i + 1) for i in range(n - 1)])
    values = np.array([1.0, -1.0] * (n // 2))
    res = morans_i(values, w, n_permutations=99, seed=0)
    assert res.statistic == pytest.approx(-1.0, abs=1e-12)
    assert res.expected == pytest.approx(-1 / (n - 1))


def test_moran_degenerate_inputs():
    w = weights_from_edges(4, [])
    with pytest.raises(ValueError):
        morans_i(np.array([1.0, 2.0, 3.0, 4.0]), w, 9, 0)  # S0 = 0
    w2 = weights_from_edges(4, [(0, 1)])
    with pytest.raises(ValueError, match="constant"):
        morans_i(np.ones(4), w2, 9, 0)


def test_moran_tiny_spread_is_not_called_constant():
    # z'z = 2.1e-588 underflows to 0, although the values differ
    w = weights_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="spread is too small"):
        morans_i(np.array([0.0, 0.0, 1.78e-294]), w, 9, 0)


@pytest.mark.parametrize("values", [
    [1e200, -1e200, 0, 1, 2, 3, 4, 5, 6],  # z'z overflows
    [1.7e308, 1.7e308, -1.7e308, 0, 1, 2, 3, 4, 5],  # the mean overflows
    [1.7e308] * 4 + [-1.7e308] * 5,  # the mean is NaN
])
def test_moran_refuses_a_spread_whose_square_overflows(values):
    w = grid_contiguity(3, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="spread is too large"):
            morans_i(np.array(values), w, 99, 0)


@pytest.mark.parametrize("weight, values", [
    (1e308, [1.0, 2.0, 0.0, 5.0]),  # W's total weight overflows
    (1e300, [1e5, -1e5, 1e5, -1e5]),  # z'Wz overflows
])
def test_moran_refuses_weights_whose_sum_or_quadratic_form_overflows(weight, values):
    w = SpatialWeights(n=4, entries=weight * weights_from_edges(4, [(0, 1), (1, 2), (2, 3)]).entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            morans_i(np.array(values), w, 99, 0)


def test_moran_calls_huge_equal_values_constant():
    w = grid_contiguity(3, 3)
    with pytest.raises(ValueError, match="constant"):
        morans_i(np.full(9, 1.7e308), w, 99, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_moran_refuses_non_finite_values(bad):
    w = weights_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="finite"):
        morans_i(np.array([1.0, bad, 3.0, 4.0]), w, 9, 0)


def test_moran_lattice_gradient():
    w = row_standardize(grid_contiguity(11, 11))
    values = np.arange(121, dtype=float)  # smooth row-major gradient
    res = morans_i(values, w, n_permutations=999, seed=42)
    assert res.statistic > 0
    assert res.p_value < 0.05


def test_moran_seed_reproducible():
    w = row_standardize(grid_contiguity(5, 5))
    rng = np.random.default_rng(8)
    values = rng.standard_normal(25)
    a = morans_i(values, w, 199, seed=5)
    b = morans_i(values, w, 199, seed=5)
    assert a == b


@st.composite
def symmetric_graphs(draw, bipartite=False):
    """Binary symmetric contiguity, often with isolated units, and
    optionally row-standardized; with bipartite=True, every link joins
    two units of unequal drawn sides."""
    n = draw(st.integers(2, 12))
    links = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    c = np.zeros((n, n))
    c[np.triu_indices(n, 1)] = links
    if bipartite:
        sides = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        c *= sides[:, None] != sides[None, :]
    c = c + c.T
    w = SpatialWeights(n=n, entries=c)
    if draw(st.booleans()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zero-neighbour rows
            w = row_standardize(w)
    return w


@settings(max_examples=300, deadline=None)
@given(w=symmetric_graphs() | symmetric_graphs(bipartite=True), rho=st.floats(-3.0, 3.0))
def test_log_det_matches_slogdet(w, rho):
    a = np.eye(w.n) - rho * w.entries
    # keep clear of singular I - rho*W, where rounding decides the sign
    assume(np.min(np.abs(np.linalg.eigvals(a))) > 1e-3)
    sign, ref = np.linalg.slogdet(a)
    if sign <= 0:
        with pytest.raises(np.linalg.LinAlgError):
            log_det_A(w, rho)
    else:
        assert log_det_A(w, rho) == pytest.approx(ref, abs=1e-10)


def test_log_det_directed_cycle_closed_form():
    # eigenvalues of a directed 3-cycle are the cube roots of unity, so
    # det(I - rho*W) = 1 - rho^3, with a complex conjugate pair
    w = SpatialWeights(n=3, entries=np.roll(np.eye(3), 1, axis=1))
    assert np.iscomplexobj(w.eigenvalues)
    for rho in (0.5, -2.0, 0.99):
        assert log_det_A(w, rho) == pytest.approx(np.log(1 - rho**3), abs=1e-12)
    with pytest.raises(np.linalg.LinAlgError):
        log_det_A(w, 1.5)
    assert w.rho_max == pytest.approx(1.0)


def test_log_det_random_digraphs_match_slogdet():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(3, 31))
        c = (rng.random((n, n)) < 0.3).astype(float)
        np.fill_diagonal(c, 0.0)
        w = SpatialWeights(n=n, entries=c)
        rho = float(rng.uniform(-1.0, 1.0)) / max(1.0, c.sum(axis=1).max())
        sign, ref = np.linalg.slogdet(np.eye(n) - rho * c)
        assert sign > 0
        assert log_det_A(w, rho) == pytest.approx(ref, abs=1e-10)


def count_eigen_calls(monkeypatch):
    """Names of the numpy eigen- and singular-value routines called, in order."""
    calls = []
    for name in ("eigvals", "eigvalsh", "svd"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, name=name, real=real, **kw:
                            calls.append(name) or real(a, *args, **kw))
    return calls


def test_eigenvalues_computed_once(monkeypatch):
    calls = count_eigen_calls(monkeypatch)
    w = row_standardize(grid_contiguity(5, 5))
    for rho in np.linspace(-0.9, 0.9, 7):
        log_det_A(w, rho)
    w.rho_max
    assert len(calls) == 1
    log_det_A(row_standardize(grid_contiguity(5, 5)), 0.5)
    assert len(calls) == 2


def test_lattice_eigenvalues_real_and_interval():
    w = row_standardize(grid_contiguity(11, 11))
    assert w.eigenvalues.dtype == float
    assert np.sort(w.eigenvalues) == pytest.approx(
        np.sort(np.linalg.eigvals(w.entries).real), abs=1e-12)
    # the rook lattice is bipartite: its spectrum spans [-1, 1]
    assert w.rho_max == pytest.approx(1.0, abs=1e-12)
    assert weights_from_edges(4, []).rho_max == 1.0


def binary_and_standardized(c):
    w = SpatialWeights(n=len(c), entries=c)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero-neighbour rows
        return [w, row_standardize(w)]


def star(n):
    return weights_from_edges(n, [(0, k) for k in range(1, n)]).entries


def cycle(n):
    return weights_from_edges(n, [(k, (k + 1) % n) for k in range(n)]).entries


def weighted_bipartite(seed=3):
    rng = np.random.default_rng(seed)
    c = np.zeros((9, 9))
    c[:4, 4:] = rng.random((4, 5)) * (rng.random((4, 5)) < 0.7)
    return c + c.T


BIPARTITE = {
    "rook11x11": grid_contiguity(11, 11).entries,
    "rook3x7": grid_contiguity(3, 7).entries,
    "rook1x2": grid_contiguity(1, 2).entries,
    "star": star(6),
    "cycle8": cycle(8),
    # a 4-unit path and three isolated units
    "isolated": weights_from_edges(7, [(1, 2), (2, 4), (4, 6)]).entries,
    # a star and an even cycle, with interleaved units
    "two-components": weights_from_edges(
        10, [(0, 2), (0, 4), (0, 6), (1, 3), (3, 5), (5, 7), (7, 8), (8, 9), (9, 1)]).entries,
}


@pytest.mark.parametrize(
    "w", [w for c in BIPARTITE.values() for w in binary_and_standardized(c)]
    + [SpatialWeights(n=9, entries=weighted_bipartite())],
    ids=[f"{name}-{form}" for name in BIPARTITE for form in ("binary", "standardized")]
    + ["weighted"])
def test_bipartite_eigenvalues_from_the_block_svd(w, monkeypatch):
    calls = count_eigen_calls(monkeypatch)
    lam = w.eigenvalues
    assert calls == ["svd"]
    assert lam.dtype == float and np.all(np.diff(lam) >= 0)
    assert lam == pytest.approx(np.sort(np.linalg.eigvals(w.entries).real), abs=1e-12)


def lattice_with_a_diagonal():
    c = grid_contiguity(5, 5).entries.copy()
    c[0, 6] = c[6, 0] = 1.0
    return c


@pytest.mark.parametrize(
    "w", [w for c in (cycle(3), cycle(7), lattice_with_a_diagonal())
          for w in binary_and_standardized(c)],
    ids=[f"{name}-{form}" for name in ("triangle", "cycle7", "lattice-diagonal")
         for form in ("binary", "standardized")])
def test_odd_cycles_keep_eigvalsh(w, monkeypatch):
    calls = count_eigen_calls(monkeypatch)
    lam = w.eigenvalues
    assert calls == ["eigvalsh"]
    assert lam == pytest.approx(np.sort(np.linalg.eigvals(w.entries).real), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(w=symmetric_graphs() | symmetric_graphs(bipartite=True))
def test_two_colouring_is_found_exactly_when_no_odd_cycle(w):
    i, j = np.nonzero(w.entries)
    side = spatial._two_colouring(w.n, i, j)
    # a graph is bipartite iff every closed walk of odd length k <= n,
    # counted by tr(A^k), is absent
    a = (w.entries > 0).astype(np.int64)
    odd_traces = [np.trace(np.linalg.matrix_power(a, k)) for k in range(1, w.n + 1, 2)]
    if side is None:
        assert any(odd_traces)
    else:
        assert np.all(side[i] != side[j])
        assert not any(odd_traces)


def test_entries_read_only():
    w = weights_from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        w.entries[0, 2] = 1.0
    # the cached links, in row-major order, are read-only too
    i, j, w_ij = w.links
    assert i.tolist() == [0, 1] and j.tolist() == [1, 0] and w_ij.tolist() == [1.0, 1.0]
    for a in w.links:
        with pytest.raises(ValueError):
            a[0] = 2


def test_directed_path_is_nilpotent():
    # a strictly triangular W has only zero eigenvalues: det(I - rho*W) = 1
    w = SpatialWeights(n=4, entries=np.triu(np.ones((4, 4)), 1))
    assert w.rho_max == 1.0
    for rho in (-3.0, 0.5, 3.0):
        assert log_det_A(w, rho) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("rows, cols", [(11, 11), (22, 22), (3, 7), (1, 2)])
def test_rho_max_is_one_on_row_standardized_lattices(rows, cols):
    assert row_standardize(grid_contiguity(rows, cols)).rho_max == pytest.approx(1.0, abs=1e-15)


def test_rho_max_of_binary_rook_lattice():
    # the lattice is the product of two 11-unit paths, each with largest
    # eigenvalue 2 cos(pi/12), so W's is 4 cos(pi/12)
    w = grid_contiguity(11, 11)
    assert w.rho_max == pytest.approx(1.0 / (4.0 * np.cos(np.pi / 12)), rel=1e-13)
    assert np.isfinite(log_det_A(w, w.rho_max * (1 - 1e-9)))


def test_rho_max_of_zero_weights_is_one():
    assert SpatialWeights(n=5, entries=np.zeros((5, 5))).rho_max == 1.0


def nearest_neighbour_weights(n, k=4, seed=0):
    """Row-standardized k-nearest-neighbour W on n random points in the
    unit square: asymmetric, with complex eigenvalues."""
    points = np.random.default_rng(seed).random((n, 2))
    dist = np.linalg.norm(points[:, None] - points[None], axis=-1)
    np.fill_diagonal(dist, np.inf)
    c = np.zeros((n, n))
    np.put_along_axis(c, np.argsort(dist, axis=1)[:, :k], 1.0, axis=1)
    return row_standardize(SpatialWeights(n=n, entries=c))


@pytest.mark.parametrize("w", [row_standardize(grid_contiguity(11, 11)),
                               nearest_neighbour_weights(45)],
                         ids=["lattice", "nearest-neighbour"])
def test_log_det_of_an_array_is_the_scalar_loop(w):
    grid = np.linspace(0.0, w.rho_max * (1 - 1e-9), 200)
    looped = np.array([log_det_A(w, rho) for rho in grid])
    assert np.array_equal(log_det_A(w, grid), looped)


def weighted_path_weights():
    """Row-standardized inverse-distance weights on a path of 7 points: W is
    similar to a symmetric matrix, but not by a degree scaling, so its real
    eigenvalues come from eigvals, unsorted."""
    x = np.array([0.0, 1.0, 3.0, 3.5, 6.0, 6.2, 9.0])
    c = np.zeros((7, 7))
    i = np.arange(6)
    c[i, i + 1] = c[i + 1, i] = 1.0 / np.diff(x)
    return row_standardize(SpatialWeights(n=7, entries=c))


@pytest.mark.parametrize("w", [grid_contiguity(5, 5), weighted_path_weights()],
                         ids=["binary-lattice", "weighted-path"])
def test_log_det_reads_the_smallest_factor_at_the_extreme_eigenvalues(w):
    # log_det_A checks only the factors at W's smallest and largest
    # eigenvalue; the reference checks every factor 1 - rho*lambda
    lam = w.eigenvalues
    assert lam.dtype.kind == "f"
    lo, hi = w.eigenvalue_range
    assert (lo, hi) == (lam.min(), lam.max())
    near_singular = np.outer([1.0 / lo, 1.0 / hi], 1.0 + np.array([-1e-9, -1e-13, 0.0, 1e-13, 1e-9]))
    grid = np.concatenate([np.linspace(-2.0, 2.0, 101), near_singular.ravel()])
    fine = []
    for rho in grid.tolist():
        terms = 1.0 - rho * lam
        if (np.abs(terms) <= EIG_RTOL).any() or (terms < 0).sum() % 2:
            for arg in (rho, np.array([rho])):
                with pytest.raises(np.linalg.LinAlgError, match=f"at rho={rho}$"):
                    log_det_A(w, arg)
        else:
            fine.append(rho)
            assert log_det_A(w, rho) == np.log(np.abs(terms)).sum()
    assert 0 < len(fine) < grid.size
    assert np.array_equal(log_det_A(w, np.array(fine)), [log_det_A(w, rho) for rho in fine])


def test_nearest_neighbour_weights_have_complex_eigenvalues():
    w = nearest_neighbour_weights(45)
    assert not np.allclose(w.entries, w.entries.T)
    assert np.iscomplexobj(w.eigenvalues)


def test_log_det_of_a_scalar_is_a_float():
    w = row_standardize(grid_contiguity(11, 11))
    assert type(log_det_A(w, 0.5)) is float
    assert type(log_det_A(w, np.float64(0.5))) is float


def test_log_det_of_an_array_names_the_singular_rho():
    w = weights_from_edges(2, [(0, 1)])  # eigenvalues -1 and 1
    with pytest.raises(np.linalg.LinAlgError, match=r"not positive at rho=1\.0$"):
        log_det_A(w, np.array([0.1, 0.5, 1.0, 0.25]))


def test_log_det_of_an_array_names_the_rho_with_negative_det():
    # directed 3-cycle: det(I - rho*W) = 1 - rho^3 < 0 at rho = 1.5
    w = SpatialWeights(n=3, entries=np.roll(np.eye(3), 1, axis=1))
    with pytest.raises(np.linalg.LinAlgError, match=r"not positive at rho=1\.5$"):
        log_det_A(w, np.array([0.5, -2.0, 1.5, 0.9]))


def moran_one_permutation_at_a_time(values, w, n_permutations, seed):
    """Reference: each permutation drawn by rng.permutation and tested alone.
    S0 and the observed z'Wz are summed over W's links, as morans_i sums
    them; each permutation's z'Wz is the dense product."""
    n = w.n
    z = np.asarray(values, dtype=float) - np.mean(values)
    i, j, w_ij = w.links
    s0 = w_ij.sum()

    def stat(zv, zwz):
        return (n / s0) * zwz / (zv @ zv)

    observed = stat(z, (z[i] * z[j]) @ w_ij)
    expected = -1.0 / (n - 1)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_permutations):
        perm = rng.permutation(z)
        if abs(stat(perm, perm @ w.entries @ perm) - expected) >= abs(observed - expected) - 1e-15:
            hits += 1
    return MoranResult(statistic=float(observed), expected=expected,
                       p_value=float((hits + 1) / (n_permutations + 1)),
                       n_permutations=n_permutations)


# morans_i's costs: its own (W's choice of scorer), and those that force
# each scorer whatever W's shape: the dense product with W, every linked
# pair over its sliced diagonal, and every linked pair gathered
SCORERS = [{},
           {"MORAN_DENSE_RATIO": np.inf},
           {"MORAN_DENSE_RATIO": 0, "MORAN_GATHER_COST": 1e9},
           {"MORAN_DENSE_RATIO": 0, "MORAN_GATHER_COST": 0}]


def morans_i_by_each_scorer(values, w, n_permutations, seed):
    """morans_i's results under each of SCORERS' costs."""
    results = []
    for costs in SCORERS:
        with mock.patch.multiple(spatial, **costs) if costs else contextlib.nullcontext():
            results.append(morans_i(values, w, n_permutations, seed))
    return results


def test_permuted_rows_are_successive_permutations():
    z = np.random.default_rng(1).standard_normal(484)
    one, block = np.random.default_rng(5), np.random.default_rng(5)
    assert np.array_equal(np.stack([one.permutation(z) for _ in range(50)]),
                          block.permuted(np.broadcast_to(z, (50, 484)), axis=1))


@pytest.mark.parametrize(
    "case", ["path3", "cycle4-ties", "knn45", "lattice22-ties", "one-way-ties",
             "lattice11-long-link-ties", "ring120-chords-ties"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_moran_blocks_match_one_permutation_at_a_time(case, seed):
    rng = np.random.default_rng(100 + seed)
    if case == "path3":
        w, values = weights_from_edges(3, [(0, 1), (1, 2)]), rng.standard_normal(3)
    elif case == "cycle4-ties":
        w = weights_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        values = np.array([0.0, 1.0, 1.0, 2.0])[rng.permutation(4)]
    elif case == "knn45":
        w = nearest_neighbour_weights(45)
        assert not np.array_equal(w.entries, w.entries.T)
        values = rng.integers(0, 3, w.n).astype(float)
    elif case == "lattice22-ties":
        w = row_standardize(grid_contiguity(22, 22))
        values = rng.integers(0, 2, w.n).astype(float)
    elif case == "lattice11-long-link-ties":
        # the lattice's two diagonals beside one link far off them
        grid = grid_contiguity(11, 11).entries.copy()
        grid[0, 120] = grid[120, 0] = 1.0
        w = row_standardize(SpatialWeights(n=121, entries=grid))
        values = rng.integers(0, 2, w.n).astype(float)
    elif case == "ring120-chords-ties":
        # diagonals 1 and 7 beside the links that wrap around the ring
        w = weights_from_edges(120, [(i, (i + step) % 120) for i in range(120) for step in (1, 7)])
        values = rng.integers(0, 3, w.n).astype(float)
    else:
        # a directed 12-cycle (w_ij > 0 = w_ji) with two links both ways,
        # one of them of unequal weights
        c = np.roll(np.eye(12), 1, axis=1)
        c[0, 6] = c[6, 0] = 1.0
        c[3, 9], c[9, 3] = 0.5, 2.0
        w = SpatialWeights(n=12, entries=c)
        assert np.count_nonzero((c > 0) & (c.T == 0)) == 12
        values = rng.integers(0, 3, w.n).astype(float)
    for n_permutations in (0, 1, 99, 999):
        reference = moran_one_permutation_at_a_time(values, w, n_permutations, seed)
        assert morans_i_by_each_scorer(values, w, n_permutations, seed) == [reference] * len(SCORERS)


@pytest.mark.parametrize("n_permutations", [0, 1, 134, 135, 136])
def test_moran_blocks_match_at_the_block_edge(n_permutations):
    w = row_standardize(grid_contiguity(22, 22))
    assert MORAN_BLOCK_VALUES // w.n == 135
    values = np.random.default_rng(7).standard_normal(w.n)
    reference = moran_one_permutation_at_a_time(values, w, n_permutations, 3)
    assert morans_i_by_each_scorer(values, w, n_permutations, 3) == [reference] * len(SCORERS)


@settings(max_examples=200, deadline=None)
@given(w=symmetric_graphs(), data=st.data(),
       n_permutations=st.integers(0, 60), seed=st.integers(0, 2**32 - 1),
       block_values=st.sampled_from([1, 7, 40, MORAN_BLOCK_VALUES]))
def test_moran_blocks_match_on_any_graph(w, data, n_permutations, seed, block_values):
    assume(w.n >= 3 and w.entries.sum() > 0)
    ties = st.integers(-2, 2).map(float)
    # no subnormal z'z, where the statistic is rounding alone
    spread = st.floats(-100, 100).filter(lambda v: v == 0 or abs(v) >= 1e-3)
    values = np.array(data.draw(st.lists(ties | spread, min_size=w.n, max_size=w.n)))
    z = values - values.mean()
    assume(z @ z > 0)
    # small blocks put block edges inside the drawn permutation counts
    with mock.patch.object(spatial, "MORAN_BLOCK_VALUES", block_values):
        batched = morans_i_by_each_scorer(values, w, n_permutations, seed)
    assert batched == [moran_one_permutation_at_a_time(values, w, n_permutations, seed)] * len(SCORERS)


@st.composite
def weight_matrices(draw):
    """A dense W of 1 to 12 units: binary or weighted, symmetric or one-way,
    often with unlinked units, odd cycles or both."""
    n = draw(st.integers(1, 12))
    c = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)), dtype=float)
    if draw(st.booleans()):
        c *= draw(st.lists(st.floats(0.01, 100.0), min_size=n * n, max_size=n * n))
    c = c.reshape(n, n)
    np.fill_diagonal(c, 0.0)
    if draw(st.booleans()):
        c = np.triu(c, 1)
        c += c.T
    return c


@settings(max_examples=200, deadline=None, derandomize=True)
@given(c=weight_matrices() | symmetric_graphs(bipartite=True).map(lambda w: np.array(w.entries)),
       data=st.data())
def test_w_from_its_links_is_the_w_of_its_dense_matrix(c, data):
    n = len(c)
    dense = SpatialWeights(n=n, entries=c)
    # the triplets shuffled, beside explicit zero weights (on the diagonal too)
    i, j = np.nonzero(c)
    zi, zj = np.nonzero(c == 0)
    zeros = data.draw(st.lists(st.integers(0, zi.size - 1), unique=True, max_size=5)
                      if zi.size else st.just([]))
    ti, tj = np.concatenate([i, zi[zeros]]), np.concatenate([j, zj[zeros]])
    tw = np.concatenate([c[i, j], np.zeros(len(zeros))])
    order = np.array(data.draw(st.permutations(range(ti.size))), dtype=int)
    ti, tj, tw = ti[order], tj[order], tw[order]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "weights.csv"
        fio.write_table(path, ["i", "j", "w"], ti, tj, tw)
        read = fio.read_weights_csv(path, n)
    grid = np.linspace(0.0, dense.rho_max, 8, endpoint=False)
    values = np.random.default_rng(n).standard_normal(n)
    for w in (SpatialWeights.from_links(n, ti, tj, tw), read):
        for a, b in zip(w.links, dense.links):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert w.entries.dtype == float and np.array_equal(w.entries, c)
        assert np.array_equal(w.eigenvalues, dense.eigenvalues)
        assert log_det_A(w, grid) == pytest.approx(log_det_A(dense, grid), rel=0, abs=1e-12)
        if n >= 3 and c.any():
            assert morans_i(values, w, 99, 1).p_value == morans_i(values, dense, 99, 1).p_value


@pytest.mark.parametrize("rows, message", [
    ("0,1,1\n1,0,1\n0,1,1", r"an \(i, j\) pair is given more than once"),
    ("0,1,1\n1,0,1\n0,1,0", r"an \(i, j\) pair is given more than once"),
    ("0,1,1\n1,1,0.5", "diagonal must be zero"),
    ("0,1,1\n1,0,-1", "weights must be nonnegative"),
    ("0,1,1\n1,0,nan", "values must be finite"),
    ("0,1,1\n1,3,1", r"indices i, j must be integers in \[0, 3\)"),
    ("-1,0,1", r"indices i, j must be integers in \[0, 3\)"),
    ("0,1.5,1", r"indices i, j must be integers in \[0, 3\)"),
], ids=["repeated", "repeated-at-weight-0", "self-loop", "negative", "nan", "out-of-range",
        "negative-index", "non-integer"])
def test_weights_csv_refusals_keep_their_messages(tmp_path, rows, message):
    path = tmp_path / "weights.csv"
    path.write_text("i,j,w\n" + rows + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {message}$"):
        fio.read_weights_csv(path, n=3)


@pytest.mark.parametrize("i, j, w_ij, message", [
    ([0, 1, 0], [1, 0, 1], [1.0, 1.0, 0.0], r"an \(i, j\) pair is given more than once"),
    ([0, 2], [1, 2], [1.0, 0.5], "diagonal must be zero"),
    ([0, 1], [1, 0], [1.0, -1.0], "weights must be nonnegative"),
    ([0, 1], [1, 0], [1.0, np.nan], "weights must be finite"),
    ([0, 1], [1, 3], [1.0, 1.0], r"indices i, j must be integers in \[0, 3\)"),
], ids=["repeated-at-weight-0", "self-loop", "negative", "nan", "out-of-range"])
def test_from_links_refusals(i, j, w_ij, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SpatialWeights.from_links(3, i, j, w_ij)


def test_a_self_loop_of_weight_zero_is_dropped():
    w = SpatialWeights.from_links(3, [1, 2, 1], [1, 1, 2], [0.0, 1.0, 1.0])
    assert [a.tolist() for a in w.links] == [[1, 2], [2, 1], [1.0, 1.0]]


def test_repeated_and_reversed_edges_give_one_link_each_way():
    want = weights_from_edges(4, [(0, 1), (1, 2), (3, 1)])
    w = weights_from_edges(4, [(1, 0), (0, 1), (1, 2), (1, 3), (2, 1), (0, 1), (3, 1)])
    assert [a.tolist() for a in w.links] == [a.tolist() for a in want.links]
    assert np.array_equal(w.entries, [[0, 1, 0, 0], [1, 0, 1, 1], [0, 1, 0, 0], [0, 1, 0, 0]])
