"""CSV/JSON serialization for curves, weights, chains and reports.

All floats are written with 17 significant digits so files round-trip
exactly and repeated runs with the same seed are byte-identical.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path

import numpy as np

from .sampler import Chain
from .spatial import SpatialWeights

__all__ = [
    "fmt",
    "write_curves_csv",
    "read_curves_csv",
    "write_response_csv",
    "read_response_csv",
    "write_weights_csv",
    "read_weights_csv",
    "read_edges_csv",
    "write_truth_json",
    "write_chain_csv",
    "write_json",
]


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_curves_csv(path, t_grid: np.ndarray, obs: np.ndarray) -> None:
    """Rows `id,<values>` under a header `id,t=<t0>,t=<t1>,...`."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["id"] + [f"t={fmt(t)}" for t in t_grid])
        for i, row in enumerate(obs):
            writer.writerow([i] + [fmt(v) for v in row])


def _read_table(path, width: int | None = None) -> tuple[list[str], np.ndarray]:
    """A CSV file's header fields and its rows of floats, each as wide as
    the header unless width is given; a ValueError naming the file when a
    row does not parse or is of another width."""
    with open(path, newline="") as f, warnings.catch_warnings():
        # a header-only file is a table without rows
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        header = f.readline().rstrip("\r\n").split(",")
        try:
            rows = np.loadtxt(f, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    width = width or len(header)
    if rows.size and rows.shape[1] != width:
        raise ValueError(f"{path}: rows must hold {width} values")
    return header, rows.reshape(-1, width)


def _by_id(rows: np.ndarray, path) -> np.ndarray:
    """Rows ordered by their first column, which must number them 0..n-1."""
    order = np.argsort(rows[:, 0], kind="stable")
    if not np.array_equal(rows[order, 0], np.arange(len(rows))):
        raise ValueError(f"{path}: ids must number the rows 0..{len(rows) - 1}")
    return rows[order]


def read_curves_csv(path):
    header, rows = _read_table(path)
    t_grid = np.array([float(h.removeprefix("t=")) for h in header[1:]])
    return t_grid, np.ascontiguousarray(_by_id(rows, path)[:, 1:])


def write_response_csv(path, y: np.ndarray) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["id", "y"])
        for i, v in enumerate(y):
            writer.writerow([i, fmt(v)])


def read_response_csv(path) -> np.ndarray:
    return np.ascontiguousarray(_by_id(_read_table(path, 2)[1], path)[:, 1])


def write_weights_csv(path, w: SpatialWeights) -> None:
    """Sparse triplet form `i,j,w`, nonzero entries in row-major order."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["i", "j", "w"])
        rows, cols = np.nonzero(w.entries)
        for i, j in zip(rows, cols):
            writer.writerow([i, j, fmt(w.entries[i, j])])


def read_weights_csv(path, n: int | None = None) -> SpatialWeights:
    rows = _read_table(path, 3)[1]
    ij = rows[:, :2].astype(int)
    if n is None:
        n = 1 + int(ij.max(initial=-1))
    if np.any(ij != rows[:, :2]) or np.any((ij < 0) | (ij >= n)):
        raise ValueError(f"{path}: indices i, j must be integers in [0, {n})")
    entries = np.zeros((n, n))
    entries[ij[:, 0], ij[:, 1]] = rows[:, 2]
    sums = entries.sum(axis=1)
    standardized = bool(
        np.all((np.abs(sums - 1.0) < 1e-12) | (sums == 0))
    )
    return SpatialWeights(n=n, entries=entries, row_standardized=standardized)


def read_edges_csv(path) -> list[tuple[int, int]]:
    """Two zero-based integer columns `i,j`."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = list(reader)
    if header[:2] != ["i", "j"]:
        # headerless files are accepted too
        rows.insert(0, header)
    return [(int(r[0]), int(r[1])) for r in rows]


def write_truth_json(path, dataset) -> None:
    payload = {
        "beta": [fmt(v) for v in dataset.true_theta.beta],
        "sigma2": fmt(dataset.true_theta.sigma2),
        "rho": fmt(dataset.true_theta.rho),
        "gamma_coef": [fmt(v) for v in dataset.true_gamma_coef],
    }
    write_json(path, payload)


def write_chain_csv(path, chain: Chain) -> None:
    """Header `iter,beta_1..beta_k,sigma2,rho,accepted`, one row per
    iteration, numbered from 1; backs trace plots."""
    k = chain.draws_beta.shape[1]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["iter"] + [f"beta_{j + 1}" for j in range(k)] + ["sigma2", "rho", "accepted"]
        )
        for it in range(len(chain)):
            writer.writerow(
                [it + 1]
                + [fmt(v) for v in chain.draws_beta[it]]
                + [fmt(chain.draws_sigma2[it]), fmt(chain.draws_rho[it]),
                   int(chain.accepted[it])]
            )


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
