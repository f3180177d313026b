"""CSV/JSON serialization for curves, weights, chains and reports.

All floats are written with 17 significant digits so files round-trip
exactly and repeated runs with the same seed are byte-identical.
"""

from __future__ import annotations

import csv
import json
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


def read_curves_csv(path):
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        t_grid = np.array([float(h.split("=", 1)[1]) for h in header[1:]])
        rows = sorted(reader, key=lambda r: int(r[0]))
        obs = np.array([[float(v) for v in r[1:]] for r in rows])
    return t_grid, obs


def write_response_csv(path, y: np.ndarray) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["id", "y"])
        for i, v in enumerate(y):
            writer.writerow([i, fmt(v)])


def read_response_csv(path) -> np.ndarray:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)
        rows = sorted(reader, key=lambda r: int(r[0]))
    return np.array([float(r[1]) for r in rows])


def write_weights_csv(path, w: SpatialWeights) -> None:
    """Sparse triplet form `i,j,w`, nonzero entries in row-major order."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["i", "j", "w"])
        rows, cols = np.nonzero(w.entries)
        for i, j in zip(rows, cols):
            writer.writerow([i, j, fmt(w.entries[i, j])])


def read_weights_csv(path, n: int | None = None) -> SpatialWeights:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)
        triplets = [(int(r[0]), int(r[1]), float(r[2])) for r in reader]
    if n is None:
        n = 1 + max(max(i for i, _, _ in triplets), max(j for _, j, _ in triplets))
    entries = np.zeros((n, n))
    for i, j, v in triplets:
        entries[i, j] = v
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
    """Header `iter,beta_1..beta_k,sigma2,rho,accepted`, one row per stored
    draw with its iteration number; backs trace plots."""
    k = chain.draws_beta.shape[1]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["iter"] + [f"beta_{j + 1}" for j in range(k)] + ["sigma2", "rho", "accepted"]
        )
        for it in range(len(chain)):
            writer.writerow(
                [(it + 1) * chain.thin]
                + [fmt(v) for v in chain.draws_beta[it]]
                + [fmt(chain.draws_sigma2[it]), fmt(chain.draws_rho[it]),
                   int(chain.accepted[it])]
            )


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
