"""CSV/JSON serialization for curves, weights, chains and reports.

Every CSV goes through one codec: `write_table` writes it and
`_read_table` reads it.  A table is a header row of names, then one row
per record, fields separated by commas and lines ended by CRLF; integers
and booleans are written as `%d`, floats with 17 significant digits
(`%.17g`, so files round-trip exactly and repeated runs with the same
seed are byte-identical) and strings as they are.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .sampler import Chain
from .spatial import SpatialWeights

__all__ = [
    "fmt",
    "write_table",
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


def write_table(path, header: list[str], *columns) -> None:
    """A CSV file of equal-length columns under a header row; integer and
    boolean columns as `%d`, float columns as `%.17g`, string columns
    (which must hold no comma) as `%s`."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join(
        "%s" if c.dtype.kind in "SU" else "%d" if c.dtype.kind in "biu" else "%.17g"
        for c in columns
    )
    # rows of Python numbers (not numpy scalars) %-formatted and written in
    # one call: np.savetxt's bytes without its per-row writes
    lines = [",".join(header)]
    lines += [row % values for values in zip(*(c.tolist() for c in columns), strict=True)]
    with open(path, "w", newline="") as f:
        f.write("\r\n".join(lines) + "\r\n")


def write_curves_csv(path, t_grid: np.ndarray, obs: np.ndarray) -> None:
    """Rows `id,<values>` under a header `id,t=<t0>,t=<t1>,...`."""
    header = ["id"] + [f"t={fmt(t)}" for t in t_grid]
    write_table(path, header, np.arange(len(obs)), *np.asarray(obs, dtype=float).T)


def _read_table(path, names: list[str] | None = None,
                optional_header: bool = False) -> tuple[list[str], np.ndarray]:
    """A CSV file's header fields and its rows of floats, each as wide as
    the header; a ValueError naming the file when the file is empty, the
    header is not names (when given), a row does not parse or is of
    another width, or a value is NaN or inf.  With optional_header, a
    first line other than names is a row, not a header, and the header
    returned is names."""
    with open(path, newline="") as f, warnings.catch_warnings():
        # a header-only file is a table without rows
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        first = f.readline()
        if not first:
            raise ValueError(f"{path}: file is empty")
        header = first.rstrip("\r\n").split(",")
        if names is not None and header != names:
            if not optional_header:
                raise ValueError(f"{path}: header must be {','.join(names)}")
            header = names
            f.seek(0)
        try:
            rows = np.loadtxt(f, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    width = len(header)
    if rows.size and rows.shape[1] != width:
        raise ValueError(f"{path}: rows must hold {width} values")
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"{path}: values must be finite")
    return header, rows.reshape(-1, width)


def _by_id(rows: np.ndarray, path) -> np.ndarray:
    """Rows ordered by their first column, which must number them 0..n-1."""
    order = np.argsort(rows[:, 0], kind="stable")
    if not np.array_equal(rows[order, 0], np.arange(len(rows))):
        raise ValueError(f"{path}: ids must number the rows 0..{len(rows) - 1}")
    return rows[order]


def read_curves_csv(path):
    header, rows = _read_table(path)
    try:
        if header[0] != "id" or len(header) < 2:
            raise ValueError
        t_grid = np.array([float(h[2:]) for h in header[1:] if h.startswith("t=")])
        if (t_grid.size < len(header) - 1 or not np.all(np.isfinite(t_grid))
                or np.any(np.diff(t_grid) <= 0)):
            raise ValueError
    except ValueError:
        raise ValueError(f"{path}: header must be id,t=<t0>,t=<t1>,... "
                         f"with finite, strictly increasing t") from None
    return t_grid, np.ascontiguousarray(_by_id(rows, path)[:, 1:])


def write_response_csv(path, y: np.ndarray) -> None:
    write_table(path, ["id", "y"], np.arange(len(y)), np.asarray(y, dtype=float))


def read_response_csv(path) -> np.ndarray:
    return np.ascontiguousarray(_by_id(_read_table(path, ["id", "y"])[1], path)[:, 1])


def write_weights_csv(path, w: SpatialWeights) -> None:
    """Sparse triplet form `i,j,w`, nonzero entries in row-major order."""
    write_table(path, ["i", "j", "w"], *w.links)


def read_weights_csv(path, n: int) -> SpatialWeights:
    """The n x n W of triplets `i,j,w`; units without a link keep zero rows."""
    rows = _read_table(path, ["i", "j", "w"])[1]
    ij = rows[:, :2].astype(int)
    if np.any(ij != rows[:, :2]) or np.any((ij < 0) | (ij >= n)):
        raise ValueError(f"{path}: indices i, j must be integers in [0, {n})")
    if len(np.unique(ij, axis=0)) < len(ij):
        raise ValueError(f"{path}: an (i, j) pair is given more than once")
    entries = np.zeros((n, n))
    entries[ij[:, 0], ij[:, 1]] = rows[:, 2]
    with np.errstate(over="ignore"):  # a row whose sum overflows is not standardized
        sums = entries.sum(axis=1)
    standardized = bool(
        np.all((np.abs(sums - 1.0) < 1e-12) | (sums == 0))
    )
    try:
        return SpatialWeights(n=n, entries=entries, row_standardized=standardized)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_edges_csv(path) -> np.ndarray:
    """(m, 2) integers from two zero-based columns `i,j` under an optional `i,j` header."""
    rows = _read_table(path, ["i", "j"], optional_header=True)[1]
    edges = rows.astype(int)
    if np.any(edges != rows):
        raise ValueError(f"{path}: edges must be pairs of integers")
    return edges


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
    header = ["iter"] + [f"beta_{j + 1}" for j in range(k)] + ["sigma2", "rho", "accepted"]
    write_table(path, header, np.arange(1, len(chain) + 1), *chain.draws_beta.T,
                chain.draws_sigma2, chain.draws_rho, chain.accepted)


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
