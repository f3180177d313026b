"""The benchmark's three workloads and the checks on their outputs.

A workload is a set-up (the input bundles its rounds read) and a round:
a fixed list of fslm commands run one after another, each started when
the previous one returns.  Every output is checked against the oracles
in oracles.py or against a property the method must have, never
against a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracles

RHO = "0.5"
PAPER_GRID = (11, 11)
LARGE_GRID = (22, 22)
BASIS_COUNT = 7     # the CLI default, used by fit and table1 alike
ML_INTERVAL = (0.0, 0.999)  # fit_ml's search interval

# Tolerances of the checks.
ML_RHO_TOL = 1e-6   # golden-section width 1e-8, widened by the flatness of
                    # l_c at its maximum: a 1e-13 change in l_c moves its
                    # argmax by ~sqrt(2e-13 / l_c'') ~ 3e-8
LL_RTOL = 1e-9      # LU and eigenvalue log-dets agree to ~1e-12
MORAN_TOL = 1e-10
RHO_MEAN_TOL = 0.1  # posterior mean of rho against the ML estimate


SETUP, PROBE = 10**6, 10**6 + 1  # derive() positions; rounds use 0, 1, 2, ...


def derive(seed: int, *parts: int) -> int:
    """A non-negative command seed for one position in a run."""
    x = seed
    for p in parts:
        x = (x * 1_000_003 + p) % 2**31
    return x


def _grid(shape) -> str:
    return f"{shape[0]}x{shape[1]}"


class Bundle:
    """A simulate bundle read independently of fslm's readers; only the
    score matrix Z comes from fslm's (separately tested) smoothing."""

    def __init__(self, path: Path, eig_cache: dict):
        self.path = path
        with open(path / "response.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        self.y = np.array([float(r[1]) for r in sorted(rows, key=lambda r: int(r[0]))])
        n = self.y.size
        with open(path / "weights.csv", newline="") as f:
            self.triplets = [(int(i), int(j), float(v)) for i, j, v in list(csv.reader(f))[1:]]
        self.w = np.zeros((n, n))
        for i, j, v in self.triplets:
            self.w[i, j] = v
        key = (path / "weights.csv").read_bytes()
        if key not in eig_cache:
            eig_cache[key] = oracles.eigenvalues(self.w)
        self.lam = eig_cache[key]
        with open(path / "curves.csv", newline="") as f:
            reader = csv.reader(f)
            t = np.array([float(h.split("=", 1)[1]) for h in next(reader)[1:]])
            obs = np.array([[float(v) for v in r[1:]]
                            for r in sorted(reader, key=lambda r: int(r[0]))])
        import fslm
        basis = fslm.build_bspline_basis(t[0], t[-1], BASIS_COUNT, 4)
        self.z = fslm.smooth_curves(t, obs, basis).scores
        self.truth = json.loads((path / "truth.json").read_text())
        self._rho_ml = None

    @property
    def n(self) -> int:
        return self.y.size

    def rho_ml(self) -> float:
        """The oracle's maximizer of the concentrated likelihood."""
        if self._rho_ml is None:
            self._rho_ml = float(oracles.argmax_concentrated(
                self.y, self.z, self.w, self.lam, *ML_INTERVAL))
        return self._rho_ml

    def loglik(self, beta, sigma2, rho) -> float:
        return oracles.log_likelihood(beta, sigma2, rho, self.y, self.z, self.w, self.lam)


# ---------------------------------------------------------------- checks

def check_bundle(h, path: Path, shape, eig_cache) -> Bundle:
    """simulate wrote the row-standardized rook lattice and n responses."""
    with h.untraced():
        b = Bundle(path, eig_cache)
    rows, cols = shape
    h.check(b.n == rows * cols, f"{path}: {b.n} responses, expected {rows * cols}")
    degree = np.count_nonzero(b.w, axis=1)
    rook = all(abs(i // cols - j // cols) + abs(i % cols - j % cols) == 1
               and v == 1.0 / degree[i] for i, j, v in b.triplets)
    h.check(rook and len(b.triplets) == 2 * (rows * (cols - 1) + cols * (rows - 1)),
            f"{path}: weights are not the row-standardized rook lattice")
    h.check(float(b.truth["rho"]) == float(RHO), f"{path}: truth.json rho")
    return b


def _check_ml(h, b: Bundle, entry: dict) -> None:
    rho_hat = entry["rho_mean"]
    rho_star = b.rho_ml()
    h.check(abs(rho_hat - rho_star) <= ML_RHO_TOL,
            f"ML rho {rho_hat!r} is not the concentrated-likelihood maximizer {rho_star!r}")


def _check_bic(h, b: Bundle, entry: dict, label: str) -> None:
    """The reported BIC implies the log-likelihood at the reported
    estimates; it must match the oracle's there."""
    k = b.z.shape[1]
    ll_reported = ((k + 2) * math.log(b.n) - entry["bic"]) / 2
    ll_oracle = b.loglik(entry["beta_mean"], entry["sigma2_mean"], entry["rho_mean"])
    h.check(abs(ll_reported - ll_oracle) <= LL_RTOL * abs(ll_oracle),
            f"{label}: log-likelihood {ll_reported!r} != oracle {ll_oracle!r}")


def _check_trace(h, path: Path, chain, n_iter: int) -> None:
    """The trace file has the configured length and holds the chain."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    k = chain.draws_beta.shape[1]
    h.check(rows[0] == ["iter"] + [f"beta_{j + 1}" for j in range(k)]
            + ["sigma2", "rho", "accepted"], f"{path}: header")
    h.check(len(rows) - 1 == n_iter, f"{path}: {len(rows) - 1} rows, expected {n_iter}")
    values = np.array([[float(v) for v in r[1:-1]] for r in rows[1:]])
    expected = np.column_stack([chain.draws_beta, chain.draws_sigma2, chain.draws_rho])
    h.check(values.shape == expected.shape and np.array_equal(values, expected),
            f"{path}: draws differ from the chain")


def check_fit(h, b: Bundle, out: Path, cmd, methods, n_iter: int) -> None:
    report = json.loads((out / "report.json").read_text())
    h.check(sorted(report) == sorted(methods), f"{out}: report methods {sorted(report)}")
    chains = {call.args[2].kernel: call.result
              for call in cmd.calls if call.name == "sampler.run_mwg"}
    for method, entry in report.items():
        _check_bic(h, b, entry, f"{out} {method}")
        if method == "ml":
            _check_ml(h, b, entry)
            continue
        kernel = method.split("-")[0]
        _check_trace(h, out / f"trace_{method}.csv", chains[kernel], n_iter)
        h.check(abs(entry["rho_mean"] - b.rho_ml()) <= RHO_MEAN_TOL,
                f"{out} {method}: posterior rho mean {entry['rho_mean']!r} is more than "
                f"{RHO_MEAN_TOL} from the ML estimate {b.rho_ml()!r}")
        h.check(0.0 < entry["acceptance_rate"] < 1.0, f"{out} {method}: acceptance rate")


def check_moran(h, b: Bundle, cmd, permutations: int) -> None:
    fields = dict(line.split("=", 1) for line in cmd.stdout.splitlines())
    stat = float(fields["moran_i"])
    oracle = float(oracles.morans_i(list(b.y), b.triplets))
    h.check(abs(stat - oracle) <= MORAN_TOL, f"Moran's I {stat!r} != oracle {oracle!r}")
    h.check(abs(float(fields["expected"]) + 1.0 / (b.n - 1)) <= 1e-15, "Moran expectation")
    p_value = float(fields["p_value"].split()[0])
    h.check(1.0 / (permutations + 1) <= p_value <= 1.0, f"Moran p-value {p_value!r}")


def check_table1(h, path: Path, rhos, replicates: int) -> None:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    k = BASIS_COUNT
    n_cols = 2 + (k + 3) * (2 if replicates > 1 else 1)
    h.check(len(rows) == 1 + 3 * len(rhos) and all(len(r) == n_cols for r in rows),
            f"{path}: shape")
    rho_col = rows[0].index("rho")
    for row in rows[1:]:
        cells = [float(v) for v in row[:1] + row[2:]]
        h.check(all(math.isfinite(v) for v in cells), f"{path}: non-finite cell in {row[:2]}")
        h.check(0.0 <= float(row[rho_col]) < 1.0, f"{path}: rho estimate {row[rho_col]}")


# ---------------------------------------------------------------- workloads

class Workload:
    name = ""
    ops_per_round = 0
    probe_ops = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.eig_cache = {}
        self.data = None  # the bundle the per-module probes run on

    def setup_commands(self, workdir: Path) -> list[list[str]]:
        """Commands that make the input bundles the rounds read."""
        return []

    def setup(self, h, workdir: Path) -> None:
        """Check what the set-up commands made."""

    def round(self, h, r: int) -> None:
        raise NotImplementedError

    def probe(self, h) -> None:
        """Traced runs only: the commands this workload's rounds never
        run, at a small size, so that every per-module span exists."""
        d = h.round_dir
        rhos, replicates = ["0.5"], 1
        h.cli(["table1", "--rho-list", ",".join(rhos), "--replicates", str(replicates),
               "--n-iter", "200", "--burn-in", "100", "--seed", str(derive(self.seed, PROBE)),
               "--out", str(d / "table")], fits=3)
        check_table1(h, d / "table" / "table1.csv", rhos, replicates)


class PaperFit(Workload):
    """simulate, fit --method all, more ML fits and moran on a fresh
    11x11 dataset.  One ML fit at n=121 lasts about 0.1 s, and 40
    consecutive fits of one bundle took 0.09-0.16 s each on the
    reference machine, so each round runs ml_repeats more
    `fit --method ml` on its bundle and ml_fit_s averages them."""
    name = "paper_fit"
    n_iter, burn_in, permutations = 2500, 500, 9999
    methods = ("normal-kernel", "uniform-kernel", "ml")
    ml_repeats = 4
    ops_per_round = 3 + len(methods) + 2 * ml_repeats

    def round(self, h, r: int) -> None:
        d = h.round_dir
        s = str(derive(self.seed, r))
        h.cli(["simulate", "--rho", RHO, "--seed", s, "--grid", _grid(PAPER_GRID),
               "--out", str(d / "bundle")])
        b = self.data = check_bundle(h, d / "bundle", PAPER_GRID, self.eig_cache)
        cmd = h.cli(["fit", "--data", str(d / "bundle"), "--method", "all", "--seed", s,
                     "--n-iter", str(self.n_iter), "--burn-in", str(self.burn_in),
                     "--out", str(d / "fit")], fits=len(self.methods))
        check_fit(h, b, d / "fit", cmd, self.methods, self.n_iter)
        for i in range(self.ml_repeats):
            cmd = h.cli(["fit", "--data", str(d / "bundle"), "--method", "ml",
                         "--out", str(d / f"ml-{i}")], fits=1)
            check_fit(h, b, d / f"ml-{i}", cmd, ["ml"], 0)
        cmd = h.cli(["moran", "--response", str(d / "bundle" / "response.csv"),
                     "--weights", str(d / "bundle" / "weights.csv"),
                     "--permutations", str(self.permutations), "--seed", s])
        check_moran(h, b, cmd, self.permutations)


class LargeLattice(Workload):
    """fit --method ml, a short normal-kernel chain and moran on one
    22x22 bundle made at set-up."""
    name = "large_lattice"
    n_iter, burn_in, permutations = 200, 100, 5000
    ops_per_round = 5

    def setup_commands(self, workdir: Path) -> list[list[str]]:
        return [["simulate", "--rho", RHO, "--seed", str(derive(self.seed, SETUP)),
                 "--grid", _grid(LARGE_GRID), "--out", str(workdir / "bundle")]]

    def setup(self, h, workdir: Path) -> None:
        self.bundle = workdir / "bundle"
        self.data = check_bundle(h, self.bundle, LARGE_GRID, self.eig_cache)

    def round(self, h, r: int) -> None:
        d, b = h.round_dir, self.data
        s = str(derive(self.seed, r))
        cmd = h.cli(["fit", "--data", str(self.bundle), "--method", "ml",
                     "--out", str(d / "ml")], fits=1)
        check_fit(h, b, d / "ml", cmd, ["ml"], 0)
        cmd = h.cli(["fit", "--data", str(self.bundle), "--method", "normal-kernel",
                     "--seed", s, "--n-iter", str(self.n_iter),
                     "--burn-in", str(self.burn_in), "--out", str(d / "chain")], fits=1)
        check_fit(h, b, d / "chain", cmd, ["normal-kernel"], self.n_iter)
        cmd = h.cli(["moran", "--response", str(self.bundle / "response.csv"),
                     "--weights", str(self.bundle / "weights.csv"),
                     "--permutations", str(self.permutations), "--seed", s])
        check_moran(h, b, cmd, self.permutations)


class ReplicateStudy(Workload):
    """table1 over three rho values with replicates and short chains,
    then moran on an 11x11 bundle of the same design made at set-up."""
    name = "replicate_study"
    rhos, replicates = ("0.3", "0.5", "0.7"), 2
    n_iter, burn_in, permutations = 300, 100, 9999
    ops_per_round = 2 + 3 * len(rhos) * replicates
    probe_ops = 2

    def setup_commands(self, workdir: Path) -> list[list[str]]:
        return [["simulate", "--rho", RHO, "--seed", str(derive(self.seed, SETUP)),
                 "--grid", _grid(PAPER_GRID), "--out", str(workdir / "bundle")]]

    def setup(self, h, workdir: Path) -> None:
        self.bundle = workdir / "bundle"
        self.data = check_bundle(h, self.bundle, PAPER_GRID, self.eig_cache)

    def round(self, h, r: int) -> None:
        d = h.round_dir
        s = str(derive(self.seed, r))
        h.cli(["table1", "--rho-list", ",".join(self.rhos),
               "--replicates", str(self.replicates), "--seed", s,
               "--n-iter", str(self.n_iter), "--burn-in", str(self.burn_in),
               "--out", str(d / "table")], fits=3 * len(self.rhos) * self.replicates)
        check_table1(h, d / "table" / "table1.csv", self.rhos, self.replicates)
        cmd = h.cli(["moran", "--response", str(self.bundle / "response.csv"),
                     "--weights", str(self.bundle / "weights.csv"),
                     "--permutations", str(self.permutations), "--seed", s])
        check_moran(h, self.data, cmd, self.permutations)

    def probe(self, h) -> None:
        d = h.round_dir
        cmd = h.cli(["fit", "--data", str(self.bundle), "--method", "normal-kernel",
                     "--n-iter", "200", "--burn-in", "100", "--seed", str(derive(self.seed, PROBE)),
                     "--out", str(d / "fit")], fits=1)
        check_fit(h, self.data, d / "fit", cmd, ["normal-kernel"], 200)


WORKLOADS = {w.name: w for w in (PaperFit, LargeLattice, ReplicateStudy)}
