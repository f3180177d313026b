"""Benchmark of the fslm command line, run in-process.

    python3 perfbench/run.py --workload paper_fit --seed 1 --seconds 36 --trace 0

Runs whole rounds of the workload's commands (workloads.py) for about
--seconds seconds, checks every output, and prints as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 each round runs once plain and once with a span around every
call of fslm's public functions, and the metrics are the per-module ones.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads, so that a run never depends
# on the caller's setting.  At n <= 484 a second OpenBLAS thread made
# neither the chain nor fit_ml faster on the 2-core reference machine
# (README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# One CPU as well.  table1 runs its replicates on a thread pool of
# cpu_count + 4 threads around loops that hold the GIL; spread over two
# cores, their hand-offs of the GIL made its round time swing between
# 5 and 14 s from one minute to the next on the reference machine
# (README.md).  The set-up interpreters inherit the mask.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracles
from tracing import CAPTURED, CPU, ID, NAME, PARENT, ROUND, TRACED, Tracer, seconds
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ml_fit_s": "s",
    "moran_perms_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "spatial.log_det_A_us": "us",
    "spatial.morans_i_us_per_perm": "us",
    "spatial.weights_ms": "ms",
    "model.beta_conditional_params_us": "us",
    "model.sigma2_conditional_params_us": "us",
    "model.rho_log_conditional_us": "us",
    "model.log_likelihood_us": "us",
    "sampler.run_mwg_us_per_iter": "us",
    "sampler.log_det_A_calls_per_iter": "count",
    "sampler.rho_ess_per_s": "1/s",
    "sampler.beta_min_ess_per_s": "1/s",
    "sampler.rho_ess": "per_1k_draws",
    "sampler.beta_min_ess": "per_1k_draws",
    "sampler.acceptance_rate": "ratio",
    "sampler.summarize_ms": "ms",
    "mle.fit_ml_s": "s",
    "mle.concentrated_loglik_us": "us",
    "simgen.make_dataset_ms": "ms",
    "basis.build_bspline_basis_ms": "ms",
    "basis.smooth_curves_ms": "ms",
    "io.write_chain_csv_ms": "ms",
    "io.read_bundle_ms": "ms",
    "cli.simulate_s": "s",
    "cli.fit_s": "s",
    "cli.moran_s": "s",
    "cli.table1_s": "s",
    "trace.overhead_s": "s",
}


def import_fslm():
    """fslm from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import fslm.cli
    if SRC not in Path(fslm.__file__).resolve().parents:
        raise SystemExit(f"error: imported fslm from {fslm.__file__}, not {SRC}")
    return fslm


class CommandFailed(Exception):
    pass


class Command:
    def __init__(self, argv, stdout, seconds, calls):
        self.argv, self.stdout, self.seconds, self.calls = argv, stdout, seconds, calls


class Call:
    """A call the checks read: its name, duration, arguments and result."""

    def __init__(self, name, seconds, args, result):
        self.name, self.seconds, self.args, self.result = name, seconds, args, result


class Totals:
    """What the measured rounds produced, summed over the run."""

    def __init__(self):
        self.round_walls = []
        self.ml_fit_s = []  # the duration of every fit_ml call
        self.perms = 0
        self.moran_s = 0.0
        self.sampler_s = 0.0
        self.draws = 0
        self.accepted = 0
        self.rho_ess = 0.0
        self.beta_ess = None

    def add(self, cmd: Command) -> None:
        chains = [c for c in cmd.calls if c.name == "sampler.run_mwg"]
        self.ml_fit_s += [c.seconds for c in cmd.calls if c.name == "mle.fit_ml"]
        if chains:
            self.sampler_s += cmd.seconds
        for call in chains:
            burn_in, chain = call.args[2].burn_in, call.result
            self.draws += len(chain) - burn_in
            self.accepted += int(chain.accepted[burn_in:].sum())
            self.rho_ess += oracles.ess(chain.draws_rho[burn_in:])
            beta = [oracles.ess(col) for col in chain.draws_beta[burn_in:].T]
            self.beta_ess = beta if self.beta_ess is None else [
                a + b for a, b in zip(self.beta_ess, beta)]
        if cmd.argv[0] == "moran":
            self.perms += int(cmd.argv[cmd.argv.index("--permutations") + 1])
            self.moran_s += cmd.seconds

    def sampler_metrics(self) -> dict:
        return {
            "sampler.rho_ess_per_s": self.rho_ess / self.sampler_s,
            "sampler.beta_min_ess_per_s": min(self.beta_ess) / self.sampler_s,
            "sampler.rho_ess": 1000 * self.rho_ess / self.draws,
            "sampler.beta_min_ess": 1000 * min(self.beta_ess) / self.draws,
            "sampler.acceptance_rate": self.accepted / self.draws,
        }


class Harness:
    """Runs fslm commands in-process and keeps the run's accounts."""

    def __init__(self, fslm, workdir: Path):
        self.fslm = fslm
        self.workdir = workdir
        self.round_dir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.totals = Totals()
        self.measuring = False
        self.tracer = None
        self._completed = 0
        self._wall = 0.0

    def use(self, tracer) -> None:
        if self.tracer is not None:
            self.tracer.remove()
        self.tracer = tracer
        tracer.install()

    @contextlib.contextmanager
    def untraced(self):
        """For the checks, which call fslm's smoothing themselves."""
        if not self.tracer.active:
            yield
            return
        self.tracer.remove()
        try:
            yield
        finally:
            self.tracer.install()

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)
            print(f"check failed: {message}", file=sys.stderr)

    def _main(self, argv):
        out = io.StringIO()
        tracer = self.tracer
        first = len(tracer.spans)
        with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out):
            try:
                code = self.fslm.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = None
        if code != 0:
            raise CommandFailed(f"fslm {' '.join(argv)} exited with {code}")
        calls = [Call(s[NAME], seconds(s), *tracer.calls[s[ID]])
                 for s in tracer.spans[first:] if s[ID] in tracer.calls]
        return Command(argv, out.getvalue(), seconds(tracer.spans[-1]), calls)

    def cli(self, argv, fits: int = 0) -> Command:
        """One operation: an fslm command and the fits it makes."""
        cmd = self._main(argv)
        self._completed += 1 + fits
        self._wall += cmd.seconds
        if self.measuring:
            self.totals.add(cmd)
        return cmd

    def setup(self, workload) -> None:
        self.tracer.round = "setup"
        for argv in workload.setup_commands(self.workdir):
            self._main(argv)
        with self.untraced():
            workload.setup(self, self.workdir)

    def run_round(self, body, ops: int, label) -> float:
        """Runs one round; returns the seconds its commands took."""
        self.round_dir = self.workdir / f"round-{label}"
        self.round_dir.mkdir()
        self.tracer.round = label
        self._completed, self._wall = 0, 0.0
        try:
            body()
        except CommandFailed as exc:
            print(exc, file=sys.stderr)
        except Exception:
            traceback.print_exc()
            self.problems.append(f"round {label}: checks raised")
        self.attempted += ops
        self.failed += ops - self._completed
        shutil.rmtree(self.round_dir)
        for sid, (args, result) in self.tracer.calls.items():
            if isinstance(result, self.fslm.Chain):
                self.tracer.work[sid] = len(result)
            elif isinstance(result, self.fslm.MoranResult):
                self.tracer.work[sid] = result.n_permutations
        self.tracer.calls.clear()
        return self._wall


def _median(values, scale=1.0):
    return statistics.median(values) * scale


def per_layer_metrics(spans, work, totals: Totals, overheads) -> dict:
    """Medians over the traced rounds' spans; a layer the rounds never
    reach is read from the set-up or the probe commands instead.  A
    layer's cost is the CPU time of the thread that called it, so that
    on table1's worker threads it leaves out the time the call waited
    for the GIL.  A CLI command's cost is the wall time a round spends
    in it, summed over the round's calls of that command."""
    in_rounds, elsewhere = {}, {}
    for s in spans:
        (in_rounds if isinstance(s[ROUND], int) else elsewhere).setdefault(s[NAME], []).append(s)

    def pick(name):
        return in_rounds.get(name) or elsewhere[name]

    def med(name, scale):
        return _median([s[CPU] for s in pick(name)], scale)

    def per_unit(name):
        return _median([s[CPU] / work[s[ID]] for s in pick(name)], 1e6)

    def per_round(name):
        walls = {}
        for s in pick(name):
            walls[s[ROUND]] = walls.get(s[ROUND], 0.0) + seconds(s)
        return _median(list(walls.values()))

    parent_of = {s[ID]: s[PARENT] for s in spans}
    chains = {s[ID] for s in in_rounds["sampler.run_mwg"]}
    log_dets_in_chains = 0
    for s in in_rounds.get("spatial.log_det_A", []):
        parent = s[PARENT]
        while parent is not None and parent not in chains:
            parent = parent_of.get(parent)
        log_dets_in_chains += parent is not None

    m = {
        "spatial.log_det_A_us": med("spatial.log_det_A", 1e6),
        "spatial.morans_i_us_per_perm": per_unit("spatial.morans_i"),
        "spatial.weights_ms": med("spatial.grid_contiguity", 1e3)
        + med("spatial.row_standardize", 1e3),
        "model.beta_conditional_params_us": med("model.beta_conditional_params", 1e6),
        "model.sigma2_conditional_params_us": med("model.sigma2_conditional_params", 1e6),
        "model.rho_log_conditional_us": med("model.rho_log_conditional", 1e6),
        "model.log_likelihood_us": med("model.log_likelihood", 1e6),
        "sampler.run_mwg_us_per_iter": per_unit("sampler.run_mwg"),
        "sampler.log_det_A_calls_per_iter":
            log_dets_in_chains / sum(work[sid] for sid in chains),
        **totals.sampler_metrics(),
        "sampler.summarize_ms": med("sampler.summarize", 1e3),
        "mle.fit_ml_s": med("mle.fit_ml", 1.0),
        "mle.concentrated_loglik_us": med("mle.concentrated_loglik", 1e6),
        "simgen.make_dataset_ms": med("simgen.make_dataset", 1e3),
        "basis.build_bspline_basis_ms": med("basis.build_bspline_basis", 1e3),
        "basis.smooth_curves_ms": med("basis.smooth_curves", 1e3),
        "io.write_chain_csv_ms": med("io.write_chain_csv", 1e3),
        "io.read_bundle_ms": sum(med(f"io.read_{part}_csv", 1e3)
                                 for part in ("curves", "response", "weights")),
        **{f"cli.{c}_s": per_round(f"cli.{c}") for c in ("simulate", "fit", "moran", "table1")},
        "trace.overhead_s": _median(overheads),
    }
    return {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER.items()}


def time_setups(workload: str, seed: int, workdir: Path) -> list[float]:
    """Wall time of fresh interpreters that import fslm and make the
    workload's input bundles: the import happens once per process, so
    it is only measured again in a new one."""
    times = []
    for i in range(SETUP_REPEATS):
        target = workdir / f"setup-{i}"
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only", str(target),
                "--workload", workload, "--seed", str(seed)]
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
        shutil.rmtree(target)
    return times


def run(args) -> dict:
    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        setup_times = time_setups(args.workload, args.seed, workdir)
        fslm = import_fslm()
        workload = WORKLOADS[args.workload](args.seed)
        capture = Tracer(CAPTURED)
        full = Tracer(TRACED) if args.trace else None
        h = Harness(fslm, workdir)
        h.use(full or capture)
        h.setup(workload)

        overheads = []
        start, r = time.perf_counter(), 0
        while True:
            round_start = time.perf_counter()
            h.use(capture)
            h.measuring = True
            wall = h.run_round(lambda: workload.round(h, r), workload.ops_per_round, r)
            h.totals.round_walls.append(wall)
            capture.spans.clear()
            if full is not None:
                h.use(full)
                h.measuring = False
                overheads.append(
                    h.run_round(lambda: workload.round(h, r), workload.ops_per_round, r) - wall)
            r += 1
            now = time.perf_counter()
            if now - start + (now - round_start) > args.seconds:
                break
        totals = h.totals
        print(f"{args.workload}: {r} rounds, round walls "
              f"{[round(w, 3) for w in totals.round_walls]}", file=sys.stderr)

        if full is not None:
            def probe():
                workload.probe(h)
                data = workload.data
                with h.untraced():
                    w = fslm.SpatialWeights(n=data.n, entries=data.w, row_standardized=True)
                    fdata = fslm.FslmData(y=data.y, z=data.z, w=w)
                    rho = data.rho_ml()
                for _ in range(20):
                    fslm.mle.concentrated_loglik(rho, fdata)

            h.run_round(probe, workload.probe_ops, "probe")
            h.tracer.remove()
            metrics = per_layer_metrics(full.spans, full.work, totals, overheads)
            full.write_csv(RUNS / f"spans-{args.workload}-seed{args.seed}.csv")
        else:
            h.tracer.remove()
            if totals.draws:
                print("sampler: " + json.dumps(totals.sampler_metrics()))
            values = {
                "setup_s": _median(setup_times),
                "wall_s": statistics.fmean(totals.round_walls),
                "ml_fit_s": statistics.fmean(totals.ml_fit_s),
                "moran_perms_per_s": totals.perms / totals.moran_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        return {"correct": not h.problems, "attempted": h.attempted,
                "failed": h.failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_only(args) -> None:
    fslm = import_fslm()
    target = Path(args.setup_only)
    target.mkdir(parents=True)
    for argv in WORKLOADS[args.workload](args.seed).setup_commands(target):
        with contextlib.redirect_stdout(io.StringIO()):
            code = fslm.cli.main(argv)
        if code != 0:
            raise SystemExit(f"error: set-up command {argv} exited with {code}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "fslm" / "__init__.py").is_file():
        print(f"error: {SRC}/fslm not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.setup_only:
        setup_only(args)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
