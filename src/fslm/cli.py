"""Command-line interface: simulate, fit, table1, moran.

Flag precedence is flags > JSON config file (--config) > built-in
defaults.  Exit codes: 0 success, 2 validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as fio
from .basis import build_bspline_basis, smooth_curves
from .mle import fit_ml
from .model import Estimate, FslmData, PriorSpec
from .sampler import Chain, MhConfig, run_mwg, summarize
from .simgen import GRID_T, SimulationSpec, make_dataset
from .spatial import (
    check_rho,
    grid_contiguity,
    morans_i,
    row_standardize,
    weights_from_edges,
)

# in table1's row order; "<kernel>-kernel" names a Bayesian fit
METHODS = ["uniform-kernel", "normal-kernel", "ml"]
JSON_TYPES = {bool: "boolean", str: "string", int: "integer", float: "number"}
SPLINE_ORDER = 4  # cubic, as in simulate's curves
PAPER_GRID = (11, 11)  # the rook lattice of the paper's simulation study


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except Exception:
        raise argparse.ArgumentTypeError("grid must look like ROWSxCOLS, e.g. 11x11")


def _int_at_least(text, low: int, what: str) -> int:
    """An integer flag value of at least low, refused while the flags parse,
    before any output; what describes the values allowed."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be {what}, not {text!r}")
    if value < low:
        raise argparse.ArgumentTypeError(f"must be {what}, not {value}")
    return value


def _nonnegative_int(text) -> int:
    """A seed or a count."""
    return _int_at_least(text, 0, "a nonnegative integer")


def _basis_count(text) -> int:
    """A B-spline basis holds at least as many functions as its order."""
    return _int_at_least(text, SPLINE_ORDER,
                         f"an integer of at least {SPLINE_ORDER}, the cubic B-spline order")


def _parse_rho_list(text: str) -> list[float]:
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"rho-list must hold numbers, not {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("rho-list must not be empty")
    if not np.all(np.isfinite(vals)):
        raise argparse.ArgumentTypeError(f"rho-list values must be finite, not {text!r}")
    if len(set(vals)) < len(vals):
        raise argparse.ArgumentTypeError("rho-list must not repeat a value")
    return vals


class _Commands(argparse._SubParsersAction):
    """Subcommands whose defaults a --config file sets before they parse
    their flags, so that the file can stand in for any flag."""

    def __call__(self, parser, namespace, values, option_string=None):
        if namespace.config is not None:
            _apply_config(self.choices[values[0]], values[0], namespace.config)
        super().__call__(parser, namespace, values, option_string)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fslm")
    parser.add_argument("--config", type=Path, help="JSON file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True, action=_Commands)

    sim = sub.add_parser("simulate", help="generate a synthetic data bundle")
    sim.add_argument("--rho", type=float, default=0.5)
    sim.add_argument("--sigma2", type=float, default=1.0)
    sim.add_argument("--seed", type=_nonnegative_int, default=0)
    sim.add_argument("--grid", type=_parse_grid, help="lattice ROWSxCOLS, 11x11 if no --edges")
    sim.add_argument("--edges", type=Path, help="edge-list CSV instead of a lattice")
    sim.add_argument("--n-units", type=_nonnegative_int, help="unit count when using --edges")
    sim.add_argument("--basis-count", type=_basis_count, default=7)
    sim.add_argument("--noise-sd", type=float, default=1.0)
    sim.add_argument("--out", type=Path, required=True)

    fit = sub.add_parser("fit", help="fit estimators to a simulated bundle")
    fit.add_argument("--data", type=Path, required=True, help="bundle directory")
    fit.add_argument(
        "--method",
        choices=METHODS + ["all"],
        default="normal-kernel",
    )
    fit.add_argument("--seed", type=_nonnegative_int, default=0)
    fit.add_argument("--n-iter", type=int, default=20_000)
    fit.add_argument("--burn-in", type=int, default=5_000)
    fit.add_argument("--basis-count", type=_basis_count, default=7)
    fit.add_argument("--svg", action="store_true", help="emit SVG trace plots")
    fit.add_argument("--out", type=Path, required=True)

    tab = sub.add_parser("table1", help="simulate and compare all methods per rho")
    tab.add_argument("--rho-list", type=_parse_rho_list, required=True)
    tab.add_argument("--replicates", type=int, default=1)
    tab.add_argument("--seed", type=_nonnegative_int, default=0)
    tab.add_argument("--grid", type=_parse_grid, default=PAPER_GRID)
    tab.add_argument("--basis-count", type=_basis_count, default=7)
    tab.add_argument("--n-iter", type=int, default=5_000)
    tab.add_argument("--burn-in", type=int, default=1_500)
    tab.add_argument("--out", type=Path, required=True)

    mor = sub.add_parser("moran", help="Moran's I permutation test")
    mor.add_argument("--response", type=Path, required=True)
    mor.add_argument("--weights", type=Path, required=True)
    mor.add_argument("--permutations", type=_nonnegative_int, default=999)
    mor.add_argument("--seed", type=_nonnegative_int, default=0)
    return parser


def _check_unit_count(n: int, basis_count: int) -> None:
    if n < basis_count + 2:  # one unit per parameter in beta, sigma2 and rho
        raise ValueError(f"{n} units are too few to fit {basis_count} basis "
                         f"coefficients, sigma2 and rho")


def cmd_simulate(args) -> int:
    if args.edges is not None and args.grid is not None:
        raise ValueError("--grid and --edges both give W; give one of them")
    if args.edges is None and args.n_units is not None:
        raise ValueError("--n-units needs --edges: a --grid lattice has ROWS*COLS units")
    spec = SimulationSpec(
        rho_true=args.rho, sigma2_true=args.sigma2, noise_sd=args.noise_sd,
        n_basis=args.basis_count, seed=args.seed,
    )
    if args.edges is not None:
        edges = fio.read_edges_csv(args.edges)
        if args.n_units is None and not edges:
            raise ValueError(f"{args.edges} holds no edges; give the unit count by --n-units")
        n = 1 + max(max(e) for e in edges) if args.n_units is None else args.n_units
        w = weights_from_edges(n, edges)
    else:
        w = grid_contiguity(*(args.grid or PAPER_GRID))
    _check_unit_count(w.n, args.basis_count)
    dataset = make_dataset(spec, row_standardize(w))

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    fio.write_curves_csv(out / "curves.csv", GRID_T, dataset.raw_curves)
    fio.write_response_csv(out / "response.csv", dataset.data.y)
    fio.write_weights_csv(out / "weights.csv", dataset.data.w)
    fio.write_truth_json(out / "truth.json", dataset)
    print(
        f"simulated n={dataset.data.n} units: rho={fio.fmt(dataset.true_theta.rho)} "
        f"sigma2={fio.fmt(dataset.true_theta.sigma2)}"
    )
    print(f"wrote curves.csv response.csv weights.csv truth.json to {out}")
    return 0


def _load_bundle(data_dir: Path, basis_count: int) -> FslmData:
    t_grid, obs = fio.read_curves_csv(data_dir / "curves.csv")
    y = fio.read_response_csv(data_dir / "response.csv")
    if len(obs) != y.size:
        raise ValueError(f"{data_dir}: curves.csv has {len(obs)} rows "
                         f"but response.csv has {y.size}")
    _check_unit_count(y.size, basis_count)
    w = fio.read_weights_csv(data_dir / "weights.csv", n=y.size)
    if not w.entries.any():
        raise ValueError(f"{data_dir / 'weights.csv'} holds no links, "
                         "so rho is not identified")
    basis = build_bspline_basis(t_grid[0], t_grid[-1], basis_count, SPLINE_ORDER)
    sample = smooth_curves(t_grid, obs, basis)
    return FslmData(y=y, z=sample.scores, w=w)


def _fit_one(method: str, data: FslmData,
             config: MhConfig | None) -> tuple[Estimate, Chain | None]:
    """Returns (estimate, chain or None); a chain runs with the method's kernel."""
    if method == "ml":
        return fit_ml(data), None
    config = replace(config, kernel=method.removesuffix("-kernel"))
    chain = run_mwg(data, PriorSpec.diffuse(data.k), config)
    return summarize(chain, data), chain


def cmd_fit(args) -> int:
    # ML first, so that its refusal of a rank-deficient Z comes before any chain
    methods = METHODS[::-1] if args.method == "all" else [args.method]
    # ML alone runs no chain, so it ignores the chain flags
    config = None if methods == ["ml"] else MhConfig(
        n_iter=args.n_iter, burn_in=args.burn_in, seed=args.seed)
    data = _load_bundle(args.data, args.basis_count)
    fits = {method: _fit_one(method, data, config) for method in methods}
    # --out is made only once every fit has succeeded
    args.out.mkdir(parents=True, exist_ok=True)
    report = {}
    for method, (estimate, chain) in fits.items():
        report[method] = estimate.to_json_dict()
        if chain is not None:
            fio.write_chain_csv(args.out / f"trace_{method}.csv", chain)
            if args.svg:
                _write_trace_svg(args.out / f"trace_{method}.svg", chain)
    fio.write_json(args.out / "report.json", report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _write_trace_svg(path, chain) -> None:
    series = {"sigma2": chain.draws_sigma2, "rho": chain.draws_rho}
    for j in range(chain.draws_beta.shape[1]):
        series[f"beta_{j + 1}"] = chain.draws_beta[:, j]
    width, height, pad = 600, 120, 10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{(height + pad) * len(series)}">'
    ]
    for row, (name, vals) in enumerate(series.items()):
        lo, hi = float(vals.min()), float(vals.max())
        span = (hi - lo) or 1.0
        y0 = row * (height + pad)
        xs = np.linspace(0, width, vals.size)
        ys = y0 + height - height * (vals - lo) / span
        points = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="black" stroke-width="0.5" '
            f'points="{points}"/>'
            f'<text x="2" y="{y0 + 12}" font-size="10">{name}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


def cmd_table1(args) -> int:
    if args.replicates < 1:
        raise ValueError("--replicates must be at least 1")
    config = MhConfig(n_iter=args.n_iter, burn_in=args.burn_in, seed=args.seed)
    _check_unit_count(args.grid[0] * args.grid[1], args.basis_count)
    w = row_standardize(grid_contiguity(*args.grid))
    for rho in args.rho_list:  # before any seed is derived from rho
        check_rho(rho, w)
    # every replicate is simulated before any output or fit
    datasets = [
        [make_dataset(SimulationSpec(rho_true=rho, n_basis=args.basis_count,
                                     seed=args.seed + 1000 * rep + int(rho * 1e6)), w).data
         for rep in range(args.replicates)]
        for rho in args.rho_list
    ]
    args.out.mkdir(parents=True, exist_ok=True)

    columns = [f"beta_{j + 1}" for j in range(args.basis_count)]
    columns += ["sigma2", "rho", "bic"]
    header = ["rho_true", "method"] + columns
    if args.replicates > 1:
        header += [f"sd_{c}" for c in columns]
    table = []
    for replicates in datasets:
        for method in METHODS:
            stack = np.array([[*e.theta.beta, e.theta.sigma2, e.theta.rho, e.bic]
                              for e in (_fit_one(method, data, config)[0]
                                        for data in replicates)])
            sds = [stack.std(axis=0, ddof=1)] if args.replicates > 1 else []
            table.append(np.concatenate([stack.mean(axis=0), *sds]))
    out_path = args.out / "table1.csv"
    fio.write_table(out_path, header, np.repeat(args.rho_list, len(METHODS)),
                    np.tile(METHODS, len(args.rho_list)), *np.array(table).T)
    print(f"wrote {out_path}")
    return 0


def cmd_moran(args) -> int:
    y = fio.read_response_csv(args.response)
    w = fio.read_weights_csv(args.weights, n=y.size)
    result = morans_i(y, w, n_permutations=args.permutations, seed=args.seed)
    print(f"moran_i={fio.fmt(result.statistic)}")
    print(f"expected={fio.fmt(result.expected)}")
    print(f"p_value={fio.fmt(result.p_value)} ({result.n_permutations} permutations)")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "table1": cmd_table1,
    "moran": cmd_moran,
}


def _apply_config(sub, command, path) -> None:
    """Make the config file's values the subcommand's defaults, so flags
    still win over them, and stop requiring the flags the file supplies."""
    defaults = json.loads(Path(path).read_text())
    if not isinstance(defaults, dict):
        raise ValueError(f"{path} must hold a JSON object")
    actions = {a.dest: a for a in sub._actions}
    unknown = sorted(set(defaults) - set(actions))
    if unknown:
        raise ValueError(f"unknown {command} option(s) in {path}: {', '.join(unknown)}")
    for key, value in defaults.items():
        defaults[key] = _config_value(actions[key], value, f"{path}: {key}")
        actions[key].required = False
    sub.set_defaults(**defaults)


def _config_value(action, value, where):
    """Check a config value's JSON type against its flag: a boolean for a
    switch, else a string (argparse converts string defaults with type=)
    or, for an int or float flag, a number; bool subclasses int."""
    numeric = {int: (int,), _nonnegative_int: (int,), _basis_count: (int,),
               float: (int, float)}.get(action.type, ())
    allowed = (bool,) if action.nargs == 0 else (str,) + numeric
    if isinstance(value, bool) != (allowed == (bool,)) or not isinstance(value, allowed):
        names = " or ".join(JSON_TYPES[t] for t in allowed)
        raise ValueError(f"{where} must be a JSON {names}, not {json.dumps(value)}")
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{where} must be one of {', '.join(action.choices)}")
    if not numeric or isinstance(value, str):
        return value
    try:
        return action.type(value)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{where} {exc}") from None


def main(argv=None) -> int:
    try:
        # a --config file's errors surface while the arguments are parsed
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    # LinAlgError subclasses ValueError, so it must be caught first
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
