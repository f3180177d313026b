"""Command-line interface: simulate, fit, table1, moran.

Flag precedence is flags > JSON config file (--config) > built-in
defaults: the file's values are read as flags placed before the command
line's own.  Exit codes: 0 success, 2 validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
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


# each command's flags by dest: basis_count is --basis-count
FLAGS = {
    "simulate": {
        "rho": dict(type=float, default=0.5),
        "sigma2": dict(type=float, default=1.0),
        "seed": dict(type=_nonnegative_int, default=0),
        "grid": dict(type=_parse_grid, help="lattice ROWSxCOLS, 11x11 if no --edges"),
        "edges": dict(type=Path, help="edge-list CSV instead of a lattice"),
        "n_units": dict(type=_nonnegative_int, help="unit count when using --edges"),
        "basis_count": dict(type=_basis_count, default=7),
        "noise_sd": dict(type=float, default=1.0),
        "out": dict(type=Path, required=True),
    },
    "fit": {
        "data": dict(type=Path, required=True, help="bundle directory"),
        "method": dict(choices=METHODS + ["all"], default="normal-kernel"),
        "seed": dict(type=_nonnegative_int, default=0),
        "n_iter": dict(type=int, default=20_000),
        "burn_in": dict(type=int, default=5_000),
        "basis_count": dict(type=_basis_count, default=7),
        "svg": dict(action="store_true", help="emit SVG trace plots"),
        "out": dict(type=Path, required=True),
    },
    "table1": {
        "rho_list": dict(type=_parse_rho_list, required=True),
        "replicates": dict(type=int, default=1),
        "seed": dict(type=_nonnegative_int, default=0),
        "grid": dict(type=_parse_grid, default=PAPER_GRID),
        "basis_count": dict(type=_basis_count, default=7),
        "n_iter": dict(type=int, default=5_000),
        "burn_in": dict(type=int, default=1_500),
        "out": dict(type=Path, required=True),
    },
    "moran": {
        "response": dict(type=Path, required=True),
        "weights": dict(type=Path, required=True),
        "permutations": dict(type=_nonnegative_int, default=999),
        "seed": dict(type=_nonnegative_int, default=0),
    },
}


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """fslm's parser of --config and the command's name, and each command's
    parser of its flags.  Built once per process; nothing changes them."""
    parser = argparse.ArgumentParser(prog="fslm")
    parser.add_argument("--config", type=Path, help="JSON file of the command's flag values")
    parser.add_argument("command", choices=FLAGS, help="fslm COMMAND -h lists its flags")
    # argparse makes a REMAINDER positional required, which would name it
    # beside a missing command; an empty remainder is fine
    parser.add_argument("flags", nargs=argparse.REMAINDER,
                        help="the command's flags").required = False
    commands = {name: argparse.ArgumentParser(prog=f"fslm {name}") for name in FLAGS}
    for name, flags in FLAGS.items():
        for dest, options in flags.items():
            commands[name].add_argument("--" + dest.replace("_", "-"), **options)
    return parser, commands


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
        if args.n_units is None and edges.size == 0:
            raise ValueError(f"{args.edges} holds no edges; give the unit count by --n-units")
        n = 1 + int(edges.max()) if args.n_units is None else args.n_units
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
    if not w.links[0].size:
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


def _config_flags(command: str, path: Path) -> list[str]:
    """The config file's values as the command's flags (--seed=21, --svg),
    for argparse to convert and check.  Refuses only what JSON alone shows:
    an unknown key, a wrong JSON type and a value outside a flag's choices."""
    values = json.loads(path.read_text())
    if not isinstance(values, dict):
        raise ValueError(f"{path} must hold a JSON object")
    flags = FLAGS[command]
    unknown = sorted(set(values) - set(flags))
    if unknown:
        raise ValueError(f"unknown {command} option(s) in {path}: {', '.join(unknown)}")
    argv = []
    for key, value in values.items():
        flag, options = "--" + key.replace("_", "-"), flags[key]
        switch = options.get("action") == "store_true"
        # a boolean for a switch, else a string or, for an int or float
        # flag, a number; bool subclasses int
        numeric = {int: (int,), _nonnegative_int: (int,), _basis_count: (int,),
                   float: (int, float)}.get(options.get("type"), ())
        allowed = (bool,) if switch else (str,) + numeric
        if isinstance(value, bool) != switch or not isinstance(value, allowed):
            names = " or ".join(JSON_TYPES[t] for t in allowed)
            raise ValueError(f"{path}: {key} must be a JSON {names}, not {json.dumps(value)}")
        if "choices" in options and value not in options["choices"]:
            raise ValueError(f"{path}: {key} must be one of {', '.join(options['choices'])}")
        if value is not False:
            argv.append(flag if switch else f"{flag}={value}")
    return argv


def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        top = parser.parse_args(argv)
        # the file's flags come first, so the command line's win
        config = [] if top.config is None else _config_flags(top.command, top.config)
        args = commands[top.command].parse_args(config + top.flags)
        return COMMANDS[top.command](args)
    # LinAlgError subclasses ValueError, so it must be caught first
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
